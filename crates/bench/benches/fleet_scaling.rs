//! Scaling benchmark for the work-stealing fleet engine: serial vs a sweep
//! of thread counts at increasing fleet sizes, with a bit-identity check
//! between serial and every threaded run, plus the streaming ladder —
//! 1k/100k/1M-node runs at a short simulated span whose nodes/sec,
//! offered-packet and per-rung peak-RSS rows quantify the engine's
//! O(workers) live state — and one row for the coupled mesh engine: a
//! 24-node line mesh run serially for 600 s, with its node·s/s and peak
//! RSS. The mesh row and every ladder rung run in a child process of the
//! bench each, so each one's peak RSS is its own and not heap that the
//! fleet runs or an earlier rung left resident.
//!
//! Emits `BENCH_fleet.json` in the workspace root. Run with
//! `cargo bench -p picocube-bench --bench fleet_scaling`. Flags:
//!
//! - `--short`: CI smoke mode — the 256/1024/4096-node thread sweep at
//!   12 s simulated instead of 30 s, a 60 s mesh and a ladder without the
//!   1M rung; writes `BENCH_fleet_smoke.json` instead so the committed
//!   full report is never clobbered by a quick run.
//! - `--telemetry PATH`: stream the widest threaded run's event logs to
//!   PATH as JSON lines and print the merged metric registry; the identity
//!   check then also covers serial-vs-threaded metric totals (it always
//!   covers the full registries regardless).
//!
//! Honesty rules baked into the report:
//!
//! - Serial and every threaded config are timed the same way: `reps`
//!   rounds, interleaved (serial, then each thread count, then the next
//!   round), so no config gets all the warm caches. Each row records the
//!   min and the median of its runs. Every run of a config produces
//!   bit-identical outcomes, so repetition only tightens the timing.
//! - `speedup` is always the measured `serial / threaded` ratio of the
//!   mins (`speedup_median` of the medians) — on a single-hardware-thread
//!   machine it will honestly sit at or below 1.0 (every worker
//!   serializes), and the report's `hardware_threads` field says how to
//!   read it.
//! - With ≥ 2 hardware threads, a run on 2..=hardware threads whose min
//!   is slower than serial's is an engine regression, not an artifact:
//!   the bench exits nonzero so CI fails. Only rows whose serial min
//!   reaches [`GATE_MIN_SERIAL_S`] are held to it, and the sweep must
//!   keep at least one such row. Single-thread machines cannot
//!   demonstrate parallelism and skip the gate.
//! - The pre-overhaul 256-node serial time is embedded as `baseline` so
//!   the before/after comparison travels with the numbers.
//! - Every ladder rung must put packets on the air; a rung that offers
//!   none measured an idle fleet, and the bench exits nonzero.

use picocube_bench::rss::{fmt_bytes, max_rss_bytes};
use picocube_bench::timing::{time_interleaved, time_once, Spread};
use picocube_node::{run_fleet_with_stats, run_mesh_with, FleetConfig, MeshConfig, Parallelism};
use picocube_sim::SimDuration;
use picocube_telemetry::{summary_table, JsonlRecorder, Metrics, NullRecorder, Recorder};
use picocube_units::json::{Json, ToJson};
use std::process::{Command, Stdio};

const SEED: u64 = 42;

/// Simulated span of every ladder rung. A node's first SP12 wake lands at
/// 6 s plus its power-up offset in [0, 6) s, so 12 s is the shortest span
/// in which every node wakes, samples and transmits once; nodes/sec here
/// measures the engine's streaming throughput, not the firmware's duty
/// cycle.
const LADDER_DURATION_S: u64 = 12;

/// The shortest serial min a sweep row needs before the regression gate
/// holds it. On a shared host a run of a few milliseconds fits inside one
/// scheduling hiccup: on a shared 2-vCPU VM, 256-node runs of 6-15 ms and
/// 1024-node runs of 25-30 ms read 0.97-0.98x on 2 threads in one
/// contended round and 1.4-1.9x in the next. A floor on the measured
/// time, rather than on the node count, keeps holding rows that are long
/// enough as the engine gets faster.
const GATE_MIN_SERIAL_S: f64 = 0.05;

/// 256-node serial wall time recorded by this bench immediately before the
/// hot-path overhaul (cached event horizon, operating-point memo cache,
/// draw-signature gating, assembler fast paths), kept for the before/after
/// comparison in the emitted report.
const PRE_OVERHAUL_SERIAL_256_S: f64 = 0.169428406;

/// 256-node serial wall time recorded immediately before the pre-decoded
/// translation cache layer (DESIGN.md §16),
/// kept alongside the pre-overhaul time so each layer's contribution to
/// the before/after comparison travels with the report.
const PRE_TRANSLATION_SERIAL_256_S: f64 = 0.088132198;

struct ThreadRow {
    threads: usize,
    threaded: Spread,
    nodes_per_s: f64,
    /// Measured `serial / threaded` ratio of the mins, always recorded.
    /// Read it against the report's `hardware_threads`: a single-thread
    /// machine honestly shows ≤ 1.0 because every worker serializes.
    speedup: f64,
    /// The same ratio of the medians.
    speedup_median: f64,
    steals: u64,
    identical: bool,
}

impl ThreadRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads".into(), self.threads.to_json()),
            ("threaded_s".into(), self.threaded.min_s.to_json()),
            ("threaded_median_s".into(), self.threaded.median_s.to_json()),
            ("nodes_per_s".into(), self.nodes_per_s.to_json()),
            ("speedup".into(), self.speedup.to_json()),
            ("speedup_median".into(), self.speedup_median.to_json()),
            ("steals".into(), self.steals.to_json()),
            ("identical".into(), self.identical.to_json()),
        ])
    }
}

struct SizeRow {
    nodes: usize,
    serial: Spread,
    serial_nodes_per_s: f64,
    sweep: Vec<ThreadRow>,
}

impl SizeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nodes".into(), self.nodes.to_json()),
            ("serial_s".into(), self.serial.min_s.to_json()),
            ("serial_median_s".into(), self.serial.median_s.to_json()),
            (
                "serial_nodes_per_s".into(),
                self.serial_nodes_per_s.to_json(),
            ),
            (
                "sweep".into(),
                Json::Arr(self.sweep.iter().map(ThreadRow::to_json).collect()),
            ),
        ])
    }
}

struct Args {
    short: bool,
    telemetry: Option<String>,
    /// Run only the mesh row and print it as JSON: the child process the
    /// bench starts for that row.
    mesh_row: bool,
    /// Run only the ladder rung of this many nodes and print it as JSON:
    /// the child process the bench starts for each rung.
    ladder_rung: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        short: false,
        telemetry: None,
        mesh_row: false,
        ladder_rung: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--short" => args.short = true,
            "--mesh-row" => args.mesh_row = true,
            "--ladder-rung" => {
                let nodes = argv.next().and_then(|n| n.parse().ok());
                args.ladder_rung = Some(nodes.expect("--ladder-rung needs a node count"));
            }
            "--telemetry" => {
                args.telemetry = Some(argv.next().expect("--telemetry needs a file path"));
            }
            _ => {}
        }
    }
    args
}

/// The mesh row: a 24-node serial line mesh (`MeshConfig::default()`
/// otherwise) timed in `reps` rounds, with min and median wall time,
/// node·s/s and the peak RSS of the child process that runs it (`null`
/// where procfs is unavailable).
fn mesh_row(short: bool, reps: u32) -> Json {
    let duration_s: u64 = if short { 60 } else { 600 };
    let config = MeshConfig {
        nodes: 24,
        duration: SimDuration::from_secs(duration_s),
        seed: SEED,
        ..MeshConfig::default()
    };
    let (wall, (out, _)) = time_interleaved(reps, 1, |_| {
        run_mesh_with(&config, &mut NullRecorder).expect("valid mesh configuration")
    })
    .pop()
    .expect("reps > 0 timed the mesh");
    let hwm = max_rss_bytes();
    let node_s_per_s = (config.nodes as u64 * duration_s) as f64 / wall.min_s;
    eprintln!(
        "\nmesh: {} nodes, {duration_s} s simulated, serial: {:.3}/{:.3}s min/med, \
         {node_s_per_s:.0} node-s/s, peak RSS {}, {} relays",
        config.nodes,
        wall.min_s,
        wall.median_s,
        hwm.map_or("n/a".to_string(), fmt_bytes),
        out.relays,
    );
    assert!(
        out.relays > 0,
        "the mesh row relayed nothing; it timed an idle mesh"
    );
    Json::Obj(vec![
        ("nodes".into(), config.nodes.to_json()),
        ("simulated_duration_s".into(), (duration_s as f64).to_json()),
        ("parallelism".into(), Json::Str("serial".into())),
        ("wall_s".into(), wall.min_s.to_json()),
        ("wall_median_s".into(), wall.median_s.to_json()),
        ("node_s_per_s".into(), node_s_per_s.to_json()),
        (
            "max_rss_bytes".into(),
            hwm.map_or(Json::Null, |b| b.to_json()),
        ),
    ])
}

/// One rung of the streaming ladder, timed once in this process: a
/// short-duration run at a fleet size the materialize-then-merge engine
/// could not hold in memory, with the packets it offered and this
/// process's peak RSS (`null` where procfs is unavailable). The bench
/// runs each rung in a child of its own, so that peak is the rung's alone.
fn ladder_rung(nodes: usize, threads: usize) -> Json {
    let config = FleetConfig {
        nodes,
        duration: SimDuration::from_secs(LADDER_DURATION_S),
        seed: SEED,
        parallelism: Parallelism::Threads(threads),
        ..FleetConfig::default()
    };
    let (wall_s, (out, _, _)) = time_once(|| run_fleet_with_stats(&config, &mut NullRecorder));
    Json::Obj(vec![
        ("nodes".into(), nodes.to_json()),
        ("threads".into(), threads.to_json()),
        ("wall_s".into(), wall_s.to_json()),
        ("nodes_per_s".into(), (nodes as f64 / wall_s).to_json()),
        ("offered".into(), out.offered.to_json()),
        (
            "max_rss_bytes".into(),
            max_rss_bytes().map_or(Json::Null, |b| b.to_json()),
        ),
    ])
}

/// Runs this bench again in a child process with `args` and parses the
/// JSON row the child prints.
fn child_row(args: &[&str]) -> Json {
    let child = Command::new(std::env::current_exe().expect("the bench's own executable path"))
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child row's process");
    assert!(
        child.status.success(),
        "the child row {args:?} failed: {}",
        child.status
    );
    Json::parse(&String::from_utf8_lossy(&child.stdout)).expect("child row JSON")
}

fn main() {
    let args = parse_args();
    // `None` when the OS cannot say (cgroup restrictions, exotic
    // platforms) — that is *not* evidence of a single-threaded machine,
    // so only a known count of 1 suppresses the speedup column.
    let hardware_threads: Option<usize> =
        std::thread::available_parallelism().ok().map(|n| n.get());
    // Both modes sweep fleets of 256, 1024 and 4096 nodes: the 256-node
    // row carries the baseline comparison, and the larger ones run long
    // enough for the regression gate (`GATE_MIN_SERIAL_S`). The smoke sweep
    // simulates 12 s, the shortest span in which every node wakes and
    // transmits.
    let (sizes, duration_s, reps, sweep): (&[usize], u64, u32, &[usize]) = if args.short {
        (&[256, 1024, 4096], 12, 5, &[2, 4])
    } else {
        (&[256, 1024, 4096], 30, 7, &[1, 2, 4, 8])
    };
    let ladder_threads = hardware_threads.unwrap_or(4).clamp(2, 16);
    if args.mesh_row {
        println!("{}", mesh_row(args.short, reps));
        return;
    }
    if let Some(nodes) = args.ladder_rung {
        println!("{}", ladder_rung(nodes, ladder_threads));
        return;
    }

    let threads_shown = hardware_threads.map_or("unknown".to_string(), |n| n.to_string());
    println!(
        "fleet scaling: {duration_s} s simulated, seed {SEED}, \
         {threads_shown} hardware threads, every config timed {reps}x interleaved \
         (min / median)"
    );
    if hardware_threads == Some(1) {
        eprintln!(
            "WARNING: single hardware thread — every worker serializes; \
             speedups are recorded as measured but demonstrate overhead, \
             not scaling, and the regression gate is disarmed"
        );
    }
    println!(
        "{:>6} {:>8} {:>17} {:>17} {:>8} {:>8} {:>10}",
        "nodes", "threads", "serial min/med", "threaded min/med", "speedup", "steals", "identical"
    );

    let mut jsonl = args.telemetry.as_deref().map(|path| {
        JsonlRecorder::create(path).unwrap_or_else(|e| panic!("--telemetry {path}: {e}"))
    });
    let mut merged = Metrics::new();
    let mut sched_registry = Metrics::new();
    let mut all_identical = true;
    let mut rows = Vec::new();
    for &nodes in sizes {
        let config = |parallelism| FleetConfig {
            nodes,
            duration: SimDuration::from_secs(duration_s),
            seed: SEED,
            parallelism,
            ..FleetConfig::default()
        };
        // Case 0 is serial, case i the sweep's (i-1)th thread count.
        let parallelism = |case: usize| match case.checked_sub(1).and_then(|i| sweep.get(i)) {
            Some(&threads) => Parallelism::Threads(threads),
            None => Parallelism::Serial,
        };
        let mut timed = time_interleaved(reps, 1 + sweep.len(), |case| {
            run_fleet_with_stats(&config(parallelism(case)), &mut NullRecorder)
        })
        .into_iter();
        let (serial, (serial_out, serial_metrics, serial_stats)) =
            timed.next().expect("reps > 0 timed the serial case");
        let serial_json = serial_metrics.to_json().to_string();
        serial_stats.export_metrics(&mut sched_registry);

        let mut sweep_rows = Vec::new();
        for (&threads, (threaded, (out, metrics, stats))) in sweep.iter().zip(timed) {
            let identical = out == serial_out && metrics.to_json().to_string() == serial_json;
            all_identical &= identical;
            stats.export_metrics(&mut sched_registry);
            let speedup = serial.min_s / threaded.min_s;
            println!(
                "{nodes:>6} {threads:>8} {:>7.4}/{:<7.4}s {:>7.4}/{:<7.4}s {:>7.2}x \
                 {:>8} {identical:>10}",
                serial.min_s,
                serial.median_s,
                threaded.min_s,
                threaded.median_s,
                speedup,
                stats.steals(),
            );
            sweep_rows.push(ThreadRow {
                threads,
                threaded,
                nodes_per_s: nodes as f64 / threaded.min_s,
                speedup,
                speedup_median: serial.median_s / threaded.median_s,
                steals: stats.steals(),
                identical,
            });
        }
        // One untimed instrumented run per fleet size at the widest sweep
        // entry, so streaming events never distorts a timed run.
        if let Some(&widest) = sweep.last() {
            let (_, metrics, _) = match jsonl.as_mut() {
                Some(recorder) => {
                    run_fleet_with_stats(&config(Parallelism::Threads(widest)), recorder)
                }
                None => {
                    run_fleet_with_stats(&config(Parallelism::Threads(widest)), &mut NullRecorder)
                }
            };
            all_identical &= metrics.to_json().to_string() == serial_json;
            merged.merge_from(&metrics);
        }
        rows.push(SizeRow {
            nodes,
            serial,
            serial_nodes_per_s: nodes as f64 / serial.min_s,
            sweep: sweep_rows,
        });
    }

    let mesh = child_row(if args.short {
        &["--mesh-row", "--short"]
    } else {
        &["--mesh-row"]
    });

    // The streaming ladder: million-node scale at a short simulated span,
    // one child process per rung.
    let ladder_sizes: &[usize] = if args.short {
        &[1_000, 100_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    println!("\nstreaming ladder: {LADDER_DURATION_S} s simulated, {ladder_threads} threads");
    println!(
        "{:>9} {:>10} {:>13} {:>9} {:>12}",
        "nodes", "wall", "nodes/sec", "offered", "peak RSS"
    );
    let mut ladder = Vec::new();
    for &nodes in ladder_sizes {
        let row = child_row(&["--ladder-rung", &nodes.to_string()]);
        let field = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let hwm = row.get("max_rss_bytes").and_then(Json::as_u64);
        println!(
            "{nodes:>9} {:>9.2}s {:>13.0} {:>9} {:>12}",
            field("wall_s"),
            field("nodes_per_s"),
            field("offered"),
            hwm.map_or("n/a".to_string(), fmt_bytes),
        );
        ladder.push(row);
    }

    let baseline = rows
        .iter()
        .find(|r| r.nodes == 256)
        .map(|r| {
            Json::Obj(vec![
                (
                    "pre_overhaul_serial_256_s".into(),
                    PRE_OVERHAUL_SERIAL_256_S.to_json(),
                ),
                (
                    "pre_translation_serial_256_s".into(),
                    PRE_TRANSLATION_SERIAL_256_S.to_json(),
                ),
                (
                    "serial_improvement".into(),
                    (PRE_OVERHAUL_SERIAL_256_S / r.serial.min_s).to_json(),
                ),
                (
                    "translation_improvement".into(),
                    (PRE_TRANSLATION_SERIAL_256_S / r.serial.min_s).to_json(),
                ),
            ])
        })
        .unwrap_or(Json::Null);

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("fleet_scaling".into())),
        ("simulated_duration_s".into(), (duration_s as f64).to_json()),
        ("seed".into(), SEED.to_json()),
        (
            "hardware_threads".into(),
            hardware_threads.map_or(Json::Null, |n| n.to_json()),
        ),
        ("reps".into(), reps.to_json()),
        (
            "timing".into(),
            Json::Str("serial and threaded configs interleaved, min and median of reps".into()),
        ),
        ("baseline".into(), baseline),
        (
            "results".into(),
            Json::Arr(rows.iter().map(SizeRow::to_json).collect()),
        ),
        ("mesh".into(), mesh),
        (
            "ladder".into(),
            Json::Obj(vec![
                (
                    "simulated_duration_s".into(),
                    (LADDER_DURATION_S as f64).to_json(),
                ),
                ("rows".into(), Json::Arr(ladder.clone())),
            ]),
        ),
    ]);
    // Cargo runs benches with the package as working directory; anchor the
    // report at the workspace root. Short mode writes a separate file so a
    // quick smoke run never clobbers the committed full report.
    let out = if args.short {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json")
    };
    std::fs::write(out, report.to_string() + "\n").expect("write fleet bench report");
    println!("wrote {out}");

    println!("\nscheduler stats across all runs:");
    print!("{}", summary_table(&sched_registry));

    if let Some(mut recorder) = jsonl {
        recorder.flush().expect("flush telemetry log");
        println!(
            "wrote {} telemetry events to {}",
            recorder.lines(),
            args.telemetry.as_deref().unwrap_or("?")
        );
        println!("\nmerged metrics from the widest threaded runs:");
        print!("{}", summary_table(&merged));
    }

    assert!(
        all_identical,
        "serial and threaded outcomes diverged (see `identical` column)"
    );
    for rung in &ladder {
        assert!(
            rung.get("offered").and_then(Json::as_u64) > Some(0),
            "ladder rung {rung} offered no packets in {LADDER_DURATION_S} s"
        );
    }

    // Regression gate: with real parallelism on hand, a multi-worker run
    // slower than serial means the engine lost its scaling, so CI should
    // fail. Only rows that the machine can actually parallelize are held
    // to it (2..=hardware threads); oversubscribed rows measure scheduler
    // overhead by design, and 1-thread machines cannot arm the gate. Both
    // sides are mins over the same interleaved rounds, and only rows long
    // enough to resolve a regression are held (`GATE_MIN_SERIAL_S`).
    if let Some(hw) = hardware_threads.filter(|&hw| hw >= 2) {
        let gated: Vec<&SizeRow> = rows
            .iter()
            .filter(|row| row.serial.min_s >= GATE_MIN_SERIAL_S)
            .collect();
        assert!(
            !gated.is_empty(),
            "no sweep row ran {GATE_MIN_SERIAL_S} s serially; the gate needs a larger fleet"
        );
        for row in gated {
            for t in &row.sweep {
                assert!(
                    t.threads < 2 || t.threads > hw || t.speedup >= 1.0,
                    "threaded regression: {} nodes on {} threads ran {:.2}x serial \
                     with {hw} hardware threads available",
                    row.nodes,
                    t.threads,
                    t.speedup,
                );
            }
        }
    }
}
