//! Scaling benchmark for the work-stealing fleet engine: serial vs a sweep
//! of thread counts at increasing fleet sizes, with a bit-identity check
//! between serial and every threaded run, plus the streaming ladder —
//! 1k/100k/1M-node runs at a short simulated span whose nodes/sec,
//! offered-packet and per-rung peak-RSS rows quantify the engine's
//! O(workers) live state.
//!
//! Emits `BENCH_fleet.json` in the workspace root. Run with
//! `cargo bench -p picocube-bench --bench fleet_scaling`. Flags:
//!
//! - `--short`: CI smoke mode — smaller fleets, shorter simulated time,
//!   writes `BENCH_fleet_smoke.json` instead so the committed full report
//!   is never clobbered by a quick run.
//! - `--telemetry PATH`: stream the widest threaded run's event logs to
//!   PATH as JSON lines and print the merged metric registry; the identity
//!   check then also covers serial-vs-threaded metric totals (it always
//!   covers the full registries regardless).
//!
//! Honesty rules baked into the report:
//!
//! - The serial reference is the best of `reps` runs (least scheduler
//!   noise); every run of a config produces bit-identical outcomes, so
//!   repetition only tightens the timing.
//! - `speedup` is always the measured `serial / threaded` ratio — on a
//!   single-hardware-thread machine it will honestly sit at or below 1.0
//!   (every worker serializes), and the report's `hardware_threads` field
//!   says how to read it.
//! - With ≥ 4 hardware threads, a threaded run slower than serial is an
//!   engine regression, not an artifact: the bench exits nonzero so CI
//!   fails. Machines that cannot demonstrate parallelism skip the gate.
//! - The pre-overhaul 256-node serial time is embedded as `baseline` so
//!   the before/after comparison travels with the numbers.
//! - Every ladder rung must put packets on the air; a rung that offers
//!   none measured an idle fleet, and the bench exits nonzero.

use picocube_bench::rss::{fmt_bytes, max_rss_bytes, reset_peak_rss};
use picocube_bench::timing::{time_best, time_once};
use picocube_node::{run_fleet_with_stats, FleetConfig, Parallelism};
use picocube_sim::SimDuration;
use picocube_telemetry::{summary_table, JsonlRecorder, Metrics, NullRecorder, Recorder};
use picocube_units::json::{Json, ToJson};

const SEED: u64 = 42;

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
    threaded_s: f64,
    nodes_per_s: f64,
    /// Measured `serial / threaded` ratio, always recorded. Read it
    /// against the report's `hardware_threads`: a single-thread machine
    /// honestly shows ≤ 1.0 because every worker serializes.
    speedup: f64,
    steals: u64,
    identical: bool,
}

impl ThreadRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads".into(), self.threads.to_json()),
            ("threaded_s".into(), self.threaded_s.to_json()),
            ("nodes_per_s".into(), self.nodes_per_s.to_json()),
            ("speedup".into(), self.speedup.to_json()),
            ("steals".into(), self.steals.to_json()),
            ("identical".into(), self.identical.to_json()),
        ])
    }
}

struct SizeRow {
    nodes: usize,
    serial_s: f64,
    serial_nodes_per_s: f64,
    sweep: Vec<ThreadRow>,
}

impl SizeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nodes".into(), self.nodes.to_json()),
            ("serial_s".into(), self.serial_s.to_json()),
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

/// One rung of the streaming ladder: a short-duration run at a fleet size
/// the materialize-then-merge engine could not hold in memory, with the
/// packets it offered and the process's peak RSS over that rung alone
/// (the high-water mark is reset before each rung; `None` where the reset
/// or procfs is unavailable).
struct LadderRow {
    nodes: usize,
    threads: usize,
    wall_s: f64,
    nodes_per_s: f64,
    offered: usize,
    max_rss_bytes: Option<u64>,
}

impl LadderRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nodes".into(), self.nodes.to_json()),
            ("threads".into(), self.threads.to_json()),
            ("wall_s".into(), self.wall_s.to_json()),
            ("nodes_per_s".into(), self.nodes_per_s.to_json()),
            ("offered".into(), self.offered.to_json()),
            (
                "max_rss_bytes".into(),
                self.max_rss_bytes.map_or(Json::Null, |b| b.to_json()),
            ),
        ])
    }
}

struct Args {
    short: bool,
    telemetry: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        short: false,
        telemetry: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--short" => args.short = true,
            "--telemetry" => {
                args.telemetry = Some(argv.next().expect("--telemetry needs a file path"));
            }
            _ => {}
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // `None` when the OS cannot say (cgroup restrictions, exotic
    // platforms) — that is *not* evidence of a single-threaded machine,
    // so only a known count of 1 suppresses the speedup column.
    let hardware_threads: Option<usize> =
        std::thread::available_parallelism().ok().map(|n| n.get());
    let (sizes, duration_s, reps, sweep): (&[usize], u64, u32, &[usize]) = if args.short {
        (&[16, 64], 5, 2, &[2, 4])
    } else {
        (&[16, 64, 256], 30, 3, &[1, 2, 4, 8])
    };

    let threads_shown = hardware_threads.map_or("unknown".to_string(), |n| n.to_string());
    println!(
        "fleet scaling: {duration_s} s simulated, seed {SEED}, \
         {threads_shown} hardware threads, serial = best of {reps}"
    );
    if hardware_threads == Some(1) {
        eprintln!(
            "WARNING: single hardware thread — every worker serializes; \
             speedups are recorded as measured but demonstrate overhead, \
             not scaling, and the regression gate is disarmed"
        );
    }
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "nodes", "threads", "serial", "threaded", "speedup", "steals", "identical"
    );

    let mut jsonl = args.telemetry.as_deref().map(|path| {
        JsonlRecorder::create(path).unwrap_or_else(|e| panic!("--telemetry {path}: {e}"))
    });
    let mut merged = Metrics::new();
    let mut sched_registry = Metrics::new();
    let mut all_identical = true;
    let mut rows = Vec::new();
    for &nodes in sizes {
        let config = |parallelism| {
            FleetConfig::builder()
                .nodes(nodes)
                .duration(SimDuration::from_secs(duration_s))
                .seed(SEED)
                .parallelism(parallelism)
                .build()
                .expect("valid bench configuration")
        };
        let (serial_s, (serial_out, serial_metrics, serial_stats)) = time_best(reps, || {
            run_fleet_with_stats(&config(Parallelism::Serial), &mut NullRecorder)
        });
        let serial_json = serial_metrics.to_json().to_string();
        serial_stats.export_metrics(&mut sched_registry);

        let mut sweep_rows = Vec::new();
        for (i, &threads) in sweep.iter().enumerate() {
            let widest = i + 1 == sweep.len();
            let run = |recorder: &mut dyn Recorder| {
                run_fleet_with_stats(&config(Parallelism::Threads(threads)), recorder)
            };
            let (threaded_s, (out, metrics, stats)) = match jsonl.as_mut() {
                // Stream events for the widest sweep entry only; one
                // instrumented run per fleet size keeps the log readable.
                Some(recorder) if widest => time_once(|| run(recorder)),
                _ => time_once(|| run(&mut NullRecorder)),
            };
            let identical = out == serial_out && metrics.to_json().to_string() == serial_json;
            all_identical &= identical;
            if widest {
                merged.merge_from(&metrics);
            }
            stats.export_metrics(&mut sched_registry);
            let speedup = serial_s / threaded_s;
            let shown = format!("{speedup:.2}x");
            println!(
                "{nodes:>6} {threads:>8} {serial_s:>11.3}s {threaded_s:>11.3}s {shown:>8} \
                 {:>8} {identical:>10}",
                stats.steals(),
            );
            sweep_rows.push(ThreadRow {
                threads,
                threaded_s,
                nodes_per_s: nodes as f64 / threaded_s,
                speedup,
                steals: stats.steals(),
                identical,
            });
        }
        rows.push(SizeRow {
            nodes,
            serial_s,
            serial_nodes_per_s: nodes as f64 / serial_s,
            sweep: sweep_rows,
        });
    }

    // The streaming ladder: million-node scale at a short simulated span.
    // A node's first SP12 wake lands at 6 s plus its power-up offset in
    // [0, 6) s, so 12 s is the shortest span in which every node wakes,
    // samples and transmits once; nodes/sec here measures the engine's
    // streaming throughput, not the firmware's duty cycle.
    let ladder_sizes: &[usize] = if args.short {
        &[1_000, 100_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let ladder_threads = hardware_threads.unwrap_or(4).clamp(2, 16);
    let ladder_duration_s = 12u64;
    println!("\nstreaming ladder: {ladder_duration_s} s simulated, {ladder_threads} threads");
    println!(
        "{:>9} {:>10} {:>13} {:>9} {:>12}",
        "nodes", "wall", "nodes/sec", "offered", "peak RSS"
    );
    let mut ladder = Vec::new();
    for &nodes in ladder_sizes {
        let config = FleetConfig::builder()
            .nodes(nodes)
            .duration(SimDuration::from_secs(ladder_duration_s))
            .seed(SEED)
            .parallelism(Parallelism::Threads(ladder_threads))
            .build()
            .expect("valid ladder configuration");
        let reset = reset_peak_rss();
        let (wall_s, (out, _, _)) = time_once(|| run_fleet_with_stats(&config, &mut NullRecorder));
        let hwm = max_rss_bytes().filter(|_| reset);
        println!(
            "{nodes:>9} {wall_s:>9.2}s {:>13.0} {:>9} {:>12}",
            nodes as f64 / wall_s,
            out.offered,
            hwm.map_or("n/a".to_string(), fmt_bytes),
        );
        ladder.push(LadderRow {
            nodes,
            threads: ladder_threads,
            wall_s,
            nodes_per_s: nodes as f64 / wall_s,
            offered: out.offered,
            max_rss_bytes: hwm,
        });
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
                    (PRE_OVERHAUL_SERIAL_256_S / r.serial_s).to_json(),
                ),
                (
                    "translation_improvement".into(),
                    (PRE_TRANSLATION_SERIAL_256_S / r.serial_s).to_json(),
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
        ("serial_reps".into(), reps.to_json()),
        ("baseline".into(), baseline),
        (
            "results".into(),
            Json::Arr(rows.iter().map(SizeRow::to_json).collect()),
        ),
        (
            "ladder".into(),
            Json::Obj(vec![
                (
                    "simulated_duration_s".into(),
                    (ladder_duration_s as f64).to_json(),
                ),
                (
                    "rows".into(),
                    Json::Arr(ladder.iter().map(LadderRow::to_json).collect()),
                ),
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
            rung.offered > 0,
            "ladder rung of {} nodes offered no packets in {ladder_duration_s} s",
            rung.nodes
        );
    }

    // Regression gate: with real parallelism on hand, a multi-worker run
    // slower than serial means the engine lost its scaling, so CI should
    // fail. Only rows that the machine can actually parallelize are held
    // to it (2..=hardware threads); oversubscribed rows measure scheduler
    // overhead by design, and 1-thread machines cannot arm the gate.
    if let Some(hw) = hardware_threads.filter(|&hw| hw >= 4) {
        for row in &rows {
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
