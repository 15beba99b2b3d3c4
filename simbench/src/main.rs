//! Runs one benchmark workload (or all of them), checks its output, and
//! prints a report whose last line is one JSON object:
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload fleet_tpms --seed 42 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` times whole runs with tracing off and reports the
//! end-to-end metrics. `--trace 1` makes one untimed run, replays the
//! workload through the simulator's public calls with spans, runs the
//! layer probes, and reports the per-layer metrics. The process exits
//! nonzero when any output check fails.

use picocube_node::Parallelism;
use picocube_simbench::calib;
use picocube_simbench::probes;
use picocube_simbench::procfs;
use picocube_simbench::replay;
use picocube_simbench::stats::{median, Summary};
use picocube_simbench::workload::{self, Prepared, RunOutput, Workload};
use picocube_units::json::{Json, ToJson};
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str =
    "usage: simbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    workloads: fleet_tpms, mesh_relay, campaign_chaos";

/// Fewest fresh processes whose set-up time makes one `setup_s` median.
const SETUP_SAMPLES: usize = 31;

/// Set-up processes started before each timed run, so the `setup_s`
/// samples spread over the measured window like the run samples do.
const SETUP_PER_RUN: usize = 3;

/// Fewest timed runs a measurement takes, however long they are.
const MIN_TIMED_RUNS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        setup_child: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--setup-child" {
            args.setup_child = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("--workload: unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {value:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.setup_child && args.workload.is_none() {
        return Err("--setup-child needs one --workload".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (true, Some(w)) = (args.setup_child, args.workload) {
        return setup_child(w, args.seed);
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for w in workloads {
        let result = if args.trace {
            traced(w, &args)
        } else {
            timed(w, &args)
        };
        match result {
            Ok(correct) => all_correct &= correct,
            Err(error) => {
                eprintln!("error: {}: {error}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Child-process half of `setup_s`: prepares the workload with cold image
/// and decode caches and prints the time it took.
fn setup_child(w: Workload, seed: u64) -> ExitCode {
    let start = Instant::now();
    let prepared = workload::prepare(w, seed);
    let elapsed = start.elapsed().as_secs_f64();
    match black_box(prepared) {
        Ok(_) => {
            println!("setup_s {elapsed:e}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up time of `w` in `processes` fresh processes, one at a time.
fn measure_setup(w: Workload, seed: u64, processes: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..processes)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-child", "--workload", w.name(), "--seed"])
                .arg(seed.to_string())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

/// One run's host cost.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
}

fn timed_run(p: &Prepared, parallelism: Parallelism) -> Result<(Sample, RunOutput), String> {
    let cpu0 = procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let start = Instant::now();
    let out = p.run(parallelism)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu1 = procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    Ok((
        Sample {
            wall_s,
            cpu_s: cpu1 - cpu0,
        },
        out,
    ))
}

/// Output checks of every run, feeding `failed_ratio`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                println!("CHECK FAILED ({what}): {problem}");
            }
        }
    }
}

/// Host facts every results file records.
fn environment(seed: u64, workers: usize) -> Vec<(String, Json)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let command_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        ("nproc".into(), workers.to_json()),
        ("cpu_model".into(), cpu_model.to_json()),
        (
            "rustc".into(),
            command_line("rustc", &["--version"]).to_json(),
        ),
        (
            "commit".into(),
            // Only the checkout's own repository, never one around it.
            command_line(
                "git",
                &[
                    concat!("--git-dir=", env!("CARGO_MANIFEST_DIR"), "/../.git"),
                    "rev-parse",
                    "HEAD",
                ],
            )
            .to_json(),
        ),
        ("seed".into(), seed.to_json()),
    ]
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engines' setting for `workers` threads.
fn parallelism(workers: usize) -> Parallelism {
    match workers {
        1 => Parallelism::Serial,
        n => Parallelism::Threads(n),
    }
}

/// Writes a results file under the package's `results/` directory.
fn write_results(name: &str, report: Json) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/{name}"), report.to_string() + "\n"));
    if let Err(error) = written {
        eprintln!("warning: cannot write {dir}/{name}: {error}");
    }
}

/// The last line of the report: the result object the contract asks for.
fn print_result(correct: bool, checks: &Checks, metrics: &[(&str, f64, &str)]) {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), value.to_json()),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), correct.to_json()),
        ("attempted".into(), checks.attempted.to_json()),
        ("failed".into(), checks.failed.to_json()),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
}

/// Timed runs with tracing off: the end-to-end metrics.
fn timed(w: Workload, args: &Args) -> Result<bool, String> {
    let n = workers();
    let threads = w.workers(n);
    let parallelism = parallelism(threads);
    println!(
        "== {} (seed {}, {} s, {parallelism:?})",
        w.name(),
        args.seed,
        args.seconds
    );
    let (prepared, first_node) = workload::prepare(w, args.seed)?;
    drop(first_node);
    let node_s = prepared.node_seconds();

    // The first run is checked but not timed: it warms the process up and
    // gives the peak memory of one run measured alone. The high-water mark
    // is reset to the post-set-up RSS first (where the kernel refuses,
    // nothing heavier than set-up ran before it). Later runs are not used
    // for memory: the allocator keeps pages freed by earlier runs, so their
    // peaks vary with what it happened to retain.
    let baseline = procfs::rss_bytes().unwrap_or(0);
    let reset = procfs::reset_peak_rss();
    let (_, first) = timed_run(&prepared, parallelism)?;
    let peak = procfs::peak_rss_bytes().ok_or("cannot read VmHWM")?;

    let reference = prepared.reference()?;
    let mut checks = Checks::default();
    checks.record("first run", &prepared.check(&first, &reference));

    let mut samples = Vec::new();
    let mut setup = Vec::new();
    let mut calibration = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        setup.extend(measure_setup(w, args.seed, SETUP_PER_RUN)?);
        calibration.push(calib::time(threads));
        let (sample, out) = timed_run(&prepared, parallelism)?;
        checks.record("timed run", &prepared.check(&out, &reference));
        samples.push(sample);
    }
    let missing = SETUP_SAMPLES.saturating_sub(setup.len());
    setup.extend(measure_setup(w, args.seed, missing)?);

    let rate: Vec<f64> = samples.iter().map(|s| node_s / s.wall_s).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s * 1e6 / node_s).collect();
    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    // The reported figures are whole-window totals, not per-run medians:
    // on a shared host the speed moves in phases of seconds to tens of
    // seconds, and a median snaps to whichever phase held most runs while
    // the totals weigh each phase by the time it lasted. They are then
    // scaled to the reference host's speed by the calibration kernel timed
    // before each run (see `calib`).
    let window_node_s = node_s * samples.len() as f64;
    let window_wall_s: f64 = wall.iter().sum();
    let window_cpu_s: f64 = samples.iter().map(|s| s.cpu_s).sum();
    let window_rate = window_node_s / window_wall_s;
    let window_cpu = window_cpu_s * 1e6 / window_node_s;
    let calibration_s = calibration.iter().sum::<f64>() / calibration.len() as f64;
    let host_slowdown = calibration_s / calib::REFERENCE_S;
    let scaled_rate = window_rate * host_slowdown;
    let scaled_cpu = window_cpu / host_slowdown;
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    let peak_mib = mib(peak);
    let failed_ratio = checks.failed as f64 / checks.attempted as f64;
    let correct = checks.failed == 0;

    println!(
        "workers {threads} of {n}, simulated node-seconds per run {node_s}, {} timed runs in {window_wall_s:.3} s",
        samples.len()
    );
    println!(
        "  host slowdown {host_slowdown:.4} (calibration {calibration_s:.4} s against the reference {} s)",
        calib::REFERENCE_S
    );
    println!(
        "  {:<24} {scaled_rate:>14.6e} node.s/s (whole window at reference speed; as measured {window_rate:.6e})",
        "sim_node_s_per_s"
    );
    println!(
        "  {:<24} {scaled_cpu:>14.6e} us       (whole window at reference speed; as measured {window_cpu:.6e})",
        "cpu_us_per_sim_node_s"
    );
    let row = |name: &str, unit: &str, s: Summary| {
        println!(
            "  {name:<24} {:>14.6e} {unit:<8} (median; q1 {:.6e}, q3 {:.6e}, n {})",
            s.median, s.q1, s.q3, s.n
        );
    };
    row("node_s_per_s_per_run", "node.s/s", Summary::of(&rate));
    row("cpu_us_per_run", "us", Summary::of(&cpu));
    row("wall_s_per_run", "s", Summary::of(&wall));
    row("setup_s", "s", Summary::of(&setup));
    println!(
        "  {:<24} {peak_mib:>14.6e} MiB      (first run; baseline {:.3} MiB, high-water reset {})",
        "peak_rss_mib",
        mib(baseline),
        if reset { "applied" } else { "refused" }
    );
    println!(
        "  {:<24} {failed_ratio:>14} (failed {} of {} checked runs)",
        "failed_ratio", checks.failed, checks.attempted
    );
    println!("  counts {:?}", reference.counts);
    let accuracy = (w == Workload::FleetTpms).then(|| accuracy(&prepared, &reference));

    let metrics = [
        ("sim_node_s_per_s", scaled_rate, "node.s/s"),
        ("cpu_us_per_sim_node_s", scaled_cpu, "us"),
        ("peak_rss_mib", peak_mib, "MiB"),
        ("setup_s", median(&setup), "s"),
    ];
    let series = |values: &[f64]| Json::Arr(values.iter().map(|v| v.to_json()).collect());
    let cpu_s: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let measured = Json::Obj(vec![
        ("sim_node_s_per_s".into(), window_rate.to_json()),
        ("cpu_us_per_sim_node_s".into(), window_cpu.to_json()),
        ("calibration_s".into(), series(&calibration)),
        ("host_slowdown".into(), host_slowdown.to_json()),
    ]);
    let per_run = Json::Obj(vec![
        ("sim_node_s_per_s".into(), summary_json(Summary::of(&rate))),
        (
            "cpu_us_per_sim_node_s".into(),
            summary_json(Summary::of(&cpu)),
        ),
        ("wall_s".into(), series(&wall)),
        ("cpu_s".into(), series(&cpu_s)),
    ]);
    let mut report = environment(args.seed, n);
    report.push(("workload".into(), Json::Str(w.name().to_string())));
    report.push(("node_seconds".into(), node_s.to_json()));
    report.push(("workers".into(), threads.to_json()));
    report.push(("sim_node_s_per_s".into(), scaled_rate.to_json()));
    report.push(("cpu_us_per_sim_node_s".into(), scaled_cpu.to_json()));
    report.push(("as_measured".into(), measured));
    report.push(("per_run".into(), per_run));
    report.push(("setup_s".into(), summary_json(Summary::of(&setup))));
    report.push(("peak_rss_mib".into(), peak_mib.to_json()));
    report.push(("baseline_rss_bytes".into(), baseline.to_json()));
    report.push(("failed_ratio".into(), failed_ratio.to_json()));
    if let Some((node_power_uw, burst_ms)) = accuracy {
        report.push((
            "accuracy".into(),
            Json::Obj(vec![
                ("node_power_uw".into(), node_power_uw.to_json()),
                ("paper_node_power_uw".into(), 6.0.to_json()),
                ("burst_ms".into(), burst_ms.to_json()),
                ("paper_burst_ms".into(), 14.0.to_json()),
            ]),
        ));
    }
    write_results(&format!("{}.json", w.name()), Json::Obj(report));
    print_result(correct, &checks, &metrics);
    Ok(correct)
}

/// `mesh.sync_overhead` of the `mesh_relay` workload at `seed`: an untimed
/// engine run's wall time against its replay's window spans.
fn mesh_relay_sync_overhead(seed: u64, workers: usize) -> Result<f64, String> {
    let (mesh, _) = workload::prepare(Workload::MeshRelay, seed)?;
    let threads = Workload::MeshRelay.workers(workers);
    let start = Instant::now();
    mesh.run(parallelism(threads))?;
    let wall_s = start.elapsed().as_secs_f64();
    replay::replay(&mesh, threads, wall_s)?
        .sync_overhead
        .ok_or_else(|| "mesh replay reported no sync overhead".to_string())
}

fn summary_json(s: Summary) -> Json {
    Json::Obj(vec![
        ("median".into(), s.median.to_json()),
        ("q1".into(), s.q1.to_json()),
        ("q3".into(), s.q3.to_json()),
        ("n".into(), s.n.to_json()),
    ])
}

/// Simulated figures beside the paper's, the only reference the
/// repository holds: mean battery-side node power (µW) and the width of
/// one active burst (ms).
fn accuracy(p: &Prepared, reference: &RunOutput) -> (f64, f64) {
    let node_power_uw = reference.counts.energy_uj / p.node_seconds();
    let burst_ms = probes::burst_width_ms(&p.fleet.base);
    println!(
        "  accuracy: mean battery-side node power {node_power_uw:.3} uW (paper 6 uW), \
         burst width {burst_ms:.1} ms (paper ~14 ms); the repository holds no other \
         reference, so the model is otherwise unvalidated"
    );
    (node_power_uw, burst_ms)
}

/// The traced run: per-layer metrics.
fn traced(w: Workload, args: &Args) -> Result<bool, String> {
    let n = workers();
    let threads = w.workers(n);
    println!(
        "== {} traced (seed {}, {:?})",
        w.name(),
        args.seed,
        parallelism(threads)
    );
    let (prepared, first_node) = workload::prepare(w, args.seed)?;
    drop(first_node);

    // The untimed run: its CPU time is what the traced replay is compared
    // against, and its counts are the workload's.
    let cpu0 = procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let wall0 = Instant::now();
    let untimed = prepared.run(parallelism(threads))?;
    let untimed_wall_s = wall0.elapsed().as_secs_f64();
    let untimed_cpu_s = procfs::cpu_seconds().ok_or("cannot read /proc/self/stat")? - cpu0;

    // No Serial reference here, so the digest rule is vacuous; the pin,
    // packet and survival rules still apply.
    let mut checks = Checks::default();
    checks.record("untimed run", &prepared.check(&untimed, &untimed));

    let traced = replay::replay(&prepared, threads, untimed_wall_s)?;
    checks.record("traced replay", &traced.problems(&untimed));
    let layers = probes::run_all(&prepared, n)?;

    traced.print(untimed_cpu_s);
    layers.print();

    let span_cpu_share = traced.span_self_s() / untimed_cpu_s;
    let sync_overhead = match traced.sync_overhead {
        Some(overhead) => overhead,
        // The result line carries every per-layer metric, and only
        // mesh_relay runs the mesh engine: other workloads report its
        // figure at the same seed.
        None => mesh_relay_sync_overhead(args.seed, n)?,
    };
    let c = &untimed.counts;
    let op_total = (c.op_cache_hits + c.op_cache_misses).max(1) as f64;
    let mut metrics: Vec<(&str, f64, &str)> = layers.metrics();
    metrics.extend([
        (
            "mcu.active_cycles",
            (c.mcu_active_ns / 1000) as f64,
            "count",
        ),
        (
            "power.op_cache_hit_ratio",
            c.op_cache_hits as f64 / op_total,
            "ratio",
        ),
        (
            "fleet.capture_sweep_ns_per_slot",
            traced.capture_ns_per_slot,
            "ns",
        ),
        ("mesh.sync_overhead", sync_overhead, "ratio"),
        ("node.wakes", c.wakes as f64, "count"),
        ("offered", c.offered as f64, "count"),
        ("delivered", c.delivered as f64, "count"),
        ("node.brownouts", c.brownouts as f64, "count"),
        ("mesh.relay.on_air", c.relays_on_air as f64, "count"),
        ("telemetry.events", traced.events as f64, "count"),
        (
            "replay.scenario_self_s",
            traced.layer_self_s("scenario"),
            "s",
        ),
        ("replay.stack_self_s", traced.layer_self_s("stack"), "s"),
        (
            "replay.telemetry_self_s",
            traced.layer_self_s("telemetry"),
            "s",
        ),
        ("replay.fleet_self_s", traced.layer_self_s("fleet"), "s"),
        ("replay.radio_self_s", traced.layer_self_s("radio"), "s"),
        ("trace.untimed_cpu_s", untimed_cpu_s, "s"),
        ("trace.span_self_s", traced.span_self_s(), "s"),
        ("trace.span_cpu_share", span_cpu_share, "ratio"),
    ]);
    println!(
        "  traced-vs-untimed gap: untimed run CPU {untimed_cpu_s:.4} s, traced span self time \
         {:.4} s = {:.1}% of it; the difference is tracing overhead plus engine work the \
         public API cannot reach (batched sleep rounds, reorder window, fold, packaging), \
         less what the replay's unbatched per-node runs cost beyond the engine's",
        traced.span_self_s(),
        span_cpu_share * 100.0
    );
    let correct = checks.failed == 0;
    let mut report = environment(args.seed, n);
    report.push(("workload".into(), Json::Str(w.name().to_string())));
    report.push((
        "per_layer".into(),
        Json::Obj(
            metrics
                .iter()
                .map(|&(name, value, _)| (name.to_string(), value.to_json()))
                .collect(),
        ),
    ));
    report.push(("layer_self_s".into(), traced.layer_json()));
    report.push(("sched".into(), layers.sched_json()));
    write_results(&format!("{}.trace.json", w.name()), Json::Obj(report));
    traced.write_spans(&format!(
        "{}/results/{}.spans.csv",
        env!("CARGO_MANIFEST_DIR"),
        w.name()
    ));
    print_result(correct, &checks, &metrics);
    Ok(correct)
}
