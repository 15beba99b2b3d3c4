//! E1 — Fig. 6: power profile during one "on" cycle, and the §6 headline:
//! "Average Cube power consumption using the TPMS sensor is 6 µW,
//! dominated by quiescent losses from the power management circuitry."
//!
//! Usage: `exp_fig6_power_profile [--telemetry PATH]`
//!
//! `--telemetry` writes the node's structured event log (wakes, radio
//! bursts, any brownouts) to PATH as JSON lines and prints the metric
//! registry, including the per-rail energy export the breakdown below is
//! read from.

use picocube_bench::cli::CommonArgs;
use picocube_bench::{banner, bar, fmt_power};
use picocube_node::{AppBoard, NodeConfig, StackBuilder};
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{summary_table, JsonlRecorder, Recorder};

const USAGE: &str = "exp_fig6_power_profile [--telemetry PATH]";

fn parse_telemetry_arg() -> Option<String> {
    let args = CommonArgs::parse_or_exit(USAGE);
    if !args.nodes.is_empty() || args.mesh {
        eprintln!("error: this single-node experiment takes no --nodes/--mesh");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }
    args.telemetry
}

fn main() {
    let telemetry_path = parse_telemetry_arg();
    banner(
        "E1 / Fig. 6",
        "power profile during an \"on\" cycle",
        "6 µW average; ~14 ms active burst every 6 s; quiescent-dominated",
    );

    let mut node = StackBuilder::new(NodeConfig::default())
        .app(AppBoard::Tpms)
        .build()
        .expect("node builds");
    node.set_event_recording(telemetry_path.is_some());
    node.run_for(SimDuration::from_secs(60));
    let report = node.report();
    let trace = node.power_trace();

    // Zoom on the burst at the first 6 s wake, Fig. 6 style.
    println!("\npower profile around the 6 s wake (zero-order hold, 0.5 ms grid):\n");
    let t0 = SimTime::from_millis(5_998);
    let peak = report.peak_power.value();
    println!("{:>9}  {:>12}  profile (log-ish bar)", "t [ms]", "power");
    for i in 0..40 {
        let t = t0 + picocube_sim::SimDuration::from_micros(500 * i);
        let p = trace.power_at(t).unwrap_or(picocube_units::Watts::ZERO);
        // Log-compress so both the µW floor and the mW burst are visible.
        let log_frac = if p.value() > 0.0 {
            ((p.value() / 1e-6).log10() / (peak / 1e-6).log10()).max(0.0)
        } else {
            0.0
        };
        println!(
            "{:>9.1}  {:>12}  {}",
            (t.as_seconds().value() - 6.0) * 1e3,
            fmt_power(p),
            bar(log_frac, 1.0, 40)
        );
    }

    // Burst geometry.
    let burst: Vec<_> = trace
        .as_scalar()
        .samples()
        .iter()
        .filter(|(t, p)| *t >= t0 && *t <= SimTime::from_millis(6_040) && *p > 50e-6)
        .map(|&(t, _)| t)
        .collect();
    let width_ms = if burst.len() >= 2 {
        burst
            .last()
            .unwrap()
            .duration_since(burst[0])
            .as_seconds()
            .value()
            * 1e3
    } else {
        0.0
    };

    println!("\nmeasured:");
    println!(
        "  average power        : {}   (paper: 6 µW)",
        fmt_power(report.average_power)
    );
    println!(
        "  sleep floor          : {}",
        fmt_power(trace.power_at(SimTime::from_secs(3)).unwrap())
    );
    println!("  burst width          : {width_ms:.1} ms   (paper: ~14 ms)");
    println!("  burst peak           : {}", fmt_power(report.peak_power));
    println!("  cycles in 60 s       : {}", report.wakes);
    println!("\nper-load energy breakdown over 60 s:");
    for (name, e) in &report.power.rails[0].loads {
        println!("  {:<28} {:>10.2} µJ", name, e.micro());
    }

    // Plot-ready artifacts.
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let profile = dir.join("fig6_power_profile.csv");
        if std::fs::write(&profile, trace.as_scalar().to_csv()).is_ok() {
            println!("\nwrote {} ({} samples)", profile.display(), trace.len());
        }
        let soc = dir.join("fig6_battery_soc.csv");
        if std::fs::write(&soc, node.soc_trace().to_csv()).is_ok() {
            println!("wrote {}", soc.display());
        }
    }

    if let Some(path) = telemetry_path {
        let mut telemetry = node.drain_telemetry();
        let mut recorder =
            JsonlRecorder::create(&path).unwrap_or_else(|e| panic!("--telemetry {path}: {e}"));
        telemetry.drain_events_into(&mut recorder);
        recorder.flush().expect("flush telemetry log");
        println!("\nwrote {} telemetry events to {path}", recorder.lines());
        println!("\nmetric registry:");
        print!("{}", summary_table(&telemetry.metrics));
    }
}
