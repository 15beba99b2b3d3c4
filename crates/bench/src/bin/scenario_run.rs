//! `scenario_run` — executes a declarative JSON scenario spec.
//!
//! Usage: `scenario_run SPEC.json [--threads T] [--telemetry PATH]`
//!
//! Reads the [`Scenario`] spec from SPEC.json, lowers it onto the fleet
//! (or mesh) engine via `run_scenario_with`, and prints the
//! `ScenarioOutcome` — run summaries, merged metrics, and the survival
//! curve for Monte Carlo campaigns — as one JSON object on stdout, so the
//! output pipes straight into `jq`/plot scripts. Human-oriented chatter
//! goes to stderr.
//!
//! `--threads T` runs a fleet's node simulation on T worker threads
//! (bit-identical to serial; a mesh always runs on one thread);
//! `--telemetry PATH` streams every run's structured event
//! log to PATH as JSON lines.
//!
//! Exit status: 0 on success, 1 on a scenario error (parse, validation,
//! lowering or build), 2 on a malformed command line.

use picocube_bench::cli::CommonArgs;
use picocube_node::{run_scenario_with, Scenario};
use picocube_telemetry::{JsonlRecorder, NullRecorder, Recorder};
use picocube_units::json::ToJson;

const USAGE: &str = "scenario_run SPEC.json [--threads T] [--telemetry PATH]";

fn bail(message: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(code);
}

fn main() {
    // The leading positional SPEC.json is ours; the remaining flags are
    // the shared experiment set.
    let mut argv = std::env::args().skip(1).peekable();
    let spec_path = match argv.peek() {
        Some(arg) if !arg.starts_with("--") => argv.next().unwrap_or_default(),
        _ => bail("expected a scenario spec path as the first argument", 2),
    };
    let args = match CommonArgs::parse(argv) {
        Ok(args) if args.nodes.is_empty() && !args.mesh => args,
        Ok(_) => bail(
            "--nodes/--mesh are spec fields, not flags, for scenario_run",
            2,
        ),
        Err(e) => bail(e, 2),
    };

    let text = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| bail(format_args!("{spec_path}: {e}"), 1));
    let spec = Scenario::parse(&text).unwrap_or_else(|e| bail(format_args!("{spec_path}: {e}"), 1));

    eprintln!(
        "scenario {:?}: {} node(s), {} s{}{}{}",
        spec.name,
        spec.nodes,
        spec.duration_s,
        if spec.mesh.is_some() { ", mesh" } else { "" },
        if spec.chaos.is_some() {
            ", chaos plan"
        } else {
            ""
        },
        match &spec.campaign {
            Some(c) => format!(", campaign of {} seed(s)", c.seeds),
            None => String::new(),
        }
    );

    let mut jsonl = args.telemetry.as_deref().map(|path| {
        JsonlRecorder::create(path)
            .unwrap_or_else(|e| bail(format_args!("--telemetry {path}: {e}"), 1))
    });
    let outcome = match jsonl.as_mut() {
        Some(recorder) => run_scenario_with(&spec, args.parallelism, recorder),
        None => run_scenario_with(&spec, args.parallelism, &mut NullRecorder),
    }
    .unwrap_or_else(|e| bail(e, 1));

    if let Some(mut recorder) = jsonl {
        if let Err(e) = recorder.flush() {
            bail(format_args!("flushing telemetry log: {e}"), 1);
        }
        eprintln!(
            "wrote {} telemetry events to {}",
            recorder.lines(),
            args.telemetry.as_deref().unwrap_or("?")
        );
    }

    println!("{}", outcome.to_json());
}
