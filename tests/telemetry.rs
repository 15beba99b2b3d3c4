//! Telemetry determinism: the event stream and metric totals from an
//! instrumented fleet run must be bit-identical between serial and
//! threaded phase-1 execution — the PR 1 guarantee, extended to the
//! observability layer.

use picocube::prelude::*;
use picocube::units::json::ToJson;

fn instrumented_run(seed: u64, parallelism: Parallelism) -> (FleetOutcome, Metrics, Vec<Event>) {
    let config = FleetConfig {
        nodes: 8,
        duration: SimDuration::from_secs(30),
        seed,
        parallelism,
        ..FleetConfig::default()
    };
    let mut events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_fleet_with(&config, &mut events);
    (outcome, metrics, events)
}

#[test]
fn event_streams_and_metrics_bit_identical_across_parallelism() {
    for seed in [11u64, 5150] {
        let (serial_out, serial_metrics, serial_events) =
            instrumented_run(seed, Parallelism::Serial);
        let (threaded_out, threaded_metrics, threaded_events) =
            instrumented_run(seed, Parallelism::Threads(4));

        assert_eq!(serial_out, threaded_out, "seed {seed}: outcome diverged");
        assert_eq!(
            serial_events, threaded_events,
            "seed {seed}: event streams diverged"
        );
        // Bit-identity of every metric, including f64 gauges and histogram
        // sums, via the canonical JSON rendering (f64s print shortest
        // round-trip, so equal strings mean equal bits).
        assert_eq!(
            serial_metrics.to_json().to_string(),
            threaded_metrics.to_json().to_string(),
            "seed {seed}: metric registries diverged"
        );
    }
}

#[test]
fn brownout_fleet_telemetry_identical_across_parallelism() {
    // Nodes that start below the supervisor threshold brown out at the
    // first check and sit held in reset for ~2 h of recharge before
    // running actively — per-node simulation cost is wildly uneven, so a
    // work-stealing worker that lands on a held node races far ahead of
    // its peers. The event stream and every metric (including
    // `node.brownouts`) must still be bit-identical to the serial run.
    let run = |parallelism| {
        let config = FleetConfig {
            nodes: 4,
            base: NodeConfig {
                harvester: HarvesterKind::Shaker,
                initial_soc: 0.009,
                ..NodeConfig::default()
            },
            duration: SimDuration::from_secs(9_000),
            seed: 31,
            parallelism,
            ..FleetConfig::default()
        };
        let mut events: Vec<Event> = Vec::new();
        let (outcome, metrics) = run_fleet_with(&config, &mut events);
        (outcome, metrics, events)
    };
    let (serial_out, serial_metrics, serial_events) = run(Parallelism::Serial);
    assert!(
        serial_metrics.counter("node.brownouts") >= 4,
        "every node must brown out (got {})",
        serial_metrics.counter("node.brownouts")
    );
    let (threaded_out, threaded_metrics, threaded_events) = run(Parallelism::Threads(3));
    assert_eq!(serial_out, threaded_out, "outcome diverged");
    assert_eq!(serial_events, threaded_events, "event streams diverged");
    assert_eq!(
        serial_metrics.to_json().to_string(),
        threaded_metrics.to_json().to_string(),
        "metric registries diverged"
    );
}

#[test]
fn fleet_counters_reconcile_with_the_outcome() {
    let (out, metrics, events) = instrumented_run(11, Parallelism::Threads(2));
    assert_eq!(metrics.counter("fleet.offered"), out.offered as u64);
    assert_eq!(
        metrics.counter("fleet.delivered")
            + metrics.counter("fleet.collided")
            + metrics.counter("fleet.channel_losses"),
        out.offered as u64
    );
    // Every offered packet gets exactly one fate event.
    let fates = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PacketFate { .. }))
        .count();
    assert_eq!(fates, out.offered);
    // The stream is framed: simulate phase, then merge phase.
    let tags: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PhaseStart { phase } => Some(phase.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(tags, ["simulate", "merge"]);
}

#[test]
fn jsonl_log_round_trips_the_stream() {
    use picocube::units::json::{FromJson, Json};

    let (_, _, events) = instrumented_run(5150, Parallelism::Serial);
    let mut recorder = JsonlRecorder::new(Vec::<u8>::new());
    for event in &events {
        recorder.record(event);
    }
    let bytes = recorder.finish().expect("in-memory sink cannot fail");
    let parsed: Vec<Event> = String::from_utf8(bytes)
        .expect("utf8")
        .lines()
        .map(|line| {
            Event::from_json(&Json::parse(line).expect("line parses")).expect("event decodes")
        })
        .collect();
    assert_eq!(parsed, events);
}
