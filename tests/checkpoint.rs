//! Checkpoint/resume bit-identity pins (DESIGN.md §15).
//!
//! Two promises under test, both phrased as "a cut changes nothing":
//!
//! * [`StackCheckpoint`] cuts a single node mid-run. Resuming and
//!   finishing the remainder must reproduce the uninterrupted run's
//!   `NodeReport`, event stream and simulation-state metrics bit-for-bit.
//!   The cut points are *wake boundaries* harvested empirically from the
//!   golden run's own `Wake` events — the node is asleep there, so
//!   splitting `run_for` cannot land inside a sample cycle. The splice
//!   itself is observable in exactly one place: the power solver's
//!   cache-instrumentation counters tick once for the boundary's forced
//!   (and result-identical) current refresh, and the test pins that too.
//! * [`FleetCheckpoint`] cuts a fleet between nodes. Any sequence of
//!   `run_fleet_partial` legs — serialized through JSON between legs,
//!   under different `Parallelism` modes — must finish into exactly the
//!   outcome, events and metrics of one uninterrupted `run_fleet_with`.

use picocube::node::{
    run_fleet_partial, run_fleet_resumable, run_fleet_with, AppBoard, BuildError, CheckpointError,
    FleetCheckpoint, FleetConfig, NodeConfig, Parallelism, Stack, StackCheckpoint,
};
use picocube::sim::SimDuration;
use picocube::telemetry::{keys, Event, EventKind, Metrics};
use picocube::units::json::{FromJson, Json, ToJson};

/// Everything observable about one node run, comparable bit-for-bit.
/// The report goes through JSON so floats compare in shortest-round-trip
/// text form (exact), matching the golden-trace comparison semantics of
/// `tests/stack_compat.rs`.
struct NodeCapture {
    report: String,
    events: Vec<Event>,
    metrics: Metrics,
}

fn finish(mut node: Stack, remaining: SimDuration) -> NodeCapture {
    node.run_for(remaining);
    let report = node.report().to_json().to_string();
    let telemetry = node.drain_telemetry();
    NodeCapture {
        report,
        events: telemetry.events().to_vec(),
        metrics: telemetry.metrics,
    }
}

/// JSON round-trip: what resumes on the other side of the serialization
/// boundary is all the checkpoint file carries.
fn reload_stack(checkpoint: &StackCheckpoint) -> StackCheckpoint {
    let text = checkpoint.to_json().to_string();
    StackCheckpoint::from_json(&Json::parse(&text).expect("checkpoint text parses"))
        .expect("checkpoint round-trips")
}

fn reload_fleet(checkpoint: &FleetCheckpoint) -> FleetCheckpoint {
    let text = checkpoint.to_json().to_string();
    FleetCheckpoint::from_json(&Json::parse(&text).expect("checkpoint text parses"))
        .expect("checkpoint round-trips")
}

#[test]
fn stack_resumed_at_wake_boundaries_is_bit_identical() {
    let config = FleetConfig {
        nodes: 4,
        duration: SimDuration::from_secs(120),
        seed: 11,
        ..FleetConfig::default()
    };
    let node_index = 2;
    let total = config.duration;

    // Uninterrupted golden — also the source of the cut points.
    let golden_node = StackCheckpoint::for_fleet_node(&config, node_index, SimDuration::ZERO, true)
        .resume()
        .expect("node builds");
    let golden = finish(golden_node, total);
    let wakes: Vec<u64> = golden
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Wake { .. }))
        .map(|e| e.t_ns)
        .collect();
    assert!(
        wakes.len() >= 3,
        "need several wake boundaries to cut at, got {wakes:?}"
    );

    // Cut at the first wake, one in the middle and the last one.
    let cuts = [
        wakes[0],
        wakes[wakes.len() / 2],
        *wakes.last().expect("non-empty"),
    ];
    for &cut_ns in &cuts {
        let elapsed = SimDuration::from_nanos(cut_ns);
        let checkpoint = reload_stack(&StackCheckpoint::for_fleet_node(
            &config, node_index, elapsed, true,
        ));
        assert_eq!(checkpoint.elapsed(), elapsed);
        let resumed_node = checkpoint.resume().expect("resume rebuilds the node");
        assert!(elapsed <= total, "cut {cut_ns} ns past the run span");
        let resumed = finish(resumed_node, total - elapsed);
        assert_eq!(
            resumed.report, golden.report,
            "NodeReport diverged after a cut at {cut_ns} ns"
        );
        assert_eq!(
            resumed.events, golden.events,
            "event stream diverged after a cut at {cut_ns} ns"
        );
        // Every simulation-state metric must match bit-for-bit. The one
        // sanctioned exception: the splice ends its first leg with a forced
        // current refresh, so the resumed run performs exactly one extra
        // operating-point lookup. The lookup replays a cached solve — the
        // rail state it returns is bit-identical, as the report and every
        // other metric above prove — but the solver's own hit/miss
        // instrumentation counts the extra call.
        for (name, metric) in golden.metrics.iter() {
            if name == keys::BOARD_SWITCH_OP_CACHE_HITS
                || name == keys::BOARD_SWITCH_OP_CACHE_MISSES
            {
                continue;
            }
            assert_eq!(
                Some(metric),
                resumed.metrics.get(name),
                "metric {name:?} diverged after a cut at {cut_ns} ns"
            );
        }
        let lookups = |m: &Metrics| {
            m.counter(keys::BOARD_SWITCH_OP_CACHE_HITS)
                + m.counter(keys::BOARD_SWITCH_OP_CACHE_MISSES)
        };
        assert_eq!(
            lookups(&resumed.metrics),
            lookups(&golden.metrics) + 1,
            "a single splice must cost exactly one extra op-point lookup"
        );
    }
}

fn fleet_config(parallelism: Parallelism) -> FleetConfig {
    FleetConfig {
        nodes: 6,
        duration: SimDuration::from_secs(30),
        seed: 21,
        parallelism,
        per_node_stats: true,
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_legs_through_json_match_uninterrupted_run() {
    let config = fleet_config(Parallelism::Serial);
    let mut golden_events: Vec<Event> = Vec::new();
    let (golden_outcome, golden_metrics) = run_fleet_with(&config, &mut golden_events);

    // Three legs of two nodes each, serialized to JSON text between legs.
    let mut checkpoint =
        reload_fleet(&run_fleet_partial(&config, None, 2, true).expect("first leg runs"));
    assert_eq!(checkpoint.nodes_done(), 2);
    assert!(!checkpoint.is_complete());
    checkpoint = reload_fleet(
        &run_fleet_partial(&config, Some(&checkpoint), 2, true).expect("second leg runs"),
    );
    assert_eq!(checkpoint.nodes_done(), 4);

    let mut resumed_events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_fleet_resumable(&config, Some(&checkpoint), &mut resumed_events)
        .expect("final leg runs");

    assert_eq!(outcome, golden_outcome);
    assert_eq!(metrics, golden_metrics);
    assert_eq!(resumed_events, golden_events);
}

#[test]
fn fleet_legs_may_hop_parallelism_modes() {
    // The checkpoint fingerprint deliberately excludes parallelism: a run
    // checkpointed on a laptop (serial) may finish on a many-core box.
    let serial = fleet_config(Parallelism::Serial);
    let threaded = fleet_config(Parallelism::Threads(3));
    let mut golden_events: Vec<Event> = Vec::new();
    let (golden_outcome, golden_metrics) = run_fleet_with(&serial, &mut golden_events);

    let checkpoint =
        reload_fleet(&run_fleet_partial(&serial, None, 3, true).expect("serial leg runs"));
    let mut resumed_events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_fleet_resumable(&threaded, Some(&checkpoint), &mut resumed_events)
        .expect("threaded leg resumes a serial checkpoint");

    assert_eq!(outcome, golden_outcome);
    assert_eq!(metrics, golden_metrics);
    assert_eq!(resumed_events, golden_events);
}

#[test]
fn completed_checkpoint_finalizes_without_resimulating() {
    let config = fleet_config(Parallelism::Serial);
    let (golden_outcome, _) = run_fleet_with(&config, &mut picocube::telemetry::NullRecorder);

    let checkpoint = run_fleet_partial(&config, None, config.nodes, false).expect("full leg runs");
    assert!(checkpoint.is_complete());
    assert_eq!(checkpoint.nodes_done(), config.nodes);

    let (outcome, _) = run_fleet_resumable(
        &config,
        Some(&reload_fleet(&checkpoint)),
        &mut picocube::telemetry::NullRecorder,
    )
    .expect("finalizing a complete checkpoint");
    assert_eq!(outcome, golden_outcome);
}

#[test]
fn legacy_per_node_array_is_ignored_on_resume() {
    // Checkpoints once carried the fold's per-node tallies as a
    // `per_node` array. The merge now counts them from the packet
    // records, so such a file parses, drops the array and resumes
    // bit-identically.
    let config = fleet_config(Parallelism::Serial);
    let mut golden_events: Vec<Event> = Vec::new();
    let (golden_outcome, golden_metrics) = run_fleet_with(&config, &mut golden_events);

    let leg = run_fleet_partial(&config, None, 3, true).expect("first leg runs");
    let mut json = Json::parse(&leg.to_json().to_string()).expect("checkpoint text parses");
    let Json::Obj(fields) = &mut json else {
        panic!("a fleet checkpoint is a JSON object");
    };
    assert!(fields.iter().all(|(key, _)| key != "per_node"));
    let tally = Json::Obj(vec![
        ("offered".into(), Json::UInt(0)),
        ("delivered".into(), Json::UInt(0)),
    ]);
    fields.push(("per_node".into(), Json::Arr(vec![tally; leg.nodes_done()])));
    let legacy = FleetCheckpoint::from_json(&json).expect("legacy checkpoint parses");
    assert_eq!(legacy, leg);

    let mut resumed_events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_fleet_resumable(&config, Some(&legacy), &mut resumed_events)
        .expect("legacy checkpoint resumes");
    assert_eq!(outcome, golden_outcome);
    assert_eq!(metrics, golden_metrics);
    assert_eq!(resumed_events, golden_events);
}

#[test]
fn first_wake_past_the_clock_range_is_a_typed_error() {
    // A checkpoint file whose node config puts the first wake u64::MAX ms
    // out overflows the nanosecond clock; rebuilding the node once
    // panicked in a debug build.
    let hostile = StackCheckpoint::new(
        NodeConfig {
            first_wake_offset_ms: u64::MAX,
            ..NodeConfig::default()
        },
        AppBoard::Tpms,
        SimDuration::ZERO,
        false,
    );
    let err = reload_stack(&hostile)
        .resume()
        .expect_err("first_wake_offset_ms u64::MAX builds");
    assert!(
        matches!(err, CheckpointError::Build(BuildError::InvalidConfig(_))),
        "{err:?}"
    );
    assert!(err.to_string().contains("first_wake_offset_ms"), "{err}");
}
