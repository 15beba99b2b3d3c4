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
use picocube::units::json::{FromJson, Json, JsonError, ToJson};
use proptest::prelude::*;
use std::sync::OnceLock;

mod garbage;

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

/// A checkpoint's `records` array, edited by `edit`, then decoded.
fn decode_edited_records(
    checkpoint: &FleetCheckpoint,
    edit: impl FnOnce(&mut Vec<Json>),
) -> Result<FleetCheckpoint, String> {
    let mut json = Json::parse(&checkpoint.to_json().to_string()).expect("checkpoint text parses");
    let Json::Obj(fields) = &mut json else {
        panic!("a fleet checkpoint is a JSON object");
    };
    let Some((_, Json::Arr(records))) = fields.iter_mut().find(|(key, _)| key == "records") else {
        panic!("a fleet checkpoint holds a records array");
    };
    edit(records);
    FleetCheckpoint::from_json(&json).map_err(|e| e.to_string())
}

/// Sets `key` of one JSON record to `value`.
fn set_field(record: &mut Json, key: &str, value: u64) {
    let Json::Obj(fields) = record else {
        panic!("a record is a JSON object");
    };
    let Some((_, slot)) = fields.iter_mut().find(|(k, _)| k == key) else {
        panic!("the record has {key}");
    };
    *slot = Json::UInt(value);
}

#[test]
fn hostile_checkpoint_records_are_typed_errors() {
    // Records the fold could not have produced would panic the merge
    // (an interval ending before it starts) or resume into a silently
    // wrong result (a node the fleet does not have, or a duplicate), so
    // the decoder rejects each with an error naming `records`. The same
    // holds for a fault tally the fold could not have reached.
    let config = fleet_config(Parallelism::Serial);
    let leg = run_fleet_partial(&config, None, 4, false).expect("leg runs");
    assert!(
        reload_fleet(&leg).nodes_done() == 4,
        "the unedited leg decodes"
    );

    // One case per rule, each with the phrase its error must carry.
    type Edit = fn(&mut Vec<Json>);
    let cases: [(&str, Edit, &str); 5] = [
        (
            "end_ns before start_ns",
            |records| set_field(&mut records[0], "end_ns", 0),
            "is before start_ns",
        ),
        (
            "a node at nodes_done",
            |records| {
                let last = records.len() - 1;
                set_field(&mut records[last], "node", 4)
            },
            "not below nodes_done",
        ),
        (
            "a duplicate record on a node far past the fleet",
            |records| {
                records.push(records[0].clone());
                let last = records.len() - 1;
                set_field(&mut records[last], "node", 5_000_000)
            },
            "not below nodes_done",
        ),
        (
            "node indices that decrease",
            |records| records.rotate_right(1),
            "records run in node order",
        ),
        (
            "a node's start repeated",
            |records| records.insert(1, records[0].clone()),
            "does not follow its previous start_ns",
        ),
    ];
    for (why, edit, phrase) in cases {
        let err = decode_edited_records(&leg, edit).expect_err(why);
        assert!(
            err.contains("records[") && err.contains(phrase),
            "{why}: {err}"
        );
    }

    // A fault tally above the fold cursor would resume into a wrong
    // `faulted` count.
    let mut json = Json::parse(&leg.to_json().to_string()).expect("checkpoint text parses");
    let Json::Obj(fields) = &mut json else {
        panic!("a fleet checkpoint is a JSON object");
    };
    for (key, value) in fields.iter_mut() {
        if key == "faulted" {
            *value = Json::UInt(5);
        }
    }
    let err = FleetCheckpoint::from_json(&json).expect_err("faulted past nodes_done");
    assert!(
        err.to_string().contains("faulted 5 exceeds nodes_done 4"),
        "{err}"
    );
}

/// A checkpoint's `metrics` object, edited by `edit`, then decoded.
fn decode_edited_metrics(
    checkpoint: &FleetCheckpoint,
    edit: impl FnOnce(&mut Vec<(String, Json)>),
) -> Result<FleetCheckpoint, String> {
    let mut json = Json::parse(&checkpoint.to_json().to_string()).expect("checkpoint text parses");
    let Json::Obj(fields) = &mut json else {
        panic!("a fleet checkpoint is a JSON object");
    };
    let Some((_, Json::Obj(metrics))) = fields.iter_mut().find(|(key, _)| key == "metrics") else {
        panic!("a fleet checkpoint holds a metrics object");
    };
    edit(metrics);
    FleetCheckpoint::from_json(&json).map_err(|e| e.to_string())
}

/// The JSON value of metric `key`.
fn metric<'a>(metrics: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
    let Some((_, value)) = metrics.iter_mut().find(|(k, _)| k == key) else {
        panic!("the fold holds {key}");
    };
    value
}

/// Sets the field `key` of the airtime histogram to one more than its
/// `count`.
fn overcount_airtime(metrics: &mut [(String, Json)], key: &str) {
    let histogram = metric(metrics, keys::RADIO_TX_AIRTIME_US);
    let count = histogram
        .get("count")
        .and_then(Json::as_u64)
        .expect("a histogram count");
    set_field(histogram, key, count + 1);
}

#[test]
fn hostile_checkpoint_metrics_are_typed_errors() {
    // A fold whose metrics contradict what the resumed nodes record once
    // panicked the fold's merge (inside a worker, which re-raised it) or
    // the merge phase, or wrapped a counter in a release build. Each now
    // fails typed, naming `metrics` and the key, from the decoder or from
    // the resume.
    type Edit = fn(&mut Vec<(String, Json)>);
    let cases: [(&str, bool, Edit, &str); 6] = [
        (
            "a counter rewritten as a gauge",
            false,
            |metrics| *metric(metrics, keys::NODE_WAKES) = Json::Num(1.5),
            keys::NODE_WAKES,
        ),
        (
            "a histogram's first bound changed",
            false,
            |metrics| {
                let Json::Obj(histogram) = metric(metrics, keys::RADIO_TX_AIRTIME_US) else {
                    panic!("a histogram is a JSON object");
                };
                let Some((_, Json::Arr(bounds))) =
                    histogram.iter_mut().find(|(k, _)| k == "bounds")
                else {
                    panic!("a histogram has bounds");
                };
                bounds[0] = Json::Num(0.0005);
            },
            keys::RADIO_TX_AIRTIME_US,
        ),
        (
            "a merge-phase metric in a complete fold",
            true,
            |metrics| metrics.push((keys::FLEET_OFFERED.into(), Json::Num(2.5))),
            keys::FLEET_OFFERED,
        ),
        (
            "a counter at u64::MAX that the next node's wakes overflow",
            false,
            |metrics| *metric(metrics, keys::NODE_WAKES) = Json::UInt(u64::MAX),
            keys::NODE_WAKES,
        ),
        (
            "a histogram count that is not the sum of its buckets",
            false,
            |metrics| overcount_airtime(metrics, "count"),
            keys::RADIO_TX_AIRTIME_US,
        ),
        (
            "a histogram with more finite observations than observations",
            false,
            |metrics| overcount_airtime(metrics, "finite_count"),
            keys::RADIO_TX_AIRTIME_US,
        ),
    ];
    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
        let config = fleet_config(parallelism);
        for (why, complete, edit, key) in cases {
            let budget = if complete { config.nodes } else { 3 };
            let leg = run_fleet_partial(&config, None, budget, false).expect("leg runs");
            let err = match decode_edited_metrics(&leg, edit) {
                Err(e) => e,
                Ok(hostile) => {
                    let resumed = run_fleet_resumable(
                        &config,
                        Some(&hostile),
                        &mut picocube::telemetry::NullRecorder,
                    );
                    resumed.map(|_| ()).expect_err(why).to_string()
                }
            };
            assert!(err.contains("metrics") && err.contains(key), "{why}: {err}");
        }
    }
}

/// The checkpoint texts the garbage property damages: a 6-node fleet with
/// 3 nodes folded, and its fourth node cut 10 s in.
fn checkpoint_texts() -> &'static [String; 2] {
    static TEXTS: OnceLock<[String; 2]> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let config = fleet_config(Parallelism::Serial);
        let fleet = run_fleet_partial(&config, None, 3, false).expect("leg runs");
        let node = StackCheckpoint::for_fleet_node(&config, 3, SimDuration::from_secs(10), true);
        [fleet.to_json().to_string(), node.to_json().to_string()]
    })
}

fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A damaged checkpoint file never panics its decoder: it fails with a
    /// typed error, or decodes into a checkpoint whose JSON round-trips.
    /// Nothing decoded here is resumed.
    #[test]
    fn damaged_checkpoints_fail_typed_or_round_trip(
        node in prop::bool::ANY,
        op in 0u8..6,
        at in 0.0f64..1.0,
        len in 0.0f64..1.0,
        pick in 0usize..64,
    ) {
        let [fleet_text, node_text] = checkpoint_texts();
        if node {
            let text = garbage::mutate(node_text, op, at, len, pick);
            garbage::assert_fails_typed_or_round_trips(
                &text,
                decode::<StackCheckpoint>,
                |c| c.to_json().to_string(),
            );
        } else {
            let text = garbage::mutate(fleet_text, op, at, len, pick);
            garbage::assert_fails_typed_or_round_trips(
                &text,
                decode::<FleetCheckpoint>,
                |c| c.to_json().to_string(),
            );
        }
    }
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
