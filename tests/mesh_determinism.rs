//! Mesh determinism: the windowed-sync relay engine is pinned to a golden
//! trace, whatever `Parallelism` its config names.
//!
//! The mesh engine (DESIGN.md §12) extends the fleet's bit-identity
//! contract to the coupled case: nodes exchange packets mid-run, so the
//! engine synchronizes on conservative time windows (lookahead = the
//! relay turnaround) instead of simulating nodes independently. It runs
//! on the calling thread, and `MeshConfig::parallelism` does not change
//! how it runs. These tests pin both halves of the promise:
//!
//! 1. the serial trace matches `tests/golden/mesh.json` — outcome, metric
//!    registry and event stream; and
//! 2. configs naming 2, 3 and 16 threads (more threads than nodes)
//!    produce the *same bytes*, so `parallelism` cannot change a mesh
//!    result.
//!
//! Comparison semantics follow `stack_compat`: every value in the golden
//! must appear unchanged in the capture (objects may gain keys, arrays
//! compare element-wise with exact lengths). Regenerate from a known-good
//! commit with `UPDATE_GOLDEN=1 cargo test --test mesh_determinism`.

use picocube::node::{run_mesh_with, MeshConfig, Parallelism};
use picocube::sim::SimDuration;
use picocube::telemetry::{Event, Metric, Metrics};
use picocube::units::json::{Json, ToJson};
use std::path::PathBuf;

/// The pinned scenario: an 8-node line at 2.5 m spacing stretches past the
/// sink's direct reach, so the far end delivers only via relays — the
/// golden therefore locks in genuine multi-hop behaviour, not just the
/// degenerate every-node-hears-the-sink case.
fn scenario(parallelism: Parallelism) -> MeshConfig {
    MeshConfig {
        nodes: 8,
        spacing_m: 2.5,
        duration: SimDuration::from_secs(60),
        parallelism,
        ..MeshConfig::default()
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mesh.json")
}

/// Asserts every value in `golden` appears unchanged in `current`.
fn assert_subset(golden: &Json, current: &Json, path: &str) {
    match golden {
        Json::Obj(fields) => {
            for (key, expected) in fields {
                let actual = current.get(key).unwrap_or_else(|| {
                    panic!("{path}.{key}: present in golden, missing in current")
                });
                assert_subset(expected, actual, &format!("{path}.{key}"));
            }
        }
        Json::Arr(items) => {
            let actual = current
                .as_arr()
                .unwrap_or_else(|| panic!("{path}: golden is an array, current is not"));
            assert_eq!(
                items.len(),
                actual.len(),
                "{path}: golden has {} elements, current has {}",
                items.len(),
                actual.len()
            );
            for (i, (expected, actual)) in items.iter().zip(actual).enumerate() {
                assert_subset(expected, actual, &format!("{path}[{i}]"));
            }
        }
        leaf => {
            assert_eq!(
                leaf.to_string(),
                current.to_string(),
                "{path}: value diverged from golden"
            );
        }
    }
}

fn check_golden(current: &Json) {
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, current.to_string() + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(regenerate from a known-good commit with \
             UPDATE_GOLDEN=1 cargo test --test mesh_determinism)",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("golden parses");
    let current = Json::parse(&current.to_string()).expect("capture re-parses");
    assert_subset(&golden, &current, "mesh");
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.to_json(),
                    Metric::Gauge(g) => g.to_json(),
                    Metric::Histogram(h) => Json::Obj(vec![
                        ("count".into(), h.count().to_json()),
                        ("sum".into(), h.sum().to_json()),
                        ("counts".into(), h.counts().to_vec().to_json()),
                    ]),
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// Runs the pinned scenario and captures outcome, event stream and metric
/// totals as one JSON document.
fn capture(parallelism: Parallelism) -> Json {
    let config = scenario(parallelism);
    let mut events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_mesh_with(&config, &mut events).expect("mesh runs");
    let sink = &outcome.sink;
    Json::Obj(vec![
        (
            "outcome".into(),
            Json::Obj(vec![
                ("offered".into(), (sink.offered as u64).to_json()),
                ("collided".into(), (sink.collided as u64).to_json()),
                (
                    "channel_losses".into(),
                    (sink.channel_losses as u64).to_json(),
                ),
                ("delivered".into(), (sink.delivered as u64).to_json()),
                ("per_node_delivery".into(), sink.per_node_delivery.to_json()),
                ("offered_load".into(), sink.offered_load.to_json()),
                (
                    "unique_offered".into(),
                    (outcome.unique_offered as u64).to_json(),
                ),
                (
                    "unique_delivered".into(),
                    (outcome.unique_delivered as u64).to_json(),
                ),
                (
                    "delivered_by_hop".into(),
                    Json::Arr(
                        outcome
                            .delivered_by_hop
                            .iter()
                            .map(|&n| (n as u64).to_json())
                            .collect(),
                    ),
                ),
                ("relays".into(), (outcome.relays as u64).to_json()),
                (
                    "relays_injected".into(),
                    (outcome.relays_injected as u64).to_json(),
                ),
                ("receptions".into(), (outcome.receptions as u64).to_json()),
                ("duplicates".into(), (outcome.duplicates as u64).to_json()),
                (
                    "rx_collisions".into(),
                    (outcome.rx_collisions as u64).to_json(),
                ),
                ("false_wakes".into(), (outcome.false_wakes as u64).to_json()),
            ]),
        ),
        (
            "events".into(),
            Json::Arr(events.iter().map(ToJson::to_json).collect()),
        ),
        ("metrics".into(), metrics_json(&metrics)),
    ])
}

#[test]
fn mesh_serial_trace_matches_golden() {
    let serial = capture(Parallelism::Serial);
    // The pinned scenario must exercise the relay fabric for real: at
    // least one packet delivered only over two or more hops.
    let multi_hop: u64 = serial
        .get("outcome")
        .and_then(|o| o.get("delivered_by_hop"))
        .and_then(Json::as_arr)
        .map(|hops| {
            hops.iter()
                .skip(2)
                .filter_map(|h| h.to_string().parse::<u64>().ok())
                .sum()
        })
        .expect("capture has a hop histogram");
    assert!(
        multi_hop > 0,
        "pinned scenario delivered nothing over >= 2 hops"
    );
    check_golden(&serial);
}

#[test]
fn mesh_threaded_traces_match_golden() {
    // Same golden as the serial run: threaded and oversubscribed
    // worker counts must reproduce the serial bytes exactly.
    check_golden(&capture(Parallelism::Threads(2)));
    check_golden(&capture(Parallelism::Threads(3)));
    check_golden(&capture(Parallelism::Threads(16)));
}
