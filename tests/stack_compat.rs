//! Board-stack compatibility: differential traces against pre-refactor
//! golden files.
//!
//! The board-stack refactor (DESIGN.md §10) promises that decomposing the
//! `PicoCube` monolith into `Board` components changes *nothing
//! observable*: `NodeReport`s and telemetry event streams must stay
//! bit-identical with the pre-refactor engine. These tests pin that
//! promise to golden JSON captured from the monolithic implementation and
//! checked into `tests/golden/`.
//!
//! Comparison semantics: every value present in a golden file must appear
//! unchanged in the current capture (exact textual equality after a JSON
//! round-trip, so floats compare bit-for-bit — the serializer writes
//! shortest-round-trip forms). Objects may *gain* keys (new report fields,
//! new per-board metrics); arrays (packets, events) must match in length
//! and element-wise. A missing or changed value is a regression.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test stack_compat` —
//! only ever from a commit whose engine is known-good.

use picocube::node::{
    run_fleet_with, AppBoard, FleetConfig, FleetOutcome, HarvesterKind, NodeConfig, Parallelism,
    Stack, StackBuilder,
};
use picocube::sensors::MotionScenario;
use picocube::sim::SimDuration;
use picocube::telemetry::{Event, Metric, Metrics, TelemetryBuffer};
use picocube::units::json::{Json, ToJson};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Asserts every value in `golden` appears unchanged in `current`.
/// Objects compare as subsets (current may gain keys), arrays compare
/// element-wise with exact lengths, leaves compare by serialized text.
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
                "{path}: value diverged from pre-refactor golden"
            );
        }
    }
}

/// Compares `current` against the named golden file, or (re)writes the
/// golden when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, current: &Json) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, current.to_string() + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(regenerate from a known-good commit with \
             UPDATE_GOLDEN=1 cargo test --test stack_compat)",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("golden parses");
    // Round-trip the capture through text so both sides compare in
    // canonical serialized form.
    let current = Json::parse(&current.to_string()).expect("capture re-parses");
    assert_subset(&golden, &current, name);
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

fn events_json(events: &[Event]) -> Json {
    Json::Arr(events.iter().map(ToJson::to_json).collect())
}

fn tpms(config: NodeConfig) -> Stack {
    StackBuilder::new(config)
        .app(AppBoard::Tpms)
        .build()
        .expect("node builds")
}

/// Runs a node with event recording on and captures its report, event
/// stream and metric totals as one JSON document.
fn capture_node(mut node: Stack, secs: u64) -> Json {
    node.set_event_recording(true);
    node.run_for(SimDuration::from_secs(secs));
    let report = node.report();
    let telemetry: TelemetryBuffer = node.drain_telemetry();
    Json::Obj(vec![
        ("report".into(), report.to_json()),
        ("events".into(), events_json(telemetry.events())),
        ("metrics".into(), metrics_json(&telemetry.metrics)),
    ])
}

#[test]
fn tpms_default_trace_matches_pre_refactor() {
    let node = tpms(NodeConfig::default());
    check_golden("tpms_default", &capture_node(node, 61));
}

#[test]
fn tpms_alarm_leak_trace_matches_pre_refactor() {
    let config = NodeConfig {
        leak_kpa_per_hour: 300.0,
        alarm_threshold_kpa: Some(180.0),
        drive_cycle: picocube::harvest::DriveCycle::parked(),
        ..NodeConfig::default()
    };
    let node = tpms(config);
    check_golden("tpms_alarm_leak", &capture_node(node, 601));
}

#[test]
fn tpms_integrated_ic_trace_matches_pre_refactor() {
    let config = NodeConfig {
        power_chain: picocube::node::PowerChainKind::IntegratedIc,
        wakeup_receiver: true,
        ..NodeConfig::default()
    };
    let node = tpms(config);
    check_golden("tpms_integrated_ic", &capture_node(node, 31));
}

#[test]
fn tpms_ungated_ldo_trace_matches_pre_refactor() {
    let config = NodeConfig {
        ungated_rf_ldo: true,
        ..NodeConfig::default()
    };
    let node = tpms(config);
    check_golden("tpms_ungated_ldo", &capture_node(node, 31));
}

#[test]
fn motion_trace_matches_pre_refactor() {
    let config = NodeConfig {
        harvester: HarvesterKind::None,
        ..NodeConfig::default()
    };
    let node = StackBuilder::new(config)
        .app(AppBoard::Motion {
            scenario: MotionScenario::retreat_table(9),
        })
        .build()
        .expect("node builds");
    check_golden("motion", &capture_node(node, 31));
}

#[test]
fn beacon_trace_matches_pre_refactor() {
    let config = NodeConfig {
        harvester: HarvesterKind::None,
        ..NodeConfig::default()
    };
    let node = StackBuilder::new(config)
        .app(AppBoard::Beacon {
            scenario: MotionScenario::retreat_table(5),
            period_s: 5,
        })
        .build()
        .expect("node builds");
    check_golden("beacon", &capture_node(node, 31));
}

#[test]
fn brownout_recovery_trace_matches_pre_refactor() {
    // Deep discharge on a bench shaker: browns out at the first supervisor
    // check, recharges in reset, recovers, resumes sampling. Exercises the
    // supervisor hold, the recovery reschedule and both telemetry events.
    let config = NodeConfig {
        harvester: HarvesterKind::Shaker,
        initial_soc: 0.009,
        ..NodeConfig::default()
    };
    let node = tpms(config);
    check_golden("brownout_recovery", &capture_node(node, 3 * 3_600));
}

fn capture_fleet(parallelism: Parallelism) -> Json {
    let config = FleetConfig::builder()
        .nodes(8)
        .duration(SimDuration::from_secs(30))
        .seed(7)
        .parallelism(parallelism)
        // The golden predates the streaming engine and pins the per-node
        // curve, which is opt-in now.
        .per_node_stats(true)
        .build()
        .expect("valid scenario");
    let mut events: Vec<Event> = Vec::new();
    let (outcome, metrics) = run_fleet_with(&config, &mut events);
    Json::Obj(vec![
        ("outcome".into(), outcome_json(&outcome)),
        ("events".into(), events_json(&events)),
        ("metrics".into(), metrics_json(&metrics)),
    ])
}

fn outcome_json(outcome: &FleetOutcome) -> Json {
    Json::Obj(vec![
        ("offered".into(), (outcome.offered as u64).to_json()),
        ("collided".into(), (outcome.collided as u64).to_json()),
        (
            "channel_losses".into(),
            (outcome.channel_losses as u64).to_json(),
        ),
        ("delivered".into(), (outcome.delivered as u64).to_json()),
        (
            "per_node_delivery".into(),
            outcome.per_node_delivery.to_json(),
        ),
        ("offered_load".into(), outcome.offered_load.to_json()),
    ])
}

#[test]
fn fleet_serial_trace_matches_pre_refactor() {
    check_golden("fleet", &capture_fleet(Parallelism::Serial));
}

#[test]
fn fleet_threaded_trace_matches_pre_refactor() {
    // Same golden as the serial run: the two-phase engine's bit-identity
    // guarantee must survive the board-stack refactor too.
    check_golden("fleet", &capture_fleet(Parallelism::Threads(2)));
    check_golden("fleet", &capture_fleet(Parallelism::Threads(3)));
}
