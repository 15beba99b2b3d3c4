//! The declarative scenario engine's contract (DESIGN.md §13).
//!
//! Three promises are pinned here:
//!
//! 1. **Spec fidelity** — a [`Scenario`] round-trips through its JSON
//!    codec bit-for-bit (property-tested over the whole spec surface).
//! 2. **Lowering identity** — the minimal TPMS spec in
//!    `scenarios/tpms.json` reproduces the hard-coded
//!    `FleetConfig`/`run_fleet_with` run *bit-identically*: outcome
//!    numbers, merged metrics and the telemetry event stream. Golden
//!    captures under `tests/golden/scenarios/` pin the spec-file runs
//!    (including both PAPERS.md environments and the chaos campaign) the
//!    same way `stack_compat` pins the engines.
//! 3. **Determinism** — a Monte Carlo chaos campaign produces identical
//!    outcomes (survival curve included) serial or threaded.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test --test scenarios`
//! — only from a commit whose engine is known-good.

use picocube::node::{
    run_fleet_with, run_mesh_with, run_scenario_with, FleetConfig, MeshConfig, Parallelism,
    Scenario, ScenarioError,
};
use picocube::sim::SimDuration;
use picocube::telemetry::Event;
use picocube::units::json::{Json, ToJson};
use proptest::prelude::*;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_spec(name: &str) -> Scenario {
    let path = repo_path(&format!("scenarios/{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

// ---------------------------------------------------------------- golden
// Same comparison semantics as tests/stack_compat.rs: goldens are subsets
// (current captures may gain keys), arrays match element-wise, leaves
// compare in canonical serialized text so floats are bit-exact.

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

fn check_golden(name: &str, current: &Json) {
    let path = repo_path(&format!("tests/golden/scenarios/{name}.json"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden/scenarios");
        std::fs::write(&path, current.to_string() + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(regenerate from a known-good commit with \
             UPDATE_GOLDEN=1 cargo test --test scenarios)",
            path.display()
        )
    });
    let golden = Json::parse(&text).expect("golden parses");
    let current = Json::parse(&current.to_string()).expect("capture re-parses");
    assert_subset(&golden, &current, name);
}

/// Runs a fixture spec and captures outcome + event stream as one JSON
/// document for golden comparison.
fn capture_scenario(name: &str, parallelism: Parallelism) -> Json {
    let spec = load_spec(name);
    let mut events: Vec<Event> = Vec::new();
    let outcome = run_scenario_with(&spec, parallelism, &mut events)
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    Json::Obj(vec![
        ("outcome".into(), outcome.to_json()),
        (
            "events".into(),
            Json::Arr(events.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

#[test]
fn tpms_spec_golden() {
    check_golden("tpms", &capture_scenario("tpms", Parallelism::Serial));
}

#[test]
fn pible_office_spec_golden() {
    check_golden(
        "pible_office",
        &capture_scenario("pible_office", Parallelism::Serial),
    );
}

#[test]
fn piezo_machine_spec_golden() {
    check_golden(
        "piezo_machine",
        &capture_scenario("piezo_machine", Parallelism::Serial),
    );
}

#[test]
fn chaos_dropout_campaign_golden() {
    check_golden(
        "chaos_dropout_campaign",
        &capture_scenario("chaos_dropout_campaign", Parallelism::Serial),
    );
}

// ------------------------------------------------------ lowering identity

/// The headline acceptance test: the four-line TPMS spec lowers onto the
/// fleet engine with zero observable difference from the hard-coded
/// configuration — outcome, metrics registry, and every telemetry event.
#[test]
fn tpms_spec_is_bit_identical_to_hardcoded_fleet() {
    let spec = load_spec("tpms");
    let mut spec_events: Vec<Event> = Vec::new();
    let outcome =
        run_scenario_with(&spec, Parallelism::Serial, &mut spec_events).expect("tpms spec runs");

    let config = FleetConfig {
        nodes: 8,
        duration: SimDuration::from_secs(30),
        seed: 7,
        ..FleetConfig::default()
    };
    let mut fleet_events: Vec<Event> = Vec::new();
    let (fleet_outcome, fleet_metrics) = run_fleet_with(&config, &mut fleet_events);

    assert_eq!(outcome.runs.len(), 1);
    let run = &outcome.runs[0];
    assert_eq!(run.offered, fleet_outcome.offered);
    assert_eq!(run.delivered, fleet_outcome.delivered);
    assert_eq!(run.collided, fleet_outcome.collided);
    assert_eq!(run.channel_losses, fleet_outcome.channel_losses);
    assert_eq!(run.faulted, fleet_outcome.faulted);
    assert_eq!(
        run.delivery_ratio.to_bits(),
        fleet_outcome.delivery_ratio().to_bits()
    );
    // Metrics compare in canonical serialized form, so floats are
    // bit-exact and registry order matters.
    assert_eq!(
        outcome.metrics.to_json().to_string(),
        fleet_metrics.to_json().to_string()
    );
    assert_eq!(spec_events, fleet_events);
}

/// The same identity for mesh mode: a spec whose `mesh` object spells the
/// engine defaults reproduces `run_mesh_with` exactly.
#[test]
fn mesh_spec_is_bit_identical_to_hardcoded_mesh() {
    let text = r#"{
        "name": "mesh-line",
        "seed": 5,
        "duration_s": 30.0,
        "nodes": 4,
        "mesh": {"sink_offset_m": 2.0, "spacing_m": 2.0}
    }"#;
    let spec = Scenario::parse(text).expect("mesh spec parses");
    let mut spec_events: Vec<Event> = Vec::new();
    let outcome =
        run_scenario_with(&spec, Parallelism::Serial, &mut spec_events).expect("mesh spec runs");

    let config = MeshConfig {
        nodes: 4,
        duration: SimDuration::from_secs(30),
        seed: 5,
        ..MeshConfig::default()
    };
    let mut mesh_events: Vec<Event> = Vec::new();
    let (mesh_outcome, mesh_metrics) =
        run_mesh_with(&config, &mut mesh_events).expect("valid mesh config");

    assert_eq!(outcome.runs[0].offered, mesh_outcome.sink.offered);
    assert_eq!(outcome.runs[0].delivered, mesh_outcome.sink.delivered);
    assert_eq!(
        outcome.metrics.to_json().to_string(),
        mesh_metrics.to_json().to_string()
    );
    assert_eq!(spec_events, mesh_events);
}

// ------------------------------------------------------------ determinism

/// The chaos campaign's whole outcome — per-seed summaries, merged
/// metrics, survival curve, and the concatenated event stream — is
/// bit-identical across engine parallelism modes.
#[test]
fn chaos_campaign_is_deterministic_across_parallelism() {
    let serial = capture_scenario("chaos_dropout_campaign", Parallelism::Serial);
    let threaded = capture_scenario("chaos_dropout_campaign", Parallelism::Threads(3));
    assert_eq!(serial.to_string(), threaded.to_string());
}

/// The campaign fixture actually exercises the survival machinery: its
/// aged, dropout-starved fleet loses nodes, and the curve is well-formed
/// (monotonically non-increasing, within [0, 1]).
#[test]
fn chaos_campaign_produces_a_survival_curve() {
    let spec = load_spec("chaos_dropout_campaign");
    let outcome = run_scenario_with(
        &spec,
        Parallelism::Serial,
        &mut picocube::telemetry::NullRecorder,
    )
    .expect("campaign runs");
    assert_eq!(outcome.runs.len(), 4);
    let survival = outcome.survival.expect("campaign mode yields a curve");
    assert_eq!(survival.times_s.len(), 12);
    assert_eq!(survival.alive.len(), 12);
    let mut prev = 1.0f64;
    for &a in &survival.alive {
        assert!((0.0..=1.0).contains(&a), "alive fraction {a} out of range");
        assert!(a <= prev, "survival curve must be non-increasing");
        prev = a;
    }
    assert!(
        survival.final_alive() < 1.0,
        "the dropout-starved fleet must actually lose nodes"
    );
    assert_eq!(
        outcome.metrics.counter("campaign.seeds"),
        4,
        "campaign accounting rides the metrics registry"
    );
    assert!(outcome.metrics.counter("campaign.browned_out_nodes") > 0);
}

// --------------------------------------------------------- spec round-trip

/// Builds a scenario from a handful of integer draws, covering every
/// optional object and app/harvester variant.
fn scenario_from_draws(
    seed: u64,
    duration_raw: u64,
    nodes: usize,
    shape: u64,
    values: Vec<u64>,
) -> Scenario {
    let mut text = format!(
        r#"{{"name":"prop-{shape}","seed":{seed},"duration_s":{},"nodes":{nodes}"#,
        duration_raw as f64 * 0.25 + 0.25
    );
    match shape % 3 {
        0 => {}
        1 => text.push_str(
            r#","app":{"Motion":{"rest_s":20.0,"handled_s":5.0,"vigor_g":1.5}},"node":{"harvester":{"IndoorLight":{"lit_wm2":5.0,"dark_wm2":0.05,"on_hour":0.0,"off_hour":12.0}},"storage":"Supercap"}"#,
        ),
        _ => text.push_str(
            r#","app":{"Beacon":{"rest_s":30.0,"handled_s":4.0,"vigor_g":2.0,"period_s":5}},"node":{"harvester":{"Piezo":{"accel_ms2":2.5,"freq_hz":120.0,"on_s":40.0,"off_s":20.0}}}"#,
        ),
    }
    if shape & 4 != 0 {
        text.push_str(
            r#","fleet":{"distance_min_m":0.25,"distance_max_m":6.5,"capture_margin_db":8.0}"#,
        );
    }
    if shape & 8 != 0 {
        text.push_str(
            r#","mesh":{"sink_offset_m":1.5,"spacing_m":2.25,"turnaround_ms":15,"max_hops":3}"#,
        );
    }
    if shape & 16 != 0 {
        text.push_str(
            r#","chaos":{"harvest_dropout":{"period_s":30.0,"off_s":10.0},"battery_capacity_fraction":0.5,"ambient_celsius":40.0,"wake_ppm_range":250.0}"#,
        );
    }
    // Sweep and campaign are mutually exclusive; bit 32 picks which.
    if shape & 32 != 0 {
        let values: Vec<String> = values.iter().map(|v| format!("{}.5", v)).collect();
        text.push_str(&format!(
            r#","sweep":{{"knob":"initial_soc","values":[{}]}}"#,
            values.join(",")
        ));
    } else if shape & 64 != 0 {
        text.push_str(r#","campaign":{"seeds":3,"bins":6}"#);
    }
    text.push('}');
    Scenario::parse(&text).expect("generated spec parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every spec shape round-trips through `to_json` → text → `parse`
    /// with full structural equality (floats compare by `PartialEq`, so
    /// the codec must preserve them bit-for-bit).
    #[test]
    fn scenario_round_trips_through_json(
        seed in 0u64..u64::MAX,
        duration_raw in 0u64..10_000,
        nodes in 1usize..500,
        shape in 0u64..128,
        values in prop::collection::vec(0u64..100, 1..6),
    ) {
        let spec = scenario_from_draws(seed, duration_raw, nodes, shape, values);
        let text = spec.to_json().to_string();
        let back = Scenario::parse(&text).expect("serialized spec re-parses");
        prop_assert_eq!(back, spec);
    }
}

// ------------------------------------------------------------- error paths
// Satellite: the spec-parsing path reports through `ScenarioError`, never
// a panic, even for specs that parse but cannot build.

#[test]
fn malformed_json_is_a_parse_error() {
    assert!(matches!(
        Scenario::parse("{not json"),
        Err(ScenarioError::Parse(_))
    ));
    assert!(matches!(
        Scenario::parse(r#"{"name":"x","seed":1,"nodes":4}"#),
        Err(ScenarioError::Parse(_)) // missing duration_s
    ));
}

#[test]
fn conflicting_modes_are_invalid() {
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 10.0, "nodes": 2,
        "sweep": {"knob": "nodes", "values": [2.0, 4.0]},
        "campaign": {"seeds": 2, "bins": 4}
    }"#;
    assert!(matches!(
        Scenario::parse(text),
        Err(ScenarioError::Invalid(_))
    ));
}

#[test]
fn unbuildable_spec_is_a_typed_error_not_a_panic() {
    // Supercap storage models no plate aging, so a chaos plan that ages
    // the battery must come back as a typed build rejection.
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 10.0, "nodes": 2,
        "node": {"storage": "Supercap"},
        "chaos": {"battery_capacity_fraction": 0.5}
    }"#;
    let spec = Scenario::parse(text).expect("spec parses; failure is at lowering");
    let result = run_scenario_with(
        &spec,
        Parallelism::Serial,
        &mut picocube::telemetry::NullRecorder,
    );
    assert!(matches!(result, Err(ScenarioError::Build(_))));
}

#[test]
fn unphysical_harvester_trace_is_a_typed_error() {
    // Hours outside [0, 24] pass the JSON codec but fail harvester
    // validation during the probe build.
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 10.0, "nodes": 1,
        "node": {"harvester": {"IndoorLight":
            {"lit_wm2": 5.0, "dark_wm2": 0.0, "on_hour": 33.0, "off_hour": 12.0}}}
    }"#;
    let spec = Scenario::parse(text).expect("spec parses");
    let result = run_scenario_with(
        &spec,
        Parallelism::Serial,
        &mut picocube::telemetry::NullRecorder,
    );
    assert!(matches!(result, Err(ScenarioError::Build(_))));
}

#[test]
fn unbuildable_mesh_base_is_a_typed_build_error() {
    // The mesh reports a base node that does not build exactly as the
    // fleet does: the typed build error, not a mesh config error.
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 10.0, "nodes": 2,
        "node": {"initial_soc": 2.0},
        "mesh": {}
    }"#;
    let spec = Scenario::parse(text).expect("spec parses; failure is at the build");
    let result = run_scenario_with(
        &spec,
        Parallelism::Serial,
        &mut picocube::telemetry::NullRecorder,
    );
    assert!(matches!(result, Err(ScenarioError::Build(_))), "{result:?}");
    let message = result.expect_err("does not build").to_string();
    assert!(message.contains("scenario node build"), "{message}");
    assert!(message.contains("initial_soc"), "{message}");
}

// ------------------------------------------------------ hostile numbers
// Numbers at the edge of their JSON type fail validation with a typed
// error naming the field, before any engine sizes or times anything by
// them.

#[test]
fn max_hops_past_a_one_byte_ttl_is_a_typed_error() {
    // u32::MAX once sized the sink's hop histogram at 32 GiB and aborted.
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 10.0, "nodes": 2,
        "mesh": {"max_hops": 4294967295}
    }"#;
    let spec = Scenario::parse(text).expect("spec parses");
    let err = spec
        .mesh_config(Parallelism::Serial)
        .expect_err("max_hops 4294967295 lowers");
    assert!(matches!(err, ScenarioError::Mesh(_)), "{err:?}");
    assert!(err.to_string().contains("max_hops"), "{err}");
}

#[test]
fn turnaround_past_the_clock_range_is_a_typed_error() {
    // u64::MAX ms overflows the nanosecond clock: a debug build panicked
    // and a release build wrapped it into a window spanning the run.
    let text = r#"{
        "name": "x", "seed": 1, "duration_s": 30.0, "nodes": 6,
        "mesh": {"turnaround_ms": 18446744073709551615}
    }"#;
    let err = Scenario::parse(text).expect_err("turnaround_ms u64::MAX parses");
    assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
    assert!(err.to_string().contains("turnaround_ms"), "{err}");
}
