//! Tests of the output checks behind `failed_ratio`: the digest, the
//! pinned counts, the zero-packet rule, the survival-curve rule, and the
//! mesh nodes the traced replay rebuilds.

use picocube_node::{
    run_fleet_with, run_mesh_with, FleetConfig, MeshConfig, Parallelism, SurvivalCurve,
};
use picocube_sim::SimDuration;
use picocube_simbench::workload::{
    fnv1a, mesh_node, output_digest, pin_problems, prepare, survival_problems, Counts, RunOutput,
    Workload,
};
use picocube_telemetry::{keys, Metrics, NullRecorder};

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn digest_covers_outcome_and_registry() {
    let mut metrics = Metrics::new();
    metrics.inc("node.wakes", 3);
    let base = output_digest("outcome", &metrics);
    assert_eq!(base, output_digest("outcome", &metrics.clone()));
    assert_ne!(base, output_digest("outcome ", &metrics));
    metrics.inc("node.wakes", 1);
    assert_ne!(base, output_digest("outcome", &metrics));
}

#[test]
fn serial_and_threaded_fleets_share_a_digest() {
    let config = |parallelism| FleetConfig {
        nodes: 12,
        duration: SimDuration::from_secs(30),
        seed: 9,
        parallelism,
        ..FleetConfig::default()
    };
    let digest = |parallelism| {
        let (outcome, metrics) = run_fleet_with(&config(parallelism), &mut NullRecorder);
        output_digest(&format!("{outcome:?}"), &metrics)
    };
    assert_eq!(digest(Parallelism::Serial), digest(Parallelism::Threads(2)));
    let (outcome, metrics) = run_fleet_with(
        &FleetConfig {
            seed: 10,
            ..config(Parallelism::Serial)
        },
        &mut NullRecorder,
    );
    assert_ne!(
        digest(Parallelism::Serial),
        output_digest(&format!("{outcome:?}"), &metrics),
        "another seed gives another result"
    );
}

fn output(digest: u64, counts: Counts) -> RunOutput {
    RunOutput {
        digest,
        counts,
        survival: None,
    }
}

#[test]
fn checks_flag_digest_mismatch_zero_packets_and_pin_drift() {
    // Seed 7 is not pinned, so only the digest and packet rules apply.
    let (prepared, _) = prepare(Workload::FleetTpms, 7).expect("workload prepares");
    let counts = Counts {
        offered: 10,
        ..Counts::default()
    };
    let reference = output(1, counts);
    assert!(prepared.check(&output(1, counts), &reference).is_empty());
    assert_eq!(prepared.check(&output(2, counts), &reference).len(), 1);
    let silent = output(1, Counts::default());
    let problems = prepared.check(&silent, &reference);
    assert!(
        problems.iter().any(|p| p.contains("zero packets")),
        "{problems:?}"
    );

    // At the pinned seed, counts must equal the pins.
    let pinned = Counts {
        offered: 49_138,
        delivered: 26_395,
        wakes: 49_142,
        mcu_active_ns: 550_760_411_088,
        ..Counts::default()
    };
    assert!(pin_problems(Workload::FleetTpms, 42, &pinned).is_empty());
    let drifted = Counts {
        delivered: 26_396,
        ..pinned
    };
    let problems = pin_problems(Workload::FleetTpms, 42, &drifted);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(pin_problems(Workload::FleetTpms, 43, &drifted).is_empty());
}

#[test]
fn survival_curve_rules() {
    let good = SurvivalCurve {
        duration_s: 600.0,
        times_s: vec![200.0, 400.0, 600.0],
        alive: vec![1.0, 0.5, 0.25],
    };
    assert!(survival_problems(&good, 600.0, 3).is_empty());
    let short = SurvivalCurve {
        alive: vec![1.0, 0.5],
        ..good.clone()
    };
    assert!(!survival_problems(&short, 600.0, 3).is_empty());
    let rising = SurvivalCurve {
        alive: vec![0.5, 1.0, 0.25],
        ..good.clone()
    };
    assert!(!survival_problems(&rising, 600.0, 3).is_empty());
    let out_of_range = SurvivalCurve {
        alive: vec![1.5, 0.5, 0.25],
        ..good.clone()
    };
    assert!(!survival_problems(&out_of_range, 600.0, 3).is_empty());
    let wrong_end = SurvivalCurve {
        times_s: vec![200.0, 400.0, 500.0],
        ..good.clone()
    };
    assert!(!survival_problems(&wrong_end, 600.0, 3).is_empty());
    let unordered = SurvivalCurve {
        times_s: vec![400.0, 200.0, 600.0],
        ..good
    };
    assert!(!survival_problems(&unordered, 600.0, 3).is_empty());
}

#[test]
fn campaign_check_requires_a_well_formed_survival_curve() {
    let (prepared, _) = prepare(Workload::CampaignChaos, 7).expect("workload prepares");
    let counts = Counts {
        offered: 10,
        ..Counts::default()
    };
    let reference = output(1, counts);
    let problems = prepared.check(&output(1, counts), &reference);
    assert!(
        problems.iter().any(|p| p.contains("survival")),
        "{problems:?}"
    );
}

#[test]
fn every_workload_spec_lowers_and_builds() {
    for w in Workload::ALL {
        let (prepared, _) = prepare(w, 42).expect("workload prepares");
        assert_eq!(prepared.workload, w);
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert_eq!(prepared.mesh.is_some(), w == Workload::MeshRelay);
        assert!(prepared.node_seconds() > 0.0);
    }
}

#[test]
fn replayed_mesh_nodes_match_the_mesh_engine() {
    let (prepared, _) = prepare(Workload::MeshRelay, 42).expect("workload prepares");
    let duration = SimDuration::from_secs(30);
    // Nodes 10 km apart hear no one, so the engine relays nothing and its
    // nodes run exactly what standalone nodes run in the same windows.
    let mesh = MeshConfig {
        nodes: 3,
        duration,
        spacing_m: 1e4,
        ..prepared.mesh.clone().expect("mesh workload")
    };
    let fleet = FleetConfig {
        nodes: 3,
        duration,
        ..prepared.fleet.clone()
    };
    let (_, engine) = run_mesh_with(&mesh, &mut NullRecorder).expect("mesh runs");

    let mut replayed = Metrics::new();
    let mut packets = 0;
    for i in 0..mesh.nodes {
        let mut node = mesh_node(&fleet, mesh.detector, i).expect("node builds");
        let mut elapsed = SimDuration::ZERO;
        while elapsed < duration {
            node.run_for(mesh.turnaround);
            elapsed += mesh.turnaround;
        }
        packets += node.packet_count() as u64;
        replayed.merge_from(&node.drain_telemetry().metrics);
    }
    assert_eq!(engine.counter(keys::MESH_RELAY_ON_AIR), 0);
    assert_eq!(engine.counter(keys::MESH_UNIQUE_OFFERED), packets);
    assert_eq!(
        engine.counter(keys::NODE_WAKES),
        replayed.counter(keys::NODE_WAKES)
    );
    // The wakeup listener's draw shows in the energy bill.
    assert_eq!(
        engine.gauge(keys::POWER_TOTAL_UJ).to_bits(),
        replayed.gauge(keys::POWER_TOTAL_UJ).to_bits()
    );
}
