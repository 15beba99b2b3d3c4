//! Brown-out → recharge → restart, end to end.
//!
//! A TPMS node on a weak harvester runs its battery under the 1.05 V
//! supervisor threshold, is held in reset while the harvester recharges
//! the cell, and reboots once the open-circuit voltage crosses 1.15 V.
//! The board-stack engine must surface that life-cycle through
//! `NodeReport` (brownout_count / browned_out / fault) and keep the
//! power ledger monotone across the discontinuity — and the same node
//! embedded in a fleet must behave identically under serial and
//! threaded phase-1 execution.

use picocube::node::{AppBoard, FleetConfig, HarvesterKind, NodeConfig, Parallelism, Stack};
use picocube::sim::{SimDuration, SimTime};
use picocube::telemetry::EventKind;
use picocube::units::Joules;

/// A TPMS node that starts below the brown-out threshold with only the
/// bench shaker (~450 µW) to recharge it: guaranteed to trip the
/// supervisor on the first check and to recover within a couple of
/// simulated hours.
fn weak_harvester_config() -> NodeConfig {
    NodeConfig {
        harvester: HarvesterKind::Shaker,
        initial_soc: 0.009,
        ..NodeConfig::default()
    }
}

#[test]
fn node_browns_out_recovers_and_reports_it() {
    let mut node = Stack::new(weak_harvester_config(), AppBoard::Tpms).expect("node builds");
    node.set_event_recording(true);
    let outcome = node.run_for(SimDuration::from_secs(3 * 3_600));
    assert!(outcome.is_completed(), "a brown-out is not a fault");

    let report = node.report();
    assert!(report.brownout_count >= 1, "supervisor never tripped");
    assert!(!report.browned_out, "node should be back up after recharge");
    assert_eq!(report.fault, None);
    assert!(report.wakes > 0, "no samples after recovery");
    assert!(!report.packets.is_empty(), "no packets after recovery");

    // The event stream brackets the outage: BrownOut strictly before
    // Recovered, and sampling resumes after the restart.
    let telemetry = node.drain_telemetry();
    let at = |pred: &dyn Fn(&EventKind) -> bool| {
        telemetry
            .events()
            .iter()
            .find(|e| pred(&e.kind))
            .map(|e| e.t_ns)
    };
    let down = at(&|k| matches!(k, EventKind::BrownOut)).expect("BrownOut recorded");
    let up = at(&|k| matches!(k, EventKind::Recovered)).expect("Recovered recorded");
    assert!(down < up, "brown-out at {down} ns, recovery at {up} ns");
    let last_wake = telemetry
        .events()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, EventKind::Wake { .. }))
        .expect("wakes recorded");
    assert!(last_wake.t_ns > up, "no wake after recovery");
    assert_eq!(
        telemetry.metrics.counter("node.brownouts"),
        u64::from(report.brownout_count)
    );
}

#[test]
fn ledger_stays_monotone_across_the_outage() {
    // Advance in 10-minute chunks through discharge, outage and recovery:
    // elapsed time and consumed energy must never step backwards, and the
    // power trace must read zero while the node is held in reset.
    let mut node = Stack::new(weak_harvester_config(), AppBoard::Tpms).expect("node builds");
    let mut last_elapsed = 0.0f64;
    let mut last_consumed = Joules::ZERO;
    let mut saw_outage = false;
    for _ in 0..18 {
        node.run_for(SimDuration::from_secs(600));
        let report = node.report();
        assert!(
            report.elapsed.value() >= last_elapsed,
            "elapsed went backwards"
        );
        assert!(
            report.consumed >= last_consumed,
            "consumed energy went backwards across the outage"
        );
        last_elapsed = report.elapsed.value();
        last_consumed = report.consumed;
        if node.browned_out_at().is_some() {
            saw_outage = true;
        }
    }
    assert!(saw_outage, "scenario never browned out");
    let report = node.report();
    assert!(report.brownout_count >= 1);
    assert!(!report.browned_out, "node should end the run recovered");
    // Mid-outage the supervisor has zeroed every load: the trace shows a
    // dead node shortly after the brown-out instant.
    let down = node.browned_out_at();
    assert_eq!(down, None, "browned_out_at clears on recovery");
    let trace_floor = node
        .power_trace()
        .power_at(SimTime::from_secs(20 * 60))
        .expect("trace covers the outage window");
    assert_eq!(
        trace_floor,
        picocube::units::Watts::ZERO,
        "loads must be zeroed while held in reset"
    );
}

#[test]
fn fleet_of_brownout_nodes_is_parallelism_invariant() {
    // Embed the brown-out scenario in a fleet: phase 1 must produce the
    // same merged outcome whether nodes run serially or on two workers.
    let base = FleetConfig {
        nodes: 6,
        base: weak_harvester_config(),
        duration: SimDuration::from_secs(1_800),
        seed: 23,
        parallelism: Parallelism::Serial,
        ..FleetConfig::default()
    };
    let run = |config: &FleetConfig| {
        picocube::node::run_fleet_with(config, &mut picocube::telemetry::NullRecorder).0
    };
    let serial = run(&base);
    let threaded = run(&FleetConfig {
        parallelism: Parallelism::Threads(2),
        ..base.clone()
    });
    assert_eq!(serial, threaded, "fleet outcome depends on parallelism");
    // Brown-outs are not faults: the fleet reports every node healthy.
    assert_eq!(serial.faulted, 0);
}
