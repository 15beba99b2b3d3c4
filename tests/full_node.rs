//! Workspace integration tests: the assembled node reproduces the paper's
//! headline system-level behaviour end to end.

use picocube::node::{
    AppBoard, DemoStation, HarvesterKind, NodeConfig, PowerChainKind, Stack, StackBuilder,
};
use picocube::radio::packet::{decode, Checksum};
use picocube::sensors::{MotionScenario, Sp12, Sp12Channel};
use picocube::sim::{SimDuration, SimTime};
use picocube::units::Watts;

fn tpms(config: NodeConfig) -> Stack {
    StackBuilder::new(config)
        .app(AppBoard::Tpms)
        .build()
        .unwrap()
}

#[test]
fn headline_average_power_is_about_6_uw() {
    let mut node = tpms(NodeConfig::default());
    node.run_for(SimDuration::from_secs(120));
    let avg = node.report().average_power;
    assert!(
        (avg.micro() - 6.0).abs() < 2.0,
        "TPMS average {:.2} µW vs the paper's 6 µW",
        avg.micro()
    );
}

#[test]
fn fig6_profile_shape() {
    let mut node = tpms(NodeConfig::default());
    node.run_for(SimDuration::from_secs(13));
    let trace = node.power_trace();

    // Sleep floor: a few µW.
    let floor = trace.power_at(SimTime::from_secs(3)).unwrap();
    assert!(
        floor < Watts::from_micro(5.0),
        "sleep floor {:.2} µW",
        floor.micro()
    );

    // Burst at the 6 s wake: milliwatts, ~10–20 ms wide.
    let burst_samples: Vec<_> = trace
        .as_scalar()
        .samples()
        .iter()
        .filter(|(t, p)| {
            *t >= SimTime::from_secs(6) && *t <= SimTime::from_millis(6_030) && *p > 100e-6
        })
        .collect();
    assert!(!burst_samples.is_empty(), "no burst found at the 6 s wake");
    let burst_start = burst_samples.first().unwrap().0;
    let burst_end = burst_samples.last().unwrap().0;
    let width_ms = burst_end.duration_since(burst_start).as_seconds().value() * 1e3;
    assert!(
        (5.0..25.0).contains(&width_ms),
        "burst width {width_ms:.1} ms vs the paper's ~14 ms"
    );
    assert!(node.report().peak_power > Watts::from_milli(1.0));
}

#[test]
fn tpms_packets_decode_to_tire_physics_at_the_receiver() {
    let config = NodeConfig {
        drive_cycle: picocube::harvest::DriveCycle::highway(),
        ..NodeConfig::default()
    };
    let mut node = tpms(config);
    node.run_for(SimDuration::from_secs(601));
    let packets = node.packets();
    assert_eq!(packets.len(), 100);

    let decoder = Sp12::new();
    let frame = decode(&packets.last().unwrap().bytes, Checksum::Xor).unwrap();
    let code =
        |i: usize| u16::from(frame.payload[2 * i]) << 8 | u16::from(frame.payload[2 * i + 1]);

    // After 10 minutes at ~110 km/h the tire is warm, pressurized, and
    // spinning at hundreds of g.
    let kpa = decoder.decode(Sp12Channel::Pressure, code(0));
    let temp = decoder.decode(Sp12Channel::Temperature, code(1));
    let accel = decoder.decode(Sp12Channel::Acceleration, code(2));
    let supply = decoder.decode(Sp12Channel::Voltage, code(3));
    assert!(kpa > 230.0, "warm tire should read {kpa:.0} > 230 kPa");
    assert!(temp > 35.0, "tire temp {temp:.1} °C");
    assert!(accel > 200.0, "rim acceleration {accel:.0} g");
    // VDD is the doubled battery OCV (≈1.24 V at 80 % SoC) minus IR.
    assert!(
        (2.1..=2.6).contains(&supply),
        "supply channel {supply:.2} V"
    );
}

#[test]
fn demo_end_to_end_over_the_simulated_channel() {
    let config = NodeConfig {
        harvester: HarvesterKind::None,
        ..NodeConfig::default()
    };
    let mut node = StackBuilder::new(config)
        .app(AppBoard::Motion {
            scenario: MotionScenario::retreat_table(77),
        })
        .build()
        .unwrap();
    let mut station = DemoStation::demo_table(77);
    node.run_for(SimDuration::from_secs(60));

    let packets = node.packets();
    assert!(packets.len() > 5, "handling windows should produce packets");
    let decoded = station.offer_all(&packets);
    // 1 m with ~45 dB of margin: effectively everything decodes.
    assert_eq!(decoded, packets.len(), "all packets decode at 1 m");
    // The decoded accelerations are handling-scale, not rest-scale.
    assert!(station
        .samples()
        .iter()
        .any(|s| s.x.value().abs() > 0.5 || s.y.value().abs() > 0.5));
}

#[test]
fn cots_vs_integrated_ic_tradeoff() {
    let mut cots = tpms(NodeConfig::default());
    cots.run_for(SimDuration::from_secs(60));
    let mut ic = tpms(NodeConfig {
        power_chain: PowerChainKind::IntegratedIc,
        ..NodeConfig::default()
    });
    ic.run_for(SimDuration::from_secs(60));

    let p_cots = cots.report().average_power;
    let p_ic = ic.report().average_power;
    // §7.1: the IC integrates everything into 4 mm² but its measured
    // leakage (≈6.5 µA, "partially attributable to the pad ring") puts its
    // sleep floor above the COTS chain's.
    assert!(
        p_ic > p_cots,
        "IC {:.2} µW vs COTS {:.2} µW",
        p_ic.micro(),
        p_cots.micro()
    );
    assert!(p_ic < Watts::from_micro(20.0));
}

#[test]
fn energy_ledger_is_consistent_with_battery_drain() {
    let config = NodeConfig {
        harvester: HarvesterKind::None,
        ..NodeConfig::default()
    };
    let mut node = tpms(config);
    let soc0 = node.battery_soc();
    node.run_for(SimDuration::from_secs(120));
    let report = node.report();
    // Energy removed from the cell ≈ ledger consumption + self-discharge.
    let cell_delta = (soc0 - report.final_soc) * 64.8; // J, full capacity
    let ledger = report.consumed.value();
    assert!(
        cell_delta >= ledger * 0.9,
        "cell lost {cell_delta:.2e} J vs ledger {ledger:.2e} J"
    );
    // Self-discharge adds at most a few mJ over 2 minutes.
    assert!(cell_delta < ledger + 2e-3);
}

#[test]
fn long_run_remains_stable_and_deterministic() {
    let run = || {
        let mut node = tpms(NodeConfig::default());
        node.run_for(SimDuration::from_secs(1_801));
        let r = node.report();
        (r.wakes, r.packets.len(), r.consumed, r.average_power)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, 300);
    assert_eq!(a.1, 300);
    assert_eq!(a, b, "same seed, same world");
}
