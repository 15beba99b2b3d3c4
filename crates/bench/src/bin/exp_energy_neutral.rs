//! E12 — §1/§4.4/§7.2: energy-neutral operation. "One of the main goals of
//! the project was to eliminate the need for long-term energy storage" —
//! battery trajectories under realistic harvest schedules, plus sizing for
//! the §7.2 printed thin-film storage.

use picocube_bench::{banner, bar};
use picocube_harvest::DriveCycle;
use picocube_node::{AppBoard, HarvesterKind, NodeConfig, StackBuilder};
use picocube_radio::packet::Checksum;
use picocube_sim::SimDuration;
use picocube_units::{Joules, Watts};

fn soc_run(name: &str, harvester: HarvesterKind, cycle: DriveCycle, minutes: u64, soc0: f64) {
    let config = NodeConfig {
        harvester,
        drive_cycle: cycle,
        initial_soc: soc0,
        ..NodeConfig::default()
    };
    let mut node = StackBuilder::new(config)
        .app(AppBoard::Tpms)
        .build()
        .expect("node builds");
    node.run_for(SimDuration::from_secs(minutes * 60));
    let report = node.report();
    let net = report.harvested.value() - report.consumed.value();
    println!(
        "{:<26} harvest {:>10.1} µJ  consumed {:>8.1} µJ  net {:>+9.1} µJ  SoC {:>6.3} % -> {:>6.3} %",
        name,
        report.harvested.micro(),
        report.consumed.micro(),
        net * 1e6,
        soc0 * 100.0,
        report.final_soc * 100.0,
    );
    let _ = Checksum::Xor;
}

fn main() {
    banner(
        "E12 / §1+§4.4+§7.2",
        "energy-neutral operation and storage sizing",
        "eliminate long-term energy storage: harvest ≥ consumption over each duty cycle",
    );

    println!("\n30-minute battery trajectories (TPMS node, 15 mAh NiMH, from 50 %):\n");
    soc_run(
        "highway driving",
        HarvesterKind::Automotive,
        DriveCycle::highway(),
        30,
        0.5,
    );
    soc_run(
        "urban stop-and-go",
        HarvesterKind::Automotive,
        DriveCycle::urban(),
        30,
        0.5,
    );
    soc_run(
        "parked (no harvest)",
        HarvesterKind::None,
        DriveCycle::parked(),
        30,
        0.5,
    );
    soc_run(
        "office solar cladding",
        HarvesterKind::Solar(picocube_harvest::Irradiance::office()),
        DriveCycle::parked(),
        30,
        0.5,
    );
    soc_run(
        "bench shaker",
        HarvesterKind::Shaker,
        DriveCycle::parked(),
        30,
        0.5,
    );

    // Ride-through: how long does the buffer last with zero harvest?
    println!("\nride-through on stored energy alone (no harvest):\n");
    let sleep_floor = Watts::from_micro(3.0);
    let duty_6s = Watts::from_micro(6.5);
    for (name, capacity) in [
        (
            "15 mAh NiMH (as built)",
            Joules::from_milliamp_hours(15.0, picocube_units::Volts::new(1.2)),
        ),
        ("0.1 F supercap @ 2.5 V", Joules::new(0.3125)),
        ("printed film, 1 cm², 100 µm (§7.2)", Joules::new(2.0)),
    ] {
        let t_active = capacity / duty_6s;
        let t_sleep = capacity / sleep_floor;
        println!(
            "  {:<36} {:>8.1} days sampling, {:>8.1} days sleeping  {}",
            name,
            t_active.days(),
            t_sleep.days(),
            bar(t_active.days(), 120.0, 20)
        );
    }

    // §7.2 sizing: dispenser-printed films, 30–100 µm, designed to fit.
    println!("\n§7.2 printed-storage sizing (zinc-based chemistry, ~2 J per cm²·100 µm):\n");
    println!(
        "{:>12} {:>14} {:>18}",
        "film [µm]", "J per cm²", "days of sampling"
    );
    for film_um in [30.0, 50.0, 100.0] {
        let j_per_cm2 = 2.0 * film_um / 100.0;
        let days = Joules::new(j_per_cm2) / duty_6s;
        println!(
            "{:>12.0} {:>14.2} {:>18.1}",
            film_um,
            j_per_cm2,
            days.days()
        );
    }
    println!("\nconclusion (matches §1): the buffer only needs to cover harvester");
    println!("*outages* — days, not decades — so even printed thick-film storage");
    println!("suffices once a scavenger is present. Batteries-for-life are not");
    println!("required; that is the PicoCube's premise.");
}
