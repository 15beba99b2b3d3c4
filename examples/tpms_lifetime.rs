//! The tire-pressure deployment the paper motivates: a node on a wheel rim
//! through commute / highway / parked phases, checking energy-neutral
//! operation and the low-pressure alarm.
//!
//! ```text
//! cargo run --release --example tpms_lifetime
//! ```

use picocube::harvest::DriveCycle;
use picocube::prelude::*;
use picocube::radio::packet::{decode, Checksum};
use picocube::sensors::{Sp12, Sp12Channel};

fn run_phase(name: &str, cycle: DriveCycle, leak: f64, minutes: u64) {
    let config = NodeConfig {
        drive_cycle: cycle,
        harvester: HarvesterKind::Automotive,
        leak_kpa_per_hour: leak,
        ..NodeConfig::default()
    };
    let mut node = Stack::new(config, AppBoard::Tpms).expect("node builds");
    node.run_for(SimDuration::from_secs(minutes * 60));
    let report = node.report();

    // Decode the last packet the way the vehicle-side receiver would.
    let decoder = Sp12::new();
    let last = report.packets.last().expect("at least one packet");
    let frame = decode(&last.bytes, Checksum::Xor).expect("well-formed packet");
    let code =
        |i: usize| u16::from(frame.payload[2 * i]) << 8 | u16::from(frame.payload[2 * i + 1]);
    let kpa = decoder.decode(Sp12Channel::Pressure, code(0));
    let temp = decoder.decode(Sp12Channel::Temperature, code(1));
    let accel = decoder.decode(Sp12Channel::Acceleration, code(2));

    let neutral = report.harvested >= report.consumed;
    println!(
        "{name:<22} avg {:>6.2} µW | harvest {:>9.1} µJ | consumed {:>8.1} µJ | {} | last: {:.0} kPa, {:.1} °C, {:.0} g {}",
        report.average_power.micro(),
        report.harvested.micro(),
        report.consumed.micro(),
        if neutral { "energy-neutral ✓" } else { "draining      ✗" },
        kpa,
        temp,
        accel,
        if kpa < 180.0 { " ⚠ LOW PRESSURE" } else { "" },
    );
}

fn main() {
    println!("PicoCube TPMS deployment — 20 simulated minutes per phase\n");
    run_phase("urban commute", DriveCycle::urban(), 0.0, 20);
    run_phase("highway cruise", DriveCycle::highway(), 0.0, 20);
    run_phase("parked overnight", DriveCycle::parked(), 0.0, 20);
    run_phase("slow leak (highway)", DriveCycle::highway(), 150.0, 20);

    println!(
        "\nThe parked node drains its 15 mAh reserve at the sleep floor only;\n\
         at ~3 µW that is years of ride-through — the battery-free premise holds\n\
         as long as the vehicle moves occasionally."
    );
}
