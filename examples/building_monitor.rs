//! The §1 vision: "sensing systems will become ubiquitous, and will be
//! embedded in everyday materials and surfaces often in very dense
//! collaborative networks. The sensors must live at least as long as the
//! application is in service, which can be decades (for example, in a
//! building)."
//!
//! A floor of solar-clad PicoCubes sharing one channel: does the fleet
//! deliver its data, and does every node stay energy-neutral on office
//! light alone?
//!
//! ```text
//! cargo run --release --example building_monitor
//! ```

use picocube::harvest::{DriveCycle, Irradiance};
use picocube::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One representative node first: energy neutrality under office light.
    let office_node = NodeConfig {
        harvester: HarvesterKind::Solar(Irradiance::office()),
        drive_cycle: DriveCycle::parked(), // wall-mounted: no motion
        ..NodeConfig::default()
    };
    let mut node = Stack::new(office_node.clone(), AppBoard::Tpms)?;
    node.run_for(SimDuration::from_secs(600));
    let report = node.report();
    println!("single wall node, 10 minutes under office lighting:");
    println!("  average power : {:.2} µW", report.average_power.micro());
    println!("  harvested     : {:.1} µJ", report.harvested.micro());
    println!("  consumed      : {:.1} µJ", report.consumed.micro());
    let neutral = report.harvested > report.consumed;
    println!(
        "  energy-neutral: {}",
        if neutral {
            "yes — the node outlives the building"
        } else {
            "NO"
        }
    );
    assert!(neutral, "office light must cover the node");

    // The decades arithmetic.
    let margin = report.harvested.value() / report.consumed.value();
    println!(
        "  margin        : {margin:.0}× — lights-off ride-through comes from the\n\
         \t\t  15 mAh cell (~{:.0} days at the {:.1} µW average)\n",
        64.8 / report.average_power.value() / 86_400.0,
        report.average_power.micro()
    );

    // Now the dense floor: 120 nodes, one collector.
    println!("floor deployment: 120 nodes, one collector, 5 simulated minutes");
    let config = FleetConfig {
        nodes: 120,
        base: office_node,
        duration: SimDuration::from_secs(300),
        distance_range: (1.0, 12.0),
        seed: 9,
        // The starvation report below needs the per-node curve, which is
        // opt-in on the streaming engine.
        per_node_stats: true,
        ..FleetConfig::default()
    };
    let (out, _metrics) = run_fleet_with(&config, &mut NullRecorder);
    println!("  packets offered  : {}", out.offered);
    println!("  collisions       : {}", out.collided);
    println!("  channel losses   : {}", out.channel_losses);
    println!(
        "  delivered        : {} ({:.1} %)",
        out.delivered,
        out.delivery_ratio() * 100.0
    );
    println!("  offered load G   : {:.4}", out.offered_load);

    let starved: Vec<usize> = out
        .per_node_delivery
        .iter()
        .enumerate()
        .filter(|(_, &d)| d < 0.5)
        .map(|(i, _)| i)
        .collect();
    if starved.is_empty() {
        println!("  every node reaches the collector with ≥ 50 % delivery");
    } else {
        println!("  nodes needing attention (far corners / deep fades): {starved:?}");
    }

    println!(
        "\nconclusion: at a 6 s reporting period the blind-ALOHA fleet runs at\n\
         G ≈ {:.2} %, far below the congestion knee; the maintenance-free\n\
         building deployment the paper opens with is feasible with nothing\n\
         but ceiling light and a collector per floor.",
        out.offered_load * 100.0
    );
    let _ = Watts::ZERO;
    Ok(())
}
