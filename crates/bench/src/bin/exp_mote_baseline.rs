//! E9 — §2: node-class comparison. "The size and power consumption of the
//! motes … was still too large to be considered for true ubiquitous
//! deployment."

use picocube_bench::{banner, fmt_power};
use picocube_node::{node_class_table, AppBoard, NodeConfig, Stack};
use picocube_sim::SimDuration;
use picocube_units::{CubicMillimeters, Seconds};

fn main() {
    banner(
        "E9 / §2",
        "node classes on the TPMS workload (sample every 6 s)",
        "motes are orders of magnitude larger and hungrier than the PicoCube",
    );

    // Measure the PicoCube (don't just quote it).
    let mut node = Stack::new(NodeConfig::default(), AppBoard::Tpms).expect("node builds");
    node.run_for(SimDuration::from_secs(120));
    let cube_avg = node.report().average_power;

    let rows = node_class_table(cube_avg, CubicMillimeters::new(1_450.0), Seconds::new(6.0));
    println!(
        "\n{:<28} {:>12} {:>12} {:>14} {:>12}",
        "node", "avg power", "volume", "battery life", "harvestable?"
    );
    for row in &rows {
        let life = row.lifetime;
        let life_str = if life.days() > 365.0 {
            format!("{:.1} years", life.days() / 365.0)
        } else {
            format!("{:.0} days", life.days())
        };
        println!(
            "{:<28} {:>12} {:>9.0} cm³ {:>14} {:>12}",
            row.name,
            fmt_power(row.average_power),
            row.volume.value() / 1_000.0,
            life_str,
            if row.harvestable { "yes" } else { "no" }
        );
    }

    let cube = rows.last().unwrap();
    let mote = &rows[1];
    println!("\nmeasured ratios (mote / PicoCube):");
    println!(
        "  power  : {:.0}×",
        mote.average_power.value() / cube.average_power.value()
    );
    println!(
        "  volume : {:.0}×",
        mote.volume.value() / cube.volume.value()
    );
    println!(
        "\nthe deployment argument: the mote's battery dies in {:.1} years; the\n\
         PicoCube's buffer rides through outages and the harvester does the rest —\n\
         \"the sensors must live at least as long as the application … decades\".",
        mote.lifetime.days() / 365.0
    );
}
