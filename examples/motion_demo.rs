//! The §6 retreat demo (Figs 7–8): the cube sits on a table; when picked
//! up it streams X/Y/Z samples to the receiver station, which "plots" them
//! (here: prints a terminal strip chart); put it down and the plot stops.
//!
//! ```text
//! cargo run --example motion_demo
//! ```

use picocube::node::DemoStation;
use picocube::prelude::*;

fn bar(g: f64) -> String {
    // Map ±3 g onto a 21-character strip.
    let pos = ((g + 3.0) / 6.0 * 20.0).round().clamp(0.0, 20.0) as usize;
    let mut s: Vec<char> = "          |          ".chars().collect();
    s[pos.min(20)] = '●';
    s.into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The demo node runs from its battery (the bicycle-wheel scavenger
    // recharges it between sessions).
    let config = NodeConfig {
        harvester: HarvesterKind::None,
        seed: 2007,
        ..NodeConfig::default()
    };
    let mut node = Stack::new(
        config,
        AppBoard::Motion {
            rest_s: 20.0,
            handled_s: 8.0,
            vigor_g: 1.2,
        },
    )?;
    let mut station = DemoStation::demo_table(2007);

    println!("BWRC retreat demo: cube on the table, receiver 1 m away.");
    println!("(20 s at rest, 8 s of handling, repeating)\n");
    node.run_for(SimDuration::from_secs(90));

    let packets = node.packets();
    let decoded = station.offer_all(packets);

    println!("{:>8}  {:^21} {:^21} {:^21}", "t [s]", "X", "Y", "Z");
    for s in station.samples() {
        println!(
            "{:>8.2}  {} {} {}",
            s.time.as_seconds().value(),
            bar(s.x.value()),
            bar(s.y.value()),
            bar(s.z.value()),
        );
    }

    let report = node.report();
    println!(
        "\n{} packets transmitted, {} decoded at 1 m, {} lost to the channel",
        packets.len(),
        decoded,
        station.lost()
    );
    println!(
        "average node power over the session: {:.2} µW (deep sleep between handls)",
        report.average_power.micro()
    );
    println!(
        "battery: {:.2} % consumed in 90 s of demo",
        (0.8 - report.final_soc) * 100.0
    );
    Ok(())
}
