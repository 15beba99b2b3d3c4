//! Quickstart: build a PicoCube, drive it for a minute, print the report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use picocube::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The default configuration is the paper's TPMS deployment: SP12
    // sensor board, COTS power chain, rim-mounted harvester, highway
    // driving.
    let mut node = Stack::new(NodeConfig::default(), AppBoard::Tpms)?;

    println!("running the PicoCube for 60 simulated seconds...\n");
    node.run_for(SimDuration::from_secs(60));

    let report = node.report();
    println!("elapsed          : {:.1} s", report.elapsed.value());
    println!(
        "average power    : {:.2} µW   (paper: ~6 µW)",
        report.average_power.micro()
    );
    println!("peak burst power : {:.2} mW", report.peak_power.milli());
    println!("energy consumed  : {:.1} µJ", report.consumed.micro());
    println!("energy harvested : {:.1} µJ", report.harvested.micro());
    println!("sample cycles    : {}", report.wakes);
    println!("packets on air   : {}", report.packets.len());
    println!("battery SoC      : {:.1} %", report.final_soc * 100.0);

    println!("\nper-load energy breakdown:");
    for (name, energy) in &report.power.rails[0].loads {
        println!("  {:<28} {:>10.2} µJ", name, energy.micro());
    }

    if let Some(packet) = report.packets.first() {
        println!("\nfirst packet ({} bytes):", packet.bytes.len());
        print!("  ");
        for b in &packet.bytes {
            print!("{b:02X} ");
        }
        println!();
        println!(
            "  {} bits in {:.2} ms, {:.2} µJ of RF energy",
            packet.transmission.bits,
            packet.transmission.duration.value() * 1e3,
            packet.transmission.energy.micro()
        );
    }
    Ok(())
}
