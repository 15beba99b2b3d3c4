//! E8 — §4.3/§6/§7.1: the power-management budget. "Since at least one
//! supply is always on, the contribution that management makes to the
//! total system power can be dominant" — and the COTS-vs-integrated-IC
//! ablation.

use picocube_bench::{banner, bar, fmt_power};
use picocube_node::{AppBoard, NodeConfig, PowerChainKind, StackBuilder};
use picocube_power::converter_ic::PowerInterfaceIc;
use picocube_power::cots::CotsPowerChain;
use picocube_sim::SimDuration;
use picocube_units::{Amps, Celsius, Volts};

fn run(kind: PowerChainKind) -> picocube_node::NodeReport {
    let mut node = StackBuilder::new(NodeConfig {
        power_chain: kind,
        ..NodeConfig::default()
    })
    .app(AppBoard::Tpms)
    .build()
    .expect("node builds");
    node.run_for(SimDuration::from_secs(120));
    node.report()
}

fn main() {
    banner(
        "E8 / §4.3+§7.1",
        "power-management budget: COTS chain vs integrated IC",
        "management quiescent dominates the 6 µW; IC leakage ≈ 6.5 µA",
    );

    for (name, kind) in [
        ("COTS chain (as built)", PowerChainKind::Cots),
        ("power interface IC (§7.1)", PowerChainKind::IntegratedIc),
    ] {
        let report = run(kind);
        println!("\n{name}: average {}\n", fmt_power(report.average_power));
        let total = report.consumed.value();
        for (load, e) in &report.power.rails[0].loads {
            println!(
                "  {:<28} {:>9.2} µJ  {:>5.1}%  {}",
                load,
                e.micro(),
                e.value() / total * 100.0,
                bar(e.value(), total, 24)
            );
        }
    }

    // Standing (sleep) floors, analytically.
    let cots = CotsPowerChain::paper();
    let ic = PowerInterfaceIc::paper();
    let vbat = Volts::new(1.2);
    let cots_floor = cots.sleep_budget(Amps::from_micro(1.0)).power(vbat);
    let ic_floor = ic.standby_power(Celsius::new(25.0), vbat);
    println!("\nsleep floors (battery side):");
    println!(
        "  COTS chain + 1 µA of always-on VDD load : {}",
        fmt_power(cots_floor)
    );
    println!(
        "  integrated IC standby ({:.1} µA)          : {}",
        ic.standby_current(Celsius::new(25.0), vbat).micro(),
        fmt_power(ic_floor)
    );
    println!("\nthe §7.1 note holds: the IC's leakage (\"partially attributable to");
    println!("the pad ring\") puts its floor above the COTS chain's, even though its");
    println!("conversion efficiency is better — the architecture wins only once the");
    println!("pad-ring leakage is engineered out (the paper's envisioned IP cores).");

    // What would happen WITHOUT power gating: the §4.3 motivation.
    let ungated_ldo = vbat * Amps::from_micro(120.0);
    println!("\nablation — remove the radio-rail gating:");
    println!(
        "  LT3020 ground current left on: {} standing",
        fmt_power(ungated_ldo)
    );
    println!(
        "  that alone is {:.0}× the whole node's 6 µW average",
        ungated_ldo.micro() / 6.0
    );
}
