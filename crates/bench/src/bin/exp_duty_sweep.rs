//! E15 (extension) — the design-space law behind Fig. 6 and the §4.3
//! architecture argument: average power = sleep floor + E_cycle / T. The
//! sweep shows where the PicoCube's ultra-low floor pays off, and how the
//! COTS chain and the §7.1 IC trade places as the duty cycle rises.

use picocube_bench::{banner, bar, fmt_power};
use picocube_node::{AppBoard, NodeConfig, PowerChainKind, Stack};
use picocube_sim::SimDuration;

fn average_at(period_s: f64, chain: PowerChainKind) -> picocube_units::Watts {
    let config = NodeConfig {
        sample_period_s: Some(period_s),
        power_chain: chain,
        ..NodeConfig::default()
    };
    let mut node = Stack::new(config, AppBoard::Tpms).expect("node builds");
    // Cover at least 10 cycles (or 60 s, whichever is longer).
    let span = (period_s * 10.0).max(60.0).ceil() as u64;
    node.run_for(SimDuration::from_secs(span));
    node.report().average_power
}

fn main() {
    banner(
        "E15 (extension)",
        "average power vs sample period (full-node sweep)",
        "P_avg = sleep floor + E_cycle/T: the floor is what the architecture buys",
    );

    println!("\n{:>10} {:>14} {:>14}", "period", "COTS chain", "§7.1 IC");
    let mut rows = Vec::new();
    for period in [1.0, 2.0, 6.0, 15.0, 60.0, 300.0] {
        let cots = average_at(period, PowerChainKind::Cots);
        let ic = average_at(period, PowerChainKind::IntegratedIc);
        rows.push((period, cots, ic));
        println!(
            "{:>9.0}s {:>14} {:>14}  {}",
            period,
            fmt_power(cots),
            fmt_power(ic),
            bar(cots.micro(), 30.0, 24)
        );
    }

    // Fit the duty-cycle law to the COTS sweep: P(T) = floor + E/T.
    let (t1, p1, _) = rows[0];
    let (t2, p2, _) = rows[rows.len() - 1];
    let e_cycle = (p1.value() - p2.value()) / (1.0 / t1 - 1.0 / t2);
    let floor = p2.value() - e_cycle / t2;
    println!(
        "\nfitted law (COTS): P(T) ≈ {:.2} µW + {:.1} µJ / T",
        floor * 1e6,
        e_cycle * 1e6
    );
    println!(
        "  at the paper's 6 s: {:.2} µW (measured {:.2} µW)",
        (floor + e_cycle / 6.0) * 1e6,
        rows[2].1.micro()
    );

    println!("\nreadings:");
    println!("  * at short periods the active energy dominates and the IC's");
    println!("    constant leakage offset shrinks in relative terms (1.4× at");
    println!("    1 s vs 4× at 300 s) — its better converters would win if the");
    println!("    pad-ring leakage were engineered out (§7.1's own caveat);");
    println!("  * above ~1 min both flatten onto their sleep floors;");
    println!("  * the paper's 6 s sits right at the knee: the sleep floor is");
    println!("    half the budget — exactly the regime the architecture (gated");
    println!("    rails, snooze-mode pump, sub-µW MCU sleep) was designed for.");
}
