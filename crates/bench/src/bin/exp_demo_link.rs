//! E4 — §6 / Figs 7–8: the retreat demo link. "Range is about 1 meter
//! depending on orientation of the antenna."

use picocube_bench::{banner, bar};
use picocube_node::{AppBoard, DemoStation, HarvesterKind, NodeConfig, StackBuilder};
use picocube_radio::packet::{encode, Checksum};
use picocube_radio::{Channel, Link, PatchAntenna, SuperRegenReceiver};
use picocube_sensors::MotionScenario;
use picocube_sim::{SimDuration, SimRng};
use picocube_units::{Db, Dbm, Hertz, Meters};

fn demo_link(orientation_db: f64) -> Link {
    Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(orientation_db),
        channel: Channel::demo_room(),
    }
}

fn main() {
    banner(
        "E4 / Figs 7–8",
        "motion demo: end-to-end link",
        "decoded X,Y,Z on the laptop; range ≈ 1 m depending on antenna orientation",
    );

    // Packet success vs distance, for a favourable and an unlucky
    // orientation of the patch.
    let rx = SuperRegenReceiver::bwrc_issc05();
    let frame = encode(0x42, &[0, 0, 0, 0, 0, 0], Checksum::Xor);
    let bits = frame.len() * 8;
    println!(
        "\nreceiver: {} µW superregen, sensitivity {:.0} dBm (reference [12])",
        rx.rx_power().micro(),
        rx.sensitivity().value()
    );
    println!("\npacket success vs range (500 trials/point, demo room):\n");
    println!(
        "{:>8} {:>12} {:>12}",
        "range", "best orient.", "worst orient."
    );
    let mut rng = SimRng::seed_from(4);
    for d in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let mut rates = Vec::new();
        for orient in [2.0, 22.0] {
            let link = demo_link(orient);
            let ok = (0..500)
                .filter(|_| link.try_packet(Meters::new(d), bits, &mut rng))
                .count();
            rates.push(ok as f64 / 500.0);
        }
        println!(
            "{:>7.2}m {:>11.1}% {:>11.1}%  {}",
            d,
            rates[0] * 100.0,
            rates[1] * 100.0,
            bar(rates[1], 1.0, 20)
        );
    }
    let best = demo_link(2.0);
    let worst = demo_link(22.0);
    println!(
        "\n50 %-success range: best orientation {:.1}, worst {:.1}",
        best.half_success_range(bits),
        worst.half_success_range(bits)
    );
    println!("paper: \"about 1 meter depending on orientation\" — the worst-case");
    println!("orientation (patch null toward the receiver) sets the quoted range.");

    // The actual demo: run the node + station end to end.
    println!("\nend-to-end session (90 s on the demo table at 1 m):");
    let config = NodeConfig {
        harvester: HarvesterKind::Bicycle,
        ..NodeConfig::default()
    };
    let mut node = StackBuilder::new(config)
        .app(AppBoard::Motion {
            scenario: MotionScenario::retreat_table(2007),
        })
        .build()
        .expect("node builds");
    node.run_for(SimDuration::from_secs(90));
    let mut station = DemoStation::demo_table(2007);
    let packets = node.packets();
    let decoded = station.offer_all(&packets);
    println!("  transmitted: {} packets", packets.len());
    println!("  decoded    : {decoded} ({} lost)", station.lost());
    println!(
        "  received at 1 m: {:.1} dBm  (paper: about −60 dBm)",
        demo_link(2.0).budget(Meters::new(1.0)).received.value()
    );
    if let Some(s) = station.samples().first() {
        println!(
            "  first plotted sample: X={:+.2} g  Y={:+.2} g  Z={:+.2} g",
            s.x.value(),
            s.y.value(),
            s.z.value()
        );
    }

    // Independent physical-layer check: the bit-level envelope demodulator
    // (timing recovery + slicer + sync) agrees with the closed-form model.
    let mut rng = picocube_sim::SimRng::seed_from(99);
    let wf_ok = (0..40)
        .filter(|_| {
            rx.receive_waveform(
                &demo_link(2.0),
                Meters::new(1.0),
                &frame,
                picocube_units::Hertz::from_kilo(100.0),
                Checksum::Xor,
                &mut rng,
            )
            .is_ok()
        })
        .count();
    println!("  waveform-path (bit-level demod) at 1 m: {wf_ok}/40 decode");
}
