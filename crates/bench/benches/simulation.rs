//! Micro-benchmarks for the simulation substrate itself, so performance
//! regressions in the kernel, MCU emulator, converter solver and channel
//! are visible. Run with `cargo bench -p picocube-bench --bench simulation`.

use picocube_bench::timing::bench;
use picocube_mcu::{asm, FloatingBus, Mcu, StepResult};
use picocube_node::{AppBoard, NodeConfig, StackBuilder};
use picocube_power::sc::ScConverter;
use picocube_radio::{Channel, Link, PatchAntenna};
use picocube_sim::{EventQueue, SimDuration, SimRng, SimTime};
use picocube_units::{Amps, Db, Dbm, Hertz, Volts};

fn bench_event_queue() {
    bench("kernel/event_queue_push_pop_10k", 50, || {
        let mut q = EventQueue::<u32>::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 37 % 50_000), i as u32);
        }
        while q.pop().is_some() {}
        q.len()
    });
}

fn bench_mcu() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, sp
loop:   mov #0xFFFF, r4
inner:  dec r4
        jnz inner
        jmp loop
        .vector reset, start
        "#,
    )
    .expect("bench program assembles");

    let mut mcu = Mcu::new();
    mcu.load(&image);
    bench("mcu/emulator_100k_instructions", 10, || {
        mcu.reset();
        for _ in 0..100_000 {
            match mcu.step(&mut FloatingBus) {
                StepResult::Ran { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        mcu.cycles()
    });
}

fn bench_sc_solver() {
    let conv = ScConverter::paper_1to2();
    bench("power/sc_convert_fixed_frequency", 10_000, || {
        conv.convert(
            Volts::new(1.2),
            Amps::from_micro(200.0),
            Hertz::from_kilo(800.0),
        )
        .unwrap()
    });
    bench("power/sc_optimal_frequency_search", 1_000, || {
        conv.convert_optimal(Volts::new(1.2), Amps::from_micro(200.0))
            .unwrap()
    });
    bench("power/sc_regulate_bisection", 1_000, || {
        conv.regulate(Volts::new(1.2), Volts::new(2.1), Amps::from_micro(200.0))
            .unwrap()
    });
}

fn bench_channel() {
    let link = Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(2.0),
        channel: Channel::demo_room(),
    };
    let mut rng = SimRng::seed_from(1);
    bench("radio/link_packet_trial_104_bits", 5_000, || {
        link.try_packet(picocube_units::Meters::new(4.0), 104, &mut rng)
    });
}

fn bench_full_node() {
    bench("node/tpms_node_60_simulated_seconds", 3, || {
        let mut node = StackBuilder::new(NodeConfig::default())
            .app(AppBoard::Tpms)
            .build()
            .unwrap();
        node.run_for(SimDuration::from_secs(60));
        node.report().wakes
    });
}

fn main() {
    bench_event_queue();
    bench_mcu();
    bench_sc_solver();
    bench_channel();
    bench_full_node();
}
