//! Differential suite: the pre-decoded translation cache vs the
//! interpreter, in lockstep.
//!
//! Two cores load the same image; one runs through the micro-op cache, the
//! other with translation disabled. After every step the full architectural
//! state must agree: all sixteen registers, the cycle counter, the step
//! result (including fault latching and sleep reporting), and — at
//! checkpoints and at the end — every byte of the address space. Stimuli
//! (interrupts, pin edges, SPI slaves, sleep fast-forwards) are mirrored.
//!
//! Coverage comes from three directions: every checked-in firmware image,
//! proptest-generated instruction soups over all addressing modes (via the
//! in-tree assembler), and directed edge cases (self-modifying code, odd
//! PCs, undecodable words, interrupt storms).

use picocube_mcu::firmware;
use picocube_mcu::{asm, FloatingBus, Image, Irq, Mcu, SegmentStop, SpiDevice, StepResult};
use picocube_sim::CycleLog;
use proptest::prelude::*;

/// A decoded/interpreter pair over one image, each core with its own
/// instance of the same SPI slave.
struct Pair {
    dec: Mcu,
    int: Mcu,
    dec_bus: Box<dyn SpiDevice>,
    int_bus: Box<dyn SpiDevice>,
}

impl Pair {
    fn boot(image: &Image) -> Self {
        let mut dec = Mcu::new();
        dec.load(image);
        dec.reset();
        let mut int = Mcu::new();
        int.load(image);
        int.reset();
        int.set_translation(false);
        Self {
            dec,
            int,
            dec_bus: Box::new(FloatingBus),
            int_bus: Box::new(FloatingBus),
        }
    }

    fn attach_echo_spi(&mut self) {
        self.dec_bus = Box::new(|mosi: u8| mosi ^ 0xA5);
        self.int_bus = Box::new(|mosi: u8| mosi ^ 0xA5);
    }

    fn attach_sp12_like_spi(&mut self) {
        self.dec_bus = Box::new(Sp12Like::default());
        self.int_bus = Box::new(Sp12Like::default());
    }

    /// Applies one mirrored stimulus to both cores.
    fn both(&mut self, f: impl Fn(&mut Mcu)) {
        f(&mut self.dec);
        f(&mut self.int);
    }

    fn assert_registers(&self, step: usize) {
        for r in 0..16 {
            assert_eq!(
                self.dec.register(r),
                self.int.register(r),
                "step {step}: r{r} diverged"
            );
        }
        assert_eq!(
            self.dec.cycles(),
            self.int.cycles(),
            "step {step}: cycle counters diverged"
        );
        assert_eq!(
            self.dec.mode(),
            self.int.mode(),
            "step {step}: operating mode diverged"
        );
    }

    fn assert_memory(&self, context: &str) {
        for addr in 0..=0xFFFFu16 {
            let (a, b) = (self.dec.read_mem8(addr), self.int.read_mem8(addr));
            assert_eq!(a, b, "{context}: memory diverged at {addr:#06x}");
        }
    }

    /// Steps both cores once and checks full lockstep agreement.
    fn step(&mut self, step: usize) -> StepResult {
        let a = self.dec.step(&mut *self.dec_bus);
        let b = self.int.step(&mut *self.int_bus);
        assert_eq!(a, b, "step {step}: step results diverged");
        self.assert_registers(step);
        a
    }

    /// Fast-forwards a sleeping pair identically.
    fn sleep(&mut self, cycles: u64, step: usize) {
        let a = self.dec.sleep(cycles, &mut *self.dec_bus);
        let b = self.int.sleep(cycles, &mut *self.int_bus);
        assert_eq!(a, b, "step {step}: slept cycle counts diverged");
        self.assert_registers(step);
    }
}

/// An SP12-like slave. A conversion command (`0xA0`–`0xA3`) starts a
/// conversion that reads ready on the sixth status poll (`0xF0`), and
/// reading the low byte (`0xF2`) ends it. Like the real part behind the
/// node's bus mux, it reports a draw change exactly where its supply
/// current moves: at the conversion start and at the low-byte read.
/// Status polls, the high byte and every other byte change nothing, so
/// their busy-waits run through the completion without ending a segment.
#[derive(Debug, Default)]
struct Sp12Like {
    converting: bool,
    polls: u8,
}

impl SpiDevice for Sp12Like {
    fn transfer(&mut self, mosi: u8) -> u8 {
        self.transfer_observed(mosi).0
    }

    fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
        match mosi {
            0xA0..=0xA3 => {
                let changed = !self.converting;
                self.converting = true;
                self.polls = 0;
                (0x00, changed)
            }
            0xF0 => {
                self.polls = self.polls.saturating_add(1);
                (u8::from(!self.converting || self.polls >= 6), false)
            }
            0xF1 => (0x0A, false),
            0xF2 => {
                let changed = self.converting;
                self.converting = false;
                (0x5C, changed)
            }
            other => (other ^ 0xA5, false),
        }
    }
}

/// Drives a pair for `steps` steps with periodic pin pulses so firmware
/// that parks in an LPM keeps waking up and exercising its burst path.
fn drive_firmware(pair: &mut Pair, steps: usize) {
    let mut faulted = false;
    for i in 0..steps {
        match pair.step(i) {
            StepResult::Ran { .. } => {}
            StepResult::Sleeping(_) => {
                pair.sleep(997, i);
                if i % 5 == 0 {
                    // The board's latched wake line: a P1.0 pulse.
                    pair.both(|m| {
                        m.drive_p1(0, false);
                        m.drive_p1(0, true);
                    });
                }
                if i % 11 == 0 {
                    pair.both(|m| {
                        m.drive_p2(1, false);
                        m.drive_p2(1, true);
                    });
                }
            }
            StepResult::IllegalInstruction { .. } => {
                faulted = true;
                break;
            }
        }
        if i % 64 == 0 {
            pair.both(|m| {
                m.drive_p1(0, false);
            });
        }
    }
    assert!(!faulted, "stock firmware must not fault");
    pair.assert_memory("after drive");
}

#[test]
fn stock_firmware_images_run_in_lockstep() {
    let images: Vec<(&str, Image)> = vec![
        ("tpms", firmware::tpms_app(0x42).expect("tpms builds")),
        (
            "tpms_alarm",
            firmware::tpms_alarm_app(0x17, 0x0123).expect("alarm builds"),
        ),
        ("motion", firmware::motion_app(7).expect("motion builds")),
        ("beacon", firmware::beacon_app(3, 2).expect("beacon builds")),
    ];
    for (name, image) in &images {
        let mut pair = Pair::boot(image);
        pair.attach_echo_spi();
        drive_firmware(&mut pair, 20_000);
        assert!(
            pair.dec.cycles() > 10_000,
            "{name}: the pair should have made real progress"
        );
    }
}

#[test]
fn run_streams_blocks_bit_identically() {
    // `Mcu::run` on the decoded core, with its attached slave, against the
    // interpreter core single-stepped through the reference segment loop
    // until it stops for anything but an observable change: chunked
    // budgets must leave both cores at identical stopping points.
    let image = firmware::tpms_app(0x42).expect("tpms builds");
    let mut pair = Pair::boot(&image);
    pair.attach_echo_spi();
    pair.dec.attach_spi(Box::new(|mosi: u8| mosi ^ 0xA5));
    let mut deltas = Vec::new();
    for chunk in 0..400 {
        let a = pair.dec.run(1_337);
        let start = pair.int.cycles();
        deltas.clear();
        let bus = &mut *pair.int_bus;
        while reference_segment(&mut pair.int, start + 1_337, usize::MAX, &mut deltas, bus)
            == SegmentStop::Observable
        {}
        let b = pair.int.cycles() - start;
        assert_eq!(a, b, "chunk {chunk}: run() consumed different cycles");
        pair.assert_registers(chunk);
        if a == 0 {
            // Parked: wake both through the pin-change path.
            pair.sleep(1_009, chunk);
            pair.both(|m| {
                m.drive_p1(0, false);
                m.drive_p1(0, true);
            });
        }
    }
    pair.assert_memory("after chunked runs");
}

#[test]
fn self_modifying_code_falls_back_identically() {
    // Two writes the decoded core must survive. One overwrites an
    // instruction the program then executes: the core must notice the
    // write into decoded code and drop back to the interpreter. The other
    // retargets the port-1 vector before the interrupt fires: the vector
    // table is data no micro-op was decoded from, and interrupt entry must
    // read the new vector from memory.
    let cases = [
        (
            "patched instruction",
            r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #0x1111, r4
        mov #0x2222, r5
        mov #0x4506, &patch   ; overwrite "mov r4, r6" with "mov r5, r6"
patch:  mov r4, r6
halt:   jmp halt
        .vector reset, start
        "#,
            0x2222,
        ),
        (
            "retargeted vector",
            r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #isr2, &0xFFE8    ; the port-1 vector
        eint
halt:   jmp halt
isr1:   mov #0x1111, r6
        reti
isr2:   mov #0x2222, r6
        reti
        .vector reset, start
        .vector port1, isr1
        "#,
            0x2222,
        ),
    ];
    for (why, source, r6) in cases {
        let image = asm::assemble(source).expect("smc program assembles");
        let mut pair = Pair::boot(&image);
        for i in 0..12 {
            if i == 4 {
                // Only the retargeting program enables interrupts.
                pair.both(|m| m.raise(Irq::Port1));
            }
            pair.step(i);
        }
        assert_eq!(
            pair.dec.register(6),
            r6,
            "{why}: the written bytes must execute, not a stale decode"
        );
        pair.assert_memory(why);
    }
}

#[test]
fn jumps_into_the_vector_table_run_identically() {
    // Decoded tables end below the vector table at 0xFFE0. The program
    // runs code that straddles that bound (an immediate at 0xFFE0) and
    // code that lies inside the vector table, so the decoded core must
    // fall back to the interpreter there, under `run_segment` as under
    // single steps.
    let source = r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #0, r4
loop:   br #0xFFDE
back:   cmp #40, r4
        jnz loop
        bis #0x00F0, sr       ; LPM4
        .org 0xFFDE
        add #3, r4            ; the immediate sits at 0xFFE0
        dec r4                ; 0xFFE2, inside the vector table
        br #back
        .vector reset, start
        "#;
    let image = asm::assemble(source).expect("vector-table program assembles");

    let mut pair = Pair::boot(&image);
    let mut steps = 0;
    while let StepResult::Ran { .. } = pair.step(steps) {
        steps += 1;
    }
    assert_eq!(pair.dec.register(4), 40, "twenty trips through the vectors");
    pair.assert_memory("after single steps");

    let mut pair = Pair::boot(&image);
    let mut log = CycleLog::new();
    for seg in 0..200usize {
        let limit = pair.dec.cycles() + 5 + (seg % 13) as u64;
        let context = format!("vector-table segment {seg}");
        if let SegmentStop::Sleeping(_) =
            lockstep_segment(&mut pair, limit, 1 + seg % 7, &mut log, &context)
        {
            break;
        }
    }
    assert_eq!(pair.dec.register(4), 40, "segments reach the same end");
    pair.assert_memory("after segments");
}

#[test]
fn undecodable_words_fault_in_lockstep() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #3, r4
        .word 0x0000          ; opcode 0: undecodable
        .vector reset, start
        "#,
    )
    .expect("fault program assembles");
    let mut pair = Pair::boot(&image);
    pair.step(0);
    pair.step(1);
    let r = pair.step(2);
    assert!(
        matches!(r, StepResult::IllegalInstruction { word: 0, .. }),
        "both cores must latch the fault"
    );
    // The fault sticks on both.
    let r = pair.step(3);
    assert!(matches!(r, StepResult::IllegalInstruction { .. }));
    pair.assert_memory("after fault");
}

#[test]
fn odd_pc_executes_identically() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        mov #0x1234, r4
halt:   jmp halt
        .vector reset, start
        "#,
    )
    .expect("odd-pc program assembles");
    let mut pair = Pair::boot(&image);
    pair.step(0);
    // Force an odd PC: the hardware masks the low bit on fetch but keeps
    // the odd increment; both paths must model it the same way.
    pair.both(|m| m.set_register(0, 0xF005));
    for i in 1..6 {
        pair.step(i);
    }
    pair.assert_memory("after odd pc");
}

#[test]
fn interrupt_storm_dispatches_identically() {
    let image = asm::assemble(
        r#"
        .org 0xF000
start:  mov #0x0A00, r1
        eint
loop:   add #1, r4
        jmp loop
tisr:   add #0x10, r5
        reti
sisr:   add #0x10, r6
        reti
p1isr:  add #0x10, r7
        reti
p2isr:  add #0x10, r8
        reti
        .vector reset, start
        .vector timera, tisr
        .vector spi, sisr
        .vector port1, p1isr
        .vector port2, p2isr
        "#,
    )
    .expect("storm program assembles");
    let mut pair = Pair::boot(&image);
    let schedule = [
        (3usize, Irq::Port2),
        (4, Irq::TimerA),
        (4, Irq::Spi),
        (9, Irq::Port1),
        (9, Irq::Port2),
        (9, Irq::TimerA),
        (23, Irq::Spi),
        (24, Irq::Spi),
    ];
    for i in 0..600 {
        for (at, irq) in &schedule {
            if *at == i % 40 {
                pair.both(|m| m.raise(*irq));
            }
        }
        pair.step(i);
    }
    pair.assert_memory("after storm");
}

/// Reference implementation of the [`Mcu::run_segment`] contract written
/// purely against the public single-step API: step until the budget is
/// exhausted, an observable (GPIO outputs, the SPI draw epoch, operating
/// mode) changes, or the core reports sleep/fault. `run_segment`
/// documents itself as exactly this loop — here the claim is checked.
fn reference_segment(
    m: &mut Mcu,
    limit_cycles: u64,
    max_insns: usize,
    deltas: &mut Vec<u32>,
    bus: &mut dyn SpiDevice,
) -> SegmentStop {
    let obs = |m: &Mcu| (m.p1_output(), m.p2_output(), m.spi_draw_epoch(), m.mode());
    let base = obs(m);
    loop {
        if m.cycles() >= limit_cycles || deltas.len() >= max_insns {
            return SegmentStop::Budget;
        }
        match m.step(bus) {
            StepResult::Ran { cycles } => {
                deltas.push(cycles);
                if obs(m) != base {
                    return SegmentStop::Observable;
                }
            }
            StepResult::Sleeping(mode) => return SegmentStop::Sleeping(mode),
            StepResult::IllegalInstruction { word, at } => return SegmentStop::Fault { word, at },
        }
    }
}

/// Runs one segment on both cores: [`Mcu::run_segment`] on the decoded
/// core into `log`, the reference loop on the interpreter core. Asserts
/// that they stop for the same reason with the same per-instruction costs,
/// registers, clock, mode and draw epoch, and returns the stop.
fn lockstep_segment(
    pair: &mut Pair,
    limit_cycles: u64,
    max_insns: usize,
    log: &mut CycleLog,
    context: &str,
) -> SegmentStop {
    log.clear();
    let mut db = Vec::new();
    let a = pair
        .dec
        .run_segment(limit_cycles, max_insns as u64, log, &mut *pair.dec_bus);
    let b = reference_segment(
        &mut pair.int,
        limit_cycles,
        max_insns,
        &mut db,
        &mut *pair.int_bus,
    );
    let da: Vec<u32> = log.iter_insns().collect();
    assert_eq!(a, b, "{context}: stop reasons diverged");
    assert_eq!(da, db, "{context}: cycle logs diverged");
    assert_eq!(
        log.insns(),
        db.len() as u64,
        "{context}: instruction counts"
    );
    for r in 0..16 {
        assert_eq!(
            pair.dec.register(r),
            pair.int.register(r),
            "{context}: r{r} diverged"
        );
    }
    assert_eq!(pair.dec.cycles(), pair.int.cycles(), "{context}: clocks");
    assert_eq!(pair.dec.mode(), pair.int.mode(), "{context}: modes");
    assert_eq!(
        pair.dec.spi_draw_epoch(),
        pair.int.spi_draw_epoch(),
        "{context}: draw epochs"
    );
    a
}

#[test]
fn run_segment_matches_single_stepping() {
    // The decoded core runs whole segments (block streaming plus the fused
    // SPI spin and exchange); the interpreter core single-steps through the
    // reference loop above. Ragged cycle/instruction budgets force segment
    // splits at awkward points — including mid-spin — and every stop
    // reason, expanded cycle log, register file, and memory image must
    // agree. The echo slave reports every completion as a change; the
    // SP12-like one only some, so spins also run through completions
    // inside a segment.
    let images: Vec<(&str, Image)> = vec![
        ("tpms", firmware::tpms_app(0x42).expect("tpms builds")),
        ("beacon", firmware::beacon_app(3, 2).expect("beacon builds")),
        ("motion", firmware::motion_app(7).expect("motion builds")),
    ];
    for (name, image) in &images {
        for sp12_like in [false, true] {
            let mut pair = Pair::boot(image);
            if sp12_like {
                pair.attach_sp12_like_spi();
            } else {
                pair.attach_echo_spi();
            }
            let mut log = CycleLog::new();
            let mut spun = 0;
            for seg in 0..4_000usize {
                let limit = pair.dec.cycles() + 23 + (seg % 977) as u64;
                let max_insns = 1 + seg % 63;
                let context = format!("{name} segment {seg}");
                let a = lockstep_segment(&mut pair, limit, max_insns, &mut log, &context);
                spun += log.runs().len();
                if let SegmentStop::Sleeping(_) = a {
                    pair.sleep(997, seg);
                    if seg % 5 == 0 {
                        pair.both(|m| {
                            m.drive_p1(0, false);
                            m.drive_p1(0, true);
                        });
                    }
                    if seg % 11 == 0 {
                        pair.both(|m| {
                            m.drive_p2(1, false);
                            m.drive_p2(1, true);
                        });
                    }
                }
                if seg % 64 == 0 {
                    pair.both(|m| m.drive_p1(0, false));
                }
            }
            assert!(spun > 0, "{name}: no busy-wait was logged as a run");
            pair.assert_memory("after segments");
        }
    }
}

/// Where the exchange programs below place their helper.
const HELPER_AT: u16 = 0xF100;

/// The stock firmware's `spi_xfer` helper, for [`HELPER_AT`].
const HELPER: &str = "
        mov.b r4, &0x0040       ; SPITX
wait:   bit.b #1, &0x0042       ; SPISTAT busy?
        jnz wait
        mov.b &0x0041, r5       ; SPIRX
        ret";

/// A program that calls the helper `helper` at [`HELPER_AT`] in a loop,
/// with the SPI clock divider `1 << div`. `setup` runs once before the
/// loop and `pre_call` before every call. Timer A's interrupt counts in
/// r10.
fn xfer_program(div: u8, setup: &str, pre_call: &str, helper: &str) -> Image {
    asm::assemble(&format!(
        "
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #0x30, &0x0022    ; P1DIR
        mov.b #{div}, &0x0043   ; SPICTL
        clr r6
        {setup}
loop:   mov r6, r4
        {pre_call}
        call #{HELPER_AT:#06x}
        add r5, r7
        inc r6
        jmp loop
tisr:   inc r10
        reti
        .org {HELPER_AT:#06x}
        {helper}
        .vector reset, start
        .vector timera, tisr
        "
    ))
    .expect("exchange program assembles")
}

#[test]
fn budget_stops_land_on_every_boundary_of_a_fused_exchange() {
    // Start each run with the PC on the first `call`, then stop the first
    // segment after every possible cycle count and every possible
    // instruction count inside the exchange, and check that the next
    // segment resumes in lockstep. Divider 1 completes the transfer in the
    // first poll; divider 32 spins long enough for the bulk fast-forward.
    for div in [0u8, 5] {
        let image = xfer_program(div, "", "", HELPER);
        // `call #imm` encodes as 0x12B0.
        let at_call = || {
            let mut pair = Pair::boot(&image);
            let mut i = 0;
            while pair.dec.read_mem16(pair.dec.register(0)) != 0x12B0 {
                pair.step(i);
                i += 1;
            }
            pair
        };
        let span = 8u64 << div;
        let mut log = CycleLog::new();
        for cycles in 0..=span + 32 {
            let mut pair = at_call();
            let start = pair.dec.cycles();
            let context = format!("divider {div}, {cycles} cycles");
            lockstep_segment(&mut pair, start + cycles, usize::MAX, &mut log, &context);
            lockstep_segment(&mut pair, start + 4 * span, usize::MAX, &mut log, &context);
        }
        for insns in 1..=span as usize + 16 {
            let mut pair = at_call();
            let start = pair.dec.cycles();
            let context = format!("divider {div}, {insns} instructions");
            lockstep_segment(&mut pair, u64::MAX, insns, &mut log, &context);
            lockstep_segment(&mut pair, start + 4 * span, usize::MAX, &mut log, &context);
            pair.assert_memory(&context);
        }
    }
}

/// Runs ragged lockstep segments over an exchange program and compares
/// memory at the end.
fn exchange_program_in_lockstep(pair: &mut Pair, segments: usize, context: &str) {
    let mut log = CycleLog::new();
    for seg in 0..segments {
        let limit = pair.dec.cycles() + 17 + (seg % 331) as u64;
        let max_insns = 1 + seg % 97;
        let context = format!("{context}, segment {seg}");
        if let SegmentStop::Fault { .. } =
            lockstep_segment(pair, limit, max_insns, &mut log, &context)
        {
            break;
        }
    }
    pair.assert_memory(context);
}

#[test]
fn exchanges_that_cannot_fuse_run_identically() {
    // Each case breaks one precondition of the fused exchange, so its calls
    // take the generic path (the crate's unit tests count which path ran);
    // the control case keeps them all and latches timer interrupts
    // mid-exchange with GIE clear.
    let timer = "mov #3, &0x0062
 mov.b #3, &0x0060";
    let cases = [
        ("timer latching, GIE clear", timer.to_string(), ""),
        (
            "GIE set, timer firing mid-helper",
            format!(
                "{timer}
 eint"
            ),
            "",
        ),
        (
            "SPI busy at the call",
            String::new(),
            "mov.b #0x11, &0x0040",
        ),
        (
            "stack in the peripheral window",
            "mov #0x0023, sp".into(),
            "",
        ),
        ("stack in the decoded span", "mov #0xF0F0, sp".into(), ""),
    ];
    for div in [0u8, 5] {
        for (why, setup, pre_call) in &cases {
            let image = xfer_program(div, setup, pre_call, HELPER);
            for echo in [false, true] {
                let mut pair = Pair::boot(&image);
                if echo {
                    pair.attach_echo_spi();
                }
                let context = format!("{why}, divider {div}, echo {echo}");
                exchange_program_in_lockstep(&mut pair, 1_500, &context);
            }
        }
    }
}

#[test]
fn draw_epoch_change_ends_a_segment_mid_helper() {
    // The echo slave moves the draw epoch on every completion, so every
    // exchange ends its segment inside the helper, after the tick that
    // completed the transfer; the next segment must resume exactly there.
    for div in [0u8, 5] {
        let image = xfer_program(div, "", "", HELPER);
        let mut pair = Pair::boot(&image);
        pair.attach_echo_spi();
        let mut log = CycleLog::new();
        let mut mid_helper = 0;
        for seg in 0..400 {
            let context = format!("divider {div}, segment {seg}");
            let stop = lockstep_segment(&mut pair, u64::MAX, usize::MAX, &mut log, &context);
            assert_eq!(stop, SegmentStop::Observable, "{context}");
            let pc = pair.dec.register(0);
            mid_helper += usize::from((HELPER_AT + 4..HELPER_AT + 16).contains(&pc));
        }
        assert_eq!(
            mid_helper, 400,
            "divider {div}: every stop lands mid-helper"
        );
        pair.assert_memory("after mid-helper stops");
    }
}

#[test]
fn near_miss_helpers_run_unfused_in_lockstep() {
    let near_misses = [
        ("ret becomes reti", HELPER.replace("ret", "reti")),
        (
            "reply lands in SR",
            HELPER.replace("r5       ;", "sr       ;"),
        ),
        (
            "spin does not loop back",
            HELPER.replace("jnz wait", "jnz 0xF10A"),
        ),
    ];
    for (why, helper) in &near_misses {
        assert_ne!(helper, HELPER, "{why}: the variant must differ");
        let image = xfer_program(5, "", "", helper);
        for echo in [false, true] {
            let mut pair = Pair::boot(&image);
            if echo {
                pair.attach_echo_spi();
            }
            exchange_program_in_lockstep(&mut pair, 1_000, &format!("{why}, echo {echo}"));
        }
    }
}

#[test]
fn beacon_timer_ticks_through_fused_exchanges() {
    // The beacon firmware samples and transmits from its Timer A ISR, so
    // every exchange runs with GIE clear and the timer counting. Period 1:
    // every fire runs a burst. Sleep each pair to the next fire, then run
    // the burst in whole segments.
    let image = firmware::beacon_app(3, 1).expect("beacon builds");
    let mut pair = Pair::boot(&image);
    pair.attach_echo_spi();
    let mut log = CycleLog::new();
    let mut bursts = 0;
    for seg in 0..2_000 {
        let context = format!("beacon segment {seg}");
        let limit = pair.dec.cycles() + 50_000;
        if let SegmentStop::Sleeping(_) =
            lockstep_segment(&mut pair, limit, usize::MAX, &mut log, &context)
        {
            bursts += 1;
            if bursts > 4 {
                break;
            }
            pair.sleep(2_000_000, seg);
        }
    }
    assert!(bursts > 4, "the beacon ran only {bursts} bursts");
    pair.assert_memory("after beacon bursts");
}

#[test]
fn tpms_wake_burst_runs_in_at_most_20_segments() {
    // One wake of the TPMS firmware: four SP12 conversions (start, six
    // status polls, two reads each) and a 13-byte frame to the radio. Only
    // a conversion start, a low-byte read, the chip select, the radio
    // power pins and the mode ends a segment; status polls and frame bytes
    // run on through their completions.
    let image = firmware::tpms_app(0x42).expect("tpms builds");
    let mut mcu = Mcu::new();
    mcu.load(&image);
    mcu.reset();
    let mut bus = Sp12Like::default();
    let mut log = CycleLog::new();
    let mut run_to_sleep = |mcu: &mut Mcu| {
        let (mut segments, mut insns) = (0, 0);
        loop {
            log.clear();
            let stop = mcu.run_segment(u64::MAX, u64::MAX, &mut log, &mut bus);
            segments += 1;
            insns += log.insns();
            match stop {
                SegmentStop::Sleeping(_) => return (segments, insns),
                SegmentStop::Observable => {}
                other => panic!("wake burst stopped on {other:?}"),
            }
        }
    };
    run_to_sleep(&mut mcu);
    mcu.drive_p1(0, false);
    mcu.drive_p1(0, true); // the SP12's wake line
    let (segments, insns) = run_to_sleep(&mut mcu);
    assert!(insns > 1_000, "the burst ran only {insns} instructions");
    assert!(
        segments <= 20,
        "a TPMS wake took {segments} segments for {insns} instructions"
    );
}

/// Strategy for one random instruction covering every addressing-mode
/// family. Pointer-shaped operands use r8–r10, which the preamble aims at
/// scratch RAM; wilder values flow through immediates and the ALU.
fn soup_instruction() -> impl Strategy<Value = String> {
    let data_reg = (4u8..=15).prop_map(|r| format!("r{r}"));
    let ptr_reg = (8u8..=10).prop_map(|r| format!("r{r}"));
    let src = prop_oneof![
        data_reg.clone(),
        ptr_reg.clone().prop_map(|r| format!("@{r}")),
        ptr_reg.clone().prop_map(|r| format!("@{r}+")),
        (0x0300u16..0x03F0).prop_map(|a| format!("&{a:#06x}")),
        (0u16..0xFFFF).prop_map(|v| format!("#{v:#06x}")),
        // The constant-generator immediates get their own arm so they are
        // always exercised (folded constants in the decoded path).
        prop_oneof![
            Just("#0".to_string()),
            Just("#1".to_string()),
            Just("#2".to_string()),
            Just("#4".to_string()),
            Just("#8".to_string()),
            Just("#-1".to_string()),
        ],
        ((0u16..0x40), ptr_reg.clone()).prop_map(|(x, r)| format!("{:#06x}({})", x * 2, r)),
    ];
    let dst = prop_oneof![
        data_reg.clone(),
        data_reg,
        (0x0300u16..0x03F0).prop_map(|a| format!("&{a:#06x}")),
        ((0u16..0x40), ptr_reg).prop_map(|(x, r)| format!("{:#06x}({})", x * 2, r)),
        // Rare-ish: status-register destination (flag scramble, block end).
        Just("sr".to_string()),
    ];
    let two_op = prop_oneof![
        Just("mov"),
        Just("add"),
        Just("addc"),
        Just("sub"),
        Just("subc"),
        Just("cmp"),
        Just("dadd"),
        Just("bit"),
        Just("bic"),
        Just("bis"),
        Just("xor"),
        Just("and"),
    ];
    let one_op = prop_oneof![
        Just("rrc"),
        Just("rra"),
        Just("swpb"),
        Just("sxt"),
        Just("push"),
    ];
    let fmt1 = (two_op, prop::bool::ANY, src.clone(), dst).prop_map(|(m, byte, s, d)| {
        let suffix = if byte && m != "dadd" { ".b" } else { "" };
        format!("{m}{suffix} {s}, {d}")
    });
    let fmt2 = (one_op, src).prop_map(|(m, s)| format!("{m} {s}"));
    prop_oneof![fmt1, fmt2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_programs_run_in_lockstep(
        instructions in prop::collection::vec(soup_instruction(), 1..48),
        seeds in prop::collection::vec(0u16..0xFFFF, 4..5),
        jump_every in 3usize..9,
        irq_at in 5usize..180,
    ) {
        // Preamble: stack, seeded data registers, pointer registers aimed
        // at scratch RAM, interrupts enabled with all vectors populated.
        let mut src = String::from(".org 0xF000\nstart: mov #0x0A00, r1\n");
        for (i, s) in seeds.iter().enumerate() {
            src.push_str(&format!("mov #{s:#06x}, r{}\n", 4 + i));
        }
        src.push_str("mov #0x0300, r8\nmov #0x0340, r9\nmov #0x0380, r10\neint\n");
        let n = instructions.len();
        for (i, insn) in instructions.iter().enumerate() {
            src.push_str(&format!("i{i}: "));
            // Sprinkle conditional jumps over the soup: forward, to a
            // label that always exists.
            if i % jump_every == jump_every - 1 && i + 1 < n {
                let cond = ["jnz", "jz", "jc", "jnc", "jn", "jge", "jl"][i % 7];
                src.push_str(&format!("{cond} i{}\n", (i + 2).min(n)));
                continue;
            }
            src.push_str(insn);
            src.push('\n');
        }
        src.push_str(&format!("i{n}: jmp i{n}\n"));
        src.push_str("isr: add #1, r15\nreti\n");
        src.push_str(
            ".vector reset, start\n.vector port1, isr\n.vector port2, isr\n\
             .vector timera, isr\n.vector spi, isr\n",
        );
        let image = asm::assemble(&src).expect("generated soup assembles");
        let mut pair = Pair::boot(&image);
        pair.attach_echo_spi();
        let mut slept = 0;
        for i in 0..400 {
            if i == irq_at {
                pair.both(|m| m.raise(Irq::Port1));
            }
            match pair.step(i) {
                StepResult::Ran { .. } => {}
                StepResult::Sleeping(_) => {
                    // A generated SR write parked the core; wake it or stop.
                    slept += 1;
                    if slept > 3 {
                        break;
                    }
                    pair.sleep(499, i);
                    pair.both(|m| m.raise(Irq::TimerA));
                }
                StepResult::IllegalInstruction { .. } => break,
            }
            if i % 37 == 0 {
                pair.both(|m| {
                    m.drive_p1(0, false);
                    m.drive_p1(0, true);
                });
            }
        }
        pair.assert_memory("after soup");
    }
}
