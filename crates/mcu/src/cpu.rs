//! The MSP430-subset CPU: fetch/decode/execute with cycle accounting.

use crate::isa::{Dst, Format1Op, Format2Op, Insn, Src};
use crate::memory::{io, FlatMemory, Image};
use crate::peripherals::{FloatingBus, Irq, Peripherals, SpiDevice};
use crate::power_model::{McuPowerModel, OperatingMode};
use crate::uops::{CodeSpan, DstOp, Fused, SpiXfer, SrcOp, UInsn, UOp};
use core::ops::ControlFlow;
use picocube_sim::CycleLog;

/// Carry flag bit in `SR`.
pub const FLAG_C: u16 = 0x0001;
/// Zero flag bit in `SR`.
pub const FLAG_Z: u16 = 0x0002;
/// Negative flag bit in `SR`.
pub const FLAG_N: u16 = 0x0004;
/// Global interrupt enable bit in `SR`.
pub const FLAG_GIE: u16 = 0x0008;
/// CPU-off bit (all LPMs).
pub const FLAG_CPUOFF: u16 = 0x0010;
/// Oscillator-off bit (LPM4).
pub const FLAG_OSCOFF: u16 = 0x0020;
/// System clock generator 0 off.
pub const FLAG_SCG0: u16 = 0x0040;
/// System clock generator 1 off.
pub const FLAG_SCG1: u16 = 0x0080;
/// Overflow flag bit in `SR`.
pub const FLAG_V: u16 = 0x0100;

const PC: usize = 0;
const SP: usize = 1;
const SR: usize = 2;

/// Instructions [`Mcu::run`] logs per segment before it starts a fresh
/// log, so a long observable-free loop runs in bounded memory.
const RUN_LOG_INSNS: u64 = 4096;

/// What a board can see between instructions: P1 and P2 output pins, the
/// SPI draw epoch, and the operating mode.
type Observables = (u8, u8, u32, OperatingMode);

/// A segment's budget: no instruction starts once the clock reaches
/// `cycles` or the log holds `insns` instructions.
#[derive(Debug, Clone, Copy)]
struct Budget {
    cycles: u64,
    insns: u64,
}

impl Budget {
    #[inline]
    fn spent(self, now: u64, log: &CycleLog) -> bool {
        now >= self.cycles || log.insns() >= self.insns
    }
}

/// How many calls into an `spi_xfer`-shaped helper the decoded stream ran
/// as one fused step, and how many it ran instruction by instruction
/// because a precondition failed. Only test builds count: elsewhere the
/// tally is empty and counting compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct XferTally {
    #[cfg(test)]
    fused: u64,
    #[cfg(test)]
    generic: u64,
}

impl XferTally {
    /// Counts one helper call on the path it took.
    #[inline]
    fn count(&mut self, _fused: bool) {
        #[cfg(test)]
        if _fused {
            self.fused += 1;
        } else {
            self.generic += 1;
        }
    }
}

/// What one [`Mcu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Executed an instruction (or serviced an interrupt) costing the given
    /// MCLK cycles.
    Ran {
        /// Cycles consumed.
        cycles: u32,
    },
    /// The core is in a low-power mode with no pending enabled interrupt.
    Sleeping(OperatingMode),
    /// The core fetched an opcode it cannot decode (treated as a fault; PC
    /// stops advancing).
    IllegalInstruction {
        /// The undecodable word.
        word: u16,
        /// Address it was fetched from.
        at: u16,
    },
}

/// Why a [`Mcu::run_segment`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStop {
    /// The cycle or instruction budget ran out.
    Budget,
    /// A board-observable output changed — GPIO output pins, the SPI draw
    /// epoch, or the operating mode — so the caller must re-sample the
    /// world before executing further.
    Observable,
    /// The core is parked in a low-power mode with no serviceable
    /// interrupt (the [`StepResult::Sleeping`] condition).
    Sleeping(OperatingMode),
    /// The core latched an illegal-instruction fault. Cycle costs of
    /// instructions that ran before the fault are still logged.
    Fault {
        /// The undecodable word.
        word: u16,
        /// Address it was fetched from.
        at: u16,
    },
}

/// The emulated microcontroller: core, memory, peripherals and clock.
pub struct Mcu {
    regs: [u16; 16],
    mem: FlatMemory,
    periph: Peripherals,
    power: McuPowerModel,
    cycles: u64,
    /// Latched interrupt requests, one bit per [`Irq`] priority rank
    /// (bit 0 = highest). Dispatch takes the lowest set bit.
    pending: u8,
    halted_on_fault: bool,
    /// Pre-decoded micro-op stream for the loaded image, shared across
    /// cores running identical firmware.
    uops: Option<std::sync::Arc<crate::uops::UopCache>>,
    /// The flash span `uops` was decoded from, kept here so the
    /// self-modifying-code guard works while the cache is moved out for a
    /// decoded stream.
    uop_span: CodeSpan,
    /// Whether the decoded path may be used. Cleared on any write into
    /// the cached flash span (self-modifying code falls back to the
    /// interpreter for the rest of the run).
    uops_on: bool,
    /// Latched by the self-modifying-code guard: some write landed in the
    /// cached flash span, so the cache no longer matches memory.
    flash_dirty: bool,
    /// The slave [`Mcu::run`] exchanges bytes with; every other entry
    /// point takes its bus as an argument.
    spi: Option<Box<dyn SpiDevice + Send>>,
    /// Helper calls by path, for the tests.
    xfers: XferTally,
}

impl core::fmt::Debug for Mcu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Mcu")
            .field("pc", &format_args!("{:#06x}", self.regs[PC]))
            .field("sr", &format_args!("{:#06x}", self.regs[SR]))
            .field("cycles", &self.cycles)
            .finish_non_exhaustive()
    }
}

impl Mcu {
    /// A fresh core with zeroed memory and the default F1222 power model.
    pub fn new() -> Self {
        Self::with_power_model(McuPowerModel::msp430f1222())
    }

    /// A fresh core with a custom power model.
    pub fn with_power_model(power: McuPowerModel) -> Self {
        Self {
            regs: [0; 16],
            mem: FlatMemory::new(),
            periph: Peripherals::new(),
            power,
            cycles: 0,
            pending: 0,
            halted_on_fault: false,
            uops: None,
            uop_span: CodeSpan::default(),
            uops_on: false,
            flash_dirty: false,
            spi: None,
            xfers: XferTally::default(),
        }
    }

    /// Loads a program image into memory and takes its translation
    /// cache, which the image decodes on its first load and shares with
    /// its clones. Loading a second image replaces the cache, so only the
    /// most recent image executes through the decoded path.
    pub fn load(&mut self, image: &Image) {
        self.mem.load(image);
        // Every decoded instruction lies wholly inside the image's segments,
        // which this load just (re)wrote, so any earlier dirtying is moot.
        let cache = image.decoded();
        self.uop_span = cache.span();
        self.uops = Some(cache);
        self.uops_on = true;
        self.flash_dirty = false;
    }

    /// Enables or disables the pre-decoded translation cache (testing /
    /// benchmarking hook; both paths are bit-identical). Re-enabling
    /// after a write into cached flash is unsupported — the cache would
    /// be stale — so `true` only takes effect while the image is intact.
    pub fn set_translation(&mut self, on: bool) {
        if on {
            self.uops_on = self.uops.is_some() && !self.flash_dirty;
        } else {
            self.uops_on = false;
        }
    }

    /// Applies the reset vector: PC from `0xFFFE`, SR cleared, cycle
    /// counter zeroed (power-on reset).
    pub fn reset(&mut self) {
        self.warm_reset();
        self.cycles = 0;
    }

    /// Reset without clearing the cycle counter: what a supply supervisor's
    /// reset release looks like mid-simulation (brown-out recovery).
    pub fn warm_reset(&mut self) {
        self.regs = [0; 16];
        self.regs[PC] = self.mem.read16(crate::memory::vectors::RESET);
        self.pending = 0;
        self.halted_on_fault = false;
    }

    /// Drops all latched interrupt requests (the node uses this while the
    /// supervisor holds the part in reset during a brown-out).
    pub fn clear_pending_irqs(&mut self) {
        self.pending = 0;
    }

    /// Attaches the SPI slave [`Mcu::run`] drives.
    pub fn attach_spi(&mut self, device: Box<dyn SpiDevice + Send>) {
        self.spi = Some(device);
    }

    /// Reads a register (0 = PC, 1 = SP, 2 = SR).
    pub fn register(&self, n: usize) -> u16 {
        self.regs[n]
    }

    /// Writes a register (testing / scenario setup).
    pub fn set_register(&mut self, n: usize, value: u16) {
        self.regs[n] = value;
    }

    /// Total MCLK cycles elapsed (including slept cycles).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Reads a memory byte (board-side view; routes through peripherals).
    pub fn read_mem8(&self, addr: u16) -> u8 {
        if Peripherals::owns(addr) {
            self.periph.read(addr)
        } else {
            self.mem.read8(addr)
        }
    }

    /// Reads a memory word.
    pub fn read_mem16(&self, addr: u16) -> u16 {
        u16::from(self.read_mem8(addr & !1)) | (u16::from(self.read_mem8((addr & !1) + 1)) << 8)
    }

    /// Self-modifying-code guard: a write into the cached flash span makes
    /// the pre-decoded stream stale, so the core permanently drops back to
    /// the interpreter (which reads memory as written).
    #[inline]
    fn invalidate_uops(&mut self, addr: u16) {
        if self.uops_on && self.uop_span.covers(addr) {
            self.uops_on = false;
            self.flash_dirty = true;
        }
    }

    /// The present operating mode per the SR low-power bits.
    pub fn mode(&self) -> OperatingMode {
        let sr = self.regs[SR];
        if sr & FLAG_CPUOFF == 0 {
            OperatingMode::Active
        } else if sr & FLAG_OSCOFF != 0 {
            OperatingMode::Lpm4
        } else if sr & FLAG_SCG1 != 0 {
            OperatingMode::Lpm3
        } else {
            OperatingMode::Lpm0
        }
    }

    /// Supply current in the present mode.
    pub fn current_draw(&self) -> picocube_units::Amps {
        self.power.current(self.mode())
    }

    /// The power model in force.
    pub fn power_model(&self) -> &McuPowerModel {
        &self.power
    }

    /// The SPI draw epoch: advances once per completed transfer whose
    /// slave reported a board-visible change
    /// ([`SpiDevice::transfer_observed`]), so a board that saw the same
    /// epoch twice knows no SPI traffic in between changed its draws.
    pub fn spi_draw_epoch(&self) -> u32 {
        self.periph.spi_draw_epoch()
    }

    /// Board-side GPIO: port 1 output pins.
    pub fn p1_output(&self) -> u8 {
        self.periph.p1_output()
    }

    /// Board-side GPIO: port 2 output pins.
    pub fn p2_output(&self) -> u8 {
        self.periph.p2_output()
    }

    /// Drives a port-1 input pin; may latch a pin-change interrupt.
    pub fn drive_p1(&mut self, bit: u8, high: bool) {
        if let Some(irq) = self.periph.set_p1_input(bit, high) {
            self.raise(irq);
        }
    }

    /// Drives a port-2 input pin; may latch a pin-change interrupt.
    pub fn drive_p2(&mut self, bit: u8, high: bool) {
        if let Some(irq) = self.periph.set_p2_input(bit, high) {
            self.raise(irq);
        }
    }

    /// Latches an interrupt request. Latching an already-pending request
    /// is idempotent (the bit is simply set again).
    pub fn raise(&mut self, irq: Irq) {
        self.pending |= irq.mask();
    }

    /// Whether any interrupt is latched.
    pub fn has_pending_irq(&self) -> bool {
        self.pending != 0
    }

    /// A lower bound on the cycles the core stays asleep with no external
    /// pin edge: 0 while it is active, an interrupt is latched or the SPI
    /// engine is mid-transfer (a completing transfer may raise its
    /// interrupt), the cycles to the next Timer A interrupt otherwise, and
    /// `None` when only a pin edge can wake it.
    pub fn cycles_until_wake(&self) -> Option<u64> {
        let mode = self.mode();
        if mode == OperatingMode::Active || self.pending != 0 || self.periph.spi_busy() {
            return Some(0);
        }
        self.periph
            .cycles_until_timer_fire(mode != OperatingMode::Lpm4)
    }

    /// Executes one instruction, services one interrupt, or reports sleep.
    /// An SPI transfer that completes meanwhile is exchanged with `bus`.
    pub fn step(&mut self, bus: &mut dyn SpiDevice) -> StepResult {
        if self.halted_on_fault {
            return StepResult::IllegalInstruction {
                word: 0,
                at: self.regs[PC],
            };
        }
        // Interrupt dispatch: GIE must be set (an interrupt also wakes any
        // LPM, clearing the low-power bits for the ISR's duration). The
        // lowest set bit of the pending mask is the highest-priority
        // request — same order the sorted-vector queue used to dispatch.
        if self.pending != 0 && self.regs[SR] & FLAG_GIE != 0 {
            for irq in Irq::PRIORITY {
                if self.pending & irq.mask() != 0 {
                    self.pending &= !irq.mask();
                    let cycles = self.enter_interrupt(irq);
                    self.tick_peripherals(cycles, bus);
                    return StepResult::Ran { cycles };
                }
            }
        }
        if self.regs[SR] & FLAG_CPUOFF != 0 {
            return StepResult::Sleeping(self.mode());
        }
        // Decoded fast path: firmware is immutable after load, so the
        // pre-decoded micro-op (when one exists for this PC) replays the
        // interpreter bit-identically without refetching or redecoding.
        if self.uops_on {
            let pc = self.regs[PC];
            if let Some(u) = self.uops.as_ref().and_then(|c| c.lookup(pc)) {
                let cycles = self.exec_uop(u);
                self.tick_peripherals(cycles, bus);
                return StepResult::Ran { cycles };
            }
        }
        let at = self.regs[PC];
        let word = self.fetch16();
        let cycles = match self.execute(word) {
            Some(c) => c,
            None => {
                self.halted_on_fault = true;
                self.regs[PC] = at;
                return StepResult::IllegalInstruction { word, at };
            }
        };
        self.tick_peripherals(cycles, bus);
        StepResult::Ran { cycles }
    }

    /// Runs until the core sleeps, faults, or `max_cycles` elapse, with
    /// the slave from [`Mcu::attach_spi`] on the bus (a floating bus when
    /// none is attached). Returns the cycles consumed.
    ///
    /// This is [`Mcu::run_segment`] called until it stops for any reason
    /// other than an observable change.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycles;
        let limit = start.saturating_add(max_cycles);
        let mut bus = self.spi.take().unwrap_or_else(|| Box::new(FloatingBus));
        let mut log = CycleLog::new();
        loop {
            log.clear();
            match self.run_segment(limit, RUN_LOG_INSNS, &mut log, &mut *bus) {
                SegmentStop::Observable => {}
                // The log filled up before the cycle budget ran out.
                SegmentStop::Budget if self.cycles < limit => {}
                _ => break,
            }
        }
        self.spi = Some(bus);
        self.cycles - start
    }

    /// Externally observable state: GPIO output pins, the SPI draw epoch,
    /// and the operating mode — everything a board can react to between
    /// instructions.
    #[inline]
    fn observables(&self) -> Observables {
        (
            self.periph.p1_output(),
            self.periph.p2_output(),
            self.periph.spi_draw_epoch(),
            self.mode(),
        )
    }

    /// Runs a *segment*: a maximal run of instructions across which nothing
    /// board-observable changes, recording each instruction's cycle cost in
    /// `log`.
    ///
    /// Semantically this is exactly a sequence of [`Mcu::step`] calls — same
    /// interrupt dispatch, same decoded-path/interpreter split, same fault
    /// latching — stopping *after* the first step that changes an observable
    /// (GPIO output pins, the SPI draw epoch, operating mode — the
    /// [`SegmentStop::Observable`] set), *before* a step that would exceed the
    /// budget, or when the core reports sleep or faults. The caller can
    /// therefore integrate power over the whole segment from `log` and
    /// re-inspect pins/mode once at the boundary instead of after every
    /// instruction.
    ///
    /// An SPI transfer starting or finishing is not itself observable: the
    /// draw epoch ([`Mcu::spi_draw_epoch`]) moves only when the slave
    /// reports that a completed transfer changed board-visible state. So
    /// a busy-wait whose transfer changes nothing runs on through its
    /// completion inside one segment, and its event-free iterations are
    /// logged as one repeated `(poll, jump)` record.
    ///
    /// `limit_cycles` is an *absolute* cycle count: no instruction starts
    /// once `self.cycles() >= limit_cycles` (matching a caller loop of the
    /// form `while cycles < limit { step() }`). `max_insns` bounds how many
    /// instructions `log` holds ([`CycleLog::insns`]). SPI transfers that
    /// complete inside the segment are exchanged with `bus`.
    pub fn run_segment(
        &mut self,
        limit_cycles: u64,
        max_insns: u64,
        log: &mut CycleLog,
        bus: &mut dyn SpiDevice,
    ) -> SegmentStop {
        let budget = Budget {
            cycles: limit_cycles,
            insns: max_insns,
        };
        let base = self.observables();
        loop {
            if budget.spent(self.cycles, log) {
                return SegmentStop::Budget;
            }
            if self.halted_on_fault {
                return SegmentStop::Fault {
                    word: 0,
                    at: self.regs[PC],
                };
            }
            let sr = self.regs[SR];
            if self.pending != 0 && sr & FLAG_GIE != 0 {
                for irq in Irq::PRIORITY {
                    if self.pending & irq.mask() != 0 {
                        self.pending &= !irq.mask();
                        let cycles = self.enter_interrupt(irq);
                        self.retire(cycles, log, bus);
                        break;
                    }
                }
                if self.observables() != base {
                    return SegmentStop::Observable;
                }
                continue;
            }
            if sr & FLAG_CPUOFF != 0 {
                return SegmentStop::Sleeping(self.mode());
            }
            // Decoded fast path: stream micro-ops without leaving the loop,
            // straight through basic-block boundaries, re-reading SR at each
            // one (only SR-writing instructions end blocks, so between
            // boundaries the hoisted GIE/CPUOFF state cannot go stale). The
            // cache is moved out for the stream and back after it: a move
            // costs no reference-count traffic, unlike a clone.
            if self.uops_on {
                if let Some(cache) = self.uops.take() {
                    let mut gie = sr & FLAG_GIE != 0;
                    let streamed = 'stream: {
                        let mut advanced = false;
                        while self.uops_on && !budget.spent(self.cycles, log) {
                            let Some(u) = cache.lookup(self.regs[PC]) else {
                                break;
                            };
                            match u.fused {
                                Fused::No => {}
                                Fused::SpiSpin => {
                                    if self.periph.spi_busy() {
                                        break 'stream match self.exec_spi_spin(
                                            u.cycles, u.next_pc, budget, log, gie, bus,
                                        ) {
                                            Some(stop) => ControlFlow::Break(stop),
                                            // Re-check through the outer loop.
                                            None => ControlFlow::Continue(true),
                                        };
                                    }
                                }
                                Fused::SpiXfer(index) => {
                                    let xfer = cache.xfer(index);
                                    if let Some(xfer) = xfer.filter(|_| !gie && self.xfer_fuses()) {
                                        self.xfers.count(true);
                                        if let ControlFlow::Break(stop) =
                                            self.exec_spi_xfer(&u, xfer, budget, log, bus)
                                        {
                                            break 'stream ControlFlow::Break(stop);
                                        }
                                        advanced = true;
                                        continue;
                                    }
                                    self.xfers.count(false);
                                }
                            }
                            let cycles = self.exec_uop(u);
                            self.retire(cycles, log, bus);
                            advanced = true;
                            // Only a tick moves the draw epoch, and only a
                            // flagged micro-op a pin or the mode.
                            if self.periph.spi_draw_epoch() != base.2
                                || (u.observe && self.observables() != base)
                            {
                                break 'stream ControlFlow::Break(SegmentStop::Observable);
                            }
                            if gie && self.pending != 0 {
                                break; // dispatch through the outer loop
                            }
                            if u.ends_block {
                                let sr = self.regs[SR];
                                if sr & FLAG_CPUOFF != 0 {
                                    break; // sleeping: outer loop reports it
                                }
                                gie = sr & FLAG_GIE != 0;
                                if gie && self.pending != 0 {
                                    break;
                                }
                            }
                        }
                        ControlFlow::Continue(advanced)
                    };
                    self.uops = Some(cache);
                    match streamed {
                        ControlFlow::Break(stop) => return stop,
                        ControlFlow::Continue(true) => continue,
                        ControlFlow::Continue(false) => {}
                    }
                }
            }
            // Interpreter fallback (translation disabled, or a decode hole /
            // self-modified span): one full fetch-decode-execute step.
            let at = self.regs[PC];
            let word = self.fetch16();
            match self.execute(word) {
                Some(c) => {
                    self.retire(c, log, bus);
                    if self.observables() != base {
                        return SegmentStop::Observable;
                    }
                }
                None => {
                    self.halted_on_fault = true;
                    self.regs[PC] = at;
                    return SegmentStop::Fault { word, at };
                }
            }
        }
    }

    /// Fast-forwards the two-instruction SPI busy-wait idiom
    /// (`bit.b #1, &SPISTAT; jnz`) inside a segment without per-iteration
    /// dispatch. Each half-iteration replays the exact per-instruction
    /// semantics: the poll reads `SPISTAT` (a constant 1 while the engine
    /// is busy), sets the logic flags from `1 & 1`, and ticks its cycle
    /// cost; the `jnz` (always taken — Z is clear) jumps back and ticks 2
    /// cycles, the constant [`UOp::Jump`] cost.
    ///
    /// Called only while the engine is busy, with the PC at the poll, which
    /// costs `poll_cycles` and is followed by its `jnz` at `jump_pc`.
    /// Nothing observable can change
    /// mid-spin except through the SPI completion (no memory writes, no SR
    /// mode bits, GPIO untouched). At the completion the fast path ends:
    /// it ends the segment when the draw epoch moved, and otherwise hands
    /// the rest of the loop (the poll that now reads 0, the `jnz` that
    /// falls through) back to the caller by returning `None` — as it
    /// also does when a freshly latched enabled interrupt needs the outer
    /// dispatch loop. The PC is always left exactly where the unfused loop
    /// would have left it.
    fn exec_spi_spin(
        &mut self,
        poll_cycles: u32,
        jump_pc: u16,
        budget: Budget,
        log: &mut CycleLog,
        gie: bool,
        bus: &mut dyn SpiDevice,
    ) -> Option<SegmentStop> {
        let spin_pc = self.regs[PC];
        let epoch = self.periph.spi_draw_epoch();
        let completed =
            |m: &Self| (m.periph.spi_draw_epoch() != epoch).then_some(SegmentStop::Observable);
        loop {
            // --- bit.b #1, &SPISTAT (engine busy: reads 1) ---
            if budget.spent(self.cycles, log) {
                return Some(SegmentStop::Budget);
            }
            if !self.periph.spi_busy() {
                // Engine already idle (only reachable on re-entry edge
                // cases): run the poll through the generic path instead.
                return None;
            }
            // Bulk fast-forward: `k` whole iterations are event-free when
            // the engine stays busy past them (completion is the only
            // possible change), every stepwise budget check inside them
            // passes, and — under GIE — no enabled timer fire lands inside
            // the span. The flag write is idempotent, the peripheral
            // arithmetic is a plain sum, and PC ends back at the spin
            // head, so one bulk tick plus one `(poll, jump) × k` log record
            // reproduces the stepwise loop exactly; the boundary
            // iterations then run stepwise below.
            const LPM4_BITS: u16 = FLAG_CPUOFF | FLAG_OSCOFF;
            let aclk_alive = self.regs[SR] & LPM4_BITS != LPM4_BITS;
            let per = poll_cycles + 2;
            // The cycle bounds meet in one `u32` span before a single
            // division: `⌊a/p⌋ ∧ ⌊b/p⌋ = ⌊(a ∧ b)/p⌋`, and the engine's busy
            // count, a `u32`, caps the span anyway.
            let mut span = self.periph.spi_busy_remaining() - 1;
            let clamp = |c: u64| u32::try_from(c).unwrap_or(u32::MAX);
            span = span.min(clamp(budget.cycles.saturating_sub(self.cycles)));
            if gie {
                if let Some(fire) = self.periph.cycles_until_timer_fire(aclk_alive) {
                    span = span.min(clamp(fire.saturating_sub(1)));
                }
            }
            let k = (span / per).min(clamp((budget.insns - log.insns()) / 2));
            if k > 0 {
                self.set_flags_logic(1, true, false);
                let total = u64::from(k) * u64::from(per);
                self.cycles += total;
                if let Some(irq) = self.periph.tick_bulk(total, aclk_alive) {
                    self.raise(irq);
                }
                log.push_repeated(poll_cycles, 2, k);
                continue;
            }
            self.regs[PC] = jump_pc;
            self.set_flags_logic(1, true, false);
            self.retire(poll_cycles, log, bus);
            if !self.periph.spi_busy() {
                return completed(self);
            }
            if gie && self.pending != 0 {
                return None;
            }
            // --- jnz back to the poll (Z clear: always taken) ---
            if budget.spent(self.cycles, log) {
                return Some(SegmentStop::Budget);
            }
            self.regs[PC] = spin_pc;
            self.retire(2, log, bus);
            if !self.periph.spi_busy() {
                return completed(self);
            }
            if gie && self.pending != 0 {
                return None;
            }
        }
    }

    /// Whether the call at the PC may run as one fused [`SpiXfer`] step:
    /// the SPI engine is idle, so nothing completes before the helper's
    /// own transfer, and the return address the call pushes lands outside
    /// both the peripheral window (where it could move a pin) and the
    /// decoded span (where it would trip the self-modifying-code guard).
    /// The caller also requires GIE clear, so no interrupt can enter
    /// mid-exchange and SR keeps its mode bits throughout.
    #[inline]
    fn xfer_fuses(&self) -> bool {
        let slot = self.regs[SP].wrapping_sub(2);
        !self.periph.spi_busy() && !Peripherals::owns(slot) && !self.uop_span.covers(slot)
    }

    /// Runs a call into an [`SpiXfer`] helper as one step: `call`, the
    /// `mov.b` that starts the transfer, the busy-wait (fused as in
    /// [`exec_spi_spin`](Self::exec_spi_spin)), the poll that reads 0, the
    /// `jnz` that falls through, the `mov.b` of the reply and `ret`. Each
    /// instruction replays its exact effects, flags, cycle cost,
    /// peripheral tick and log entry, after the budget check the stream
    /// makes before it, with no dispatch, decode lookup or observable
    /// comparison in between: under [`xfer_fuses`](Self::xfer_fuses) and
    /// GIE clear, only the transfer's completion can move an observable.
    ///
    /// Returns `Continue` with the PC at the return address, or `Break`
    /// with the PC exactly where single-stepping stops: before the
    /// instruction a budget refuses, or after the tick whose completion
    /// moved the draw epoch, mid-helper. The next segment then resumes
    /// through the generic path.
    fn exec_spi_xfer(
        &mut self,
        call: &UInsn,
        xfer: SpiXfer,
        budget: Budget,
        log: &mut CycleLog,
        bus: &mut dyn SpiDevice,
    ) -> ControlFlow<SegmentStop> {
        let refuse = |m: &Self, log: &CycleLog| {
            if budget.spent(m.cycles, log) {
                ControlFlow::Break(SegmentStop::Budget)
            } else {
                ControlFlow::Continue(())
            }
        };
        // call #entry
        self.regs[PC] = call.next_pc;
        self.push(call.next_pc);
        self.regs[PC] = xfer.entry;
        self.retire(call.cycles, log, bus);
        // mov.b rTX, &SPITX: starts the transfer, which outlasts this tick
        refuse(self, log)?;
        self.regs[PC] = xfer.poll();
        let byte = self.regs[usize::from(xfer.tx)] as u8;
        self.periph.write(io::SPITX, byte);
        self.retire(SpiXfer::TX_CYCLES, log, bus);
        // The busy-wait, through to the completion.
        if let Some(stop) =
            self.exec_spi_spin(SpiXfer::POLL_CYCLES, xfer.jump(), budget, log, false, bus)
        {
            return ControlFlow::Break(stop);
        }
        // The transfer completed without moving the draw epoch. A poll that
        // still read 1 left its `jnz` to jump back.
        if self.regs[PC] == xfer.jump() {
            refuse(self, log)?;
            self.regs[PC] = xfer.poll();
            self.retire(SpiXfer::JUMP_CYCLES, log, bus);
        }
        // bit.b #1, &SPISTAT reads 0 ...
        refuse(self, log)?;
        self.regs[PC] = xfer.jump();
        self.set_flags_logic(0, true, false);
        self.retire(SpiXfer::POLL_CYCLES, log, bus);
        // ... so the jnz falls through.
        refuse(self, log)?;
        self.regs[PC] = xfer.read();
        self.retire(SpiXfer::JUMP_CYCLES, log, bus);
        // mov.b &SPIRX, rRX
        refuse(self, log)?;
        self.regs[PC] = xfer.ret();
        self.regs[usize::from(xfer.rx)] = u16::from(self.periph.read(io::SPIRX));
        self.retire(SpiXfer::RX_CYCLES, log, bus);
        // ret
        refuse(self, log)?;
        self.regs[PC] = self.pop();
        self.retire(SpiXfer::RET_CYCLES, log, bus);
        ControlFlow::Continue(())
    }

    /// Ticks the peripherals by one instruction's `cycles` and logs it.
    #[inline]
    fn retire(&mut self, cycles: u32, log: &mut CycleLog, bus: &mut dyn SpiDevice) {
        self.tick_peripherals(cycles, bus);
        log.push(cycles);
    }

    /// Fast-forwards through a low-power period: advances the clock by up
    /// to `max_cycles` without executing instructions, ticking the timer
    /// (when its clock domain is alive) and stopping early the moment an
    /// interrupt is latched. Returns the cycles actually slept.
    ///
    /// External events (pin changes) must be injected by the caller between
    /// calls; this only models time passing. An SPI transfer still in
    /// flight completes against `bus`.
    pub fn sleep(&mut self, max_cycles: u64, bus: &mut dyn SpiDevice) -> u64 {
        let aclk_alive = self.mode() != OperatingMode::Lpm4;
        let mut slept = 0u64;
        while slept < max_cycles {
            if self.pending != 0 && self.regs[SR] & FLAG_GIE != 0 {
                break;
            }
            // Bound the quantum by the next timer match so wake timing is
            // cycle-exact rather than overshooting into the batch.
            let mut quantum = max_cycles - slept;
            if let Some(c) = self.periph.cycles_until_timer_fire(aclk_alive) {
                quantum = quantum.min(c.max(1));
            }
            let quantum = quantum.min(u64::from(u32::MAX / 2)) as u32;
            self.cycles += u64::from(quantum);
            slept += u64::from(quantum);
            if let Some(irq) = self.periph.tick(quantum, aclk_alive, bus) {
                self.raise(irq);
                break;
            }
        }
        slept
    }

    #[inline]
    fn tick_peripherals(&mut self, cycles: u32, bus: &mut dyn SpiDevice) {
        self.cycles += u64::from(cycles);
        if !self.periph.needs_tick() {
            return; // SPI idle and timer stopped: nothing can change
        }
        // ACLK dies only in LPM4, i.e. CPUOFF and OSCOFF both set; testing
        // the bits directly skips the full mode decode on this per-
        // instruction path.
        const LPM4_BITS: u16 = FLAG_CPUOFF | FLAG_OSCOFF;
        let aclk_alive = self.regs[SR] & LPM4_BITS != LPM4_BITS;
        if let Some(irq) = self.periph.tick(cycles, aclk_alive, bus) {
            self.raise(irq);
        }
    }

    fn enter_interrupt(&mut self, irq: Irq) -> u32 {
        // MSP430 sequence: push PC, push SR, clear GIE and the LPM bits (the
        // ISR runs active), vector.
        self.push(self.regs[PC]);
        self.push(self.regs[SR]);
        self.regs[SR] &= !(FLAG_GIE | FLAG_CPUOFF | FLAG_OSCOFF | FLAG_SCG0 | FLAG_SCG1);
        self.regs[PC] = self.mem.read16(irq.vector());
        if irq == Irq::Spi {
            self.periph.clear_spi_ifg();
        }
        6
    }

    fn push(&mut self, value: u16) {
        self.regs[SP] = self.regs[SP].wrapping_sub(2);
        self.mem_write16(self.regs[SP], value);
    }

    fn pop(&mut self) -> u16 {
        let v = self.mem_read16(self.regs[SP]);
        self.regs[SP] = self.regs[SP].wrapping_add(2);
        v
    }

    fn fetch16(&mut self) -> u16 {
        let w = self.mem.read16(self.regs[PC]);
        self.regs[PC] = self.regs[PC].wrapping_add(2);
        w
    }

    fn mem_read16(&self, addr: u16) -> u16 {
        if Peripherals::owns(addr) {
            u16::from(self.periph.read(addr)) | (u16::from(self.periph.read(addr + 1)) << 8)
        } else {
            self.mem.read16(addr)
        }
    }

    fn mem_write16(&mut self, addr: u16, value: u16) {
        if Peripherals::owns(addr) {
            self.periph.write(addr, value as u8);
            self.periph.write(addr + 1, (value >> 8) as u8);
        } else {
            self.invalidate_uops(addr);
            self.mem.write16(addr, value);
        }
    }

    fn mem_read(&self, addr: u16, byte: bool) -> u16 {
        if byte {
            u16::from(if Peripherals::owns(addr) {
                self.periph.read(addr)
            } else {
                self.mem.read8(addr)
            })
        } else {
            self.mem_read16(addr)
        }
    }

    fn mem_write(&mut self, addr: u16, value: u16, byte: bool) {
        if byte {
            if Peripherals::owns(addr) {
                self.periph.write(addr, value as u8);
            } else {
                self.invalidate_uops(addr);
                self.mem.write8(addr, value as u8);
            }
        } else {
            self.mem_write16(addr, value);
        }
    }

    /// Resolves a source operand against the live registers, fetching its
    /// extension word. Returns `(value, write_back_addr)`.
    fn resolve_src(&mut self, src: Src, byte: bool) -> (u16, Option<u16>) {
        let addr = match src {
            // Constant generators are not byte-masked; immediates are.
            Src::Const(v) => return (v, None),
            Src::Reg(r) => {
                let v = self.regs[usize::from(r)];
                return (if byte { v & 0xFF } else { v }, None);
            }
            Src::Immediate => {
                let v = self.fetch16();
                return (if byte { v & 0xFF } else { v }, None);
            }
            Src::Absolute => self.fetch16(),
            // Indexed X(Rn) — including symbolic X(PC), where the base is
            // the PC at the extension word.
            Src::Indexed(r) => {
                let base = self.regs[usize::from(r)];
                base.wrapping_add(self.fetch16())
            }
            Src::Indirect(r) => self.regs[usize::from(r)],
            Src::AutoInc(r) => {
                let a = self.regs[usize::from(r)];
                self.regs[usize::from(r)] = a.wrapping_add(if byte { 1 } else { 2 });
                a
            }
        };
        (self.mem_read(addr, byte), Some(addr))
    }

    /// Resolves a destination operand, fetching its extension word:
    /// its current value and where the result goes.
    fn resolve_dst(&mut self, dst: Dst, byte: bool) -> (u16, DstLoc) {
        let addr = match dst {
            Dst::Reg(r) => {
                let v = self.regs[usize::from(r)];
                return (if byte { v & 0xFF } else { v }, DstLoc::Reg(usize::from(r)));
            }
            Dst::Absolute => self.fetch16(),
            // Symbolic X(PC): the base is the PC after the extension word.
            Dst::Indexed(r) => {
                let x = self.fetch16();
                self.regs[usize::from(r)].wrapping_add(x)
            }
        };
        (self.mem_read(addr, byte), DstLoc::Mem(addr))
    }

    fn write_dst(&mut self, loc: DstLoc, value: u16, byte: bool) {
        match loc {
            DstLoc::Reg(r) => self.regs[r] = if byte { value & 0xFF } else { value },
            DstLoc::Mem(a) => self.mem_write(a, value, byte),
        }
    }

    fn set_flags_logic(&mut self, result: u16, byte: bool, v: bool) {
        let msb = if byte { 0x80 } else { 0x8000 };
        let masked = if byte { result & 0xFF } else { result };
        let mut sr = self.regs[SR] & !(FLAG_C | FLAG_Z | FLAG_N | FLAG_V);
        if masked == 0 {
            sr |= FLAG_Z;
        } else {
            sr |= FLAG_C; // MSP430: C = !Z for logic ops
        }
        if masked & msb != 0 {
            sr |= FLAG_N;
        }
        if v {
            sr |= FLAG_V;
        }
        self.regs[SR] = sr;
    }

    fn add_with_flags(&mut self, dst: u16, src: u16, carry_in: u16, byte: bool) -> u16 {
        let mask: u32 = if byte { 0xFF } else { 0xFFFF };
        let msb: u32 = if byte { 0x80 } else { 0x8000 };
        let d = u32::from(dst) & mask;
        let s = u32::from(src) & mask;
        let c = u32::from(carry_in);
        let full = d + s + c;
        let result = full & mask;
        let mut sr = self.regs[SR] & !(FLAG_C | FLAG_Z | FLAG_N | FLAG_V);
        if full > mask {
            sr |= FLAG_C;
        }
        if result == 0 {
            sr |= FLAG_Z;
        }
        if result & msb != 0 {
            sr |= FLAG_N;
        }
        if (d ^ result) & (s ^ result) & msb != 0 {
            sr |= FLAG_V;
        }
        self.regs[SR] = sr;
        result as u16
    }

    fn dadd_with_flags(&mut self, dst: u16, src: u16, byte: bool) -> u16 {
        // BCD addition, digit at a time, including incoming carry.
        let digits = if byte { 2 } else { 4 };
        let mut carry = u16::from(self.regs[SR] & FLAG_C != 0);
        let mut result: u16 = 0;
        for i in 0..digits {
            let shift = 4 * i;
            let a = (dst >> shift) & 0xF;
            let b = (src >> shift) & 0xF;
            let mut sum = a + b + carry;
            carry = if sum > 9 {
                sum -= 10;
                1
            } else {
                0
            };
            result |= sum << shift;
        }
        let msb = if byte { 0x80 } else { 0x8000 };
        let mut sr = self.regs[SR] & !(FLAG_C | FLAG_Z | FLAG_N);
        if carry != 0 {
            sr |= FLAG_C;
        }
        if result == 0 {
            sr |= FLAG_Z;
        }
        if result & msb != 0 {
            sr |= FLAG_N;
        }
        self.regs[SR] = sr;
        result
    }

    /// Executes one fetched instruction word, resolving its operands at run
    /// time; `None` where the word does not decode.
    fn execute(&mut self, word: u16) -> Option<u32> {
        let insn = Insn::decode(word)?;
        match insn {
            Insn::Jump { cond, offset } => {
                if cond.taken(self.regs[SR]) {
                    self.regs[PC] = self.regs[PC].wrapping_add_signed(2 * offset);
                }
            }
            Insn::Reti => {
                self.regs[SR] = self.pop();
                self.regs[PC] = self.pop();
            }
            Insn::Fmt2 { op, byte, reg, src } => {
                let (value, addr) = self.resolve_src(src, byte);
                self.format2_apply(op, value, byte, addr, usize::from(reg));
            }
            Insn::Fmt1 { op, byte, src, dst } => {
                let (src, _) = self.resolve_src(src, byte);
                let (dst, loc) = self.resolve_dst(dst, byte);
                let result = self.format1_result(op, src, dst, byte);
                if op.writes_back() {
                    self.write_dst(loc, result, byte);
                }
            }
        }
        Some(insn.cycles())
    }

    /// The format-I ALU: computes the result and sets flags. Shared by the
    /// interpreter and the decoded path so their semantics cannot drift.
    fn format1_result(&mut self, op: Format1Op, src: u16, dst: u16, byte: bool) -> u16 {
        let carry = u16::from(self.regs[SR] & FLAG_C != 0);
        match op {
            Format1Op::Mov => src,
            Format1Op::Add => self.add_with_flags(dst, src, 0, byte),
            Format1Op::Addc => self.add_with_flags(dst, src, carry, byte),
            Format1Op::Sub => self.add_with_flags(dst, !src, 1, byte),
            Format1Op::Subc => self.add_with_flags(dst, !src, carry, byte),
            Format1Op::Cmp => {
                self.add_with_flags(dst, !src, 1, byte);
                dst
            }
            Format1Op::Dadd => self.dadd_with_flags(dst, src, byte),
            Format1Op::Bit => {
                let r = src & dst;
                self.set_flags_logic(r, byte, false);
                dst
            }
            Format1Op::Bic => dst & !src,
            Format1Op::Bis => dst | src,
            Format1Op::Xor => {
                let msb = if byte { 0x80 } else { 0x8000 };
                let v = (src & msb != 0) && (dst & msb != 0);
                let r = src ^ dst;
                self.set_flags_logic(r, byte, v);
                r
            }
            Format1Op::And => {
                let r = src & dst;
                self.set_flags_logic(r, byte, false);
                r
            }
        }
    }

    /// The format-II operation body: flags, result and writeback. Shared by
    /// the interpreter and the decoded path so their semantics cannot
    /// drift. `addr` is the operand's writeback address when it had one;
    /// otherwise the result lands in `regs[reg]` (including the
    /// constant-generator quirk of writing R2/R3).
    fn format2_apply(
        &mut self,
        op: Format2Op,
        value: u16,
        byte: bool,
        addr: Option<u16>,
        reg: usize,
    ) {
        let msb = if byte { 0x80u16 } else { 0x8000 };
        match op {
            Format2Op::Rrc => {
                let carry_in = self.regs[SR] & FLAG_C != 0;
                let carry_out = value & 1 != 0;
                let mut r = value >> 1;
                if byte {
                    r &= 0x7F;
                }
                if carry_in {
                    r |= msb;
                }
                let mut sr = self.regs[SR] & !(FLAG_C | FLAG_Z | FLAG_N | FLAG_V);
                if carry_out {
                    sr |= FLAG_C;
                }
                if r == 0 {
                    sr |= FLAG_Z;
                }
                if r & msb != 0 {
                    sr |= FLAG_N;
                }
                self.regs[SR] = sr;
                self.write_operand(addr, reg, r, byte);
            }
            Format2Op::Rra => {
                let carry_out = value & 1 != 0;
                let sign = value & msb;
                let mut r = (value >> 1) | sign;
                if byte {
                    r &= 0xFF;
                }
                let mut sr = self.regs[SR] & !(FLAG_C | FLAG_Z | FLAG_N | FLAG_V);
                if carry_out {
                    sr |= FLAG_C;
                }
                if r == 0 {
                    sr |= FLAG_Z;
                }
                if r & msb != 0 {
                    sr |= FLAG_N;
                }
                self.regs[SR] = sr;
                self.write_operand(addr, reg, r, byte);
            }
            Format2Op::Swpb => {
                let r = value.rotate_left(8);
                self.write_operand(addr, reg, r, byte);
            }
            Format2Op::Sxt => {
                let r = if value & 0x80 != 0 {
                    value | 0xFF00
                } else {
                    value & 0x00FF
                };
                self.set_flags_logic(r, false, false);
                self.write_operand(addr, reg, r, byte);
            }
            Format2Op::Push => {
                self.push(value);
            }
            Format2Op::Call => {
                self.push(self.regs[PC]);
                self.regs[PC] = value;
            }
        }
    }

    /// Format-II writeback: to the resolved address when there was one,
    /// else to the raw register field.
    fn write_operand(&mut self, addr: Option<u16>, reg: usize, v: u16, byte: bool) {
        if let Some(a) = addr {
            self.mem_write(a, v, byte);
        } else {
            self.regs[reg] = if byte { v & 0xFF } else { v };
        }
    }

    /// Executes one pre-decoded micro-op. Mirrors the interpreter exactly:
    /// PC-dependent operands were folded at decode time (so the PC can be
    /// bumped up front), memory operands stay dynamic, and the ALU/flag
    /// bodies are the same functions the interpreter calls.
    fn exec_uop(&mut self, u: UInsn) -> u32 {
        match u.op {
            UOp::Fmt1 { op, byte, src, dst } => {
                self.regs[PC] = u.next_pc;
                let (src_val, _) = self.read_src_uop(src, byte);
                let (dst_val, loc) = self.read_dst_uop(dst, byte);
                let result = self.format1_result(op, src_val, dst_val, byte);
                if op.writes_back() {
                    self.write_dst(loc, result, byte);
                }
                u.cycles
            }
            UOp::Fmt2 { op, byte, reg, src } => {
                self.regs[PC] = u.next_pc;
                let (value, addr) = self.read_src_uop(src, byte);
                self.format2_apply(op, value, byte, addr, usize::from(reg));
                u.cycles
            }
            UOp::Jump { cond, target } => {
                self.regs[PC] = if cond.taken(self.regs[SR]) {
                    target
                } else {
                    u.next_pc
                };
                2
            }
            UOp::Reti => {
                self.regs[SR] = self.pop();
                self.regs[PC] = self.pop();
                5
            }
        }
    }

    /// Reads a pre-decoded source operand: its value and, for the forms
    /// that address memory, the format-II writeback address.
    #[inline]
    fn read_src_uop(&mut self, src: SrcOp, byte: bool) -> (u16, Option<u16>) {
        match src {
            SrcOp::Const(v) => (v, None),
            SrcOp::Reg(r) => {
                let v = self.regs[usize::from(r)];
                (if byte { v & 0xFF } else { v }, None)
            }
            SrcOp::Abs(a) => (self.mem_read(a, byte), Some(a)),
            SrcOp::Indexed(r, x) => {
                let a = self.regs[usize::from(r)].wrapping_add(x);
                (self.mem_read(a, byte), Some(a))
            }
            SrcOp::Indirect(r) => {
                let a = self.regs[usize::from(r)];
                (self.mem_read(a, byte), Some(a))
            }
            SrcOp::AutoInc(r, bump) => {
                let a = self.regs[usize::from(r)];
                self.regs[usize::from(r)] = a.wrapping_add(u16::from(bump));
                (self.mem_read(a, byte), Some(a))
            }
        }
    }

    /// Reads a pre-decoded destination operand: current value + location.
    #[inline]
    fn read_dst_uop(&mut self, dst: DstOp, byte: bool) -> (u16, DstLoc) {
        match dst {
            DstOp::Reg(r) => {
                let v = self.regs[usize::from(r)];
                (if byte { v & 0xFF } else { v }, DstLoc::Reg(usize::from(r)))
            }
            // Destination PC register-direct: the read value was folded at
            // decode time (byte-masked there when applicable).
            DstOp::PcReg(v) => (v, DstLoc::Reg(0)),
            DstOp::Mem(a) => (self.mem_read(a, byte), DstLoc::Mem(a)),
            DstOp::Indexed(r, x) => {
                let a = self.regs[usize::from(r)].wrapping_add(x);
                (self.mem_read(a, byte), DstLoc::Mem(a))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum DstLoc {
    Reg(usize),
    Mem(u16),
}

impl Default for Mcu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::memory::io;

    fn boot(src: &str) -> Mcu {
        let image = assemble(src).expect("test program must assemble");
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        mcu
    }

    fn run_steps(mcu: &mut Mcu, n: usize) {
        for _ in 0..n {
            if !matches!(mcu.step(&mut FloatingBus), StepResult::Ran { .. }) {
                break;
            }
        }
    }

    #[test]
    fn mov_immediate_and_register() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x1234, r4
        mov r4, r5
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(4), 0x1234);
        assert_eq!(mcu.register(5), 0x1234);
    }

    #[test]
    fn add_sets_carry_and_overflow() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0xFFFF, r4
        add #1, r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 2);
        assert_eq!(mcu.register(4), 0);
        assert_ne!(mcu.register(2) & FLAG_C, 0);
        assert_ne!(mcu.register(2) & FLAG_Z, 0);
        assert_eq!(mcu.register(2) & FLAG_V, 0);
    }

    #[test]
    fn signed_overflow_detected() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x7FFF, r4
        add #1, r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 2);
        assert_eq!(mcu.register(4), 0x8000);
        assert_ne!(mcu.register(2) & FLAG_V, 0);
        assert_ne!(mcu.register(2) & FLAG_N, 0);
    }

    #[test]
    fn sub_and_cmp_borrow_semantics() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #5, r4
        sub #3, r4
        cmp #2, r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(4), 2);
        // CMP equal: Z set, C set (no borrow).
        assert_ne!(mcu.register(2) & FLAG_Z, 0);
        assert_ne!(mcu.register(2) & FLAG_C, 0);
    }

    #[test]
    fn byte_ops_clear_high_byte_in_registers() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0xABCD, r4
        mov.b #0x12, r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 2);
        assert_eq!(mcu.register(4), 0x0012);
    }

    #[test]
    fn memory_indexed_and_absolute() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0200, r4
        mov #0xBEEF, 2(r4)
        mov &0x0202, r5
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(5), 0xBEEF);
        assert_eq!(mcu.read_mem16(0x0202), 0xBEEF);
    }

    #[test]
    fn autoincrement_walks_a_table() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #table, r4
        mov @r4+, r5
        mov @r4+, r6
halt:   jmp halt
table:  .word 0x1111
        .word 0x2222
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(5), 0x1111);
        assert_eq!(mcu.register(6), 0x2222);
    }

    #[test]
    fn loop_with_jnz() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #10, r4
        mov #0, r5
loop:   add #3, r5
        dec r4
        jnz loop
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 100);
        assert_eq!(mcu.register(5), 30);
        assert_eq!(mcu.register(4), 0);
    }

    #[test]
    fn call_and_ret() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        call #sub
        mov #1, r6
halt:   jmp halt
sub:    mov #42, r5
        ret
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 6);
        assert_eq!(mcu.register(5), 42);
        assert_eq!(mcu.register(6), 1);
    }

    #[test]
    fn push_pop_stack_discipline() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov #0x1111, r4
        push r4
        mov #0x2222, r4
        pop r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 5);
        assert_eq!(mcu.register(4), 0x1111);
        assert_eq!(mcu.register(1), 0x0A00);
    }

    #[test]
    fn rra_rrc_swpb_sxt() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x8004, r4
        rra r4
        mov #0x0001, r5
        rrc r5
        mov #0x1234, r6
        swpb r6
        mov #0x0080, r7
        sxt r7
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 8);
        assert_eq!(mcu.register(4), 0xC002); // arithmetic shift keeps sign
                                             // RRC shifted the old C (0) in; C now holds the shifted-out 1.
        assert_eq!(mcu.register(5), 0x0000);
        assert_ne!(mcu.register(2) & FLAG_C, 0);
        assert_eq!(mcu.register(6), 0x3412);
        assert_eq!(mcu.register(7), 0xFF80);
    }

    #[test]
    fn dadd_bcd_arithmetic() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  clrc
        mov #0x0199, r4
        dadd #0x0001, r4
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(4), 0x0200); // BCD 199 + 1 = 200
    }

    #[test]
    fn constant_generators_cost_nothing_extra() {
        // #4 and #8 come from R2, #0/#1/#2/#-1 from R3 — no extension word.
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #4, r4
        mov #8, r5
        mov #-1, r6
halt:   jmp halt
        .vector reset, start
        "#,
        );
        let pc0 = mcu.register(0);
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.register(4), 4);
        assert_eq!(mcu.register(5), 8);
        assert_eq!(mcu.register(6), 0xFFFF);
        // Three single-word instructions: PC advanced 6 bytes.
        assert_eq!(mcu.register(0), pc0.wrapping_add(6));
    }

    #[test]
    fn interrupt_enters_and_returns() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov #0, r5
        eint
loop:   jmp loop
isr:    mov #99, r5
        reti
        .vector reset, start
        .vector port1, isr
        "#,
        );
        run_steps(&mut mcu, 5);
        mcu.raise(Irq::Port1);
        run_steps(&mut mcu, 4); // enter ISR, mov, reti
        assert_eq!(mcu.register(5), 99);
        // Back in the loop with GIE restored.
        assert_ne!(mcu.register(2) & FLAG_GIE, 0);
    }

    #[test]
    fn multi_pending_interrupts_dispatch_in_priority_order() {
        // Latch all four requests out of order (plus a duplicate): dispatch
        // must drain them highest-priority first — TimerA, SPI, Port1,
        // Port2 — one per step, exactly as the sorted queue used to.
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        eint
loop:   jmp loop
tisr:   add #1, r4
        reti
sisr:   add #1, r5
        reti
p1isr:  add #1, r6
        reti
p2isr:  add #1, r7
        reti
        .vector reset, start
        .vector timera, tisr
        .vector spi, sisr
        .vector port1, p1isr
        .vector port2, p2isr
        "#,
        );
        run_steps(&mut mcu, 3);
        mcu.raise(Irq::Port2);
        mcu.raise(Irq::TimerA);
        mcu.raise(Irq::Port1);
        mcu.raise(Irq::Spi);
        mcu.raise(Irq::Port1); // duplicate: must latch once
        let order = |mcu: &Mcu| {
            (
                mcu.register(4),
                mcu.register(5),
                mcu.register(6),
                mcu.register(7),
            )
        };
        // Each ISR is enter + add + reti = 3 steps.
        run_steps(&mut mcu, 3);
        assert_eq!(order(&mcu), (1, 0, 0, 0), "TimerA first");
        run_steps(&mut mcu, 3);
        assert_eq!(order(&mcu), (1, 1, 0, 0), "then SPI");
        run_steps(&mut mcu, 3);
        assert_eq!(order(&mcu), (1, 1, 1, 0), "then Port1");
        run_steps(&mut mcu, 3);
        assert_eq!(order(&mcu), (1, 1, 1, 1), "then Port2");
        assert!(!mcu.has_pending_irq(), "duplicate raise latched only once");
    }

    #[test]
    fn interrupt_requires_gie() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov #0, r5
loop:   jmp loop
isr:    mov #99, r5
        reti
        .vector reset, start
        .vector port1, isr
        "#,
        );
        run_steps(&mut mcu, 3);
        mcu.raise(Irq::Port1);
        run_steps(&mut mcu, 5);
        assert_eq!(mcu.register(5), 0, "ISR must not run with GIE clear");
    }

    #[test]
    fn lpm3_sleep_and_wake() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov #0, r5
        bis #0x00D8, r2      ; LPM3 + GIE: CPUOFF|SCG1|SCG0|GIE
        mov #1, r6           ; runs only after wake + ISR clears LPM
done:   jmp done
isr:    mov #7, r5
        bic #0x00F0, 0(r1)   ; clear LPM bits in the saved SR
        reti
        .vector reset, start
        .vector port1, isr
        "#,
        );
        run_steps(&mut mcu, 3);
        assert_eq!(mcu.mode(), OperatingMode::Lpm3);
        assert!(matches!(
            mcu.step(&mut FloatingBus),
            StepResult::Sleeping(OperatingMode::Lpm3)
        ));
        // Time passes; nothing happens, and only a pin edge can wake it.
        assert_eq!(mcu.cycles_until_wake(), None);
        assert_eq!(mcu.sleep(1_000_000, &mut FloatingBus), 1_000_000);
        // External wake (the SP12's 6-second interrupt line).
        mcu.drive_p1(0, true);
        // The pin change has no IE bit set in this minimal program, so
        // raise directly as the board would through a latched line.
        mcu.raise(Irq::Port1);
        assert_eq!(mcu.cycles_until_wake(), Some(0));
        run_steps(&mut mcu, 10);
        assert_eq!(mcu.register(5), 7);
        assert_eq!(mcu.mode(), OperatingMode::Active);
        assert_eq!(mcu.register(6), 1);
    }

    #[test]
    fn sleep_mode_current_draws_differ() {
        let mcu = Mcu::new();
        let active = mcu.power_model().current(OperatingMode::Active);
        let lpm3 = mcu.power_model().current(OperatingMode::Lpm3);
        let lpm4 = mcu.power_model().current(OperatingMode::Lpm4);
        assert!(active.value() / lpm3.value() > 100.0);
        assert!(lpm3 > lpm4);
    }

    #[test]
    fn illegal_instruction_faults_and_sticks() {
        let mut mcu = Mcu::new();
        // Memory is zero: opcode 0x0000 is undecodable.
        mcu.set_register(0, 0x0200);
        let r = mcu.step(&mut FloatingBus);
        assert!(matches!(r, StepResult::IllegalInstruction { word: 0, .. }));
        assert!(matches!(
            mcu.step(&mut FloatingBus),
            StepResult::IllegalInstruction { .. }
        ));
    }

    #[test]
    fn gpio_visible_to_board() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov.b #0xFF, &0x0022  ; P1DIR all out
        mov.b #0x05, &0x0021  ; P1OUT
halt:   jmp halt
        .vector reset, start
        "#,
        );
        run_steps(&mut mcu, 2);
        assert_eq!(mcu.p1_output(), 0x05);
    }

    #[test]
    fn spi_roundtrip_through_firmware() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov.b #0x41, &0x0040  ; SPITX
wait:   bit.b #1, &0x0042     ; SPISTAT busy?
        jnz wait
        mov.b &0x0041, r5     ; SPIRX
halt:   jmp halt
        .vector reset, start
        "#,
        );
        mcu.attach_spi(Box::new(|mosi: u8| mosi ^ 0xFF));
        // The `halt` spin outlasts `run`'s 4096-instruction log refill;
        // `run` must still stop only at the cycle budget.
        let ran = mcu.run(20_000);
        assert!((20_000..20_002).contains(&ran), "ran {ran} cycles");
        assert_eq!(mcu.register(5) & 0xFF, 0xBE);
    }

    #[test]
    fn spi_transfer_completes_while_asleep() {
        // No stock firmware sleeps with a transfer in flight, but the
        // byte must still reach the bus handed to `sleep`, and the draw
        // epoch may move only if that slave reports a change.
        struct Slave {
            seen: Vec<u8>,
            reports_change: bool,
        }
        impl SpiDevice for Slave {
            fn transfer(&mut self, mosi: u8) -> u8 {
                self.seen.push(mosi);
                !mosi
            }
            fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
                (self.transfer(mosi), self.reports_change)
            }
        }
        for reports_change in [false, true] {
            let mut mcu = boot(
                r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov.b #0x41, &0x0040  ; SPITX: 8 cycles on the wire
        bis #0x00D0, r2       ; LPM3 with GIE off, 7 cycles later
halt:   jmp halt
        .vector reset, start
        "#,
            );
            let mut slave = Slave {
                seen: Vec::new(),
                reports_change,
            };
            for _ in 0..3 {
                assert!(matches!(mcu.step(&mut slave), StepResult::Ran { .. }));
            }
            assert_eq!(mcu.mode(), OperatingMode::Lpm3);
            assert_eq!(mcu.read_mem8(io::SPISTAT), 1, "transfer still in flight");
            assert!(slave.seen.is_empty());
            assert_eq!(mcu.sleep(100, &mut slave), 100);
            assert_eq!(slave.seen, [0x41], "the slave saw the byte");
            assert_eq!(mcu.read_mem8(io::SPIRX), 0xBE, "SPIRX holds the reply");
            assert_eq!(mcu.spi_draw_epoch(), u32::from(reports_change));
        }
    }

    #[test]
    fn cycle_counts_are_plausible() {
        // reg→reg MOV costs 1 cycle; immediate→reg costs 2.
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov r4, r5
        mov #0x1234, r6
halt:   jmp halt
        .vector reset, start
        "#,
        );
        let StepResult::Ran { cycles: c1 } = mcu.step(&mut FloatingBus) else {
            panic!("step 1")
        };
        let StepResult::Ran { cycles: c2 } = mcu.step(&mut FloatingBus) else {
            panic!("step 2")
        };
        assert_eq!(c1, 1);
        assert_eq!(c2, 2);
    }

    /// An SP12-like slave: a conversion start and the low-byte read move
    /// its draw, status polls read ready on the sixth poll.
    #[derive(Default)]
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
                0xF2 => {
                    let changed = self.converting;
                    self.converting = false;
                    (0x5C, changed)
                }
                _ => (0x0A, false),
            }
        }
    }

    /// Runs segments until the core sleeps.
    fn run_to_sleep(mcu: &mut Mcu, bus: &mut dyn SpiDevice) {
        let mut log = CycleLog::new();
        loop {
            log.clear();
            match mcu.run_segment(u64::MAX, u64::MAX, &mut log, bus) {
                SegmentStop::Sleeping(_) => return,
                SegmentStop::Observable => {}
                other => panic!("stopped on {other:?}"),
            }
        }
    }

    #[test]
    fn every_tpms_exchange_runs_fused() {
        let image = crate::firmware::tpms_app(0x42).expect("firmware builds");
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        let mut bus = Sp12Like::default();
        run_to_sleep(&mut mcu, &mut bus);
        mcu.xfers = XferTally::default();
        mcu.drive_p1(0, true); // the SP12's wake line
        run_to_sleep(&mut mcu, &mut bus);
        // Four conversions (a start, six status polls, two reads each) and
        // a 13-byte frame: 49 exchanges, every one a single fused step.
        assert_eq!(
            mcu.xfers,
            XferTally {
                fused: 49,
                generic: 0
            }
        );
    }

    #[test]
    fn helper_calls_fall_back_when_a_precondition_fails() {
        let cases = [
            ("preconditions hold", "", 1),
            ("GIE set", "eint", 0),
            ("SPI busy", "mov.b #0x11, &0x0040", 0),
            (
                "return address in the peripheral window",
                "mov #0x0023, sp",
                0,
            ),
            ("return address in the decoded span", "mov #0xF0F0, sp", 0),
            // The vector table is data, outside the decoded span.
            ("return address in the vector table", "mov #0xFFE2, sp", 1),
        ];
        for (why, setup, fused) in cases {
            let mut mcu = boot(&format!(
                ".org 0xF000\n\
                 start: mov #0x0A00, sp\n\
                 {setup}\n\
                 call #0xF100\n\
                 mov #1, r9\n\
                 halt: jmp halt\n\
                 .org 0xF100\n\
                 mov.b r4, &0x0040\n\
                 wait: bit.b #1, &0x0042\n\
                 jnz wait\n\
                 mov.b &0x0041, r5\n\
                 ret\n\
                 .vector reset, start\n"
            ));
            let mut log = CycleLog::new();
            while mcu.cycles() < 200 {
                log.clear();
                mcu.run_segment(200, u64::MAX, &mut log, &mut FloatingBus);
            }
            assert_eq!(
                mcu.xfers,
                XferTally {
                    fused,
                    generic: 1 - fused
                },
                "{why}"
            );
            assert_eq!((mcu.register(5), mcu.register(9)), (0xFF, 1), "{why}");
        }
    }

    #[test]
    fn only_writes_into_code_demote_the_core() {
        let cases = [
            ("a vector retargeted", "mov #halt, &0xFFE8", true),
            ("a RAM write", "mov #1, &0x0200", true),
            (
                "a code word rewritten with itself",
                "mov &halt, &halt",
                false,
            ),
        ];
        for (why, write, decoded) in cases {
            let mut mcu = boot(&format!(
                ".org 0xF000\n\
                 start: mov #0x0A00, sp\n\
                 {write}\n\
                 halt: jmp halt\n\
                 .vector reset, start\n"
            ));
            run_steps(&mut mcu, 4);
            let parked = mcu.read_mem16(mcu.register(PC)) == 0x3FFF; // jmp $
            assert!(parked, "{why}: the write ran");
            assert_eq!(mcu.uops_on, decoded, "{why}");
        }
    }

    #[test]
    fn timer_wakes_lpm3_via_sleep() {
        let mut mcu = boot(
            r#"
            .org 0xF000
start:  mov #0x0A00, r1
        mov #0, r5
        mov #32, &0x0062      ; TACCR0 = 32 ACLK ticks (~1 ms)
        mov.b #3, &0x0060     ; TACTL: run + interrupt
        bis #0x00D8, r2       ; LPM3 + GIE
        mov #1, r6
done:   jmp done
isr:    mov #5, r5
        bic #0x00F0, 0(r1)
        reti
        .vector reset, start
        .vector timera, isr
        "#,
        );
        run_steps(&mut mcu, 5);
        assert_eq!(mcu.mode(), OperatingMode::Lpm3);
        // ~32 ACLK ticks ≈ 977 µs ≈ 977 cycles at 1 MHz, and the wake
        // bound is exactly the sleep the timer allows.
        let bound = mcu.cycles_until_wake();
        let slept = mcu.sleep(10_000, &mut FloatingBus);
        assert!(slept < 10_000, "timer should cut the sleep short");
        assert_eq!(bound, Some(slept));
        assert_eq!(mcu.cycles_until_wake(), Some(0), "the interrupt is latched");
        run_steps(&mut mcu, 10);
        assert_eq!(mcu.register(5), 5);
        assert_eq!(mcu.register(6), 1);
    }
}
