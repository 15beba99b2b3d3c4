//! Pre-decoded firmware translation cache: the micro-op stream.
//!
//! Firmware is immutable after [`Mcu::load`](crate::cpu::Mcu::load), so the
//! fetch/decode work the interpreter repeats on every execution can be done
//! once, at load time. Each word-aligned address inside the image's
//! segments gets an independent decode attempt (so interleaved data tables
//! cannot desynchronize a linear sweep), producing a compact [`UInsn`] with
//!
//! * operand forms made explicit ([`SrcOp`]/[`DstOp`]): register, indexed,
//!   indirect, autoincrement, immediate;
//! * constant-generator values and every PC-dependent operand folded to
//!   constants (the PC at any point inside an instruction is static);
//! * the datasheet cycle count, fully determined by the addressing modes;
//! * a basic-block boundary marker (`ends_block`) on branches, calls,
//!   `reti` and anything that can write SR — between markers the status
//!   register cannot change, which is what lets
//!   [`Mcu::run_segment`](crate::cpu::Mcu::run_segment) stream a block
//!   without re-checking the sleep/fault state per instruction;
//! * an `observe` flag on every micro-op that can move a pin or the
//!   operating mode (memory writes that may reach the peripheral window,
//!   SR writes, `reti`), so the stream compares observables only there;
//! * a [`Fused`] hint on the heads of the two SPI idioms the segment runner
//!   executes as one step: the busy-wait and a whole call into the shared
//!   `spi_xfer` helper.
//!
//! Each slot starts from the one typed decode, [`Insn::decode`], which the
//! interpreter and the disassembler share: an address gets a micro-op
//! only where the word decodes, so the decoded path's coverage is exactly
//! the interpreter's decodable set and undecodable words fault through
//! the identical interpreter path. The extension-word count and cycle cost
//! come from the same decode; what this module adds is the folding.
//!
//! The table covers the image's bytes from its lowest segment up to, not
//! into, the interrupt vector table at `0xFFE0`: the vectors are data that
//! reset and interrupt entry read from memory, so a PC there runs through
//! the interpreter like any other address without a slot.
//!
//! The cache is a pure function of the [`Image`], so it travels with the
//! image: the first load decodes it into a slot the image's clones share.
//! The stock firmware cache hands every node a clone of one image per
//! variant, so a million-node fleet running 256 distinct firmware
//! variants builds 256 caches, not a million. Each spans only its image's
//! code: the TPMS table holds 113 slots of 20 bytes, about 2.2 KiB.
//! Self-modifying code is handled in the CPU layer: any write landing in
//! [`CodeSpan::covers`] permanently drops that core back to the
//! interpreter (the shared cache itself is immutable), and a write into
//! the vector table, which no micro-op was decoded from, does not. The CPU
//! keeps a copy of that [`CodeSpan`], so the guard never needs the shared
//! cache.
//!
//! No JIT, no `unsafe`: this is still the same interpreter, minus the
//! per-execution fetch/decode — behavior (cycles, flags, interrupt points,
//! fault latching) is pinned bit-identical by the differential suite in
//! `tests/differential.rs` and the golden traces.

use crate::isa::{Condition, Dst, Format1Op, Format2Op, Insn, Src};
use crate::memory::{io, FlatMemory, Image};
use crate::peripherals::Peripherals;

/// First byte of the interrupt vector table (`0xFFE0`–`0xFFFF`), where
/// decoded tables end.
const VECTOR_BASE: u16 = 0xFFE0;

/// A source operand with every static part resolved at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcOp {
    /// Fully static value: constant generators (unmasked, as the
    /// interpreter leaves them), immediates (byte-masked), and
    /// register-direct PC reads folded to the known next-word address.
    Const(u16),
    /// Register direct (byte ops mask on read).
    Reg(u8),
    /// Static memory address: `&ADDR`, and the PC-relative indexed /
    /// indirect forms whose address is a pure function of the
    /// instruction's location.
    Abs(u16),
    /// Indexed `X(Rn)` with the extension word captured.
    Indexed(u8, u16),
    /// Indirect `@Rn`.
    Indirect(u8),
    /// Autoincrement `@Rn+` with the post-increment amount (1 or 2).
    AutoInc(u8, u8),
}

/// A destination operand (format I only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstOp {
    /// Register direct (byte ops mask on read).
    Reg(u8),
    /// Register-direct PC: the read value is static, and writing it back
    /// costs the extra cycle the interpreter charges for `DstLoc::Reg(0)`
    /// (already folded into [`UInsn::cycles`]).
    PcReg(u16),
    /// Static memory address (`&ADDR`, or `X(PC)` folded).
    Mem(u16),
    /// Indexed `X(Rn)` with the extension word captured.
    Indexed(u8, u16),
}

/// One decoded instruction's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UOp {
    /// Two-operand format I.
    Fmt1 {
        /// The ALU operation.
        op: Format1Op,
        /// Byte-width operation.
        byte: bool,
        /// Source operand.
        src: SrcOp,
        /// Destination operand.
        dst: DstOp,
    },
    /// Single-operand format II.
    Fmt2 {
        /// The operation.
        op: Format2Op,
        /// Byte-width operation.
        byte: bool,
        /// Raw register field — the writeback target when the operand
        /// resolved without an address (including the constant-generator
        /// quirk of writing R2/R3).
        reg: u8,
        /// Source operand.
        src: SrcOp,
    },
    /// Conditional or unconditional jump with the target pre-computed.
    Jump {
        /// The condition.
        cond: Condition,
        /// Absolute branch target.
        target: u16,
    },
    /// Return from interrupt.
    Reti,
}

/// One pre-decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UInsn {
    /// The operation with operands resolved.
    pub op: UOp,
    /// PC after fetching the instruction and all its extension words.
    pub next_pc: u16,
    /// Datasheet cycle count (static for every addressing-mode combination).
    pub cycles: u32,
    /// Basic-block boundary: set on jumps, calls, `reti`, and any form
    /// that can write SR or PC. Between boundaries SR is invariant.
    pub ends_block: bool,
    /// Can move a segment observable (a GPIO output pin or the operating
    /// mode): writes memory at a dynamic address or a static one in the
    /// peripheral window, writes SR, or is `reti`. Every other micro-op
    /// leaves the pins and the mode alone, so the segment runner skips
    /// their comparison; the SPI draw epoch moves only in a peripheral
    /// tick, which the runner checks on its own.
    pub observe: bool,
    /// The fused idiom this instruction heads, if any.
    pub fused: Fused,
}

/// An idiom [`Mcu::run_segment`](crate::cpu::Mcu::run_segment) runs as one
/// step. Purely an execution hint: `step` ignores it, and each fused step
/// replays the exact per-instruction flags, cycles, peripheral ticks and
/// log entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fused {
    /// Not the head of a fused idiom.
    No,
    /// The SPI busy-wait: `bit.b #1, &SPISTAT` followed by a `jnz`
    /// straight back to it, fast-forwarded without per-iteration dispatch.
    SpiSpin,
    /// `call #entry` into an `spi_xfer`-shaped helper: the whole exchange,
    /// call to `ret`, runs as one step. The payload indexes the helper in
    /// [`UopCache::xfer`]: stored inline, the helper would widen every
    /// micro-op from 20 to 24 bytes, and a fleet keeps one decoded table
    /// per firmware variant.
    SpiXfer(u8),
}

/// An `spi_xfer`-shaped helper, resolved once at decode:
///
/// ```text
/// entry:      mov.b rTX, &SPITX
/// entry + 4:  bit.b #1, &SPISTAT      ; the fused busy-wait
/// entry + 8:  jnz entry + 4
/// entry + 10: mov.b &SPIRX, rRX       ; rRX is neither PC, SP nor SR
/// entry + 14: ret
/// ```
///
/// The layout and every cycle cost follow from the shape (the poll's `#1`
/// comes from the constant generator), so the helper is the entry and the
/// two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpiXfer {
    /// The helper's first instruction.
    pub entry: u16,
    /// The register whose low byte goes out on the bus.
    pub tx: u8,
    /// The register the reply byte lands in.
    pub rx: u8,
}

impl SpiXfer {
    /// `mov.b rTX, &SPITX`: register source, absolute destination.
    pub const TX_CYCLES: u32 = 4;
    /// `bit.b #1, &SPISTAT`: constant-generator source, absolute
    /// destination.
    pub const POLL_CYCLES: u32 = 4;
    /// `jnz`, taken or not.
    pub const JUMP_CYCLES: u32 = 2;
    /// `mov.b &SPIRX, rRX`: absolute source, register destination.
    pub const RX_CYCLES: u32 = 3;
    /// `ret` (`mov @sp+, pc`).
    pub const RET_CYCLES: u32 = 3;

    /// The busy-wait's poll.
    pub fn poll(self) -> u16 {
        self.entry.wrapping_add(4)
    }

    /// The busy-wait's `jnz`.
    pub fn jump(self) -> u16 {
        self.entry.wrapping_add(8)
    }

    /// `mov.b &SPIRX, rRX`.
    pub fn read(self) -> u16 {
        self.entry.wrapping_add(10)
    }

    /// `ret`.
    pub fn ret(self) -> u16 {
        self.entry.wrapping_add(14)
    }
}

/// The bytes a [`UopCache`] was decoded from. A plain copy of the cache's
/// bounds, so the CPU can run the self-modifying-code guard without
/// touching the shared cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CodeSpan {
    base: u16,
    len: usize,
}

impl CodeSpan {
    /// Whether a write to `addr` can alias bytes any cached instruction
    /// was decoded from (the self-modifying-code guard's test).
    #[inline]
    pub(crate) fn covers(self, addr: u16) -> bool {
        usize::from(addr.wrapping_sub(self.base)) < self.len
    }
}

/// The pre-decoded micro-op table for one image: a PC-indexed slot per
/// word-aligned address in the covered flash span, which ends below the
/// vector table.
#[derive(Debug)]
pub(crate) struct UopCache {
    /// First byte address covered (even).
    base: u16,
    /// One slot per word from `base`; `None` where no instruction decodes.
    slots: Vec<Option<UInsn>>,
    /// The `spi_xfer`-shaped helpers calls are fused into, in order of
    /// first call site.
    xfers: Vec<SpiXfer>,
}

impl UopCache {
    /// Looks up the micro-op for `pc`. Odd PCs are left to the interpreter
    /// (which models the hardware's low-bit masking plus odd increments).
    #[inline]
    pub(crate) fn lookup(&self, pc: u16) -> Option<UInsn> {
        let off = pc.wrapping_sub(self.base);
        if off & 1 != 0 {
            return None;
        }
        self.slots.get(usize::from(off >> 1)).copied().flatten()
    }

    /// The helper a [`Fused::SpiXfer`] call indexes.
    #[inline]
    pub(crate) fn xfer(&self, index: u8) -> Option<SpiXfer> {
        self.xfers.get(usize::from(index)).copied()
    }

    /// The flash span the table was decoded from.
    pub(crate) fn span(&self) -> CodeSpan {
        CodeSpan {
            base: self.base,
            len: self.slots.len() * 2,
        }
    }

    /// Number of decoded instructions (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn decoded_len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Builds the table for an image: pure function of the image bytes.
    ///
    /// The table spans the image's bytes below [`VECTOR_BASE`], from the
    /// lowest segment to two words past the highest code byte. The vector
    /// table above is data: `warm_reset` and interrupt entry read it from
    /// memory, so an instruction that would reach it is not decoded, and a
    /// PC there (or anywhere else without a slot) runs through the
    /// interpreter.
    pub(crate) fn build(image: &Image) -> Self {
        // Each segment's bytes below the vector table, as `[start, end)`.
        let code = || {
            image.segments().iter().filter_map(|(org, bytes)| {
                let start = usize::from(*org);
                let end = (start + bytes.len()).min(usize::from(VECTOR_BASE));
                (start < end).then_some((start, end))
            })
        };
        let Some(lo) = code().map(|(start, _)| start & !1).min() else {
            return Self {
                base: 0,
                slots: Vec::new(),
                xfers: Vec::new(),
            };
        };
        // Two words of margin past the last code byte, never into the
        // vector table. Every decoded instruction lies wholly inside loaded
        // bytes, so the margin only widens what the self-modifying-code
        // guard treats as code.
        let hi = code()
            .map(|(_, end)| end)
            .max()
            .unwrap_or(lo)
            .saturating_add(4)
            .min(usize::from(VECTOR_BASE));
        let span = hi - lo;
        // Which bytes the image actually provides: instructions must lie
        // wholly inside loaded segments, otherwise their extension words
        // would depend on whatever the surrounding memory happens to hold.
        let mut present = vec![false; span];
        for (start, end) in code() {
            for slot in present.iter_mut().skip(start - lo).take(end - start) {
                *slot = true;
            }
        }
        let mut mem = FlatMemory::new();
        mem.load(image);

        // Every address below is under `VECTOR_BASE`, so the casts to
        // `u16` are exact.
        let mut slots = vec![None; span.div_ceil(2)];
        for (word, slot) in slots.iter_mut().enumerate() {
            let off = word * 2;
            let at = (lo + off) as u16;
            let Some(u) = decode_at(&mem, at) else {
                continue;
            };
            let size = usize::from(u.next_pc.wrapping_sub(at).max(2));
            let contained = present
                .get(off..off + size)
                .is_some_and(|bytes| bytes.iter().all(|p| *p));
            if contained {
                *slot = Some(u);
            }
        }
        let mut cache = Self {
            base: lo as u16,
            slots,
            xfers: Vec::new(),
        };
        cache.mark_spi_spins();
        cache.mark_spi_xfers();
        cache
    }

    /// Fusion pass: flags each `bit.b #1, &SPISTAT` whose successor is a
    /// `jnz` straight back to it — the firmware idiom for "wait until the
    /// SPI engine finishes". The flag lets the segment runner iterate the
    /// pair without per-instruction dispatch; both instructions keep their
    /// own independent slots, so single-stepping and direct jumps into the
    /// `jnz` are unaffected.
    fn mark_spi_spins(&mut self) {
        for i in 0..self.slots.len() {
            let Some(u) = self.slots[i] else { continue };
            let head = self.base.wrapping_add((i * 2) as u16);
            let is_poll = matches!(
                u.op,
                UOp::Fmt1 {
                    op: Format1Op::Bit,
                    byte: true,
                    src: SrcOp::Const(1),
                    dst: DstOp::Mem(io::SPISTAT),
                }
            );
            if !is_poll {
                continue;
            }
            let loops_back = matches!(
                self.lookup(u.next_pc),
                Some(UInsn {
                    op: UOp::Jump {
                        cond: Condition::Jnz,
                        target,
                    },
                    ..
                }) if target == head
            );
            if loops_back {
                if let Some(slot) = self.slots.get_mut(i).and_then(|s| s.as_mut()) {
                    slot.fused = Fused::SpiSpin;
                }
            }
        }
    }

    /// Fusion pass, after [`mark_spi_spins`](Self::mark_spi_spins): flags
    /// each `call #entry` whose target is an [`SpiXfer`]-shaped helper. The
    /// helpers are matched here, once per image, not on every call.
    fn mark_spi_xfers(&mut self) {
        for i in 0..self.slots.len() {
            let Some(UInsn {
                op:
                    UOp::Fmt2 {
                        op: Format2Op::Call,
                        src: SrcOp::Const(entry),
                        ..
                    },
                ..
            }) = self.slots[i]
            else {
                continue;
            };
            let known = self.xfers.iter().position(|x| x.entry == entry);
            let Some(index) = known.or_else(|| {
                let xfer = self.spi_xfer_at(entry)?;
                self.xfers.push(xfer);
                Some(self.xfers.len() - 1)
            }) else {
                continue;
            };
            let (Ok(index), Some(slot)) = (
                u8::try_from(index),
                self.slots.get_mut(i).and_then(|s| s.as_mut()),
            ) else {
                continue; // past 256 helpers: the call runs unfused
            };
            slot.fused = Fused::SpiXfer(index);
        }
    }

    /// The helper at `entry`, if the code there has the exact
    /// [`SpiXfer`] shape.
    fn spi_xfer_at(&self, entry: u16) -> Option<SpiXfer> {
        let tx = match self.lookup(entry)? {
            UInsn {
                op:
                    UOp::Fmt1 {
                        op: Format1Op::Mov,
                        byte: true,
                        src: SrcOp::Reg(tx),
                        dst: DstOp::Mem(io::SPITX),
                    },
                next_pc,
                ..
            } if next_pc == entry.wrapping_add(4) => tx,
            _ => return None,
        };
        let shape = SpiXfer { entry, tx, rx: 0 };
        // The spin pass already checked that a `jnz` straight back to the
        // poll follows it; a 4-byte poll puts that `jnz` at `entry + 8`.
        let poll = self.lookup(shape.poll())?;
        if poll.fused != Fused::SpiSpin || poll.next_pc != shape.jump() {
            return None;
        }
        let rx = match self.lookup(shape.read())? {
            UInsn {
                op:
                    UOp::Fmt1 {
                        op: Format1Op::Mov,
                        byte: true,
                        src: SrcOp::Abs(io::SPIRX),
                        dst: DstOp::Reg(rx),
                    },
                next_pc,
                ..
            } if next_pc == shape.ret() && rx != 1 && rx != 2 => rx,
            _ => return None,
        };
        let ret = self.lookup(shape.ret())?;
        let is_ret = matches!(
            ret.op,
            UOp::Fmt1 {
                op: Format1Op::Mov,
                byte: false,
                src: SrcOp::AutoInc(1, 2),
                dst: DstOp::PcReg(_),
            }
        );
        is_ret.then_some(SpiXfer { rx, ..shape })
    }
}

/// Decodes the instruction at `at` into a micro-op, or `None` where the
/// interpreter would fault. [`Insn::decode`] classifies the word, counts
/// its extension words and prices it, exactly as it does for the
/// interpreter; this captures the extension words and folds every form
/// the instruction's location fixes.
fn decode_at(mem: &FlatMemory, at: u16) -> Option<UInsn> {
    let insn = Insn::decode(mem.read16(at))?;
    // The PC once the opcode word is fetched: the first extension word.
    let ext_at = at.wrapping_add(2);
    let (op, ends_block, observe) = match insn {
        // Jumps: target is a static function of the instruction address.
        Insn::Jump { cond, offset } => {
            let target = ext_at.wrapping_add_signed(2 * offset);
            (UOp::Jump { cond, target }, true, false)
        }
        Insn::Reti => (UOp::Reti, true, true), // pops SR
        Insn::Fmt2 { op, byte, reg, src } => {
            let src = fold_src(mem, ext_at, src, byte);
            // Register-form results (no writeback address) land in the raw
            // register field; writing PC or SR ends the block, as does `call`.
            let reg_result = matches!(src, SrcOp::Const(_) | SrcOp::Reg(_))
                && !matches!(op, Format2Op::Push | Format2Op::Call);
            let ends_block = op == Format2Op::Call || (reg_result && (reg == 0 || reg == 2));
            // `push` and `call` write the stack; the rest write back to their
            // operand's address, or to the register field when there is none.
            let observe = match op {
                Format2Op::Push | Format2Op::Call => true,
                _ if reg_result => reg == 2,
                _ => writes_peripherals(src),
            };
            (UOp::Fmt2 { op, byte, reg, src }, ends_block, observe)
        }
        Insn::Fmt1 { op, byte, src, dst } => {
            // PC as seen by the destination resolver: after the opcode word
            // and the source's extension words.
            let dst_pc = ext_at.wrapping_add(2 * src.ext_words());
            let dst = match dst {
                Dst::Reg(0) => DstOp::PcReg(if byte { dst_pc & 0xFF } else { dst_pc }),
                Dst::Reg(r) => DstOp::Reg(r),
                Dst::Absolute => DstOp::Mem(mem.read16(dst_pc)),
                // Symbolic X(PC): base is the PC after this extension word.
                Dst::Indexed(0) => {
                    DstOp::Mem(dst_pc.wrapping_add(2).wrapping_add(mem.read16(dst_pc)))
                }
                Dst::Indexed(r) => DstOp::Indexed(r, mem.read16(dst_pc)),
            };
            let src = fold_src(mem, ext_at, src, byte);
            let ends_block = op.writes_back() && matches!(dst, DstOp::PcReg(_) | DstOp::Reg(2));
            let observe = op.writes_back()
                && match dst {
                    DstOp::Reg(r) => r == 2,
                    DstOp::PcReg(_) => false,
                    DstOp::Mem(a) => Peripherals::owns(a),
                    DstOp::Indexed(..) => true,
                };
            (UOp::Fmt1 { op, byte, src, dst }, ends_block, observe)
        }
    };
    Some(UInsn {
        op,
        next_pc: ext_at.wrapping_add(2 * insn.ext_words()),
        cycles: insn.cycles(),
        ends_block,
        observe,
        fused: Fused::No,
    })
}

/// Whether writing back to a format-II operand can reach the peripheral
/// window: a static address inside it, or any address computed at run
/// time. Register and constant operands have no address.
fn writes_peripherals(src: SrcOp) -> bool {
    match src {
        SrcOp::Const(_) | SrcOp::Reg(_) => false,
        SrcOp::Abs(a) => Peripherals::owns(a),
        SrcOp::Indexed(..) | SrcOp::Indirect(_) | SrcOp::AutoInc(..) => true,
    }
}

/// Folds a source operand as `Mcu::resolve_src` would resolve it, with its
/// extension word captured and every PC-dependent form made constant: the
/// PC at the extension word is `ext_at`.
fn fold_src(mem: &FlatMemory, ext_at: u16, src: Src, byte: bool) -> SrcOp {
    let mask = |v: u16| if byte { v & 0xFF } else { v };
    match src {
        // Constant generators: the interpreter does not byte-mask these.
        Src::Const(v) => SrcOp::Const(v),
        // Register direct; reading PC is static (byte ops mask on read).
        Src::Reg(0) => SrcOp::Const(mask(ext_at)),
        Src::Reg(r) => SrcOp::Reg(r),
        Src::Absolute => SrcOp::Abs(mem.read16(ext_at)),
        // Symbolic X(PC): base is the PC at the extension word.
        Src::Indexed(0) => SrcOp::Abs(ext_at.wrapping_add(mem.read16(ext_at))),
        Src::Indexed(r) => SrcOp::Indexed(r, mem.read16(ext_at)),
        // Indirect @PC reads the word after the opcode.
        Src::Indirect(0) => SrcOp::Abs(ext_at),
        Src::Indirect(r) => SrcOp::Indirect(r),
        Src::AutoInc(r) => SrcOp::AutoInc(r, if byte { 1 } else { 2 }),
        // Immediate #N (@PC+); the interpreter byte-masks these.
        Src::Immediate => SrcOp::Const(mask(mem.read16(ext_at))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::disasm;
    use std::sync::Arc;

    fn image(src: &str) -> Image {
        assemble(src).expect("test source assembles")
    }

    #[test]
    fn decodes_whole_firmware_span() {
        let img = crate::firmware::tpms_app(0x42).expect("firmware builds");
        let cache = UopCache::build(&img);
        // Every address the disassembler decodes inside the code segment
        // must have a micro-op with a matching size.
        let mut mem = FlatMemory::new();
        mem.load(&img);
        let (org, bytes) = img
            .segments()
            .iter()
            .find(|(org, _)| *org == 0xF000)
            .expect("code segment");
        let mut at = *org;
        let end = org + bytes.len() as u16;
        let mut checked = 0;
        while at < end {
            let d = disasm::decode_one(&mem, at).expect("firmware decodes");
            let u = cache.lookup(at).expect("cached instruction");
            assert_eq!(u.next_pc, at.wrapping_add(d.size), "size must agree");
            at = at.wrapping_add(d.size);
            checked += 1;
        }
        assert!(checked > 10, "firmware should have real code");
        assert!(cache.decoded_len() >= checked);
    }

    #[test]
    fn pc_relative_operands_fold_to_constants() {
        let img = image(
            ".org 0xF000\n\
             mov #0x1234, r4\n\
             mov pc, r5\n\
             jmp 0xF000\n",
        );
        let cache = UopCache::build(&img);
        // mov #imm: immediate folds to a constant.
        let u = cache.lookup(0xF000).expect("imm mov");
        assert!(matches!(
            u.op,
            UOp::Fmt1 {
                src: SrcOp::Const(0x1234),
                ..
            }
        ));
        assert_eq!(u.cycles, 2);
        // mov pc, r5 at 0xF004: PC reads as 0xF006.
        let u = cache.lookup(0xF004).expect("pc mov");
        assert!(matches!(
            u.op,
            UOp::Fmt1 {
                src: SrcOp::Const(0xF006),
                ..
            }
        ));
        // jmp: block boundary with a static target.
        let u = cache.lookup(0xF006).expect("jmp");
        assert!(u.ends_block);
        assert!(matches!(u.op, UOp::Jump { target: 0xF000, .. }));
    }

    #[test]
    fn sr_writes_end_blocks() {
        let img = image(
            ".org 0xF000\n\
             bis #0x00D8, r2\n\
             mov #1, r6\n\
             call #0xF000\n\
             reti\n",
        );
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF000).expect("bis sr").ends_block);
        assert!(!cache.lookup(0xF004).expect("mov r6").ends_block);
        assert!(cache.lookup(0xF006).expect("call").ends_block);
        assert!(cache.lookup(0xF00A).expect("reti").ends_block);
    }

    #[test]
    fn data_words_get_no_slot_but_code_after_them_does() {
        let img = image(
            ".org 0xF000\n\
             jmp 0xF006\n\
             .word 0x0000\n\
             .word 0x0003\n\
             mov #1, r4\n",
        );
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF002).is_none(), "0x0000 is undecodable");
        assert!(cache.lookup(0xF006).is_some(), "code after data decodes");
    }

    #[test]
    fn lookup_rejects_odd_and_out_of_span_pcs() {
        let img = image(".org 0xF000\nmov #1, r4\n");
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF001).is_none());
        assert!(cache.lookup(0xE000).is_none());
        assert!(cache.lookup(0x0000).is_none());
    }

    #[test]
    fn covers_spans_segments_with_padding() {
        let img = image(".org 0xF000\nmov #1, r4\n");
        let span = UopCache::build(&img).span();
        assert!(span.covers(0xF000));
        assert!(span.covers(0xF003)); // inside the 4-byte pad
        assert!(!span.covers(0xEFFE));
        assert!(!CodeSpan::default().covers(0x0000), "no image, no span");

        // The vector table is data: writes there leave the decoded path
        // alone, while writes into code still trip the guard.
        let img =
            image(".org 0xF000\nstart: mov #1, r4\n.vector reset, start\n.vector port1, start\n");
        let span = UopCache::build(&img).span();
        assert!(span.covers(0xF000));
        for vector in [0xFFE0, 0xFFE8, 0xFFFE, 0xFFFF] {
            assert!(!span.covers(vector), "{vector:#06x}");
        }
        // Code that runs up to the vector table: the pad stops short of it.
        let img = image(".org 0xFFDC\nstart: mov #0x1234, r4\n.vector reset, start\n");
        let span = UopCache::build(&img).span();
        assert!(span.covers(0xFFDF));
        assert!(!span.covers(0xFFE0));
        // An image that is only vectors decodes nothing.
        let img = image(".vector reset, 0xF000\n");
        assert_eq!(UopCache::build(&img).span(), CodeSpan::default());
    }

    /// The four stock firmware images.
    fn stock_images() -> [(&'static str, Image); 4] {
        use crate::firmware::{beacon_app, motion_app, tpms_alarm_app, tpms_app};
        [
            ("tpms", tpms_app(0x42).expect("tpms builds")),
            (
                "tpms_alarm",
                tpms_alarm_app(0x17, 0x0123).expect("alarm builds"),
            ),
            ("motion", motion_app(7).expect("motion builds")),
            ("beacon", beacon_app(3, 2).expect("beacon builds")),
        ]
    }

    #[test]
    fn stock_tables_hold_only_their_code() {
        for (name, img) in stock_images() {
            let cache = UopCache::build(&img);
            let code_words: usize = img
                .segments()
                .iter()
                .filter(|(org, _)| *org < VECTOR_BASE)
                .map(|(_, bytes)| bytes.len().div_ceil(2))
                .sum();
            assert!(
                cache.slots.len() <= code_words + 2,
                "{name}: {} slots for {code_words} code words",
                cache.slots.len()
            );
            let span = cache.span();
            assert!(
                !span.covers(VECTOR_BASE),
                "{name}: span reaches the vectors"
            );
            if name == "tpms" {
                assert_eq!(cache.slots.len(), 113, "tpms: 111 code words and the pad");
            }
        }
        // One slot per table word: the size a fleet keeps per firmware
        // variant.
        assert_eq!(std::mem::size_of::<Option<UInsn>>(), 20);
    }

    /// The table as it was built before it ended at the vector table: every
    /// word from the lowest segment to `0xFFFE` decoded on its own, and kept
    /// when the instruction lies wholly inside the image's bytes and could
    /// not wrap the address space. Returns `(address, micro-op)` per word.
    fn unbounded_reference(img: &Image) -> Vec<(u16, Option<UInsn>)> {
        let mut mem = FlatMemory::new();
        mem.load(img);
        let loaded = |addr: usize| {
            img.segments().iter().any(|(org, bytes)| {
                (usize::from(*org)..usize::from(*org) + bytes.len()).contains(&addr)
            })
        };
        let lo = img
            .segments()
            .iter()
            .map(|(org, _)| *org & !1)
            .min()
            .unwrap_or(0);
        (lo..=0xFFFE)
            .step_by(2)
            .map(|at| {
                let u = (usize::from(at) + 6 <= 0x1_0000)
                    .then(|| decode_at(&mem, at))
                    .flatten()
                    .filter(|u| {
                        let size = usize::from(u.next_pc.wrapping_sub(at).max(2));
                        (usize::from(at)..usize::from(at) + size).all(loaded)
                    });
                (at, u)
            })
            .collect()
    }

    /// Checks `img`'s table against [`unbounded_reference`]: the same
    /// micro-op (fusion hints aside) at every address below the vector
    /// table whose instruction ends by it, and no slot anywhere else.
    /// Returns the reference's instructions that reach into the vectors.
    fn assert_agrees_with_reference(name: &str, img: &Image) -> Vec<u16> {
        let cache = UopCache::build(img);
        let mut straddling = Vec::new();
        for (at, reference) in unbounded_reference(img) {
            let got = cache.lookup(at).map(|u| UInsn {
                fused: Fused::No,
                ..u
            });
            let ends = |u: &UInsn| usize::from(at) + usize::from(u.next_pc.wrapping_sub(at).max(2));
            let expected = reference.filter(|u| ends(u) <= usize::from(VECTOR_BASE));
            if at < VECTOR_BASE && reference.is_some() && expected.is_none() {
                straddling.push(at);
            }
            assert_eq!(got, expected, "{name}: slot {at:#06x}");
        }
        straddling
    }

    #[test]
    fn lookup_agrees_with_an_unbounded_reference_below_the_vectors() {
        for (name, img) in stock_images() {
            assert_agrees_with_reference(name, &img);
        }
        // Two code segments with a gap between them.
        let helper = helper_image(HELPER);
        assert_eq!(helper.segments().len(), 3, "two code segments and a vector");
        assert_agrees_with_reference("helper", &helper);
        // `mov #0x5678, r5` at 0xFFDE takes its immediate from 0xFFE0: the
        // old table decoded it, the bounded one leaves it to the interpreter.
        let straddle = image(
            ".org 0xFFDA\n\
             start: mov #0x1234, r4\n\
             mov #0x5678, r5\n\
             .vector reset, start\n",
        );
        assert_eq!(
            assert_agrees_with_reference("straddle", &straddle),
            [0xFFDE]
        );
        assert!(UopCache::build(&straddle).lookup(0xFFDA).is_some());
    }

    #[test]
    fn image_clones_share_one_table() {
        let src = ".org 0xF000\nmov #0x5A5A, r4\nmov #0x5A5A, r5\n";
        let a = image(src);
        let table = a.decoded();
        assert!(
            Arc::ptr_eq(&table, &a.clone().decoded()),
            "clones share one table"
        );
        let twin = image(src);
        assert_eq!(twin, a);
        assert!(
            !Arc::ptr_eq(&table, &twin.decoded()),
            "a separately assembled identical image decodes its own"
        );
        let mut grown = a.clone();
        grown.push_segment(0xF100, vec![0x03, 0x43]);
        assert!(
            grown.decoded().lookup(0xF100).is_some(),
            "a new segment redecodes"
        );
        assert!(
            Arc::ptr_eq(&table, &a.decoded()),
            "the original keeps its table"
        );
        // Every node's copy of a stock image comes out of one cache entry.
        let tpms = |id| crate::firmware::tpms_app(id).expect("firmware builds");
        assert!(Arc::ptr_eq(&tpms(0x42).decoded(), &tpms(0x42).decoded()));
    }

    /// A program that calls the helper `body` at `0xF100`.
    fn helper_image(body: &str) -> Image {
        image(&format!(
            ".org 0xF000\n\
             start: mov #0x0A00, r1\n\
             call #0xF100\n\
             jmp start\n\
             .org 0xF100\n\
             {body}\n\
             .vector reset, start\n"
        ))
    }

    const HELPER: &str = "mov.b r4, &0x0040\n\
                          wait: bit.b #1, &0x0042\n\
                          jnz wait\n\
                          mov.b &0x0041, r5\n\
                          ret";

    #[test]
    fn stock_helper_calls_are_fused_once_per_image() {
        let img = crate::firmware::tpms_app(0x42).expect("firmware builds");
        let cache = UopCache::build(&img);
        let calls: Vec<Fused> = cache
            .slots
            .iter()
            .flatten()
            .filter(|u| {
                matches!(
                    u.op,
                    UOp::Fmt2 {
                        op: Format2Op::Call,
                        ..
                    }
                )
            })
            .map(|u| u.fused)
            .collect();
        // Ten call sites of `spi_xfer` and one of `transmit`.
        let fused = calls.iter().filter(|f| **f == Fused::SpiXfer(0)).count();
        assert_eq!(fused, 10, "every helper call site is fused");
        assert!(calls.contains(&Fused::No), "`call #transmit` stays plain");
        assert_eq!(cache.xfers.len(), 1, "one helper, resolved once");
        let xfer = cache.xfer(0).expect("the helper");
        assert_eq!((xfer.tx, xfer.rx), (4, 5));
        assert_eq!(
            cache.lookup(xfer.poll()).map(|u| u.fused),
            Some(Fused::SpiSpin)
        );
    }

    #[test]
    fn helper_shape_is_matched_exactly() {
        let fused = |body: &str| {
            UopCache::build(&helper_image(body))
                .lookup(0xF004)
                .map(|u| u.fused)
        };
        assert_eq!(fused(HELPER), Some(Fused::SpiXfer(0)));
        let near_misses = [
            ("ret becomes reti", HELPER.replace("ret", "reti")),
            ("reply lands in SR", HELPER.replace("r5", "sr")),
            ("reply lands in SP", HELPER.replace("r5", "sp")),
            (
                "spin does not loop back",
                HELPER.replace("jnz wait", "jnz 0xF10A"),
            ),
            (
                "spin polls another bit",
                HELPER.replace("#1, &0x0042", "#2, &0x0042"),
            ),
            (
                "TX byte from a constant",
                HELPER.replace("r4, &0x0040", "#7, &0x0040"),
            ),
            (
                "word-wide reply",
                HELPER.replace("mov.b &0x0041", "mov &0x0041"),
            ),
        ];
        for (why, body) in &near_misses {
            assert_eq!(fused(body), Some(Fused::No), "{why}");
        }
    }

    #[test]
    fn observe_flags_mark_what_can_move_a_pin_or_the_mode() {
        let img = image(
            ".org 0xF000\n\
             mov r4, r5\n\
             mov.b #1, &0x0021\n\
             mov #1, &0x0200\n\
             mov r4, 0(r5)\n\
             bis #8, sr\n\
             push r4\n\
             cmp.b #1, &0x0021\n\
             rrc &0x0200\n\
             rrc 0(r4)\n\
             rrc sr\n\
             jmp 0xF000\n\
             reti\n",
        );
        let cache = UopCache::build(&img);
        // Walk the program instruction by instruction.
        let mut flags = Vec::new();
        let mut pc = 0xF000;
        while let Some(u) = cache.lookup(pc) {
            flags.push(u.observe);
            if u.op == UOp::Reti {
                break;
            }
            pc = u.next_pc;
        }
        let expected = [
            false, // register move
            true,  // P1OUT write
            false, // RAM write at a static address
            true,  // indexed write
            true,  // SR write
            true,  // push
            false, // compare writes nothing
            false, // RAM read-modify-write
            true,  // indexed read-modify-write
            true,  // rotate SR
            false, // jump
            true,  // reti pops SR
        ];
        assert_eq!(flags, expected);
    }

    #[test]
    fn truncated_instruction_at_segment_end_is_not_cached() {
        // `mov #imm, r4` needs an extension word; provide only the opcode
        // word so the instruction runs past the segment's bytes.
        let mut img = Image::new();
        img.push_segment(0xF000, vec![0x34, 0x40]);
        let cache = UopCache::build(&img);
        assert!(cache.lookup(0xF000).is_none());
    }
}
