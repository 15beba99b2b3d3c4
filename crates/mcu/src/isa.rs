//! Instruction-set definitions and the one decoder for the MSP430 subset.
//!
//! [`Insn::decode`] splits an instruction word into its format, operation,
//! width, registers and addressing forms, and prices it: how many
//! extension words follow it and how many cycles it costs. The
//! interpreter (`Mcu::execute`), the micro-op table (`uops::decode_at`)
//! and the disassembler ([`decode_one`](crate::disasm::decode_one)) all
//! start from it; each then reads the extension words its own way.

use crate::cpu::{FLAG_C, FLAG_N, FLAG_V, FLAG_Z};

/// Two-operand (format I) operations, by their 4-bit opcode; the names
/// are the MSP430 mnemonics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format1Op {
    Mov,
    Add,
    Addc,
    Subc,
    Sub,
    Cmp,
    Dadd,
    Bit,
    Bic,
    Bis,
    Xor,
    And,
}

impl Format1Op {
    /// Decodes from the instruction word's top nibble (0x4–0xF).
    fn from_opcode(op: u16) -> Option<Self> {
        Some(match op {
            0x4 => Self::Mov,
            0x5 => Self::Add,
            0x6 => Self::Addc,
            0x7 => Self::Subc,
            0x8 => Self::Sub,
            0x9 => Self::Cmp,
            0xA => Self::Dadd,
            0xB => Self::Bit,
            0xC => Self::Bic,
            0xD => Self::Bis,
            0xE => Self::Xor,
            0xF => Self::And,
            _ => return None,
        })
    }

    /// Whether the operation writes its result back to the destination.
    pub(crate) fn writes_back(self) -> bool {
        !matches!(self, Self::Cmp | Self::Bit)
    }
}

/// Single-operand (format II) operations other than `reti`, which takes
/// no operand and is its own [`Insn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format2Op {
    Rrc,
    Swpb,
    Rra,
    Sxt,
    Push,
    Call,
}

impl Format2Op {
    /// Decodes from bits 9:7 of a format-II word (6 is `reti`, 7 is
    /// undecodable).
    fn from_bits(bits: u16) -> Option<Self> {
        Some(match bits {
            0 => Self::Rrc,
            1 => Self::Swpb,
            2 => Self::Rra,
            3 => Self::Sxt,
            4 => Self::Push,
            5 => Self::Call,
            _ => return None,
        })
    }
}

/// Jump conditions (bits 12:10 of a jump instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Condition {
    Jnz,
    Jz,
    Jnc,
    Jc,
    Jn,
    Jge,
    Jl,
    Jmp,
}

impl Condition {
    /// Decodes from the 3-bit condition field.
    fn from_bits(bits: u16) -> Self {
        match bits & 0x7 {
            0 => Self::Jnz,
            1 => Self::Jz,
            2 => Self::Jnc,
            3 => Self::Jc,
            4 => Self::Jn,
            5 => Self::Jge,
            6 => Self::Jl,
            _ => Self::Jmp,
        }
    }

    /// Evaluates against the status flags.
    pub(crate) fn taken(self, sr: u16) -> bool {
        let c = sr & FLAG_C != 0;
        let z = sr & FLAG_Z != 0;
        let n = sr & FLAG_N != 0;
        let v = sr & FLAG_V != 0;
        match self {
            Self::Jnz => !z,
            Self::Jz => z,
            Self::Jnc => !c,
            Self::Jc => c,
            Self::Jn => n,
            Self::Jge => n == v,
            Self::Jl => n != v,
            Self::Jmp => true,
        }
    }
}

/// A source operand's addressing form: a format-I source or the format-II
/// operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A constant-generator value: R2 in modes 2–3, R3 in every mode.
    Const(u16),
    /// Register direct `Rn`.
    Reg(u8),
    /// Absolute `&ADDR` (R2 in indexed mode).
    Absolute,
    /// Indexed `X(Rn)`; symbolic when Rn is PC.
    Indexed(u8),
    /// Indirect `@Rn`.
    Indirect(u8),
    /// Indirect autoincrement `@Rn+`.
    AutoInc(u8),
    /// Immediate `#N` (`@PC+`).
    Immediate,
}

impl Src {
    /// Decodes register field `reg` in addressing mode `mode` (the As bits).
    fn decode(reg: u8, mode: u16) -> Self {
        match (reg, mode & 0x3) {
            (2, 2) => Self::Const(4),
            (2, 3) => Self::Const(8),
            (3, 0) => Self::Const(0),
            (3, 1) => Self::Const(1),
            (3, 2) => Self::Const(2),
            (3, _) => Self::Const(0xFFFF),
            (r, 0) => Self::Reg(r),
            (2, 1) => Self::Absolute,
            (r, 1) => Self::Indexed(r),
            (r, 2) => Self::Indirect(r),
            (0, _) => Self::Immediate,
            (r, _) => Self::AutoInc(r),
        }
    }

    /// Extension words the form reads after the opcode word.
    pub(crate) fn ext_words(self) -> u16 {
        u16::from(matches!(
            self,
            Self::Absolute | Self::Indexed(_) | Self::Immediate
        ))
    }

    /// Cycles the form adds to its instruction.
    fn cycles(self) -> u32 {
        match self {
            Self::Const(_) | Self::Reg(_) => 0,
            Self::Indirect(_) | Self::AutoInc(_) | Self::Immediate => 1,
            Self::Absolute | Self::Indexed(_) => 2,
        }
    }
}

/// A format-I destination's addressing form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    /// Register direct `Rn`.
    Reg(u8),
    /// Absolute `&ADDR` (R2 in indexed mode).
    Absolute,
    /// Indexed `X(Rn)`; symbolic when Rn is PC.
    Indexed(u8),
}

/// One decoded instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Insn {
    /// A conditional or unconditional jump, `offset` words from the word
    /// after it.
    Jump { cond: Condition, offset: i16 },
    /// Return from interrupt.
    Reti,
    /// Single-operand format II. `reg` is the raw register field: the
    /// writeback target when the operand has no address (including the
    /// constant-generator quirk of writing R2/R3).
    Fmt2 {
        op: Format2Op,
        byte: bool,
        reg: u8,
        src: Src,
    },
    /// Two-operand format I.
    Fmt1 {
        op: Format1Op,
        byte: bool,
        src: Src,
        dst: Dst,
    },
}

impl Insn {
    /// Decodes an instruction word, or `None` outside the implemented
    /// subset: top nibble 0, or a format-II word with bits 9:7 all set.
    // Forced inline: the interpreter decodes every word it runs, and with
    // only an `#[inline]` hint its TPMS wake burst ran about 15 % slower.
    #[inline(always)]
    pub(crate) fn decode(word: u16) -> Option<Self> {
        let byte = word & 0x40 != 0;
        let reg = (word & 0xF) as u8;
        let mode = word >> 4;
        Some(match word >> 12 {
            0x1 => match (word >> 7) & 0x7 {
                6 => Self::Reti,
                bits => Self::Fmt2 {
                    op: Format2Op::from_bits(bits)?,
                    byte,
                    reg,
                    src: Src::decode(reg, mode),
                },
            },
            0x2 | 0x3 => Self::Jump {
                cond: Condition::from_bits(word >> 10),
                // Sign-extends the 10-bit offset field.
                offset: ((word << 6) as i16) >> 6,
            },
            top => Self::Fmt1 {
                op: Format1Op::from_opcode(top)?,
                byte,
                src: Src::decode(((word >> 8) & 0xF) as u8, mode),
                dst: match (word & 0x80 != 0, reg) {
                    (false, r) => Dst::Reg(r),
                    (true, 2) => Dst::Absolute,
                    (true, r) => Dst::Indexed(r),
                },
            },
        })
    }

    /// Extension words after the opcode word: the source's, then the
    /// destination's.
    pub(crate) fn ext_words(self) -> u16 {
        match self {
            Self::Jump { .. } | Self::Reti => 0,
            Self::Fmt2 { src, .. } => src.ext_words(),
            Self::Fmt1 { src, dst, .. } => src.ext_words() + u16::from(!matches!(dst, Dst::Reg(_))),
        }
    }

    /// The datasheet cycle count, fixed by the addressing forms.
    pub(crate) fn cycles(self) -> u32 {
        match self {
            Self::Jump { .. } => 2,
            Self::Reti => 5,
            Self::Fmt2 { op, src, .. } => {
                let base = match op {
                    Format2Op::Push => 3,
                    Format2Op::Call => 4,
                    _ => 1,
                };
                base + src.cycles()
            }
            Self::Fmt1 { op, src, dst, .. } => {
                let dst = match dst {
                    // Writing the PC costs an extra cycle.
                    Dst::Reg(0) => u32::from(op.writes_back()),
                    Dst::Reg(_) => 0,
                    Dst::Absolute | Dst::Indexed(_) => 3,
                };
                1 + src.cycles() + dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format1_decode_covers_all_opcodes() {
        for op in 0x4..=0xF {
            assert!(Format1Op::from_opcode(op).is_some());
        }
        assert!(Format1Op::from_opcode(0x3).is_none());
        assert!(Format1Op::from_opcode(0x10).is_none());
    }

    #[test]
    fn cmp_and_bit_do_not_write_back() {
        assert!(!Format1Op::Cmp.writes_back());
        assert!(!Format1Op::Bit.writes_back());
        assert!(Format1Op::Add.writes_back());
    }

    #[test]
    fn jump_conditions() {
        assert!(Condition::Jz.taken(FLAG_Z));
        assert!(!Condition::Jz.taken(0));
        assert!(Condition::Jc.taken(FLAG_C));
        assert!(Condition::Jn.taken(FLAG_N));
        assert!(Condition::Jmp.taken(0));
        // Signed comparisons: JGE is N == V.
        assert!(Condition::Jge.taken(0));
        assert!(Condition::Jge.taken(FLAG_N | FLAG_V));
        assert!(Condition::Jl.taken(FLAG_N));
        assert!(Condition::Jl.taken(FLAG_V));
    }

    #[test]
    fn format2_decode() {
        assert_eq!(Format2Op::from_bits(0), Some(Format2Op::Rrc));
        assert_eq!(Format2Op::from_bits(5), Some(Format2Op::Call));
        assert_eq!(Format2Op::from_bits(6), None);
        assert_eq!(Format2Op::from_bits(7), None);
        assert_eq!(Insn::decode(0x1300), Some(Insn::Reti));
        assert_eq!(Insn::decode(0x1380), None);
    }

    /// The decodable set, written out by hand: jumps (top nibble 0x2–0x3),
    /// format I (0x4–0xF), and format II (0x1) unless bits 9:7 are all set.
    fn decodable(word: u16) -> bool {
        match word >> 12 {
            0x2..=0xF => true,
            0x1 => (word >> 7) & 0x7 != 0x7,
            _ => false,
        }
    }

    #[test]
    fn decode_accepts_exactly_the_implemented_subset() {
        for word in 0..=u16::MAX {
            assert_eq!(Insn::decode(word).is_some(), decodable(word), "{word:#06x}");
        }
    }

    #[test]
    fn extension_words_and_cycles_follow_the_addressing_forms() {
        let cost = |word: u16| {
            let insn = Insn::decode(word).expect("decodes");
            (insn.ext_words(), insn.cycles())
        };
        // Format I: 1 cycle, plus the source (0 for a register or constant
        // generator; 1 for @Rn, @Rn+ or #N; 2 for X(Rn) or &A), plus 3 for
        // a memory destination, plus 1 when a writing op targets PC. The
        // columns are `mov src, r4`, `mov src, pc`, `cmp src, pc`,
        // `mov src, &A` and `mov src, X(r4)`, as (extension words, cycles).
        const COLUMNS: [u16; 5] = [0x4004, 0x4000, 0x9000, 0x4082, 0x4084];
        type Row = (&'static str, u16, [(u16, u32); 5]);
        #[rustfmt::skip]
        const FMT1: [Row; 11] = [
            ("#0 (r3)",  0x0300, [(0, 1), (0, 2), (0, 1), (1, 4), (1, 4)]),
            ("#-1 (r3)", 0x0330, [(0, 1), (0, 2), (0, 1), (1, 4), (1, 4)]),
            ("#4 (sr)",  0x0220, [(0, 1), (0, 2), (0, 1), (1, 4), (1, 4)]),
            ("r5",       0x0500, [(0, 1), (0, 2), (0, 1), (1, 4), (1, 4)]),
            ("pc",       0x0000, [(0, 1), (0, 2), (0, 1), (1, 4), (1, 4)]),
            ("&A",       0x0210, [(1, 3), (1, 4), (1, 3), (2, 6), (2, 6)]),
            ("X(r5)",    0x0510, [(1, 3), (1, 4), (1, 3), (2, 6), (2, 6)]),
            ("X(pc)",    0x0010, [(1, 3), (1, 4), (1, 3), (2, 6), (2, 6)]),
            ("@r5",      0x0520, [(0, 2), (0, 3), (0, 2), (1, 5), (1, 5)]),
            ("@r5+",     0x0530, [(0, 2), (0, 3), (0, 2), (1, 5), (1, 5)]),
            ("#N",       0x0030, [(1, 2), (1, 3), (1, 2), (2, 5), (2, 5)]),
        ];
        for (name, src, columns) in FMT1 {
            for (op_dst, expected) in COLUMNS.iter().zip(columns) {
                let word = op_dst | src;
                assert_eq!(cost(word), expected, "{name}: {word:#06x}");
            }
        }
        // Format II: 1 cycle (`push` 3, `call` 4) plus the source; `reti`
        // costs 5 and a jump 2. As (word, extension words, cycles).
        #[rustfmt::skip]
        const OTHERS: [(&str, u16, u16, u32); 23] = [
            ("rrc r5",     0x1005, 0, 1),
            ("swpb r5",    0x1085, 0, 1),
            ("rra r5",     0x1105, 0, 1),
            ("sxt r5",     0x1185, 0, 1),
            ("rrc &A",     0x1012, 1, 3),
            ("rra @r5+",   0x1135, 0, 2),
            ("push #0",    0x1203, 0, 3),
            ("push r5",    0x1205, 0, 3),
            ("push &A",    0x1212, 1, 5),
            ("push X(r5)", 0x1215, 1, 5),
            ("push @r5",   0x1225, 0, 4),
            ("push @r5+",  0x1235, 0, 4),
            ("push #N",    0x1230, 1, 4),
            ("call #0",    0x1283, 0, 4),
            ("call r5",    0x1285, 0, 4),
            ("call &A",    0x1292, 1, 6),
            ("call X(r5)", 0x1295, 1, 6),
            ("call @r5",   0x12A5, 0, 5),
            ("call @r5+",  0x12B5, 0, 5),
            ("call #N",    0x12B0, 1, 5),
            ("reti",       0x1300, 0, 5),
            ("jnz $+2",    0x2000, 0, 2),
            ("jmp $",      0x3FFF, 0, 2),
        ];
        for (name, word, ext, cycles) in OTHERS {
            assert_eq!(cost(word), (ext, cycles), "{name}: {word:#06x}");
        }
    }
}
