//! Disassembler for the MSP430 subset — the inverse of [`asm`](crate::asm).
//!
//! Renders instructions in exactly the syntax the assembler accepts, so
//! `assemble(disassemble(code))` reproduces the original bytes for any
//! image the assembler produced (constant-generator immediates included).
//! Used by the firmware tests as a round-trip oracle and handy when
//! debugging emulated programs.

use crate::isa::{Condition, Dst, Format1Op, Format2Op, Insn, Src};
use crate::memory::FlatMemory;

/// One decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Address the instruction was fetched from.
    pub address: u16,
    /// Total size in bytes (2, 4, or 6).
    pub size: u16,
    /// Assembler-syntax rendering (`mov #0x1234, r4`).
    pub text: String,
}

/// Errors from [`decode_one`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndecodableWord {
    /// The word that did not decode.
    pub word: u16,
    /// Where it was fetched from.
    pub at: u16,
}

impl core::fmt::Display for UndecodableWord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "undecodable word {:#06x} at {:#06x}", self.word, self.at)
    }
}

impl std::error::Error for UndecodableWord {}

fn reg_name(r: u8) -> String {
    match r {
        0 => "pc".into(),
        1 => "sp".into(),
        2 => "sr".into(),
        n => format!("r{n}"),
    }
}

fn mnemonic1(op: Format1Op) -> &'static str {
    match op {
        Format1Op::Mov => "mov",
        Format1Op::Add => "add",
        Format1Op::Addc => "addc",
        Format1Op::Subc => "subc",
        Format1Op::Sub => "sub",
        Format1Op::Cmp => "cmp",
        Format1Op::Dadd => "dadd",
        Format1Op::Bit => "bit",
        Format1Op::Bic => "bic",
        Format1Op::Bis => "bis",
        Format1Op::Xor => "xor",
        Format1Op::And => "and",
    }
}

fn mnemonic2(op: Format2Op) -> &'static str {
    match op {
        Format2Op::Rrc => "rrc",
        Format2Op::Swpb => "swpb",
        Format2Op::Rra => "rra",
        Format2Op::Sxt => "sxt",
        Format2Op::Push => "push",
        Format2Op::Call => "call",
    }
}

fn cond_name(c: Condition) -> &'static str {
    match c {
        Condition::Jnz => "jnz",
        Condition::Jz => "jz",
        Condition::Jnc => "jnc",
        Condition::Jc => "jc",
        Condition::Jn => "jn",
        Condition::Jge => "jge",
        Condition::Jl => "jl",
        Condition::Jmp => "jmp",
    }
}

/// Renders a source operand whose extension word, if it has one, is `x`.
fn render_src(src: Src, x: u16) -> String {
    match src {
        // Constant generators round-trip through the `#k` syntax.
        Src::Const(v) => format!("#{}", v as i16),
        Src::Reg(r) => reg_name(r),
        Src::Absolute => format!("&{x:#06x}"),
        Src::Indexed(r) => format!("{x:#06x}({})", reg_name(r)),
        Src::Indirect(r) => format!("@{}", reg_name(r)),
        Src::AutoInc(r) => format!("@{}+", reg_name(r)),
        Src::Immediate => format!("#{x:#06x}"),
    }
}

/// Decodes the instruction at `addr`.
///
/// # Errors
///
/// Returns [`UndecodableWord`] for words outside the implemented subset.
pub fn decode_one(mem: &FlatMemory, addr: u16) -> Result<Decoded, UndecodableWord> {
    let word = mem.read16(addr);
    let insn = Insn::decode(word).ok_or(UndecodableWord { word, at: addr })?;
    let next = addr.wrapping_add(2);
    // The `i`-th extension word.
    let ext = |i: u16| mem.read16(next.wrapping_add(2 * i));
    let suffix = |byte: bool| if byte { ".b" } else { "" };
    let text = match insn {
        Insn::Jump { cond, offset } => {
            let target = next.wrapping_add_signed(2 * offset);
            format!("{} {target:#06x}", cond_name(cond))
        }
        Insn::Reti => "reti".into(),
        Insn::Fmt2 { op, byte, src, .. } => {
            let src = render_src(src, ext(0));
            format!("{}{} {src}", mnemonic2(op), suffix(byte))
        }
        Insn::Fmt1 { op, byte, src, dst } => {
            let x = ext(src.ext_words());
            let dst = match dst {
                Dst::Reg(r) => reg_name(r),
                Dst::Absolute => format!("&{x:#06x}"),
                Dst::Indexed(r) => format!("{x:#06x}({})", reg_name(r)),
            };
            let src = render_src(src, ext(0));
            format!("{}{} {src}, {dst}", mnemonic1(op), suffix(byte))
        }
    };
    Ok(Decoded {
        address: addr,
        size: 2 + 2 * insn.ext_words(),
        text,
    })
}

/// Disassembles `[start, start + len)` into a listing. Stops early at an
/// undecodable word, returning what was decoded plus the error.
pub fn disassemble_range(
    mem: &FlatMemory,
    start: u16,
    len: u16,
) -> (Vec<Decoded>, Option<UndecodableWord>) {
    let mut out = Vec::new();
    let mut addr = start;
    let end = start.wrapping_add(len);
    while addr < end {
        match decode_one(mem, addr) {
            Ok(d) => {
                addr = addr.wrapping_add(d.size);
                out.push(d);
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

/// Renders a listing back into assembler-acceptable source, prefixed by an
/// `.org` for the start address.
pub fn to_source(listing: &[Decoded]) -> String {
    let mut src = String::new();
    if let Some(first) = listing.first() {
        src.push_str(&format!(".org {:#06x}\n", first.address));
    }
    for d in listing {
        src.push_str(&d.text);
        src.push('\n');
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn memory_with(src: &str) -> FlatMemory {
        let img = assemble(src).expect("test source assembles");
        let mut mem = FlatMemory::new();
        mem.load(&img);
        mem
    }

    #[test]
    fn decodes_the_basic_forms() {
        let mem = memory_with(
            ".org 0xF000\n\
             mov #0x1234, r4\n\
             add.b @r5+, r6\n\
             cmp 2(r4), &0x0200\n\
             push r7\n\
             call #0xF100\n\
             reti\n\
             jnz 0xF000\n",
        );
        let (listing, err) = disassemble_range(&mem, 0xF000, 22);
        assert!(err.is_none(), "{err:?}");
        let texts: Vec<&str> = listing.iter().map(|d| d.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "mov #0x1234, r4",
                "add.b @r5+, r6",
                "cmp 0x0002(r4), &0x0200",
                "push r7",
                "call #0xf100",
                "reti",
                "jnz 0xf000",
            ]
        );
    }

    #[test]
    fn constant_generators_render_as_immediates() {
        let mem = memory_with(".org 0xF000\nmov #0, r4\nmov #1, r4\nmov #2, r4\nmov #4, r4\nmov #8, r4\nmov #-1, r4\n");
        let (listing, _) = disassemble_range(&mem, 0xF000, 12);
        let texts: Vec<&str> = listing.iter().map(|d| d.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "mov #0, r4",
                "mov #1, r4",
                "mov #2, r4",
                "mov #4, r4",
                "mov #8, r4",
                "mov #-1, r4"
            ]
        );
    }

    #[test]
    fn firmware_round_trips_bit_exact() {
        // The canonical oracle: disassemble the stock firmware's code
        // segment, reassemble the listing, compare bytes.
        for image in [
            crate::firmware::tpms_app(0x42).unwrap(),
            crate::firmware::motion_app(7).unwrap(),
        ] {
            let code = image
                .segments()
                .iter()
                .find(|(org, _)| *org == 0xF000)
                .expect("firmware code segment");
            let mut mem = FlatMemory::new();
            mem.load(&image);
            let (listing, err) = disassemble_range(&mem, 0xF000, code.1.len() as u16);
            assert!(err.is_none(), "firmware must fully decode: {err:?}");
            let src = to_source(&listing);
            let rebuilt = assemble(&src).expect("disassembly must reassemble");
            let rebuilt_code = rebuilt
                .segments()
                .iter()
                .find(|(org, _)| *org == 0xF000)
                .expect("rebuilt code segment");
            assert_eq!(rebuilt_code.1, code.1, "round-trip must be bit-exact");
        }
    }

    #[test]
    fn undecodable_word_reported_with_address() {
        let mem = FlatMemory::new(); // all zeros: opcode 0 is invalid
        let e = decode_one(&mem, 0x0200).unwrap_err();
        assert_eq!(e.word, 0);
        assert_eq!(e.at, 0x0200);
        assert!(format!("{e}").contains("0x0200"));
    }

    #[test]
    fn jump_targets_resolve_backwards_and_forwards() {
        let mem = memory_with(".org 0xF000\nstart: nop\njmp start\njmp fwd\nfwd: nop\n");
        let (listing, _) = disassemble_range(&mem, 0xF000, 8);
        assert_eq!(listing[1].text, "jmp 0xf000");
        assert_eq!(listing[2].text, "jmp 0xf006");
    }

    #[test]
    fn sizes_account_for_extension_words() {
        let mem = memory_with(".org 0xF000\nmov 2(r4), 4(r5)\n");
        let d = decode_one(&mem, 0xF000).unwrap();
        assert_eq!(d.size, 6);
    }
}
