//! A two-pass assembler for the MSP430 subset.
//!
//! Keeps firmware readable in tests, examples and the stock
//! [`firmware`](crate::firmware) images. Supported syntax:
//!
//! ```text
//!         .org 0xF000          ; set the location counter
//!         .equ LED, 0x01       ; named constant
//! start:  mov #0x0A00, sp      ; labels, immediates, register names
//!         mov.b #LED, &0x0021  ; byte ops, absolute addressing
//! loop:   dec r4               ; emulated instructions
//!         jnz loop             ; jumps to labels
//!         .word 0x1234         ; literal data
//!         .vector reset, start ; interrupt vector entries
//! ```
//!
//! Operand forms: `rN`/`pc`/`sp`/`sr`, `#imm`, `&abs`, `X(rN)`, `@rN`,
//! `@rN+`, and bare labels (for jump targets and as absolute addresses in
//! data contexts). Immediates in the constant-generator set
//! (0, 1, 2, 4, 8, −1) assemble to single-word instructions, as on the
//! real part.
//!
//! The instruction format lives in `isa.rs`: each line becomes one
//! `Insn`, whose `ext_words` sizes it and whose `encode` is the word
//! emitted before its extension words, and mnemonics and register names
//! come from `isa.rs`'s tables. A source operand is accepted only where the
//! decoder reads its register field and mode back as the form written, so
//! the six forms that select a constant generator or an immediate instead
//! are line-numbered errors: `X(r3)`, `@r2`, `@r2+`, `@r3`, `@r3+` (also
//! spelled with `sr`) and `@pc+`.

use crate::isa::{register, Condition, Dst, Format1Op, Format2Op, Insn, Src};
use crate::memory::{vectors, Image};
use std::collections::HashMap;

/// An assembly failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

type Result<T> = core::result::Result<T, AsmError>;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// Assembles source text into a loadable [`Image`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line for syntax errors,
/// unknown mnemonics or symbols (in `.equ` too), operand forms with no
/// encoding, out-of-range jumps, code past the top of memory, and misuse
/// of directives.
pub fn assemble(source: &str) -> Result<Image> {
    let lines = parse_lines(source)?;
    let symbols = layout(&lines, &HashMap::new())?;
    // Second layout pass with symbols known lets `.equ` of labels resolve;
    // then emit.
    let symbols = layout(&lines, &symbols)?;
    emit(&lines, &symbols)
}

#[derive(Debug, Clone)]
enum Item {
    Org(String),
    Equ(String, String),
    Word(String),
    Byte(String),
    /// A vector's table address and the expression of its handler.
    Vector(u16, String),
    Insn(Op),
}

/// An instruction with its operation looked up and its operands' forms
/// parsed; only expressions wait for the symbols.
#[derive(Debug, Clone)]
enum Op {
    Jump(Condition, String),
    Reti,
    Fmt2(Format2Op, bool, Operand),
    Fmt1(Format1Op, bool, Operand, (Dst, Option<String>)),
}

/// A source operand: its form, and the expression of its extension word.
/// `#expr` is `Src::Immediate` until `expr` resolves.
#[derive(Debug, Clone)]
struct Operand {
    src: Src,
    expr: Option<String>,
}

#[derive(Debug, Clone)]
struct Line {
    number: usize,
    label: Option<String>,
    item: Option<Item>,
}

fn parse_lines(source: &str) -> Result<Vec<Line>> {
    let mut out = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let (label, rest) = match text.split_once(':') {
            Some((l, r)) if is_ident(l.trim()) => (Some(l.trim().to_string()), r.trim()),
            _ => (None, text),
        };
        let item = if rest.is_empty() {
            None
        } else if let Some(dir) = rest.strip_prefix('.') {
            let (name, args) = dir.split_once(char::is_whitespace).unwrap_or((dir, ""));
            let args = args.trim();
            let pair = |what: &str| match args.split_once(',') {
                Some((n, v)) => Ok((n.trim().to_string(), v.trim().to_string())),
                None => err(number, format!(".{what} needs NAME, VALUE")),
            };
            Some(match name.to_ascii_lowercase().as_str() {
                "org" => Item::Org(args.to_string()),
                "word" => Item::Word(args.to_string()),
                "byte" => Item::Byte(args.to_string()),
                "equ" => {
                    let (name, value) = pair("equ")?;
                    Item::Equ(name, value)
                }
                "vector" => {
                    let (name, target) = pair("vector")?;
                    Item::Vector(vector_address(&name.to_ascii_lowercase(), number)?, target)
                }
                other => return err(number, format!("unknown directive .{other}")),
            })
        } else {
            let (mn, args) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let mn = mn.to_ascii_lowercase();
            let (mnemonic, byte) = match mn.strip_suffix(".b") {
                Some(stem) => (stem, true),
                None => (mn.strip_suffix(".w").unwrap_or(&mn), false),
            };
            let operands: Vec<String> = split_operands(args)
                .into_iter()
                .map(|s| s.trim().to_string())
                .collect();
            // Desugar emulated mnemonics and parse the operand forms once
            // here, not in every pass: layout runs twice and emit once.
            let (mnemonic, operands) = desugar(mnemonic, &operands);
            let op = parse_op(&mnemonic, byte, &operands).map_err(|message| AsmError {
                line: number,
                message,
            })?;
            Some(Item::Insn(op))
        };
        out.push(Line {
            number,
            label,
            item,
        });
    }
    Ok(out)
}

/// Splits an operand list on commas that are not inside parentheses.
fn split_operands(args: &str) -> Vec<&str> {
    let args = args.trim();
    if args.is_empty() {
        return Vec::new();
    }
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in args.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&args[start..]);
    parts
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The register field, addressing mode (the As bits) and extension-word
/// expression an operand's syntax names: `rN` (mode 0), `X(rN)`, `&X` and
/// a bare label (mode 1; `&X` and labels on R2), `@rN` (2), `@rN+` (3)
/// and `#X` (3 on PC).
fn syntax(text: &str) -> Option<(u8, u16, Option<&str>)> {
    if let Some(reg) = register(text) {
        return Some((reg, 0, None));
    }
    if let Some(expr) = text.strip_prefix('#') {
        return Some((0, 3, Some(expr)));
    }
    if let Some(expr) = text.strip_prefix('&') {
        return Some((2, 1, Some(expr)));
    }
    if let Some(reg) = text.strip_prefix('@') {
        return match reg.strip_suffix('+') {
            Some(reg) => Some((register(reg)?, 3, None)),
            None => Some((register(reg)?, 2, None)),
        };
    }
    if let Some((expr, reg)) = text.split_once('(') {
        return Some((register(reg.strip_suffix(')')?)?, 1, Some(expr)));
    }
    is_ident(text).then_some((2, 1, Some(text)))
}

/// Parses a source operand into the form the decoder reads its fields as,
/// refusing a form that reads back as something else: R2 and R3 outside
/// register mode are constant generators, and `@pc+` is the immediate
/// form, whose value the operand does not give.
fn source(text: &str) -> core::result::Result<Operand, String> {
    let (reg, mode, expr) = syntax(text).ok_or_else(|| format!("bad operand `{text}`"))?;
    let src = Src::decode(reg, mode);
    match src {
        Src::Const(value) if mode != 0 => Err(format!(
            "`{text}` encodes the constant generator #{}, not the form written",
            value as i16
        )),
        Src::Immediate if expr.is_none() => Err(format!(
            "`{text}` encodes an immediate; write it as `#value`"
        )),
        _ => Ok(Operand {
            src,
            expr: expr.map(str::to_string),
        }),
    }
}

/// Parses a destination operand: a register, or an indexed form with its
/// extension-word expression (absolute on R2).
fn destination(text: &str) -> core::result::Result<(Dst, Option<String>), String> {
    match syntax(text) {
        Some((reg, 0, None)) => Ok((Dst::Reg(reg), None)),
        Some((2, 1, Some(expr))) => Ok((Dst::Absolute, Some(expr.to_string()))),
        Some((reg, 1, Some(expr))) => Ok((Dst::Indexed(reg), Some(expr.to_string()))),
        _ => Err(format!(
            "destination `{text}` must be a register, X(Rn), &abs or label"
        )),
    }
}

/// Looks an instruction's operation up in `isa`'s name tables and parses
/// its operands.
fn parse_op(mnemonic: &str, byte: bool, operands: &[String]) -> core::result::Result<Op, String> {
    if let Some(cond) = Condition::from_name(mnemonic) {
        if let [target] = operands {
            return Ok(Op::Jump(cond, target.clone()));
        }
    } else if let Some(op) = Format2Op::from_name(mnemonic) {
        if let [operand] = operands {
            return Ok(Op::Fmt2(op, byte, source(operand)?));
        }
    } else if let Some(op) = Format1Op::from_name(mnemonic) {
        if let [src, dst] = operands {
            return Ok(Op::Fmt1(op, byte, source(src)?, destination(dst)?));
        }
    } else if mnemonic == "reti" {
        if operands.is_empty() {
            return Ok(Op::Reti);
        }
    } else {
        return Err(format!("unknown mnemonic `{mnemonic}`"));
    }
    Err(format!("wrong number of operands for {mnemonic}"))
}

impl Operand {
    /// The form under `symbols` and the expression of its extension word:
    /// an immediate whose value a constant generator makes has none.
    fn resolve(&self, symbols: &HashMap<String, u16>) -> (Src, Option<&str>) {
        let generated = match (self.src, &self.expr) {
            (Src::Immediate, Some(expr)) => eval(expr, symbols).ok().and_then(Src::constant),
            _ => None,
        };
        match generated {
            Some(src) => (src, None),
            None => (self.src, self.expr.as_deref()),
        }
    }
}

impl Op {
    /// The instruction under `symbols`, and the expressions of its
    /// extension words in order. A jump's offset is left 0: it needs the
    /// jump's final address, which only `emit` knows.
    fn insn(&self, symbols: &HashMap<String, u16>) -> (Insn, [Option<&str>; 2]) {
        match self {
            Op::Jump(cond, _) => (
                Insn::Jump {
                    cond: *cond,
                    offset: 0,
                },
                [None, None],
            ),
            Op::Reti => (Insn::Reti, [None, None]),
            Op::Fmt2(op, byte, operand) => {
                let (src, ext) = operand.resolve(symbols);
                (Insn::fmt2(*op, *byte, src), [ext, None])
            }
            Op::Fmt1(op, byte, operand, (dst, dst_ext)) => {
                let (src, ext) = operand.resolve(symbols);
                let insn = Insn::Fmt1 {
                    op: *op,
                    byte: *byte,
                    src,
                    dst: *dst,
                };
                (insn, [ext, dst_ext.as_deref()])
            }
        }
    }
}

/// Evaluates a constant expression: parts joined by `|`, each of terms
/// joined by `+` (an optional leading `+` is a unary plus), each term a
/// decimal, hex or `'c'` literal or a symbol after any number of unary
/// minus signs. Iterative, so no expression can exhaust the stack.
fn eval(expr: &str, symbols: &HashMap<String, u16>) -> core::result::Result<u16, String> {
    let mut value = 0;
    for part in expr.split('|') {
        let part = part.trim();
        let mut sum = 0u16;
        for term in part.strip_prefix('+').unwrap_or(part).split('+') {
            let mut term = term.trim();
            let mut negate = false;
            while let Some(rest) = term.strip_prefix('-') {
                negate = !negate;
                term = rest.trim_start();
            }
            let v = atom(term, symbols)?;
            sum = sum.wrapping_add(if negate { v.wrapping_neg() } else { v });
        }
        value |= sum;
    }
    Ok(value)
}

/// A literal or symbol's value.
fn atom(text: &str, symbols: &HashMap<String, u16>) -> core::result::Result<u16, String> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        return u16::from_str_radix(hex, 16).map_err(|e| e.to_string());
    }
    if text.starts_with('\'') && text.ends_with('\'') && text.len() == 3 {
        return Ok(text.as_bytes()[1].into());
    }
    if let Ok(v) = text.parse::<u16>() {
        return Ok(v);
    }
    symbols
        .get(text)
        .copied()
        .ok_or_else(|| format!("unknown symbol `{text}`"))
}

/// Rewrites emulated mnemonics into core ones (applied once at parse
/// time). Returns the core mnemonic and operand list; unknown mnemonics
/// pass through unchanged so they are reported by their original
/// spelling.
fn desugar(mnemonic: &str, operands: &[String]) -> (String, Vec<String>) {
    let core = |mn: &str, ops: [&str; 2]| (mn.to_string(), ops.map(str::to_string).to_vec());
    match (mnemonic, operands) {
        ("nop", []) => core("mov", ["r3", "r3"]),
        ("ret", []) => core("mov", ["@sp+", "pc"]),
        ("pop", [dst]) => core("mov", ["@sp+", dst]),
        ("br", [src]) => core("mov", [src, "pc"]),
        ("clr", [dst]) => core("mov", ["#0", dst]),
        ("inc", [dst]) => core("add", ["#1", dst]),
        ("incd", [dst]) => core("add", ["#2", dst]),
        ("dec", [dst]) => core("sub", ["#1", dst]),
        ("decd", [dst]) => core("sub", ["#2", dst]),
        ("tst", [dst]) => core("cmp", ["#0", dst]),
        ("inv", [dst]) => core("xor", ["#-1", dst]),
        ("rla", [dst]) => core("add", [dst, dst]),
        ("eint", []) => core("bis", ["#8", "sr"]),
        ("dint", []) => core("bic", ["#8", "sr"]),
        ("setc", []) => core("bis", ["#1", "sr"]),
        ("clrc", []) => core("bic", ["#1", "sr"]),
        ("setz", []) => core("bis", ["#2", "sr"]),
        ("clrz", []) => core("bic", ["#2", "sr"]),
        _ => (mnemonic.to_string(), operands.to_vec()),
    }
}

/// Assigns every label its address.
fn layout(lines: &[Line], known: &HashMap<String, u16>) -> Result<HashMap<String, u16>> {
    let mut symbols = known.clone();
    let mut pc: u16 = 0;
    for line in lines {
        if let Some(label) = &line.label {
            symbols.insert(label.clone(), pc);
        }
        match &line.item {
            None | Some(Item::Vector(..)) => {}
            Some(Item::Org(expr)) => {
                pc = eval(expr, &symbols).map_err(|m| AsmError {
                    line: line.number,
                    message: m,
                })?;
            }
            Some(Item::Equ(name, expr)) => {
                // A forward reference stays undefined until the second
                // pass, so `#NAME` is sized as a full immediate like a
                // forward label; `emit` reports one that never resolves.
                if let Ok(v) = eval(expr, &symbols) {
                    symbols.insert(name.clone(), v);
                }
            }
            Some(Item::Word(_)) => pc = pc.wrapping_add(2),
            Some(Item::Byte(_)) => pc = pc.wrapping_add(1),
            Some(Item::Insn(op)) => {
                let (insn, _) = op.insn(&symbols);
                pc = pc.wrapping_add(2 + 2 * insn.ext_words());
            }
        }
    }
    Ok(symbols)
}

fn vector_address(name: &str, line: usize) -> Result<u16> {
    Ok(match name {
        "reset" => vectors::RESET,
        "port1" => vectors::PORT1,
        "port2" => vectors::PORT2,
        "spi" => vectors::SPI,
        "timera" => vectors::TIMER_A,
        other => return err(line, format!("unknown vector `{other}`")),
    })
}

/// The offset of a jump at `pc` to `target`, in words from the word after
/// the jump.
fn jump_offset(pc: u16, target: u16) -> core::result::Result<i16, &'static str> {
    let bytes = i32::from(target) - i32::from(pc) - 2;
    if bytes % 2 != 0 {
        return Err("jump target must be word-aligned");
    }
    match i16::try_from(bytes / 2) {
        Ok(offset) if (-512..=511).contains(&offset) => Ok(offset),
        _ => Err("jump out of range (±512 words)"),
    }
}

fn emit(lines: &[Line], symbols: &HashMap<String, u16>) -> Result<Image> {
    let mut image = Image::new();
    let mut pc: u16 = 0;
    let mut current: Vec<u8> = Vec::new();
    let mut current_org: u16 = 0;
    let mut vectors_out: Vec<(u16, u16)> = Vec::new();
    // One line's bytes.
    let mut bytes: Vec<u8> = Vec::new();

    let flush = |image: &mut Image, current: &mut Vec<u8>, org: u16| {
        if !current.is_empty() {
            image.push_segment(org, std::mem::take(current));
        }
    };

    for line in lines {
        let ev = |expr: &str| {
            eval(expr, symbols).map_err(|message| AsmError {
                line: line.number,
                message,
            })
        };
        bytes.clear();
        match &line.item {
            None => continue,
            Some(Item::Equ(_, expr)) => {
                ev(expr)?;
                continue;
            }
            Some(Item::Org(expr)) => {
                flush(&mut image, &mut current, current_org);
                pc = ev(expr)?;
                current_org = pc;
                continue;
            }
            Some(Item::Vector(addr, target)) => {
                vectors_out.push((*addr, ev(target)?));
                continue;
            }
            Some(Item::Word(expr)) => bytes.extend_from_slice(&ev(expr)?.to_le_bytes()),
            Some(Item::Byte(expr)) => bytes.push(ev(expr)? as u8),
            Some(Item::Insn(op)) => {
                let (mut insn, exts) = op.insn(symbols);
                if let Op::Jump(cond, target) = op {
                    let offset = jump_offset(pc, ev(target)?).or_else(|m| err(line.number, m))?;
                    insn = Insn::Jump {
                        cond: *cond,
                        offset,
                    };
                }
                bytes.extend_from_slice(&insn.encode().to_le_bytes());
                for expr in exts.into_iter().flatten() {
                    bytes.extend_from_slice(&ev(expr)?.to_le_bytes());
                }
            }
        }
        if usize::from(current_org) + current.len() + bytes.len() > 0x1_0000 {
            return err(line.number, "code runs past 0xFFFF, the top of memory");
        }
        current.extend_from_slice(&bytes);
        pc = pc.wrapping_add(bytes.len() as u16);
    }
    flush(&mut image, &mut current, current_org);
    for (addr, value) in vectors_out {
        image.push_segment(addr, value.to_le_bytes().to_vec());
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_known_opcodes() {
        // mov #0x1234, r4 => 0x4034 ext 0x1234 (As=11 on PC).
        let img = assemble(".org 0xF000\nmov #0x1234, r4\n").unwrap();
        let bytes = &img.segments()[0].1;
        assert_eq!(bytes, &vec![0x34, 0x40, 0x34, 0x12]);
    }

    #[test]
    fn constant_generator_immediates_are_single_word() {
        for imm in ["#0", "#1", "#2", "#4", "#8", "#-1"] {
            let src = format!(".org 0xF000\nmov {imm}, r4\n");
            let img = assemble(&src).unwrap();
            assert_eq!(img.segments()[0].1.len(), 2, "imm {imm}");
        }
        let img = assemble(".org 0xF000\nmov #3, r4\n").unwrap();
        assert_eq!(img.segments()[0].1.len(), 4);
    }

    #[test]
    fn labels_and_jumps() {
        let img = assemble(".org 0xF000\nstart: dec r4\njnz start\n").unwrap();
        let bytes = &img.segments()[0].1;
        // dec = sub #1, r4 (constant generator): 0x8314 | dst 4 => 0x8314.
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), 0x8314);
        // jnz start: offset = (0xF000 - 0xF002 - 2)/2 = -2 => 0x3FE masked.
        let jw = u16::from_le_bytes([bytes[2], bytes[3]]);
        assert_eq!(jw & 0xE000, 0x2000);
        assert_eq!(jw & 0x3FF, 0x3FE);
    }

    #[test]
    fn vectors_are_emitted() {
        let img =
            assemble(".org 0xF000\nstart: jmp start\n.vector reset, start\n.vector port1, start\n")
                .unwrap();
        let segs = img.segments();
        assert!(segs
            .iter()
            .any(|(org, b)| *org == 0xFFFE && b == &vec![0x00, 0xF0]));
        assert!(segs
            .iter()
            .any(|(org, b)| *org == 0xFFE8 && b == &vec![0x00, 0xF0]));
    }

    #[test]
    fn equ_and_or_expressions() {
        let img =
            assemble(".equ LPM3, 0x00D0\n.equ GIE, 8\n.org 0xF000\nbis #LPM3|GIE, sr\n").unwrap();
        let bytes = &img.segments()[0].1;
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 0x00D8);
    }

    #[test]
    fn byte_suffix_sets_bw() {
        let img = assemble(".org 0xF000\nmov.b #0x12, r4\n").unwrap();
        let w = u16::from_le_bytes([img.segments()[0].1[0], img.segments()[0].1[1]]);
        assert_ne!(w & 0x0040, 0);
    }

    #[test]
    fn forward_references_resolve() {
        let img =
            assemble(".org 0xF000\nmov #later, r4\njmp skip\nlater: .word 7\nskip: nop\n").unwrap();
        let bytes = &img.segments()[0].1;
        // mov #later: later = 0xF000 + 6.
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 0xF006);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".org 0xF000\nmov #1, r4\nbogus r4\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
        let e = assemble(".org 0xF000\njmp nowhere\n").unwrap_err();
        assert!(e.message.contains("unknown symbol"));
    }

    #[test]
    fn jump_range_checked() {
        let mut src = String::from(".org 0xF000\nstart: nop\n");
        for _ in 0..600 {
            src.push_str("nop\n");
        }
        src.push_str("jmp start\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn emulated_mnemonics() {
        let img =
            assemble(".org 0xF000\nnop\nret\nclr r4\ninc r4\ntst r4\neint\ndint\nclrc\n").unwrap();
        // All emulated forms use constant generators: single words.
        assert_eq!(img.segments()[0].1.len(), 16);
    }

    #[test]
    fn indexed_operands_both_sides() {
        let img = assemble(".org 0xF000\nmov 2(r4), 4(r5)\n").unwrap();
        assert_eq!(img.segments()[0].1.len(), 6); // op + two extensions
    }

    #[test]
    fn sources_past_the_top_of_memory_fail_typed() {
        let e = assemble(".org 0xFFFE\nmov #0x1234, r4\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        let e = assemble(".org 0xFFFF\n.word 1\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("0xFFFF"), "{e}");
        // A full image ends exactly at the top and assembles.
        let src = format!(".org 0\n{}", ".word 0\n".repeat(32_768));
        let img = assemble(&src).expect("a full 64 KiB image assembles");
        assert_eq!(img.len(), 0x1_0000);
    }

    /// The words `line` assembles to at 0xF000, after a data word `value`
    /// at 0x0200.
    fn words(line: &str) -> Result<Vec<u16>> {
        let img = assemble(&format!(
            ".org 0x0200\nvalue: .word 0\n.org 0xF000\n{line}\n"
        ))?;
        let (_, code) = img
            .segments()
            .iter()
            .find(|(org, _)| *org == 0xF000)
            .expect("code segment");
        Ok(code
            .chunks(2)
            .map(|pair| u16::from_le_bytes([pair[0], pair[1]]))
            .collect())
    }

    #[test]
    fn every_accepted_form_decodes_as_written() {
        use crate::isa::{Condition, Dst, Format1Op, Format2Op, Insn, Src};
        // Each source form, the `Src` it must decode as, the register
        // field that carries it and its extension word, if any.
        #[rustfmt::skip]
        const SOURCES: [(&str, Src, u8, Option<u16>); 25] = [
            ("r5",      Src::Reg(5),          5, None),
            ("pc",      Src::Reg(0),          0, None),
            ("sp",      Src::Reg(1),          1, None),
            ("sr",      Src::Reg(2),          2, None),
            ("r3",      Src::Const(0),        3, None),
            ("#0",      Src::Const(0),        3, None),
            ("#1",      Src::Const(1),        3, None),
            ("#2",      Src::Const(2),        3, None),
            ("#4",      Src::Const(4),        2, None),
            ("#8",      Src::Const(8),        2, None),
            ("#-1",     Src::Const(0xFFFF),   3, None),
            ("#0xFFFF", Src::Const(0xFFFF),   3, None),
            ("#0x1234", Src::Immediate,       0, Some(0x1234)),
            ("#value",  Src::Immediate,       0, Some(0x0200)),
            ("&0x0204", Src::Absolute,        2, Some(0x0204)),
            ("value",   Src::Absolute,        2, Some(0x0200)),
            ("4(r5)",   Src::Indexed(5),      5, Some(4)),
            ("4(pc)",   Src::Indexed(0),      0, Some(4)),
            ("4(sp)",   Src::Indexed(1),      1, Some(4)),
            ("4(sr)",   Src::Absolute,        2, Some(4)),
            ("@r5",     Src::Indirect(5),     5, None),
            ("@pc",     Src::Indirect(0),     0, None),
            ("@r5+",    Src::AutoInc(5),      5, None),
            ("@sp+",    Src::AutoInc(1),      1, None),
            ("@r15+",   Src::AutoInc(15),    15, None),
        ];
        #[rustfmt::skip]
        const DESTINATIONS: [(&str, Dst, Option<u16>); 9] = [
            ("r4",      Dst::Reg(4),     None),
            ("pc",      Dst::Reg(0),     None),
            ("sr",      Dst::Reg(2),     None),
            ("r3",      Dst::Reg(3),     None),
            ("&0x0206", Dst::Absolute,   Some(0x0206)),
            ("value",   Dst::Absolute,   Some(0x0200)),
            ("6(r5)",   Dst::Indexed(5), Some(6)),
            ("6(pc)",   Dst::Indexed(0), Some(6)),
            ("6(r3)",   Dst::Indexed(3), Some(6)),
        ];
        #[rustfmt::skip]
        const FORMAT1: [(&str, Format1Op); 12] = [
            ("mov", Format1Op::Mov), ("add", Format1Op::Add), ("addc", Format1Op::Addc),
            ("subc", Format1Op::Subc), ("sub", Format1Op::Sub), ("cmp", Format1Op::Cmp),
            ("dadd", Format1Op::Dadd), ("bit", Format1Op::Bit), ("bic", Format1Op::Bic),
            ("bis", Format1Op::Bis), ("xor", Format1Op::Xor), ("and", Format1Op::And),
        ];
        #[rustfmt::skip]
        const FORMAT2: [(&str, Format2Op); 6] = [
            ("rrc", Format2Op::Rrc), ("swpb", Format2Op::Swpb), ("rra", Format2Op::Rra),
            ("sxt", Format2Op::Sxt), ("push", Format2Op::Push), ("call", Format2Op::Call),
        ];
        let check = |line: &str, expected: Insn, ext: Vec<u16>| {
            let words = words(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(Insn::decode(words[0]), Some(expected), "`{line}`");
            assert_eq!(usize::from(expected.ext_words()), ext.len(), "`{line}`");
            assert_eq!(words[1..], ext, "`{line}` extension words");
        };
        for (byte, suffix) in [(false, ""), (true, ".b")] {
            for (src_text, src, reg, src_ext) in SOURCES {
                for (name, op) in FORMAT2 {
                    let expected = Insn::Fmt2 { op, byte, reg, src };
                    check(
                        &format!("{name}{suffix} {src_text}"),
                        expected,
                        src_ext.into_iter().collect(),
                    );
                }
                for (dst_text, dst, dst_ext) in DESTINATIONS {
                    for (name, op) in FORMAT1 {
                        let expected = Insn::Fmt1 { op, byte, src, dst };
                        let ext = src_ext.into_iter().chain(dst_ext).collect();
                        check(
                            &format!("{name}{suffix} {src_text}, {dst_text}"),
                            expected,
                            ext,
                        );
                    }
                }
            }
        }
        #[rustfmt::skip]
        const JUMPS: [(&str, Condition); 12] = [
            ("jnz", Condition::Jnz), ("jne", Condition::Jnz), ("jz", Condition::Jz),
            ("jeq", Condition::Jz), ("jnc", Condition::Jnc), ("jlo", Condition::Jnc),
            ("jc", Condition::Jc), ("jhs", Condition::Jc), ("jn", Condition::Jn),
            ("jge", Condition::Jge), ("jl", Condition::Jl), ("jmp", Condition::Jmp),
        ];
        for (name, cond) in JUMPS {
            check(
                &format!("{name} 0xF000"),
                Insn::Jump { cond, offset: -1 },
                vec![],
            );
            check(
                &format!("{name} 0xF400"),
                Insn::Jump { cond, offset: 511 },
                vec![],
            );
        }
        check("reti", Insn::Reti, vec![]);

        // Forms whose encoding the decoder reads as something else: a
        // constant generator (R2 and R3 in their other modes) or, for
        // `@pc+`, an immediate whose extension word the source never gave.
        for form in [
            "4(r3)", "@r2", "@sr", "@r2+", "@sr+", "@r3", "@r3+", "@pc+", "@r0+",
        ] {
            for line in [format!("mov {form}, r4"), format!("push {form}")] {
                let e = words(&line).expect_err(&line);
                assert_eq!(e.line, 4, "`{line}`: {e}");
                assert!(e.message.contains(form), "`{line}`: {e}");
            }
        }
    }

    #[test]
    fn equ_of_an_unknown_symbol_fails_on_its_line() {
        let e = assemble(".equ X, NOPE\n.org 0xF000\nmov #X, r4\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.message.contains("unknown symbol `NOPE`"), "{e}");
        // An unused `.equ` is still checked.
        let e = assemble(".org 0xF000\nnop\n.equ Y, 1+MISSING\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // A forward reference to a label resolves in the second pass.
        let img = assemble(".equ X, later\n.org 0xF000\nmov #X, r4\nlater: nop\n").unwrap();
        let bytes = &img.segments()[0].1;
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), 0xF004);
    }

    #[test]
    fn long_expressions_evaluate_without_recursion() {
        // Each operator once cost a stack frame: 10,000 minus signs
        // overflowed a test thread's stack and aborted the process.
        let src = format!(".org 0xF000\nmov #{}1, r4\n", "-".repeat(100_000));
        assert_eq!(assemble(&src).unwrap().segments()[0].1, [0x14, 0x43]);
        let src = format!(".org 0xF000\nmov #1{}, r4\n", "+1".repeat(100_000));
        let img = assemble(&src).unwrap();
        let code = &img.segments()[0].1;
        assert_eq!(u16::from_le_bytes([code[2], code[3]]), 100_001u32 as u16);
        let e = assemble(&format!(
            ".org 0xF000\nmov #1{}|, r4\n",
            "|2".repeat(100_000)
        ));
        assert_eq!(e.unwrap_err().line, 2);
        // Unary signs and spacing read as before.
        let img =
            assemble(".equ A, 0x10\n.org 0xF000\n.word +5\n.word - -A + 1 | 0x100\n").unwrap();
        assert_eq!(img.segments()[0].1, [5, 0, 0x11, 0x01]);
    }

    #[test]
    fn reversed_parentheses_fail_typed() {
        // Each once sliced its register name out of `)...(` and panicked.
        for (line, operand) in [
            ("push )(", ")("),
            ("mov r4, )1(r5", ")1(r5"),
            ("mov #1, )(", ")("),
        ] {
            let e = assemble(&format!(".org 0xF000\n{line}\n")).expect_err(line);
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains(operand), "{e}");
        }
    }

    #[test]
    fn bare_label_is_absolute_reference() {
        let img = assemble(".org 0x0200\nvalue: .word 0\n.org 0xF000\nmov #7, value\n").unwrap();
        // Source extension (#7) comes first, then the destination's
        // absolute address extension.
        let code = img
            .segments()
            .iter()
            .find(|(org, _)| *org == 0xF000)
            .unwrap();
        assert_eq!(u16::from_le_bytes([code.1[2], code.1[3]]), 7);
        assert_eq!(u16::from_le_bytes([code.1[4], code.1[5]]), 0x0200);
    }
}
