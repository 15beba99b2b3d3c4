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
/// unknown mnemonics or labels, out-of-range jumps, and misuse of
/// directives.
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
    Vector(String, String),
    Insn {
        mnemonic: String,
        byte_mode: bool,
        operands: Vec<String>,
    },
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
            Some(match name.to_ascii_lowercase().as_str() {
                "org" => Item::Org(args.to_string()),
                "word" => Item::Word(args.to_string()),
                "byte" => Item::Byte(args.to_string()),
                "equ" => {
                    let (n, v) = args.split_once(',').ok_or_else(|| AsmError {
                        line: number,
                        message: ".equ needs NAME, VALUE".into(),
                    })?;
                    Item::Equ(n.trim().to_string(), v.trim().to_string())
                }
                "vector" => {
                    let (n, v) = args.split_once(',').ok_or_else(|| AsmError {
                        line: number,
                        message: ".vector needs NAME, LABEL".into(),
                    })?;
                    Item::Vector(n.trim().to_ascii_lowercase(), v.trim().to_string())
                }
                other => return err(number, format!("unknown directive .{other}")),
            })
        } else {
            let (mn, args) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let mn = mn.to_ascii_lowercase();
            let (mnemonic, byte_mode) = match mn.strip_suffix(".b") {
                Some(stem) => (stem.to_string(), true),
                None => (mn.strip_suffix(".w").unwrap_or(&mn).to_string(), false),
            };
            let operands: Vec<String> = split_operands(args)
                .into_iter()
                .map(|s| s.trim().to_string())
                .collect();
            // Desugar emulated mnemonics once here, not in every pass:
            // layout runs twice and emit once, so rewriting at parse time
            // keeps the per-instruction work out of the hot reassembly path
            // (every fleet node assembles its own image).
            let (mnemonic, operands) = desugar(&mnemonic, &operands);
            Some(Item::Insn {
                mnemonic,
                byte_mode,
                operands,
            })
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

/// Register name to index.
fn register(name: &str) -> Option<usize> {
    if name.eq_ignore_ascii_case("pc") {
        return Some(0);
    }
    if name.eq_ignore_ascii_case("sp") {
        return Some(1);
    }
    if name.eq_ignore_ascii_case("sr") {
        return Some(2);
    }
    let n: usize = name.strip_prefix(['r', 'R'])?.parse().ok()?;
    (n < 16).then_some(n)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Register direct.
    Reg(usize),
    /// Indexed / absolute / symbolic: one extension word.
    Indexed { reg: usize, absolute: bool },
    /// Indirect @Rn.
    Indirect(usize),
    /// Indirect autoincrement @Rn+ (also immediate via @PC+).
    AutoIncr(usize),
    /// Immediate handled by a constant generator: zero extension words.
    Const(u16),
    /// General immediate: @PC+ with an extension word.
    Imm,
}

impl Mode {
    fn extension_words(self) -> u16 {
        match self {
            Mode::Indexed { .. } | Mode::Imm => 1,
            _ => 0,
        }
    }
}

/// Parses an operand's addressing *shape* without resolving expressions
/// (expression values are not needed for layout except const-generator
/// immediates, which need the value).
fn operand_mode(op: &str, symbols: &HashMap<String, u16>) -> Option<Mode> {
    let op = op.trim();
    if let Some(r) = register(op) {
        return Some(Mode::Reg(r));
    }
    if let Some(rest) = op.strip_prefix('#') {
        // Constant generator if the value is resolvable now and in-set.
        if let Ok(v) = eval(rest, symbols) {
            if matches!(v, 0 | 1 | 2 | 4 | 8 | 0xFFFF) {
                return Some(Mode::Const(v));
            }
        }
        return Some(Mode::Imm);
    }
    if op.strip_prefix('&').is_some() {
        return Some(Mode::Indexed {
            reg: 2,
            absolute: true,
        });
    }
    if let Some(rest) = op.strip_prefix('@') {
        if let Some(stem) = rest.strip_suffix('+') {
            return register(stem).map(Mode::AutoIncr);
        }
        return register(rest).map(Mode::Indirect);
    }
    if let Some(open) = op.find('(') {
        let close = op.rfind(')')?;
        let reg = register(&op[open + 1..close])?;
        return Some(Mode::Indexed {
            reg,
            absolute: false,
        });
    }
    // Bare symbol: treat as absolute address (assembler convenience; the
    // real toolchain would use symbolic mode).
    is_ident(op).then_some(Mode::Indexed {
        reg: 2,
        absolute: true,
    })
}

/// Evaluates a constant expression: decimal, hex, char, unary minus,
/// symbol, with `|` and `+` combinations.
fn eval(expr: &str, symbols: &HashMap<String, u16>) -> core::result::Result<u16, String> {
    let expr = expr.trim();
    // Lowest-precedence split on `|` then `+` then leading `-`.
    if let Some((a, b)) = split_top(expr, '|') {
        return Ok(eval(a, symbols)? | eval(b, symbols)?);
    }
    if let Some((a, b)) = split_top(expr, '+') {
        return Ok(eval(a, symbols)?.wrapping_add(eval(b, symbols)?));
    }
    if let Some(rest) = expr.strip_prefix('-') {
        return Ok(eval(rest, symbols)?.wrapping_neg());
    }
    if let Some(hex) = expr.strip_prefix("0x").or_else(|| expr.strip_prefix("0X")) {
        return u16::from_str_radix(hex, 16).map_err(|e| e.to_string());
    }
    if expr.starts_with('\'') && expr.ends_with('\'') && expr.len() == 3 {
        return Ok(expr.as_bytes()[1].into());
    }
    if let Ok(v) = expr.parse::<u16>() {
        return Ok(v);
    }
    symbols
        .get(expr)
        .copied()
        .ok_or_else(|| format!("unknown symbol `{expr}`"))
}

fn split_top(expr: &str, sep: char) -> Option<(&str, &str)> {
    // Split at the last top-level separator, skipping a leading sign.
    let bytes = expr.as_bytes();
    for i in (1..expr.len()).rev() {
        if bytes[i] == sep as u8 {
            return Some((&expr[..i], &expr[i + 1..]));
        }
    }
    None
}

const FORMAT1: &[(&str, u16)] = &[
    ("mov", 0x4),
    ("add", 0x5),
    ("addc", 0x6),
    ("subc", 0x7),
    ("sub", 0x8),
    ("cmp", 0x9),
    ("dadd", 0xA),
    ("bit", 0xB),
    ("bic", 0xC),
    ("bis", 0xD),
    ("xor", 0xE),
    ("and", 0xF),
];

const FORMAT2: &[(&str, u16)] = &[
    ("rrc", 0),
    ("swpb", 1),
    ("rra", 2),
    ("sxt", 3),
    ("push", 4),
    ("call", 5),
];

const JUMPS: &[(&str, u16)] = &[
    ("jnz", 0),
    ("jne", 0),
    ("jz", 1),
    ("jeq", 1),
    ("jnc", 2),
    ("jlo", 2),
    ("jc", 3),
    ("jhs", 3),
    ("jn", 4),
    ("jge", 5),
    ("jl", 6),
    ("jmp", 7),
];

/// Rewrites emulated mnemonics into core ones (applied once at parse
/// time). Returns the core mnemonic and operand list; unknown mnemonics
/// pass through unchanged so later passes still report them by their
/// original spelling.
fn desugar(mnemonic: &str, operands: &[String]) -> (String, Vec<String>) {
    let one = |s: &str| vec![s.to_string()];
    match (mnemonic, operands.len()) {
        ("nop", 0) => ("mov".into(), vec!["r3".into(), "r3".into()]),
        ("ret", 0) => ("mov".into(), vec!["@sp+".into(), "pc".into()]),
        ("pop", 1) => ("mov".into(), vec!["@sp+".into(), operands[0].clone()]),
        ("br", 1) => ("mov".into(), vec![operands[0].clone(), "pc".into()]),
        ("clr", 1) => ("mov".into(), vec!["#0".into(), operands[0].clone()]),
        ("inc", 1) => ("add".into(), vec!["#1".into(), operands[0].clone()]),
        ("incd", 1) => ("add".into(), vec!["#2".into(), operands[0].clone()]),
        ("dec", 1) => ("sub".into(), vec!["#1".into(), operands[0].clone()]),
        ("decd", 1) => ("sub".into(), vec!["#2".into(), operands[0].clone()]),
        ("tst", 1) => ("cmp".into(), vec!["#0".into(), operands[0].clone()]),
        ("inv", 1) => ("xor".into(), vec!["#-1".into(), operands[0].clone()]),
        ("rla", 1) => ("add".into(), vec![operands[0].clone(), operands[0].clone()]),
        ("eint", 0) => ("bis".into(), vec!["#8".into(), "sr".into()]),
        ("dint", 0) => ("bic".into(), vec!["#8".into(), "sr".into()]),
        ("setc", 0) => (
            "bis".into(),
            one("#1")[..]
                .to_vec()
                .into_iter()
                .chain(one("sr"))
                .collect(),
        ),
        ("clrc", 0) => ("bic".into(), vec!["#1".into(), "sr".into()]),
        ("setz", 0) => ("bis".into(), vec!["#2".into(), "sr".into()]),
        ("clrz", 0) => ("bic".into(), vec!["#2".into(), "sr".into()]),
        _ => (mnemonic.to_string(), operands.to_vec()),
    }
}

/// Size in bytes of one instruction, given resolvable symbols.
fn insn_size(
    line: usize,
    mnemonic: &str,
    operands: &[String],
    symbols: &HashMap<String, u16>,
) -> Result<u16> {
    let (mn, ops) = (mnemonic, operands);
    if JUMPS.iter().any(|&(m, _)| m == mn) {
        return Ok(2);
    }
    if mn == "reti" {
        return Ok(2);
    }
    if FORMAT2.iter().any(|&(m, _)| m == mn) {
        let m = ops
            .first()
            .and_then(|o| operand_mode(o, symbols))
            .ok_or_else(|| AsmError {
                line,
                message: format!("bad operand for {mn}"),
            })?;
        return Ok(2 + 2 * m.extension_words());
    }
    if FORMAT1.iter().any(|&(m, _)| m == mn) {
        if ops.len() != 2 {
            return err(line, format!("{mn} needs two operands"));
        }
        let s = operand_mode(&ops[0], symbols).ok_or_else(|| AsmError {
            line,
            message: format!("bad source `{}`", ops[0]),
        })?;
        let d = operand_mode(&ops[1], symbols).ok_or_else(|| AsmError {
            line,
            message: format!("bad destination `{}`", ops[1]),
        })?;
        return Ok(2 + 2 * s.extension_words() + 2 * d.extension_words());
    }
    err(line, format!("unknown mnemonic `{mnemonic}`"))
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
                let v = eval(expr, &symbols).unwrap_or(0);
                symbols.insert(name.clone(), v);
            }
            Some(Item::Word(_)) => pc = pc.wrapping_add(2),
            Some(Item::Byte(_)) => pc = pc.wrapping_add(1),
            Some(Item::Insn {
                mnemonic, operands, ..
            }) => {
                let size = insn_size(line.number, mnemonic, operands, &symbols)?;
                pc = pc.wrapping_add(size);
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

struct Encoder<'a> {
    symbols: &'a HashMap<String, u16>,
    line: usize,
}

impl Encoder<'_> {
    fn ev(&self, expr: &str) -> Result<u16> {
        eval(expr, self.symbols).map_err(|m| AsmError {
            line: self.line,
            message: m,
        })
    }

    /// Encodes an operand as (register, as-bits, extension word).
    fn source(&self, op: &str) -> Result<(u16, u16, Option<u16>)> {
        let mode = operand_mode(op, self.symbols).ok_or_else(|| AsmError {
            line: self.line,
            message: format!("bad operand `{op}`"),
        })?;
        Ok(match mode {
            Mode::Reg(r) => (r as u16, 0b00, None),
            Mode::Indirect(r) => (r as u16, 0b10, None),
            Mode::AutoIncr(r) => (r as u16, 0b11, None),
            Mode::Imm => {
                let v = self.ev(op.strip_prefix('#').unwrap_or(op))?;
                (0, 0b11, Some(v))
            }
            Mode::Const(v) => match v {
                0 => (3, 0b00, None),
                1 => (3, 0b01, None),
                2 => (3, 0b10, None),
                4 => (2, 0b10, None),
                8 => (2, 0b11, None),
                _ => (3, 0b11, None), // 0xFFFF
            },
            Mode::Indexed { reg, absolute } => {
                let expr = if absolute {
                    op.trim().strip_prefix('&').unwrap_or(op.trim())
                } else if let Some(open) = op.find('(') {
                    &op[..open]
                } else {
                    op
                };
                let x = self.ev(expr)?;
                ((if absolute { 2 } else { reg }) as u16, 0b01, Some(x))
            }
        })
    }

    /// Encodes a destination operand as (register, ad-bit, extension word).
    fn destination(&self, op: &str) -> Result<(u16, u16, Option<u16>)> {
        let mode = operand_mode(op, self.symbols).ok_or_else(|| AsmError {
            line: self.line,
            message: format!("bad operand `{op}`"),
        })?;
        Ok(match mode {
            Mode::Reg(r) => (r as u16, 0, None),
            Mode::Indexed { reg, absolute } => {
                let expr = if absolute {
                    op.trim().strip_prefix('&').unwrap_or(op.trim())
                } else if let Some(open) = op.find('(') {
                    &op[..open]
                } else {
                    op
                };
                let x = self.ev(expr)?;
                ((if absolute { 2 } else { reg }) as u16, 1, Some(x))
            }
            _ => {
                return err(
                    self.line,
                    format!("destination `{op}` must be a register, X(Rn), &abs or label"),
                )
            }
        })
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
        let enc = Encoder {
            symbols,
            line: line.number,
        };
        bytes.clear();
        match &line.item {
            None | Some(Item::Equ(..)) => continue,
            Some(Item::Org(expr)) => {
                flush(&mut image, &mut current, current_org);
                pc = enc.ev(expr)?;
                current_org = pc;
                continue;
            }
            Some(Item::Vector(name, target)) => {
                let addr = vector_address(name, line.number)?;
                let value = enc.ev(target)?;
                vectors_out.push((addr, value));
                continue;
            }
            Some(Item::Word(expr)) => bytes.extend_from_slice(&enc.ev(expr)?.to_le_bytes()),
            Some(Item::Byte(expr)) => bytes.push(enc.ev(expr)? as u8),
            Some(Item::Insn {
                mnemonic,
                byte_mode,
                operands,
            }) => {
                let (mn, ops) = (mnemonic, operands);
                let bw = u16::from(*byte_mode);
                let mut push = |w: u16| bytes.extend_from_slice(&w.to_le_bytes());

                if let Some(&(_, cond)) = JUMPS.iter().find(|&&(m, _)| m == mn) {
                    let target = enc.ev(ops.first().map(String::as_str).unwrap_or(""))?;
                    // Work in raw address space to avoid sign confusion.
                    let off = (i64::from(target) - i64::from(pc) - 2) / 2;
                    if (i64::from(target) - i64::from(pc) - 2) % 2 != 0 {
                        return err(line.number, "jump target must be word-aligned");
                    }
                    if !(-512..=511).contains(&off) {
                        return err(line.number, "jump out of range (±512 words)");
                    }
                    push(0x2000 | (cond << 10) | ((off as u16) & 0x3FF));
                } else if mn == "reti" {
                    push(0x1300);
                } else if let Some(&(_, op2)) = FORMAT2.iter().find(|&&(m, _)| m == mn) {
                    let (reg, as_bits, ext) =
                        enc.source(ops.first().map(String::as_str).unwrap_or(""))?;
                    push(0x1000 | (op2 << 7) | (bw << 6) | (as_bits << 4) | reg);
                    if let Some(x) = ext {
                        push(x);
                    }
                } else if let Some(&(_, op1)) = FORMAT1.iter().find(|&&(m, _)| m == mn) {
                    if ops.len() != 2 {
                        return err(line.number, format!("{mn} needs two operands"));
                    }
                    let (sreg, as_bits, sext) = enc.source(&ops[0])?;
                    let (dreg, ad, dext) = enc.destination(&ops[1])?;
                    push((op1 << 12) | (sreg << 8) | (ad << 7) | (bw << 6) | (as_bits << 4) | dreg);
                    for x in sext.into_iter().chain(dext) {
                        push(x);
                    }
                } else {
                    return err(line.number, format!("unknown mnemonic `{mnemonic}`"));
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
