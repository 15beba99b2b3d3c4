//! Garbage inputs for the untrusted JSON decoders' properties
//! (`tests/scenarios.rs`, `tests/checkpoint.rs`): each mutation damages a
//! valid document the way a cut-off write, a bad hand edit or a hostile
//! writer would, and [`assert_fails_typed_or_round_trips`] states what a
//! decoder owes such input.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bytes a substitution writes: JSON's structural characters.
const STRUCTURAL: &[u8] = b"{}[],:\"";

/// Numbers a splice writes: outside every unsigned field's range, or every
/// finite float's.
const NUMBERS: [&str; 4] = ["-1", "-0", "1e309", "18446744073709551616"];

/// The longest byte range a deletion or duplication touches.
const MAX_RANGE: f64 = 64.0;

/// One mutation of `text`. `op` (mod 6) picks truncation, deleting or
/// duplicating a byte range, substituting a structural byte, splicing a
/// number in, or replacing the next number with one; `at` and `len` in
/// [0, 1) place the range, and `pick` chooses the byte or the number.
pub fn mutate(text: &str, op: u8, at: f64, len: f64, pick: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let n = bytes.len();
    let p = ((at * n as f64) as usize).min(n);
    let range = p..p + ((len * MAX_RANGE) as usize).min(n - p);
    let number = NUMBERS[pick % NUMBERS.len()].bytes();
    match op % 6 {
        0 => bytes.truncate(p),
        1 => {
            bytes.drain(range);
        }
        2 => {
            let copy = bytes[range].to_vec();
            bytes.splice(p..p, copy);
        }
        3 => {
            if let Some(b) = bytes.get_mut(p) {
                *b = STRUCTURAL[pick % STRUCTURAL.len()];
            }
        }
        4 => {
            bytes.splice(p..p, number);
        }
        _ => {
            let start = bytes[p..]
                .iter()
                .position(u8::is_ascii_digit)
                .map_or(n, |i| p + i);
            let end = bytes[start..]
                .iter()
                .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .map_or(n, |i| start + i);
            bytes.splice(start..end, number);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Asserts that `decode` neither panics on `text` nor fails without a
/// message, and that whatever it accepts `encode`s to text that decodes
/// and encodes to the same text again.
pub fn assert_fails_typed_or_round_trips<T, E: Display>(
    text: &str,
    decode: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) {
    let decoded = catch_unwind(AssertUnwindSafe(|| decode(text)))
        .unwrap_or_else(|_| panic!("the decoder panicked on:\n{text}"));
    match decoded {
        Err(e) => assert!(!e.to_string().is_empty(), "an empty error for:\n{text}"),
        Ok(value) => {
            let once = encode(&value);
            let back = decode(&once)
                .unwrap_or_else(|e| panic!("re-encoded text fails to decode ({e}):\n{once}"));
            assert_eq!(encode(&back), once, "the re-encoding drifts for:\n{text}");
        }
    }
}
