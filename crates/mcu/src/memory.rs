//! The 64 KiB address space, the F1222-like I/O map, and loadable images.

use crate::uops::UopCache;
use std::sync::{Arc, OnceLock};

/// I/O register addresses (F1222-like layout; all below 0x0200).
pub mod io {
    /// Port 1 input register (read-only from firmware).
    pub const P1IN: u16 = 0x0020;
    /// Port 1 output register.
    pub const P1OUT: u16 = 0x0021;
    /// Port 1 direction register (1 = output).
    pub const P1DIR: u16 = 0x0022;
    /// Port 1 interrupt flag register.
    pub const P1IFG: u16 = 0x0023;
    /// Port 1 interrupt enable register.
    pub const P1IE: u16 = 0x0025;
    /// Port 2 input register.
    pub const P2IN: u16 = 0x0028;
    /// Port 2 output register.
    pub const P2OUT: u16 = 0x0029;
    /// Port 2 direction register.
    pub const P2DIR: u16 = 0x002A;
    /// Port 2 interrupt flag register.
    pub const P2IFG: u16 = 0x002B;
    /// Port 2 interrupt enable register.
    pub const P2IE: u16 = 0x002D;
    /// SPI transmit buffer: writing starts a transfer.
    pub const SPITX: u16 = 0x0040;
    /// SPI receive buffer: byte clocked in by the last transfer.
    pub const SPIRX: u16 = 0x0041;
    /// SPI status: bit 0 = busy.
    pub const SPISTAT: u16 = 0x0042;
    /// SPI control: bits 2:0 = clock divider log2, bit 3 = TX-complete
    /// interrupt enable.
    pub const SPICTL: u16 = 0x0043;
    /// Timer control: bit 0 = run, bit 1 = CCR0 interrupt enable,
    /// bit 2 = CCR0 interrupt flag (write 0 to clear).
    pub const TACTL: u16 = 0x0060;
    /// Timer CCR0 compare register (word).
    pub const TACCR0: u16 = 0x0062;
    /// Timer counter (word).
    pub const TAR: u16 = 0x0064;
}

/// Interrupt vector addresses (top of memory, MSP430 convention).
pub mod vectors {
    /// Power-on reset vector.
    pub const RESET: u16 = 0xFFFE;
    /// Timer A CCR0 vector.
    pub const TIMER_A: u16 = 0xFFF0;
    /// SPI transfer-complete vector.
    pub const SPI: u16 = 0xFFEE;
    /// Port 1 pin-change vector.
    pub const PORT1: u16 = 0xFFE8;
    /// Port 2 pin-change vector.
    pub const PORT2: u16 = 0xFFE6;
}

/// A loadable program image: contiguous byte runs at absolute addresses.
///
/// An image also carries the slot for its decoded micro-op table, which
/// its clones share: the first [`Mcu::load`](crate::cpu::Mcu::load) of the
/// image or any clone decodes it, every later load reuses it, and a new
/// segment empties the slot. Equality and `Debug` read only the segments.
#[derive(Clone, Default)]
pub struct Image {
    segments: Vec<(u16, Vec<u8>)>,
    decoded: Arc<OnceLock<Arc<UopCache>>>,
}

impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        self.segments == other.segments
    }
}

impl Eq for Image {}

impl core::fmt::Debug for Image {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Image")
            .field("segments", &self.segments)
            .finish()
    }
}

impl Image {
    /// Creates an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the segment would run past the top of the address space.
    pub fn push_segment(&mut self, org: u16, bytes: Vec<u8>) {
        assert!(
            (org as usize) + bytes.len() <= 0x1_0000,
            "segment overruns the 64 KiB address space"
        );
        self.segments.push((org, bytes));
        self.decoded = Arc::default();
    }

    /// The image's decoded micro-op table, built by the first call on this
    /// image or any clone of it.
    pub(crate) fn decoded(&self) -> Arc<UopCache> {
        Arc::clone(self.decoded.get_or_init(|| Arc::new(UopCache::build(self))))
    }

    /// The image's segments in insertion order.
    pub fn segments(&self) -> &[(u16, Vec<u8>)] {
        &self.segments
    }

    /// Total payload size in bytes.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|(_, b)| b.len()).sum()
    }

    /// Whether the image carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The flat RAM/flash backing store. I/O dispatch happens in the CPU layer;
/// this type is plain storage with word helpers (little-endian, as MSP430).
#[derive(Clone)]
pub struct FlatMemory {
    bytes: Box<[u8; 0x1_0000]>,
}

impl core::fmt::Debug for FlatMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FlatMemory(64 KiB)")
    }
}

impl FlatMemory {
    /// Zero-filled memory.
    pub fn new() -> Self {
        Self {
            bytes: Box::new([0u8; 0x1_0000]),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read8(&self, addr: u16) -> u8 {
        self.bytes[addr as usize]
    }

    /// Writes one byte.
    #[inline]
    pub fn write8(&mut self, addr: u16, value: u8) {
        self.bytes[addr as usize] = value;
    }

    /// Reads a little-endian word. MSP430 word accesses are even-aligned;
    /// the low bit is ignored as the hardware does.
    #[inline]
    pub fn read16(&self, addr: u16) -> u16 {
        let a = (addr & !1) as usize;
        u16::from(self.bytes[a]) | (u16::from(self.bytes[(a + 1) & 0xFFFF]) << 8)
    }

    /// Writes a little-endian word (even-aligned).
    #[inline]
    pub fn write16(&mut self, addr: u16, value: u16) {
        let a = (addr & !1) as usize;
        self.bytes[a] = value as u8;
        self.bytes[(a + 1) & 0xFFFF] = (value >> 8) as u8;
    }

    /// Copies an image into memory.
    pub fn load(&mut self, image: &Image) {
        for (org, bytes) in image.segments() {
            let start = *org as usize;
            self.bytes[start..start + bytes.len()].copy_from_slice(bytes);
        }
    }
}

impl Default for FlatMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_little_endian() {
        let mut m = FlatMemory::new();
        m.write16(0x0200, 0xBEEF);
        assert_eq!(m.read8(0x0200), 0xEF);
        assert_eq!(m.read8(0x0201), 0xBE);
        assert_eq!(m.read16(0x0200), 0xBEEF);
    }

    #[test]
    fn word_access_ignores_low_bit() {
        let mut m = FlatMemory::new();
        m.write16(0x0201, 0x1234);
        assert_eq!(m.read16(0x0200), 0x1234);
    }

    #[test]
    fn image_load() {
        let mut img = Image::new();
        img.push_segment(0xF000, vec![0x31, 0x40, 0x00, 0x0A]);
        img.push_segment(0xFFFE, vec![0x00, 0xF0]);
        assert_eq!(img.len(), 6);
        let mut m = FlatMemory::new();
        m.load(&img);
        assert_eq!(m.read16(0xF000), 0x4031);
        assert_eq!(m.read16(0xFFFE), 0xF000);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn oversized_segment_rejected() {
        let mut img = Image::new();
        img.push_segment(0xFFFF, vec![0, 0]);
    }
}
