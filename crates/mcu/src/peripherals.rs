//! F1222-like peripherals: GPIO ports, SPI master, and the ACLK timer.

use crate::memory::io;

/// Interrupt sources, in priority order (highest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Irq {
    /// Timer A CCR0 compare.
    TimerA,
    /// SPI transfer complete.
    Spi,
    /// Port 1 pin change.
    Port1,
    /// Port 2 pin change.
    Port2,
}

impl Irq {
    /// All interrupts, highest priority first (the order `Ord` sorts by).
    /// Rank `i` maps to bit `i` of the CPU's pending mask.
    pub const PRIORITY: [Irq; 4] = [Irq::TimerA, Irq::Spi, Irq::Port1, Irq::Port2];

    /// This interrupt's bit in the pending mask (bit = priority rank).
    pub fn mask(self) -> u8 {
        match self {
            Self::TimerA => 1 << 0,
            Self::Spi => 1 << 1,
            Self::Port1 => 1 << 2,
            Self::Port2 => 1 << 3,
        }
    }

    /// The vector address holding this interrupt's service-routine entry.
    pub fn vector(self) -> u16 {
        match self {
            Self::TimerA => crate::memory::vectors::TIMER_A,
            Self::Spi => crate::memory::vectors::SPI,
            Self::Port1 => crate::memory::vectors::PORT1,
            Self::Port2 => crate::memory::vectors::PORT2,
        }
    }
}

/// A device on the SPI bus. The MCU is the master: each transfer shifts one
/// MOSI byte out and one MISO byte in.
pub trait SpiDevice {
    /// Performs one full-duplex byte exchange.
    fn transfer(&mut self, mosi: u8) -> u8;

    /// Performs one exchange and reports whether it changed state the
    /// board can observe, such as a sensor's supply draw. The MCU advances
    /// its SPI draw epoch only on `true`. The default cannot tell, so it
    /// counts every transfer as a change.
    fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
        (self.transfer(mosi), true)
    }
}

/// Blanket impl so closures can serve as simple test devices.
impl<F: FnMut(u8) -> u8> SpiDevice for F {
    fn transfer(&mut self, mosi: u8) -> u8 {
        self(mosi)
    }
}

/// The bus with no slave selected: it floats high and nothing on the
/// board changes.
#[derive(Debug)]
pub struct FloatingBus;

impl SpiDevice for FloatingBus {
    fn transfer(&mut self, _mosi: u8) -> u8 {
        0xFF
    }

    fn transfer_observed(&mut self, _mosi: u8) -> (u8, bool) {
        (0xFF, false)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct GpioPort {
    input: u8,
    output: u8,
    direction: u8,
    ifg: u8,
    ie: u8,
}

/// The peripheral block: dispatched from the CPU's memory accesses.
pub struct Peripherals {
    p1: GpioPort,
    p2: GpioPort,
    spi_rx: u8,
    spi_busy_cycles: u32,
    spi_pending_mosi: Option<u8>,
    spi_ctl: u8,
    spi_ifg: bool,
    /// Completed transfers the slave reported as board-visible changes
    /// (wrapping count).
    spi_draw_epoch: u32,
    timer_ctl: u8,
    timer_ccr0: u16,
    timer_count: u16,
    /// MCLK cycles per ACLK tick (MCLK 1 MHz / ACLK 32768 Hz ≈ 30.5).
    aclk_ratio_num: u64,
    aclk_accum: u64,
}

impl core::fmt::Debug for Peripherals {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Peripherals")
            .field("p1", &self.p1)
            .field("p2", &self.p2)
            .field("spi_busy_cycles", &self.spi_busy_cycles)
            .field("timer_count", &self.timer_count)
            .finish_non_exhaustive()
    }
}

impl Peripherals {
    /// Fresh peripherals with nothing attached.
    pub fn new() -> Self {
        Self {
            p1: GpioPort::default(),
            p2: GpioPort::default(),
            spi_rx: 0,
            spi_busy_cycles: 0,
            spi_pending_mosi: None,
            spi_ctl: 0,
            spi_ifg: false,
            spi_draw_epoch: 0,
            timer_ctl: 0,
            timer_ccr0: 0,
            timer_count: 0,
            // MCLK 1 MHz, ACLK 32768 Hz: 1e6/32768 ≈ 30.52 cycles per tick.
            aclk_ratio_num: 1_000_000,
            aclk_accum: 0,
        }
    }

    /// Whether an address belongs to the peripheral window.
    pub fn owns(addr: u16) -> bool {
        (0x0020..0x0200).contains(&addr)
    }

    /// Firmware-visible register read (byte granularity except the timer
    /// words).
    pub fn read(&self, addr: u16) -> u8 {
        match addr {
            io::P1IN => self.p1.input,
            io::P1OUT => self.p1.output,
            io::P1DIR => self.p1.direction,
            io::P1IFG => self.p1.ifg,
            io::P1IE => self.p1.ie,
            io::P2IN => self.p2.input,
            io::P2OUT => self.p2.output,
            io::P2DIR => self.p2.direction,
            io::P2IFG => self.p2.ifg,
            io::P2IE => self.p2.ie,
            io::SPIRX => self.spi_rx,
            io::SPISTAT => u8::from(self.spi_busy_cycles > 0),
            io::SPICTL => self.spi_ctl,
            io::TACTL => self.timer_ctl,
            io::TACCR0 => self.timer_ccr0 as u8,
            a if a == io::TACCR0 + 1 => (self.timer_ccr0 >> 8) as u8,
            io::TAR => self.timer_count as u8,
            a if a == io::TAR + 1 => (self.timer_count >> 8) as u8,
            _ => 0,
        }
    }

    /// Firmware-visible register write.
    pub fn write(&mut self, addr: u16, value: u8) {
        match addr {
            io::P1OUT => self.p1.output = value,
            io::P1DIR => self.p1.direction = value,
            io::P1IFG => self.p1.ifg = value,
            io::P1IE => self.p1.ie = value,
            io::P2OUT => self.p2.output = value,
            io::P2DIR => self.p2.direction = value,
            io::P2IFG => self.p2.ifg = value,
            io::P2IE => self.p2.ie = value,
            io::SPITX => {
                // Start a transfer: 8 bit-times at the divided clock.
                let div = 1u32 << (self.spi_ctl & 0x7);
                self.spi_busy_cycles = 8 * div;
                self.spi_pending_mosi = Some(value);
            }
            io::SPICTL => self.spi_ctl = value,
            io::TACTL => self.timer_ctl = value & 0b0111,
            io::TACCR0 => self.timer_ccr0 = (self.timer_ccr0 & 0xFF00) | u16::from(value),
            a if a == io::TACCR0 + 1 => {
                self.timer_ccr0 = (self.timer_ccr0 & 0x00FF) | (u16::from(value) << 8);
            }
            io::TAR => self.timer_count = (self.timer_count & 0xFF00) | u16::from(value),
            a if a == io::TAR + 1 => {
                self.timer_count = (self.timer_count & 0x00FF) | (u16::from(value) << 8);
            }
            _ => {}
        }
    }

    /// Whether a `tick` can change any state right now: the SPI engine is
    /// mid-transfer or the timer is running. When false the CPU may skip
    /// the call entirely and just advance its cycle counter — the common
    /// case for active TPMS firmware, which runs with the timer stopped
    /// and the bus idle between transfers.
    #[inline]
    pub fn needs_tick(&self) -> bool {
        self.spi_busy_cycles > 0 || self.timer_ctl & 0b001 != 0
    }

    /// Advances peripheral state by `cycles` of MCLK. `aclk_alive` is false
    /// in LPM4 (OSCOFF), which freezes the timer. A transfer that completes
    /// inside the span is exchanged with `bus`. Returns any interrupt that
    /// became pending.
    pub fn tick(&mut self, cycles: u32, aclk_alive: bool, bus: &mut dyn SpiDevice) -> Option<Irq> {
        let mut pending = None;

        // SPI engine.
        if self.spi_busy_cycles > 0 {
            self.spi_busy_cycles = self.spi_busy_cycles.saturating_sub(cycles);
            if self.spi_busy_cycles == 0 {
                if let Some(mosi) = self.spi_pending_mosi.take() {
                    let (rx, changed) = bus.transfer_observed(mosi);
                    self.spi_rx = rx;
                    if changed {
                        self.spi_draw_epoch = self.spi_draw_epoch.wrapping_add(1);
                    }
                }
                if self.spi_ctl & 0x08 != 0 {
                    self.spi_ifg = true;
                    pending = pending.or(Some(Irq::Spi));
                }
            }
        }

        // Timer on ACLK (runs through LPM3, not LPM4).
        if aclk_alive && self.timer_ctl & 0b001 != 0 {
            self.aclk_accum += u64::from(cycles) * 32_768;
            // Subtraction instead of div/mod: per-instruction calls carry at
            // most a handful of cycles, so the accumulator crosses the ratio
            // zero or one times and the 64-bit divide is pure overhead.
            while self.aclk_accum >= self.aclk_ratio_num {
                self.aclk_accum -= self.aclk_ratio_num;
                self.timer_count = self.timer_count.wrapping_add(1);
                if self.timer_count == self.timer_ccr0 {
                    self.timer_count = 0;
                    if self.timer_ctl & 0b010 != 0 {
                        self.timer_ctl |= 0b100;
                        pending = Some(Irq::TimerA);
                    }
                }
            }
        }
        pending
    }

    /// Remaining MCLK cycles on the in-flight SPI transfer (0 when the
    /// bus is idle). Lets the CPU bound how far a fused busy-wait can
    /// fast-forward without crossing the completion event.
    #[inline]
    pub fn spi_busy_remaining(&self) -> u32 {
        self.spi_busy_cycles
    }

    /// Bulk equivalent of [`tick`](Self::tick) for spans the caller has
    /// proven completion-free: `cycles` must be strictly less than the
    /// SPI engine's remaining busy count, so the in-flight transfer
    /// cannot finish inside the span. The arithmetic is identical to
    /// ticking stepwise — the busy countdown and the ACLK accumulator
    /// are plain sums, and every CCR0 crossing latches the same
    /// interrupt it would latch per-instruction — so only the call
    /// count differs.
    pub fn tick_bulk(&mut self, cycles: u64, aclk_alive: bool) -> Option<Irq> {
        debug_assert!(cycles < u64::from(self.spi_busy_cycles));
        #[allow(clippy::cast_possible_truncation)] // < spi_busy_cycles: u32
        {
            self.spi_busy_cycles -= cycles as u32;
        }
        let mut pending = None;
        if aclk_alive && self.timer_ctl & 0b001 != 0 {
            self.aclk_accum += cycles * 32_768;
            while self.aclk_accum >= self.aclk_ratio_num {
                self.aclk_accum -= self.aclk_ratio_num;
                self.timer_count = self.timer_count.wrapping_add(1);
                if self.timer_count == self.timer_ccr0 {
                    self.timer_count = 0;
                    if self.timer_ctl & 0b010 != 0 {
                        self.timer_ctl |= 0b100;
                        pending = Some(Irq::TimerA);
                    }
                }
            }
        }
        pending
    }

    /// MCLK cycles until the timer's next CCR0 match fires an interrupt, or
    /// `None` if the timer cannot fire (stopped, masked, or clock domain
    /// dead). Used to bound sleep fast-forwarding so wake timing is exact.
    pub fn cycles_until_timer_fire(&self, aclk_alive: bool) -> Option<u64> {
        if !aclk_alive || self.timer_ctl & 0b011 != 0b011 {
            return None;
        }
        let delta = self.timer_ccr0.wrapping_sub(self.timer_count);
        let ticks = if delta == 0 {
            0x1_0000u64
        } else {
            u64::from(delta)
        };
        let need = ticks * self.aclk_ratio_num;
        Some((need - self.aclk_accum).div_ceil(32_768))
    }

    /// Drives an external pin on port 1 (bit index 0–7) from the board.
    /// A rising edge with the interrupt enabled raises `P1IFG` and returns
    /// the pending interrupt.
    pub fn set_p1_input(&mut self, bit: u8, high: bool) -> Option<Irq> {
        debug_assert!(bit < 8);
        let mask = 1u8 << bit;
        let was = self.p1.input & mask != 0;
        if high {
            self.p1.input |= mask;
        } else {
            self.p1.input &= !mask;
        }
        if high && !was && (self.p1.ie & mask != 0) {
            self.p1.ifg |= mask;
            return Some(Irq::Port1);
        }
        None
    }

    /// Drives an external pin on port 2.
    pub fn set_p2_input(&mut self, bit: u8, high: bool) -> Option<Irq> {
        debug_assert!(bit < 8);
        let mask = 1u8 << bit;
        let was = self.p2.input & mask != 0;
        if high {
            self.p2.input |= mask;
        } else {
            self.p2.input &= !mask;
        }
        if high && !was && (self.p2.ie & mask != 0) {
            self.p2.ifg |= mask;
            return Some(Irq::Port2);
        }
        None
    }

    /// Board-side view of the port 1 output pins.
    pub fn p1_output(&self) -> u8 {
        self.p1.output & self.p1.direction
    }

    /// Board-side view of the port 2 output pins.
    pub fn p2_output(&self) -> u8 {
        self.p2.output & self.p2.direction
    }

    /// Whether the SPI engine is mid-transfer.
    pub fn spi_busy(&self) -> bool {
        self.spi_busy_cycles > 0
    }

    /// The SPI draw epoch: advances once per completed transfer whose
    /// slave reported a board-visible change
    /// ([`SpiDevice::transfer_observed`]).
    pub fn spi_draw_epoch(&self) -> u32 {
        self.spi_draw_epoch
    }

    /// Clears the SPI transfer-complete flag (read by the ISR).
    pub fn clear_spi_ifg(&mut self) {
        self.spi_ifg = false;
    }
}

impl Default for Peripherals {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpio_output_masked_by_direction() {
        let mut p = Peripherals::new();
        p.write(io::P1OUT, 0xFF);
        p.write(io::P1DIR, 0x0F);
        assert_eq!(p.p1_output(), 0x0F);
    }

    #[test]
    fn pin_change_interrupt_needs_enable() {
        let mut p = Peripherals::new();
        assert_eq!(p.set_p1_input(3, true), None); // IE clear: no interrupt
        p.set_p1_input(3, false);
        p.write(io::P1IE, 0b1000);
        assert_eq!(p.set_p1_input(3, true), Some(Irq::Port1));
        assert_eq!(p.read(io::P1IFG), 0b1000);
        // Falling edge does not re-trigger.
        assert_eq!(p.set_p1_input(3, false), None);
    }

    #[test]
    fn spi_transfer_round_trip() {
        let mut p = Peripherals::new();
        let mut slave = |mosi: u8| mosi.wrapping_add(1);
        p.write(io::SPITX, 0x41);
        assert!(p.spi_busy());
        // 8 cycles at divider 1.
        assert_eq!(p.tick(8, true, &mut slave), None); // interrupt not enabled
        assert!(!p.spi_busy());
        assert_eq!(p.read(io::SPIRX), 0x42);
    }

    #[test]
    fn draw_epoch_counts_reported_changes_only() {
        struct EvenChanges;
        impl SpiDevice for EvenChanges {
            fn transfer(&mut self, mosi: u8) -> u8 {
                mosi
            }
            fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
                (mosi, mosi.is_multiple_of(2))
            }
        }
        let mut p = Peripherals::new();
        p.write(io::SPITX, 0x01);
        p.tick(8, true, &mut FloatingBus);
        assert_eq!(p.spi_draw_epoch(), 0, "no slave: nothing changes");
        let mut epoch = 0;
        for mosi in 1..=4u8 {
            p.write(io::SPITX, mosi);
            assert_eq!(p.spi_draw_epoch(), epoch, "a start is not a change");
            p.tick(8, true, &mut EvenChanges);
            epoch += u32::from(mosi.is_multiple_of(2));
            assert_eq!(p.spi_draw_epoch(), epoch, "after {mosi:#04x}");
        }
        // A closure cannot tell, so every completion counts.
        p.write(io::SPITX, 0x01);
        p.tick(8, true, &mut |mosi: u8| mosi);
        assert_eq!(p.spi_draw_epoch(), 3);
    }

    #[test]
    fn spi_divider_stretches_transfer() {
        let mut p = Peripherals::new();
        let mut slave = |_| 0u8;
        p.write(io::SPICTL, 0x03); // divider 8
        p.write(io::SPITX, 0x00);
        p.tick(32, true, &mut slave);
        assert!(p.spi_busy());
        p.tick(32, true, &mut slave);
        assert!(!p.spi_busy());
    }

    #[test]
    fn spi_completion_interrupt_when_enabled() {
        let mut p = Peripherals::new();
        p.write(io::SPICTL, 0x08); // ien, divider 1
        p.write(io::SPITX, 0x00);
        assert_eq!(p.tick(8, true, &mut |_| 0u8), Some(Irq::Spi));
    }

    #[test]
    fn spi_without_device_reads_0xff() {
        let mut p = Peripherals::new();
        p.write(io::SPITX, 0x55);
        p.tick(8, true, &mut FloatingBus);
        assert_eq!(p.read(io::SPIRX), 0xFF);
    }

    #[test]
    fn timer_fires_at_ccr0_on_aclk() {
        let mut p = Peripherals::new();
        p.write(io::TACCR0, 2); // fire every 2 ACLK ticks
        p.write(io::TACTL, 0b011); // run + interrupt enable
                                   // 2 ticks at 32768 Hz need ≈ 61 MCLK cycles.
        let mut fired = false;
        for _ in 0..70 {
            if p.tick(1, true, &mut FloatingBus) == Some(Irq::TimerA) {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn timer_frozen_without_aclk() {
        let mut p = Peripherals::new();
        p.write(io::TACCR0, 1);
        p.write(io::TACTL, 0b011);
        assert_eq!(p.tick(10_000, false, &mut FloatingBus), None); // LPM4: OSCOFF
        assert_eq!(p.read(io::TAR), 0);
    }

    #[test]
    fn timer_word_registers_assemble_from_bytes() {
        let mut p = Peripherals::new();
        p.write(io::TACCR0, 0x34);
        p.write(io::TACCR0 + 1, 0x12);
        assert_eq!(p.read(io::TACCR0), 0x34);
        assert_eq!(p.read(io::TACCR0 + 1), 0x12);
    }
}
