//! Stock PicoCube firmware images.
//!
//! §4.5: "Microcontroller code was written in 'C' and is entirely interrupt
//! driven. No operating system support was required for this simple
//! application." These are the equivalent programs for the emulated core,
//! in assembly, for the two sensor boards:
//!
//! * [`tpms_app`] — the tire-pressure application: sleep in LPM3, wake on
//!   the SP12's 6-second interrupt, sample pressure / temperature /
//!   acceleration / supply voltage, format a packet, clock it to the radio,
//!   sleep again. The ≈ 14 ms active window of Fig. 6 is the run time of
//!   this program.
//! * [`motion_app`] — the §6 retreat demo: sleep in LPM4 (nothing to time),
//!   wake on the SCA3000's motion-threshold interrupt, read X/Y/Z, packet,
//!   transmit.
//!
//! ## Board contract
//!
//! The firmware assumes the PicoCube bus wiring modeled by
//! `picocube-node`:
//!
//! | Pin | Direction | Function |
//! |-----|-----------|----------|
//! | P1.0 | in  | sensor wake/interrupt line |
//! | P1.4 | out | radio SPI (digital) power enable |
//! | P1.5 | out | radio PA power enable |
//! | P2.0 | out | sensor chip select |
//!
//! SPI is shared between the sensor (selected by P2.0) and the radio
//! (selected by P1.4); the node's bus multiplexer routes transfers by pin
//! state. Packets are `AA AA D3 <id> <payload…> <xor-checksum>`.

use crate::asm::{assemble, AsmError};
use crate::memory::Image;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Cache key: `(application discriminant, node id, app argument)`.
type ImageKey = (u8, u8, u16);

/// Process-wide cache of assembled stock images, keyed by entry point and
/// arguments. Assembly is deterministic, and a fleet instantiates at most
/// 256 distinct ids per application, so each distinct image is assembled
/// once and cheaply cloned out afterwards.
static IMAGES: OnceLock<Mutex<HashMap<ImageKey, Image>>> = OnceLock::new();

/// Growth bound for [`IMAGES`]: far above any fleet's distinct-image count,
/// so in practice the cache never evicts; it merely stops growing if a
/// caller sweeps the whole argument space.
const IMAGE_CACHE_CAP: usize = 4096;

/// Returns the cached image for `key`, assembling (and caching) it on the
/// first request. Every clone shares the stored image's decoded table.
/// Assembly runs outside the lock; a racing duplicate build keeps the
/// image stored first, so the clones still share one table.
fn cached(
    key: ImageKey,
    build: impl FnOnce() -> Result<Image, AsmError>,
) -> Result<Image, AsmError> {
    let map = IMAGES.get_or_init(|| Mutex::new(HashMap::new()));
    if let Ok(guard) = map.lock() {
        if let Some(image) = guard.get(&key) {
            return Ok(image.clone());
        }
    }
    let image = build()?;
    if let Ok(mut guard) = map.lock() {
        if guard.len() < IMAGE_CACHE_CAP {
            return Ok(guard.entry(key).or_insert(image).clone());
        }
    }
    Ok(image)
}

/// Preamble byte (OOK-friendly alternating pattern).
pub const PREAMBLE: u8 = 0xAA;
/// Start-of-frame sync byte.
pub const SYNC: u8 = 0xD3;
/// Payload length of a TPMS packet (4 channels × 2 bytes).
pub const TPMS_PAYLOAD_LEN: usize = 8;
/// Payload length of a motion packet (3 axes × 2 bytes).
pub const MOTION_PAYLOAD_LEN: usize = 6;

/// P1 bit: sensor wake line.
pub const PIN_WAKE: u8 = 0x01;
/// P1 bit: radio SPI power enable.
pub const PIN_RADIO_SPI: u8 = 0x10;
/// P1 bit: radio PA power enable.
pub const PIN_RADIO_PA: u8 = 0x20;
/// P2 bit: sensor chip select.
pub const PIN_SENSOR_CS: u8 = 0x01;

/// Common definitions shared by both applications.
fn prelude() -> String {
    r#"
        .equ P1OUT,  0x0021
        .equ P1DIR,  0x0022
        .equ P1IFG,  0x0023
        .equ P1IE,   0x0025
        .equ P2OUT,  0x0029
        .equ P2DIR,  0x002A
        .equ SPITX,  0x0040
        .equ SPIRX,  0x0041
        .equ SPISTAT,0x0042
        .equ SPICTL, 0x0043
        .equ LPM3,   0x00D0
        .equ LPM4,   0x00F0
        .equ GIE,    0x0008
        .equ BUF,    0x0200
"#
    .to_string()
}

/// The shared SPI helper: transmit `r4`, response in `r5`.
fn spi_helper() -> String {
    r#"
spi_xfer:
        mov.b r4, &SPITX
spi_wait:
        bit.b #1, &SPISTAT
        jnz spi_wait
        mov.b &SPIRX, r5
        ret
"#
    .to_string()
}

/// Assembles the tire-pressure application for a given node id.
///
/// # Errors
///
/// Returns an [`AsmError`] only if the embedded source is broken (a bug).
pub fn tpms_app(node_id: u8) -> Result<Image, AsmError> {
    cached((0, node_id, 0), || tpms_app_fresh(node_id))
}

fn tpms_app_fresh(node_id: u8) -> Result<Image, AsmError> {
    let src = format!(
        r#"{prelude}
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #0x30, &P1DIR      ; radio power enables are outputs
        mov.b #0x01, &P2DIR      ; sensor CS is an output
        mov.b #0x01, &P1IE       ; SP12 wake line interrupt
        mov.b #0x05, &SPICTL     ; SPI clock divider 32
        eint
main:   bis #LPM3, sr            ; sleep between samples (timer domain on)
        jmp main

; ---- wake: one sample/format/transmit cycle (the Fig. 6 "on" burst) ----
wake:   mov.b #0, &P1IFG
        mov.b #0x01, &P2OUT      ; select the SP12
        mov #BUF, r7
        clr r6                   ; channel index
chan:   mov r6, r4
        bis #0x00A0, r4          ; 0xA0 | ch: start conversion
        call #spi_xfer
poll:   mov #0x00F0, r4          ; status request
        call #spi_xfer
        bit.b #1, r5             ; conversion ready?
        jz poll
        mov #0x00F1, r4          ; read high byte
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        mov #0x00F2, r4          ; read low byte
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        inc r6
        cmp #4, r6
        jnz chan
        mov.b #0, &P2OUT         ; deselect sensor
        call #transmit
        reti                     ; back to LPM3 (saved SR keeps the bits)

; ---- packetize BUF and clock it into the radio ----
transmit:
        mov.b #0x03, &SPICTL     ; SPI divider 8: TX data at ~125 kbps
        bis.b #0x10, &P1OUT      ; radio SPI power
        bis.b #0x20, &P1OUT      ; PA power (sequenced after)
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00D3, r4
        call #spi_xfer
        mov #{node_id}, r4
        call #spi_xfer
        mov #BUF, r7
        mov #8, r6
        clr r8                   ; running checksum
txb:    mov.b @r7+, r4
        xor r4, r8
        call #spi_xfer
        dec r6
        jnz txb
        mov.b r8, r4
        and #0x00FF, r4
        call #spi_xfer
        bic.b #0x30, &P1OUT      ; radio off
        mov.b #0x05, &SPICTL     ; restore the sensor's slow SPI clock
        ret
{spi}
        .vector reset, start
        .vector port1, wake
"#,
        prelude = prelude(),
        node_id = node_id,
        spi = spi_helper(),
    );
    assemble(&src)
}

/// Assembles the tire-pressure application with a low-pressure alarm: when
/// the sampled pressure code drops below `threshold_code`, the packet is
/// transmitted twice (alarm repetition for link robustness) — the kind of
/// on-node "process the data" step §3 lists among the node's functions.
///
/// # Errors
///
/// Returns an [`AsmError`] only if the embedded source is broken (a bug).
pub fn tpms_alarm_app(node_id: u8, threshold_code: u16) -> Result<Image, AsmError> {
    cached((1, node_id, threshold_code), || {
        tpms_alarm_app_fresh(node_id, threshold_code)
    })
}

fn tpms_alarm_app_fresh(node_id: u8, threshold_code: u16) -> Result<Image, AsmError> {
    let src = format!(
        r#"{prelude}
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #0x30, &P1DIR
        mov.b #0x01, &P2DIR
        mov.b #0x01, &P1IE
        mov.b #0x05, &SPICTL
        eint
main:   bis #LPM3, sr
        jmp main

wake:   mov.b #0, &P1IFG
        mov.b #0x01, &P2OUT
        mov #BUF, r7
        clr r6
chan:   mov r6, r4
        bis #0x00A0, r4
        call #spi_xfer
poll:   mov #0x00F0, r4
        call #spi_xfer
        bit.b #1, r5
        jz poll
        mov #0x00F1, r4
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        mov #0x00F2, r4
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        inc r6
        cmp #4, r6
        jnz chan
        mov.b #0, &P2OUT
        call #transmit
        ; --- alarm check: pressure code (channel 0) below threshold? ---
        mov.b &0x0200, r9        ; high byte (stored big-endian in BUF)
        swpb r9
        mov.b &0x0201, r4        ; low byte
        bis r4, r9               ; r9 = 12-bit pressure code
        cmp #{threshold}, r9
        jc ok                    ; code >= threshold: healthy tire
        call #transmit           ; alarm: repeat the packet
ok:     reti

transmit:
        mov.b #0x03, &SPICTL
        bis.b #0x10, &P1OUT
        bis.b #0x20, &P1OUT
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00D3, r4
        call #spi_xfer
        mov #{node_id}, r4
        call #spi_xfer
        mov #BUF, r7
        mov #8, r6
        clr r8
txb:    mov.b @r7+, r4
        xor r4, r8
        call #spi_xfer
        dec r6
        jnz txb
        mov.b r8, r4
        and #0x00FF, r4
        call #spi_xfer
        bic.b #0x30, &P1OUT
        mov.b #0x05, &SPICTL
        ret
{spi}
        .vector reset, start
        .vector port1, wake
"#,
        prelude = prelude(),
        node_id = node_id,
        threshold = threshold_code,
        spi = spi_helper(),
    );
    assemble(&src)
}

/// Assembles the accelerometer motion-demo application.
///
/// # Errors
///
/// Returns an [`AsmError`] only if the embedded source is broken (a bug).
pub fn motion_app(node_id: u8) -> Result<Image, AsmError> {
    cached((2, node_id, 0), || motion_app_fresh(node_id))
}

fn motion_app_fresh(node_id: u8) -> Result<Image, AsmError> {
    let src = format!(
        r#"{prelude}
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #0x30, &P1DIR
        mov.b #0x01, &P2DIR
        mov.b #0x01, &P1IE       ; SCA3000 motion interrupt
        mov.b #0x05, &SPICTL
        eint
main:   bis #LPM4, sr            ; deepest sleep: wake only by motion
        jmp main

wake:   mov.b #0, &P1IFG
        mov.b #0x01, &P2OUT      ; select accelerometer
        mov #BUF, r7
        clr r6                   ; axis index
axis:   mov r6, r4
        bis #0x0010, r4          ; 0x10 | axis: read request
        call #spi_xfer
        mov #0x00F1, r4          ; high byte
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        mov #0x00F2, r4          ; low byte
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        inc r6
        cmp #3, r6
        jnz axis
        mov.b #0, &P2OUT
        call #transmit
        reti                     ; saved SR returns the core to LPM4

transmit:
        mov.b #0x03, &SPICTL
        bis.b #0x10, &P1OUT
        bis.b #0x20, &P1OUT
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00D3, r4
        call #spi_xfer
        mov #{node_id}, r4
        call #spi_xfer
        mov #BUF, r7
        mov #6, r6
        clr r8
txb:    mov.b @r7+, r4
        xor r4, r8
        call #spi_xfer
        dec r6
        jnz txb
        mov.b r8, r4
        and #0x00FF, r4
        call #spi_xfer
        bic.b #0x30, &P1OUT
        mov.b #0x05, &SPICTL
        ret
{spi}
        .vector reset, start
        .vector port1, wake
"#,
        prelude = prelude(),
        node_id = node_id,
        spi = spi_helper(),
    );
    assemble(&src)
}

/// Assembles the periodic-beacon application: no sensor interrupt line at
/// all — the MSP430's own ACLK timer paces sampling. Timer A fires once a
/// second; a software prescaler counts to `period_s`, then the firmware
/// reads the accelerometer's three axes and transmits, exactly like the
/// motion app but time- rather than event-triggered (the building-monitor
/// configuration). Sleeps in LPM3 (the timer's clock domain must stay up).
///
/// # Errors
///
/// Returns an [`AsmError`] only if the embedded source is broken (a bug)
/// or `period_s` is zero (reported as an assembly error on the `cmp`).
pub fn beacon_app(node_id: u8, period_s: u16) -> Result<Image, AsmError> {
    cached((3, node_id, period_s), || {
        beacon_app_fresh(node_id, period_s)
    })
}

fn beacon_app_fresh(node_id: u8, period_s: u16) -> Result<Image, AsmError> {
    let src = format!(
        r#"{prelude}
        .equ TACTL,  0x0060
        .equ TACCR0, 0x0062
        .org 0xF000
start:  mov #0x0A00, sp
        mov.b #0x30, &P1DIR
        mov.b #0x01, &P2DIR
        mov.b #0x05, &SPICTL
        mov #0x8000, &TACCR0     ; 32768 ACLK ticks = 1 s per fire
        mov.b #3, &TACTL         ; run + CCR0 interrupt
        clr r10                  ; software prescaler (seconds)
        eint
main:   bis #LPM3, sr
        jmp main

tick:   inc r10
        cmp #{period}, r10
        jnz done
        clr r10
        call #sample_tx
done:   reti

sample_tx:
        mov.b #0x01, &P2OUT      ; select accelerometer
        mov #BUF, r7
        clr r6
axis:   mov r6, r4
        bis #0x0010, r4
        call #spi_xfer
        mov #0x00F1, r4
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        mov #0x00F2, r4
        call #spi_xfer
        mov.b r5, 0(r7)
        inc r7
        inc r6
        cmp #3, r6
        jnz axis
        mov.b #0, &P2OUT
        mov.b #0x03, &SPICTL
        bis.b #0x10, &P1OUT
        bis.b #0x20, &P1OUT
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00AA, r4
        call #spi_xfer
        mov #0x00D3, r4
        call #spi_xfer
        mov #{node_id}, r4
        call #spi_xfer
        mov #BUF, r7
        mov #6, r6
        clr r8
txb:    mov.b @r7+, r4
        xor r4, r8
        call #spi_xfer
        dec r6
        jnz txb
        mov.b r8, r4
        and #0x00FF, r4
        call #spi_xfer
        bic.b #0x30, &P1OUT
        mov.b #0x05, &SPICTL
        ret
{spi}
        .vector reset, start
        .vector timera, tick
"#,
        prelude = prelude(),
        node_id = node_id,
        period = period_s,
        spi = spi_helper(),
    );
    assemble(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Mcu, StepResult};
    use crate::power_model::OperatingMode;

    /// A scripted SPI slave standing in for the node's bus mux: acts as a
    /// 6-poll SP12 for sensor commands and logs radio bytes.
    #[derive(Default)]
    struct FakeBus {
        polls: u8,
        log: Vec<u8>,
        value: u16,
    }

    impl crate::peripherals::SpiDevice for FakeBus {
        fn transfer(&mut self, mosi: u8) -> u8 {
            match mosi {
                0xA0..=0xA3 => {
                    self.polls = 0;
                    self.value = 0x0100 * u16::from(mosi & 0xF) + 0x23;
                    0
                }
                0xF0 => {
                    self.polls += 1;
                    u8::from(self.polls >= 6)
                }
                0xF1 => (self.value >> 8) as u8,
                0xF2 => self.value as u8,
                other => {
                    self.log.push(other);
                    0
                }
            }
        }
    }

    fn run_one_tpms_cycle() -> (Mcu, Vec<u8>, u64) {
        let image = tpms_app(0x42).expect("firmware assembles");
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        let mut bus = FakeBus::default();

        // Boot until asleep.
        let mut guard = 0;
        while !matches!(mcu.step(&mut bus), StepResult::Sleeping(_)) {
            guard += 1;
            assert!(guard < 1000, "boot did not reach sleep");
        }
        assert_eq!(mcu.mode(), OperatingMode::Lpm3);

        // SP12 wake edge.
        mcu.drive_p1(0, true);
        let start = mcu.cycles();
        let mut guard = 0;
        loop {
            match mcu.step(&mut bus) {
                StepResult::Ran { .. } => {}
                StepResult::Sleeping(_) => break,
                StepResult::IllegalInstruction { word, at } => {
                    panic!("fault {word:#06x} at {at:#06x}")
                }
            }
            guard += 1;
            assert!(guard < 2_000_000, "cycle did not complete");
        }
        let active = mcu.cycles() - start;
        (mcu, bus.log, active)
    }

    #[test]
    fn tpms_cycle_emits_a_well_formed_packet() {
        let (_, bytes, _) = run_one_tpms_cycle();
        assert_eq!(bytes.len(), 2 + 1 + 1 + 8 + 1, "packet length");
        assert_eq!(&bytes[..3], &[PREAMBLE, PREAMBLE, SYNC]);
        assert_eq!(bytes[3], 0x42);
        // Payload: channel ch gives 0x0ch3 split hi/lo.
        assert_eq!(
            &bytes[4..12],
            &[0x00, 0x23, 0x01, 0x23, 0x02, 0x23, 0x03, 0x23]
        );
        let checksum = bytes[4..12].iter().fold(0u8, |a, b| a ^ b);
        assert_eq!(bytes[12], checksum);
    }

    #[test]
    fn tpms_active_burst_is_about_14_ms() {
        // §4.5: "a sample/format/transmit cycle that takes about 14 ms".
        let (mcu, _, active) = run_one_tpms_cycle();
        let secs = mcu.power_model().cycles_to_seconds(active).value();
        assert!(
            (0.008..0.022).contains(&secs),
            "active burst {:.1} ms outside the ~14 ms envelope",
            secs * 1e3
        );
    }

    #[test]
    fn tpms_returns_to_lpm3_not_lpm4() {
        // The SP12's 6 s timer must keep running between samples.
        let (mcu, _, _) = run_one_tpms_cycle();
        assert_eq!(mcu.mode(), OperatingMode::Lpm3);
    }

    #[test]
    fn radio_pins_toggled_during_cycle_and_off_after() {
        let (mcu, _, _) = run_one_tpms_cycle();
        assert_eq!(mcu.p1_output() & (PIN_RADIO_SPI | PIN_RADIO_PA), 0);
        assert_eq!(mcu.p2_output() & PIN_SENSOR_CS, 0);
    }

    #[test]
    fn repeated_cycles_are_stable() {
        let image = tpms_app(7).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        let mut bus = FakeBus::default();
        while !matches!(mcu.step(&mut bus), StepResult::Sleeping(_)) {}
        for _ in 0..5 {
            mcu.drive_p1(0, false);
            mcu.drive_p1(0, true);
            let mut guard = 0;
            loop {
                match mcu.step(&mut bus) {
                    StepResult::Sleeping(_) => break,
                    StepResult::Ran { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
                guard += 1;
                assert!(guard < 2_000_000);
            }
        }
        assert_eq!(bus.log.len(), 5 * 13);
    }

    #[test]
    fn beacon_app_transmits_on_the_timer() {
        // No external interrupt at all: the Timer A ISR paces sampling.
        let image = beacon_app(0x21, 3).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        struct Accel {
            log: Vec<u8>,
        }
        impl crate::peripherals::SpiDevice for Accel {
            fn transfer(&mut self, mosi: u8) -> u8 {
                match mosi {
                    0x10..=0x13 => 0,
                    0xF1 => 0x04,
                    0xF2 => 0x00,
                    other => {
                        self.log.push(other);
                        0
                    }
                }
            }
        }
        let mut bus = Accel { log: Vec::new() };
        while !matches!(mcu.step(&mut bus), StepResult::Sleeping(_)) {}
        assert_eq!(mcu.mode(), OperatingMode::Lpm3);

        // Simulate ~10 s: alternate sleeping and servicing whatever the
        // timer raises. Period 3 s → 3 beacons.
        let budget: u64 = 10_000_000; // cycles at 1 MHz
        while mcu.cycles() < budget {
            let remaining = budget - mcu.cycles();
            if mcu.sleep(remaining, &mut bus) == 0 {
                // Awake: run the ISR to completion.
                loop {
                    match mcu.step(&mut bus) {
                        StepResult::Ran { .. } => {}
                        StepResult::Sleeping(_) => break,
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        let packets = bus.log.len() / 11; // 2+1+1+6+1 bytes each
        assert_eq!(packets, 3, "expected 3 beacons in 10 s at period 3");
    }

    /// FNV-1a over every image's segments: origin, length and bytes.
    fn digest(images: impl IntoIterator<Item = Image>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for image in images {
            for (org, bytes) in image.segments() {
                let header = org.to_le_bytes().into_iter();
                let len = (bytes.len() as u32).to_le_bytes().into_iter();
                for b in header.chain(len).chain(bytes.iter().copied()) {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn stock_images_match_their_digests() {
        // Every stock image, byte for byte, as the assembler built it
        // before it moved onto `isa`'s encoder. A mismatch means an
        // assembler change moved a byte the goldens depend on.
        let built = |r: Result<Image, AsmError>| r.expect("stock image assembles");
        let tpms = digest((0..=255).map(|id| built(tpms_app(id))));
        let motion = digest((0..=255).map(|id| built(motion_app(id))));
        let ids = [0u8, 1, 0x17, 0x42, 0xFF];
        let args = [0u16, 1, 3, 0x0123, 0x8000, 0xFFFF];
        let pairs = || {
            ids.iter()
                .flat_map(|&id| args.iter().map(move |&arg| (id, arg)))
        };
        let alarm = digest(pairs().map(|(id, code)| built(tpms_alarm_app(id, code))));
        let beacon = digest(pairs().map(|(id, period)| built(beacon_app(id, period))));
        assert_eq!(
            [tpms, motion, alarm, beacon],
            [
                0x244a_806f_d2ba_58c1,
                0x95a9_0349_b59b_8e03,
                0xad2e_3e71_b013_c2e5,
                0xa8f4_8b64_f264_7275,
            ],
            "{tpms:#018x} {motion:#018x} {alarm:#018x} {beacon:#018x}"
        );
    }

    #[test]
    fn motion_app_sleeps_in_lpm4_and_sends_xyz() {
        let image = motion_app(0x42).unwrap();
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();
        // The fake bus answers 0x10|axis requests like the SP12's 0xA0.
        struct Accel {
            log: Vec<u8>,
            value: u16,
        }
        impl crate::peripherals::SpiDevice for Accel {
            fn transfer(&mut self, mosi: u8) -> u8 {
                match mosi {
                    0x10..=0x13 => {
                        self.value = 0x0400 + u16::from(mosi & 0xF);
                        0
                    }
                    0xF1 => (self.value >> 8) as u8,
                    0xF2 => self.value as u8,
                    other => {
                        self.log.push(other);
                        0
                    }
                }
            }
        }
        let mut bus = Accel {
            log: Vec::new(),
            value: 0,
        };
        while !matches!(mcu.step(&mut bus), StepResult::Sleeping(_)) {}
        assert_eq!(mcu.mode(), OperatingMode::Lpm4);
        mcu.drive_p1(0, true);
        let mut guard = 0;
        loop {
            match mcu.step(&mut bus) {
                StepResult::Sleeping(_) => break,
                StepResult::Ran { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
            guard += 1;
            assert!(guard < 2_000_000);
        }
        let bytes = &bus.log;
        assert_eq!(bytes.len(), 2 + 1 + 1 + 6 + 1);
        assert_eq!(&bytes[..3], &[PREAMBLE, PREAMBLE, SYNC]);
        assert_eq!(mcu.mode(), OperatingMode::Lpm4);
    }
}
