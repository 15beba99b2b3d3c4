//! An MSP430-subset microcontroller emulator.
//!
//! The PicoCube's controller board carries a TI MSP430-F1222, chosen "in
//! part because it provides a sub-microwatt deep sleep mode" (§4.5), with
//! firmware that is "entirely interrupt driven". Rather than scripting the
//! node's behaviour, this crate executes real firmware on an emulated
//! MSP430-class core so the quantities the paper measures — the ~14 ms
//! sample/format/transmit burst, the sub-µA sleep floor, the
//! interrupt-driven duty cycle — *emerge* from the program.
//!
//! What is modeled:
//!
//! * The 16-bit MSP430 CPU: all seven addressing modes with the R2/R3
//!   constant generators, the format-I two-operand instructions
//!   (`MOV…AND`), format-II single-operand instructions
//!   (`RRC…CALL`, `RETI`), and the jump family, with byte/word widths and
//!   approximate datasheet cycle counts.
//! * The low-power modes LPM0–LPM4 via the `CPUOFF/OSCOFF/SCG0/SCG1` bits
//!   of the status register, with a per-mode supply-current model.
//! * Interrupts with MSP430 semantics (PC/SR push, GIE clear, `RETI`
//!   restore), vectored through the top of memory.
//! * F1222-like peripherals: two GPIO ports with pin-change interrupts, a
//!   byte-wide SPI master, and a 16-bit ACLK timer that keeps running in
//!   LPM3.
//! * A two-pass assembler ([`asm::assemble`]) so firmware stays readable
//!   in tests and examples, and the stock PicoCube firmware images
//!   ([`firmware`]).
//!
//! # Examples
//!
//! ```
//! use picocube_mcu::{asm, FloatingBus, Mcu};
//!
//! let image = asm::assemble(r#"
//!         .org 0xF000
//! start:  mov #0x0A00, r1     ; set up the stack
//!         mov #5, r4
//! loop:   dec r4
//!         jnz loop
//! done:   jmp done
//!         .vector reset, start
//! "#)?;
//!
//! let mut mcu = Mcu::new();
//! mcu.load(&image);
//! mcu.reset();
//! for _ in 0..32 { mcu.step(&mut FloatingBus); }
//! assert_eq!(mcu.register(4), 0);
//! # Ok::<(), picocube_mcu::asm::AsmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod disasm;
pub mod firmware;

mod cpu;
mod isa;
mod memory;
mod peripherals;
mod power_model;
mod uops;

pub use cpu::{Mcu, SegmentStop, StepResult};
pub use memory::{io, vectors, FlatMemory, Image};
pub use peripherals::{FloatingBus, Irq, SpiDevice};
pub use power_model::{McuPowerModel, OperatingMode};
