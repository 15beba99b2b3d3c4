//! Discrete-event simulation kernel for the PicoCube workspace.
//!
//! The kernel provides four things every subsystem model builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond clock. Integer
//!   ticks keep multi-hour simulated horizons free of floating-point drift
//!   and make event ordering total and reproducible.
//! * [`EventQueue`] — a time-ordered, insertion-stable priority queue.
//!   Events scheduled for the same instant pop in the order they were
//!   pushed, so simulations are deterministic without tie-break hacks.
//! * [`PowerLedger`] and [`PowerTrace`] — rail-by-rail, load-by-load energy
//!   accounting. Components publish their instantaneous current draw; the
//!   ledger integrates piecewise-constant currents into per-load energies.
//!   The paper's Fig. 6 power profile and its 6 µW system average are
//!   *measurements* of this ledger, not analytic shortcuts.
//! * [`SimRng`] — a seedable RNG wrapper so every stochastic model in the
//!   workspace is reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use picocube_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Wake, Sample }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_millis(6_000), Ev::Wake);
//! q.push(SimTime::from_millis(6_000), Ev::Sample); // same instant: FIFO
//! q.push(SimTime::from_millis(1), Ev::Wake);
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(1), Ev::Wake));
//! assert_eq!(q.pop().unwrap().1, Ev::Wake);
//! assert_eq!(q.pop().unwrap().1, Ev::Sample);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cycles;
mod exact;
mod power;
mod queue;
mod rng;
mod time;
mod trace;

pub use cycles::{CycleLog, CycleRun};
pub use power::{LedgerError, LoadId, PowerLedger, PowerReport, RailId, RailReport, SleepBatch};
pub use queue::{EventQueue, QueueStats};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{PowerTrace, ScalarTrace, TraceStats};
