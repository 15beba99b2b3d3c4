//! The seven lint passes.
//!
//! Every pass reads the one [`crate::parser::Ast`] of a file (plus the
//! file's workspace-relative path, which decides scope): L1 and L4 its
//! items, L5–L7 its expressions, and L2 and L3 its token stream with the
//! test-code and fn-body spans the parser records. L6 and L7 additionally
//! split into per-file fact collection and a workspace-level registry
//! check. Scope rules live in [`crate::scope`] so the passes themselves
//! stay path-agnostic and fixture-testable.

pub mod determinism;
pub mod dimflow;
pub mod keys;
pub mod panics;
pub mod provenance;
pub mod streams;
pub mod units;

pub use determinism::check_determinism;
pub use dimflow::check_dimflow;
pub use keys::{check_keys_workspace, collect_keys, GoldenKeys, KeyFacts};
pub use panics::check_panics;
pub use provenance::check_provenance;
pub use streams::{check_streams_workspace, collect_streams, StreamFacts};
pub use units::check_units;
