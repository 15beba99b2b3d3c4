//! Which lints apply to which workspace paths.
//!
//! Paths are workspace-relative with `/` separators. Only library sources
//! are scanned: `crates/*/src/**` plus the root package's `src/**`,
//! excluding the linter itself, the `xtask` runner, binary targets
//! (`src/bin/`), integration tests, benches and examples — those are
//! tooling and test surface, not the simulation.

/// The lints enabled for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// L1 unit hygiene (physical crates' public API).
    pub l1: bool,
    /// L2 panic freedom (all scanned library code).
    pub l2: bool,
    /// L2's slice-indexing kind (event queue and fleet engine only).
    pub l2_index: bool,
    /// L3 determinism (simulation core, telemetry merge, fleet engine).
    pub l3: bool,
    /// L4 provenance (power, radio, storage constants).
    pub l4: bool,
    /// L5 dimensional flow (function bodies of the physical crates).
    pub l5: bool,
    /// L6 RNG-stream discipline (fact collection runs on every scanned
    /// file; the registry check itself is cross-file).
    pub l6: bool,
    /// L7 telemetry-key registry (every scanned file's emit sites).
    pub l7: bool,
}

/// Crates whose public API must use unit newtypes (L1).
const L1_CRATES: &[&str] = &["power", "harvest", "storage", "radio", "sensors"];

/// Crates whose named constants must cite the paper (L4).
const L4_CRATES: &[&str] = &["power", "radio", "storage"];

/// Crates whose function bodies get dimensional-flow inference (L5).
const L5_CRATES: &[&str] = &["harvest", "storage", "power", "sim", "core"];

/// The crate name for a `crates/<name>/src/...` path, if any.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Computes the lint scope for a workspace-relative path; `None` when the
/// file is not scanned at all.
pub fn scope_for(path: &str) -> Option<Scope> {
    if !path.ends_with(".rs") || path.contains("/bin/") {
        return None;
    }
    if let Some(krate) = crate_of(path) {
        // The linter itself and the vendored property-test framework are
        // tooling: proptest's public API is panic-based by design.
        if krate == "lint" || krate == "proptest" {
            return None;
        }
        let in_sim = path.starts_with("crates/sim/src/");
        let in_core = path.starts_with("crates/core/src/");
        let in_telemetry = path.starts_with("crates/telemetry/src/");
        return Some(Scope {
            l1: L1_CRATES.contains(&krate),
            l2: true,
            l2_index: in_sim || in_core,
            l3: in_sim
                || in_telemetry
                || path.starts_with("crates/core/src/fleet/")
                || path == "crates/core/src/mesh.rs"
                // The decoder must translate identically on every host:
                // a nondeterministic decode or micro-op cache would
                // silently fork the instruction-level goldens.
                || path == "crates/mcu/src/isa.rs"
                || path == "crates/mcu/src/uops.rs",
            l4: L4_CRATES.contains(&krate),
            l5: L5_CRATES.contains(&krate),
            l6: true,
            l7: true,
        });
    }
    // The root package's library sources.
    if path.starts_with("src/") {
        return Some(Scope {
            l2: true,
            l6: true,
            l7: true,
            ..Scope::default()
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_crates_get_l1_and_l4() {
        let s = scope_for("crates/radio/src/channel.rs").unwrap();
        assert!(s.l1 && s.l2 && s.l4);
        assert!(!s.l2_index && !s.l3);
    }

    #[test]
    fn sim_gets_determinism_and_indexing() {
        let s = scope_for("crates/sim/src/queue.rs").unwrap();
        assert!(s.l2 && s.l2_index && s.l3);
        assert!(!s.l1 && !s.l4);
    }

    #[test]
    fn fleet_is_determinism_scoped_but_demo_is_not() {
        assert!(scope_for("crates/core/src/fleet/mod.rs").unwrap().l3);
        assert!(
            scope_for("crates/core/src/fleet/accumulator.rs")
                .unwrap()
                .l3
        );
        assert!(scope_for("crates/core/src/mesh.rs").unwrap().l3);
        let demo = scope_for("crates/core/src/demo.rs").unwrap();
        assert!(!demo.l3 && demo.l2_index);
    }

    #[test]
    fn mcu_decoder_is_determinism_scoped_but_cpu_is_not() {
        let uops = scope_for("crates/mcu/src/uops.rs").unwrap();
        assert!(uops.l3 && uops.l2);
        let isa = scope_for("crates/mcu/src/isa.rs").unwrap();
        assert!(isa.l3 && isa.l2);
        let cpu = scope_for("crates/mcu/src/cpu.rs").unwrap();
        assert!(!cpu.l3 && cpu.l2);
    }

    #[test]
    fn tooling_and_binaries_are_not_scanned() {
        assert_eq!(scope_for("crates/lint/src/lib.rs"), None);
        assert_eq!(scope_for("crates/bench/src/bin/exp_radio.rs"), None);
        assert_eq!(scope_for("crates/sim/tests/integration.rs"), None);
        assert_eq!(scope_for("crates/units/README.md"), None);
    }

    #[test]
    fn root_package_gets_l2_and_registry_lints_only() {
        let s = scope_for("src/lib.rs").unwrap();
        assert_eq!(
            s,
            Scope {
                l2: true,
                l6: true,
                l7: true,
                ..Scope::default()
            }
        );
    }

    #[test]
    fn physical_crates_get_dimensional_flow() {
        assert!(scope_for("crates/power/src/charge_pump.rs").unwrap().l5);
        assert!(scope_for("crates/sim/src/power.rs").unwrap().l5);
        assert!(!scope_for("crates/radio/src/channel.rs").unwrap().l5);
    }
}
