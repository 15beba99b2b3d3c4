//! The three benchmark workloads: their specs, their set-up, one run, and
//! the checks every run's output must pass.

use picocube_node::{
    run_fleet_with, run_mesh_with, run_scenario_with, FleetConfig, MeshConfig, Parallelism,
    Scenario, Stack, StackCheckpoint, SurvivalCurve,
};
use picocube_radio::WakeupReceiver;
use picocube_sim::SimDuration;
use picocube_telemetry::{keys, Metrics, NullRecorder};
use picocube_units::json::{Json, ToJson};

/// A named input set of the benchmark. Every workload is a batch job: one
/// run at a time over a fixed input made from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2048 default TPMS nodes in an ALOHA fleet for 150 s: the paper's
    /// application at deployment density.
    FleetTpms,
    /// A 24-node line mesh for 600 s: the only coupled (lockstep) engine.
    MeshRelay,
    /// 32 seeds x 16 chaos nodes x 600 s: many small fleets, brown-outs
    /// and the live telemetry event path.
    CampaignChaos,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Self; 3] = [Self::FleetTpms, Self::MeshRelay, Self::CampaignChaos];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetTpms => "fleet_tpms",
            Self::MeshRelay => "mesh_relay",
            Self::CampaignChaos => "campaign_chaos",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload runs on when `available` are free. The
    /// mesh runs serially: its 24 nodes meet at a barrier every 20 ms
    /// window, and with two workers on a two-core host it is slower than
    /// serial and its wall time follows the host's thread wake-up latency
    /// more than the simulator's own work.
    pub fn workers(self, available: usize) -> usize {
        match self {
            Self::MeshRelay => 1,
            Self::FleetTpms | Self::CampaignChaos => available.max(1),
        }
    }

    /// The scenario spec text the workload is lowered from.
    pub fn spec_text(self) -> &'static str {
        match self {
            Self::FleetTpms => include_str!("../specs/fleet_tpms.json"),
            Self::MeshRelay => include_str!("../specs/mesh_relay.json"),
            Self::CampaignChaos => include_str!("../specs/campaign_chaos.json"),
        }
    }
}

/// A workload lowered for one seed: the spec and its engine configs.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The parsed spec, with the benchmark seed applied.
    pub spec: Scenario,
    /// The spec lowered onto the fleet engine (a mesh spec lowers to the
    /// same nodes without the relay coupling; the layer probes use it).
    pub fleet: FleetConfig,
    /// The spec lowered onto the mesh engine, for mesh workloads.
    pub mesh: Option<MeshConfig>,
}

/// Parses and lowers `workload` for `seed` and builds its first node: the
/// work the `setup_s` metric times. Image and decode caches are whatever
/// the process has warmed; `setup_s` runs this in a fresh process.
pub fn prepare(workload: Workload, seed: u64) -> Result<(Prepared, Stack), String> {
    let mut spec = Scenario::parse(workload.spec_text()).map_err(|e| e.to_string())?;
    spec.seed = seed;
    spec.validate().map_err(|e| e.to_string())?;
    let fleet = spec
        .fleet_config(Parallelism::Serial)
        .map_err(|e| e.to_string())?;
    let mesh = match spec.mesh {
        Some(_) => Some(
            spec.mesh_config(Parallelism::Serial)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let node = match &mesh {
        Some(mesh) => mesh_node(&fleet, mesh.detector, 0)?,
        None => StackCheckpoint::for_fleet_node(&fleet, 0, SimDuration::ZERO, false)
            .resume()
            .map_err(|e| e.to_string())?,
    };
    Ok((
        Prepared {
            workload,
            spec,
            fleet,
            mesh,
        },
        node,
    ))
}

/// Mesh node `index` as the mesh engine builds it: node `index` of `fleet`
/// (the same spec lowered onto the fleet engine, so the same base, seed
/// streams and wake jitter) with the mesh's wakeup `detector` fitted.
pub fn mesh_node(
    fleet: &FleetConfig,
    detector: WakeupReceiver,
    index: usize,
) -> Result<Stack, String> {
    let mut node = StackCheckpoint::for_fleet_node(fleet, index, SimDuration::ZERO, false)
        .resume()
        .map_err(|e| e.to_string())?;
    node.fit_mesh_rx(detector).map_err(|e| e.to_string())?;
    Ok(node)
}

/// The deterministic counts of one run, from its outcome and registry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Packets put on the air.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Node wake-ups (`node.wakes`).
    pub wakes: u64,
    /// Brown-outs (`node.brownouts`).
    pub brownouts: u64,
    /// Relayed copies on the air (`mesh.relay.on_air`).
    pub relays_on_air: u64,
    /// Packets the mesh's nodes originated (`mesh.unique.offered`); 0 for
    /// fleets, whose every packet is an original.
    pub mesh_originals: u64,
    /// MCU active time (`mcu.active_ns`); cycles at 1 MHz are this / 1000.
    pub mcu_active_ns: u64,
    /// Operating-point cache hits.
    pub op_cache_hits: u64,
    /// Operating-point cache misses.
    pub op_cache_misses: u64,
    /// Battery-side energy of all nodes (`power.total.uj`), µJ.
    pub energy_uj: f64,
}

impl Counts {
    fn from_metrics(offered: u64, delivered: u64, metrics: &Metrics) -> Self {
        Self {
            offered,
            delivered,
            wakes: metrics.counter(keys::NODE_WAKES),
            brownouts: metrics.counter(keys::NODE_BROWNOUTS),
            relays_on_air: metrics.counter(keys::MESH_RELAY_ON_AIR),
            mesh_originals: metrics.counter(keys::MESH_UNIQUE_OFFERED),
            mcu_active_ns: metrics.counter(keys::MCU_ACTIVE_NS),
            op_cache_hits: metrics.counter(keys::BOARD_SWITCH_OP_CACHE_HITS),
            op_cache_misses: metrics.counter(keys::BOARD_SWITCH_OP_CACHE_MISSES),
            energy_uj: metrics.gauge(keys::POWER_TOTAL_UJ),
        }
    }

    /// The counts pinned in `pinned.json`, by name.
    pub fn pinned_fields(&self) -> [(&'static str, u64); 6] {
        [
            ("offered", self.offered),
            ("delivered", self.delivered),
            ("node.wakes", self.wakes),
            ("node.brownouts", self.brownouts),
            ("mesh.relay.on_air", self.relays_on_air),
            ("mcu.active_ns", self.mcu_active_ns),
        ]
    }
}

/// What one run produced, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// FNV-1a digest of the outcome's `Debug` text and the merged
    /// registry's JSON: equal digests mean bit-identical results.
    pub digest: u64,
    /// Deterministic counts.
    pub counts: Counts,
    /// The campaign's survival curve.
    pub survival: Option<SurvivalCurve>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a run whose outcome prints as `outcome` and whose merged
/// registry is `metrics`.
pub fn output_digest(outcome: &str, metrics: &Metrics) -> u64 {
    fnv1a(format!("{outcome}\n{}", metrics.to_json()).as_bytes())
}

impl Prepared {
    /// Simulated node-seconds one run completes.
    pub fn node_seconds(&self) -> f64 {
        let runs = self.spec.campaign.map_or(1, |c| c.seeds);
        (runs * self.spec.nodes) as f64 * self.spec.duration_s
    }

    /// The fleet config at `parallelism`.
    pub fn fleet_at(&self, parallelism: Parallelism) -> FleetConfig {
        FleetConfig {
            parallelism,
            ..self.fleet.clone()
        }
    }

    /// One run of the workload at `parallelism`.
    pub fn run(&self, parallelism: Parallelism) -> Result<RunOutput, String> {
        match self.workload {
            Workload::FleetTpms => Ok(self.run_fleet(parallelism)),
            Workload::MeshRelay => {
                let mesh = MeshConfig {
                    parallelism,
                    ..self
                        .mesh
                        .clone()
                        .ok_or("mesh workload without a mesh spec")?
                };
                let (outcome, metrics) =
                    run_mesh_with(&mesh, &mut NullRecorder).map_err(|e| e.to_string())?;
                let counts = Counts::from_metrics(
                    outcome.sink.offered as u64,
                    outcome.sink.delivered as u64,
                    &metrics,
                );
                let digest = output_digest(&format!("{outcome:?}"), &metrics);
                Ok(RunOutput {
                    digest,
                    counts,
                    survival: None,
                })
            }
            Workload::CampaignChaos => {
                let outcome = run_scenario_with(&self.spec, parallelism, &mut NullRecorder)
                    .map_err(|e| e.to_string())?;
                let offered = outcome.runs.iter().map(|r| r.offered as u64).sum();
                let delivered = outcome.runs.iter().map(|r| r.delivered as u64).sum();
                let counts = Counts::from_metrics(offered, delivered, &outcome.metrics);
                let text = format!("{:?}\n{:?}", outcome.runs, outcome.survival);
                Ok(RunOutput {
                    digest: output_digest(&text, &outcome.metrics),
                    counts,
                    survival: outcome.survival,
                })
            }
        }
    }

    fn run_fleet(&self, parallelism: Parallelism) -> RunOutput {
        let (outcome, metrics) = run_fleet_with(&self.fleet_at(parallelism), &mut NullRecorder);
        RunOutput {
            digest: output_digest(&format!("{outcome:?}"), &metrics),
            counts: Counts::from_metrics(
                outcome.offered as u64,
                outcome.delivered as u64,
                &metrics,
            ),
            survival: None,
        }
    }

    /// The untimed Serial reference the timed runs are checked against.
    pub fn reference(&self) -> Result<RunOutput, String> {
        self.run(Parallelism::Serial)
    }

    /// Every way `out` fails the output checks: a result that differs
    /// from the reference, counts that differ from the pins for this seed,
    /// no packets offered, or a malformed survival curve.
    pub fn check(&self, out: &RunOutput, reference: &RunOutput) -> Vec<String> {
        let mut problems = Vec::new();
        if out.digest != reference.digest {
            problems.push(format!(
                "output digest {:016x} differs from the Serial reference {:016x}",
                out.digest, reference.digest
            ));
        }
        if out.counts.offered == 0 {
            problems.push("run offered zero packets".to_string());
        }
        problems.extend(pin_problems(self.workload, self.spec.seed, &out.counts));
        if let Some(campaign) = self.spec.campaign {
            match &out.survival {
                Some(curve) => problems.extend(survival_problems(
                    curve,
                    self.spec.duration_s,
                    campaign.bins,
                )),
                None => problems.push("campaign returned no survival curve".to_string()),
            }
        }
        problems
    }
}

/// Differences between `counts` and the counts pinned for `workload` at
/// `seed` (none when the seed is not pinned).
pub fn pin_problems(workload: Workload, seed: u64, counts: &Counts) -> Vec<String> {
    let Ok(pins) = Json::parse(include_str!("../pinned.json")) else {
        return vec!["pinned.json does not parse".to_string()];
    };
    if pins.get("seed").and_then(Json::as_u64) != Some(seed) {
        return Vec::new();
    }
    let Some(pinned) = pins.get("workloads").and_then(|w| w.get(workload.name())) else {
        return Vec::new();
    };
    counts
        .pinned_fields()
        .into_iter()
        .filter_map(|(name, value)| {
            let want = pinned.get(name).and_then(Json::as_u64)?;
            (want != value).then(|| format!("{name} = {value}, pinned {want} at seed {seed}"))
        })
        .collect()
}

/// Ways a campaign survival curve is malformed: wrong length, a time grid
/// that is not increasing or does not end at the run's duration, or alive
/// fractions outside `[0, 1]` or rising over time.
pub fn survival_problems(curve: &SurvivalCurve, duration_s: f64, bins: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if curve.times_s.len() != bins || curve.alive.len() != bins {
        problems.push(format!(
            "survival curve has {} times and {} points, want {bins}",
            curve.times_s.len(),
            curve.alive.len()
        ));
    }
    if curve.times_s.windows(2).any(|w| w[0] >= w[1]) || curve.times_s.first() <= Some(&0.0) {
        problems.push("survival times are not positive and increasing".to_string());
    }
    if curve
        .times_s
        .last()
        .is_none_or(|t| (t - duration_s).abs() > 1e-9 * duration_s)
    {
        problems.push("survival grid does not end at the run's duration".to_string());
    }
    if curve.alive.iter().any(|a| !(0.0..=1.0).contains(a)) {
        problems.push("survival fraction outside [0, 1]".to_string());
    }
    if curve.alive.windows(2).any(|w| w[1] > w[0]) {
        problems.push("survival fraction rises over time".to_string());
    }
    problems
}
