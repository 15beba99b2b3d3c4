//! The traced replay: a workload re-run through the simulator's public
//! calls, with a span around each call, on the same number of workers as
//! the timed runs.
//!
//! Fleet workloads replay as: spec lowering; per node (claimed by the
//! workers one at a time) a stack build, the stack's run and the fold of
//! its registry; then the merge (capture sweep and the engine's channel
//! trial per surviving packet) on the coordinating thread. The campaign
//! does this once per fanned seed with event recording on. The mesh
//! builds its nodes as the mesh engine does, gives each worker a
//! contiguous shard of them as the engine does, and replays the engine's
//! lockstep windows with a barrier per window and a match phase of wakeup
//! detections on the coordinating thread. It detects but does not inject
//! relays, so relay traffic is part of the gap. The replay's counts are
//! checked against the untimed run: wakes everywhere, offered and
//! delivered packets for fleets, originated packets for the mesh.
//!
//! What stays inside `Stack::run_for` (the MCU, ledger, power, storage
//! and radio work of a node) and inside the engines (batched sleep rounds,
//! the reorder window, the fold, packaging) is not reachable from the
//! public API; the report states it as the gap between the untimed run's
//! CPU time and the traced self time.

use crate::probes::{fleet_link, CountingRecorder};
use crate::procfs;
use crate::trace::{self, Span, Tracer, WorkerTrace, ROOT};
use crate::workload::{mesh_node, Prepared, RunOutput, Workload};
use picocube_node::{capture_sweep, AirSlot, FleetConfig, MeshConfig, Scenario};
use picocube_radio::packet::{decode, Checksum};
use picocube_radio::{SuperRegenReceiver, WakeupReceiver};
use picocube_sim::{SimDuration, SimRng, SimTime};
use picocube_telemetry::{keys, Metrics, TelemetryBuffer};
use picocube_units::json::{Json, ToJson};
use picocube_units::{Dbm, Meters};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// The fleet engine's reserved RNG stream for the merge's channel trials.
const MERGE_STREAM: u64 = u64::MAX;

/// The traced replay's spans and what was measured from them.
#[derive(Debug)]
pub struct Replay {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    /// Telemetry events drained through the event path.
    pub events: u64,
    /// Packets the replayed nodes put on the air.
    pub offered: u64,
    /// Packets the replayed merge delivered (fleet workloads).
    pub delivered: u64,
    /// `node.wakes` of the replayed nodes.
    pub wakes: u64,
    /// `capture_sweep` time per slot over the workload's own slots, ns.
    pub capture_ns_per_slot: f64,
    /// `mesh.sync_overhead` of the workload's own mesh (mesh workloads).
    pub sync_overhead: Option<f64>,
    /// Process CPU time the replay took, s.
    pub cpu_s: f64,
    /// Wall time the replay took, s.
    pub wall_s: f64,
}

/// `1 - Σ window busy ÷ (workers × engine wall)`: the share of worker time
/// a coupled engine spends outside its nodes' windows.
fn sync_overhead(window_busy_s: f64, workers: usize, engine_wall_s: f64) -> f64 {
    1.0 - window_busy_s / (workers as f64 * engine_wall_s)
}

/// Replays `p` on `workers` threads. `untimed_wall_s` is the untimed
/// run's wall time (the mesh's sync overhead is measured against it).
pub fn replay(p: &Prepared, workers: usize, untimed_wall_s: f64) -> Result<Replay, String> {
    let cpu0 = procfs::cpu_seconds().unwrap_or(f64::NAN);
    let wall0 = Instant::now();
    let mut tracer = Tracer::new();
    let root = tracer.open("replay", ROOT, p.spec.seed);
    let spec: Scenario = tracer
        .record("scenario.lower", root, 0, || {
            let mut spec = Scenario::parse(p.workload.spec_text())?;
            spec.seed = p.spec.seed;
            spec.validate()?;
            Ok::<_, picocube_node::ScenarioError>(spec)
        })
        .map_err(|e| e.to_string())?;
    let mut out = Replay {
        spans: Vec::new(),
        self_ns: Vec::new(),
        events: 0,
        offered: 0,
        delivered: 0,
        wakes: 0,
        capture_ns_per_slot: f64::NAN,
        sync_overhead: None,
        cpu_s: 0.0,
        wall_s: 0.0,
    };
    let mut capture = (0u64, 0usize);
    match p.workload {
        Workload::MeshRelay => {
            let mesh = tracer
                .record("scenario.lower", root, 1, || {
                    spec.mesh_config(picocube_node::Parallelism::Threads(workers))
                })
                .map_err(|e| e.to_string())?;
            let pass = mesh_pass(&mut tracer, root, &mesh, &p.fleet, workers)?;
            out.offered = pass.offered;
            out.wakes = pass.wakes;
            out.sync_overhead = Some(sync_overhead(pass.window_busy_s, workers, untimed_wall_s));
            capture = pass.capture;
        }
        Workload::CampaignChaos => {
            let mut config = tracer
                .record("scenario.lower", root, 1, || {
                    spec.fleet_config(picocube_node::Parallelism::Threads(workers))
                })
                .map_err(|e| e.to_string())?;
            let seeds = spec.campaign.map_or(1, |c| c.seeds);
            for k in 0..seeds {
                config.seed = SimRng::fan_seed(spec.seed, k as u64);
                let run = tracer.open("scenario.campaign_run", root, config.seed);
                let pass = fleet_pass(&mut tracer, run, &config, workers, true)?;
                tracer.close(run);
                out.offered += pass.offered;
                out.delivered += pass.delivered;
                out.wakes += pass.wakes;
                out.events += pass.events;
                capture.0 += pass.capture.0;
                capture.1 += pass.capture.1;
            }
        }
        Workload::FleetTpms => {
            let config = tracer
                .record("scenario.lower", root, 1, || {
                    spec.fleet_config(picocube_node::Parallelism::Threads(workers))
                })
                .map_err(|e| e.to_string())?;
            let pass = fleet_pass(&mut tracer, root, &config, workers, false)?;
            out.offered = pass.offered;
            out.delivered = pass.delivered;
            out.wakes = pass.wakes;
            capture = pass.capture;
        }
    }
    tracer.close(root);
    out.cpu_s = procfs::cpu_seconds().unwrap_or(f64::NAN) - cpu0;
    out.wall_s = wall0.elapsed().as_secs_f64();
    out.capture_ns_per_slot = capture.0 as f64 / capture.1.max(1) as f64;
    out.spans = tracer.spans().to_vec();
    out.self_ns = trace::self_times(&out.spans);
    Ok(out)
}

/// What one replayed fleet pass produced.
struct FleetPass {
    offered: u64,
    delivered: u64,
    wakes: u64,
    events: u64,
    /// `(capture_sweep ns, slots)`.
    capture: (u64, usize),
}

/// One node's packets as slots at the fleet receiver, with the channel
/// trial inputs.
struct Slot {
    air: AirSlot,
    bits: usize,
    decode_ok: bool,
}

/// What one replay worker hands back from a fleet pass.
struct WorkerYield {
    trace: WorkerTrace,
    slots: Vec<Slot>,
    registry: Metrics,
    events: TelemetryBuffer,
}

/// The node's deployment distance, drawn from its setup stream in the
/// order the fleet engine draws it (wake offset, clock tolerance, then
/// the distance after the run).
fn deployment_distance(config: &FleetConfig, index: usize) -> f64 {
    let mut setup = SimRng::stream(config.seed, 2 * index as u64 + 1);
    setup.next_u64();
    setup.uniform(-500.0, 500.0);
    setup.uniform(config.distance_range.0, config.distance_range.1)
}

/// Replays one fleet run: nodes on `workers` threads, then the merge.
fn fleet_pass(
    tracer: &mut Tracer,
    parent: u32,
    config: &FleetConfig,
    workers: usize,
    record_events: bool,
) -> Result<FleetPass, String> {
    let next = AtomicUsize::new(0);
    let link = fleet_link();
    let results: Vec<Result<WorkerYield, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut local = tracer.worker(w as u32 + 1);
                let next = &next;
                let link = &link;
                scope.spawn(move || {
                    let mut slots = Vec::new();
                    let mut registry = Metrics::new();
                    let mut events = TelemetryBuffer::with_events(record_events);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= config.nodes {
                            break;
                        }
                        let tag = i as u64;
                        let mut node = local
                            .record("stack.build", parent, tag, || {
                                picocube_node::StackCheckpoint::for_fleet_node(
                                    config,
                                    i,
                                    SimDuration::ZERO,
                                    record_events,
                                )
                                .resume()
                            })
                            .map_err(|e| e.to_string())?;
                        local.record("stack.run", parent, tag, || {
                            black_box(node.run_for(config.duration))
                        });
                        local.record("telemetry.fold", parent, tag, || {
                            let mut buffer = node.drain_telemetry();
                            buffer.attribute_to(i as u32);
                            registry.merge_from(&buffer.metrics);
                            events.absorb(buffer);
                        });
                        let rx_dbm = link
                            .budget(Meters::new(deployment_distance(config, i)))
                            .received;
                        for packet in node.packets() {
                            let end = packet.time;
                            let start = end
                                .checked_sub(SimDuration::from_seconds(
                                    packet.transmission.duration,
                                ))
                                .unwrap_or(SimTime::ZERO);
                            slots.push(Slot {
                                air: AirSlot {
                                    node: i,
                                    start,
                                    end,
                                    rx_dbm,
                                },
                                bits: packet.bytes.len() * 8,
                                decode_ok: decode(&packet.bytes, Checksum::Xor).is_ok(),
                            });
                        }
                    }
                    Ok(WorkerYield {
                        trace: local,
                        slots,
                        registry,
                        events,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots = Vec::new();
    let mut registries = Vec::new();
    let mut buffers = Vec::new();
    for result in results {
        let worker = result?;
        tracer.absorb(worker.trace);
        slots.extend(worker.slots);
        registries.push(worker.registry);
        buffers.push(worker.events);
    }
    let wakes = fold_registries(tracer, parent, &registries).counter(keys::NODE_WAKES);
    let mut events = 0;
    if record_events {
        events = tracer.record("telemetry.events", parent, 0, || {
            let mut all = TelemetryBuffer::with_events(true);
            for buffer in buffers {
                all.absorb(buffer);
            }
            all.sort_events();
            let mut sink = CountingRecorder::default();
            all.drain_events_into(&mut sink);
            sink.events
        });
    }
    let offered = slots.len() as u64;
    let (capture, delivered) = merge(tracer, parent, config, slots);
    Ok(FleetPass {
        offered,
        delivered,
        wakes,
        events,
        capture,
    })
}

/// Folds the workers' registries into one, as the engines fold theirs.
fn fold_registries(tracer: &mut Tracer, parent: u32, registries: &[Metrics]) -> Metrics {
    tracer.record("telemetry.fold", parent, u64::MAX, || {
        let mut merged = Metrics::new();
        for registry in registries {
            merged.merge_from(registry);
        }
        merged
    })
}

/// The fleet engine's channel trial of one packet that survived the
/// capture sweep: a Bernoulli bit-error draw per bit at the receiver's
/// bit-error rate for `rx_dbm`, stopping at the first error, and a frame
/// that decodes.
pub fn frame_trial(
    receiver: &SuperRegenReceiver,
    rx_dbm: Dbm,
    bits: usize,
    decode_ok: bool,
    rng: &mut SimRng,
) -> bool {
    let ber = receiver.ber(rx_dbm);
    (0..bits).all(|_| !rng.bernoulli(ber)) && decode_ok
}

/// The merge, spanned: canonical sort, the capture sweep, and the
/// engine's channel trial per surviving packet, drawn from the engine's
/// merge stream. Returns `(capture_sweep ns, slots)` and the packets
/// delivered.
fn merge(
    tracer: &mut Tracer,
    parent: u32,
    config: &FleetConfig,
    mut slots: Vec<Slot>,
) -> ((u64, usize), u64) {
    let merge = tracer.open("fleet.merge", parent, config.seed);
    slots.sort_by_key(|s| (s.air.start, s.air.node));
    let air: Vec<AirSlot> = slots.iter().map(|s| s.air).collect();
    let start = Instant::now();
    let collided = tracer.record("fleet.capture_sweep", merge, 0, || {
        capture_sweep(&air, config.capture_margin)
    });
    let sweep_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let receiver = SuperRegenReceiver::bwrc_issc05();
    let mut rng = SimRng::stream(config.seed, MERGE_STREAM);
    let delivered = tracer.record("radio.frame_trial", merge, 0, || {
        slots
            .iter()
            .zip(&collided)
            .filter(|(slot, lost)| {
                !**lost
                    && frame_trial(
                        &receiver,
                        slot.air.rx_dbm,
                        slot.bits,
                        slot.decode_ok,
                        &mut rng,
                    )
            })
            .count() as u64
    });
    tracer.close(merge);
    ((sweep_ns, air.len()), delivered)
}

/// What one replayed mesh produced.
struct MeshPass {
    /// Σ of the `stack.window` spans, s.
    window_busy_s: f64,
    /// Packets the replayed nodes originated.
    offered: u64,
    /// `node.wakes` of the replayed nodes.
    wakes: u64,
    /// `(capture_sweep ns, slots)` at the sink.
    capture: (u64, usize),
}

/// Replays a mesh. Each worker builds the engine's contiguous shard of
/// nodes and keeps them; every lockstep window (the engine's `turnaround`
/// steps) runs `Stack::run_for` per node between two barriers, then the
/// coordinating thread tests every new frame against every other node's
/// wakeup detector. The sink's capture sweep runs at the end.
fn mesh_pass(
    tracer: &mut Tracer,
    parent: u32,
    mesh: &MeshConfig,
    fleet: &FleetConfig,
    workers: usize,
) -> Result<MeshPass, String> {
    let workers = workers.min(mesh.nodes).max(1);
    let mut steps = Vec::new();
    let mut remaining = mesh.duration;
    while !remaining.is_zero() {
        let step = remaining.min(mesh.turnaround);
        steps.push(step);
        remaining = remaining - step;
    }
    let shard = |w: usize| {
        let (per, extra) = (mesh.nodes / workers, mesh.nodes % workers);
        let lo = w * per + w.min(extra);
        lo..lo + per + usize::from(w < extra)
    };
    let barrier = Barrier::new(workers + 1);
    let window_span = AtomicU32::new(ROOT);
    let outbox: Mutex<Vec<(usize, SimTime, SimTime)>> = Mutex::new(Vec::new());
    let build_failure: Mutex<Option<String>> = Mutex::new(None);
    let link = fleet_link();
    let neighbor: Vec<Dbm> = (1..mesh.nodes.max(2))
        .map(|d| link.budget(Meters::new(d as f64 * mesh.spacing_m)).received)
        .collect();
    let sink: Vec<Dbm> = (0..mesh.nodes)
        .map(|i| {
            link.budget(Meters::new(mesh.sink_offset_m + i as f64 * mesh.spacing_m))
                .received
        })
        .collect();
    let detector: WakeupReceiver = mesh.detector;
    let mut sink_slots: Vec<AirSlot> = Vec::new();
    let mut detections = 0u64;
    let locals: Vec<(WorkerTrace, Metrics)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut local = tracer.worker(w as u32 + 1);
                let (barrier, window_span, outbox, build_failure, steps) =
                    (&barrier, &window_span, &outbox, &build_failure, &steps);
                let shard = shard(w);
                scope.spawn(move || {
                    let mut nodes = Vec::new();
                    for i in shard {
                        let built = local.record("stack.build", parent, i as u64, || {
                            mesh_node(fleet, mesh.detector, i)
                        });
                        match built {
                            Ok(node) => nodes.push((i, node, 0usize)),
                            Err(e) => {
                                *build_failure.lock().expect("no panics hold the lock") = Some(e);
                            }
                        }
                    }
                    for &step in steps {
                        barrier.wait();
                        let span = window_span.load(Ordering::Acquire);
                        let mut sent = Vec::new();
                        for (i, node, seen) in &mut nodes {
                            local.record("stack.window", span, *i as u64, || {
                                black_box(node.run_for(step))
                            });
                            for packet in node.packets_since(*seen) {
                                let start = packet
                                    .time
                                    .checked_sub(SimDuration::from_seconds(
                                        packet.transmission.duration,
                                    ))
                                    .unwrap_or(SimTime::ZERO);
                                sent.push((*i, start, packet.time));
                            }
                            *seen = node.packet_count();
                        }
                        outbox.lock().expect("no panics hold the lock").extend(sent);
                        barrier.wait();
                    }
                    let mut registry = Metrics::new();
                    for (i, node, _) in &mut nodes {
                        local.record("telemetry.fold", parent, *i as u64, || {
                            registry.merge_from(&node.drain_telemetry().metrics);
                        });
                    }
                    (local, registry)
                })
            })
            .collect();
        for k in 0..steps.len() as u64 {
            let span = tracer.open("mesh.window", parent, k);
            window_span.store(span, Ordering::Release);
            barrier.wait();
            barrier.wait();
            let mut sent = std::mem::take(&mut *outbox.lock().expect("no panics hold the lock"));
            sent.sort_unstable();
            let matched = tracer.open("mesh.match", span, k);
            tracer.record("radio.wakeup_detect", matched, k, || {
                for &(from, _, _) in &sent {
                    for to in 0..mesh.nodes {
                        let level = from
                            .abs_diff(to)
                            .checked_sub(1)
                            .and_then(|d| neighbor.get(d));
                        if let Some(&level) = level {
                            detections += u64::from(detector.detects(level));
                        }
                    }
                }
            });
            for &(from, start, end) in &sent {
                if let Some(&rx_dbm) = sink.get(from) {
                    sink_slots.push(AirSlot {
                        node: from,
                        start,
                        end,
                        rx_dbm,
                    });
                }
            }
            tracer.close(matched);
            tracer.close(span);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    if let Some(error) = build_failure.into_inner().ok().flatten() {
        return Err(format!("mesh node build failed: {error}"));
    }
    black_box(detections);
    let mut window_busy_ns = 0u64;
    let mut registries = Vec::new();
    for (local, registry) in locals {
        let start = tracer.spans().len();
        tracer.absorb(local);
        window_busy_ns += tracer.spans()[start..]
            .iter()
            .filter(|s| s.name == "stack.window")
            .map(Span::duration_ns)
            .sum::<u64>();
        registries.push(registry);
    }
    let wakes = fold_registries(tracer, parent, &registries).counter(keys::NODE_WAKES);
    sink_slots.sort_by_key(|s| (s.start, s.node));
    let start = Instant::now();
    tracer.record("fleet.capture_sweep", parent, 0, || {
        black_box(capture_sweep(&sink_slots, mesh.capture_margin))
    });
    let sweep_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(MeshPass {
        window_busy_s: window_busy_ns as f64 * 1e-9,
        offered: sink_slots.len() as u64,
        wakes,
        capture: (sweep_ns, sink_slots.len()),
    })
}

impl Replay {
    /// Σ of every span's self time except the replay root's (whose self
    /// time is the coordinating thread waiting), s.
    pub fn span_self_s(&self) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.parent != ROOT)
            .map(|(_, &ns)| ns as f64)
            .sum::<f64>()
            * 1e-9
    }

    /// Self time of one layer's spans, s.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.layers()
            .into_iter()
            .find(|(l, _, _)| *l == layer)
            .map_or(0.0, |(_, ns, _)| ns as f64 * 1e-9)
    }

    /// Ways the replay disagrees with the untimed engine run. Its nodes
    /// must wake as often as the engine's. A fleet replay must offer and
    /// deliver the same packets; a mesh replay, whose nodes relay nothing,
    /// must originate the packets the engine's nodes originated.
    pub fn problems(&self, untimed: &RunOutput) -> Vec<String> {
        let c = &untimed.counts;
        let mut pairs = vec![("node.wakes", self.wakes, c.wakes)];
        if self.sync_overhead.is_some() {
            pairs.push(("originated packets", self.offered, c.mesh_originals));
        } else {
            pairs.push(("offered packets", self.offered, c.offered));
            pairs.push(("delivered packets", self.delivered, c.delivered));
        }
        pairs
            .into_iter()
            .filter(|(_, replayed, engine)| replayed != engine)
            .map(|(what, replayed, engine)| {
                format!("replay {what} {replayed}, the untimed engine run {engine}")
            })
            .collect()
    }

    /// Self time per layer as JSON, s.
    pub fn layer_json(&self) -> Json {
        Json::Obj(
            self.layers()
                .into_iter()
                .map(|(layer, ns, _)| (layer.to_string(), (ns as f64 * 1e-9).to_json()))
                .collect(),
        )
    }

    fn layers(&self) -> Vec<(&'static str, u64, usize)> {
        trace::totals_by(&self.spans, &self.self_ns, Span::layer)
            .into_iter()
            .map(|(layer, (ns, n))| (layer, ns, n))
            .collect()
    }

    /// Prints the per-layer self-time table and the traced-vs-untimed gap.
    pub fn print(&self, untimed_cpu_s: f64) {
        let total: u64 = self.self_ns.iter().sum();
        println!(
            "  traced replay: wall {:.4} s, CPU {:.4} s, {} spans (untimed run CPU {:.4} s)",
            self.wall_s,
            self.cpu_s,
            self.spans.len(),
            untimed_cpu_s
        );
        println!(
            "    {:<12} {:>12} {:>8} {:>9}",
            "layer", "self s", "share", "spans"
        );
        for (layer, ns, count) in self.layers() {
            println!(
                "    {layer:<12} {:>12.6} {:>7.2}% {count:>9}",
                ns as f64 * 1e-9,
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
        println!("    by span name:");
        for (name, (ns, count)) in trace::totals_by(&self.spans, &self.self_ns, |s| s.name) {
            println!("      {name:<28} {:>12.6} s {count:>9}", ns as f64 * 1e-9);
        }
        println!(
            "    mcu, sim, power and storage run inside stack.run / stack.window, where \
             spans from outside cannot reach; their per-call costs are the layer probes below"
        );
    }

    /// Writes every span as CSV to `path`.
    pub fn write_spans(&self, path: &str) {
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            writeln!(out, "name,parent,start_ns,end_ns,tag,worker,self_ns")?;
            for (span, own) in self.spans.iter().zip(&self.self_ns) {
                writeln!(
                    out,
                    "{},{},{},{},{},{},{own}",
                    span.name,
                    if span.parent == ROOT {
                        -1
                    } else {
                        i64::from(span.parent)
                    },
                    span.start_ns,
                    span.end_ns,
                    span.tag,
                    span.worker
                )?;
            }
            out.flush()
        });
        if let Err(error) = written {
            eprintln!("warning: cannot write {path}: {error}");
        }
    }
}
