//! Layer probes: timed calls into each layer's public functions, on
//! inputs shaped like the workload's (its node config, its fleet, its
//! spec). Every probe runs on every workload, so each per-layer metric is
//! measured in every traced run; a layer change should move its probe
//! everywhere, and the end-to-end metrics only where the layer runs.

use crate::replay;
use crate::stats::{median, Summary};
use crate::workload::Prepared;
use picocube_harvest::{Harvester, WheelHarvester};
use picocube_mcu::{firmware, Irq, Mcu};
use picocube_node::{
    merge_fleet, run_fleet_partial, run_fleet_with, simulate_node, FleetApp, FleetCheckpoint,
    FleetConfig, NodeConfig, Parallelism, Scenario, StackCheckpoint,
};
use picocube_power::cots::CotsPowerChain;
use picocube_radio::{Channel, Link, PatchAntenna, SuperRegenReceiver, WakeupReceiver};
use picocube_sim::{EventQueue, PowerLedger, SimDuration, SimRng, SimTime, SleepBatch};
use picocube_storage::{NimhCell, StorageElement};
use picocube_telemetry::{Event, EventKind, Metrics, NullRecorder, Recorder, TelemetryBuffer};
use picocube_units::json::{FromJson, Json, ToJson};
use picocube_units::{Amps, Db, Dbm, Hertz, Meters, Seconds, Volts};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 7;

/// Interleaved repetitions of each parallelism config in the scheduler
/// probe.
const SCHED_REPS: usize = 5;

/// Cycles a standalone core may run through one wake burst before the
/// probe gives up on it sleeping again.
const MAX_BURST_CYCLES: u64 = 1_000_000;

/// Per-layer costs of one traced run, in metric order.
#[derive(Debug, Default)]
pub struct LayerCosts {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    /// Wall time of the sub-fleet under each parallelism config, timed
    /// the same way and interleaved.
    sched: Vec<(String, Summary)>,
}

impl LayerCosts {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The probe metrics, `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.metrics.clone()
    }

    /// The scheduler timings as JSON: per config, median, quartiles and
    /// sample count of the sub-fleet's wall time.
    pub fn sched_json(&self) -> Json {
        Json::Obj(
            self.sched
                .iter()
                .map(|(config, s)| {
                    (
                        config.clone(),
                        Json::Obj(vec![
                            ("median_s".into(), s.median.to_json()),
                            ("q1_s".into(), s.q1.to_json()),
                            ("q3_s".into(), s.q3.to_json()),
                            ("n".into(), s.n.to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Prints the probe table.
    pub fn print(&self) {
        println!("  layer probes (timed public calls):");
        for (name, value, unit) in &self.metrics {
            println!("    {name:<40} {value:>14.4} {unit}");
        }
        for (config, s) in &self.sched {
            println!(
                "    sub-fleet wall at {config:<12} median {:.4} s (q1 {:.4}, q3 {:.4}, n {})",
                s.median, s.q1, s.q3, s.n
            );
        }
        for note in &self.notes {
            println!("    note: {note}");
        }
    }
}

/// Median over [`BATCHES`] of one batch's time divided by `ops`, in ns.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&times)
}

/// Runs every probe for the workload `p` on `workers` threads.
pub fn run_all(p: &Prepared, workers: usize) -> Result<LayerCosts, String> {
    let mut costs = LayerCosts::default();
    probe_mcu(&mut costs)?;
    probe_sim(&mut costs);
    probe_power(&mut costs)?;
    probe_radio(&mut costs);
    probe_stack(p, &mut costs)?;
    probe_fleet(p, workers, &mut costs)?;
    probe_scenario(p, &mut costs)?;
    probe_telemetry(p, &mut costs)?;
    Ok(costs)
}

/// A standalone core running the TPMS firmware, booted to its first sleep,
/// with a pressure sensor on its SPI bus whose conversions are always
/// ready.
fn tpms_core(translate: bool) -> Result<Mcu, String> {
    let image = firmware::tpms_app(0x42).map_err(|e| e.to_string())?;
    let mut mcu = Mcu::new();
    mcu.load(&image);
    mcu.set_translation(translate);
    mcu.attach_spi(Box::new(|mosi: u8| if mosi == 0xF0 { 0x01 } else { 0x5A }));
    mcu.reset();
    mcu.run(MAX_BURST_CYCLES);
    Ok(mcu)
}

/// One wake of the TPMS firmware (the sensor's wake line): sample four
/// channels, packetize, clock the frame to the radio. Returns the cycles
/// it ran before sleeping again.
fn wake_burst(mcu: &mut Mcu) -> u64 {
    mcu.raise(Irq::Port1);
    mcu.run(MAX_BURST_CYCLES)
}

fn probe_mcu(costs: &mut LayerCosts) -> Result<(), String> {
    for (name, translate) in [
        ("mcu.ns_per_cycle", true),
        ("mcu.ns_per_cycle_interp", false),
    ] {
        let mut mcu = tpms_core(translate)?;
        let cycles_per_burst = wake_burst(&mut mcu);
        if cycles_per_burst == 0 || cycles_per_burst >= MAX_BURST_CYCLES {
            return Err(format!(
                "TPMS wake burst ran {cycles_per_burst} cycles; expected a finite burst"
            ));
        }
        let bursts = 200;
        let mut cycles = 0u64;
        let times: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                let mut ran = 0;
                for _ in 0..bursts {
                    ran += black_box(wake_burst(&mut mcu));
                }
                cycles = ran;
                start.elapsed().as_nanos() as f64 / ran as f64
            })
            .collect();
        costs.push(name, median(&times), "ns");
        if translate {
            costs.notes.push(format!(
                "mcu probes run the TPMS firmware's wake burst: {} cycles per burst",
                cycles / bursts
            ));
        }
    }
    // Distinct images, so every load decodes (the decode cache shares
    // only identical images).
    let images = (0..64u16)
        .map(|k| firmware::tpms_alarm_app(k as u8, 0x4000 + k))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut cores: Vec<Mcu> = images.iter().map(|_| Mcu::new()).collect();
    let start = Instant::now();
    for (core, image) in cores.iter_mut().zip(&images) {
        core.load(black_box(image));
    }
    costs.push(
        "mcu.load_us",
        start.elapsed().as_secs_f64() * 1e6 / images.len() as f64,
        "us",
    );
    Ok(())
}

/// A ledger shaped like a TPMS stack's: one battery rail with its five
/// loads, three of them drawing.
fn tpms_ledger() -> PowerLedger {
    let mut ledger = PowerLedger::new();
    let rail = ledger.add_rail("VBAT", Volts::new(1.25));
    for (name, micro_amps) in [
        ("power chain overhead", 0.4),
        ("mcu+sensor (via pump)", 1.8),
        ("radio digital (via pump)", 0.0),
        ("radio RF rail", 0.0),
        ("wakeup receiver", 0.3),
    ] {
        let load = ledger
            .register_load(rail, name)
            .expect("rail issued by this ledger");
        ledger
            .set_load_current(load, Amps::from_micro(micro_amps))
            .expect("load issued by this ledger");
    }
    ledger
}

fn probe_sim(costs: &mut LayerCosts) {
    let mut ledger = tpms_ledger();
    let mut t = 0u64;
    let steps = 100_000;
    let advance = ns_per_op(steps, || {
        for _ in 0..steps {
            t += 1_000;
            ledger.advance_to(SimTime::from_nanos(t));
        }
    });
    costs.push("ledger.advance_ns", advance, "ns");

    // Instruction costs of 1..6 cycles, as a wake burst has.
    let deltas: Vec<u32> = (0..1_000u32).map(|i| 1 + (i * 7 + i / 3) % 6).collect();
    let mut ledger = tpms_ledger();
    let replay = ns_per_op(deltas.len() * 100, || {
        for _ in 0..100 {
            ledger.advance_deltas(black_box(&deltas));
        }
    });
    costs.push("ledger.replay_ns_per_insn", replay, "ns");

    let mut ledgers: Vec<PowerLedger> = (0..4).map(|_| tpms_ledger()).collect();
    let mut batch = SleepBatch::new();
    let mut now = 0u64;
    let rounds = 20_000;
    let sleep = ns_per_op(rounds * ledgers.len(), || {
        for _ in 0..rounds {
            now += 6_000_000_000;
            batch.clear();
            let spans: Vec<usize> = ledgers
                .iter_mut()
                .map(|l| l.stage_sleep(SimTime::from_nanos(now), &mut batch))
                .collect();
            batch.integrate();
            for (ledger, span) in ledgers.iter_mut().zip(spans) {
                ledger.commit_sleep(&batch, span);
            }
        }
    });
    costs.push("sleep_batch.ns_per_span", sleep, "ns");

    let mut queue = EventQueue::<u32>::new();
    let events = 1_000u64;
    let queue_ns = ns_per_op(2 * events as usize * 10, || {
        for _ in 0..10 {
            for i in 0..events {
                queue.push(SimTime::from_nanos(i * 7_919 % 50_021), i as u32);
            }
            while black_box(queue.pop()).is_some() {}
        }
    });
    costs.push("queue.ns_per_op", queue_ns, "ns");
}

fn probe_power(costs: &mut LayerCosts) -> Result<(), String> {
    let chain = CotsPowerChain::paper();
    let vbat = Volts::new(1.25);
    let mut step = 0u32;
    let mut failed = None;
    let solves = 3 * 2_000;
    let solve = ns_per_op(solves, || {
        for _ in 0..solves / 3 {
            step = (step + 1) % 64;
            let load = Amps::from_micro(50.0 + f64::from(step));
            let results = [
                chain.supply_mcu(vbat, load),
                chain.supply_radio_rf(vbat, load * 20.0),
                chain.supply_radio_digital(Volts::new(2.1), load),
            ];
            for r in results {
                if let Err(e) = black_box(r) {
                    failed = Some(e.to_string());
                }
            }
        }
    });
    if let Some(e) = failed {
        return Err(format!("power probe operating point failed: {e}"));
    }
    costs.push("power.op_solve_ns", solve, "ns");

    // One storage settle: harvester average over the span, the chain's
    // rectifier, one cell step.
    let harvester = WheelHarvester::automotive(picocube_harvest::DriveCycle::highway());
    let mut cell = NimhCell::picocube();
    let mut t = 0.0f64;
    let settles = 5_000;
    let mut failed = None;
    let settle = ns_per_op(settles, || {
        for _ in 0..settles {
            let (t0, t1) = (Seconds::new(t), Seconds::new(t + 6.0));
            t += 6.0;
            let raw = harvester.average_power(t0, t1, 16);
            match chain.harvest(raw, vbat) {
                Ok(delivered) => {
                    let charge = delivered / vbat;
                    black_box(cell.step(charge - Amps::from_micro(5.0), Seconds::new(6.0)));
                }
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    if let Some(e) = failed {
        return Err(format!("storage probe harvest failed: {e}"));
    }
    costs.push("storage.settle_ns", settle, "ns");
    Ok(())
}

/// The fleet receiver's link, as the fleet engine builds it.
pub fn fleet_link() -> Link {
    Link {
        tx_power: Dbm::new(0.8),
        tx_gain: PatchAntenna::as_built().gain_dbi(Hertz::new(1.863e9)),
        rx_gain: Db::new(0.0),
        orientation_loss: Db::new(2.0),
        channel: Channel::demo_room(),
    }
}

fn probe_radio(costs: &mut LayerCosts) {
    // The merge's trial of a 104-bit frame from 2 m, where nearly every
    // frame survives all its bit draws.
    let receiver = SuperRegenReceiver::bwrc_issc05();
    let rx_dbm = fleet_link().budget(Meters::new(2.0)).received;
    let mut rng = SimRng::seed_from(7);
    let trials = 20_000;
    let frame = ns_per_op(trials, || {
        for _ in 0..trials {
            black_box(replay::frame_trial(
                &receiver,
                black_box(rx_dbm),
                104,
                true,
                &mut rng,
            ));
        }
    });
    costs.push("radio.frame_trial_ns", frame, "ns");

    let detector = WakeupReceiver::mesh_correlator();
    let levels: Vec<Dbm> = (0..64).map(|i| Dbm::new(-95.0 + f64::from(i))).collect();
    let rounds = 2_000;
    let detect = ns_per_op(rounds * levels.len(), || {
        for _ in 0..rounds {
            for &level in &levels {
                black_box(detector.detects(black_box(level)));
            }
        }
    });
    costs.push("radio.wakeup_detect_ns", detect, "ns");
}

fn probe_stack(p: &Prepared, costs: &mut LayerCosts) -> Result<(), String> {
    let build = |i: usize| {
        StackCheckpoint::for_fleet_node(&p.fleet, i % p.fleet.nodes, SimDuration::ZERO, false)
            .resume()
            .map_err(|e| e.to_string())
    };
    // Warm: node ids repeat every 256 nodes, so every image is cached.
    for i in 0..p.fleet.nodes.min(256) {
        black_box(build(i)?);
    }
    let builds = 256;
    let start = Instant::now();
    for i in 0..builds {
        black_box(build(i)?);
    }
    costs.push(
        "stack.build_us",
        start.elapsed().as_secs_f64() * 1e6 / builds as f64,
        "us",
    );

    // Whole-run cost per wake, over enough nodes for ~2400 simulated
    // node-seconds.
    let nodes = ((2_400.0 / p.spec.duration_s).ceil() as usize).clamp(1, p.fleet.nodes);
    let mut busy = 0.0;
    let mut wakes = 0u64;
    for i in 0..nodes {
        let mut node = build(i)?;
        let start = Instant::now();
        black_box(node.run_for(p.fleet.duration));
        busy += start.elapsed().as_secs_f64();
        wakes += node.report().wakes;
    }
    costs.push("stack.wake_us", busy * 1e6 / wakes.max(1) as f64, "us");

    // 20 ms windows on a node that is asleep between its wakes.
    let mut node = match &p.mesh {
        Some(mesh) => crate::workload::mesh_node(&p.fleet, mesh.detector, 0)?,
        None => build(0)?,
    };
    node.run_for(SimDuration::from_secs(1));
    let windows = 3_000;
    let window = SimDuration::from_millis(20);
    let start = Instant::now();
    for _ in 0..windows {
        black_box(node.run_for(window));
    }
    costs.push(
        "stack.window_us",
        start.elapsed().as_secs_f64() * 1e6 / windows as f64,
        "us",
    );
    Ok(())
}

/// Sub-fleet size for the scheduler, merge and checkpoint probes: a
/// prefix of the workload's fleet of about 38k simulated node-seconds.
fn sub_fleet(p: &Prepared) -> FleetConfig {
    let nodes = (38_400.0 / p.spec.duration_s) as usize;
    FleetConfig {
        nodes: nodes.max(1),
        ..p.fleet.clone()
    }
}

fn probe_fleet(p: &Prepared, workers: usize, costs: &mut LayerCosts) -> Result<(), String> {
    let sub = sub_fleet(p);
    let configs = [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(workers),
    ];
    let mut times: [Vec<f64>; 3] = Default::default();
    for rep in 0..SCHED_REPS {
        for k in 0..configs.len() {
            let which = (rep + k) % configs.len();
            let config = FleetConfig {
                parallelism: configs[which],
                ..sub.clone()
            };
            let start = Instant::now();
            black_box(run_fleet_with(&config, &mut NullRecorder));
            times[which].push(start.elapsed().as_secs_f64());
        }
    }
    for (config, t) in configs.iter().zip(&times) {
        costs.sched.push((format!("{config:?}"), Summary::of(t)));
    }
    let [serial, one, threads] = times.map(|t| median(&t));
    costs.push(
        "fleet.sched.parallel_eff",
        serial / (workers as f64 * threads),
        "ratio",
    );
    costs.push("fleet.sched.one_worker_vs_serial", one / serial, "ratio");

    let start = Instant::now();
    let nodes: Vec<_> = (0..sub.nodes).map(|i| simulate_node(&sub, i)).collect();
    let per_node = start.elapsed().as_secs_f64();
    costs.push("fleet.batch_gain", per_node / serial, "ratio");

    let mut merge_times = Vec::new();
    let mut offered = 0;
    for _ in 0..3 {
        let input = nodes.clone();
        let start = Instant::now();
        let outcome = merge_fleet(&sub, input);
        merge_times.push(start.elapsed().as_secs_f64());
        offered = outcome.offered;
    }
    costs.push(
        "fleet.merge_us_per_packet",
        median(&merge_times) * 1e6 / offered.max(1) as f64,
        "us",
    );

    let checkpoint = run_fleet_partial(&sub, None, sub.nodes, false).map_err(|e| e.to_string())?;
    let mut text = String::new();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut records = 0;
    for _ in 0..3 {
        let start = Instant::now();
        text = checkpoint.to_json().to_string();
        encode.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let parsed = Json::parse(&text).map_err(|e| e.to_string())?;
        let back = FleetCheckpoint::from_json(&parsed).map_err(|e| e.to_string())?;
        decode.push(start.elapsed().as_secs_f64());
        if back != checkpoint {
            return Err("fleet checkpoint JSON round trip changed the checkpoint".to_string());
        }
        records = parsed
            .get("records")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
    }
    let records = records.max(1) as f64;
    costs.push(
        "fleet.checkpoint_encode_us_per_record",
        median(&encode) * 1e6 / records,
        "us",
    );
    costs.push(
        "fleet.checkpoint_decode_us_per_record",
        median(&decode) * 1e6 / records,
        "us",
    );
    costs.push(
        "fleet.checkpoint_bytes_per_record",
        text.len() as f64 / records,
        "B",
    );
    costs.notes.push(format!(
        "fleet probes use the first {} nodes of the workload's fleet",
        sub.nodes
    ));
    Ok(())
}

fn probe_scenario(p: &Prepared, costs: &mut LayerCosts) -> Result<(), String> {
    let reps = 200;
    let mut failed = None;
    let lower = ns_per_op(reps, || {
        for _ in 0..reps {
            let lowered = Scenario::parse(p.workload.spec_text()).and_then(|mut spec| {
                spec.seed = p.spec.seed;
                spec.validate()?;
                let fleet = spec.fleet_config(Parallelism::Serial)?;
                let mesh = match spec.mesh {
                    Some(_) => Some(spec.mesh_config(Parallelism::Serial)?),
                    None => None,
                };
                Ok((fleet, mesh))
            });
            match black_box(lowered) {
                Ok(_) => {}
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    if let Some(e) = failed {
        return Err(format!("scenario probe: {e}"));
    }
    costs.push("scenario.lower_us", lower / 1e3, "us");
    Ok(())
}

/// Counts events handed to it.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    /// Events recorded.
    pub events: u64,
}

impl Recorder for CountingRecorder {
    fn wants_events(&self) -> bool {
        true
    }

    fn record(&mut self, event: &Event) {
        black_box(event);
        self.events += 1;
    }
}

fn probe_telemetry(p: &Prepared, costs: &mut LayerCosts) -> Result<(), String> {
    let events = 10_000u64;
    let mut sink = CountingRecorder::default();
    let per_event = ns_per_op(events as usize, || {
        let mut buffer = TelemetryBuffer::with_events(true);
        for i in 0..events {
            buffer.record_for((i % 64) as u32, i * 7_919 % 1_000_003, EventKind::FalseWake);
        }
        buffer.sort_events();
        buffer.drain_events_into(&mut sink);
    });
    costs.push("telemetry.event_ns", per_event, "ns");

    let mut node = StackCheckpoint::for_fleet_node(&p.fleet, 0, SimDuration::ZERO, false)
        .resume()
        .map_err(|e| e.to_string())?;
    node.run_for(p.fleet.duration);
    let registry = node.drain_telemetry().metrics;
    let folds = 2_000;
    let mut total = Metrics::new();
    let fold = ns_per_op(folds, || {
        for _ in 0..folds {
            total.merge_from(black_box(&registry));
        }
    });
    costs.push("telemetry.fold_us", fold / 1e3, "us");
    Ok(())
}

/// Width of the first active burst of a single node with `base`'s config
/// (its 6 s wake), measured on the power trace as the span of samples
/// above 50 µW, in ms.
pub fn burst_width_ms(base: &NodeConfig) -> f64 {
    let config = NodeConfig {
        first_wake_offset_ms: 0,
        wake_interval_ppm: 0.0,
        ..base.clone()
    };
    let Ok(mut node) =
        StackCheckpoint::new(config, FleetApp::Tpms, SimDuration::ZERO, false).resume()
    else {
        return f64::NAN;
    };
    node.run_for(SimDuration::from_secs(60));
    let from = SimTime::from_millis(5_998);
    let to = SimTime::from_millis(6_040);
    let burst: Vec<SimTime> = node
        .power_trace()
        .as_scalar()
        .samples()
        .iter()
        .filter(|(t, p)| *t >= from && *t <= to && *p > 50e-6)
        .map(|&(t, _)| t)
        .collect();
    match (burst.first(), burst.last()) {
        (Some(first), Some(last)) => last.duration_since(*first).as_seconds().value() * 1e3,
        _ => f64::NAN,
    }
}
