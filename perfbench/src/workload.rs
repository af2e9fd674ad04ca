//! The benchmark's workloads: configuration, set-up, drive, and the
//! facts the output checks judge.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bt_swarm::stages::default_pipeline;
use bt_swarm::telemetry::read_records_from_path;
use bt_swarm::{
    scenario, DoctorOptions, ObserverBoundaries, Swarm, SwarmConfig, SwarmMetrics,
    TelemetryOptions, TelemetryRecord, TelemetryRecorder,
};

use crate::record::Record;
use crate::trace::{layer_stats, SharedTracer, TracedStage, Tracer};

/// Peers in the flash crowd (the `swarm_scale` population).
pub const FLASH_PEERS: u32 = 5_000;
/// Round cap of the flash crowd: it must drain well before this.
pub const FLASH_ROUND_CAP: u64 = 200;
/// Completed downloads after warm-up that end the Fig. 1 run.
pub const PAPER_COMPLETIONS: u64 = 3_000;
/// Rounds of the §6 run (the preset's Fig. 4(b) horizon is 400).
pub const CHURN_ROUNDS: u64 = 250;
/// Observer peers whose phase boundaries the Fig. 1 run checks.
pub const PAPER_OBSERVERS: u32 = 12;
/// Rounds at the end of the §6 run whose mean entropy is its tail.
pub const TAIL_ROUNDS: usize = 40;
/// Times the model step runs in one repetition; its median is `model_s`.
pub const MODEL_SAMPLES: usize = 5;

/// The pipeline stages a traced run reports, in round order.
pub const STAGES: [&str; 7] = [
    "maintain",
    "bootstrap",
    "prune",
    "establish",
    "exchange",
    "depart",
    "sample",
];

/// The profiler work counters a traced run reports.
pub const WORK_COUNTERS: [&str; 8] = [
    "maintain.handout_entries",
    "establish.candidate_comparisons",
    "exchange.bitfield_words",
    "exchange.piece_transfers",
    "prune.pairs_checked",
    "depart.departures",
    "bootstrap.injections",
    "store.slab_probes",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed 5k-peer population stepped until drained.
    FlashCrowd,
    /// The §6 / Fig. 4(b) unstable run at `B = 3`.
    ChurnGrowth,
    /// A Fig. 1 steady-state swarm with every observer attached.
    PaperValidation,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "flash_crowd" => Some(Workload::FlashCrowd),
            "churn_growth" => Some(Workload::ChurnGrowth),
            "paper_validation" => Some(Workload::PaperValidation),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlashCrowd => "flash_crowd",
            Workload::ChurnGrowth => "churn_growth",
            Workload::PaperValidation => "paper_validation",
        }
    }

    /// The swarm configuration this workload runs for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a scenario preset fails validation, a bug in
    /// `bt_swarm::scenario`.
    #[must_use]
    pub fn config(self, seed: u64) -> SwarmConfig {
        let config = match self {
            Workload::FlashCrowd => scenario::scale_probe(FLASH_PEERS, FLASH_ROUND_CAP, seed),
            Workload::ChurnGrowth => scenario::stability(3, seed),
            Workload::PaperValidation => scenario::download_evolution(40, PAPER_COMPLETIONS, seed),
        };
        let mut config = config.expect("scenario presets are valid");
        match self {
            Workload::FlashCrowd => {}
            Workload::ChurnGrowth => config.max_rounds = CHURN_ROUNDS,
            Workload::PaperValidation => {
                config.observers = PAPER_OBSERVERS;
                config.observe_from = config.initial_leechers;
            }
        }
        config
    }

    /// Walker replications of the model step, sized so that the step
    /// takes about a tenth of a second.
    #[must_use]
    pub fn model_replications(self) -> u32 {
        match self {
            Workload::FlashCrowd | Workload::PaperValidation => 50,
            Workload::ChurnGrowth => 2_500,
        }
    }
}

/// How one repetition runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Worker threads for the parallel exchange plan.
    pub threads: u32,
    /// Whether stage spans, the profiler and unit-cost bases are on.
    pub traced: bool,
    /// How many times set-up is repeated (the median is reported).
    pub setups: u32,
    /// Directory for observer output (telemetry, cohort, heartbeat).
    pub scratch: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// A `Write` that counts bytes on their way to the inner writer.
struct Counting<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn counted_file(path: &Path, bytes: &Arc<AtomicU64>) -> Box<dyn Write + Send> {
    let file = std::fs::File::create(path).expect("scratch directory is writable");
    Box::new(Counting {
        inner: BufWriter::new(file),
        bytes: Arc::clone(bytes),
    })
}

/// A swarm ready to run, plus the handles the run reports from.
struct Ready {
    swarm: Swarm,
    registry: bt_obs::Registry,
    observer_bytes: Arc<AtomicU64>,
}

fn set_up(options: &Options, tracer: &SharedTracer) -> Ready {
    let config = options.workload.config(options.seed);
    let registry = bt_obs::Registry::new();
    let mut pipeline = default_pipeline(&config);
    if options.traced {
        pipeline = TracedStage::wrap_all(pipeline, tracer);
    }
    let mut swarm = Swarm::with_pipeline(config, registry.clone(), pipeline);
    swarm.set_threads(options.threads);
    if options.traced {
        swarm.attach_profiler(bt_obs::ProfileOptions {
            seed: options.seed,
            ..bt_obs::ProfileOptions::default()
        });
    }
    let observer_bytes = Arc::new(AtomicU64::new(0));
    if options.workload == Workload::PaperValidation {
        let recorder = TelemetryRecorder::new(TelemetryOptions::default()).to_writer(counted_file(
            &options.scratch.join("telemetry.jsonl"),
            &observer_bytes,
        ));
        swarm.attach_telemetry(recorder);
        swarm.attach_cohort(
            16,
            counted_file(&options.scratch.join("cohort.cohort"), &observer_bytes),
        );
        let emitter = bt_obs::HeartbeatEmitter::new(
            bt_obs::HeartbeatOptions {
                dir: options.scratch.join("heartbeat"),
                interval: Duration::from_millis(500),
                command: "perfbench".to_string(),
                seed: options.seed,
                target_rounds: swarm.config().max_rounds,
            },
            registry.clone(),
        )
        .expect("scratch directory is writable");
        swarm.attach_heartbeat(emitter);
        swarm.attach_doctor(DoctorOptions::default());
    }
    Ready {
        swarm,
        registry,
        observer_bytes,
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// What the drive returns besides the metrics.
struct Driven {
    metrics: SwarmMetrics,
    profile: bt_obs::ProfileSink,
    doctor: Option<bt_swarm::DoctorReport>,
    invariants_hold: Option<bool>,
}

fn drive(options: &Options, mut swarm: Swarm) -> Driven {
    match options.workload {
        Workload::FlashCrowd => {
            while swarm.population() > 0 && swarm.round() < FLASH_ROUND_CAP {
                swarm.step_round();
            }
            let invariants_hold = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                swarm.assert_invariants();
            }))
            .is_ok();
            Driven {
                metrics: swarm.metrics().clone(),
                profile: swarm.take_profile(),
                doctor: None,
                invariants_hold: Some(invariants_hold),
            }
        }
        Workload::ChurnGrowth | Workload::PaperValidation => {
            let (metrics, profile, doctor) = swarm.run_diagnosed();
            Driven {
                metrics,
                profile,
                doctor,
                invariants_hold: None,
            }
        }
    }
}

/// Runs one repetition and returns its record.
///
/// # Panics
///
/// Panics if the scratch directory is not writable.
#[must_use]
pub fn run(options: &Options) -> Record {
    let tracer = Tracer::shared();
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..options.setups.max(1) {
        drop(ready.take());
        let (built, cpu_s) = crate::cpu::timed(|| set_up(options, &tracer));
        setup_times.push(cpu_s);
        ready = Some(built);
    }
    let Ready {
        swarm,
        registry,
        observer_bytes,
    } = ready.expect("at least one set-up ran");
    let config = swarm.config().clone();

    let started = Instant::now();
    let (driven, sim_s) = crate::cpu::timed(|| drive(options, swarm));
    tracer.borrow_mut().finish();
    let sim_wall_s = started.elapsed().as_secs_f64();

    // The model step is short, so one timing of it catches whatever the
    // host did in that instant; the median of several is steadier.
    let mut model_times = Vec::new();
    let mut model = None;
    for _ in 0..MODEL_SAMPLES {
        let (outcome, cpu_s) = crate::cpu::timed(|| {
            crate::model::model_step(&config, options.workload.model_replications(), &tracer)
        });
        model_times.push(cpu_s);
        model = Some(outcome);
    }
    let model = model.expect("at least one model step ran");
    let model_s = median(&mut model_times);

    let mut record = Record::default();
    let metrics = &driven.metrics;
    let peer_rounds: u64 = metrics.population.iter().map(|&(_, p)| p).sum();
    record
        .section("run")
        .text("workload", options.workload.name())
        .int("seed", options.seed)
        .int("threads", u64::from(options.threads))
        .flag("traced", options.traced)
        .int("setups", setup_times.len() as u64);
    record
        .section("timing")
        .num("setup_s", median(&mut setup_times))
        .num("sim_s", sim_s)
        .num("sim_wall_s", sim_wall_s)
        .num("model_s", model_s)
        .int("peer_rounds", peer_rounds)
        .num(
            "peak_rss_mib",
            bt_obs::mem::sample_memory().peak_rss_bytes as f64 / f64::from(1u32 << 20),
        );
    record
        .section("fingerprint")
        .int("rounds", metrics.rounds_run)
        .int("arrivals", metrics.arrivals)
        .int("departures", metrics.departures)
        .int("completions", metrics.completions.len() as u64)
        .int(
            "pieces_exchanged",
            registry.counter("swarm.pieces_exchanged").get(),
        )
        .text("final_entropy", format!("{:?}", metrics.final_entropy()));

    let facts = record.section("facts");
    facts
        .int("initial_population", u64::from(config.initial_leechers))
        .int("final_population", metrics.final_population())
        .num("observed_utilization", metrics.mean_utilization())
        .num("model_eta_at_k", model.eta_at_k)
        .num("model_bootstrap_end", model.predicted.bootstrap_end)
        .num("model_efficient_end", model.predicted.efficient_end)
        .num("model_completion", model.predicted.completion);
    match options.workload {
        Workload::FlashCrowd => {
            facts
                .int("round_cap", FLASH_ROUND_CAP)
                .flag("invariants_hold", driven.invariants_hold.unwrap_or(false));
        }
        Workload::ChurnGrowth => {
            let tail = &metrics.entropy[metrics.entropy.len().saturating_sub(TAIL_ROUNDS)..];
            let tail_entropy = tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len().max(1) as f64;
            facts.num("tail_entropy", tail_entropy);
        }
        Workload::PaperValidation => {
            let doctor = driven
                .doctor
                .as_ref()
                .expect("the Fig. 1 run attaches a doctor");
            facts
                .int("doctor_checks", doctor.report.checks)
                .int("doctor_violations", doctor.report.violations.len() as u64);
            phase_facts(&options.scratch.join("telemetry.jsonl"), facts);
        }
    }

    if options.traced {
        let bytes =
            observer_bytes.load(Ordering::Relaxed) + dir_bytes(&options.scratch.join("heartbeat"));
        layers(
            &mut record,
            &tracer,
            &driven,
            &registry,
            &model,
            bytes,
            sim_wall_s,
        );
        if let Some(path) = &options.spans_out {
            let file = std::fs::File::create(path).expect("spans path is writable");
            tracer
                .borrow()
                .write_spans(&mut BufWriter::new(file))
                .expect("spans path is writable");
        }
    }
    record
}

/// Phase boundaries of the observers, read back from the telemetry
/// stream the run wrote.
fn phase_facts(telemetry: &Path, facts: &mut crate::record::Section) {
    let events: Vec<_> = match read_records_from_path(telemetry) {
        Ok(records) => records
            .into_iter()
            .filter_map(|r| match r {
                TelemetryRecord::Phase(e) => Some(e),
                _ => None,
            })
            .collect(),
        Err(_) => {
            facts.flag("telemetry_readable", false);
            return;
        }
    };
    facts.flag("telemetry_readable", true);
    let mut peers: Vec<u64> = events.iter().map(|e| e.peer).collect();
    peers.sort_unstable();
    peers.dedup();
    let mut completed = 0u64;
    let mut misordered = 0u64;
    let mut durations = [0.0f64; 3];
    for peer in peers {
        let mine: Vec<_> = events.iter().filter(|e| e.peer == peer).copied().collect();
        let Some(b) = ObserverBoundaries::from_events(&mine) else {
            continue;
        };
        let (Some(boot), Some(eff), Some(done)) = (b.bootstrap_end, b.efficient_end, b.completion)
        else {
            continue;
        };
        completed += 1;
        if !(b.join <= boot && boot <= eff && eff <= done) {
            misordered += 1;
        }
        if let Some(d) = b.durations() {
            for (sum, v) in durations.iter_mut().zip(d) {
                *sum += v;
            }
        }
    }
    let n = completed.max(1) as f64;
    facts
        .int("observers_completed", completed)
        .int("phase_order_violations", misordered)
        .num("observed_bootstrap_end", durations[0] / n)
        .num("observed_efficient_end", (durations[0] + durations[1]) / n)
        .num(
            "observed_completion",
            (durations[0] + durations[1] + durations[2]) / n,
        );
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The per-layer section of a traced run.
fn layers(
    record: &mut Record,
    tracer: &SharedTracer,
    driven: &Driven,
    registry: &bt_obs::Registry,
    model: &crate::model::ModelOutcome,
    observer_bytes: u64,
    sim_wall_s: f64,
) {
    let t = tracer.borrow();
    let self_ns = t.self_times_ns();
    let work = |name: &str| -> u64 {
        driven.profile.report().map_or(0, |report| {
            report
                .stages
                .iter()
                .flat_map(|s| s.work.iter())
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .sum()
        })
    };
    let layers = record.section("layers");
    let mut self_s = std::collections::BTreeMap::new();
    for stage in STAGES {
        let stats = layer_stats(&t, &self_ns, stage);
        layers
            .num(format!("stage.{stage}.self_s"), stats.self_s)
            .int(format!("stage.{stage}.calls"), stats.calls)
            .num(format!("stage.{stage}.p50_ms"), stats.p50_ms)
            .num(format!("stage.{stage}.ptail_ms"), stats.ptail_ms)
            .num(format!("stage.{stage}.ptail_pct"), stats.ptail_pct);
        self_s.insert(stage, stats.self_s);
    }
    layers.num("round.self_s", layer_stats(&t, &self_ns, "round").self_s);
    for counter in WORK_COUNTERS {
        layers.int(counter, work(counter));
    }
    let per = |secs: f64, base: u64| {
        if base == 0 {
            0.0
        } else {
            secs * 1e9 / base as f64
        }
    };
    let attempts = registry.counter("swarm.conn_attempts").get();
    let successes = registry.counter("swarm.conn_successes").get();
    let transfers = work("exchange.piece_transfers");
    layers
        .int("maintain.tracker_peers", t.tracker_peers)
        .num(
            "maintain.ns_per_peer",
            per(self_s["maintain"], t.tracker_peers),
        )
        .int("exchange.connection_pairs", t.connection_pairs)
        .num(
            "exchange.ns_per_pair",
            per(self_s["exchange"], t.connection_pairs),
        )
        .num(
            "establish.ns_per_comparison",
            per(self_s["establish"], work("establish.candidate_comparisons")),
        )
        .num(
            "establish.success_ratio",
            if attempts == 0 {
                0.0
            } else {
                successes as f64 / attempts as f64
            },
        )
        .num(
            "exchange.transfer_ratio",
            if t.connection_pairs == 0 {
                0.0
            } else {
                transfers as f64 / t.connection_pairs as f64
            },
        );
    let timer = |name: &str| registry.timer(name).snapshot().total_secs;
    let obs_s = timer("obs.telemetry") + timer("obs.doctor") + timer("obs.heartbeat");
    layers
        .num("obs.telemetry_s", timer("obs.telemetry"))
        .num("obs.doctor_s", timer("obs.doctor"))
        .num("obs.heartbeat_s", timer("obs.heartbeat"))
        .num(
            "obs.share",
            if sim_wall_s > 0.0 {
                obs_s / sim_wall_s
            } else {
                0.0
            },
        )
        .int("obs.bytes", observer_bytes)
        .num("model.walker_s", model.walker_s)
        .int("model.walker_steps", model.walker_steps)
        .num("model.efficiency_s", model.efficiency_s)
        .int("model.fixed_point_iters", model.fixed_point_iters);
}
