//! The four workloads: set-up, the measured phase, the traced run, and the
//! end-to-end metrics.

use crate::check::{self, Violations};
use crate::gen::{self, Inputs, Route, Stream};
use crate::harness::{self, closed_loop, session_config, Front, Phase, Wrap};
use crate::layers::{self, ProblemClock, Timed, TimedJournal, TracedRun};
use crate::stats::{mean, median, percentile};
use qdm_runtime::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ring capacity of traced services: the traced phase stops before it
/// submits more jobs than this, so no trace is dropped.
const TRACE_CAPACITY: usize = 1 << 16;
/// Equal slices of a measured phase; latency percentiles are their medians.
const WINDOWS: usize = 5;
/// Pinned jobs replayed twice for the determinism digest.
const DIGEST_JOBS: usize = 24;
/// The cluster tenant every `cluster` job is submitted as.
const TENANT: &str = "steady";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixedMiss,
    HotRepeat,
    Cluster,
    GateModel,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MixedMiss, Workload::HotRepeat, Workload::Cluster, Workload::GateModel];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::MixedMiss => "mixed_miss",
            Workload::HotRepeat => "hot_repeat",
            Workload::Cluster => "cluster",
            Workload::GateModel => "gate_model",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn inputs(&self, seed: u64) -> Inputs {
        match self {
            Workload::MixedMiss => Inputs::mixed_miss(seed),
            Workload::HotRepeat => Inputs::hot_repeat(seed),
            Workload::Cluster => Inputs::cluster(seed),
            Workload::GateModel => Inputs::gate_model(seed),
        }
    }

    fn warmup_jobs(&self) -> usize {
        match self {
            Workload::HotRepeat => 256,
            Workload::Cluster => 64,
            _ => 32,
        }
    }
}

/// The end-to-end metrics, in output order: name, unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("max_rate_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("completed_share", "ratio"),
    ("feasible_share", "ratio"),
    ("energy_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    /// Directory for this run's journal files, inside the working directory.
    pub journal_root: PathBuf,
}

/// What one invocation produced.
pub struct Outcome {
    pub metrics: Vec<(String, String, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub violations: Violations,
}

fn service_config(run: &Run, traced: bool, workers: usize) -> ServiceConfig {
    let mut config = ServiceConfig { workers, ..ServiceConfig::default() };
    if run.workload == Workload::HotRepeat {
        config.cache_capacity = Inputs::HOT_CACHE_CAPACITY;
    }
    if traced {
        config.tracing = TraceConfig::RingWithCapacity(TRACE_CAPACITY);
        config.epoch = Some(harness::epoch());
    }
    config
}

/// Shards for `workers` threads: the largest divisor up to four.
fn shards(workers: usize) -> usize {
    (1..=4.min(workers)).rev().find(|&d| workers.is_multiple_of(d)).unwrap_or(1)
}

/// Shards × workers per shard = `run.workers`, a token bucket for the
/// tenant, watermark shedding and migration on, one journal per shard.
fn cluster_config(
    run: &Run,
    traced: bool,
    journals: Option<Vec<Arc<dyn Journal>>>,
) -> ClusterConfig {
    let n = shards(run.workers);
    ClusterConfig {
        shards: n,
        service: service_config(run, traced, run.workers / n),
        admission: AdmissionConfig::default()
            .with_tenant(TENANT, TokenBucketConfig { capacity: 2.0, refill_per_second: 2.0 }),
        shed_watermark: Some(256),
        migration_threshold: Some(8),
        journals,
        ..ClusterConfig::default()
    }
}

/// The system under test.
enum System {
    Service(SolverService),
    Cluster { cluster: Box<ClusterService>, journals: Vec<Arc<TimedJournal>>, dir: PathBuf },
}

impl System {
    fn session(&self, window: usize) -> Box<dyn Front + '_> {
        match self {
            System::Service(service) => Box::new(service.session(session_config(window))),
            System::Cluster { cluster, .. } => {
                Box::new(cluster.session(TENANT, session_config(window)))
            }
        }
    }

    fn report(&self) -> RuntimeReport {
        match self {
            System::Service(service) => service.report(),
            System::Cluster { cluster, .. } => cluster.report(),
        }
    }

    fn traces(&self) -> Vec<JobTrace> {
        match self {
            System::Service(service) => service.traces(),
            System::Cluster { cluster, .. } => cluster.traces(),
        }
    }

    /// Jobs completed so far, per shard.
    fn shard_completed(&self) -> Vec<u64> {
        match self {
            System::Service(service) => vec![service.report().jobs_completed],
            System::Cluster { cluster, .. } => {
                cluster.shard_reports().iter().map(|r| r.jobs_completed).collect()
            }
        }
    }

    fn journals(&self) -> &[Arc<TimedJournal>] {
        match self {
            System::Service(_) => &[],
            System::Cluster { journals, .. } => journals,
        }
    }

    /// Shuts the system down and deletes its journals.
    fn discard(self) {
        if let System::Cluster { cluster, dir, .. } = self {
            drop(cluster);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Opens one journal per shard in a fresh directory.
fn open_journals(dir: &Path, shards: usize) -> Vec<Arc<TimedJournal>> {
    std::fs::create_dir_all(dir).expect("create journal directory");
    (0..shards)
        .map(|i| {
            let file = FileJournal::open(dir.join(format!("shard{i}.wal"))).expect("open journal");
            Arc::new(TimedJournal::new(file))
        })
        .collect()
}

/// Resident-set high-water mark of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload once and returns its metrics and checks.
pub fn run(run: &Run) -> Outcome {
    let inputs = run.workload.inputs(run.seed);
    let start = Instant::now();
    let references = check::references(&inputs);
    eprintln!(
        "{}: {} instances, {} labelings, references in {:.2}s, {} workers",
        run.workload.name(),
        inputs.instances.len(),
        inputs.labelings.len(),
        start.elapsed().as_secs_f64(),
        run.workers
    );
    let mut violations = Violations::default();
    determinism(run, &inputs, &mut violations);
    let mut outcome = if run.trace {
        traced(run, &inputs, &mut violations)
    } else {
        end_to_end(run, &inputs, &references, &mut violations)
    };
    outcome.violations = violations;
    let _ = std::fs::remove_dir_all(&run.journal_root);
    if let Some(parent) = run.journal_root.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }
    outcome
}

/// A system set up and warmed, with the stream positioned after warm-up.
struct Warmed<'a> {
    system: System,
    stream: Stream<'a>,
    warm: Phase,
    seconds: f64,
}

/// Set-up: builds the system (journal files included) and runs the
/// workload's first jobs through it.
fn setup<'a>(
    run: &Run,
    inputs: &'a Inputs,
    traced: bool,
    tag: usize,
    wrap: Wrap<'_>,
) -> Warmed<'a> {
    let start = Instant::now();
    let system = if run.workload == Workload::Cluster {
        let dir = run.journal_root.join(format!("cluster{tag}"));
        let journals = open_journals(&dir, shards(run.workers));
        let shared = journals.iter().map(|j| Arc::clone(j) as Arc<dyn Journal>).collect();
        let cluster = Box::new(ClusterService::new(cluster_config(run, traced, Some(shared))));
        System::Cluster { cluster, journals, dir }
    } else {
        System::Service(SolverService::new(service_config(run, traced, run.workers)))
    };
    let mut stream = inputs.stream();
    let window = 2 * run.workers;
    let warm = {
        let session = system.session(window);
        let far = Instant::now() + Duration::from_secs(3600);
        closed_loop(session.as_ref(), &mut stream, window, far, run.workload.warmup_jobs(), wrap)
    };
    Warmed { system, stream, warm, seconds: start.elapsed().as_secs_f64() }
}

/// The measured phase: a closed loop with 2 × workers jobs in flight, for
/// `seconds` or `max_jobs` jobs.
fn measure(run: &Run, w: &mut Warmed<'_>, seconds: f64, max_jobs: usize, wrap: Wrap<'_>) -> Phase {
    let window = 2 * run.workers;
    let session = w.system.session(window);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    closed_loop(session.as_ref(), &mut w.stream, window, deadline, max_jobs, wrap)
}

fn plain(inputs: &Inputs) -> impl Fn(&gen::Job) -> SharedProblem + '_ {
    move |job| Arc::clone(inputs.problem(job))
}

fn verify(inputs: &Inputs, w: &Warmed<'_>, phase: &Phase, v: &mut Violations) {
    check::verify_ledger("warm-up", &w.warm, v);
    check::verify_ledger("measured", phase, v);
    check::verify_results(
        inputs,
        &w.warm.records.iter().chain(&phase.records).collect::<Vec<_>>(),
        v,
    );
}

fn end_to_end(run: &Run, inputs: &Inputs, refs: &[f64], v: &mut Violations) -> Outcome {
    let wrap = plain(inputs);
    let mut setups = Vec::new();
    let mut kept: Option<Warmed<'_>> = None;
    for tag in 0..SETUPS {
        let warmed = setup(run, inputs, false, tag, &wrap);
        setups.push(warmed.seconds);
        if let Some(old) = kept.replace(warmed) {
            old.system.discard();
        }
    }
    let mut w = kept.expect("at least one set-up");
    let compiles = qdm_qubo::compiled::compilation_count();
    let phase = measure(run, &mut w, run.seconds, usize::MAX, &wrap);
    let rss_mb = peak_rss_mb();
    let compiles = qdm_qubo::compiled::compilation_count() - compiles;
    verify(inputs, &w, &phase, v);
    let report = w.system.report();
    eprintln!(
        "measured {:.1}s: {} completed, {} compiles, cache hits {} misses {} coalesced {}, shed {}",
        phase.end_s - phase.start_s,
        phase.n_completed(),
        compiles,
        report.cache_hits,
        report.cache_misses,
        report.jobs_coalesced,
        phase.shed
    );
    let outcome = metrics(&phase, refs, median(&setups), rss_mb);
    w.system.discard();
    outcome
}

/// End-to-end metrics of a measured phase. Latency percentiles are medians
/// over [`WINDOWS`] equal slices of the phase, so a stall of the shared
/// machine moves one slice, not the result. `energy_ratio` averages over
/// solves only: a served copy repeats its solve's energy, and counting it
/// again would weight hot items by popularity. `rss_mb` is read when the
/// measured phase ends, before the benchmark's own checks allocate.
fn metrics(phase: &Phase, refs: &[f64], setup_s: f64, rss_mb: f64) -> Outcome {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for (i, window) in phase.window_latencies_ms(WINDOWS).iter().enumerate() {
        let (median, tail) = (percentile(window, 50.0), percentile(window, 99.0));
        eprintln!(
            "latency window {i}: p50 {:.3} ms, p{:.1} {:.3} ms over {} samples ({} beyond)",
            median.value, tail.reported, tail.value, tail.samples, tail.beyond
        );
        p50.push(median.value);
        p99.push(tail.value);
    }
    let completed: Vec<_> = phase.completed().collect();
    let feasible = completed.iter().filter(|(_, s)| s.feasible).count();
    let gaps: Vec<f64> = completed
        .iter()
        .filter(|(_, s)| !s.from_cache && !s.coalesced)
        .map(|(r, s)| check::gap(s.energy, refs[r.job.instance]))
        .collect();
    // A closed loop's saturation throughput is the highest arrival rate it
    // absorbs without a growing backlog.
    let throughput = phase.throughput();
    let values = [
        setup_s,
        throughput,
        throughput,
        median(&p50),
        median(&p99),
        completed.len() as f64 / phase.attempted.max(1) as f64,
        feasible as f64 / completed.len().max(1) as f64,
        1.0 + mean(&gaps),
        rss_mb,
    ];
    Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), u.to_string(), v))
            .collect(),
        attempted: phase.attempted,
        failed: phase.n_failed(),
        violations: Violations::default(),
    }
}

/// The traced run: the workload at defaults for half the time, then with
/// the timing decorators on and a trace ring sized to hold every job for
/// the other half. `bench.trace_overhead_pct` compares their throughput.
fn traced(run: &Run, inputs: &Inputs, v: &mut Violations) -> Outcome {
    let half = run.seconds / 2.0;
    let wrap = plain(inputs);
    let untraced_rate = {
        let mut w = setup(run, inputs, false, 0, &wrap);
        let phase = measure(run, &mut w, half, usize::MAX, &wrap);
        verify(inputs, &w, &phase, v);
        w.system.discard();
        phase.throughput()
    };
    let clock = Arc::new(ProblemClock::default());
    let timed = |job: &gen::Job| Timed::wrap(Arc::clone(inputs.problem(job)), &clock);
    let mut w = setup(run, inputs, true, 1, &timed);
    clock.clear();
    for journal in w.system.journals() {
        journal.clear();
    }
    let before = w.system.report();
    let shard_before = w.system.shard_completed();
    let compiles = qdm_qubo::compiled::compilation_count();
    let max_jobs = TRACE_CAPACITY - run.workload.warmup_jobs();
    let phase = measure(run, &mut w, half, max_jobs, &timed);
    let compilations = qdm_qubo::compiled::compilation_count() - compiles;
    let after = w.system.report();
    let shard_completed =
        w.system.shard_completed().iter().zip(&shard_before).map(|(a, b)| a - b).collect();
    verify(inputs, &w, &phase, v);
    let traced = TracedRun {
        inputs,
        phase: &phase,
        traces: w.system.traces(),
        counters: layers::Counters::between(&before, &after),
        shard_completed,
        compilations,
        problems: &clock,
        journals: w.system.journals(),
        trace_overhead_pct: (untraced_rate / phase.throughput() - 1.0) * 100.0,
    };
    if traced.counters.traces_dropped > 0 {
        v.fail(format!("traced run dropped {} traces", traced.counters.traces_dropped));
    }
    let metrics = layers::per_layer(&traced);
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("{}-{}.trace.json", run.workload.name(), run.seed));
    match std::fs::create_dir_all(dir).and_then(|()| layers::write_chrome_trace(&path, &traced)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => v.fail(format!("could not write {}: {e}", path.display())),
    }
    drop(traced);
    w.system.discard();
    Outcome {
        metrics: metrics.into_iter().map(|(n, u, x)| (n, u.to_string(), x)).collect(),
        attempted: phase.attempted,
        failed: phase.n_failed(),
        violations: Violations::default(),
    }
}

/// Replays the first pinned jobs of the stream one at a time on two fresh
/// systems (without journals) and requires identical result digests.
fn determinism(run: &Run, inputs: &Inputs, v: &mut Violations) {
    let jobs: Vec<gen::Job> =
        inputs.stream().filter(|j| matches!(j.route, Route::Pinned(_))).take(DIGEST_JOBS).collect();
    let replay = || -> Vec<harness::Served> {
        let specs = jobs.iter().map(|j| gen::spec(j, Arc::clone(inputs.problem(j))));
        let outcomes: Vec<JobOutcome> = if run.workload == Workload::Cluster {
            let cluster = ClusterService::new(cluster_config(run, false, None));
            let session = cluster.session(TENANT, SessionConfig::default());
            specs
                .map(|s| match session.submit(s) {
                    Ok(handle) => handle.wait(),
                    Err(e) => Err(JobError::Injected(format!("replay not admitted: {e}"))),
                })
                .collect()
        } else {
            let service = SolverService::new(service_config(run, false, run.workers));
            specs.map(|s| service.run(s)).collect()
        };
        outcomes.into_iter().filter_map(|o| harness::served(o).ok()).collect()
    };
    let (a, b) = (replay(), replay());
    if a.len() != jobs.len() || b.len() != jobs.len() {
        v.fail(format!(
            "determinism replay: {} and {} of {} jobs completed",
            a.len(),
            b.len(),
            jobs.len()
        ));
    } else if check::digest(&a) != check::digest(&b) {
        v.fail("determinism replay: pinned jobs gave different result digests".to_string());
    }
}
