//! The traced run's per-layer view: timing decorators the benchmark wraps
//! around the public problem and journal interfaces, the per-layer metrics
//! derived from them and from the service's span timelines, and the
//! layer table with self times.

use crate::gen::{self, Inputs, Route};
use crate::harness::{Phase, Record};
use crate::stats::{mean, percentile};
use qdm_core::problem::{Decoded, DmProblem};
use qdm_qubo::model::QuboModel;
use qdm_runtime::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every backend of the standard registry, for the routing shares.
pub const BACKENDS: [&str; 10] = [
    "exact",
    gen::SA,
    gen::SA_PARALLEL,
    gen::SQA,
    gen::ADIABATIC,
    gen::TABU,
    "random",
    gen::QAOA,
    "vqe",
    gen::GROVER,
];
/// Annealing backends (their solve spans are the `anneal` layer).
pub const ANNEALERS: [&str; 4] = [gen::SA, gen::SA_PARALLEL, gen::SQA, gen::TABU];
/// State-vector backends (their solve spans are the `sim` layer).
pub const SIMULATORS: [&str; 3] = [gen::GROVER, gen::QAOA, gen::ADIABATIC];

/// The per-layer metrics, in output order, with their units.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    let pair = |base: &str| [format!("{base}.p50"), format!("{base}.p99")];
    for n in pair("problems.encode_us") {
        add(n, "us");
    }
    add("problems.encode_per_job".into(), "count");
    add("problems.decode_us".into(), "us");
    add("qubo.compile_per_job".into(), "count");
    for base in ["qubo.compile_us", "qubo.canonical_us"] {
        for n in pair(base) {
            add(n, "us");
        }
    }
    add("qubo.canonical_to_solve".into(), "ratio");
    for n in pair("qubo.presolve_us") {
        add(n, "us");
    }
    for backend in ANNEALERS {
        for n in pair(&format!("anneal.solve_us.{backend}")) {
            add(n, "us");
        }
    }
    add("anneal.proposals_per_us".into(), "1/us");
    add("anneal.sweeps_per_job".into(), "count");
    for backend in SIMULATORS {
        for n in pair(&format!("sim.solve_us.{backend}")) {
            add(n, "us");
        }
    }
    for n in pair("scheduler.queue_wait_ms") {
        add(n, "ms");
    }
    add("scheduler.queue_depth_peak".into(), "count");
    add("cache.hit_ratio".into(), "ratio");
    for n in pair("cache.serve_us") {
        add(n, "us");
    }
    add("flight.coalesced_share".into(), "ratio");
    for n in pair("service.unaccounted_us") {
        add(n, "us");
    }
    add("service.traces_dropped".into(), "count");
    for backend in BACKENDS {
        add(format!("portfolio.route_share.{backend}"), "ratio");
    }
    add("portfolio.race_loser_share".into(), "ratio");
    for n in pair("cluster.submit_us") {
        add(n, "us");
    }
    add("cluster.refused_share".into(), "ratio");
    add("cluster.shed_share".into(), "ratio");
    add("cluster.migrations".into(), "count");
    add("cluster.shard_skew".into(), "ratio");
    for n in pair("journal.append_us") {
        add(n, "us");
    }
    add("journal.appends_per_job".into(), "count");
    add("journal.bytes_per_job".into(), "B");
    add("bench.trace_overhead_pct".into(), "%");
    add("bench.jobs_traced".into(), "count");
    out
}

/// Timed samples of one benchmark-side layer.
#[derive(Default)]
pub struct Samples {
    us: Mutex<Vec<f64>>,
}

impl Samples {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.us.lock().expect("sample lock").push(us);
        out
    }

    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.us.lock().expect("sample lock"))
    }
}

impl ProblemClock {
    /// Forgets everything timed so far (the warm-up's calls).
    pub fn clear(&self) {
        self.encode.take();
        self.decode.take();
        self.repair.take();
    }
}

/// Times spent in the problem layer's public calls.
#[derive(Default)]
pub struct ProblemClock {
    pub encode: Samples,
    pub decode: Samples,
    pub repair: Samples,
}

/// A [`DmProblem`] decorator timing `to_qubo`, `decode` and `repair`.
pub struct Timed {
    inner: SharedProblem,
    clock: Arc<ProblemClock>,
}

impl Timed {
    pub fn wrap(inner: SharedProblem, clock: &Arc<ProblemClock>) -> SharedProblem {
        Arc::new(Self { inner, clock: Arc::clone(clock) })
    }
}

impl DmProblem for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }
    fn to_qubo(&self) -> QuboModel {
        self.clock.encode.time(|| self.inner.to_qubo())
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        self.clock.decode.time(|| self.inner.decode(bits))
    }
    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        self.clock.repair.time(|| self.inner.repair(bits))
    }
}

/// A [`Journal`] decorator timing appends and counting bytes.
pub struct TimedJournal {
    inner: FileJournal,
    pub appends: Samples,
    pub bytes: AtomicU64,
}

impl TimedJournal {
    pub fn new(inner: FileJournal) -> Self {
        Self { inner, appends: Samples::default(), bytes: AtomicU64::new(0) }
    }

    /// Forgets every append counted so far (the warm-up's).
    pub fn clear(&self) {
        self.appends.take();
        self.bytes.store(0, Ordering::Relaxed);
    }
}

impl Journal for TimedJournal {
    fn append(&self, event: JournalEvent) {
        // Record framing: u32 length prefix plus the encoded payload.
        let bytes = 4 + event.to_bytes().len() as u64;
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.appends.time(|| self.inner.append(event));
    }
    fn events(&self) -> Vec<JournalEvent> {
        self.inner.events()
    }
}

/// What a traced phase hands to the per-layer computation.
pub struct TracedRun<'a> {
    pub inputs: &'a Inputs,
    pub phase: &'a Phase,
    pub traces: Vec<JobTrace>,
    pub counters: Counters,
    /// Per-shard completed counts (one entry for a standalone service).
    pub shard_completed: Vec<u64>,
    pub compilations: u64,
    pub problems: &'a ProblemClock,
    pub journals: &'a [Arc<TimedJournal>],
    pub trace_overhead_pct: f64,
}

/// Service counters over one phase.
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub migrations: u64,
    /// Deepest queue since the service started (summed over shards).
    pub queue_depth_peak: u64,
    pub traces_dropped: u64,
}

impl Counters {
    pub fn between(before: &RuntimeReport, after: &RuntimeReport) -> Self {
        Self {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            coalesced: after.jobs_coalesced - before.jobs_coalesced,
            migrations: after.migrations - before.migrations,
            queue_depth_peak: after.queue_depth_peak,
            traces_dropped: after.traces_dropped,
        }
    }
}

/// One layer's durations and self times, microseconds.
#[derive(Default)]
struct Layer {
    dur: Vec<f64>,
    selft: Vec<f64>,
}

impl Layer {
    fn push(&mut self, dur: f64, selft: f64) {
        self.dur.push(dur);
        self.selft.push(selft);
    }
}

/// Length of the union of `[start, end)` intervals.
fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Computes every per-layer metric and prints the layer table to stderr.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(String, &'static str, f64)> {
    let mut m: HashMap<String, f64> = HashMap::new();
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let pair = |name: &str, samples: &[f64], set: &mut dyn FnMut(&str, f64)| {
        set(&format!("{name}.p50"), percentile(samples, 50.0).value);
        set(&format!("{name}.p99"), percentile(samples, 99.0).value);
    };
    let phase = run.phase;
    let completed: Vec<&Record> = phase.completed().map(|(r, _)| r).collect();
    let n_jobs = completed.len();
    let by_id: HashMap<u64, &JobTrace> = run.traces.iter().map(|t| (t.job_id, t)).collect();

    // Layer table rows, keyed by layer name.
    let mut table: Vec<(String, Layer)> = Vec::new();
    let row = |table: &mut Vec<(String, Layer)>, name: &str| -> usize {
        match table.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                table.push((name.to_string(), Layer::default()));
                table.len() - 1
            }
        }
    };

    // problems
    let encode = run.problems.encode.take();
    let decode = run.problems.decode.take();
    let repair = run.problems.repair.take();
    pair("problems.encode_us", &encode, &mut set);
    set("problems.encode_per_job", share(encode.len(), n_jobs));
    set(
        "problems.decode_us",
        if n_jobs == 0 {
            0.0
        } else {
            (decode.iter().sum::<f64>() + repair.iter().sum::<f64>()) / n_jobs as f64
        },
    );
    for (name, samples) in
        [("problems.encode", &encode), ("problems.decode", &decode), ("problems.repair", &repair)]
    {
        let i = row(&mut table, name);
        for &s in samples.iter() {
            table[i].1.push(s, s);
        }
    }

    // spans: queue, compile, presolve, solve, serve, and the job itself
    let mut solve_us: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut queue_ms, mut presolve, mut serve, mut unaccounted) = (vec![], vec![], vec![], vec![]);
    let (mut proposals, mut sweeps, mut anneal_ns, mut anneal_jobs) = (0u64, 0u64, 0u64, 0u64);
    let (mut race_loser_ns, mut race_ns) = (0u64, 0u64);
    let (mut canonical_job_us, mut solve_job_us) = (0.0, 0.0);
    let canonical = distinct_model_times(run.inputs, &completed);
    let mut canonical_samples = Vec::new();
    let mut compile_samples = Vec::new();
    let mut route_counts: HashMap<String, usize> = HashMap::new();
    let mut auto_jobs = 0usize;
    let mut matched = 0usize;
    for record in &completed {
        let served = record.result.as_ref().expect("completed");
        let (compile_us, canonical_us) = canonical[&record.job.labeling];
        canonical_samples.push(canonical_us);
        compile_samples.push(compile_us);
        if record.job.route == Route::Auto {
            auto_jobs += 1;
            *route_counts.entry(served.backend.clone()).or_default() += 1;
        }
        let Some(trace) = by_id.get(&record.id) else { continue };
        matched += 1;
        let mut children = Vec::new();
        for span in &trace.spans {
            let d = us(span.duration_ns());
            children.push((span.start_ns as f64 / 1e3, span.end_ns as f64 / 1e3));
            let layer = match span.stage {
                Stage::Queued => {
                    queue_ms.push(d / 1e3);
                    "scheduler.queued".to_string()
                }
                Stage::Compile => "qubo.compile+fingerprint".to_string(),
                Stage::Presolve => {
                    presolve.push(d);
                    "qubo.presolve".to_string()
                }
                Stage::Serve => {
                    serve.push(d);
                    "cache.serve".to_string()
                }
                Stage::Solve => {
                    let backend = span.backend.clone().unwrap_or_default();
                    solve_us.entry(backend.clone()).or_default().push(d);
                    if ANNEALERS.contains(&backend.as_str()) {
                        proposals += span.stats.proposals;
                        sweeps += span.stats.sweeps;
                        anneal_ns += span.duration_ns();
                    }
                    if record.job.route == Route::Race {
                        race_ns += span.duration_ns();
                        if !span.winner {
                            race_loser_ns += span.duration_ns();
                        }
                    }
                    if trace.outcome == TraceOutcome::Solved {
                        solve_job_us += d;
                    }
                    let kind =
                        if SIMULATORS.contains(&backend.as_str()) { "sim" } else { "anneal" };
                    format!("{kind}.solve.{backend}")
                }
                other => format!("service.{}", other.name()),
            };
            let i = row(&mut table, &layer);
            table[i].1.push(d, d);
        }
        if trace.outcome == TraceOutcome::Solved {
            canonical_job_us += canonical_us;
            if trace.spans.iter().any(|s| {
                s.stage == Stage::Solve && ANNEALERS.contains(&s.backend.as_deref().unwrap_or(""))
            }) {
                anneal_jobs += 1;
            }
        }
        // The job span runs from the submit call to the observed result;
        // its self time is what no service span covers.
        let (start, end) = (record.submit_s * 1e6, record.done_s * 1e6);
        let inside: Vec<(f64, f64)> = children
            .into_iter()
            .map(|(s, e)| (s.max(start), e.min(end)))
            .filter(|(s, e)| e > s)
            .collect();
        let job_us = end - start;
        let own = (job_us - covered(inside)).max(0.0);
        unaccounted.push(own);
        let i = row(&mut table, "job");
        table[i].1.push(job_us, own);
    }
    pair("qubo.compile_us", &compile_samples, &mut set);
    pair("qubo.canonical_us", &canonical_samples, &mut set);
    set(
        "qubo.canonical_to_solve",
        if solve_job_us > 0.0 { canonical_job_us / solve_job_us } else { 0.0 },
    );
    pair("qubo.presolve_us", &presolve, &mut set);
    set("qubo.compile_per_job", share(run.compilations as usize, n_jobs));
    for backend in ANNEALERS {
        pair(
            &format!("anneal.solve_us.{backend}"),
            solve_us.get(backend).map_or(&[][..], |v| v),
            &mut set,
        );
    }
    for backend in SIMULATORS {
        pair(
            &format!("sim.solve_us.{backend}"),
            solve_us.get(backend).map_or(&[][..], |v| v),
            &mut set,
        );
    }
    set(
        "anneal.proposals_per_us",
        if anneal_ns > 0 { proposals as f64 / us(anneal_ns) } else { 0.0 },
    );
    set(
        "anneal.sweeps_per_job",
        if anneal_jobs > 0 { sweeps as f64 / anneal_jobs as f64 } else { 0.0 },
    );
    pair("scheduler.queue_wait_ms", &queue_ms, &mut set);
    set("scheduler.queue_depth_peak", run.counters.queue_depth_peak as f64);
    let lookups = run.counters.cache_hits + run.counters.cache_misses;
    set(
        "cache.hit_ratio",
        if lookups > 0 { run.counters.cache_hits as f64 / lookups as f64 } else { 0.0 },
    );
    pair("cache.serve_us", &serve, &mut set);
    set("flight.coalesced_share", share(run.counters.coalesced as usize, n_jobs));
    pair("service.unaccounted_us", &unaccounted, &mut set);
    set("service.traces_dropped", run.counters.traces_dropped as f64);
    for backend in BACKENDS {
        set(
            &format!("portfolio.route_share.{backend}"),
            share(route_counts.get(backend).copied().unwrap_or(0), auto_jobs),
        );
    }
    set(
        "portfolio.race_loser_share",
        if race_ns > 0 { race_loser_ns as f64 / race_ns as f64 } else { 0.0 },
    );

    // cluster front door
    let is_cluster = run.shard_completed.len() > 1 || !run.journals.is_empty();
    let submit_us: &[f64] = if is_cluster { &phase.submit_us } else { &[] };
    pair("cluster.submit_us", submit_us, &mut set);
    if is_cluster {
        let i = row(&mut table, "cluster.submit");
        for &s in submit_us {
            table[i].1.push(s, s);
        }
    }
    set("cluster.refused_share", share(phase.refused, phase.attempted));
    set("cluster.shed_share", share(phase.shed, phase.attempted));
    set("cluster.migrations", run.counters.migrations as f64);
    let shard_mean = mean(&run.shard_completed.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let shard_max = run.shard_completed.iter().copied().max().unwrap_or(0) as f64;
    set("cluster.shard_skew", if shard_mean > 0.0 { shard_max / shard_mean } else { 0.0 });

    // journal
    let mut appends = Vec::new();
    let mut bytes = 0u64;
    for journal in run.journals {
        appends.extend(journal.appends.take());
        bytes += journal.bytes.load(Ordering::Relaxed);
    }
    pair("journal.append_us", &appends, &mut set);
    set("journal.appends_per_job", share(appends.len(), n_jobs));
    set("journal.bytes_per_job", if n_jobs > 0 { bytes as f64 / n_jobs as f64 } else { 0.0 });
    if !appends.is_empty() {
        let i = row(&mut table, "journal.append");
        for &s in &appends {
            table[i].1.push(s, s);
        }
    }

    set("bench.trace_overhead_pct", run.trace_overhead_pct);
    set("bench.jobs_traced", matched as f64);

    print_table(&table, n_jobs, matched);
    metric_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = m
                .get(&name)
                .copied()
                .unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
            (name, unit, v)
        })
        .collect()
}

/// Writes the traced phase as Chrome `trace_event` JSON (load it in
/// Perfetto): per job, the benchmark's submit-to-result span and every
/// service span, all on the benchmark clock, one lane per job.
pub fn write_chrome_trace(path: &std::path::Path, run: &TracedRun<'_>) -> std::io::Result<()> {
    use std::io::Write;
    let by_id: HashMap<u64, &JobTrace> = run.traces.iter().map(|t| (t.job_id, t)).collect();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut first = true;
    let mut event = |out: &mut std::io::BufWriter<std::fs::File>,
                     name: &str,
                     tid: u64,
                     ts: f64,
                     dur: f64| {
        let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
        write!(out, "{sep}{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3}}}")
    };
    writeln!(out, "{{\"traceEvents\":[")?;
    for (record, _) in run.phase.completed() {
        let (start, end) = (record.submit_s * 1e6, record.done_s * 1e6);
        event(&mut out, "job", record.id, start, end - start)?;
        for span in by_id.get(&record.id).map_or(&[][..], |t| &t.spans[..]) {
            let name = match &span.backend {
                Some(backend) if span.stage == Stage::Solve => format!("solve:{backend}"),
                _ => span.stage.name().to_string(),
            };
            event(&mut out, &name, record.id, span.start_ns as f64 / 1e3, us(span.duration_ns()))?;
        }
    }
    write!(out, "\n]}}\n")?;
    out.flush()
}

/// Direct timed calls into the qubo layer: compile and canonical form of
/// every distinct model the phase's jobs carried, microseconds (median of
/// three calls each), keyed by labeling.
fn distinct_model_times(inputs: &Inputs, records: &[&Record]) -> HashMap<usize, (f64, f64)> {
    let mut out = HashMap::new();
    for record in records {
        out.entry(record.job.labeling).or_insert_with(|| {
            let q = inputs.problem(&record.job).to_qubo();
            let mut compile = Vec::new();
            let mut canonical = Vec::new();
            for _ in 0..3 {
                let start = Instant::now();
                let c = std::hint::black_box(q.compile());
                compile.push(start.elapsed().as_secs_f64() * 1e6);
                let start = Instant::now();
                std::hint::black_box(c.canonical_form());
                canonical.push(start.elapsed().as_secs_f64() * 1e6);
            }
            (crate::stats::median(&compile), crate::stats::median(&canonical))
        });
    }
    out
}

fn print_table(table: &[(String, Layer)], n_jobs: usize, matched: usize) {
    eprintln!("per-layer breakdown ({n_jobs} completed jobs, {matched} with service traces)");
    eprintln!(
        "{:<42} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "layer", "count", "p50_us", "p99_us", "self_p50", "self_p99", "self_s"
    );
    for (name, layer) in table {
        let p99 = percentile(&layer.dur, 99.0);
        let tag =
            if p99.resolved() { String::new() } else { format!(" (p99 is p{:.1})", p99.reported) };
        eprintln!(
            "{:<42} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.3}{tag}",
            name,
            layer.dur.len(),
            percentile(&layer.dur, 50.0).value,
            p99.value,
            percentile(&layer.selft, 50.0).value,
            percentile(&layer.selft, 99.0).value,
            layer.selft.iter().sum::<f64>() / 1e6,
        );
    }
}
