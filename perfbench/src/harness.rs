//! Load generation: one generator thread driving a closed loop (a fixed
//! window of jobs in flight), recording every job's timing and outcome.

use crate::gen::{self, Job, Stream};
use qdm_runtime::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The benchmark's clock origin; traced services share it as their epoch.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since [`epoch`].
pub fn now_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// What a completed job returned.
#[derive(Debug, Clone)]
pub struct Served {
    pub bits: Vec<bool>,
    pub energy: f64,
    pub objective: f64,
    pub feasible: bool,
    pub backend: String,
    pub from_cache: bool,
    pub coalesced: bool,
}

/// One job the service answered.
#[derive(Debug, Clone)]
pub struct Record {
    pub job: Job,
    /// Service job id (the handle's id).
    pub id: u64,
    pub submit_s: f64,
    pub done_s: f64,
    pub result: Result<Served, String>,
}

impl Record {
    /// Latency from the submit call to the observed result, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.submit_s) * 1e3
    }
}

/// Everything one phase of load produced.
#[derive(Default)]
pub struct Phase {
    pub records: Vec<Record>,
    pub attempted: usize,
    /// Refused by a full session queue.
    pub refused: usize,
    /// Shed by cluster admission (token bucket or watermark).
    pub shed: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// Time spent inside each submit call, microseconds.
    pub submit_us: Vec<f64>,
}

impl Phase {
    pub fn completed(&self) -> impl Iterator<Item = (&Record, &Served)> {
        self.records.iter().filter_map(|r| r.result.as_ref().ok().map(|s| (r, s)))
    }

    pub fn n_completed(&self) -> usize {
        self.completed().count()
    }

    pub fn n_failed(&self) -> usize {
        self.records.len() - self.n_completed()
    }

    /// Completed jobs per second over the phase. A closed loop's jobs are
    /// stratified over instances and backends, so the whole phase carries
    /// the workload's intended mix.
    pub fn throughput(&self) -> f64 {
        self.n_completed() as f64 / (self.end_s - self.start_s)
    }

    /// Latencies of completed jobs in each of `windows` equal slices of
    /// the phase, by submit time, milliseconds.
    pub fn window_latencies_ms(&self, windows: usize) -> Vec<Vec<f64>> {
        let span = (self.end_s - self.start_s) / windows as f64;
        let mut out = vec![Vec::new(); windows];
        for (r, _) in self.completed() {
            let w = ((r.submit_s - self.start_s) / span).max(0.0) as usize;
            out[w.min(windows - 1)].push(r.latency_ms());
        }
        out
    }
}

/// A session the generator submits through.
pub trait Front {
    /// Submits without waiting for a result; the handle id on acceptance.
    fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError>;
    fn completions(&self) -> Completions<'_>;
}

impl Front for Session<'_> {
    fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        Ok(Session::submit(self, spec).id())
    }
    fn completions(&self) -> Completions<'_> {
        Session::completions(self)
    }
}

impl Front for ClusterSession<'_> {
    fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.try_submit(spec).map(|handle| handle.id())
    }
    fn completions(&self) -> Completions<'_> {
        ClusterSession::completions(self)
    }
}

/// Session sizing for a generator that tracks its own in-flight set.
pub fn session_config(queue_capacity: usize) -> SessionConfig {
    SessionConfig { queue_capacity, completion_buffer: 1 << 16 }
}

/// Maps a job to the problem object the service receives (the traced run
/// wraps it in timing decorators).
pub type Wrap<'a> = &'a dyn Fn(&Job) -> SharedProblem;

pub fn served(outcome: JobOutcome) -> Result<Served, String> {
    outcome
        .map(|r| Served {
            bits: r.report.bits,
            energy: r.report.energy,
            objective: r.report.decoded.objective,
            feasible: r.report.decoded.feasible,
            backend: r.backend,
            from_cache: r.from_cache,
            coalesced: r.coalesced,
        })
        .map_err(|e| e.to_string())
}

/// Submits one job, timing the call. Returns the accepted id.
fn submit_timed(front: &dyn Front, job: &Job, wrap: Wrap<'_>, phase: &mut Phase) -> Option<u64> {
    let spec = gen::spec(job, wrap(job));
    let start = Instant::now();
    let result = front.submit(spec);
    phase.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
    phase.attempted += 1;
    match result {
        Ok(id) => Some(id),
        Err(SubmitError::QueueFull(_)) => {
            phase.refused += 1;
            None
        }
        Err(SubmitError::Overloaded { .. }) => {
            phase.shed += 1;
            None
        }
    }
}

/// Closed loop: keeps `window` jobs in flight, submitting the next job of
/// `stream` as each completes, until `deadline` passes or `max_jobs` have
/// been attempted. Every submitted job is waited for.
pub fn closed_loop(
    front: &dyn Front,
    stream: &mut Stream<'_>,
    window: usize,
    deadline: Instant,
    max_jobs: usize,
    wrap: Wrap<'_>,
) -> Phase {
    let mut phase = Phase { start_s: now_s(), ..Phase::default() };
    let mut pending: HashMap<u64, (Job, f64)> = HashMap::new();
    loop {
        while pending.len() < window && Instant::now() < deadline && phase.attempted < max_jobs {
            let job = stream.next().expect("job streams are endless");
            let submit_s = now_s();
            if let Some(id) = submit_timed(front, &job, wrap, &mut phase) {
                pending.insert(id, (job, submit_s));
            }
        }
        if pending.is_empty() {
            break;
        }
        let Some(done) = front.completions().next() else { continue };
        let done_s = now_s();
        let (job, submit_s) = pending.remove(&done.id).expect("completion of a submitted job");
        phase.records.push(Record {
            job,
            id: done.id,
            submit_s,
            done_s,
            result: served(done.outcome),
        });
    }
    phase.end_s = now_s();
    phase
}
