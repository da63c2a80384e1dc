//! Output checks: reference energies, result re-scoring, served-copy
//! consistency, ledgers, and result digests.

use crate::gen::{Inputs, Job, Route};
use crate::harness::{Phase, Record, Served};
use qdm_core::solver::{QuboSolver, SaSolver, TabuSolver};
use qdm_qubo::model::QuboModel;
use qdm_qubo::solve::solve_exact;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Instances this small get their exact optimum as reference.
const EXACT_MAX_VARS: usize = 20;
/// Relative tolerance for energies re-scored under another labeling, whose
/// coefficient summation order differs.
const ENERGY_TOL: f64 = 1e-9;

/// Reference energy per instance: the exact optimum up to
/// [`EXACT_MAX_VARS`] variables, otherwise the best of a fixed-seed,
/// fixed-effort tabu and SA portfolio (four and two restarts' worth of
/// seeds).
pub fn references(inputs: &Inputs) -> Vec<f64> {
    inputs
        .instances
        .iter()
        .map(|p| {
            let q = p.to_qubo();
            if q.n_vars() <= EXACT_MAX_VARS {
                return solve_exact(&q).energy;
            }
            let c = q.compile();
            let mut best = f64::INFINITY;
            for seed in 0..4 {
                best = best.min(
                    TabuSolver::default()
                        .solve_compiled(&c, &mut StdRng::seed_from_u64(seed))
                        .energy,
                );
            }
            for seed in 0..2 {
                best = best.min(
                    SaSolver::default().solve_compiled(&c, &mut StdRng::seed_from_u64(seed)).energy,
                );
            }
            best
        })
        .collect()
}

/// Relative energy gap of one result against its instance's reference.
pub fn gap(energy: f64, reference: f64) -> f64 {
    (energy - reference) / reference.abs().max(1.0)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Collected violations (the first few are kept verbatim).
#[derive(Default)]
pub struct Violations {
    pub count: usize,
    pub first: Vec<String>,
}

impl Violations {
    pub fn fail(&mut self, msg: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.count == 0
    }
}

/// Checks one service's answered jobs:
/// - every returned energy equals its bits re-scored on the job's own QUBO,
///   and the decoded objective and feasibility equal a fresh decode;
/// - re-solves of the same pinned work under the same labeling are
///   bit-identical (`Auto` and `Race` work may legitimately re-solve on
///   another backend, since routing reads the portfolio's live telemetry);
/// - every served copy (cache hit or coalesced, relabeled or not) carries
///   the energy and decoded objective of a solve of the same work.
pub fn verify_results(inputs: &Inputs, records: &[&Record], out: &mut Violations) {
    let mut qubos: HashMap<usize, QuboModel> = HashMap::new();
    // work key -> every solve of it, with the labeling it was solved under
    let mut solves: HashMap<_, Vec<(usize, &Served)>> = HashMap::new();
    let mut copies: Vec<(&Job, &Served)> = Vec::new();
    for record in records {
        let Ok(served) = &record.result else { continue };
        let job = &record.job;
        let problem = inputs.problem(job);
        let qubo = qubos.entry(job.labeling).or_insert_with(|| problem.to_qubo());
        let rescored = qubo.energy(&served.bits);
        if !close(rescored, served.energy) {
            out.fail(format!(
                "job {}: energy {} but bits score {rescored}",
                record.id, served.energy
            ));
        }
        let decoded = problem.decode(&served.bits);
        if decoded.objective != served.objective || decoded.feasible != served.feasible {
            out.fail(format!("job {}: decoded result does not match its bits", record.id));
        }
        if served.from_cache || served.coalesced {
            copies.push((job, served));
            continue;
        }
        let group = solves.entry(job.work_key()).or_default();
        let first = group.iter().find(|(labeling, _)| *labeling == job.labeling);
        if let (Route::Pinned(_), Some((_, first))) = (job.route, first) {
            if first.bits != served.bits || first.energy.to_bits() != served.energy.to_bits() {
                out.fail(format!(
                    "job {}: re-solve of identical pinned work differs: {} vs {}",
                    record.id, served.energy, first.energy
                ));
            }
        }
        group.push((job.labeling, served));
    }
    for (job, served) in copies {
        let matches = solves.get(&job.work_key()).is_some_and(|group| {
            group
                .iter()
                .any(|(_, s)| close(s.energy, served.energy) && s.objective == served.objective)
        });
        if !matches {
            out.fail(format!(
                "served copy of instance {} seed {} ({:?}) matches no solve of that work",
                job.instance, job.seed, job.route
            ));
        }
    }
}

/// Checks a phase's ledger: every attempted job completed, failed, or was
/// refused or shed.
pub fn verify_ledger(name: &str, phase: &Phase, out: &mut Violations) {
    let accounted = phase.records.len() + phase.refused + phase.shed;
    if phase.attempted != accounted {
        out.fail(format!(
            "{name}: attempted {} != completed {} + failed {} + refused {}",
            phase.attempted,
            phase.n_completed(),
            phase.n_failed(),
            phase.refused + phase.shed
        ));
    }
}

/// FNV-1a digest over results in order: bits and exact energy.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a Served>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for served in results {
        for &b in &served.bits {
            eat(b as u8);
        }
        for byte in served.energy.to_bits().to_le_bytes() {
            eat(byte);
        }
        eat(0xff);
    }
    h
}
