//! Simulated quantum annealing (SQA) via path-integral Monte Carlo.
//!
//! This is the software stand-in for the D-Wave hardware used by the
//! annealing rows of Table I (see DESIGN.md substitution table). The
//! transverse-field Ising Hamiltonian
//! `H = H_classical - Gamma(t) * sum_i X_i`
//! is simulated with the Suzuki–Trotter decomposition: `P` coupled replicas
//! of the classical system, with ferromagnetic inter-replica coupling
//! `J_perp = -(P*T/2) * ln tanh(Gamma / (P*T))` that strengthens as the
//! transverse field `Gamma` anneals towards zero.
//!
//! The sweep works the way the SA kernel does: the `P x n` spins live in one
//! flat array, each replica keeps incremental local fields
//! `h_ri = f_i + sum_j J_ij s_rj` (O(deg) per accepted flip, O(1) per
//! rejection), and each replica's classical energy is tracked from the flip
//! deltas `-2 s_ri h_ri` instead of being re-scored after every replica
//! sweep. The returned energy is re-scored exactly on the returned bits.
//! Runs use the same RNG stream as the earlier kernel that re-summed every
//! field per proposal, but are not bit-identical to it: the incremental
//! fields round differently, which can tip an acceptance decision.

use qdm_qubo::compiled::CompiledQubo;
use qdm_qubo::model::QuboModel;
use qdm_qubo::probe::{NoProbe, RestartStats, StageProbe};
use qdm_qubo::solve::SolveResult;
use rand::Rng;
use std::time::Instant;

/// Parameters for [`simulated_quantum_annealing`].
#[derive(Debug, Clone, Copy)]
pub struct SqaParams {
    /// Number of Trotter replicas `P`.
    pub replicas: usize,
    /// Monte-Carlo sweeps over all (replica, spin) pairs.
    pub sweeps: usize,
    /// Initial transverse field `Gamma_0`.
    pub gamma_start: f64,
    /// Final transverse field (close to 0).
    pub gamma_end: f64,
    /// Simulation temperature `T` (in energy units of the Hamiltonian).
    pub temperature: f64,
}

impl Default for SqaParams {
    fn default() -> Self {
        Self { replicas: 16, sweeps: 300, gamma_start: 3.0, gamma_end: 1e-3, temperature: 0.05 }
    }
}

impl SqaParams {
    /// Scales the temperature and field to the coefficient magnitude of the
    /// model.
    pub fn scaled_to(q: &QuboModel) -> Self {
        let scale = q.max_abs_coefficient().max(1e-9);
        Self {
            gamma_start: 3.0 * scale,
            gamma_end: 1e-3 * scale,
            temperature: 0.05 * scale,
            ..Self::default()
        }
    }

    /// [`Self::scaled_to`] from an existing compilation (same scale value).
    pub fn scaled_to_compiled(c: &CompiledQubo) -> Self {
        let scale = c.max_abs_coefficient().max(1e-9);
        Self {
            gamma_start: 3.0 * scale,
            gamma_end: 1e-3 * scale,
            temperature: 0.05 * scale,
            ..Self::default()
        }
    }
}

/// Runs path-integral simulated quantum annealing on a QUBO and returns the
/// best classical configuration seen in any replica.
pub fn simulated_quantum_annealing(
    q: &QuboModel,
    params: &SqaParams,
    rng: &mut impl Rng,
) -> SolveResult {
    simulated_quantum_annealing_compiled(&q.compile(), params, rng)
}

/// [`simulated_quantum_annealing`] on an existing compilation — the primary
/// entry point for compile-once callers.
///
/// The transverse-field Ising form is derived *directly from the shared
/// [`CompiledQubo`]*: the Ising coupling graph has exactly the QUBO's
/// sparsity with `J_ij = w_ij / 4` (an exact power-of-two scale), so the
/// compiled CSR adjacency is reused as-is with a rescaled weight array
/// instead of re-deriving a second flat CSR from an intermediate
/// `IsingModel`. Field and constant accumulations visit terms in the same
/// order `IsingModel::from_qubo` does.
pub fn simulated_quantum_annealing_compiled(
    c: &CompiledQubo,
    params: &SqaParams,
    rng: &mut impl Rng,
) -> SolveResult {
    simulated_quantum_annealing_probed(c, params, rng, &NoProbe)
}

/// [`simulated_quantum_annealing_compiled`] reporting aggregate Monte-Carlo
/// counters to `probe` (SQA has no restarts, so the whole run reports as one
/// `RestartStats` with the executed sweep count). The
/// [`StageProbe::should_stop`] checkpoint is polled at each sweep boundary
/// and consumes no randomness: probes that never stop leave the RNG stream
/// and result bit-identical to the unprobed entry point, and a probe that
/// stops early gets the best classical configuration seen so far.
///
/// The RNG draws are one `bool` per spin at init (replica by replica) and
/// one `f64` per uphill proposal. Local fields and replica energies are
/// maintained incrementally; the best replica is taken at replica-sweep
/// boundaries and copied into one reused bit buffer, and the returned
/// `energy` is `c.energy(&bits)` exactly.
pub fn simulated_quantum_annealing_probed(
    c: &CompiledQubo,
    params: &SqaParams,
    rng: &mut impl Rng,
    probe: &dyn StageProbe,
) -> SolveResult {
    let start = Instant::now();
    let n = c.n_vars();
    let p = params.replicas.max(2);
    let pt = p as f64 * params.temperature;

    if n == 0 {
        return SolveResult {
            bits: Vec::new(),
            energy: c.offset(),
            evaluations: 1,
            seconds: start.elapsed().as_secs_f64(),
            certified_optimal: false,
        };
    }

    // QUBO → Ising under x = (1 - s)/2, accumulated term-by-term in the
    // same order as `IsingModel::from_qubo` (linear terms by index, then
    // couplings by sorted key) so every float matches that path bit-for-bit.
    let mut constant = c.offset();
    let mut fields = vec![0.0f64; n];
    for (i, field) in fields.iter_mut().enumerate() {
        let a = c.linear(i);
        constant += a / 2.0;
        *field -= a / 2.0;
    }
    for ((i, j), w) in c.couplings_iter() {
        constant += w / 4.0;
        fields[i] -= w / 4.0;
        fields[j] -= w / 4.0;
    }
    // The Ising coupling CSR is the QUBO CSR with weights divided by 4:
    // same row offsets, same ascending neighbor order, exactly scaled
    // weights — no second CSR derivation.
    let j_weights: Vec<f64> = c.weights().iter().map(|&w| w / 4.0).collect();
    let row_offsets = c.row_offsets();
    let row = |i: usize| {
        let span = row_offsets[i]..row_offsets[i + 1];
        (&c.neighbors()[span.clone()], &j_weights[span])
    };

    // Replica `r`'s spin `i` is `spins[r * n + i]` in {-1.0, +1.0}; the
    // random init draws one bool per spin, replica by replica.
    let mut spins: Vec<f64> =
        (0..p * n).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }).collect();
    // Per-replica local fields `h[r * n + i] = f_i + sum_j J_ij s_rj`, so a
    // flip of `s_ri` changes the replica's classical energy by
    // `-2 s_ri h_ri`; kept current in O(deg) per accepted flip.
    let mut h = vec![0.0f64; p * n];
    let mut energies = vec![constant; p];
    for (r, energy) in energies.iter_mut().enumerate() {
        let s = &spins[r * n..(r + 1) * n];
        let hr = &mut h[r * n..(r + 1) * n];
        ising_local_fields(&fields, row, s, hr);
        // E = c + sum_i f_i s_i + sum_{i<j} J_ij s_i s_j
        //   = c + sum_i s_i (f_i + h_i) / 2.
        for ((&si, &fi), &hi) in s.iter().zip(&fields).zip(hr.iter()) {
            *energy += si * (fi + hi) / 2.0;
        }
    }

    // The lowest classical energy seen at a replica-sweep boundary, and
    // its configuration in one reused buffer.
    let mut best_bits = vec![false; n];
    let mut best = f64::INFINITY;
    let mut evals: u64 = 0;
    for (r, &e) in energies.iter().enumerate() {
        evals += 1;
        if e < best {
            best = e;
            spins_to_bits(&spins[r * n..(r + 1) * n], &mut best_bits);
        }
    }

    let sweeps = params.sweeps.max(1);
    let mut sweeps_done: u64 = 0;
    let mut proposals: u64 = 0;
    let mut accepted: u64 = 0;
    for sweep in 0..sweeps {
        if probe.should_stop() {
            break;
        }
        let frac = sweep as f64 / sweeps as f64;
        // Linear annealing of the transverse field.
        let gamma = params.gamma_start + (params.gamma_end - params.gamma_start) * frac;
        // Trotter inter-replica coupling (ferromagnetic, negative).
        let x = (gamma / pt).tanh().max(1e-300);
        let j_perp = -0.5 * pt * x.ln(); // positive magnitude
        for (r, energy) in energies.iter_mut().enumerate() {
            let (here, up, down) = (r * n, (r + 1) % p * n, (r + p - 1) % p * n);
            for i in 0..n {
                let si = spins[here + i];
                // Local classical field (per-replica weight 1/P).
                let h_local = h[here + i];
                let classical_delta = -2.0 * si * h_local / p as f64;
                // Inter-replica ferromagnetic term: -j_perp * s_{r,i} * (s_{up,i} + s_{down,i}).
                let quantum_delta = 2.0 * j_perp * si * (spins[up + i] + spins[down + i]);
                let delta = classical_delta + quantum_delta;
                evals += 1;
                proposals += 1;
                if delta <= 0.0
                    || rng.random::<f64>() < (-delta / params.temperature.max(1e-12)).exp()
                {
                    spins[here + i] = -si;
                    *energy -= 2.0 * si * h_local;
                    let step = -2.0 * si;
                    let (nbrs, ws) = row(i);
                    for (&j, &w) in nbrs.iter().zip(ws) {
                        h[here + j as usize] += step * w;
                    }
                    accepted += 1;
                }
            }
            // Track the best classical configuration of this replica.
            evals += 1;
            if *energy < best {
                best = *energy;
                spins_to_bits(&spins[here..here + n], &mut best_bits);
            }
        }
        sweeps_done += 1;
    }
    probe.on_restart(&RestartStats {
        solver: "sqa",
        restart: 0,
        sweeps: sweeps_done,
        proposals,
        accepted,
    });
    debug_assert!(
        {
            let scale = c.max_abs_coefficient().max(1e-9);
            let mut fresh = vec![0.0f64; n];
            (0..p).all(|r| {
                ising_local_fields(&fields, row, &spins[r * n..(r + 1) * n], &mut fresh);
                fresh.iter().zip(&h[r * n..(r + 1) * n]).all(|(a, b)| (a - b).abs() <= 1e-9 * scale)
            })
        },
        "incrementally maintained SQA local fields drifted from a fresh recomputation"
    );

    // The returned energy is the exact QUBO energy of the returned bits,
    // not the incrementally tracked Ising value.
    evals += 1;
    SolveResult {
        energy: c.energy(&best_bits),
        bits: best_bits,
        evaluations: evals,
        seconds: start.elapsed().as_secs_f64(),
        certified_optimal: false,
    }
}

/// Writes a replica's spins as QUBO bits (spin -1 encodes x = 1).
fn spins_to_bits(s: &[f64], bits: &mut [bool]) {
    for (b, &si) in bits.iter_mut().zip(s) {
        *b = si < 0.0;
    }
}

/// Fresh Ising local fields of one replica:
/// `h[i] = fields[i] + sum_j J_ij s[j]` over the coupling rows.
fn ising_local_fields<'a>(
    fields: &[f64],
    row: impl Fn(usize) -> (&'a [u32], &'a [f64]),
    s: &[f64],
    h: &mut [f64],
) {
    for (i, hi) in h.iter_mut().enumerate() {
        let (nbrs, ws) = row(i);
        *hi = fields[i] + nbrs.iter().zip(ws).map(|(&j, &w)| w * s[j as usize]).sum::<f64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_qubo::solve::solve_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn random_model(seed: u64, n: usize) -> QuboModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboModel::new(n);
        for i in 0..n {
            q.add_linear(i, rng.random_range(-2.0..2.0));
            for j in (i + 1)..n {
                if rng.random::<f64>() < 0.5 {
                    q.add_quadratic(i, j, rng.random_range(-2.0..2.0));
                }
            }
        }
        q
    }

    #[test]
    fn sqa_solves_small_instances_optimally() {
        let mut hit = 0;
        for seed in 0..4 {
            let q = random_model(seed, 10);
            let exact = solve_exact(&q);
            let mut rng = StdRng::seed_from_u64(seed + 50);
            let res = simulated_quantum_annealing(&q, &SqaParams::scaled_to(&q), &mut rng);
            assert!((q.energy(&res.bits) - res.energy).abs() < 1e-9);
            if (res.energy - exact.energy).abs() < 1e-9 {
                hit += 1;
            }
        }
        assert!(hit >= 3, "SQA found optimum on only {hit}/4 instances");
    }

    #[test]
    fn sqa_handles_empty_model() {
        let q = QuboModel::new(0);
        let mut rng = StdRng::seed_from_u64(0);
        let res = simulated_quantum_annealing(&q, &SqaParams::default(), &mut rng);
        assert_eq!(res.energy, 0.0);
    }

    /// Records every restart report and asks to stop once `stop_after`
    /// sweep-boundary polls have passed.
    struct CountingProbe {
        polls: AtomicUsize,
        stop_after: usize,
        stats: Mutex<Vec<RestartStats>>,
    }

    impl CountingProbe {
        fn new(stop_after: usize) -> Self {
            Self { polls: AtomicUsize::new(0), stop_after, stats: Mutex::new(Vec::new()) }
        }
    }

    impl StageProbe for CountingProbe {
        fn on_restart(&self, stats: &RestartStats) {
            self.stats.lock().unwrap().push(*stats);
        }

        fn should_stop(&self) -> bool {
            self.polls.fetch_add(1, Ordering::Relaxed) >= self.stop_after
        }
    }

    #[test]
    fn energy_is_exactly_the_qubo_energy_of_the_bits() {
        for (seed, n) in [(1u64, 8usize), (2, 24), (3, 64)] {
            let q = random_model(seed, n);
            let c = q.compile();
            let params = SqaParams::scaled_to(&q);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let res = simulated_quantum_annealing_compiled(&c, &params, &mut rng);
            assert_eq!(res.energy.to_bits(), c.energy(&res.bits).to_bits(), "n = {n}");

            // A run a probe stops early reports the same way.
            let probe = CountingProbe::new(5);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let stopped = simulated_quantum_annealing_probed(&c, &params, &mut rng, &probe);
            assert_eq!(stopped.energy.to_bits(), c.energy(&stopped.bits).to_bits(), "n = {n}");
            assert_eq!(probe.stats.lock().unwrap()[0].sweeps, 5);
        }
    }

    #[test]
    fn same_seed_gives_identical_runs() {
        let q = random_model(21, 40);
        let c = q.compile();
        let params = SqaParams { sweeps: 120, ..SqaParams::scaled_to(&q) };
        let run = || {
            let mut rng = StdRng::seed_from_u64(77);
            simulated_quantum_annealing_compiled(&c, &params, &mut rng)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn probe_counts_sweeps_and_proposals() {
        let n = 20;
        let q = random_model(5, n);
        let c = q.compile();
        let params = SqaParams { replicas: 6, sweeps: 40, ..SqaParams::scaled_to(&q) };
        let p = params.replicas;

        let probe = CountingProbe::new(usize::MAX);
        let mut rng = StdRng::seed_from_u64(9);
        let probed = simulated_quantum_annealing_probed(&c, &params, &mut rng, &probe);
        let mut rng = StdRng::seed_from_u64(9);
        let plain = simulated_quantum_annealing_compiled(&c, &params, &mut rng);
        assert_eq!(plain.bits, probed.bits, "a probe that never stops must not perturb the run");
        assert_eq!(plain.evaluations, probed.evaluations);
        let stats = probe.stats.lock().unwrap().clone();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].solver, "sqa");
        assert_eq!(stats[0].sweeps, params.sweeps as u64);
        assert_eq!(stats[0].proposals, (p * n * params.sweeps) as u64);
        assert!(0 < stats[0].accepted && stats[0].accepted <= stats[0].proposals);

        let early = CountingProbe::new(7);
        let mut rng = StdRng::seed_from_u64(9);
        simulated_quantum_annealing_probed(&c, &params, &mut rng, &early);
        let stats = early.stats.lock().unwrap().clone();
        assert_eq!(stats[0].sweeps, 7);
        assert_eq!(stats[0].proposals, (p * n * 7) as u64);
    }

    #[test]
    fn reported_energy_matches_bits() {
        let q = random_model(11, 16);
        let mut rng = StdRng::seed_from_u64(12);
        let res = simulated_quantum_annealing(&q, &SqaParams::scaled_to(&q), &mut rng);
        assert!((q.energy(&res.bits) - res.energy).abs() < 1e-9);
    }
}
