//! Workload generation: Table I instance pools, the relabeling wrapper, and
//! the per-workload job streams.
//!
//! Everything here is a pure function of the workload seed. The service
//! only ever sees the generated [`JobSpec`]s.

use qdm_core::problem::{Decoded, DmProblem};
use qdm_db::query::{GraphShape, QueryGraph};
use qdm_db::txn::random_workload;
use qdm_problems::prelude::*;
use qdm_qubo::model::QuboModel;
use qdm_runtime::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

pub const SA: &str = "simulated-annealing";
pub const SA_PARALLEL: &str = "simulated-annealing-parallel";
pub const SQA: &str = "simulated-quantum-annealing";
pub const TABU: &str = "tabu";
pub const GROVER: &str = "grover-minimum";
pub const QAOA: &str = "qaoa";
pub const ADIABATIC: &str = "adiabatic-evolution";

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The four Table I families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Mqo,
    JoinOrder,
    SchemaMatching,
    TxnSchedule,
}

const SIZES: [Size; 3] = [Size::Small, Size::Mid, Size::Large];

pub const FAMILIES: [Family; 4] =
    [Family::Mqo, Family::JoinOrder, Family::SchemaMatching, Family::TxnSchedule];

/// Instance size class: about 8–16, 32–42 and 120–128 variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Mid,
    Large,
}

/// Gate-model instances have at most this many variables.
const GATE_MAX_VARS: usize = 12;
/// QAOA and adiabatic evolution only get instances this small.
const GATE_SMALL_VARS: usize = 9;

/// Builds one Table I instance of `family` at `size`.
pub fn instance(family: Family, size: Size, rng: &mut StdRng) -> SharedProblem {
    match (family, size) {
        (Family::Mqo, Size::Small) => mqo(3, 4, rng),
        (Family::Mqo, Size::Mid) => mqo(8, 5, rng),
        (Family::Mqo, Size::Large) => mqo(16, 8, rng),
        (Family::JoinOrder, Size::Small) => join(4, rng),
        (Family::JoinOrder, Size::Mid) => join(6, rng),
        (Family::JoinOrder, Size::Large) => join(11, rng),
        (Family::SchemaMatching, Size::Small) => schema(3, 1, rng),
        (Family::SchemaMatching, Size::Mid) => schema(6, 1, rng),
        (Family::SchemaMatching, Size::Large) => schema(10, 2, rng),
        (Family::TxnSchedule, Size::Small) => txn(2, rng),
        (Family::TxnSchedule, Size::Mid) => txn(4, rng),
        (Family::TxnSchedule, Size::Large) => txn(8, rng),
    }
}

/// A gate-model-sized instance (at most [`GATE_MAX_VARS`] variables); the
/// `round` fixes its size, so every seed's pool has the same sizes.
fn gate_instance(family: Family, round: usize, rng: &mut StdRng) -> SharedProblem {
    let problem = match family {
        Family::Mqo => {
            let (queries, plans) = [(2, 3), (2, 4), (3, 3), (3, 4)][round % 4];
            mqo(queries, plans, rng)
        }
        Family::JoinOrder => join(3, rng),
        Family::SchemaMatching => {
            let (attributes, noise) = [(2, 1), (2, 2), (3, 0), (3, 1)][round % 4];
            schema(attributes, noise, rng)
        }
        Family::TxnSchedule => txn(2, rng),
    };
    assert!(problem.n_vars() <= GATE_MAX_VARS);
    problem
}

fn mqo(queries: usize, plans: usize, rng: &mut StdRng) -> SharedProblem {
    Arc::new(MqoProblem::new(MqoInstance::generate(queries, plans, 0.3, rng)))
}

fn join(relations: usize, rng: &mut StdRng) -> SharedProblem {
    let shape =
        [GraphShape::Chain, GraphShape::Star, GraphShape::Cycle][rng.random_range(0..3usize)];
    let shape = if relations < 3 { GraphShape::Chain } else { shape };
    Arc::new(JoinOrderProblem::left_deep(QueryGraph::generate(shape, relations, rng)))
}

fn schema(attributes: usize, noise: usize, rng: &mut StdRng) -> SharedProblem {
    Arc::new(SchemaMatchingProblem::new(generate_benchmark(attributes, noise, rng).0))
}

fn txn(transactions: usize, rng: &mut StdRng) -> SharedProblem {
    let mut txns = random_workload(transactions, 3, 2, 0.5, rng);
    // Fixed durations fix the variable count (transactions x horizon) per
    // size class; the serial makespan always admits a feasible schedule.
    for t in &mut txns {
        t.duration = 2;
    }
    let horizon = 2 * transactions;
    Arc::new(TxnScheduleProblem::new(txns, horizon))
}

/// A variable-relabeled copy of a problem that keeps its `name()`, so the
/// service sees the same work under a different labeling: variable `i` of
/// the inner encoding is variable `perm[i]` here.
pub struct Relabeled {
    inner: SharedProblem,
    perm: Vec<usize>,
}

impl Relabeled {
    pub fn new(inner: SharedProblem, perm: Vec<usize>) -> Self {
        assert_eq!(perm.len(), inner.n_vars(), "one target per variable");
        Self { inner, perm }
    }

    /// A uniformly random relabeling of `inner`.
    pub fn random(inner: SharedProblem, rng: &mut StdRng) -> Self {
        let mut perm: Vec<usize> = (0..inner.n_vars()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        Self::new(inner, perm)
    }

    /// This labeling's bits in the inner problem's labeling.
    fn to_inner(&self, bits: &[bool]) -> Vec<bool> {
        self.perm.iter().map(|&p| bits[p]).collect()
    }
}

impl DmProblem for Relabeled {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn to_qubo(&self) -> QuboModel {
        let q = self.inner.to_qubo();
        let mut out = QuboModel::new(q.n_vars());
        out.add_offset(q.offset());
        for i in 0..q.n_vars() {
            out.add_linear(self.perm[i], q.linear(i));
        }
        for ((i, j), w) in q.quadratic_iter() {
            out.add_quadratic(self.perm[i], self.perm[j], w);
        }
        out
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        self.inner.decode(&self.to_inner(bits))
    }

    fn repair(&self, bits: &[bool]) -> Vec<bool> {
        let repaired = self.inner.repair(&self.to_inner(bits));
        let mut out = vec![false; bits.len()];
        for (i, &b) in repaired.iter().enumerate() {
            out[self.perm[i]] = b;
        }
        out
    }
}

/// How a job picks its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    Pinned(&'static str),
    Auto,
    Race,
}

/// Race width of [`Route::Race`] jobs.
pub const RACE_K: usize = 2;

/// One generated job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the underlying instance in [`Inputs::instances`].
    pub instance: usize,
    /// Index into [`Inputs::labelings`] of the instance's labeling sent.
    pub labeling: usize,
    pub seed: u64,
    pub route: Route,
}

impl Job {
    /// The result-identity group: jobs with equal keys must be served the
    /// same energy and decoded objective.
    pub fn work_key(&self) -> (usize, u64, Route) {
        (self.instance, self.seed, self.route)
    }
}

/// A workload's generated inputs: instances, their labelings, and the
/// recipe the job stream draws from.
pub struct Inputs {
    /// Underlying instances.
    pub instances: Vec<SharedProblem>,
    /// Every problem object a job may carry: `labelings[k].0` is the
    /// instance index, `labelings[k].1` the problem (the instance itself or
    /// a [`Relabeled`] copy).
    pub labelings: Vec<(usize, SharedProblem)>,
    recipe: Recipe,
    seed: u64,
}

/// A repeated unit of work: the same instance, seed and route every time.
struct Item {
    instance: usize,
    /// Labelings this item may be sent under; the first is the original.
    labelings: Vec<usize>,
    seed: u64,
    route: Route,
}

enum Recipe {
    MixedMiss,
    HotRepeat { items: Vec<Item>, zipf: Zipf },
    Cluster { fresh: Vec<usize>, items: Vec<Item>, zipf: Zipf },
    GateModel { tiny: Vec<usize> },
}

/// Share of repeat copies sent relabeled.
const RELABEL_SHARE: f64 = 0.25;
/// One in this many mixed-miss jobs is pinned to simulated quantum
/// annealing, which costs 10–20x SA.
const SQA_EVERY: usize = 25;

impl Inputs {
    /// Cache capacity `hot_repeat` runs with: half its working set.
    pub const HOT_CACHE_CAPACITY: usize = 64;

    pub fn mixed_miss(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let instances = pool(&mut rng, 12, &SIZES);
        Self::plain(instances, Recipe::MixedMiss, seed)
    }

    pub fn hot_repeat(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 2));
        let instances = pool(&mut rng, 4, &SIZES);
        let n_items = 2 * Self::HOT_CACHE_CAPACITY;
        let mut inputs = Self::plain(instances, Recipe::MixedMiss, seed);
        let items =
            inputs.items(&mut rng, n_items, (0, 4, 3), |i| Route::Pinned([SA, TABU][i / 12 % 2]));
        inputs.recipe = Recipe::HotRepeat { items, zipf: Zipf::new(n_items, 1.0) };
        inputs
    }

    pub fn cluster(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 3));
        let mut instances = pool(&mut rng, 6, &SIZES);
        let fresh: Vec<usize> = (0..instances.len()).collect();
        // Repeated items live on instances of their own.
        instances.extend(pool(&mut rng, 4, &SIZES));
        let mut inputs = Self::plain(instances, Recipe::MixedMiss, seed);
        let n_items = 48;
        let items = inputs.items(&mut rng, n_items, (fresh.len(), 4, 3), cluster_route);
        inputs.recipe = Recipe::Cluster { fresh, items, zipf: Zipf::new(n_items, 1.0) };
        inputs
    }

    pub fn gate_model(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 4));
        let mut instances = Vec::new();
        for round in 0..24 {
            for family in FAMILIES {
                instances.push(gate_instance(family, round, &mut rng));
            }
        }
        let tiny =
            (0..instances.len()).filter(|&i| instances[i].n_vars() <= GATE_SMALL_VARS).collect();
        Self::plain(instances, Recipe::GateModel { tiny }, seed)
    }

    fn plain(instances: Vec<SharedProblem>, recipe: Recipe, seed: u64) -> Self {
        let labelings = instances.iter().enumerate().map(|(i, p)| (i, Arc::clone(p))).collect();
        Self { instances, labelings, recipe, seed }
    }

    /// `n` repeat items over the [`pool`] of `per` rounds of `sizes`
    /// classes starting at instance `first`, each with its original
    /// labeling plus two relabeled copies. Item `i` (popularity rank `i`)
    /// cycles through sizes fastest, then families, then rounds, so every
    /// seed puts the same instance classes at the same ranks.
    fn items(
        &mut self,
        rng: &mut StdRng,
        n: usize,
        (first, per, sizes): (usize, usize, usize),
        route: impl Fn(usize) -> Route,
    ) -> Vec<Item> {
        let classes = sizes * FAMILIES.len();
        (0..n)
            .map(|i| {
                let (size, family) = (i % sizes, i / sizes % FAMILIES.len());
                let round = i / classes % per;
                let instance = first + round * classes + size * FAMILIES.len() + family;
                let mut labelings = vec![instance];
                for _ in 0..2 {
                    let copy = Relabeled::random(Arc::clone(&self.instances[instance]), rng);
                    self.labelings.push((instance, Arc::new(copy)));
                    labelings.push(self.labelings.len() - 1);
                }
                Item { instance, labelings, seed: mix(self.seed, 1000 + i as u64), route: route(i) }
            })
            .collect()
    }

    /// The workload's job stream, restartable from its first job.
    pub fn stream(&self) -> Stream<'_> {
        let all: Vec<usize> = (0..self.instances.len()).collect();
        let decks = match &self.recipe {
            Recipe::MixedMiss => vec![ClassDeck::new(self, &all), ClassDeck::new(self, &all)],
            Recipe::HotRepeat { .. } => Vec::new(),
            Recipe::Cluster { fresh, .. } => vec![ClassDeck::new(self, fresh)],
            Recipe::GateModel { tiny } => {
                vec![
                    ClassDeck::new(self, &all),
                    ClassDeck::new(self, tiny),
                    ClassDeck::new(self, tiny),
                ]
            }
        };
        Stream {
            inputs: self,
            rng: StdRng::seed_from_u64(mix(self.seed, 99)),
            next: 0,
            fresh: 0,
            pending: Vec::new(),
            decks,
        }
    }

    /// The job's problem object (original or relabeled).
    pub fn problem(&self, job: &Job) -> &SharedProblem {
        &self.labelings[job.labeling].1
    }
}

/// Route of the `i`th fresh job or repeat item on `cluster`: 5% race,
/// 15% `Auto`, 10% pinned to SQA and the rest to SA or tabu. The SQA share
/// keeps the workers, not the generator thread's submit work (encode and
/// canonical form run on the caller's thread here), the bottleneck, so the
/// latency tail follows solve work rather than how the two CPUs are
/// scheduled.
fn cluster_route(i: usize) -> Route {
    if i % 20 == 7 {
        Route::Race
    } else if i % 5 == 2 {
        Route::Auto
    } else if i % 10 == 4 {
        Route::Pinned(SQA)
    } else {
        Route::Pinned([SA, TABU][i / 5 % 2])
    }
}

/// `per` instances of every family at every listed size.
fn pool(rng: &mut StdRng, per: usize, sizes: &[Size]) -> Vec<SharedProblem> {
    let mut out = Vec::new();
    for _ in 0..per {
        for &size in sizes {
            for family in FAMILIES {
                out.push(instance(family, size, rng));
            }
        }
    }
    out
}

/// Zipf(s) sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A shuffled deck of indices `0..n`: draws visit every index once per
/// pass, in a fresh order each pass, so every stream has the same mix.
struct Deck {
    order: Vec<usize>,
    pos: usize,
}

impl Deck {
    fn new(n: usize) -> Self {
        Self { order: (0..n).collect(), pos: n }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.random_range(0..=i));
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Draws instances class by class: consecutive draws cycle through the
/// instance classes (family and size, as `name()` spells them) in a fixed
/// order, and a [`Deck`] per class picks the instance. Every stream, and
/// every stretch of it, so has the same mix of classes; the seed decides
/// only which instances fill them.
struct ClassDeck {
    classes: Vec<(Vec<usize>, Deck)>,
    next: usize,
}

impl ClassDeck {
    fn new(inputs: &Inputs, among: &[usize]) -> Self {
        let mut classes: Vec<(String, Vec<usize>)> = Vec::new();
        for &i in among {
            let name = inputs.instances[i].name();
            match classes.iter_mut().find(|(n, _)| *n == name) {
                Some((_, members)) => members.push(i),
                None => classes.push((name, vec![i])),
            }
        }
        let classes = classes
            .into_iter()
            .map(|(_, m)| {
                let d = Deck::new(m.len());
                (m, d)
            })
            .collect();
        Self { classes, next: 0 }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        let n = self.classes.len();
        let (members, deck) = &mut self.classes[self.next % n];
        self.next += 1;
        members[deck.draw(rng)]
    }
}

/// An endless, deterministic job stream.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    rng: StdRng,
    next: u64,
    /// Fresh (non-repeat) jobs emitted so far.
    fresh: usize,
    /// Bunched duplicates still to emit, in order.
    pending: Vec<Job>,
    /// Instance decks, one per kind of fresh job of the recipe.
    decks: Vec<ClassDeck>,
}

impl Stream<'_> {
    fn fresh_job(&mut self, deck: usize, route: Route) -> Job {
        let instance = self.decks[deck].draw(&mut self.rng);
        self.fresh += 1;
        Job {
            instance,
            labeling: instance,
            seed: mix(self.inputs.seed, 1 << 40 | self.next),
            route,
        }
    }

    fn repeat(&mut self, items: &[Item], zipf: &Zipf, max_burst: usize) -> Job {
        let item = &items[zipf.sample(&mut self.rng)];
        let burst = self.rng.random_range(1..=max_burst);
        for _ in 0..burst {
            let labeling = if self.rng.random::<f64>() < RELABEL_SHARE {
                item.labelings[self.rng.random_range(1..item.labelings.len())]
            } else {
                item.labelings[0]
            };
            self.pending.push(Job {
                instance: item.instance,
                labeling,
                seed: item.seed,
                route: item.route,
            });
        }
        self.pending.reverse();
        self.pending.pop().expect("a burst has at least one job")
    }
}

impl Iterator for Stream<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let job = if let Some(job) = self.pending.pop() {
            job
        } else {
            let inputs = self.inputs;
            let k = self.fresh;
            match &inputs.recipe {
                Recipe::MixedMiss => {
                    if k % SQA_EVERY == SQA_EVERY - 1 {
                        self.fresh_job(1, Route::Pinned(SQA))
                    } else {
                        self.fresh_job(0, Route::Pinned([SA, TABU, SA_PARALLEL][k % 3]))
                    }
                }
                Recipe::HotRepeat { items, zipf } => self.repeat(items, zipf, 4),
                Recipe::Cluster { items, zipf, .. } => {
                    // Three fresh jobs in five: the latency median then sits
                    // inside the solved jobs' mode, not between it and the
                    // cache hits'.
                    if self.next % 5 < 3 {
                        self.fresh_job(0, cluster_route(k))
                    } else {
                        self.repeat(items, zipf, 2)
                    }
                }
                Recipe::GateModel { .. } => match (k * 7) % 20 {
                    0..=11 => self.fresh_job(0, Route::Pinned(GROVER)),
                    12..=16 => self.fresh_job(1, Route::Pinned(ADIABATIC)),
                    _ => self.fresh_job(2, Route::Pinned(QAOA)),
                },
            }
        };
        self.next += 1;
        Some(job)
    }
}

/// The service-side spec for a job.
pub fn spec(job: &Job, problem: SharedProblem) -> JobSpec {
    let options = qdm_core::pipeline::PipelineOptions { repair: true, ..Default::default() };
    let spec = JobSpec::new(problem, job.seed).with_options(options);
    match job.route {
        Route::Pinned(name) => spec.on_backend(name),
        Route::Auto => spec,
        Route::Race => spec.racing(RACE_K),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(inputs: &Inputs, n: usize) -> Vec<(u64, u64, String)> {
        inputs
            .stream()
            .take(n)
            .map(|job| {
                (inputs.problem(&job).to_qubo().fingerprint(), job.seed, format!("{:?}", job.route))
            })
            .collect()
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        for make in [Inputs::mixed_miss, Inputs::hot_repeat, Inputs::cluster, Inputs::gate_model] {
            let a = digest(&make(7), 200);
            assert_eq!(a, digest(&make(7), 200), "same seed, same stream");
            assert_ne!(a, digest(&make(8), 200), "another seed, another stream");
        }
    }

    #[test]
    fn relabeled_decode_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for family in FAMILIES {
            let inner = instance(family, Size::Small, &mut rng);
            let copy = Relabeled::random(Arc::clone(&inner), &mut rng);
            let n = inner.n_vars();
            for trial in 0..20u64 {
                let inner_bits: Vec<bool> = (0..n).map(|i| mix(trial, i as u64) & 1 == 1).collect();
                let mut bits = vec![false; n];
                for (i, &b) in inner_bits.iter().enumerate() {
                    bits[copy.perm[i]] = b;
                }
                assert_eq!(copy.decode(&bits), inner.decode(&inner_bits));
                let energy = copy.to_qubo().energy(&bits);
                let expect = inner.to_qubo().energy(&inner_bits);
                assert!((energy - expect).abs() <= 1e-9 * expect.abs().max(1.0));
                assert_eq!(copy.to_inner(&copy.repair(&bits)), inner.repair(&inner_bits));
            }
            assert_eq!(copy.name(), inner.name());
        }
    }

    #[test]
    fn gate_instances_fit_the_simulators() {
        let inputs = Inputs::gate_model(3);
        for job in inputs.stream().take(500) {
            let n = inputs.problem(&job).n_vars();
            match job.route {
                Route::Pinned(GROVER) => assert!(n <= GATE_MAX_VARS),
                _ => assert!(n <= GATE_SMALL_VARS),
            }
        }
    }
}
