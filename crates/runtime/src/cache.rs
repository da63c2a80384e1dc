//! The result cache: completed [`PipelineReport`]s keyed by a canonical
//! fingerprint of the *work*, so repeated submissions of the same encoding —
//! the common case when the same MQO or join-ordering instance arrives again
//! — are served without re-solving.
//!
//! The key combines the QUBO's permutation-invariant canonical fingerprint
//! ([`qdm_qubo::model::QuboModel::canonical_fingerprint`]) with the pipeline
//! options, the job seed, and the requested backend, so even the same
//! instance encoded with its variables enumerated in a different order hits.
//! Entries store the solved assignment in *canonical* variable order
//! ([`CachedResult::canonical_bits`]); the service translates it back into
//! the requester's labeling on every hit. Under fixed seeds every pipeline
//! stage is deterministic, so an identically-labeled hit returns a
//! **bit-identical** report to what re-solving would have produced; the
//! cache trades memory for latency without changing any observable result.
//!
//! Storage is sharded: `min(capacity, MAX_SHARDS)` independently locked
//! shards selected by the canonical fingerprint, so concurrent workers
//! rarely contend on the same mutex at high worker counts. Each shard
//! evicts independently with a **second-chance (CLOCK)** policy: every
//! entry carries a referenced bit that hits set; the eviction hand clears
//! set bits as it sweeps and evicts the first entry it finds unreferenced.
//! A hot fingerprint that keeps hitting therefore survives churn that plain
//! FIFO insertion order would have evicted it under, at FIFO's O(1) cost
//! and with none of LRU's per-hit list surgery. The per-shard capacities sum
//! to **exactly** the configured capacity (the division remainder is spread
//! one entry each across the first shards), and the total never exceeds it.
//!
//! Entries are stored compactly: each key once (shared by the lookup map
//! and the ring), both assignments packed 64 bits to a word, the report's
//! problem name left to the key that already carries it, and the whole
//! entry behind an `Arc`, so a hit or a follower wake-up clones a pointer
//! rather than the report. [`CachedResult`] is the expanded form the public
//! API and [`crate::journal::SolutionSnapshot`] exchange.
//!
//! This module also hosts the `FlightTable`: the single-flight table keyed
//! by the same [`CacheKey`] the cache uses. Two concurrent submissions of
//! the same work both miss the cache (the entry only appears after the
//! first solve completes), and without coordination both would solve — the
//! thundering-herd re-solve. The service canonicalizes every job without
//! compiling, so the key is known before any compilation; the first arrival
//! leads (checks the cache, and only on a miss compiles and solves), and
//! every later arrival — exact or permuted duplicate alike — parks on the
//! leader's `Flight` and is served its published entry through
//! the same canonical-bit translation a cache hit uses.

use crate::service::JobError;
use crate::sync::{CondvarExt, LockExt};
use qdm_core::pipeline::{PipelineOptions, PipelineReport};
use qdm_core::problem::Decoded;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Upper bound on the number of independently locked cache shards.
pub const MAX_SHARDS: usize = 16;

/// Minimum capacity a shard is worth: small caches stay unsharded so
/// fingerprint collisions between a handful of entries cannot evict each
/// other prematurely.
pub const SHARD_MIN_CAPACITY: usize = 64;

/// Cache key: canonical work identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The problem's [`qdm_core::problem::DmProblem::name`]. Two different
    /// problem types can encode to coefficient-identical QUBOs while
    /// decoding/repairing differently; the name keeps their entries apart.
    pub problem: String,
    /// Permutation-invariant canonical QUBO fingerprint.
    pub qubo_fingerprint: u64,
    /// Pipeline options, packed (presolve | decompose<<1 | repair<<2).
    /// Priority is scheduling-only and deliberately excluded: a job's result
    /// is identical at every priority level.
    pub options_bits: u8,
    /// Per-job RNG seed.
    pub seed: u64,
    /// Requested backend name, or `None` for portfolio ("auto") routing.
    pub backend: Option<String>,
}

impl CacheKey {
    /// Builds a key from job parameters.
    pub fn new(
        problem: String,
        qubo_fingerprint: u64,
        options: &PipelineOptions,
        seed: u64,
        backend: Option<&str>,
    ) -> Self {
        Self {
            problem,
            qubo_fingerprint,
            options_bits: pack_options(options),
            seed,
            backend: backend.map(str::to_string),
        }
    }
}

/// Packs the result-affecting pipeline options into the byte cache keys
/// and journal records carry (priority is scheduling-only and excluded).
pub(crate) fn pack_options(options: &PipelineOptions) -> u8 {
    (options.presolve as u8) | ((options.decompose as u8) << 1) | ((options.repair as u8) << 2)
}

/// A cached completed job.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The full pipeline report as produced by the original solve (its
    /// `bits` are in the *original submitter's* variable order). Its
    /// `problem` is the key's: the cache stores the name once, in the key,
    /// and reads it back from there.
    pub report: PipelineReport,
    /// The solved assignment permuted into canonical variable order, so a
    /// hit from a permuted-but-identical encoding can translate it into its
    /// own labeling (`bits[i] = canonical_bits[perm[i]]`).
    pub canonical_bits: Vec<bool>,
    /// Name of the backend that produced it.
    pub backend: String,
}

/// An assignment packed 64 bits to a word, least significant bit first.
#[derive(Debug)]
struct PackedBits {
    len: usize,
    words: Box<[u64]>,
}

impl PackedBits {
    fn pack(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)].into_boxed_slice();
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= u64::from(b) << (i % 64);
        }
        Self { len: bits.len(), words }
    }

    fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn unpack(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// The compact form of a [`CachedResult`] the cache stores: the report
/// without its problem name (the key holds it), both assignments packed,
/// and boxed strings.
#[derive(Debug)]
pub(crate) struct CacheEntry {
    solver: Box<str>,
    backend: Box<str>,
    summary: Box<str>,
    bits: PackedBits,
    canonical_bits: PackedBits,
    n_vars: usize,
    max_subproblem_vars: usize,
    components: usize,
    presolve_fixed: usize,
    energy: f64,
    objective: f64,
    evaluations: u64,
    seconds: f64,
    feasible: bool,
}

impl CacheEntry {
    /// Compacts a solved report. `canonical_bits` is its assignment in
    /// canonical variable order; `report.problem` is dropped, since it
    /// equals the problem name of the key the entry is stored under.
    pub(crate) fn new(report: &PipelineReport, canonical_bits: &[bool], backend: &str) -> Self {
        Self {
            solver: report.solver.as_str().into(),
            backend: backend.into(),
            summary: report.decoded.summary.as_str().into(),
            bits: PackedBits::pack(&report.bits),
            canonical_bits: PackedBits::pack(canonical_bits),
            n_vars: report.n_vars,
            max_subproblem_vars: report.max_subproblem_vars,
            components: report.components,
            presolve_fixed: report.presolve_fixed,
            energy: report.energy,
            objective: report.decoded.objective,
            evaluations: report.evaluations,
            seconds: report.seconds,
            feasible: report.decoded.feasible,
        }
    }

    /// Canonical variable `c`'s value in the stored assignment.
    pub(crate) fn canonical_bit(&self, c: usize) -> bool {
        self.canonical_bits.get(c)
    }

    /// Name of the backend that produced the result.
    pub(crate) fn backend(&self) -> &str {
        &self.backend
    }

    /// The stored report, expanded, under the key's `problem` name.
    pub(crate) fn report(&self, problem: &str) -> PipelineReport {
        PipelineReport {
            problem: problem.to_string(),
            solver: self.solver.to_string(),
            n_vars: self.n_vars,
            max_subproblem_vars: self.max_subproblem_vars,
            components: self.components,
            presolve_fixed: self.presolve_fixed,
            bits: self.bits.unpack(),
            energy: self.energy,
            decoded: Decoded {
                feasible: self.feasible,
                objective: self.objective,
                summary: self.summary.to_string(),
            },
            evaluations: self.evaluations,
            seconds: self.seconds,
        }
    }

    fn to_result(&self, key: &CacheKey) -> CachedResult {
        CachedResult {
            report: self.report(&key.problem),
            canonical_bits: self.canonical_bits.unpack(),
            backend: self.backend.to_string(),
        }
    }
}

/// One ring slot of a shard's CLOCK: the entry plus its referenced bit. The
/// key is shared with the shard's map.
struct Slot {
    key: Arc<CacheKey>,
    value: Arc<CacheEntry>,
    referenced: bool,
}

struct CacheInner {
    /// Key → ring index of the live entry.
    map: HashMap<Arc<CacheKey>, usize>,
    /// The CLOCK ring, filled up to the shard capacity and then recycled in
    /// place (deterministic, no clocks-the-time-kind).
    ring: Vec<Slot>,
    /// Next ring position the eviction hand examines.
    hand: usize,
    /// This shard's entry budget. Shards differ by at most one entry so the
    /// budgets sum to exactly the configured cache capacity.
    capacity: usize,
}

impl CacheInner {
    /// Second-chance sweep: clears referenced bits until it lands on an
    /// unreferenced entry, evicts it, and returns its ring index for reuse.
    /// Terminates within two laps (after one lap every bit is clear).
    fn evict_one(&mut self) -> usize {
        loop {
            let h = self.hand;
            self.hand = (self.hand + 1) % self.ring.len();
            let slot = &mut self.ring[h];
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.map.remove(&slot.key);
                return h;
            }
        }
    }
}

/// A bounded, thread-safe result cache: fingerprint-sharded with per-shard
/// second-chance (CLOCK) eviction.
pub struct ResultCache {
    shards: Vec<Mutex<CacheInner>>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (at least 1). The shard
    /// count scales with capacity — one shard per [`SHARD_MIN_CAPACITY`]
    /// entries, capped at [`MAX_SHARDS`] — so the default service cache gets
    /// full sharding while tiny test caches keep single-FIFO semantics.
    /// The division remainder is distributed one entry each across the
    /// first `capacity % n_shards` shards, so the per-shard budgets sum to
    /// exactly `capacity` (a flat `capacity / n_shards` would silently
    /// shrink a 1000-entry cache to 990).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = (capacity / SHARD_MIN_CAPACITY).clamp(1, MAX_SHARDS);
        let base = capacity / n_shards;
        let remainder = capacity % n_shards;
        let shards = (0..n_shards)
            .map(|i| {
                Mutex::new(CacheInner {
                    map: HashMap::new(),
                    ring: Vec::new(),
                    hand: 0,
                    capacity: base + usize::from(i < remainder),
                })
            })
            .collect();
        Self { shards }
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry budget: the sum of per-shard capacities, exactly the
    /// `capacity` the cache was built with.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock_unpoisoned().capacity).sum()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<CacheInner> {
        &self.shards[(key.qubo_fingerprint as usize) % self.shards.len()]
    }

    /// Looks up a completed result, marking the entry referenced so the
    /// CLOCK hand grants it a second chance on its next sweep.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        self.lookup(key).map(|entry| entry.to_result(key))
    }

    /// [`Self::get`] without expanding the entry: a hit costs one `Arc`
    /// clone.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let mut inner = self.shard(key).lock_unpoisoned();
        let &slot = inner.map.get(key)?;
        inner.ring[slot].referenced = true;
        Some(Arc::clone(&inner.ring[slot].value))
    }

    /// Inserts a completed result, stored compactly (see the module docs).
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        let entry = CacheEntry::new(&value.report, &value.canonical_bits, &value.backend);
        self.insert_entry(key, Arc::new(entry));
    }

    /// Inserts a compact entry; when the shard is full the CLOCK hand
    /// evicts the first entry it finds whose referenced bit is clear
    /// (clearing set bits as it sweeps). New entries start unreferenced —
    /// they earn their second chance by being hit. First-writer-wins on
    /// races: a duplicate insert (two workers solving the same key
    /// concurrently) keeps the existing entry so later hits stay consistent
    /// with earlier responses.
    pub(crate) fn insert_entry(&self, key: CacheKey, value: Arc<CacheEntry>) {
        let mut inner = self.shard(&key).lock_unpoisoned();
        if inner.map.contains_key(&key) {
            return;
        }
        let key = Arc::new(key);
        let slot = Slot { key: Arc::clone(&key), value, referenced: false };
        let index = if inner.ring.len() < inner.capacity {
            inner.ring.push(slot);
            inner.ring.len() - 1
        } else {
            let index = inner.evict_one();
            inner.ring[index] = slot;
            index
        };
        inner.map.insert(key, index);
    }

    /// Number of live entries, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock_unpoisoned().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live `(key, result)` pair, in shard order then insertion/ring
    /// order — the export [`crate::journal::SolutionSnapshot`] serializes.
    /// A full-cache export expands every entry; snapshotting is expected at
    /// checkpoint cadence, not per job.
    pub fn entries(&self) -> Vec<(CacheKey, CachedResult)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let inner = shard.lock_unpoisoned();
            for slot in &inner.ring {
                out.push((CacheKey::clone(&slot.key), slot.value.to_result(&slot.key)));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Single-flight: in-flight duplicate suppression ahead of the cache.
// ---------------------------------------------------------------------------

/// How a follower's park resolved.
pub(crate) enum FlightResolution {
    /// The leader finished (solved or hit the cache); serve its result.
    Served(Arc<CacheEntry>),
    /// The leader failed deterministically (routing error); the duplicate
    /// would have failed identically.
    Failed(JobError),
    /// The leader disappeared without publishing (it panicked); the
    /// follower must retry from the top — it may become the new leader.
    Abandoned,
}

enum FlightState {
    Pending,
    /// Boxed: the output dwarfs the other variants and most flights spend
    /// their lifetime `Pending`.
    Done(Box<Result<Arc<CacheEntry>, JobError>>),
    Abandoned,
}

/// One in-flight solve: the completion cell duplicates park on.
pub(crate) struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { state: Mutex::new(FlightState::Pending), done: Condvar::new() }
    }

    /// Parks until the leader publishes or abandons.
    pub(crate) fn wait(&self) -> FlightResolution {
        let mut state = self.state.lock_unpoisoned();
        loop {
            match &*state {
                FlightState::Pending => state = self.done.wait_unpoisoned(state),
                FlightState::Done(outcome) => {
                    return match outcome.as_ref() {
                        Ok(output) => FlightResolution::Served(Arc::clone(output)),
                        Err(err) => FlightResolution::Failed(err.clone()),
                    }
                }
                FlightState::Abandoned => return FlightResolution::Abandoned,
            }
        }
    }

    fn publish(&self, state: FlightState) {
        *self.state.lock_unpoisoned() = state;
        self.done.notify_all();
    }
}

/// Whether a job leads its flight or coalesces onto an existing one.
pub(crate) enum FlightRole<'t> {
    /// First arrival: the caller checks the cache, solves on a miss, and
    /// then [`FlightLease::publish`]es either result (or drops the lease on
    /// panic, which wakes followers with [`FlightResolution::Abandoned`]).
    Leader(FlightLease<'t>),
    /// A leader is already solving this key: park on its flight.
    Follower(Arc<Flight>),
}

/// The in-flight table: at most one leader per [`CacheKey`].
pub(crate) struct FlightTable {
    map: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl FlightTable {
    pub(crate) fn new() -> Self {
        Self { map: Mutex::new(HashMap::new()) }
    }

    /// Registers the caller as the leader for `key`, or returns the
    /// existing in-flight [`Flight`] to park on.
    pub(crate) fn join_or_lead(&self, key: &CacheKey) -> FlightRole<'_> {
        let mut map = self.map.lock_unpoisoned();
        match map.entry(key.clone()) {
            Entry::Occupied(entry) => FlightRole::Follower(Arc::clone(entry.get())),
            Entry::Vacant(entry) => {
                let flight = Arc::new(Flight::new());
                entry.insert(Arc::clone(&flight));
                FlightRole::Leader(FlightLease {
                    table: self,
                    flight,
                    key: key.clone(),
                    resolved: false,
                })
            }
        }
    }
}

/// A leader's registration in the [`FlightTable`]. Publishing (or dropping,
/// for the panic path) removes the key and wakes all parked followers
/// exactly once.
pub(crate) struct FlightLease<'t> {
    table: &'t FlightTable,
    flight: Arc<Flight>,
    key: CacheKey,
    resolved: bool,
}

impl FlightLease<'_> {
    /// Publishes the flight's outcome to every parked follower and
    /// deregisters its key. Call *after* inserting a successful result into
    /// the cache, so a duplicate arriving post-deregistration hits the cache.
    pub(crate) fn publish(mut self, outcome: Result<Arc<CacheEntry>, JobError>) {
        self.resolve(FlightState::Done(Box::new(outcome)));
    }

    fn resolve(&mut self, state: FlightState) {
        if self.resolved {
            return;
        }
        self.resolved = true;
        self.table.map.lock_unpoisoned().remove(&self.key);
        self.flight.publish(state);
    }
}

impl Drop for FlightLease<'_> {
    /// A lease dropped without publishing means the leader panicked
    /// mid-solve: followers wake with [`FlightResolution::Abandoned`] and
    /// retry instead of parking forever.
    fn drop(&mut self) {
        self.resolve(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdm_core::problem::Decoded;

    /// A report tagged through its decode summary; its problem is the one
    /// [`key`] uses, as for every report the service caches.
    fn report(tag: &str) -> PipelineReport {
        PipelineReport {
            problem: "p".to_string(),
            solver: "exact".to_string(),
            n_vars: 2,
            max_subproblem_vars: 2,
            components: 1,
            presolve_fixed: 0,
            bits: vec![true, false],
            energy: -1.0,
            decoded: Decoded { feasible: true, objective: -1.0, summary: tag.into() },
            evaluations: 4,
            seconds: 0.0,
        }
    }

    fn entry(tag: &str, backend: &str) -> CachedResult {
        let report = report(tag);
        CachedResult { canonical_bits: report.bits.clone(), report, backend: backend.into() }
    }

    fn key(fp: u64) -> CacheKey {
        CacheKey::new("p".into(), fp, &PipelineOptions::default(), 7, None)
    }

    #[test]
    fn hit_returns_inserted_report() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), entry("a", "exact"));
        let hit = cache.get(&key(1)).expect("hit");
        assert_eq!(hit.report.decoded.summary, "a");
        assert_eq!(hit.backend, "exact");
        assert_eq!(hit.canonical_bits, vec![true, false]);
    }

    #[test]
    fn compact_entries_round_trip_every_field_at_word_boundaries() {
        let cache = ResultCache::new(16);
        for (fp, n) in [0usize, 1, 63, 64, 65, 130].into_iter().enumerate() {
            let bits: Vec<bool> = (0..n).map(|i| i.is_multiple_of(3) || i == n - 1).collect();
            let canonical_bits: Vec<bool> = bits.iter().rev().copied().collect();
            let value = CachedResult {
                report: PipelineReport {
                    solver: "tabu".into(),
                    n_vars: n,
                    max_subproblem_vars: n / 2,
                    components: 3,
                    presolve_fixed: 1,
                    bits,
                    energy: -2.5 - n as f64,
                    decoded: Decoded {
                        feasible: n.is_multiple_of(2),
                        objective: 0.1,
                        summary: "s".into(),
                    },
                    evaluations: 99 + n as u64,
                    seconds: 0.25,
                    ..report("r")
                },
                canonical_bits,
                backend: "tabu-pinned".into(),
            };
            cache.insert(key(fp as u64), value.clone());
            let hit = cache.get(&key(fp as u64)).expect("hit");
            assert_eq!(format!("{hit:?}"), format!("{value:?}"), "{n} bits");
        }
    }

    #[test]
    fn hits_share_the_stored_entry() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), entry("a", "exact"));
        let (a, b) = (cache.lookup(&key(1)).unwrap(), cache.lookup(&key(1)).unwrap());
        assert!(Arc::ptr_eq(&a, &b), "a hit clones a pointer, not the report");
        assert_eq!(a.backend(), "exact");
    }

    #[test]
    fn distinct_options_seeds_and_backends_do_not_collide() {
        let opts = PipelineOptions::default();
        let presolve = PipelineOptions { presolve: true, ..Default::default() };
        let a = CacheKey::new("mqo".into(), 1, &opts, 7, None);
        let b = CacheKey::new("mqo".into(), 1, &presolve, 7, None);
        let c = CacheKey::new("mqo".into(), 1, &opts, 8, None);
        let d = CacheKey::new("mqo".into(), 1, &opts, 7, Some("tabu"));
        let e = CacheKey::new("join".into(), 1, &opts, 7, None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e, "same QUBO, different problem type: distinct entries");
    }

    #[test]
    fn priority_does_not_split_cache_keys() {
        use qdm_core::pipeline::JobPriority;
        let normal = PipelineOptions::default();
        let high = PipelineOptions { priority: JobPriority::High, ..Default::default() };
        assert_eq!(
            CacheKey::new("mqo".into(), 1, &normal, 7, None),
            CacheKey::new("mqo".into(), 1, &high, 7, None),
            "priority is scheduling-only; results are identical across levels"
        );
    }

    #[test]
    fn clock_eviction_bounds_size() {
        let cache = ResultCache::new(2);
        assert_eq!(cache.shard_count(), 1, "tiny caches stay unsharded");
        for fp in 0..5u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_none(), "untouched entries evicted in insertion order");
        assert!(cache.get(&key(4)).is_some(), "newest entry retained");
    }

    #[test]
    fn hot_entry_survives_an_eviction_cycle_fifo_would_drop_it_in() {
        let cache = ResultCache::new(2);
        cache.insert(key(1), entry("hot", "e"));
        cache.insert(key(2), entry("cold", "e"));
        // The hot fingerprint keeps hitting; under FIFO that would not
        // matter — key(1) is the oldest insertion and the next insert would
        // evict it.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry("new", "e"));
        assert!(cache.get(&key(1)).is_some(), "second chance must spare the hot entry");
        assert!(cache.get(&key(2)).is_none(), "the unreferenced entry is evicted instead");
        assert!(cache.get(&key(3)).is_some());
        // The spared entry's second chance is spent: with no further hits it
        // is next out.
        cache.insert(key(4), entry("newer", "e"));
        assert!(cache.get(&key(1)).is_none(), "a second chance is not immortality");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharding_caps_at_max_shards_and_preserves_total_capacity() {
        let cache = ResultCache::new(1024);
        assert_eq!(cache.shard_count(), MAX_SHARDS);
        // 1024 entries spread over 16 shards of 64: nothing evicted yet.
        for fp in 0..1024u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1024);
        // One more per shard rolls the oldest of each shard out.
        for fp in 1024..1040u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1024, "total stays at capacity");
        for fp in 0..16u64 {
            assert!(cache.get(&key(fp)).is_none(), "fp {fp} was each shard's oldest");
        }
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), entry("first", "e"));
        cache.insert(key(1), entry("second", "e"));
        assert_eq!(cache.get(&key(1)).unwrap().report.decoded.summary, "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_exactly_the_configured_capacity() {
        // 1000 / 64 → 15 shards; a flat 1000/15 = 66 per shard would hold
        // only 990 entries. The remainder must be spread across shards.
        for capacity in [1, 2, 17, 63, 64, 100, 777, 1000, 1024, 4096, 4099] {
            let cache = ResultCache::new(capacity);
            assert_eq!(cache.capacity(), capacity, "capacity {capacity} must round-trip");
        }
    }

    #[test]
    fn a_1000_entry_cache_actually_holds_1000_entries() {
        let cache = ResultCache::new(1000);
        assert_eq!(cache.shard_count(), 15);
        for fp in 0..1000u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        // Sequential fingerprints land `fp % 15` and fill shard s with 67
        // entries for s < 10 and 66 for s ≥ 10 — exactly the remainder
        // distribution — so nothing may have been evicted.
        assert_eq!(cache.len(), 1000, "no entry of the first 1000 may be evicted");
        for fp in 1000..3000u64 {
            cache.insert(key(fp), entry("r", "e"));
        }
        assert_eq!(cache.len(), 1000, "the total stays pinned at capacity under churn");
    }

    #[test]
    fn flight_table_has_one_leader_per_key_and_reopens_after_publish() {
        let table = FlightTable::new();
        let lease = match table.join_or_lead(&key(7)) {
            FlightRole::Leader(lease) => lease,
            FlightRole::Follower(_) => panic!("first arrival must lead"),
        };
        let follower = match table.join_or_lead(&key(7)) {
            FlightRole::Follower(flight) => flight,
            FlightRole::Leader(_) => panic!("second arrival must coalesce"),
        };
        let led = entry("led", "e");
        lease.publish(Ok(Arc::new(CacheEntry::new(&led.report, &led.canonical_bits, "e"))));
        match follower.wait() {
            FlightResolution::Served(out) => assert_eq!(out.report("p").decoded.summary, "led"),
            _ => panic!("published flight must serve its followers"),
        }
        // The key is deregistered: the next arrival leads a fresh flight.
        assert!(matches!(table.join_or_lead(&key(7)), FlightRole::Leader(_)));
    }

    #[test]
    fn dropping_a_lease_without_publishing_abandons_followers() {
        let table = FlightTable::new();
        let lease = match table.join_or_lead(&key(9)) {
            FlightRole::Leader(lease) => lease,
            FlightRole::Follower(_) => panic!("first arrival must lead"),
        };
        let follower = match table.join_or_lead(&key(9)) {
            FlightRole::Follower(flight) => flight,
            FlightRole::Leader(_) => panic!("second arrival must coalesce"),
        };
        drop(lease); // the panic path: no publish
        assert!(matches!(follower.wait(), FlightResolution::Abandoned));
        assert!(matches!(table.join_or_lead(&key(9)), FlightRole::Leader(_)));
    }
}
