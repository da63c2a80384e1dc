//! Golden snapshot: a fixed cache content — assignments of 0, 3, 64, 65 and
//! 130 variables, pinned and portfolio backends, distinct options and seeds
//! — loaded into a service and saved back must serialize byte for byte to
//! `golden/solution_snapshot.hex`. The result cache may store its entries in
//! any form; the snapshot format it exports must not move without a
//! `JOURNAL_CODEC_VERSION` bump.

use qdm_core::pipeline::PipelineReport;
use qdm_core::problem::Decoded;
use qdm_runtime::prelude::*;

const GOLDEN: &str = include_str!("golden/solution_snapshot.hex");

/// One cached result for `problem`, `n` variables wide; every scalar is
/// derived from `n`, so a field written in the wrong place changes bytes.
fn entry(
    problem: &str,
    n: usize,
    options_bits: u8,
    seed: u64,
    backend: Option<&str>,
) -> (CacheKey, CachedResult) {
    let bits: Vec<bool> = (0..n).map(|i| (i * 7 + n).is_multiple_of(3)).collect();
    let canonical_bits: Vec<bool> = bits.iter().rev().copied().collect();
    let solver = backend.unwrap_or("simulated-annealing");
    let key = CacheKey {
        problem: problem.to_string(),
        qubo_fingerprint: 0x0123_4567_89AB_CDEF ^ (n as u64) << 40,
        options_bits,
        seed,
        backend: backend.map(str::to_string),
    };
    let report = PipelineReport {
        problem: problem.to_string(),
        solver: solver.to_string(),
        n_vars: n,
        max_subproblem_vars: n.saturating_sub(1),
        components: 1 + n % 4,
        presolve_fixed: n / 5,
        bits,
        energy: -1.5 * n as f64 + 0.125,
        decoded: Decoded {
            feasible: n % 2 == 1,
            objective: 3.25 * n as f64,
            summary: format!("{problem}: {n} variables"),
        },
        evaluations: 1000 + n as u64,
        seconds: 1e-3 * (n + 1) as f64,
    };
    (key, CachedResult { report, canonical_bits, backend: solver.to_string() })
}

fn fixed_snapshot() -> SolutionSnapshot {
    SolutionSnapshot {
        entries: vec![
            entry("mqo", 0, 0b000, 1, None),
            entry("join-order", 3, 0b001, 2, Some("tabu")),
            entry("schema-matching", 64, 0b010, 3, Some("simulated-quantum-annealing")),
            entry("txn-schedule", 65, 0b100, 4, None),
            entry("mqo", 130, 0b111, u64::MAX, Some("simulated-annealing-parallel")),
        ],
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

#[test]
fn snapshot_saved_from_the_cache_matches_the_golden_bytes() {
    let snapshot = fixed_snapshot();
    assert_eq!(hex(&snapshot.to_bytes()), GOLDEN, "the codec itself moved");

    // One shard (capacity below the sharding threshold) keeps insertion
    // order, so the export order is the fixture's.
    let service =
        SolverService::new(ServiceConfig { workers: 1, cache_capacity: 16, ..Default::default() });
    service.load_snapshot(&snapshot);
    let saved = service.save_snapshot();
    assert_eq!(saved.len(), snapshot.len());
    assert_eq!(hex(&saved.to_bytes()), GOLDEN, "the cache changed what it exports");

    let decoded = SolutionSnapshot::from_bytes(&snapshot.to_bytes()).expect("decodes");
    assert_eq!(hex(&decoded.to_bytes()), GOLDEN);
}
