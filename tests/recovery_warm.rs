//! Warm restart from a persisted solution store, measured against the
//! process-wide compilation counter: a restarted cluster or standalone
//! service that loads its snapshots serves previously solved work **without
//! recompiling** — every job is fingerprinted with the compile-free
//! canonical form and hits the store before any compilation is attempted.
//!
//! Single `#[test]`, own binary: the compilation counter is global to the
//! process, so this is the only way to keep unrelated compilations out of
//! the measured delta (same discipline as `compile_once.rs`).

use qdm::prelude::*;
use qdm::qubo::compiled::compilation_count;
use qdm::qubo::model::QuboModel;
use qdm::qubo::penalty;
use std::sync::Arc;

struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("warm-pick-{}", self.costs.len())
    }
    fn n_vars(&self) -> usize {
        self.costs.len()
    }
    fn to_qubo(&self) -> QuboModel {
        let mut q = QuboModel::new(self.costs.len());
        for (i, &c) in self.costs.iter().enumerate() {
            q.add_linear(i, c);
        }
        let vars: Vec<usize> = (0..self.costs.len()).collect();
        let weight = penalty::penalty_weight(&q);
        penalty::exactly_one(&mut q, &vars, weight);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

fn pick(n: usize) -> SharedProblem {
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 3) % 7) as f64 + 0.75).collect() })
}

/// The two ways to run the runtime. Both must warm-restart without
/// compiling: the cluster canonicalizes at submit, the standalone service
/// on its worker, both with the compile-free canonical form.
enum Deployment {
    /// Two shards, one worker each.
    Cluster(Box<ClusterService>),
    /// One `SolverService`, one worker.
    Standalone(SolverService),
}

impl Deployment {
    fn start(clustered: bool) -> Self {
        let service = ServiceConfig { workers: 1, cache_capacity: 32, ..Default::default() };
        if clustered {
            Deployment::Cluster(Box::new(ClusterService::new(ClusterConfig {
                shards: 2,
                service,
                ..Default::default()
            })))
        } else {
            Deployment::Standalone(SolverService::new(service))
        }
    }

    fn run(&self, specs: Vec<JobSpec>) -> Vec<JobOutcome> {
        match self {
            Deployment::Cluster(cluster) => {
                let session = cluster.session("warm-tenant", SessionConfig::default());
                let handles: Vec<JobHandle> =
                    specs.into_iter().map(|spec| session.submit(spec).expect("admitted")).collect();
                handles.iter().map(JobHandle::wait).collect()
            }
            Deployment::Standalone(service) => service.run_batch(specs),
        }
    }

    fn save_snapshots(&self) -> Vec<SolutionSnapshot> {
        match self {
            Deployment::Cluster(cluster) => cluster.save_snapshots(),
            Deployment::Standalone(service) => vec![service.save_snapshot()],
        }
    }

    fn load_snapshots(&self, snapshots: &[SolutionSnapshot]) {
        match self {
            Deployment::Cluster(cluster) => cluster.load_snapshots(snapshots),
            Deployment::Standalone(service) => service.load_snapshot(&snapshots[0]),
        }
    }

    fn report(&self) -> RuntimeReport {
        match self {
            Deployment::Cluster(cluster) => cluster.report(),
            Deployment::Standalone(service) => service.report(),
        }
    }
}

#[test]
fn warm_restart_serves_snapshotted_work_without_recompiling() {
    let specs = || (0..4).map(|i| JobSpec::new(pick(4 + i), 900 + i as u64)).collect::<Vec<_>>();

    for (clustered, stores) in [(true, 2), (false, 1)] {
        // Cold deployment: solve everything once, then export the solution
        // stores (one per shard).
        let cold = Deployment::start(clustered);
        let mut expected = Vec::new();
        for outcome in cold.run(specs()) {
            let result = outcome.as_ref().expect("cold solve must succeed");
            assert!(!result.from_cache, "first sight of each job must be a real solve");
            expected.push((result.report.bits.clone(), result.report.energy));
        }
        let snapshots = cold.save_snapshots();
        assert_eq!(snapshots.len(), stores, "one snapshot per shard");
        assert_eq!(snapshots.iter().map(SolutionSnapshot::len).sum::<usize>(), 4);
        drop(cold);

        // Warm deployment: load the stores, then resubmit the identical
        // jobs. Every job is fingerprinted with `QuboModel::canonical_form`
        // (no compilation) and finds its result in the store — the compile
        // counter must not move at all.
        let warm = Deployment::start(clustered);
        warm.load_snapshots(&snapshots);
        let compiles_before = compilation_count();
        for (i, outcome) in warm.run(specs()).iter().enumerate() {
            let result = outcome.as_ref().expect("warm serve must succeed");
            assert!(result.from_cache, "job {i}: a snapshotted result must come from the store");
            assert_eq!(
                (result.report.bits.clone(), result.report.energy),
                expected[i],
                "job {i}: warm restart must be bit-identical to the cold solve"
            );
        }
        assert_eq!(
            compilation_count(),
            compiles_before,
            "serving from the restored store must not compile anything"
        );
        let report = warm.report();
        assert_eq!(report.jobs_completed, 4);
        assert_eq!(report.snapshot_loaded, 4, "all four restored entries are counted");
    }
}
