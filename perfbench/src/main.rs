//! End-to-end benchmark of the qdm solver service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed_miss|hot_repeat|cluster|gate_model> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the public `qdm_runtime` API with generated Table I problems,
//! checks every answer, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced run
//! reports the per-layer ones and prints a layer table to stderr. Exits
//! non-zero if any check fails. See `perfbench/README.md`.

mod check;
mod gen;
mod harness;
mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Run, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag takes a value") };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "need a known --workload, a numeric --seed, positive --seconds and --trace 0|1",
        );
    };
    // Service worker threads equal the machine's cores, set explicitly.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    harness::epoch();
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        workers,
        journal_root: PathBuf::from(".bench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    };
    let outcome = workloads::run(&run);
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{name:<52} {value:>14.6} {unit}");
    }
    for msg in &outcome.violations.first {
        eprintln!("check failed: {msg}");
    }
    let correct = outcome.violations.ok();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} check(s) failed", outcome.violations.count);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> =
            workloads::END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layers::metric_names().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are unique");
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let mut names: Vec<String> =
            workloads::END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layers::metric_names().into_iter().map(|(n, _)| n));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
