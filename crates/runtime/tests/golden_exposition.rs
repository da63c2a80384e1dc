//! Golden exposition: a fully populated `RuntimeReport` — every scalar
//! distinct and non-zero, both latency histograms, per-backend jobs and
//! race wins, two telemetry rows — rendered standalone, shard-tagged, and
//! merged across two shards must match `golden/runtime_report.txt` byte for
//! byte, through both `render_prometheus()` and `Display`.

use qdm_runtime::metrics::BackendTelemetry;
use qdm_runtime::prelude::*;

fn times(n: u64, f: impl Fn()) {
    for _ in 0..n {
        f();
    }
}

fn telemetry(backend: &str, observations: u64, scale: f64) -> BackendTelemetry {
    BackendTelemetry {
        backend: backend.to_string(),
        observations,
        ewma_latency_seconds: 0.0015 * scale,
        ewma_quality: 0.125 * scale,
        race_entries: observations + 1,
        race_wins: observations / 2,
        predicted_seconds: 0.002 * scale,
        estimation_error_factor: 1.0 + 0.25 * scale,
    }
}

/// The main report. Every scalar gets its own value, so a series wired to
/// the wrong field shows up as a changed number.
fn populated() -> RuntimeReport {
    let m = Metrics::new();
    m.on_submit(40);
    times(5, || m.on_cache_hit());
    m.on_solved("tabu", 0.001);
    m.on_solved("tabu", 0.004);
    m.on_solved("simulated-annealing", 3e-6);
    m.on_solved("exact", 0.25);
    times(3, || m.on_coalesced_served());
    m.on_completion_converted_to_cancel();
    times(8, || m.on_failed());
    m.on_failure_converted_to_cancel();
    times(6, || m.on_cancelled());
    times(10, || m.on_coalesced());
    m.on_coalesce_abandoned();
    times(15, || m.on_enqueue());
    times(2, || m.on_dequeue());
    times(3, || m.on_backpressure_rejection());
    times(2, || m.on_backpressure_wait());
    for served in [3e-6, 5e-6, 0.001, 0.0042, 0.26] {
        m.on_served(served);
    }
    m.on_compile_shared(0.001, 4);
    times(5, || m.on_race("tabu"));
    times(3, || m.on_race("simulated-annealing"));
    m.on_race_participant_time(0.002);
    m.on_race_participant_time(0.0005);
    times(16, || m.on_admitted());
    times(17, || m.on_shed());
    times(18, || m.on_migrated());
    times(19, || m.on_retried());
    times(20, || m.on_retries_exhausted());
    times(21, || m.on_deadline_exceeded());
    times(22, || m.on_breaker_opened());
    times(23, || m.on_breaker_half_opened());
    times(24, || m.on_breaker_closed());
    times(25, || m.on_failover());
    times(26, || m.on_recovered());
    m.on_snapshot_saved(27);
    m.on_snapshot_loaded(28);
    let mut r = m.report();
    r.traces_recorded = 29;
    r.traces_dropped = 30;
    r.queue_backlog_seconds = 1.25;
    r.backend_telemetry = vec![telemetry("simulated-annealing", 3, 1.0), telemetry("tabu", 7, 2.0)];
    r
}

/// A smaller second shard for the merge: overlapping backends, so tables
/// sum by name and telemetry folds by observation weight.
fn second_shard() -> RuntimeReport {
    let m = Metrics::new();
    m.on_submit(3);
    m.on_cache_hit();
    m.on_solved("tabu", 0.002);
    m.on_solved("qaoa", 0.03);
    m.on_served(0.002);
    m.on_served(0.031);
    m.on_race("tabu");
    m.on_race_participant_time(0.001);
    m.on_enqueue();
    m.on_admitted();
    m.on_shed();
    let mut r = m.report();
    r.traces_recorded = 2;
    r.queue_backlog_seconds = 0.5;
    r.backend_telemetry = vec![telemetry("qaoa", 1, 3.0), telemetry("tabu", 1, 4.0)];
    r
}

fn render_all() -> String {
    let standalone = populated();
    let mut shard = standalone.clone();
    shard.shard = Some(2);
    let mut shard0 = standalone.clone();
    shard0.shard = Some(0);
    let mut shard1 = second_shard();
    shard1.shard = Some(1);
    let merged = RuntimeReport::merge([&shard0, &shard1]);

    let mut out = String::new();
    for (label, report) in [("standalone", &standalone), ("shard 2", &shard), ("merged", &merged)] {
        out.push_str(&format!("=== {label}: render_prometheus ===\n"));
        out.push_str(&report.render_prometheus());
        out.push_str(&format!("=== {label}: Display ===\n"));
        out.push_str(&report.to_string());
    }
    out
}

#[test]
fn populated_reports_render_the_golden_exposition() {
    let expected = include_str!("golden/runtime_report.txt");
    let actual = render_all();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "first difference on golden line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "{actual}");
    assert_eq!(actual, expected, "trailing whitespace or newline differs");
}
