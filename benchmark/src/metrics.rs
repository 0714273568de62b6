//! The metric tables (the source `BENCHMARK.json` is generated from) and
//! the arithmetic that turns a run's raw measurements into them.

use crate::host;
use crate::inputs::Inputs;
use crate::live::{LiveResult, Paced};
use crate::plan::{REFERENCE_SECONDS, WORKLOADS};
use crate::replay::ReplayResult;
use crate::stats::{iqr_share, median, percentile_sorted, windowed};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by the untraced run.
///
/// The control phase's `ctl_ops_per_s` is *not* here: its rate settles,
/// per run, into one of several modes 10–20 % apart (same seed, same
/// host, every segment of the run alike), so ten runs spread 7–19 % and no
/// bound up to the allowed 25 % leaves the required margin. It is reported
/// per layer as `runtime.ctl_ops_per_s`; registration cost is gated end to
/// end by `setup_s` (bulk) and by `move_churn/sat_docs_per_s` (beside
/// reads).
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sat_docs_per_s", "docs/s", Higher, 0.25),
    e2e("lat_lo_p50_us", "us", Lower, 0.10),
    e2e("lat_hi_p50_us", "us", Lower, 0.15),
    e2e("lat_hi_p99_us", "us", Lower, 0.25),
    e2e("bytes_per_filter", "B", Lower, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single-layer numbers; printed by the traced run. The layer is the
/// crate name (`loadgen`, `workload`, `host`, `trace` are the benchmark's
/// own).
pub const PER_LAYER: [MetricDef; 63] = [
    layer("bloom.contains_ns", "ns", Lower),
    layer("bloom.positive_share", "share", Lower),
    layer("bloom.probes_per_doc", "count", Lower),
    layer("cluster.home_of_term_ns", "ns", Lower),
    layer("cluster.lookups_per_doc", "count", Lower),
    layer("core.route_us_per_doc", "us", Lower),
    layer("core.route_steps_per_doc", "count", Lower),
    layer("core.routing_view_ms", "ms", Lower),
    layer("core.allocate_ms", "ms", Lower),
    layer("core.observe_corpus_ms", "ms", Lower),
    layer("core.sim_docs_per_s", "docs/s", Higher),
    layer("core.sim_publish_p50_us", "us", Lower),
    layer("core.storage_max_over_mean", "ratio", Lower),
    layer("core.match_load_max_over_mean", "ratio", Lower),
    layer("index.match_us_per_doc", "us", Lower),
    layer("index.match_ns_per_posting", "ns", Lower),
    layer("index.postings_per_doc", "count", Lower),
    layer("index.lists_per_doc", "count", Lower),
    layer("index.sort_dedup_ns_per_id", "ns", Lower),
    layer("index.fanout_expand_ns_per_id", "ns", Lower),
    layer("index.fanout_ratio", "ratio", Lower),
    layer("index.insert_us", "us", Lower),
    layer("index.remove_us", "us", Lower),
    layer("index.aggregate_register_us", "us", Lower),
    layer("index.aggregate_unregister_us", "us", Lower),
    layer("index.canonical_hit_rate", "share", Higher),
    layer("index.posting_bytes", "B", Lower),
    layer("index.aggregation_bytes", "B", Lower),
    layer("transport.roundtrip_ns", "ns", Lower),
    layer("transport.send_recv_ns", "ns", Lower),
    layer("runtime.engine_start_ms", "ms", Lower),
    layer("runtime.tasks_per_doc", "count", Lower),
    layer("runtime.msgs_per_doc_sat", "count", Lower),
    layer("runtime.msgs_per_doc_hi", "count", Lower),
    layer("runtime.batch_limit_hwm", "count", Higher),
    layer("runtime.queue_depth_hwm", "count", Lower),
    layer("runtime.overhead_lo_us", "us", Lower),
    layer("runtime.overhead_hi_us", "us", Lower),
    layer("runtime.refresh_stall_ms", "ms", Lower),
    layer("runtime.allocation_updates", "count", Lower),
    layer("runtime.publish_block_hi_p99_us", "us", Lower),
    layer("runtime.stats_barrier_us", "us", Lower),
    layer("runtime.ctl_ops_per_s", "ops/s", Higher),
    layer("runtime.cpu_us_per_doc_sat", "us", Lower),
    layer("runtime.cpu_us_per_doc_hi", "us", Lower),
    layer("runtime.shed", "count", Lower),
    layer("runtime.lost", "count", Lower),
    layer("runtime.deliveries_pre_union", "count", Lower),
    layer("runtime.deliveries_post_union", "count", Higher),
    layer("loadgen.lag_lo_p99_us", "us", Lower),
    layer("loadgen.lag_hi_p99_us", "us", Lower),
    layer("loadgen.achieved_lo_per_s", "docs/s", Higher),
    layer("loadgen.achieved_hi_per_s", "docs/s", Higher),
    layer("loadgen.backlog_growth_hi", "ratio", Lower),
    layer("loadgen.sat_seg_iqr_pct", "%", Lower),
    layer("loadgen.own_rss_mb", "MB", Lower),
    layer("workload.gen_s", "s", Lower),
    layer("workload.doc_terms_mean", "count", Lower),
    layer("workload.matches_per_doc_mean", "count", Lower),
    layer("host.hw_threads", "count", Higher),
    layer("host.cal_ms_p50", "ms", Lower),
    layer("host.cal_spread_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {REFERENCE_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Saturated rates (docs/s) of the traced or the untraced segments.
pub fn segment_rates(live: &LiveResult, traced: bool) -> Vec<f64> {
    live.segments
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.rate())
        .collect()
}

/// Control rates (ops/s) of every control segment but the first.
pub fn control_rates(live: &LiveResult) -> Vec<f64> {
    let skip = usize::from(live.control.len() > 1);
    live.control
        .iter()
        .skip(skip)
        .map(|&(ops, ns)| ops as f64 * 1e9 / ns.max(1) as f64)
        .collect()
}

/// The end-to-end metrics of a run, in table order.
pub fn end_to_end(inputs: &Inputs, live: &LiveResult) -> Vec<(&'static str, f64)> {
    let mut lo = live.lo_windows(inputs);
    let mut hi = live.hi_windows(inputs);
    let subscribers = inputs.filters.len().max(1) as f64;
    vec![
        ("setup_s", median(&live.setup_s)),
        ("sat_docs_per_s", median(&segment_rates(live, false))),
        ("lat_lo_p50_us", windowed(&mut lo, 0.50) / 1e3),
        ("lat_hi_p50_us", windowed(&mut hi, 0.50) / 1e3),
        ("lat_hi_p99_us", windowed(&mut hi, 0.99) / 1e3),
        (
            "bytes_per_filter",
            (live.posting_bytes + live.aggregation_bytes) as f64 / subscribers,
        ),
        ("peak_rss_mb", live.peak_rss_mb),
    ]
}

/// 99th percentile of ns samples, in µs.
pub fn p99_us(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile_sorted(&s, 0.99) as f64 / 1e3
}

fn achieved_per_s(phase: &Paced) -> f64 {
    let sent = |k: usize| phase.log.intended_ns[k] + phase.log.lag_ns[k];
    let n = phase.log.intended_ns.len();
    if n < 2 {
        return 0.0;
    }
    (n - 1) as f64 * 1e9 / (sent(n - 1) - sent(0)).max(1) as f64
}

/// Backlog growth of a paced phase: mean in-flight over its last quarter
/// against its second quarter (plus one each: at 2–5 documents in flight
/// a plain ratio is mostly rounding). Above 1.1 the rate is not sustained.
pub fn backlog_growth(phase: &Paced) -> f64 {
    (phase.in_flight_end + 1.0) / (phase.in_flight_mid + 1.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, in table order.
pub fn per_layer(
    inputs: &Inputs,
    live: &LiveResult,
    replay: &ReplayResult,
) -> Vec<(&'static str, f64)> {
    let docs = replay.docs.max(1);
    let per_doc = |total: u64| total as f64 / docs as f64;
    let mut lo = live.lo_windows(inputs);
    let mut hi = live.hi_windows(inputs);
    let lat_lo_p50 = windowed(&mut lo, 0.50) / 1e3;
    let lat_hi_p50 = windowed(&mut hi, 0.50) / 1e3;
    let mut critical = replay.critical_ns.clone();
    critical.sort_unstable();
    let critical_p50_us = percentile_sorted(&critical, 0.5) as f64 / 1e3;
    let mut sim = replay.sim_publish_ns.clone();
    sim.sort_unstable();
    let sim_total_s = sim.iter().sum::<u64>() as f64 / 1e9;
    let report = &live.report;
    let untraced = segment_rates(live, false);
    let traced = segment_rates(live, true);
    let (sat_docs, sat_msgs, sat_cpu) = live
        .segments
        .iter()
        .fold((0u64, 0u64, 0.0), |(d, m, c), s| {
            (d + s.docs, m + s.messages, c + s.cpu_us)
        });
    let hi_docs = live.hi.log.intended_ns.len() as u64;
    let overhead_pct = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (1.0 - median(&traced) / median(&untraced)) * 100.0
    };
    vec![
        ("bloom.contains_ns", ratio(replay.bloom.2, replay.bloom.0)),
        (
            "bloom.positive_share",
            ratio(replay.bloom.1, replay.bloom.0),
        ),
        ("bloom.probes_per_doc", per_doc(replay.bloom.0)),
        (
            "cluster.home_of_term_ns",
            ratio(replay.ring.1, replay.ring.0),
        ),
        ("cluster.lookups_per_doc", per_doc(replay.ring.0)),
        ("core.route_us_per_doc", per_doc(replay.route.1) / 1e3),
        ("core.route_steps_per_doc", per_doc(replay.route.0)),
        ("core.routing_view_ms", replay.routing_view_ms),
        ("core.allocate_ms", replay.build.allocate_ms),
        ("core.observe_corpus_ms", replay.build.observe_ms),
        ("core.sim_docs_per_s", docs as f64 / sim_total_s.max(1e-9)),
        (
            "core.sim_publish_p50_us",
            percentile_sorted(&sim, 0.5) as f64 / 1e3,
        ),
        ("core.storage_max_over_mean", replay.storage_max_over_mean),
        (
            "core.match_load_max_over_mean",
            replay.match_load_max_over_mean,
        ),
        ("index.match_us_per_doc", per_doc(replay.matching.2) / 1e3),
        (
            "index.match_ns_per_posting",
            ratio(replay.matching.2, replay.matching.1),
        ),
        ("index.postings_per_doc", per_doc(replay.matching.1)),
        ("index.lists_per_doc", per_doc(replay.matching.0)),
        (
            "index.sort_dedup_ns_per_id",
            ratio(replay.sort_dedup.1, replay.sort_dedup.0),
        ),
        (
            "index.fanout_expand_ns_per_id",
            ratio(replay.fanout.2, replay.fanout.1),
        ),
        (
            "index.fanout_ratio",
            ratio(replay.fanout.1, replay.fanout.0),
        ),
        ("index.insert_us", replay.index_insert_us),
        ("index.remove_us", replay.index_remove_us),
        ("index.aggregate_register_us", replay.aggregate_register_us),
        (
            "index.aggregate_unregister_us",
            replay.aggregate_unregister_us,
        ),
        (
            "index.canonical_hit_rate",
            ratio(report.canonical_hits, report.registrations),
        ),
        ("index.posting_bytes", replay.bytes.0 as f64),
        ("index.aggregation_bytes", replay.bytes.1 as f64),
        ("transport.roundtrip_ns", replay.roundtrip_ns),
        ("transport.send_recv_ns", replay.send_recv_ns),
        ("runtime.engine_start_ms", median(&live.engine_start_ms)),
        (
            "runtime.tasks_per_doc",
            ratio(report.tasks_dispatched, report.docs_published),
        ),
        ("runtime.msgs_per_doc_sat", ratio(sat_msgs, sat_docs)),
        ("runtime.msgs_per_doc_hi", ratio(live.hi.messages, hi_docs)),
        ("runtime.batch_limit_hwm", report.batch_limit_hwm as f64),
        (
            "runtime.queue_depth_hwm",
            report
                .nodes
                .iter()
                .map(|n| n.queue_depth_hwm)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("runtime.overhead_lo_us", lat_lo_p50 - critical_p50_us),
        ("runtime.overhead_hi_us", lat_hi_p50 - critical_p50_us),
        (
            "runtime.refresh_stall_ms",
            median(&live.segment_stalls_ms()),
        ),
        (
            "runtime.allocation_updates",
            report.allocation_updates as f64,
        ),
        ("runtime.publish_block_hi_p99_us", p99_us(&live.hi.call_ns)),
        ("runtime.stats_barrier_us", median(&live.stats_barrier_us)),
        ("runtime.ctl_ops_per_s", median(&control_rates(live))),
        (
            "runtime.cpu_us_per_doc_sat",
            sat_cpu / sat_docs.max(1) as f64,
        ),
        (
            "runtime.cpu_us_per_doc_hi",
            live.hi.cpu_us / hi_docs.max(1) as f64,
        ),
        ("runtime.shed", report.tasks_shed as f64),
        ("runtime.lost", report.tasks_lost as f64),
        ("runtime.deliveries_pre_union", report.deliveries() as f64),
        (
            "runtime.deliveries_post_union",
            live.tap.ids_post_union as f64,
        ),
        ("loadgen.lag_lo_p99_us", p99_us(&live.lo.log.lag_ns)),
        ("loadgen.lag_hi_p99_us", p99_us(&live.hi.log.lag_ns)),
        ("loadgen.achieved_lo_per_s", achieved_per_s(&live.lo)),
        ("loadgen.achieved_hi_per_s", achieved_per_s(&live.hi)),
        ("loadgen.backlog_growth_hi", backlog_growth(&live.hi)),
        ("loadgen.sat_seg_iqr_pct", iqr_share(&untraced) * 100.0),
        ("loadgen.own_rss_mb", live.own_rss_mb),
        ("workload.gen_s", inputs.gen_s),
        ("workload.doc_terms_mean", inputs.doc_terms_mean),
        ("workload.matches_per_doc_mean", inputs.matches_per_doc_mean),
        ("host.hw_threads", host::hw_threads() as f64),
        ("host.cal_ms_p50", median(&live.cal_ms)),
        ("host.cal_spread_pct", iqr_share(&live.cal_ms) * 100.0),
        ("trace.overhead_pct", overhead_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names_of(v: &Value, key: &str) -> Vec<String> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("{key} missing from BENCHMARK.json");
        };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::String(s)) => s.clone(),
                _ => panic!("{key} entry without a name"),
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &all {
            assert!(!n.is_empty() && n.len() <= 64);
            assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `move-benchmark manifest`"
        );
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_of(&v, "end_to_end"), e2e);
        assert_eq!(names_of(&v, "per_layer"), layers);
        assert_eq!(names_of(&v, "workloads"), workloads);
        assert!(text.len() < 64 * 1024);
    }
}
