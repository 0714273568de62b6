//! The repository benchmark (see `README.md` beside this crate).
//!
//! ```text
//! move-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! move-benchmark compare --a FILE... --b FILE...
//! move-benchmark manifest
//! ```
//!
//! A run prints every metric by name with its unit, the counts that must
//! repeat exactly for a fixed seed, and — as the last line of standard
//! output — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is non-zero when the run is not correct.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod inputs;
mod live;
mod metrics;
mod plan;
mod replay;
mod stats;
mod trace;
mod tracker;

use inputs::Inputs;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use plan::{Mode, PhaseKind, HI_WINDOW};
use std::process::ExitCode;
use trace::{Clock, SpanLog};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: plan::REFERENCE_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.clamp(1, 600),
            "--trace" => out.trace = number(value()?)? != 0,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&str, f64)],
    defs: &[MetricDef],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .zip(defs)
        .map(|((name, v), def)| {
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = plan::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = plan::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}`; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let mode = match (args.smoke, args.trace) {
        (true, _) => Mode::Smoke,
        (false, true) => Mode::Traced,
        (false, false) => Mode::Full,
    };
    println!(
        "run workload={} seed={} seconds={} trace={} mode={mode:?} hw_threads={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::hw_threads()
    );
    let inputs = Inputs::generate(spec, args.seed, args.seconds, mode);
    let r = inputs.system.refresh_every_docs;
    if r <= HI_WINDOW {
        return Err(format!(
            "refresh_every_docs = {r} is too short for the {HI_WINDOW}-document latency windows"
        ));
    }
    println!(
        "inputs digest={:016x} filters={} cycle_docs={} stream_docs={} R={r} gen_s={:.3} doc_terms_mean={:.2} matches_per_doc_mean={:.2} max_filter_term={}",
        inputs.digest,
        inputs.filters.len(),
        inputs.cycle_len(),
        inputs.plan.stream_docs(),
        inputs.gen_s,
        inputs.doc_terms_mean,
        inputs.matches_per_doc_mean,
        inputs.filters.iter().flat_map(|f| f.terms()).map(|t| t.0).max().unwrap_or(0)
    );

    let mut spans = args.trace.then(|| SpanLog::with_capacity(1 << 20));
    let live = live::run(&inputs, spans.as_mut())?;
    let report = &live.report;
    let tap = &live.tap;

    // The oracle.
    let timed_docs: u64 = inputs.plan.of(PhaseKind::timed).map(|p| p.docs).sum();
    let attempted = inputs.attempted();
    let expected_post_union: u64 = inputs.expect.count.iter().map(|&c| u64::from(c)).sum();
    let (mut correct, failed) = tap.verdict(
        expected_post_union,
        report.tasks_shed + report.tasks_lost,
        live.tap_caught_up,
        attempted,
    );

    let (values, defs): (Vec<(&str, f64)>, &[MetricDef]) = match spans.as_mut() {
        None => (metrics::end_to_end(&inputs, &live), &END_TO_END),
        Some(spans) => {
            let replay = replay::run(&inputs, &Clock::start(), spans);
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.json", spec.name));
            spans
                .write_json(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("trace spans={} file={}", spans.spans.len(), path.display());
            for (name, count, total, own) in spans.by_name() {
                println!(
                    "span {name:<24} n={count:<8} total_ms={:<12.3} self_ms={:.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
            (metrics::per_layer(&inputs, &live, &replay), &PER_LAYER)
        }
    };
    if !values.iter().map(|v| v.0).eq(defs.iter().map(|d| d.name)) {
        return Err("emitted metric names differ from the metric table".into());
    }
    if values.iter().any(|(_, v)| !v.is_finite()) {
        correct = false;
    }

    // Timings, each with the sample count behind it.
    let lo_samples: usize = live.lo_windows(&inputs).iter().map(Vec::len).sum();
    let hi_samples: usize = live.hi_windows(&inputs).iter().map(Vec::len).sum();
    let rates: Vec<String> = live
        .segments
        .iter()
        .map(|s| format!("{:.0}{}", s.rate(), if s.traced { "t" } else { "" }))
        .collect();
    println!(
        "setup runs={:?} s; last: register_s={:.3} observe_ms={:.1} allocate_ms={:.1} engine_start_ms={:.1}",
        live.setup_s,
        live.build.register_s,
        live.build.observe_ms,
        live.build.allocate_ms,
        live.engine_start_ms.last().copied().unwrap_or(0.0)
    );
    println!(
        "samples setups={} sat_segments={} [{}] docs/s",
        live.setup_s.len(),
        live.segments.len(),
        rates.join(" ")
    );
    let ctl: Vec<String> = live
        .control
        .iter()
        .map(|&(ops, ns)| format!("{:.0}", ops as f64 * 1e9 / ns.max(1) as f64))
        .collect();
    println!(
        "samples ctl_segments={} [{}] ops/s, first skipped",
        live.control.len(),
        ctl.join(" ")
    );
    println!(
        "samples lat_lo={lo_samples} in {} windows  lat_hi={hi_samples} in {} windows  ctl_segments={}  checked_docs={}",
        inputs.plan.lo_windows,
        inputs.plan.hi_windows,
        live.control.len(),
        tap.checked
    );
    println!(
        "pacer lag_lo_p99_us={:.1} lag_hi_p99_us={:.1} backlog_growth_hi={:.3} in_flight_hwm={}",
        metrics::p99_us(&live.lo.log.lag_ns),
        metrics::p99_us(&live.hi.log.lag_ns),
        metrics::backlog_growth(&live.hi),
        tap.in_flight_hwm
    );
    println!(
        "host cal_ms_p50={:.3} cal_spread_pct={:.1} own_rss_mb={:.1} peak_rss_mb={:.1}",
        stats::median(&live.cal_ms),
        stats::iqr_share(&live.cal_ms) * 100.0,
        live.own_rss_mb,
        live.peak_rss_mb
    );
    for ((name, v), def) in values.iter().zip(defs) {
        println!("metric {name:<34} {v:>16.4} {}", def.unit);
    }
    // Counts that repeat exactly for a fixed seed and --seconds: a run
    // that drifts here is recognisable before its timings are read.
    println!(
        "exact digest={:016x} attempted={attempted} timed_docs={timed_docs} tasks_per_doc={:.6} postings_per_doc={:.6} deliveries_pre_union={} deliveries_post_union={} allocation_updates={} refresh_periods={} bytes_per_filter={:.6}",
        inputs.digest,
        report.tasks_dispatched as f64 / report.docs_published.max(1) as f64,
        report.postings_scanned() as f64 / report.docs_published.max(1) as f64,
        report.deliveries(),
        tap.ids_post_union,
        report.allocation_updates,
        report.docs_published / r,
        (live.posting_bytes + live.aggregation_bytes) as f64 / inputs.filters.len().max(1) as f64
    );
    println!(
        "oracle correct={correct} failed={failed} failed_share={:.6} incomplete={} overdelivered={} mismatched={} checked={} expected_post_union={expected_post_union} tap_messages={} tap_pre_union={} late_ids={} shed={} lost={} tap_caught_up={}",
        failed as f64 / attempted.max(1) as f64,
        tap.incomplete,
        tap.overdelivered,
        tap.mismatched,
        tap.checked,
        tap.messages,
        tap.ids_pre_union,
        tap.late_ids,
        report.tasks_shed,
        report.tasks_lost,
        live.tap_caught_up
    );
    println!("{}", json_line(correct, attempted, failed, &values, defs));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => ExitCode::from(compare::run(&args[1..])),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        _ => match parse(&args).and_then(|a| run(&a)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("move-benchmark: {e}");
                ExitCode::from(2)
            }
        },
    }
}
