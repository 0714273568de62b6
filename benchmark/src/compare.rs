//! `compare`: two sets of captured runs, side by side, judged against the
//! benchmark's own bounds. It is the tool for the A/A criterion (two sets
//! of the same code must come out `unchanged`) and for every later claim.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;

/// Values of one side, keyed by `(workload, metric)`.
type Side = BTreeMap<(String, String), Vec<f64>>;

/// How side B stands against side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than A's own inter-quartile spread.
    Improved,
    /// Within the bound and within A's spread.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A's own spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `(q1, median, q3)` of side A (the parent).
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of side B (the change).
    pub b: (f64, f64, f64),
    /// A's inter-quartile range as a share of its median.
    pub spread: f64,
    /// How much *worse* B's median is, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B against A. Without a bound (per-layer metrics) nothing can
/// regress; the row still tells whether the medians moved beyond A's
/// spread.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let base = qa.1.abs().max(f64::MIN_POSITIVE);
    let spread = (qa.2 - qa.0) / base;
    let worse_by = match better {
        Better::Lower => (qb.1 - qa.1) / base,
        Better::Higher => (qa.1 - qb.1) / base,
    };
    let verdict = match bound {
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        _ if -worse_by > spread && worse_by < 0.0 => Verdict::Improved,
        _ => Verdict::Unchanged,
    };
    Row {
        a: qa,
        b: qb,
        spread,
        worse_by,
        verdict,
    }
}

/// Reads one captured run: the `run workload=…` header line the benchmark
/// prints, and the result object on the last line.
fn read_run(path: &str, into: &mut Side) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let workload = text
        .lines()
        .filter(|l| l.starts_with("run "))
        .flat_map(str::split_whitespace)
        .find_map(|tok| tok.strip_prefix("workload="))
        .ok_or_else(|| format!("{path}: no `run workload=` header"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let value = serde_json::parse_value(last).map_err(|e| format!("{path}: {e}"))?;
    if value.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{path}: run is not correct"));
    }
    let Some(Value::Object(metrics)) = value.get("metrics") else {
        return Err(format!("{path}: no metrics object"));
    };
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: {name} has no value"))?;
        into.entry((workload.to_string(), name.clone()))
            .or_default()
            .push(v);
    }
    Ok(())
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// `compare --a FILE... --b FILE...`; returns the process exit code:
/// 0 when nothing regressed, 1 otherwise, 2 on bad input.
pub fn run(args: &[String]) -> u8 {
    let (mut a, mut b) = (Side::new(), Side::new());
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--a" => side = Some(&mut a),
            "--b" => side = Some(&mut b),
            path => {
                let Some(side) = side.as_deref_mut() else {
                    eprintln!("usage: compare --a FILE... --b FILE...");
                    return 2;
                };
                if let Err(e) = read_run(path, side) {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
    }
    if a.is_empty() || b.is_empty() {
        eprintln!("usage: compare --a FILE... --b FILE...  (captured stdout of runs)");
        return 2;
    }
    println!(
        "{:<44} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload/metric",
        "n",
        "a.q1",
        "a.median",
        "a.q3",
        "b.q1",
        "b.median",
        "b.q3",
        "a.iqr%",
        "worse%",
        "bound%"
    );
    let mut regressed = 0;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(def) = def_of(metric) else {
            continue;
        };
        let row = judge(va, vb, def.better, def.bound);
        regressed += usize::from(row.verdict == Verdict::Regressed);
        println!(
            "{:<44} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>6}  {}",
            format!("{workload}/{metric}"),
            va.len().min(vb.len()),
            row.a.0,
            row.a.1,
            row.a.2,
            row.b.0,
            row.b.1,
            row.b.2,
            row.spread * 100.0,
            row.worse_by * 100.0,
            def.bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}", b * 100.0)),
            row.verdict.word()
        );
    }
    u8::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, bound 10 %.
        let same = judge(
            &a,
            &[100.2, 99.8, 100.0, 101.0, 99.0],
            Better::Lower,
            Some(0.10),
        );
        assert_eq!(same.verdict, Verdict::Unchanged);
        let worse = judge(
            &a,
            &[115.0, 116.0, 114.0, 115.5, 114.5],
            Better::Lower,
            Some(0.10),
        );
        assert_eq!(worse.verdict, Verdict::Regressed);
        assert!((worse.worse_by - 0.15).abs() < 1e-9);
        let better = judge(
            &a,
            &[90.0, 91.0, 89.0, 90.5, 89.5],
            Better::Lower,
            Some(0.10),
        );
        assert_eq!(better.verdict, Verdict::Improved);
        // Higher is better: the same drop is now a regression.
        let drop = judge(
            &a,
            &[85.0, 86.0, 84.0, 85.5, 84.5],
            Better::Higher,
            Some(0.10),
        );
        assert_eq!(drop.verdict, Verdict::Regressed);
        // The parent's own runs spread wider than the bound.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let unresolved = judge(&noisy, &a, Better::Lower, Some(0.10));
        assert_eq!(unresolved.verdict, Verdict::Unresolved);
        // No bound: never regressed.
        let layer = judge(
            &a,
            &[150.0, 151.0, 149.0, 150.0, 150.0],
            Better::Lower,
            None,
        );
        assert_eq!(layer.verdict, Verdict::Unchanged);
    }
}
