//! `hfl-ledger compare a.json b.json`: is run B worse than run A?
//!
//! End-to-end values are held to the bounds in `BENCHMARK.json`; exact
//! counters must be equal; a raised share of failed operations is a
//! regression whatever the timings say.

use crate::report::{Ledger, Metric, WorkloadReport};
use crate::spec::{BenchSpec, Better, MetricSpec};

/// How one metric moved from A to B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both runs' own bands ([`Metric::band`]) are
    /// tighter than the bound.
    Unchanged,
    /// Better by more than the bound (or every B rep beats every A rep).
    Improved,
    /// Worse by more than the bound, or an exact counter moved.
    Regression,
    /// Within the bound, but a run's own band is wider than the bound:
    /// the comparison cannot tell "same" from "moved".
    Unresolved,
}

impl Verdict {
    /// The word printed in the report.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B's value against A's, as a share of A's, signed so that positive
/// is better.
pub fn gain(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (b - a) / a.abs(),
        Better::Lower => (a - b) / a.abs(),
    }
}

/// Judges one end-to-end metric against its bound.
pub fn judge(spec: &MetricSpec, a: &Metric, b: &Metric) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let gain = gain(spec.better, a.value, b.value);
    if gain < -bound {
        return Verdict::Regression;
    }
    let noisy = a.band() > bound || b.band() > bound;
    if noisy {
        let every_b_beats_every_a = match spec.better {
            Better::Higher => b.summary.min > a.summary.max,
            Better::Lower => b.summary.max < a.summary.min,
        };
        return if every_b_beats_every_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One line of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload the metric belongs to.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// How it moved.
    pub verdict: Verdict,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
}

fn find<'m>(metrics: &'m [(String, Metric)], name: &str) -> Option<&'m Metric> {
    metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
}

fn failed_share(w: &WorkloadReport) -> f64 {
    w.ops_failed as f64 / w.ops_attempted.max(1) as f64
}

/// Compares every workload present in both ledgers. Rows cover each
/// end-to-end metric, each exact per-layer counter that moved, and the
/// failed-operation share when it rose.
pub fn compare(spec: &BenchSpec, a: &Ledger, b: &Ledger) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        let mut row = |metric: &str, verdict, a: f64, b: f64| {
            rows.push(Row {
                workload: wa.name.clone(),
                metric: metric.to_string(),
                verdict,
                a,
                b,
            });
        };
        for m in &spec.end_to_end {
            if let (Some(ma), Some(mb)) =
                (find(&wa.end_to_end, &m.name), find(&wb.end_to_end, &m.name))
            {
                row(&m.name, judge(m, ma, mb), ma.value, mb.value);
            }
        }
        for (name, ma) in &wa.per_layer {
            let Some(mb) = find(&wb.per_layer, name) else {
                continue;
            };
            if ma.exact && ma.value != mb.value {
                row(name, Verdict::Regression, ma.value, mb.value);
            }
        }
        if failed_share(wb) > failed_share(wa) || (wa.correct && !wb.correct) {
            row(
                "ops_failed_share",
                Verdict::Regression,
                failed_share(wa),
                failed_share(wb),
            );
        }
    }
    rows
}

/// Prints the rows and, below them, the per-layer timings that moved by
/// more than a tenth (informational: they carry no bound).
pub fn print(rows: &[Row], a: &Ledger, b: &Ledger) {
    for r in rows {
        println!(
            "{:<12} {:<34} {:<10} {:>16.6} -> {:>16.6}",
            r.workload,
            r.metric,
            r.verdict.word(),
            r.a,
            r.b
        );
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for (name, ma) in wa.per_layer.iter().filter(|(_, m)| !m.exact) {
            let Some(mb) = find(&wb.per_layer, name) else {
                continue;
            };
            let (x, y) = (ma.value, mb.value);
            if x != 0.0 && ((y - x) / x).abs() > 0.10 {
                println!(
                    "{:<12} {:<34} {:<10} {:>16.6} -> {:>16.6}  ({:+.1} %)",
                    wa.name,
                    name,
                    "layer",
                    x,
                    y,
                    (y - x) / x * 100.0
                );
            }
        }
    }
}
