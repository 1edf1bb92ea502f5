//! `ledger.json`: the document one `run` writes and `compare` reads, and
//! the console listing that prints every metric by name with its unit.

use hfl_telemetry::Json;

use crate::stats::Summary;

/// Version of the `ledger.json` layout.
pub const SCHEMA: u64 = 1;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The number the metric reads: the median of its samples, or for
    /// an end-to-end timing the fastest one (see [`Metric::fastest`]).
    pub value: f64,
    /// Median / min / max / n of its samples.
    pub summary: Summary,
    /// A deterministic count: `compare` demands equality, not a bound.
    pub exact: bool,
}

impl Metric {
    /// A measured (noisy) quantity, read at its median.
    pub fn timed(unit: &str, summary: Summary) -> Self {
        Self {
            unit: unit.into(),
            value: summary.median,
            summary,
            exact: false,
        }
    }

    /// A timing over identical repetitions of deterministic work, read
    /// at its fastest sample (`best` is the summary's min for a
    /// duration, its max for a rate). Whatever makes one repetition
    /// slower than another is the box, not the program, and on a shared
    /// box that interference comes in bursts that outlast a rep: ten
    /// runs' median reps spread 3–11 % between their quartiles, their
    /// fastest reps 2–7 %. The median stays in the summary as the band.
    pub fn fastest(unit: &str, summary: Summary, best: fn(&Summary) -> f64) -> Self {
        Self {
            unit: unit.into(),
            value: best(&summary),
            summary,
            exact: false,
        }
    }

    /// A measured quantity with a single sample.
    pub fn once(unit: &str, value: f64) -> Self {
        Self::timed(unit, Summary::single(value))
    }

    /// A deterministic count that must repeat exactly.
    pub fn exact(unit: &str, value: f64) -> Self {
        Self {
            exact: true,
            ..Self::once(unit, value)
        }
    }

    /// How far the run's own samples stray from the value it reads, as
    /// a share of it: min–max for a median, fastest-to-median for a
    /// fastest sample (half the samples lie inside either).
    pub fn band(&self) -> f64 {
        if self.value == self.summary.median {
            self.summary.band()
        } else {
            ((self.summary.median - self.value) / self.value).abs()
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str(self.unit.clone())),
            ("value".into(), Json::Num(self.value)),
            ("median".into(), Json::Num(self.summary.median)),
            ("min".into(), Json::Num(self.summary.min)),
            ("max".into(), Json::Num(self.summary.max)),
            ("n".into(), Json::UInt(self.summary.n as u64)),
            ("exact".into(), Json::Bool(self.exact)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric lacks number '{key}'"))
        };
        Ok(Self {
            unit: j
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("metric lacks 'unit'")?
                .to_string(),
            value: num("value")?,
            summary: Summary {
                median: num("median")?,
                min: num("min")?,
                max: num("max")?,
                n: j.get("n")
                    .and_then(Json::as_u64)
                    .ok_or("metric lacks 'n'")? as usize,
            },
            exact: j
                .get("exact")
                .and_then(Json::as_bool)
                .ok_or("metric lacks 'exact'")?,
        })
    }
}

/// Named metrics in reporting order.
pub type Metrics = Vec<(String, Metric)>;

/// One workload's section of the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    /// The workload's normative name.
    pub name: String,
    /// Rounds (scenarios) per rep — the frozen size.
    pub ops_per_rep: u64,
    /// Untraced reps behind the end-to-end medians.
    pub reps: u64,
    /// Operations attempted over all untraced reps.
    pub ops_attempted: u64,
    /// Operations that failed a correctness check.
    pub ops_failed: u64,
    /// Every output check passed, including the traced rep's
    /// equivalence with the untraced one.
    pub correct: bool,
    /// The end-to-end metrics (untraced reps only).
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced pass; empty without `--trace`).
    pub per_layer: Metrics,
}

/// A whole `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The workload seed.
    pub seed: u64,
    /// Worker threads pinned for the run.
    pub threads: u64,
    /// Cores the box reported.
    pub nproc: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// One section per workload run.
    pub workloads: Vec<WorkloadReport>,
}

fn metrics_to_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.to_json()))
            .collect(),
    )
}

fn metrics_from_json(j: Option<&Json>) -> Result<Metrics, String> {
    j.and_then(Json::as_obj)
        .ok_or("workload lacks a metrics object")?
        .iter()
        .map(|(name, m)| {
            Metric::from_json(m)
                .map(|m| (name.clone(), m))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

impl Ledger {
    /// The document as a JSON value.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.clone())),
                    ("ops_per_rep".into(), Json::UInt(w.ops_per_rep)),
                    ("reps".into(), Json::UInt(w.reps)),
                    ("ops_attempted".into(), Json::UInt(w.ops_attempted)),
                    ("ops_failed".into(), Json::UInt(w.ops_failed)),
                    ("correct".into(), Json::Bool(w.correct)),
                    ("end_to_end".into(), metrics_to_json(&w.end_to_end)),
                    ("per_layer".into(), metrics_to_json(&w.per_layer)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::UInt(SCHEMA)),
            ("benchmark".into(), Json::Str("hfl-ledger".into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("threads".into(), Json::UInt(self.threads)),
            ("nproc".into(), Json::UInt(self.nproc)),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("workloads".into(), Json::Arr(workloads)),
        ])
    }

    /// Parses a document written by [`Ledger::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let uint = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("ledger lacks integer '{key}'"))
        };
        let schema = uint(j, "schema")?;
        if schema != SCHEMA {
            return Err(format!("ledger schema {schema}, this build reads {SCHEMA}"));
        }
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("ledger lacks 'workloads'")?
            .iter()
            .map(|w| {
                Ok(WorkloadReport {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload lacks 'name'")?
                        .to_string(),
                    ops_per_rep: uint(w, "ops_per_rep")?,
                    reps: uint(w, "reps")?,
                    ops_attempted: uint(w, "ops_attempted")?,
                    ops_failed: uint(w, "ops_failed")?,
                    correct: w
                        .get("correct")
                        .and_then(Json::as_bool)
                        .ok_or("workload lacks 'correct'")?,
                    end_to_end: metrics_from_json(w.get("end_to_end"))?,
                    per_layer: metrics_from_json(w.get("per_layer"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            seed: uint(j, "seed")?,
            threads: uint(j, "threads")?,
            nproc: uint(j, "nproc")?,
            scale: j
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("ledger lacks 'scale'")?
                .to_string(),
            workloads,
        })
    }

    /// Reads and parses a ledger file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

/// Prints one workload's metrics by name, with unit, band and count.
pub fn print_workload(w: &WorkloadReport) {
    println!(
        "== {}  (warm-up + {} timed reps x {} ops, ops_attempted = {}, ops_failed = {}, correct = {})",
        w.name, w.reps, w.ops_per_rep, w.ops_attempted, w.ops_failed, w.correct
    );
    for (name, m) in w.end_to_end.iter().chain(&w.per_layer) {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "  {name:<40} {:>16.6} {:<9} median {:.6} min {:.6} max {:.6} n = {}",
                m.value, m.unit, s.median, s.min, s.max, s.n
            );
        } else {
            let tag = if m.exact { "exact" } else { "" };
            println!("  {name:<40} {:>16.6} {:<9} {tag}", m.value, m.unit);
        }
    }
}
