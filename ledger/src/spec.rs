//! `BENCHMARK.json`, as far as the ledger itself reads it: the metric
//! names with their units, directions and bounds, and the workload list.

use hfl_telemetry::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, accuracy).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger uses.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSpec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(j: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json lacks '{key}'"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("a '{key}' metric lacks '{k}'"))
            };
            Ok(MetricSpec {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better: match text("better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("'better' must be higher or lower, not {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json lacks 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "a workload lacks 'name'".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workloads,
            end_to_end: metric_specs(&j, "end_to_end")?,
            per_layer: metric_specs(&j, "per_layer")?,
        })
    }

    /// Reads and parses the file at `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}
