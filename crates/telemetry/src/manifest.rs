//! Run manifests: the single self-describing record of one experiment
//! run — what was run (config hash, seed, build info), what happened
//! (per-round time series, cost totals) and what was measured (the final
//! registry snapshot).
//!
//! Determinism contract: `to_json` emits fields in a fixed order with
//! sorted metrics, contains no timestamps or host identifiers, and
//! every input is derived from the seed — so identical seeds produce
//! byte-identical manifests.

use crate::json::{Json, JsonError};
use crate::metrics::{HistogramStats, MetricSample, MetricValue};

/// Manifest schema version, bumped on any incompatible shape change.
/// v2 added the `faults` log (injected faults and recovery actions).
/// v3 added the optional `suspicion` section (quarantine events and
/// final per-client scores from the defense-side suspicion layer).
pub const SCHEMA_VERSION: u32 = 3;

/// FNV-1a 64-bit hash of `bytes`, rendered as 16 lowercase hex chars.
/// Used to fingerprint configs (hash of the config's `Debug` rendering)
/// without pulling in a crypto dependency — collision resistance is not
/// a goal, change detection is.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

/// Compile-time build identity. Deliberately contains nothing sampled at
/// run time: versions come from Cargo, the describe string from the
/// `ABD_HFL_GIT_DESCRIBE` env var at *compile* time (set by CI;
/// `"untracked"` otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildInfo {
    /// Package that produced the manifest.
    pub pkg: String,
    /// Its Cargo version.
    pub version: String,
    /// `git describe`-style string baked in at compile time, or
    /// `"untracked"`.
    pub describe: String,
    /// Compiled-in telemetry features. The crate has none, so this is
    /// empty; the key stays because it is part of the manifest schema.
    pub features: Vec<String>,
}

impl BuildInfo {
    /// The build info of this compilation.
    pub fn current() -> Self {
        Self {
            pkg: env!("CARGO_PKG_NAME").to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            describe: option_env!("ABD_HFL_GIT_DESCRIBE")
                .unwrap_or("untracked")
                .to_string(),
            features: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("pkg".into(), Json::Str(self.pkg.clone())),
            ("version".into(), Json::Str(self.version.clone())),
            ("describe".into(), Json::Str(self.describe.clone())),
            (
                "features".into(),
                Json::Arr(self.features.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            pkg: str_field(v, "pkg")?,
            version: str_field(v, "version")?,
            describe: str_field(v, "describe")?,
            features: v
                .get("features")
                .and_then(Json::as_arr)
                .ok_or("build.features")?
                .iter()
                .map(|f| f.as_str().map(String::from).ok_or("build.features[]"))
                .collect::<Result<_, _>>()
                .map_err(String::from)?,
        })
    }
}

/// One round of the per-round time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round number, 1-based (matches the paper's figures).
    pub round: usize,
    /// Test accuracy, when this round was an evaluation point.
    pub accuracy: Option<f64>,
    /// Messages exchanged this round.
    pub messages: u64,
    /// Bytes exchanged this round.
    pub bytes: u64,
    /// Proposals excluded this round.
    pub excluded: u64,
    /// Client absences this round.
    pub absent: u64,
}

impl RoundRecord {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("round".into(), Json::UInt(self.round as u64)),
            (
                "accuracy".into(),
                match self.accuracy {
                    Some(a) => Json::Num(a),
                    None => Json::Null,
                },
            ),
            ("messages".into(), Json::UInt(self.messages)),
            ("bytes".into(), Json::UInt(self.bytes)),
            ("excluded".into(), Json::UInt(self.excluded)),
            ("absent".into(), Json::UInt(self.absent)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let accuracy = match v.get("accuracy").ok_or("round.accuracy")? {
            Json::Null => None,
            other => Some(other.as_f64().ok_or("round.accuracy")?),
        };
        Ok(Self {
            round: u64_field(v, "round")? as usize,
            accuracy,
            messages: u64_field(v, "messages")?,
            bytes: u64_field(v, "bytes")?,
            excluded: u64_field(v, "excluded")?,
            absent: u64_field(v, "absent")?,
        })
    }
}

/// Whole-run cost totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Total model-bearing messages.
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total proposals excluded by consensus.
    pub excluded: u64,
    /// Total client absences under churn.
    pub absent: u64,
}

impl RunTotals {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("messages".into(), Json::UInt(self.messages)),
            ("bytes".into(), Json::UInt(self.bytes)),
            ("excluded".into(), Json::UInt(self.excluded)),
            ("absent".into(), Json::UInt(self.absent)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            messages: u64_field(v, "messages")?,
            bytes: u64_field(v, "bytes")?,
            excluded: u64_field(v, "excluded")?,
            absent: u64_field(v, "absent")?,
        })
    }
}

/// The round engine's cost accumulators, threaded through every round
/// of aggregation and carried whole in an engine snapshot. The first
/// four become a manifest's [`RunTotals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Model-bearing messages.
    pub messages: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Proposals excluded by consensus.
    pub excluded: u64,
    /// Client-round absences from churn.
    pub absent: u64,
    /// Bottom-level updates lost to injected faults.
    pub faulted: u64,
    /// Updates excluded by the suspicion layer's quarantine.
    pub quarantined: u64,
    /// Updates a withholding coalition kept back.
    pub withheld: u64,
}

impl CostCounters {
    /// Per-round delta: this ledger minus a snapshot taken at round
    /// start (counters are monotone, so plain subtraction is safe).
    pub fn since(&self, before: &CostCounters) -> CostCounters {
        CostCounters {
            messages: self.messages - before.messages,
            bytes: self.bytes - before.bytes,
            excluded: self.excluded - before.excluded,
            absent: self.absent - before.absent,
            faulted: self.faulted - before.faulted,
            quarantined: self.quarantined - before.quarantined,
            withheld: self.withheld - before.withheld,
        }
    }
}

/// One injected fault or recovery action, as recorded in the manifest's
/// fault log (schema v2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Round (0-based) the fault or recovery activated.
    pub round: usize,
    /// Stable kind label (`crash_stop`, `leader_failover`,
    /// `degraded_quorum`, `partition_heal`, ...).
    pub kind: String,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl FaultRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("round".into(), Json::UInt(self.round as u64)),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            round: u64_field(v, "round")? as usize,
            kind: str_field(v, "kind")?,
            detail: str_field(v, "detail")?,
        })
    }
}

/// One suspicion-layer state transition (quarantine or release), as
/// recorded in the manifest's suspicion section (schema v3).
#[derive(Clone, Debug, PartialEq)]
pub struct SuspicionRecord {
    /// Round (0-based) the transition happened.
    pub round: usize,
    /// Stable kind label (`quarantined`, `released`, `equivocation`).
    pub kind: String,
    /// The client (or leader) the transition concerns.
    pub client: usize,
    /// Suspicion score at the transition.
    pub score: f64,
}

impl SuspicionRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("round".into(), Json::UInt(self.round as u64)),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("client".into(), Json::UInt(self.client as u64)),
            ("score".into(), Json::Num(self.score)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            round: u64_field(v, "round")? as usize,
            kind: str_field(v, "kind")?,
            client: u64_field(v, "client")? as usize,
            score: f64_field(v, "score")?,
        })
    }
}

/// End-of-run suspicion score of one client (schema v3). Only clients
/// with a nonzero score or an active quarantine appear.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientScore {
    /// Client id.
    pub client: usize,
    /// Final suspicion score.
    pub score: f64,
    /// True when the client ended the run quarantined.
    pub quarantined: bool,
}

impl ClientScore {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("client".into(), Json::UInt(self.client as u64)),
            ("score".into(), Json::Num(self.score)),
            ("quarantined".into(), Json::Bool(self.quarantined)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            client: u64_field(v, "client")? as usize,
            score: f64_field(v, "score")?,
            quarantined: v
                .get("quarantined")
                .and_then(Json::as_bool)
                .ok_or("score.quarantined")?,
        })
    }
}

/// The manifest's suspicion section (schema v3): what the defense-side
/// suspicion layer did over the run. Present only for runs with the
/// layer enabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuspicionSection {
    /// Quarantine/release/equivocation transitions, in occurrence order.
    pub events: Vec<SuspicionRecord>,
    /// End-of-run scores of implicated clients, ascending by client.
    pub final_scores: Vec<ClientScore>,
}

impl SuspicionSection {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "events".into(),
                Json::Arr(self.events.iter().map(SuspicionRecord::to_json).collect()),
            ),
            (
                "final_scores".into(),
                Json::Arr(self.final_scores.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            events: v
                .get("events")
                .and_then(Json::as_arr)
                .ok_or("suspicion.events")?
                .iter()
                .map(SuspicionRecord::from_json)
                .collect::<Result<_, _>>()?,
            final_scores: v
                .get("final_scores")
                .and_then(Json::as_arr)
                .ok_or("suspicion.final_scores")?
                .iter()
                .map(ClientScore::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The manifest of one run. Field order in the JSON output matches the
/// struct declaration order, always.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Human label, e.g. `"abd-hfl"` or `"table5/ABD-HFL (CBA)/p0.2/rep3"`.
    pub label: String,
    /// The run's master seed.
    pub seed: u64,
    /// [`fnv1a_hex`] of the config's `Debug` rendering.
    pub config_hash: String,
    /// Compile-time build identity.
    pub build: BuildInfo,
    /// Per-round time series.
    pub rounds: Vec<RoundRecord>,
    /// Whole-run cost totals.
    pub totals: RunTotals,
    /// Injected faults and recovery actions, in occurrence order (empty
    /// for fault-free runs; absent in pre-v2 manifests).
    pub faults: Vec<FaultRecord>,
    /// Suspicion-layer record (`None` when the layer was disabled;
    /// absent in pre-v3 manifests). Emitted only when present.
    pub suspicion: Option<SuspicionSection>,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Sorted registry snapshot at end of run.
    pub metrics: Vec<MetricSample>,
}

impl RunManifest {
    /// An empty manifest scaffold for `label`/`seed`/`config_hash` with
    /// the current build info.
    pub fn new(label: impl Into<String>, seed: u64, config_hash: String) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            label: label.into(),
            seed,
            config_hash,
            build: BuildInfo::current(),
            rounds: Vec::new(),
            totals: RunTotals::default(),
            faults: Vec::new(),
            suspicion: None,
            final_accuracy: 0.0,
            metrics: Vec::new(),
        }
    }

    /// Serializes to one compact, deterministic JSON line.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::UInt(u64::from(self.schema))),
            ("label".into(), Json::Str(self.label.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("config_hash".into(), Json::Str(self.config_hash.clone())),
            ("build".into(), self.build.to_json()),
            (
                "rounds".into(),
                Json::Arr(self.rounds.iter().map(|r| r.to_json()).collect()),
            ),
            ("totals".into(), self.totals.to_json()),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(FaultRecord::to_json).collect()),
            ),
        ];
        if let Some(s) = &self.suspicion {
            fields.push(("suspicion".into(), s.to_json()));
        }
        fields.push(("final_accuracy".into(), Json::Num(self.final_accuracy)));
        fields.push((
            "metrics".into(),
            Json::Arr(self.metrics.iter().map(sample_to_json).collect()),
        ));
        Json::Obj(fields).to_string()
    }

    /// Parses a manifest produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let v = Json::parse(text)?;
        Self::from_value(&v).map_err(|field| JsonError {
            pos: 0,
            msg: format!("manifest missing or malformed field: {field}"),
        })
    }

    fn from_value(v: &Json) -> Result<Self, String> {
        Ok(Self {
            schema: u64_field(v, "schema")? as u32,
            label: str_field(v, "label")?,
            seed: u64_field(v, "seed")?,
            config_hash: str_field(v, "config_hash")?,
            build: BuildInfo::from_json(v.get("build").ok_or("build")?)?,
            rounds: v
                .get("rounds")
                .and_then(Json::as_arr)
                .ok_or("rounds")?
                .iter()
                .map(RoundRecord::from_json)
                .collect::<Result<_, _>>()?,
            totals: RunTotals::from_json(v.get("totals").ok_or("totals")?)?,
            // Absent in pre-v2 manifests: default to an empty log.
            faults: match v.get("faults") {
                Some(f) => f
                    .as_arr()
                    .ok_or("faults")?
                    .iter()
                    .map(FaultRecord::from_json)
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
            // Absent in pre-v3 manifests and for runs without the layer.
            suspicion: match v.get("suspicion") {
                Some(s) => Some(SuspicionSection::from_json(s)?),
                None => None,
            },
            final_accuracy: v
                .get("final_accuracy")
                .and_then(Json::as_f64)
                .ok_or("final_accuracy")?,
            metrics: v
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or("metrics")?
                .iter()
                .map(sample_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| key.to_string())
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| key.to_string())
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| key.to_string())
}

fn sample_to_json(s: &MetricSample) -> Json {
    let value = match &s.value {
        MetricValue::Counter(c) => Json::Obj(vec![
            ("type".into(), Json::Str("counter".into())),
            ("value".into(), Json::UInt(*c)),
        ]),
        MetricValue::Gauge(g) => Json::Obj(vec![
            ("type".into(), Json::Str("gauge".into())),
            ("value".into(), Json::Num(*g)),
        ]),
        MetricValue::Histogram(h) => Json::Obj(vec![
            ("type".into(), Json::Str("histogram".into())),
            ("count".into(), Json::UInt(h.count)),
            ("sum".into(), Json::Num(h.sum)),
            ("min".into(), Json::Num(h.min)),
            ("max".into(), Json::Num(h.max)),
            ("p50".into(), Json::Num(h.p50)),
            ("p90".into(), Json::Num(h.p90)),
            ("p99".into(), Json::Num(h.p99)),
        ]),
    };
    Json::Obj(vec![
        ("name".into(), Json::Str(s.name.clone())),
        (
            "labels".into(),
            Json::Obj(
                s.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("value".into(), value),
    ])
}

fn sample_from_json(v: &Json) -> Result<MetricSample, String> {
    let labels = v
        .get("labels")
        .and_then(Json::as_obj)
        .ok_or("metric.labels")?
        .iter()
        .map(|(k, val)| {
            val.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or_else(|| "metric.labels[]".to_string())
        })
        .collect::<Result<_, _>>()?;
    let vv = v.get("value").ok_or("metric.value")?;
    let value = match vv
        .get("type")
        .and_then(Json::as_str)
        .ok_or("metric.value.type")?
    {
        "counter" => MetricValue::Counter(u64_field(vv, "value")?),
        "gauge" => MetricValue::Gauge(f64_field(vv, "value")?),
        "histogram" => MetricValue::Histogram(HistogramStats {
            count: u64_field(vv, "count")?,
            sum: f64_field(vv, "sum")?,
            min: f64_field(vv, "min")?,
            max: f64_field(vv, "max")?,
            p50: f64_field(vv, "p50")?,
            p90: f64_field(vv, "p90")?,
            p99: f64_field(vv, "p99")?,
        }),
        other => return Err(format!("metric.value.type '{other}'")),
    };
    Ok(MetricSample {
        name: str_field(v, "name")?,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_manifest(seed: u64) -> RunManifest {
        let registry = Registry::new();
        registry.counter("hfl_messages_total", &[]).inc(1234);
        registry
            .counter("consensus_excluded_total", &[("mechanism", "cba")])
            .inc(7);
        registry.gauge("hfl_accuracy", &[]).set(0.8125);
        let h = registry.histogram("round_span_us", &[]);
        for v in [10.0, 20.0, 30.0] {
            h.observe(v);
        }
        let mut m = RunManifest::new("unit", seed, fnv1a_hex(b"cfg-debug"));
        m.rounds = vec![
            RoundRecord {
                round: 1,
                accuracy: None,
                messages: 600,
                bytes: 2400,
                excluded: 3,
                absent: 1,
            },
            RoundRecord {
                round: 2,
                accuracy: Some(0.75),
                messages: 634,
                bytes: 2536,
                excluded: 4,
                absent: 0,
            },
        ];
        m.totals = RunTotals {
            messages: 1234,
            bytes: 4936,
            excluded: 7,
            absent: 1,
        };
        m.faults = vec![
            FaultRecord {
                round: 5,
                kind: "crash_stop".into(),
                detail: "node 3 crashes".into(),
            },
            FaultRecord {
                round: 6,
                kind: "leader_failover".into(),
                detail: "level 2 cluster 0: node 4 promoted over node 0".into(),
            },
        ];
        m.final_accuracy = 0.8125;
        m.metrics = registry.snapshot();
        m
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        // A seed above 2^53 exercises exact u64 round-tripping.
        let m = sample_manifest(0xFEED_FACE_DEAD_BEEF);
        let text = m.to_json();
        let back = RunManifest::from_json(&text).expect("parse back");
        assert_eq!(back, m);
    }

    #[test]
    fn identical_inputs_give_byte_identical_json() {
        let a = sample_manifest(42).to_json();
        let b = sample_manifest(42).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn json_field_order_is_fixed() {
        let text = sample_manifest(1).to_json();
        let schema_at = text.find("\"schema\"").unwrap();
        let label_at = text.find("\"label\"").unwrap();
        let metrics_at = text.find("\"metrics\"").unwrap();
        assert!(schema_at < label_at && label_at < metrics_at);
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(!text.contains('\n'), "manifest must be one line for JSONL");
    }

    #[test]
    fn malformed_manifest_is_rejected() {
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("not json").is_err());
        let mut m = sample_manifest(2);
        m.metrics.clear();
        let broken = m.to_json().replace("\"seed\"", "\"sneed\"");
        assert!(RunManifest::from_json(&broken).is_err());
    }

    #[test]
    fn fault_log_sits_between_totals_and_final_accuracy() {
        let text = sample_manifest(3).to_json();
        let totals_at = text.find("\"totals\"").unwrap();
        let faults_at = text.find("\"faults\"").unwrap();
        let acc_at = text.find("\"final_accuracy\"").unwrap();
        assert!(totals_at < faults_at && faults_at < acc_at);
        assert!(text.contains("\"crash_stop\""));
    }

    #[test]
    fn pre_v2_manifest_without_faults_still_parses() {
        let mut m = sample_manifest(4);
        m.faults.clear();
        let text = m.to_json().replace(",\"faults\":[]", "");
        assert!(!text.contains("faults"));
        let back = RunManifest::from_json(&text).expect("lenient parse");
        assert!(back.faults.is_empty());
        assert_eq!(back.seed, m.seed);
    }

    fn with_suspicion(seed: u64) -> RunManifest {
        let mut m = sample_manifest(seed);
        m.suspicion = Some(SuspicionSection {
            events: vec![
                SuspicionRecord {
                    round: 2,
                    kind: "quarantined".into(),
                    client: 3,
                    score: 2.44,
                },
                SuspicionRecord {
                    round: 4,
                    kind: "equivocation".into(),
                    client: 0,
                    score: 3.0,
                },
                SuspicionRecord {
                    round: 9,
                    kind: "released".into(),
                    client: 3,
                    score: 0.61,
                },
            ],
            final_scores: vec![
                ClientScore {
                    client: 0,
                    score: 1.2,
                    quarantined: true,
                },
                ClientScore {
                    client: 3,
                    score: 0.4,
                    quarantined: false,
                },
            ],
        });
        m
    }

    #[test]
    fn suspicion_section_roundtrips() {
        let m = with_suspicion(7);
        let back = RunManifest::from_json(&m.to_json()).expect("parse back");
        assert_eq!(back, m);
    }

    #[test]
    fn suspicion_sits_between_faults_and_final_accuracy() {
        let text = with_suspicion(8).to_json();
        let faults_at = text.find("\"faults\"").unwrap();
        let susp_at = text.find("\"suspicion\"").unwrap();
        let acc_at = text.find("\"final_accuracy\"").unwrap();
        assert!(faults_at < susp_at && susp_at < acc_at);
        assert!(text.contains("\"quarantined\""));
    }

    #[test]
    fn suspicion_key_is_absent_when_layer_disabled() {
        let m = sample_manifest(9);
        assert!(m.suspicion.is_none());
        let text = m.to_json();
        assert!(!text.contains("\"suspicion\""));
        // Pre-v3 manifests (no key at all) parse leniently to None.
        let back = RunManifest::from_json(&text).expect("lenient parse");
        assert!(back.suspicion.is_none());
    }

    #[test]
    fn build_info_has_no_runtime_inputs() {
        let b = BuildInfo::current();
        assert_eq!(b.pkg, "hfl-telemetry");
        assert!(!b.version.is_empty());
        // Either the compile-time env var or the fixed fallback — never a
        // value sampled at run time.
        assert!(b == BuildInfo::current());
    }

    /// `since` reports the monotone delta between two snapshots.
    #[test]
    fn since_subtracts_fieldwise() {
        let before = CostCounters {
            messages: 10,
            bytes: 400,
            excluded: 1,
            ..CostCounters::default()
        };
        let after = CostCounters {
            messages: 25,
            bytes: 1_000,
            excluded: 3,
            absent: 2,
            ..CostCounters::default()
        };
        let d = after.since(&before);
        assert_eq!(d.messages, 15);
        assert_eq!(d.bytes, 600);
        assert_eq!(d.excluded, 2);
        assert_eq!(d.absent, 2);
    }
}
