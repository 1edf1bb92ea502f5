//! # hfl-snapshot
//!
//! Versioned checkpoints of the round engine: everything the runner
//! needs to continue a run **byte-identically** from round `k` instead
//! of round 0.
//!
//! Because every RNG stream in the engine is derived statelessly from
//! `(seed, round, …)`, no generator state needs to be captured — a
//! snapshot is exactly the cross-round mutable state: the global model,
//! the cost accounting totals, the manifest prefix (round / fault /
//! suspicion records), each [`LayerState`] (suspicion scores +
//! quarantine set, the adaptive adversary's bisection window, the fault
//! schedule cursor), and the metrics-registry accumulators.
//!
//! There is one codec, hand-rolled in the same
//! no-serialization-dependency discipline as the telemetry manifest:
//! [`EngineSnapshot::to_bytes`] / [`EngineSnapshot::from_bytes`], a
//! length-prefixed little-endian binary form. It round-trips
//! bit-exactly: `f32`/`f64` payloads are carried as raw bit patterns, so
//! NaN payloads and signed zeros survive.
//!
//! [`EngineSnapshot::to_json`] / [`EngineSnapshot::from_json`] wrap the
//! same bytes, hex-encoded, in a one-key JSON object; they carry no
//! field codec of their own.
//!
//! ## Versioning rules
//!
//! [`SNAPSHOT_VERSION`] is bumped whenever the meaning or layout of any
//! field changes. Decoders reject other versions outright — a snapshot
//! is a same-build artifact (it also embeds a config hash the resume
//! path validates), never a long-term archival format.

mod binary;
mod bisect;
mod json;

pub use bisect::{first_divergence, Divergence};

use std::fmt;

use hfl_telemetry::{CostCounters, FaultRecord, MetricSample, RoundRecord, SuspicionRecord};

/// Version tag embedded in every snapshot; decoders reject others.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Full engine state at the top of round [`EngineSnapshot::round`]
/// (that many rounds completed, none in flight).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Codec version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u64,
    /// The run seed (informational; the resume config re-supplies it).
    pub seed: u64,
    /// Hash of the full config the snapshot was captured under.
    pub config_hash: String,
    /// Hash of the config with the horizon fields (`rounds`,
    /// `eval_every`) normalized away: resume accepts a config whose
    /// base hash matches even when only the horizon differs, which is
    /// what lets shrink candidates with halved `rounds` reuse a parent
    /// snapshot.
    pub base_hash: String,
    /// Rounds completed; resume executes `round..cfg.rounds`.
    pub round: usize,
    /// The global model parameters (bit-exact).
    pub model: Vec<f32>,
    /// Cumulative cost accounting totals.
    pub cost: CostCounters,
    /// Manifest prefix: one record per completed round (the accuracy
    /// series is its evaluated records).
    pub rounds: Vec<RoundRecord>,
    /// Manifest prefix: fault activations so far.
    pub faults: Vec<FaultRecord>,
    /// Manifest prefix: suspicion/quarantine events so far.
    pub susp_log: Vec<SuspicionRecord>,
    /// Per-layer cross-round state, in engine stack order
    /// (faults → defense → adversary, present layers only).
    pub layers: Vec<LayerState>,
    /// Metrics-registry accumulators at capture time.
    pub metrics: Vec<MetricSample>,
}

/// One engine layer's cross-round state.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerState {
    /// The fault layer re-derives everything from the schedule each
    /// round; the snapshot carries only a cursor (activations strictly
    /// before the snapshot round) that resume validates against the
    /// plan it was given.
    Fault {
        /// Scheduled fault activations strictly before the round.
        activated: u64,
    },
    /// The defense layer: suspicion tracker contents when enabled.
    Defense {
        /// `None` when the config runs the layer without a tracker.
        tracker: Option<TrackerState>,
    },
    /// The adversary layer: adaptive search window plus the coalition's
    /// knowledge of which of its leaders have been convicted.
    Adversary {
        /// `None` for static (non-adaptive) attacks.
        search: Option<SearchState>,
        /// Per-client conviction flags (indexed like the population).
        detected: Vec<bool>,
    },
}

impl LayerState {
    /// The engine layer this state belongs to.
    pub fn layer_name(&self) -> &'static str {
        match self {
            LayerState::Fault { .. } => "faults",
            LayerState::Defense { .. } => "defense",
            LayerState::Adversary { .. } => "adversary",
        }
    }
}

/// Suspicion-tracker contents: strike scores and the quarantine set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrackerState {
    /// Per-client strike scores.
    pub scores: Vec<f64>,
    /// Per-client quarantine flags.
    pub quarantined: Vec<bool>,
    /// Total quarantine entries so far.
    pub quarantine_events: u64,
}

/// The adaptive adversary's magnitude-bisection window.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchState {
    /// Lower bound of the search window.
    pub lo: f32,
    /// Upper bound of the search window.
    pub hi: f32,
    /// Magnitude currently being probed.
    pub current: f32,
    /// `(round, magnitude, accepted)` probe history.
    pub history: Vec<(usize, f32, bool)>,
}

/// A codec or validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// What went wrong, with enough context to locate the field.
    pub detail: String,
}

impl SnapshotError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.detail)
    }
}

impl std::error::Error for SnapshotError {}

impl EngineSnapshot {
    /// Serializes as one JSON line: an object whose one key holds the
    /// lowercase hex of [`Self::to_bytes`].
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }

    /// Parses a snapshot from [`Self::to_json`] output: malformed JSON or
    /// hex is an error, and the bytes go through [`Self::from_bytes`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        json::from_json(text)
    }

    /// Serializes as a length-prefixed little-endian binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        binary::to_bytes(self)
    }

    /// Parses a snapshot from [`Self::to_bytes`] output, rejecting
    /// other [`SNAPSHOT_VERSION`]s and truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        binary::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_telemetry::{HistogramStats, MetricValue};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn sample_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            seed: 42,
            config_hash: "deadbeef01234567".into(),
            base_hash: "cafef00dcafef00d".into(),
            round: 3,
            model: vec![0.5, -1.25, f32::NAN, 0.0, -0.0],
            cost: CostCounters {
                messages: 100,
                bytes: 25_600,
                excluded: 2,
                absent: 1,
                faulted: 3,
                quarantined: 4,
                withheld: 5,
            },
            rounds: vec![
                RoundRecord {
                    round: 1,
                    accuracy: None,
                    messages: 50,
                    bytes: 12_800,
                    excluded: 1,
                    absent: 0,
                },
                RoundRecord {
                    round: 2,
                    accuracy: Some(0.75),
                    messages: 50,
                    bytes: 12_800,
                    excluded: 1,
                    absent: 1,
                },
            ],
            faults: vec![FaultRecord {
                round: 1,
                kind: "crash_stop".into(),
                detail: "node 2".into(),
            }],
            susp_log: vec![SuspicionRecord {
                round: 2,
                kind: "quarantined".into(),
                client: 7,
                score: 3.5,
            }],
            layers: vec![
                LayerState::Fault { activated: 1 },
                LayerState::Defense {
                    tracker: Some(TrackerState {
                        scores: vec![0.0, 3.5, -0.0],
                        quarantined: vec![false, true, false],
                        quarantine_events: 1,
                    }),
                },
                LayerState::Adversary {
                    search: Some(SearchState {
                        lo: 0.0,
                        hi: 4.0,
                        current: 2.0,
                        history: vec![(0, 1.3, true), (1, 2.0, false)],
                    }),
                    detected: vec![false, false, true],
                },
            ],
            metrics: vec![
                MetricSample {
                    name: "hfl_accuracy".into(),
                    labels: vec![],
                    value: MetricValue::Gauge(0.75),
                },
                MetricSample {
                    name: "hfl_messages_total".into(),
                    labels: vec![("mechanism".into(), "vote".into())],
                    value: MetricValue::Counter(100),
                },
                MetricSample {
                    name: "span_ms".into(),
                    labels: vec![],
                    value: MetricValue::Histogram(HistogramStats {
                        count: 4,
                        sum: 10.0,
                        min: 1.0,
                        max: 4.0,
                        p50: 2.0,
                        p90: 4.0,
                        p99: 4.0,
                    }),
                },
            ],
        }
    }

    #[test]
    fn sample_round_trips_both_codecs() {
        let snap = sample_snapshot();
        let back = EngineSnapshot::from_json(&snap.to_json()).unwrap();
        assert_snap_eq(&snap, &back);
        let back = EngineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_snap_eq(&snap, &back);
    }

    #[test]
    fn json_is_stable_across_encodes() {
        let snap = sample_snapshot();
        assert_eq!(snap.to_json(), snap.to_json());
        assert_eq!(snap.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn wrong_version_is_rejected_by_both_codecs() {
        let mut snap = sample_snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        let err = EngineSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.detail.contains("version"), "{err}");
        let err = EngineSnapshot::from_bytes(&snap.to_bytes()).unwrap_err();
        assert!(err.detail.contains("version"), "{err}");
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let bytes = sample_snapshot().to_bytes();
        for cut in [0, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                EngineSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn garbage_json_is_rejected() {
        assert!(EngineSnapshot::from_json("{").is_err());
        assert!(EngineSnapshot::from_json("{\"version\":1}").is_err());
        assert!(EngineSnapshot::from_json("[]").is_err());
        // Nesting past the parser's cap is an error, not a stack overflow.
        assert!(EngineSnapshot::from_json(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn json_envelope_rejects_malformed_hex() {
        let json = sample_snapshot().to_json();
        let hex = json
            .strip_prefix("{\"snapshot\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .expect("one key holding the hex");
        let envelope = |hex: &str| format!("{{\"snapshot\":\"{hex}\"}}");
        assert!(EngineSnapshot::from_json(&envelope(hex)).is_ok());
        // `u8::from_str_radix` would take a sign and upper case.
        for bad in [&hex[1..], &hex.to_uppercase(), &format!("+{}", &hex[1..])] {
            let err = EngineSnapshot::from_json(&envelope(bad)).unwrap_err();
            assert!(err.detail.contains("hex"), "{err}");
        }
    }

    /// Bit-exact equality: `PartialEq` on floats treats NaN ≠ NaN, so
    /// compare through the codec-identity lens instead.
    pub(crate) fn assert_snap_eq(a: &EngineSnapshot, b: &EngineSnapshot) {
        assert_eq!(a.to_bytes(), b.to_bytes(), "snapshots differ bit-wise");
    }

    // Property tests: each runs `CASES` cases; case `c` draws its input
    // from `StdRng::seed_from_u64(c)`, and every failure names `c`.

    const CASES: u64 = 256;

    /// Case numbers, each with the generator it seeds.
    fn cases() -> impl Iterator<Item = (u64, StdRng)> {
        (0..CASES).map(|case| (case, StdRng::seed_from_u64(case)))
    }

    /// Runs `f`, failing with `case` named if it panics.
    fn must_not_panic<T>(case: u64, f: impl FnOnce() -> T) {
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        assert!(ran.is_ok(), "case {case}: a decoder panicked");
    }

    /// A string of `len` chars drawn from `chars`.
    fn arb_str(rng: &mut StdRng, chars: &str, len: std::ops::Range<usize>) -> String {
        let pool: Vec<char> = chars.chars().collect();
        let len = rng.gen_range(len);
        (0..len)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect()
    }

    /// `len` draws of `elem`.
    fn arb_vec<T>(
        rng: &mut StdRng,
        len: std::ops::Range<usize>,
        mut elem: impl FnMut(&mut StdRng) -> T,
    ) -> Vec<T> {
        let len = rng.gen_range(len);
        (0..len).map(|_| elem(rng)).collect()
    }

    /// `None` or a draw of `elem`, with even odds.
    fn arb_option<T>(rng: &mut StdRng, elem: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
        rng.gen::<bool>().then(|| elem(rng))
    }

    const NAME_CHARS: &str = "abcdefghijklmnopqrstuvwxyz_";
    const HEX_CHARS: &str = "0123456789abcdef";
    const DETAIL_CHARS: &str = "aZ0 _-\"\\/\n\t:{},[]\u{3c0}";

    /// Any finite value (every binade, subnormals and both zeros among
    /// them), or one of ±0, NaN and +∞, the five with even odds.
    fn arb_f64(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..5) {
            0 => loop {
                let f = f64::from_bits(rng.gen());
                if f.is_finite() {
                    break f;
                }
            },
            1 => 0.0,
            2 => -0.0,
            3 => f64::NAN,
            _ => f64::INFINITY,
        }
    }

    /// Any bit pattern.
    fn arb_f32(rng: &mut StdRng) -> f32 {
        f32::from_bits(rng.gen())
    }

    fn arb_layer(rng: &mut StdRng) -> LayerState {
        match rng.gen_range(0..3) {
            0 => LayerState::Fault {
                activated: rng.gen(),
            },
            1 => LayerState::Defense {
                tracker: arb_option(rng, |rng| TrackerState {
                    scores: arb_vec(rng, 0..8, arb_f64),
                    quarantined: arb_vec(rng, 0..8, |rng| rng.gen()),
                    quarantine_events: rng.gen(),
                }),
            },
            _ => LayerState::Adversary {
                search: arb_option(rng, |rng| SearchState {
                    lo: arb_f32(rng),
                    hi: arb_f32(rng),
                    current: arb_f32(rng),
                    history: arb_vec(rng, 0..6, |rng| (rng.gen(), arb_f32(rng), rng.gen())),
                }),
                detected: arb_vec(rng, 0..8, |rng| rng.gen()),
            },
        }
    }

    fn arb_metric(rng: &mut StdRng) -> MetricSample {
        let name = arb_str(rng, NAME_CHARS, 1..13);
        let labels = arb_vec(rng, 0..3, |rng| {
            (
                arb_str(rng, NAME_CHARS, 1..7),
                arb_str(rng, HEX_CHARS, 0..7),
            )
        });
        let value = match rng.gen_range(0..3) {
            0 => MetricValue::Counter(rng.gen()),
            1 => MetricValue::Gauge(arb_f64(rng)),
            _ => {
                let (count, a, b, d) = (rng.gen(), arb_f64(rng), arb_f64(rng), arb_f64(rng));
                MetricValue::Histogram(HistogramStats {
                    count,
                    sum: a,
                    min: b,
                    max: d,
                    p50: a,
                    p90: b,
                    p99: d,
                })
            }
        };
        MetricSample {
            name,
            labels,
            value,
        }
    }

    fn arb_snapshot(rng: &mut StdRng) -> EngineSnapshot {
        let seed = rng.gen();
        let config_hash = arb_str(rng, HEX_CHARS, 0..17);
        let base_hash = arb_str(rng, HEX_CHARS, 0..17);
        let round = rng.gen_range(0usize..64);
        let model = arb_vec(rng, 0..32, arb_f32);
        let costs: Vec<(u64, u64)> = arb_vec(rng, 0..4, |rng| (rng.gen(), rng.gen()));
        let rounds = arb_vec(rng, 0..4, |rng| {
            let round = rng.gen_range(0usize..64);
            let accuracy = arb_option(rng, arb_f64);
            let n: u64 = rng.gen();
            RoundRecord {
                round,
                accuracy,
                messages: n,
                bytes: n.wrapping_mul(256),
                excluded: n % 7,
                absent: n % 3,
            }
        });
        let faults = arb_vec(rng, 0..3, |rng| FaultRecord {
            round: rng.gen_range(0usize..64),
            kind: arb_str(rng, NAME_CHARS, 1..9),
            detail: arb_str(rng, DETAIL_CHARS, 0..13),
        });
        let susp_log = arb_vec(rng, 0..3, |rng| SuspicionRecord {
            round: rng.gen_range(0usize..64),
            kind: arb_str(rng, NAME_CHARS, 1..9),
            client: rng.gen(),
            score: arb_f64(rng),
        });
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            seed,
            config_hash,
            base_hash,
            round,
            model,
            cost: CostCounters {
                messages: costs.first().map_or(0, |c| c.0),
                bytes: costs.first().map_or(0, |c| c.1),
                excluded: costs.get(1).map_or(0, |c| c.0),
                absent: costs.get(1).map_or(0, |c| c.1),
                faulted: costs.get(2).map_or(0, |c| c.0),
                quarantined: costs.get(2).map_or(0, |c| c.1),
                withheld: costs.get(3).map_or(0, |c| c.0),
            },
            rounds,
            faults,
            susp_log,
            layers: arb_vec(rng, 0..4, arb_layer),
            metrics: arb_vec(rng, 0..4, arb_metric),
        }
    }

    #[test]
    fn arbitrary_snapshots_round_trip_json() {
        for (case, mut rng) in cases() {
            let snap = arb_snapshot(&mut rng);
            let back = EngineSnapshot::from_json(&snap.to_json())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(snap.to_bytes(), back.to_bytes(), "case {case}");
        }
    }

    #[test]
    fn arbitrary_snapshots_round_trip_binary() {
        for (case, mut rng) in cases() {
            let snap = arb_snapshot(&mut rng);
            let back = EngineSnapshot::from_bytes(&snap.to_bytes())
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(snap.to_bytes(), back.to_bytes(), "case {case}");
        }
    }

    // Malformed input is an `Err`, never a panic: a snapshot file is
    // read back from disk, where anything can happen to it.

    #[test]
    fn snapshot_bytes_never_panic_on_garbage() {
        for (case, mut rng) in cases() {
            let mut raw = arb_vec(&mut rng, 0..256, |rng| rng.gen_range(0..=u8::MAX));
            // Half the cases get past the magic, so the length prefixes
            // and tags behind it are garbage too.
            if rng.gen() {
                raw.splice(0..0, b"HFSN".iter().copied());
            }
            must_not_panic(case, || EngineSnapshot::from_bytes(&raw));
        }
    }

    #[test]
    fn snapshot_bytes_single_bitflips_never_panic() {
        for (case, mut rng) in cases() {
            let mut raw = arb_snapshot(&mut rng).to_bytes();
            let at = rng.gen::<usize>() % raw.len();
            raw[at] ^= 1 << rng.gen_range(0u8..8);
            must_not_panic(case, || EngineSnapshot::from_bytes(&raw));
        }
    }

    #[test]
    fn snapshot_json_never_panics_on_garbage() {
        for (case, mut rng) in cases() {
            let text = arb_json_garbage(&mut rng);
            must_not_panic(case, || EngineSnapshot::from_json(&text));
        }
    }

    #[test]
    fn snapshot_json_truncations_are_rejected() {
        for (case, mut rng) in cases() {
            let json = arb_snapshot(&mut rng).to_json();
            let mut cut = rng.gen::<usize>() % json.len();
            while !json.is_char_boundary(cut) {
                cut -= 1;
            }
            assert!(
                EngineSnapshot::from_json(&json[..cut]).is_err(),
                "case {case}: cut at {cut}"
            );
        }
    }

    /// Text that is mostly JSON's own tokens and the snapshot's keys, so
    /// the parser gets past the first byte, or arbitrary bytes — one or
    /// the other with even odds.
    fn arb_json_garbage(rng: &mut StdRng) -> String {
        let tokens: Vec<&str> = concat!(
            r#"{|}|[|]|:|,|"| |\|\u|d800|\udc00|null|true|fals|0|1|-|1e999|-0.5e-3|"#,
            r#"18446744073709551616|-9223372036854775809|"schema"|"model"|"cost"|"#,
            r#""layers"|"layer"|"defense"|"tracker"|"metrics"|"kind"|"histogram"|"#,
            r#""0000803f"|"+fffffff"|"#,
            "\u{3c0}|\u{0}",
        )
        .split('|')
        .collect();
        if rng.gen() {
            arb_vec(rng, 0..64, |rng| tokens[rng.gen_range(0..tokens.len())]).concat()
        } else {
            let raw = arb_vec(rng, 0..256, |rng| rng.gen_range(0..=u8::MAX));
            String::from_utf8_lossy(&raw).into_owned()
        }
    }
}
