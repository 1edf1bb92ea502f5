//! The JSON codec: one compact deterministic line per snapshot.
//!
//! Floats are carried as raw bit patterns (`u64`/`u32` integers, the
//! model as a hex string) rather than decimal text: a snapshot must
//! survive encode → decode with bit-exact model parameters, including
//! NaN payloads and signed zeros, because the resume path replays SGD
//! from these exact values.

use hfl_telemetry::{
    CostCounters, FaultRecord, HistogramStats, Json, MetricSample, MetricValue, RoundRecord,
    SuspicionRecord,
};

use crate::{
    EngineSnapshot, LayerState, SearchState, SnapshotError, TrackerState, SNAPSHOT_VERSION,
};

pub(crate) fn to_json(snap: &EngineSnapshot) -> String {
    let cost = &snap.cost;
    Json::Obj(vec![
        ("schema".into(), Json::UInt(snap.version)),
        ("seed".into(), Json::UInt(snap.seed)),
        ("config_hash".into(), Json::Str(snap.config_hash.clone())),
        ("base_hash".into(), Json::Str(snap.base_hash.clone())),
        ("round".into(), Json::UInt(snap.round as u64)),
        ("model".into(), Json::Str(model_hex(&snap.model))),
        (
            "cost".into(),
            Json::Obj(vec![
                ("messages".into(), Json::UInt(cost.messages)),
                ("bytes".into(), Json::UInt(cost.bytes)),
                ("excluded".into(), Json::UInt(cost.excluded)),
                ("absent".into(), Json::UInt(cost.absent)),
                ("faulted".into(), Json::UInt(cost.faulted)),
                ("quarantined".into(), Json::UInt(cost.quarantined)),
                ("withheld".into(), Json::UInt(cost.withheld)),
            ]),
        ),
        (
            "accuracy".into(),
            Json::Arr(
                snap.accuracy
                    .iter()
                    .map(|&(round, acc)| Json::Arr(vec![Json::UInt(round as u64), f64_json(acc)]))
                    .collect(),
            ),
        ),
        (
            "rounds".into(),
            Json::Arr(snap.rounds.iter().map(round_json).collect()),
        ),
        (
            "faults".into(),
            Json::Arr(snap.faults.iter().map(fault_json).collect()),
        ),
        (
            "suspicion".into(),
            Json::Arr(snap.susp_log.iter().map(susp_json).collect()),
        ),
        (
            "layers".into(),
            Json::Arr(snap.layers.iter().map(layer_json).collect()),
        ),
        (
            "metrics".into(),
            Json::Arr(snap.metrics.iter().map(metric_json).collect()),
        ),
    ])
    .to_string()
}

pub(crate) fn from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
    let root = Json::parse(text).map_err(|e| SnapshotError::new(format!("bad JSON: {e}")))?;
    let version = get_u64(&root, "schema")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(format!(
            "unsupported snapshot version {version} (want {SNAPSHOT_VERSION})"
        )));
    }
    let cost = get(&root, "cost")?;
    Ok(EngineSnapshot {
        version,
        seed: get_u64(&root, "seed")?,
        config_hash: get_str(&root, "config_hash")?.to_string(),
        base_hash: get_str(&root, "base_hash")?.to_string(),
        round: get_usize(&root, "round")?,
        model: model_from_hex(get_str(&root, "model")?)?,
        cost: CostCounters {
            messages: get_u64(cost, "messages")?,
            bytes: get_u64(cost, "bytes")?,
            excluded: get_u64(cost, "excluded")?,
            absent: get_u64(cost, "absent")?,
            faulted: get_u64(cost, "faulted")?,
            quarantined: get_u64(cost, "quarantined")?,
            withheld: get_u64(cost, "withheld")?,
        },
        accuracy: get_arr(&root, "accuracy")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .ok_or_else(|| SnapshotError::new("accuracy entry is not a pair"))?;
                match pair {
                    [round, acc] => Ok((
                        usize_of(round, "accuracy round")?,
                        f64_of(acc, "accuracy value")?,
                    )),
                    _ => Err(SnapshotError::new("accuracy entry is not a pair")),
                }
            })
            .collect::<Result<_, _>>()?,
        rounds: get_arr(&root, "rounds")?
            .iter()
            .map(round_from_json)
            .collect::<Result<_, _>>()?,
        faults: get_arr(&root, "faults")?
            .iter()
            .map(fault_from_json)
            .collect::<Result<_, _>>()?,
        susp_log: get_arr(&root, "suspicion")?
            .iter()
            .map(susp_from_json)
            .collect::<Result<_, _>>()?,
        layers: get_arr(&root, "layers")?
            .iter()
            .map(layer_from_json)
            .collect::<Result<_, _>>()?,
        metrics: get_arr(&root, "metrics")?
            .iter()
            .map(metric_from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// 8 lowercase hex chars per parameter, big-endian bit pattern.
fn model_hex(model: &[f32]) -> String {
    let mut out = String::with_capacity(model.len() * 8);
    for &v in model {
        out.push_str(&format!("{:08x}", v.to_bits()));
    }
    out
}

fn model_from_hex(hex: &str) -> Result<Vec<f32>, SnapshotError> {
    if !hex.len().is_multiple_of(8) {
        return Err(SnapshotError::new(format!(
            "model hex length {} is not a multiple of 8",
            hex.len()
        )));
    }
    hex.as_bytes()
        .chunks(8)
        .map(|chunk| {
            let s = std::str::from_utf8(chunk)
                .map_err(|_| SnapshotError::new("model hex is not ASCII"))?;
            u32::from_str_radix(s, 16)
                .map(f32::from_bits)
                .map_err(|_| SnapshotError::new(format!("bad model hex chunk `{s}`")))
        })
        .collect()
}

fn f64_json(v: f64) -> Json {
    Json::UInt(v.to_bits())
}

fn f32_json(v: f32) -> Json {
    Json::UInt(v.to_bits() as u64)
}

fn round_json(r: &RoundRecord) -> Json {
    Json::Obj(vec![
        ("round".into(), Json::UInt(r.round as u64)),
        ("accuracy".into(), r.accuracy.map_or(Json::Null, f64_json)),
        ("messages".into(), Json::UInt(r.messages)),
        ("bytes".into(), Json::UInt(r.bytes)),
        ("excluded".into(), Json::UInt(r.excluded)),
        ("absent".into(), Json::UInt(r.absent)),
    ])
}

fn round_from_json(v: &Json) -> Result<RoundRecord, SnapshotError> {
    let accuracy = match get(v, "accuracy")? {
        Json::Null => None,
        other => Some(f64_of(other, "round accuracy")?),
    };
    Ok(RoundRecord {
        round: get_usize(v, "round")?,
        accuracy,
        messages: get_u64(v, "messages")?,
        bytes: get_u64(v, "bytes")?,
        excluded: get_u64(v, "excluded")?,
        absent: get_u64(v, "absent")?,
    })
}

fn fault_json(r: &FaultRecord) -> Json {
    Json::Obj(vec![
        ("round".into(), Json::UInt(r.round as u64)),
        ("kind".into(), Json::Str(r.kind.clone())),
        ("detail".into(), Json::Str(r.detail.clone())),
    ])
}

fn fault_from_json(v: &Json) -> Result<FaultRecord, SnapshotError> {
    Ok(FaultRecord {
        round: get_usize(v, "round")?,
        kind: get_str(v, "kind")?.to_string(),
        detail: get_str(v, "detail")?.to_string(),
    })
}

fn susp_json(r: &SuspicionRecord) -> Json {
    Json::Obj(vec![
        ("round".into(), Json::UInt(r.round as u64)),
        ("kind".into(), Json::Str(r.kind.clone())),
        ("client".into(), Json::UInt(r.client as u64)),
        ("score".into(), f64_json(r.score)),
    ])
}

fn susp_from_json(v: &Json) -> Result<SuspicionRecord, SnapshotError> {
    Ok(SuspicionRecord {
        round: get_usize(v, "round")?,
        kind: get_str(v, "kind")?.to_string(),
        client: get_usize(v, "client")?,
        score: f64_of(get(v, "score")?, "suspicion score")?,
    })
}

fn bools_json(flags: &[bool]) -> Json {
    Json::Arr(flags.iter().map(|&b| Json::Bool(b)).collect())
}

fn bools_from_json(v: &Json, what: &str) -> Result<Vec<bool>, SnapshotError> {
    v.as_arr()
        .ok_or_else(|| SnapshotError::new(format!("{what} is not an array")))?
        .iter()
        .map(|b| {
            b.as_bool()
                .ok_or_else(|| SnapshotError::new(format!("{what} entry is not a bool")))
        })
        .collect()
}

fn layer_json(layer: &LayerState) -> Json {
    let mut pairs = vec![("layer".into(), Json::Str(layer.layer_name().into()))];
    match layer {
        LayerState::Fault { activated } => {
            pairs.push(("activated".into(), Json::UInt(*activated)));
        }
        LayerState::Defense { tracker } => {
            let value = tracker.as_ref().map_or(Json::Null, |t| {
                Json::Obj(vec![
                    (
                        "scores".into(),
                        Json::Arr(t.scores.iter().map(|&s| f64_json(s)).collect()),
                    ),
                    ("quarantined".into(), bools_json(&t.quarantined)),
                    ("quarantine_events".into(), Json::UInt(t.quarantine_events)),
                ])
            });
            pairs.push(("tracker".into(), value));
        }
        LayerState::Adversary { search, detected } => {
            let value = search.as_ref().map_or(Json::Null, |s| {
                Json::Obj(vec![
                    ("lo".into(), f32_json(s.lo)),
                    ("hi".into(), f32_json(s.hi)),
                    ("current".into(), f32_json(s.current)),
                    (
                        "history".into(),
                        Json::Arr(
                            s.history
                                .iter()
                                .map(|&(round, mag, accepted)| {
                                    Json::Arr(vec![
                                        Json::UInt(round as u64),
                                        f32_json(mag),
                                        Json::Bool(accepted),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            });
            pairs.push(("search".into(), value));
            pairs.push(("detected".into(), bools_json(detected)));
        }
    }
    Json::Obj(pairs)
}

fn layer_from_json(v: &Json) -> Result<LayerState, SnapshotError> {
    match get_str(v, "layer")? {
        "faults" => Ok(LayerState::Fault {
            activated: get_u64(v, "activated")?,
        }),
        "defense" => {
            let tracker = match get(v, "tracker")? {
                Json::Null => None,
                t => Some(TrackerState {
                    scores: get_arr(t, "scores")?
                        .iter()
                        .map(|s| f64_of(s, "tracker score"))
                        .collect::<Result<_, _>>()?,
                    quarantined: bools_from_json(get(t, "quarantined")?, "tracker quarantined")?,
                    quarantine_events: get_u64(t, "quarantine_events")?,
                }),
            };
            Ok(LayerState::Defense { tracker })
        }
        "adversary" => {
            let search = match get(v, "search")? {
                Json::Null => None,
                s => Some(SearchState {
                    lo: f32_of(get(s, "lo")?, "search lo")?,
                    hi: f32_of(get(s, "hi")?, "search hi")?,
                    current: f32_of(get(s, "current")?, "search current")?,
                    history: get_arr(s, "history")?
                        .iter()
                        .map(|e| {
                            let e = e.as_arr().ok_or_else(|| {
                                SnapshotError::new("history entry is not a triple")
                            })?;
                            match e {
                                [round, mag, accepted] => Ok((
                                    usize_of(round, "history round")?,
                                    f32_of(mag, "history magnitude")?,
                                    accepted.as_bool().ok_or_else(|| {
                                        SnapshotError::new("history accepted is not a bool")
                                    })?,
                                )),
                                _ => Err(SnapshotError::new("history entry is not a triple")),
                            }
                        })
                        .collect::<Result<_, _>>()?,
                }),
            };
            Ok(LayerState::Adversary {
                search,
                detected: bools_from_json(get(v, "detected")?, "adversary detected")?,
            })
        }
        other => Err(SnapshotError::new(format!("unknown layer `{other}`"))),
    }
}

fn metric_json(m: &MetricSample) -> Json {
    let mut pairs = vec![
        ("name".into(), Json::Str(m.name.clone())),
        (
            "labels".into(),
            Json::Arr(
                m.labels
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ),
    ];
    match &m.value {
        MetricValue::Counter(v) => {
            pairs.push(("kind".into(), Json::Str("counter".into())));
            pairs.push(("value".into(), Json::UInt(*v)));
        }
        MetricValue::Gauge(v) => {
            pairs.push(("kind".into(), Json::Str("gauge".into())));
            pairs.push(("value".into(), f64_json(*v)));
        }
        MetricValue::Histogram(h) => {
            pairs.push(("kind".into(), Json::Str("histogram".into())));
            pairs.push(("count".into(), Json::UInt(h.count)));
            pairs.push(("sum".into(), f64_json(h.sum)));
            pairs.push(("min".into(), f64_json(h.min)));
            pairs.push(("max".into(), f64_json(h.max)));
            pairs.push(("p50".into(), f64_json(h.p50)));
            pairs.push(("p90".into(), f64_json(h.p90)));
            pairs.push(("p99".into(), f64_json(h.p99)));
        }
    }
    Json::Obj(pairs)
}

fn metric_from_json(v: &Json) -> Result<MetricSample, SnapshotError> {
    let value = match get_str(v, "kind")? {
        "counter" => MetricValue::Counter(get_u64(v, "value")?),
        "gauge" => MetricValue::Gauge(f64_of(get(v, "value")?, "gauge value")?),
        "histogram" => MetricValue::Histogram(HistogramStats {
            count: get_u64(v, "count")?,
            sum: f64_of(get(v, "sum")?, "histogram sum")?,
            min: f64_of(get(v, "min")?, "histogram min")?,
            max: f64_of(get(v, "max")?, "histogram max")?,
            p50: f64_of(get(v, "p50")?, "histogram p50")?,
            p90: f64_of(get(v, "p90")?, "histogram p90")?,
            p99: f64_of(get(v, "p99")?, "histogram p99")?,
        }),
        other => return Err(SnapshotError::new(format!("unknown metric kind `{other}`"))),
    };
    Ok(MetricSample {
        name: get_str(v, "name")?.to_string(),
        labels: get_arr(v, "labels")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .ok_or_else(|| SnapshotError::new("label is not a pair"))?;
                match pair {
                    [k, v] => {
                        let k = k
                            .as_str()
                            .ok_or_else(|| SnapshotError::new("label key is not a string"))?;
                        let v = v
                            .as_str()
                            .ok_or_else(|| SnapshotError::new("label value is not a string"))?;
                        Ok((k.to_string(), v.to_string()))
                    }
                    _ => Err(SnapshotError::new("label is not a pair")),
                }
            })
            .collect::<Result<_, _>>()?,
        value,
    })
}

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::new(format!("missing key `{key}`")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, SnapshotError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| SnapshotError::new(format!("`{key}` is not a u64")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, SnapshotError> {
    Ok(get_u64(v, key)? as usize)
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| SnapshotError::new(format!("`{key}` is not a string")))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| SnapshotError::new(format!("`{key}` is not an array")))
}

fn usize_of(v: &Json, what: &str) -> Result<usize, SnapshotError> {
    v.as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| SnapshotError::new(format!("{what} is not a u64")))
}

fn f64_of(v: &Json, what: &str) -> Result<f64, SnapshotError> {
    v.as_u64()
        .map(f64::from_bits)
        .ok_or_else(|| SnapshotError::new(format!("{what} is not an f64 bit pattern")))
}

fn f32_of(v: &Json, what: &str) -> Result<f32, SnapshotError> {
    let bits = v
        .as_u64()
        .ok_or_else(|| SnapshotError::new(format!("{what} is not an f32 bit pattern")))?;
    u32::try_from(bits)
        .map(f32::from_bits)
        .map_err(|_| SnapshotError::new(format!("{what} exceeds 32 bits")))
}
