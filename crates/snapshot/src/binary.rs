//! The binary codec, the one snapshot codec: a length-prefixed
//! little-endian layout behind a 4-byte magic.
//!
//! Fields follow [`EngineSnapshot`]'s declaration order; every vector is
//! prefixed by a `u64` element count, every string by a `u64` byte
//! length, and floats are raw IEEE-754 bit patterns (bit-exact
//! round-trip, NaN payloads included). Truncated or trailing input is
//! an error, as is any version other than [`SNAPSHOT_VERSION`].

use hfl_telemetry::{
    CostCounters, FaultRecord, HistogramStats, MetricSample, MetricValue, RoundRecord,
    SuspicionRecord,
};

use crate::{
    EngineSnapshot, LayerState, SearchState, SnapshotError, TrackerState, SNAPSHOT_VERSION,
};

const MAGIC: &[u8; 4] = b"HFSN";

const TAG_FAULT: u8 = 0;
const TAG_DEFENSE: u8 = 1;
const TAG_ADVERSARY: u8 = 2;

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

pub(crate) fn to_bytes(snap: &EngineSnapshot) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(256 + snap.model.len() * 4));
    w.0.extend_from_slice(MAGIC);
    w.u64(snap.version);
    w.u64(snap.seed);
    w.str(&snap.config_hash);
    w.str(&snap.base_hash);
    w.u64(snap.round as u64);
    w.u64(snap.model.len() as u64);
    for &v in &snap.model {
        w.f32(v);
    }
    let c = &snap.cost;
    for v in [
        c.messages,
        c.bytes,
        c.excluded,
        c.absent,
        c.faulted,
        c.quarantined,
        c.withheld,
    ] {
        w.u64(v);
    }
    w.u64(snap.rounds.len() as u64);
    for r in &snap.rounds {
        w.u64(r.round as u64);
        w.opt_f64(r.accuracy);
        for v in [r.messages, r.bytes, r.excluded, r.absent] {
            w.u64(v);
        }
    }
    w.u64(snap.faults.len() as u64);
    for f in &snap.faults {
        w.u64(f.round as u64);
        w.str(&f.kind);
        w.str(&f.detail);
    }
    w.u64(snap.susp_log.len() as u64);
    for s in &snap.susp_log {
        w.u64(s.round as u64);
        w.str(&s.kind);
        w.u64(s.client as u64);
        w.f64(s.score);
    }
    w.u64(snap.layers.len() as u64);
    for layer in &snap.layers {
        match layer {
            LayerState::Fault { activated } => {
                w.u8(TAG_FAULT);
                w.u64(*activated);
            }
            LayerState::Defense { tracker } => {
                w.u8(TAG_DEFENSE);
                match tracker {
                    None => w.u8(0),
                    Some(t) => {
                        w.u8(1);
                        w.u64(t.scores.len() as u64);
                        for &s in &t.scores {
                            w.f64(s);
                        }
                        w.bools(&t.quarantined);
                        w.u64(t.quarantine_events);
                    }
                }
            }
            LayerState::Adversary { search, detected } => {
                w.u8(TAG_ADVERSARY);
                match search {
                    None => w.u8(0),
                    Some(s) => {
                        w.u8(1);
                        w.f32(s.lo);
                        w.f32(s.hi);
                        w.f32(s.current);
                        w.u64(s.history.len() as u64);
                        for &(round, mag, accepted) in &s.history {
                            w.u64(round as u64);
                            w.f32(mag);
                            w.u8(accepted as u8);
                        }
                    }
                }
                w.bools(detected);
            }
        }
    }
    w.u64(snap.metrics.len() as u64);
    for m in &snap.metrics {
        w.str(&m.name);
        w.u64(m.labels.len() as u64);
        for (k, v) in &m.labels {
            w.str(k);
            w.str(v);
        }
        match &m.value {
            MetricValue::Counter(v) => {
                w.u8(TAG_COUNTER);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(TAG_GAUGE);
                w.f64(*v);
            }
            MetricValue::Histogram(h) => {
                w.u8(TAG_HISTOGRAM);
                w.u64(h.count);
                for v in [h.sum, h.min, h.max, h.p50, h.p90, h.p99] {
                    w.f64(v);
                }
            }
        }
    }
    w.0
}

pub(crate) fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(SnapshotError::new("bad magic (not a snapshot blob)"));
    }
    let version = r.u64()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(format!(
            "unsupported snapshot version {version} (want {SNAPSHOT_VERSION})"
        )));
    }
    let seed = r.u64()?;
    let config_hash = r.str()?;
    let base_hash = r.str()?;
    let round = r.u64()? as usize;
    let model = r.vec(|r| r.f32())?;
    let mut cost = [0u64; 7];
    for slot in &mut cost {
        *slot = r.u64()?;
    }
    let rounds = r.vec(|r| {
        Ok(RoundRecord {
            round: r.u64()? as usize,
            accuracy: r.opt_f64()?,
            messages: r.u64()?,
            bytes: r.u64()?,
            excluded: r.u64()?,
            absent: r.u64()?,
        })
    })?;
    let faults = r.vec(|r| {
        Ok(FaultRecord {
            round: r.u64()? as usize,
            kind: r.str()?,
            detail: r.str()?,
        })
    })?;
    let susp_log = r.vec(|r| {
        Ok(SuspicionRecord {
            round: r.u64()? as usize,
            kind: r.str()?,
            client: r.u64()? as usize,
            score: r.f64()?,
        })
    })?;
    let layers = r.vec(|r| match r.u8()? {
        TAG_FAULT => Ok(LayerState::Fault {
            activated: r.u64()?,
        }),
        TAG_DEFENSE => {
            let tracker = match r.u8()? {
                0 => None,
                1 => Some(TrackerState {
                    scores: r.vec(|r| r.f64())?,
                    quarantined: r.bools()?,
                    quarantine_events: r.u64()?,
                }),
                other => return Err(SnapshotError::new(format!("bad tracker flag {other}"))),
            };
            Ok(LayerState::Defense { tracker })
        }
        TAG_ADVERSARY => {
            let search = match r.u8()? {
                0 => None,
                1 => Some(SearchState {
                    lo: r.f32()?,
                    hi: r.f32()?,
                    current: r.f32()?,
                    history: r.vec(|r| Ok((r.u64()? as usize, r.f32()?, r.bool()?)))?,
                }),
                other => return Err(SnapshotError::new(format!("bad search flag {other}"))),
            };
            Ok(LayerState::Adversary {
                search,
                detected: r.bools()?,
            })
        }
        other => Err(SnapshotError::new(format!("unknown layer tag {other}"))),
    })?;
    let metrics = r.vec(|r| {
        let name = r.str()?;
        let labels = r.vec(|r| Ok((r.str()?, r.str()?)))?;
        let value = match r.u8()? {
            TAG_COUNTER => MetricValue::Counter(r.u64()?),
            TAG_GAUGE => MetricValue::Gauge(r.f64()?),
            TAG_HISTOGRAM => MetricValue::Histogram(HistogramStats {
                count: r.u64()?,
                sum: r.f64()?,
                min: r.f64()?,
                max: r.f64()?,
                p50: r.f64()?,
                p90: r.f64()?,
                p99: r.f64()?,
            }),
            other => return Err(SnapshotError::new(format!("unknown metric tag {other}"))),
        };
        Ok(MetricSample {
            name,
            labels,
            value,
        })
    })?;
    if r.pos != r.bytes.len() {
        return Err(SnapshotError::new(format!(
            "{} trailing bytes after snapshot",
            r.bytes.len() - r.pos
        )));
    }
    Ok(EngineSnapshot {
        version,
        seed,
        config_hash,
        base_hash,
        round,
        model,
        cost: CostCounters {
            messages: cost[0],
            bytes: cost[1],
            excluded: cost[2],
            absent: cost[3],
            faulted: cost[4],
            quarantined: cost[5],
            withheld: cost[6],
        },
        rounds,
        faults,
        susp_log,
        layers,
        metrics,
    })
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    fn bools(&mut self, flags: &[bool]) {
        self.u64(flags.len() as u64);
        self.0.extend(flags.iter().map(|&b| b as u8));
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::new(format!(
                "truncated snapshot (need {n} bytes at offset {})",
                self.pos
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::new(format!("bad bool byte {other}"))),
        }
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(u32::from_le_bytes(
            self.take(4)?.try_into().unwrap(),
        )))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(SnapshotError::new(format!("bad option flag {other}"))),
        }
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::new("string is not valid UTF-8"))
    }

    fn bools(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.bool()).collect()
    }

    /// A `u64` length prefix, sanity-capped by the remaining input so a
    /// corrupt length cannot trigger a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        if len > (self.bytes.len() - self.pos) as u64 {
            return Err(SnapshotError::new(format!(
                "length prefix {len} exceeds remaining {} bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(len as usize)
    }

    fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }
}
