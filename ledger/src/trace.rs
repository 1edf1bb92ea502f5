//! Spans recorded from outside the program under test: the ledger times
//! calls into public functions and keeps `{id, parent, workload, round,
//! name, start, end}` records in memory, written out once at exit.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Workload the span belongs to (all spans of one traced rep share it).
    pub workload: &'static str,
    /// Engine round (or scenario index) the span belongs to.
    pub round: u32,
    /// Layer-qualified name, e.g. `core.train`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one traced rep.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Self {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, round: usize) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            workload: self.workload,
            round: round as u32,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes `id` and returns its duration in ns.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Times `f` under a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, round);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Sum of the durations of every span called `name`, and their count.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.duration_ns(), n + 1))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent
/// and overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.workload, s.round, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
