//! The discrete-event engine: actors, messages, timers, accounting.
//!
//! Determinism contract: given the same actors, delay model and seed, the
//! event sequence is identical run-to-run. Equal-timestamp events are
//! ordered by a monotone sequence number (schedule order).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::delay::DelayModel;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Index of a node in the simulation.
pub type NodeId = usize;

#[derive(Debug)]
enum EventKind<P> {
    Deliver { src: NodeId, dst: NodeId, msg: P },
    Timer { node: NodeId, id: u64 },
}

struct Scheduled<P> {
    at: SimTime,
    seq: u64,
    kind: EventKind<P>,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P> Eq for Scheduled<P> {}
impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// What an actor can do during a callback: send messages, set timers,
/// read the clock, record trace events, stop the run.
///
/// Effects are buffered and applied by the engine after the callback
/// returns, which keeps the engine entirely safe Rust (no split borrows
/// between the actor vector and the engine state).
pub struct Ctx<P> {
    now: SimTime,
    node: NodeId,
    outbox: Vec<(NodeId, P, Option<SimTime>)>,
    timers: Vec<(SimTime, u64)>,
    trace_buf: Vec<(SimTime, TraceEvent)>,
    stop: bool,
}

impl<P> Ctx<P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's node id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `dst`; delivery delay is drawn from the network's
    /// delay model.
    pub fn send(&mut self, dst: NodeId, msg: P) {
        self.outbox.push((dst, msg, None));
    }

    /// Sends with an explicit delivery delay (overrides the delay model —
    /// used to model local computation handoffs).
    pub fn send_after(&mut self, dst: NodeId, msg: P, delay: SimTime) {
        self.outbox.push((dst, msg, Some(delay)));
    }

    /// Fires `on_timer(id)` on this actor after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) {
        self.timers.push((self.now + delay, id));
    }

    /// Appends a trace event at the current time.
    pub fn trace(&mut self, event: TraceEvent) {
        self.trace_buf.push((self.now, event));
    }

    /// Requests the simulation to stop after this callback.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// A protocol participant.
pub trait Actor<P> {
    /// Called once at simulation start (time 0).
    fn on_start(&mut self, ctx: &mut Ctx<P>);

    /// A message from `src` has been delivered.
    fn on_message(&mut self, ctx: &mut Ctx<P>, src: NodeId, msg: P);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<P>, id: u64) {
        let _ = (ctx, id);
    }
}

/// Aggregate network accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Events processed (messages + timers).
    pub events: u64,
}

/// The simulation: a set of actors, a delay model, an event queue.
pub struct Simulation<P, A: Actor<P>> {
    actors: Vec<A>,
    queue: BinaryHeap<Reverse<Scheduled<P>>>,
    delay: DelayModel,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    stats: NetStats,
    trace: Trace,
    payload_bytes: Box<dyn Fn(&P) -> u64>,
}

impl<P, A: Actor<P>> Simulation<P, A> {
    /// Builds a simulation over `actors` with one shared delay model.
    ///
    /// `payload_bytes` sizes each payload for byte accounting (e.g.
    /// `4 · param_len` for model messages).
    pub fn new(
        actors: Vec<A>,
        delay: DelayModel,
        seed: u64,
        payload_bytes: impl Fn(&P) -> u64 + 'static,
    ) -> Self {
        assert!(!actors.is_empty(), "simulation needs at least one actor");
        Self {
            actors,
            queue: BinaryHeap::new(),
            delay,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            stats: NetStats::default(),
            trace: Trace::new(),
            payload_bytes: Box::new(payload_bytes),
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, kind }));
    }

    fn flush_ctx_effects(
        &mut self,
        node: NodeId,
        outbox: Vec<(NodeId, P, Option<SimTime>)>,
        timers: Vec<(SimTime, u64)>,
    ) {
        for (dst, msg, explicit) in outbox {
            assert!(dst < self.actors.len(), "send to unknown node {dst}");
            let delay = explicit.unwrap_or_else(|| self.delay.sample(&mut self.rng));
            let at = self.now + delay;
            self.push(
                at,
                EventKind::Deliver {
                    src: node,
                    dst,
                    msg,
                },
            );
        }
        for (at, id) in timers {
            self.push(at, EventKind::Timer { node, id });
        }
    }

    fn run_callback(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<P>)) -> bool {
        let mut ctx = Ctx {
            now: self.now,
            node,
            outbox: Vec::new(),
            timers: Vec::new(),
            trace_buf: Vec::new(),
            stop: false,
        };
        f(&mut self.actors[node], &mut ctx);
        let Ctx {
            outbox,
            timers,
            trace_buf,
            stop,
            ..
        } = ctx;
        for (at, event) in trace_buf {
            self.trace.record(at, event);
        }
        self.flush_ctx_effects(node, outbox, timers);
        stop
    }

    /// Runs to completion: starts every actor, then processes events until
    /// the queue drains, an actor calls [`Ctx::stop`], or `max_events`
    /// is hit (a runaway-protocol guard).
    ///
    /// Returns the final statistics.
    pub fn run(&mut self, max_events: u64) -> NetStats {
        let n = self.actors.len();
        for node in 0..n {
            if self.run_callback(node, |a, ctx| a.on_start(ctx)) {
                return self.stats;
            }
        }
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now = ev.at;
            self.stats.events += 1;
            assert!(
                self.stats.events <= max_events,
                "event budget exhausted ({max_events}) — runaway protocol?"
            );
            let stop = match ev.kind {
                EventKind::Deliver { src, dst, msg } => {
                    self.stats.messages += 1;
                    self.stats.bytes += (self.payload_bytes)(&msg);
                    self.run_callback(dst, |a, ctx| a.on_message(ctx, src, msg))
                }
                EventKind::Timer { node, id } => {
                    self.run_callback(node, |a, ctx| a.on_timer(ctx, id))
                }
            };
            if stop {
                break;
            }
        }
        self.stats
    }

    /// Current simulated time (after `run`, the time of the last event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The engine's cross-event mutable state `(now, seq, stats)` — what
    /// a checkpoint of a quiesced simulation must carry. The event queue
    /// is intentionally absent: snapshots are only taken between rounds,
    /// when the queue has drained.
    pub fn snapshot_clock(&self) -> (SimTime, u64, NetStats) {
        (self.now, self.seq, self.stats)
    }

    /// Restores `(now, seq, stats)` captured by [`Self::snapshot_clock`]
    /// on a fresh simulation. Refuses when events are already queued —
    /// in-flight messages cannot be reconstructed from a clock snapshot.
    pub fn restore_clock(&mut self, now: SimTime, seq: u64, stats: NetStats) -> Result<(), String> {
        if !self.queue.is_empty() {
            return Err(format!(
                "cannot restore clock with {} events in flight",
                self.queue.len()
            ));
        }
        self.now = now;
        self.seq = seq;
        self.stats = stats;
        Ok(())
    }

    /// The recorded trace timeline.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The actors, for post-run inspection.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Mutable access to actors (e.g. to reset between rounds).
    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: node 0 sends `count` pings to node 1, which echoes.
    struct PingPong {
        id: NodeId,
        remaining: u32,
        received: u32,
    }

    impl Actor<u32> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if self.id == 0 {
                ctx.send(1, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, src: NodeId, msg: u32) {
            self.received += 1;
            if self.id == 0 {
                if self.remaining == 0 {
                    ctx.stop();
                } else {
                    self.remaining -= 1;
                    ctx.send(src, msg + 1);
                }
            } else {
                ctx.send(src, msg + 1);
            }
        }
    }

    fn pingpong_sim(seed: u64) -> Simulation<u32, PingPong> {
        Simulation::new(
            vec![
                PingPong {
                    id: 0,
                    remaining: 10,
                    received: 0,
                },
                PingPong {
                    id: 1,
                    remaining: 0,
                    received: 0,
                },
            ],
            DelayModel::Uniform { lo: 10, hi: 100 },
            seed,
            |_| 4,
        )
    }

    #[test]
    fn pingpong_exchanges_expected_messages() {
        let mut sim = pingpong_sim(1);
        let stats = sim.run(10_000);
        // 0 sends 1 initial + 10 follow-ups; 1 echoes each of its 11.
        assert_eq!(sim.actors()[1].received, 11);
        assert_eq!(stats.messages, 22);
        assert_eq!(stats.bytes, 22 * 4);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut sim = pingpong_sim(2);
        sim.run(10_000);
        assert!(sim.now() > SimTime::ZERO);
        // 22 hops at ≥10µs each
        assert!(sim.now().as_micros() >= 220);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = pingpong_sim(3);
        let mut b = pingpong_sim(3);
        a.run(10_000);
        b.run(10_000);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seed_different_schedule() {
        let mut a = pingpong_sim(4);
        let mut b = pingpong_sim(5);
        a.run(10_000);
        b.run(10_000);
        assert_ne!(a.now(), b.now());
    }

    /// Timer test: an actor that counts timer firings.
    struct TimerActor {
        fired: Vec<u64>,
    }
    impl Actor<()> for TimerActor {
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(SimTime::from_micros(50), 7);
            ctx.set_timer(SimTime::from_micros(10), 3);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<()>, _src: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<()>, id: u64) {
            self.fired.push(id);
            if self.fired.len() == 2 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = Simulation::new(
            vec![TimerActor { fired: vec![] }],
            DelayModel::Constant { micros: 1 },
            0,
            |_| 0,
        );
        sim.run(100);
        assert_eq!(sim.actors()[0].fired, vec![3, 7]);
        assert_eq!(sim.now(), SimTime::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "event budget exhausted")]
    fn runaway_protocol_is_caught() {
        /// Echoes forever.
        struct Loopy;
        impl Actor<()> for Loopy {
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.send(0, ());
            }
            fn on_message(&mut self, ctx: &mut Ctx<()>, _src: NodeId, _msg: ()) {
                ctx.send(0, ());
            }
        }
        let mut sim = Simulation::new(vec![Loopy], DelayModel::Constant { micros: 1 }, 0, |_| 0);
        sim.run(100);
    }

    #[test]
    fn clock_snapshot_round_trips_on_a_fresh_sim() {
        let mut sim = pingpong_sim(9);
        sim.run(10_000);
        let (now, seq, stats) = sim.snapshot_clock();
        assert!(now > SimTime::ZERO);

        let mut fresh = pingpong_sim(9);
        fresh.restore_clock(now, seq, stats).unwrap();
        assert_eq!(fresh.now(), now);
        assert_eq!(fresh.stats(), stats);
        assert_eq!(fresh.snapshot_clock(), (now, seq, stats));
    }

    #[test]
    fn clock_restore_refuses_in_flight_events() {
        let mut sim = pingpong_sim(10);
        sim.queue.push(Reverse(Scheduled {
            at: SimTime::from_micros(5),
            seq: 0,
            kind: EventKind::Deliver {
                src: 0,
                dst: 1,
                msg: 7,
            },
        }));
        let err = sim
            .restore_clock(SimTime::ZERO, 0, NetStats::default())
            .unwrap_err();
        assert!(err.contains("in flight"), "{err}");
    }

    #[test]
    fn send_after_overrides_delay_model() {
        struct Fixed {
            got_at: Option<SimTime>,
        }
        impl Actor<()> for Fixed {
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if ctx.me() == 0 {
                    ctx.send_after(1, (), SimTime::from_micros(12345));
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<()>, _src: NodeId, _msg: ()) {
                self.got_at = Some(ctx.now());
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(
            vec![Fixed { got_at: None }, Fixed { got_at: None }],
            DelayModel::Constant { micros: 1 },
            0,
            |_| 0,
        );
        sim.run(100);
        assert_eq!(sim.actors()[1].got_at, Some(SimTime::from_micros(12345)));
    }
}
