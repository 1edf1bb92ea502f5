//! The round clock (DESIGN.md §9): what turns the engine's one round
//! into the paper's **pipeline learning workflow** (§III-D, Fig. 2).
//!
//! Per round the timing dependencies of Algorithms 3–5 form a tree —
//! collection runs bottom-up, dissemination top-down — and rounds couple
//! only through *when* and *from which model* a device starts training,
//! so no event queue is needed: every slot carries a `ready_at` stamp
//! (absolute integer µs) beside the model it carries upward, the cluster
//! step's collect orders its candidates by `ready_at + link draw`, and
//! this module stamps what follows from a close.
//!
//! The **lockstep** schedule has no clock: nothing is ever stamped, so
//! every buffer opens at t = 0 and every client starts round `r+1` from
//! global model `r`. The **pipelined** schedule owns a [`Clock`], which
//! is consulted at exactly four points of a round:
//!
//! 1. [`Clock::start_round`] — before training: when each slot starts
//!    (its flag model's arrival), from which model (its ℓ_F-cluster's
//!    partial, merged through Eq. 1 with every global model that lands
//!    while it trains), and who sits the round out (still training when
//!    the flag arrives);
//! 2. [`Clock::open_buffers`] — before aggregation: the bottom level's
//!    `ready_at` stamps and the absences;
//! 3. [`Clock::cluster_closed`] — after each cluster step: the leader's
//!    stamp (`close + aggregation delay`), the bottom cluster's first
//!    arrival, the flag model at level ℓ_F;
//! 4. [`Clock::round_closed`] — after the top: flag and global arrival
//!    times down the tree, from which σ_w, σ and ν (Eq. 3) are plain
//!    subtractions.

use std::collections::VecDeque;

use hfl_ml::rng::rng_for_n;
use rand::rngs::StdRng;

use super::pool::StepScratch;
use super::step::{link_delay, LevelRule};
use crate::pipeline::{PipelineConfig, PipelineResult, RoundTiming};
use crate::runner::{Experiment, RunResult};

/// RNG stream tags of the clock's own draws: training durations (one
/// per slot per round), aggregation durations (one per closed cluster)
/// and downward link delays (one per tree edge per model sent down).
const TRAIN_STREAM: u64 = 0xC10C;
const AGG_STREAM: u64 = 0xC1A6;
const DOWN_STREAM: u64 = 0xC1D0;

/// A global model on its way down the tree.
#[derive(Default)]
struct Landing {
    model: Vec<f32>,
    /// When it reaches each slot.
    at: Vec<u64>,
}

/// The pipelined schedule's state. All times are absolute µs.
pub(super) struct Clock<'e> {
    exp: &'e Experiment,
    pcfg: PipelineConfig,
    /// Mean duration of one local iteration — the staleness unit of the
    /// correction factor (Eq. 1).
    iter_us: f64,
    /// The ℓ_F-cluster above each slot.
    flag_of: Vec<usize>,
    /// Per ℓ_F-cluster: the share of all clients below it (Eq. 1's
    /// relative dataset size), the partial it last formed — its members'
    /// flag model — and when, if it formed one this round.
    flag_share: Vec<f64>,
    flag_model: Vec<Vec<f32>>,
    flag_formed: Vec<Option<u64>>,
    /// Per slot: when the latest flag model arrived, when the training
    /// it is in ends, and whether it sits this round out.
    flag_at: Vec<u64>,
    trained_at: Vec<u64>,
    sits_out: Vec<bool>,
    /// Per bottom cluster: its first arrival this round, if it collected.
    first_rx: Vec<Option<u64>>,
    /// Global models some slot has yet to train past, oldest first, and
    /// retired ones kept for their capacity.
    landings: VecDeque<Landing>,
    spare: Vec<Landing>,
    rounds: Vec<RoundTiming>,
    /// When each round's global model was formed.
    formed: Vec<u64>,
    corrections: u64,
    end_us: u64,
}

/// Sends a model down the tree from `level`: every cluster leader
/// already holds it at `at[leader]`; each other member receives it one
/// link draw later (Algorithm 5).
fn descend(exp: &Experiment, level: usize, at: &mut [u64], rng: &mut StdRng) {
    let h = &exp.hierarchy;
    let link = link_delay(exp.config());
    for l in level..h.num_levels() {
        for cluster in &h.level(l).clusters {
            let leader = cluster.leader();
            for &m in cluster.members.iter().filter(|&&m| m != leader) {
                at[m] = at[leader].saturating_add(link.sample(rng).as_micros());
            }
        }
    }
}

impl<'e> Clock<'e> {
    pub(super) fn new(exp: &'e Experiment, pcfg: &PipelineConfig) -> Self {
        let cfg = exp.config();
        let h = &exp.hierarchy;
        let n = h.num_clients();
        let flag_clusters = h.level(cfg.flag_level).num_clusters();
        let mut flag_of = vec![0; n];
        let mut flag_share = Vec::with_capacity(flag_clusters);
        for ci in 0..flag_clusters {
            let below = h.descendants(cfg.flag_level, ci);
            flag_share.push(below.len() as f64 / n as f64);
            for s in below {
                flag_of[s] = ci;
            }
        }
        Self {
            exp,
            pcfg: pcfg.clone(),
            iter_us: pcfg.train_delay.mean_micros() / cfg.local_iters.max(1) as f64,
            flag_of,
            flag_share,
            flag_model: vec![Vec::new(); flag_clusters],
            flag_formed: vec![None; flag_clusters],
            flag_at: vec![0; n],
            trained_at: vec![0; n],
            sits_out: vec![false; n],
            first_rx: vec![None; h.level(h.bottom_level()).num_clusters()],
            landings: VecDeque::new(),
            spare: Vec::new(),
            rounds: Vec::with_capacity(pcfg.rounds),
            formed: Vec::with_capacity(pcfg.rounds),
            corrections: 0,
            end_us: 0,
        }
    }

    /// Chooses every slot's start time and start model for `round` and
    /// writes the models into `starts` (an empty row sits the round
    /// out). Round 0 starts everyone at t = 0 from `global`; later
    /// rounds start a slot when its flag model arrived, from that
    /// model, unless it is still training then. One training duration
    /// is drawn per slot, sitting out or not, so one slot's fate never
    /// shifts another's draw.
    pub(super) fn start_round(&mut self, global: &[f32], round: usize, starts: &mut Vec<Vec<f32>>) {
        let cfg = self.exp.config();
        if round == 0 {
            for m in &mut self.flag_model {
                m.clear();
                m.extend_from_slice(global);
            }
        }
        let mut rng = rng_for_n(cfg.seed, &[round as u64, TRAIN_STREAM]);
        starts.resize_with(self.flag_of.len(), Vec::new);
        for (s, start_model) in starts.iter_mut().enumerate() {
            let took = self.pcfg.train_delay.sample(&mut rng).as_micros();
            let start = self.flag_at[s];
            self.sits_out[s] = self.trained_at[s] > start;
            start_model.clear();
            if self.sits_out[s] {
                continue;
            }
            let end = start.saturating_add(took);
            let flag = self.flag_of[s];
            start_model.extend_from_slice(&self.flag_model[flag]);
            for landing in &self.landings {
                if (start..end).contains(&landing.at[s]) {
                    let staleness = if self.iter_us > 0.0 {
                        (landing.at[s] - start) as f64 / self.iter_us
                    } else {
                        0.0
                    };
                    let alpha = cfg.correction.alpha(staleness, self.flag_share[flag]);
                    cfg.correction.merge(alpha, &landing.model, start_model);
                    self.corrections += 1;
                }
            }
            self.trained_at[s] = end;
        }
        // A landing every slot has trained past can merge nowhere any
        // more: a later window starts later still.
        while self
            .landings
            .front()
            .is_some_and(|l| l.at.iter().zip(&self.trained_at).all(|(at, end)| at < end))
        {
            self.spare.extend(self.landings.pop_front());
        }
    }

    /// The bottom level's stamps: an update is ready when its training
    /// ends, and a slot that sits the round out is absent from it.
    pub(super) fn open_buffers(&self, ready_at: &mut Vec<u64>, active: &mut [bool]) {
        ready_at.clear();
        ready_at.extend_from_slice(&self.trained_at);
        for (present, &out) in active.iter_mut().zip(&self.sits_out) {
            *present &= !out;
        }
    }

    /// A cluster step closed: returns when its leader holds the
    /// aggregate — the close plus one aggregation, `cba_delay_factor`
    /// times longer where the level runs a consensus mechanism. Records
    /// a bottom cluster's first arrival and, at level ℓ_F, the partial
    /// as its members' next flag model.
    pub(super) fn cluster_closed(
        &mut self,
        round: usize,
        (level, index): (usize, usize),
        rule: &LevelRule,
        step: &StepScratch,
        partial: &[f32],
    ) -> u64 {
        let cfg = self.exp.config();
        let site = [round as u64, level as u64, index as u64, AGG_STREAM];
        let mut took = self.pcfg.agg_delay.sample(&mut rng_for_n(cfg.seed, &site));
        if matches!(rule, LevelRule::Cba(_)) {
            took = took.saturating_scale(self.pcfg.cba_delay_factor);
        }
        let formed = step.closed_at.saturating_add(took.as_micros());
        if level == self.exp.hierarchy.bottom_level() {
            self.first_rx[index] = Some(step.first_at);
        }
        if level == cfg.flag_level {
            self.flag_model[index].clear();
            self.flag_model[index].extend_from_slice(partial);
            self.flag_formed[index] = Some(formed);
        }
        formed
    }

    /// The top closed at `formed` with `global`: sends the global model
    /// and every flag model down the tree, and reads the round's timing
    /// (Eq. 2–3) off the arrival stamps. An ℓ_F-cluster that formed no
    /// partial this round has no flag model to send; its members start
    /// the next round from the global model, when that arrives.
    pub(super) fn round_closed(&mut self, round: usize, formed: u64, global: &[f32]) {
        let exp = self.exp;
        let cfg = exp.config();
        let h = &exp.hierarchy;
        let mut rng = rng_for_n(cfg.seed, &[round as u64, DOWN_STREAM]);

        let mut landing = self.spare.pop().unwrap_or_default();
        landing.model.clear();
        landing.model.extend_from_slice(global);
        landing.at.clear();
        landing.at.resize(self.flag_of.len(), 0);
        landing.at[h.level(0).clusters[0].leader()] = formed;
        descend(exp, 0, &mut landing.at, &mut rng);

        let flag_clusters = &h.level(cfg.flag_level).clusters;
        for (ci, cluster) in flag_clusters.iter().enumerate() {
            let leader = cluster.leader();
            self.flag_at[leader] = self.flag_formed[ci].take().unwrap_or_else(|| {
                self.flag_model[ci].clear();
                self.flag_model[ci].extend_from_slice(global);
                landing.at[leader]
            });
        }
        descend(exp, cfg.flag_level, &mut self.flag_at, &mut rng);

        let bottom = &h.level(h.bottom_level()).clusters;
        let stamps = bottom.iter().zip(&mut self.first_rx).filter_map(|(c, rx)| {
            let leader = c.leader();
            rx.take()
                .map(|first| (first, self.flag_at[leader], landing.at[leader]))
        });
        self.rounds.extend(RoundTiming::from_stamps(round, stamps));
        self.formed.push(formed);
        self.end_us = landing.at.iter().copied().fold(self.end_us, u64::max);
        self.landings.push_back(landing);
    }

    /// The per-round timing record so far.
    pub(super) fn rounds(&self) -> &[RoundTiming] {
        &self.rounds
    }

    /// The clock's record folded with the run's result.
    pub(super) fn result(&self, run: &RunResult) -> PipelineResult {
        PipelineResult::summarize(
            self.rounds.clone(),
            &self.formed,
            self.end_us,
            self.corrections,
            run,
        )
    }
}
