//! Proposal evaluators: how an honest node scores a proposed model.

use std::borrow::Cow;
use std::ops::Range;

use hfl_ml::model::BatchScratch;
use hfl_ml::{Dataset, Model};

/// Scores a proposal from one node's local perspective (higher = better).
pub trait ProposalEvaluator: Sync {
    /// Score of `params` as judged by node `voter`.
    fn score(&self, voter: usize, params: &[f32]) -> f64;

    /// One voter's scores for a whole ballot: `out[p]` becomes
    /// `score(voter, proposals[p])`. Evaluators with per-voter set-up
    /// override this to pay it once per ballot instead of per proposal.
    fn score_all(&self, voter: usize, proposals: &[&[f32]], out: &mut [f64]) {
        assert_eq!(proposals.len(), out.len(), "proposals/out length mismatch");
        for (o, p) in out.iter_mut().zip(proposals) {
            *o = self.score(voter, p);
        }
    }
}

/// The `voters × proposals` score matrix, row-major: entry `k *
/// proposals.len() + p` is `eval.score(voters[k], proposals[p])`,
/// voters scored in parallel. Row `k` is filled by exactly one worker
/// and each score is a pure function of `(voter, proposal)`, so the
/// matrix is identical at every thread count (DESIGN.md §15).
pub(crate) fn score_rows(
    voters: &[usize],
    proposals: &[&[f32]],
    eval: &dyn ProposalEvaluator,
) -> Vec<f64> {
    let mut scores = vec![0.0f64; voters.len() * proposals.len()];
    let threads = hfl_parallel::default_threads();
    hfl_parallel::par_chunks_mut(&mut scores, proposals.len(), threads, |at, row| {
        eval.score_all(voters[at / proposals.len()], proposals, row);
    });
    scores
}

/// Accuracy-based evaluator (the paper's top-level mechanism): node `i`
/// evaluates a proposal by loading it into a model and measuring accuracy
/// on its private validation shard — the 10 000 MNIST test images split
/// evenly over the top-level nodes (Appendix D.B).
pub struct AccuracyEvaluator<'a> {
    template: Box<dyn Model>,
    /// One shard per voter: a row range of an owned or borrowed dataset.
    shards: Vec<(Cow<'a, Dataset>, Range<usize>)>,
}

impl<'a> AccuracyEvaluator<'a> {
    /// Builds the evaluator from a model template (architecture donor)
    /// and one owned validation shard per voter.
    pub fn new(template: Box<dyn Model>, shards: Vec<Dataset>) -> Self {
        let shards = shards
            .into_iter()
            .map(|s| {
                let rows = 0..s.len();
                (Cow::Owned(s), rows)
            })
            .collect();
        Self::over(template, shards)
    }

    /// The evaluator [`Self::new`] builds over `data.split_even(voters)`,
    /// borrowing each voter's rows of `data` instead of copying them.
    pub fn split_rows(template: Box<dyn Model>, data: &'a Dataset, voters: usize) -> Self {
        let shards = data
            .even_ranges(voters)
            .map(|rows| (Cow::Borrowed(data), rows))
            .collect();
        Self::over(template, shards)
    }

    fn over(template: Box<dyn Model>, shards: Vec<(Cow<'a, Dataset>, Range<usize>)>) -> Self {
        assert!(!shards.is_empty(), "need at least one validation shard");
        assert!(
            shards.iter().all(|(_, rows)| !rows.is_empty()),
            "validation shards must be non-empty"
        );
        Self { template, shards }
    }

    /// Number of voters this evaluator can serve.
    pub fn voters(&self) -> usize {
        self.shards.len()
    }
}

impl ProposalEvaluator for AccuracyEvaluator<'_> {
    fn score(&self, voter: usize, params: &[f32]) -> f64 {
        let mut out = [0.0];
        self.score_all(voter, &[params], &mut out);
        out[0]
    }

    /// The voter's shard goes past the whole ballot at once: the
    /// template scores every proposal in one scratch, loading none.
    fn score_all(&self, voter: usize, proposals: &[&[f32]], out: &mut [f64]) {
        assert!(voter < self.shards.len(), "voter index out of range");
        assert_eq!(proposals.len(), out.len(), "proposals/out length mismatch");
        let (data, rows) = &self.shards[voter];
        let mut hits = vec![0; proposals.len()];
        let mut scratch = BatchScratch::default();
        self.template
            .count_correct_each(proposals, data, rows.clone(), &mut scratch, &mut hits);
        for (o, h) in out.iter_mut().zip(hits) {
            *o = h as f64 / rows.len() as f64;
        }
    }
}

/// Distance-based evaluator for tests and for deployments without local
/// validation data: node `i` scores a proposal by proximity to its own
/// proposal (negated distance). Borrows the reference rows — owned
/// (`&[Vec<f32>]`) or already-borrowed (`&[&[f32]]`, a round's inputs)
/// alike — so building one per decision copies nothing.
pub struct DistanceEvaluator<'a, R = Vec<f32>> {
    own: &'a [R],
}

impl<'a, R: AsRef<[f32]>> DistanceEvaluator<'a, R> {
    /// One reference vector per voter (typically each node's own
    /// proposal).
    pub fn new(own: &'a [R]) -> Self {
        assert!(!own.is_empty(), "need at least one reference vector");
        Self { own }
    }
}

impl<R: AsRef<[f32]> + Sync> ProposalEvaluator for DistanceEvaluator<'_, R> {
    fn score(&self, voter: usize, params: &[f32]) -> f64 {
        assert!(voter < self.own.len(), "voter index out of range");
        -hfl_tensor::ops::dist(self.own[voter].as_ref(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_ml::LinearSoftmax;

    #[test]
    fn distance_evaluator_prefers_nearby() {
        let own = vec![vec![0.0f32, 0.0]];
        let ev = DistanceEvaluator::new(&own);
        assert!(ev.score(0, &[0.1, 0.0]) > ev.score(0, &[5.0, 5.0]));
    }

    #[test]
    fn accuracy_evaluator_scores_models() {
        // A 1-dim 2-class task: class 1 iff x > 0.
        let mut shard = Dataset::empty(1, 2);
        shard.push(&[-1.0], 0);
        shard.push(&[1.0], 1);
        shard.push(&[-2.0], 0);
        shard.push(&[2.0], 1);
        let template: Box<dyn Model> = Box::new(LinearSoftmax::new(1, 2));
        let ev = AccuracyEvaluator::new(template, vec![shard]);

        let good = [-5.0f32, 5.0, 0.0, 0.0]; // predicts sign(x)
        let bad = [5.0f32, -5.0, 0.0, 0.0]; // inverted
        assert_eq!(ev.score(0, &good), 1.0);
        assert_eq!(ev.score(0, &bad), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_voter_panics() {
        let own = [vec![0.0f32]];
        DistanceEvaluator::new(&own).score(3, &[0.0]);
    }
}
