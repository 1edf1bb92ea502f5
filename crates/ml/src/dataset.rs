//! In-memory labelled datasets with row-major features.

use std::ops::Range;

/// What a partitioner reads of a training set: its labels, nothing of
/// its features — so a set whose features are generated on demand
/// ([`crate::synth::SynthPlan`]) partitions exactly as a dense one.
pub trait Labelled {
    /// Label of every sample, in sample order.
    fn labels(&self) -> &[u8];

    /// Number of classes the labels range over.
    fn num_classes(&self) -> usize;

    /// Indices of samples grouped by label.
    fn indices_by_label(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_classes()];
        for (i, y) in self.labels().iter().enumerate() {
            groups[*y as usize].push(i);
        }
        groups
    }
}

impl Labelled for Dataset {
    fn labels(&self) -> &[u8] {
        &self.ys
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// A labelled classification dataset.
///
/// Features are stored row-major in one contiguous buffer (`n × dim`),
/// labels as `u8` class ids in `0..num_classes`. Client shards produced by
/// the partitioners are owned `Dataset`s, so local training never touches
/// shared memory.
#[derive(Clone, Debug)]
pub struct Dataset {
    dim: usize,
    num_classes: usize,
    xs: Vec<f32>,
    ys: Vec<u8>,
}

impl Dataset {
    /// An empty dataset with the given feature dimension and class count.
    pub fn empty(dim: usize, num_classes: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(
            (1..=256).contains(&num_classes),
            "num_classes must be in 1..=256"
        );
        Self {
            dim,
            num_classes,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Builds a dataset from flat row-major features and labels.
    ///
    /// # Panics
    /// If buffer sizes disagree or any label is out of range.
    pub fn from_parts(dim: usize, num_classes: usize, xs: Vec<f32>, ys: Vec<u8>) -> Self {
        assert_eq!(xs.len(), ys.len() * dim, "feature/label size mismatch");
        assert!(
            ys.iter().all(|y| (*y as usize) < num_classes),
            "label out of range"
        );
        let mut d = Self::empty(dim, num_classes);
        d.xs = xs;
        d.ys = ys;
        d
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when the dataset holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature row of sample `i`.
    #[inline]
    pub fn x(&self, i: usize) -> &[f32] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }

    /// Label of sample `i`.
    #[inline]
    pub fn y(&self, i: usize) -> u8 {
        self.ys[i]
    }

    /// Overwrites the label of sample `i` (used by data-poisoning attacks).
    pub fn set_y(&mut self, i: usize, y: u8) {
        assert!((y as usize) < self.num_classes, "label out of range");
        self.ys[i] = y;
    }

    /// Mutable feature row of sample `i` (used by feature-noise /
    /// backdoor-trigger attacks).
    pub fn x_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.xs[i * self.dim..(i + 1) * self.dim]
    }

    /// All labels.
    pub fn labels(&self) -> &[u8] {
        &self.ys
    }

    /// Appends one sample.
    pub fn push(&mut self, x: &[f32], y: u8) {
        assert_eq!(x.len(), self.dim, "pushed sample has wrong dimension");
        assert!((y as usize) < self.num_classes, "label out of range");
        self.xs.extend_from_slice(x);
        self.ys.push(y);
    }

    /// Appends one sample labelled `y` with all-zero features and
    /// returns its feature row, for a producer that writes in place.
    pub fn push_row(&mut self, y: u8) -> &mut [f32] {
        assert!((y as usize) < self.num_classes, "label out of range");
        self.ys.push(y);
        let start = self.xs.len();
        self.xs.resize(start + self.dim, 0.0);
        &mut self.xs[start..]
    }

    /// Drops every sample and keeps the buffers, so a refill of no more
    /// samples than the set has held allocates nothing.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// Makes room for `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.xs.reserve(additional * self.dim);
        self.ys.reserve(additional);
    }

    /// A new dataset containing the samples at `indices` (in order).
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut out = Self::empty(self.dim, self.num_classes);
        out.xs.reserve(indices.len() * self.dim);
        out.ys.reserve(indices.len());
        for &i in indices {
            out.xs.extend_from_slice(self.x(i));
            out.ys.push(self.ys[i]);
        }
        out
    }

    /// Row ranges of `k` near-equal contiguous shards (sizes differ by
    /// at most 1, the longer ones first).
    pub fn even_ranges(&self, k: usize) -> impl Iterator<Item = Range<usize>> {
        assert!(k > 0, "cannot split into zero shards");
        let (base, extra) = (self.len() / k, self.len() % k);
        (0..k).map(move |s| {
            let start = s * base + s.min(extra);
            start..start + base + usize::from(s < extra)
        })
    }

    /// Splits into `k` near-equal contiguous shards, copying the rows
    /// of each [`Self::even_ranges`] range into an owned dataset.
    pub fn split_even(&self, k: usize) -> Vec<Self> {
        self.even_ranges(k)
            .map(|rows| Self {
                dim: self.dim,
                num_classes: self.num_classes,
                xs: self.xs[rows.start * self.dim..rows.end * self.dim].to_vec(),
                ys: self.ys[rows].to_vec(),
            })
            .collect()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for y in &self.ys {
            counts[*y as usize] += 1;
        }
        counts
    }

    /// The set of labels actually present.
    pub fn present_labels(&self) -> Vec<u8> {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(l, _)| l as u8)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::empty(2, 3);
        d.push(&[0.0, 0.0], 0);
        d.push(&[1.0, 0.0], 1);
        d.push(&[0.0, 1.0], 2);
        d.push(&[1.0, 1.0], 1);
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.x(3), &[1.0, 1.0]);
        assert_eq!(d.y(3), 1);
    }

    #[test]
    fn subset_preserves_order() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.y(0), 2);
        assert_eq!(s.y(1), 0);
        assert_eq!(s.x(0), &[0.0, 1.0]);
    }

    #[test]
    fn split_even_sizes() {
        let d = toy();
        let parts = d.split_even(3);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert_eq!(sizes, vec![2, 1, 1]);
    }

    #[test]
    fn class_counts_and_present_labels() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![1, 2, 1]);
        assert_eq!(d.present_labels(), vec![0, 1, 2]);
    }

    #[test]
    fn indices_by_label_groups() {
        let d = toy();
        let g = d.indices_by_label();
        assert_eq!(g[1], vec![1, 3]);
    }

    #[test]
    fn set_y_poisons_label() {
        let mut d = toy();
        d.set_y(0, 2);
        assert_eq!(d.y(0), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let mut d = toy();
        d.push(&[0.0, 0.0], 3);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn bad_dim_panics() {
        let mut d = toy();
        d.push(&[0.0], 0);
    }
}
