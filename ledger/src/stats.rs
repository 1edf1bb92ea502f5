//! Sample summaries: every timing the ledger reports is a median over
//! repetitions, printed with its min, max and sample count.

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle sample (mean of the two middle ones for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    /// On an empty slice or a NaN sample — both are harness bugs.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// A metric measured once (counts, deterministic values).
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// The same summary in another unit (`by` > 0 keeps min ≤ max).
    pub fn scaled(self, by: f64) -> Self {
        Self {
            median: self.median * by,
            min: self.min * by,
            max: self.max * by,
            n: self.n,
        }
    }

    /// Width of the min–max band as a share of the median (0 for a
    /// zero median, where a share is undefined).
    pub fn band(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}
