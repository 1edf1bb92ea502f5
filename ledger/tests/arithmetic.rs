//! Median/min/max, span self-time and verdict arithmetic on hand-built
//! inputs.

use hfl_ledger::compare::{gain, judge, Verdict};
use hfl_ledger::report::Metric;
use hfl_ledger::spec::{Better, MetricSpec};
use hfl_ledger::stats::Summary;
use hfl_ledger::trace::{self_times_ns, total_ns, Span};

#[test]
fn summary_of_odd_and_even_counts() {
    let odd = Summary::of(&[5.0, 1.0, 3.0]);
    assert_eq!((odd.median, odd.min, odd.max, odd.n), (3.0, 1.0, 5.0, 3));
    let even = Summary::of(&[4.0, 1.0, 2.0, 10.0]);
    assert_eq!(
        (even.median, even.min, even.max, even.n),
        (3.0, 1.0, 10.0, 4)
    );
    assert_eq!(even.band(), 3.0);
    let single = Summary::single(7.5);
    assert_eq!((single.median, single.band(), single.n), (7.5, 0.0, 1));
    assert_eq!(Summary::single(0.0).band(), 0.0);
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        workload: "hand_built",
        round: 0,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = vec![
        span(0, None, "round", 0, 100),
        // Two disjoint children: 30 + 40 covered.
        span(1, Some(0), "core.train", 10, 40),
        span(2, Some(0), "core.aggregate", 50, 90),
        // A grandchild takes from its parent only, not from the round.
        span(3, Some(2), "robust.aggregate", 60, 80),
        span(4, None, "replay", 100, 200),
        // Overlapping children are counted once: [110, 160] = 50.
        span(5, Some(4), "a", 110, 150),
        span(6, Some(4), "b", 130, 160),
        // A child reaching past its parent is clipped: [190, 200] = 10.
        span(7, Some(4), "c", 190, 230),
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 30, 20, 20, 40, 40, 30, 40]);
    assert_eq!(total_ns(&spans, "core.train"), (30, 1));
    assert_eq!(total_ns(&spans, "absent"), (0, 0));
}

fn bounded(better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: "m".into(),
        unit: "1/s".into(),
        better,
        bound: Some(bound),
    }
}

fn reps(samples: &[f64]) -> Metric {
    Metric::timed("1/s", Summary::of(samples))
}

#[test]
fn a_timing_reads_its_fastest_sample_and_bands_to_its_median() {
    let m = Metric::fastest("1/s", Summary::of(&[80.0, 90.0, 100.0]), |s| s.max);
    assert_eq!((m.value, m.summary.median), (100.0, 90.0));
    assert_eq!(m.band(), 0.10);
    let d = Metric::fastest("s", Summary::of(&[2.0, 2.5, 3.0]), |s| s.min);
    assert_eq!((d.value, d.band()), (2.0, 0.25));
    let t = Metric::timed("s", Summary::of(&[0.9, 1.0, 1.2]));
    assert_eq!(t.value, 1.0);
    assert!((t.band() - 0.3).abs() < 1e-12);
    // A disturbed run (median rep 20 % off its fastest) cannot confirm
    // "unchanged" at a 10 % bound.
    let up = bounded(Better::Higher, 0.10);
    let quiet = Metric::fastest("1/s", Summary::of(&[98.0, 99.0, 100.0]), |s| s.max);
    let disturbed = Metric::fastest("1/s", Summary::of(&[70.0, 80.0, 100.0]), |s| s.max);
    assert_eq!(judge(&up, &quiet, &quiet), Verdict::Unchanged);
    assert_eq!(judge(&up, &quiet, &disturbed), Verdict::Unresolved);
}

#[test]
fn gain_is_signed_towards_better() {
    assert_eq!(gain(Better::Higher, 100.0, 110.0), 0.10);
    assert_eq!(gain(Better::Lower, 100.0, 110.0), -0.10);
    assert_eq!(gain(Better::Lower, 0.0, 5.0), 0.0);
}

#[test]
fn verdicts_follow_the_bound_and_the_bands() {
    let up = bounded(Better::Higher, 0.05);
    let a = reps(&[99.0, 100.0, 101.0]);
    assert_eq!(
        judge(&up, &a, &reps(&[99.5, 100.5, 101.5])),
        Verdict::Unchanged
    );
    assert_eq!(
        judge(&up, &a, &reps(&[93.0, 94.0, 95.0])),
        Verdict::Regression
    );
    assert_eq!(
        judge(&up, &a, &reps(&[109.0, 110.0, 111.0])),
        Verdict::Improved
    );
    // Median within the bound but B's own band (20 %) is wider than it.
    assert_eq!(
        judge(&up, &a, &reps(&[90.0, 100.0, 110.0])),
        Verdict::Unresolved
    );
    // A wide band still resolves when every B rep beats every A rep.
    assert_eq!(
        judge(&up, &a, &reps(&[102.0, 103.0, 120.0])),
        Verdict::Improved
    );
    // A wide band does not excuse a median beyond the bound.
    assert_eq!(
        judge(&up, &a, &reps(&[80.0, 90.0, 100.0])),
        Verdict::Regression
    );

    let down = bounded(Better::Lower, 0.10);
    let t = reps(&[1.0, 1.0, 1.0]);
    assert_eq!(
        judge(&down, &t, &reps(&[1.2, 1.2, 1.2])),
        Verdict::Regression
    );
    assert_eq!(judge(&down, &t, &reps(&[0.8, 0.8, 0.8])), Verdict::Improved);
    assert_eq!(
        judge(&down, &t, &reps(&[1.05, 1.05, 1.05])),
        Verdict::Unchanged
    );
}
