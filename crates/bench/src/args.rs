//! The `repro` command line: one flag parser for every subcommand (no
//! external dependency; the flags are few and uniform). Malformed input
//! is an `Err` naming the flag, never a panic.

use hfl_oracle::harness::Mutation;

/// The flags an experiment (and `repro all`) accepts.
pub const EXPERIMENT_FLAGS: &[&str] = &[
    "--quick", "--smoke", "--rounds", "--reps", "--out", "--filter", "--seed",
];
/// The flags `repro fuzz` accepts.
pub const FUZZ_FLAGS: &[&str] = &["--iters", "--seed", "--mutation", "--corpus-dir", "--out"];
/// The flags `repro bisect` accepts.
pub const BISECT_FLAGS: &[&str] = &["--manifest-a", "--manifest-b", "--spec-a", "--spec-b"];

/// Every `repro` flag, parsed once. Each subcommand reads the fields it
/// needs and refuses a flag meant for another ([`Args::only`]).
#[derive(Clone, Debug)]
pub struct Args {
    /// Reduced rounds/reps for a fast smoke run.
    pub quick: bool,
    /// `scale`'s CI mode: one mid-size population instead of the full
    /// n ∈ {10³..10⁶} sweep, plus a manifest log for the same-seed
    /// determinism diff.
    pub smoke: bool,
    /// Override global rounds.
    pub rounds: Option<usize>,
    /// Override repetition count.
    pub reps: Option<usize>,
    /// Output directory; `None` is the subcommand's default.
    pub out: Option<String>,
    /// Optional substring filter on experiment cell labels.
    pub filter: Option<String>,
    /// Base seed.
    pub seed: u64,
    /// `fuzz`: scenarios to draw.
    pub iters: usize,
    /// `fuzz`: run against deliberately corrupted observations.
    pub mutation: Option<Mutation>,
    /// `fuzz`: where a real violation's minimal repro is persisted.
    pub corpus_dir: Option<String>,
    /// `bisect`: two saved run manifests (JSON).
    pub manifests: [Option<String>; 2],
    /// `bisect`: two scenario specs (the corpus TOML).
    pub specs: [Option<String>; 2],
    /// The flags given, in order.
    given: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            quick: false,
            smoke: false,
            rounds: None,
            reps: None,
            out: None,
            filter: None,
            seed: 42,
            iters: 50,
            mutation: None,
            corpus_dir: None,
            manifests: [None, None],
            specs: [None, None],
            given: Vec::new(),
        }
    }
}

impl Args {
    /// Parses the flags after the subcommand.
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, String> {
        let mut args = Self::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--smoke" => args.smoke = true,
                "--rounds" => args.rounds = Some(integer(&flag, value()?)?),
                "--reps" => args.reps = Some(integer(&flag, value()?)?),
                "--seed" => args.seed = integer(&flag, value()?)?,
                "--iters" => args.iters = integer(&flag, value()?)?,
                "--out" => args.out = Some(value()?),
                "--filter" => args.filter = Some(value()?),
                "--corpus-dir" => args.corpus_dir = Some(value()?),
                "--manifest-a" => args.manifests[0] = Some(value()?),
                "--manifest-b" => args.manifests[1] = Some(value()?),
                "--spec-a" => args.specs[0] = Some(value()?),
                "--spec-b" => args.specs[1] = Some(value()?),
                "--mutation" => {
                    let name = value()?;
                    let mutation = Mutation::parse(&name);
                    args.mutation = Some(mutation.ok_or(format!("unknown mutation `{name}`"))?);
                }
                other => return Err(format!("unknown flag: {other}")),
            }
            args.given.push(flag);
        }
        Ok(args)
    }

    /// Refuses any given flag outside `allowed` (a flag of another
    /// subcommand).
    pub fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.given.iter().find(|f| !allowed.contains(&f.as_str())) {
            Some(flag) => Err(format!("{flag} does not apply to this subcommand")),
            None => Ok(()),
        }
    }

    /// The experiments' output directory (default `results`).
    pub fn out_dir(&self) -> &str {
        self.out.as_deref().unwrap_or("results")
    }

    /// Effective rounds: explicit override > quick default > full default.
    pub fn effective_rounds(&self, full: usize, quick: usize) -> usize {
        self.rounds.unwrap_or(if self.quick { quick } else { full })
    }

    /// Effective repetitions.
    pub fn effective_reps(&self, full: usize, quick: usize) -> usize {
        self.reps.unwrap_or(if self.quick { quick } else { full })
    }

    /// True when the cell label passes the filter.
    pub fn matches(&self, label: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| label.contains(f))
    }
}

fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} must be an integer, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert!(!a.quick);
        assert_eq!(a.out_dir(), "results");
        assert_eq!(a.effective_rounds(200, 40), 200);
    }

    #[test]
    fn quick_mode() {
        let a = parse("--quick").unwrap();
        assert_eq!(a.effective_rounds(200, 40), 40);
        assert_eq!(a.effective_reps(5, 2), 2);
    }

    #[test]
    fn smoke_mode() {
        assert!(parse("--smoke").unwrap().smoke);
        assert!(
            !parse("--quick").unwrap().smoke,
            "smoke is independent of quick"
        );
    }

    #[test]
    fn explicit_overrides() {
        let a = parse("--quick --rounds 7 --reps 3 --seed 9 --out /tmp/x").unwrap();
        assert_eq!(a.effective_rounds(200, 40), 7);
        assert_eq!(a.effective_reps(5, 2), 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.out_dir(), "/tmp/x");
    }

    #[test]
    fn filter_matching() {
        let a = parse("--filter type1").unwrap();
        assert!(a.matches("iid/type1"));
        assert!(!a.matches("iid/type2"));
        assert!(parse("").unwrap().matches("anything"));
    }

    #[test]
    fn tool_flags() {
        let a = parse("--iters 9 --mutation quorum --spec-a a --spec-b b").unwrap();
        assert_eq!(a.iters, 9);
        assert_eq!(a.mutation, Some(Mutation::QuorumUndershoot));
        assert_eq!(a.specs, [Some("a".to_string()), Some("b".to_string())]);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert_eq!(parse("--wat").unwrap_err(), "unknown flag: --wat");
        assert_eq!(parse("--rounds").unwrap_err(), "--rounds needs a value");
        assert!(parse("--seed x")
            .unwrap_err()
            .contains("must be an integer"));
        assert!(parse("--mutation nope")
            .unwrap_err()
            .contains("unknown mutation"));
    }

    #[test]
    fn only_refuses_another_subcommands_flag() {
        let a = parse("--quick --iters 3").unwrap();
        assert!(a.only(FUZZ_FLAGS).is_err());
        assert!(a.only(EXPERIMENT_FLAGS).is_err());
        assert!(parse("--quick --seed 1")
            .unwrap()
            .only(EXPERIMENT_FLAGS)
            .is_ok());
    }
}
