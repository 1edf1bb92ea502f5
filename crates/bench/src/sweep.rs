//! The one sweep behind every `repro` experiment.
//!
//! An experiment module declares a [`Repro`]: its name, its CSV columns
//! and a body that lays out its tables. The body declares each cell (a
//! label, the configs it runs and their [`RunOptions`]) and how the
//! cell's outcome renders into CSV lines and table columns. The sweep
//! owns everything else: the `--filter`, skipping a cell whose config
//! is invalid, the telemetry and labels of the manifests a table keeps,
//! and the CSV, markdown and manifest-JSONL output. Under `repro
//! profile` it runs the first cell alone instead and prints where that
//! run's loop spent its wall time ([`Repro::profile`]).

use abd_hfl_core::config::HflConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::RunOutput;
use hfl_telemetry::{RunManifest, Telemetry};

use crate::report::{csv, markdown_table, pct, write_manifests_or_exit, write_or_exit};
use crate::Args;

/// How the manifests an experiment keeps are labelled.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Labels {
    /// As the run labelled them (`abd-hfl`, `pipeline`).
    AsRun,
    /// `<experiment>/<cell label>`, plus `/rep<i>` for the runs of a
    /// [`Sweep::repeated`] cell.
    Cell,
}

/// One `repro` experiment.
pub struct Repro {
    /// The subcommand, and the stem of its manifest file.
    pub name: &'static str,
    /// What of the paper it reproduces (`repro list`).
    pub reproduces: &'static str,
    /// The stem and header of the CSV file that holds every cell's CSV
    /// lines, `<out>/<stem>.csv`; `None` writes no such file.
    pub csv: Option<(&'static str, &'static str)>,
    /// Whether the manifests of the runs its tables keep are written to
    /// `<out>/<name>.manifests.jsonl`, and how they are labelled.
    pub manifests: Option<Labels>,
    /// Runs record their events and metrics; otherwise telemetry is
    /// disabled.
    pub recording: bool,
    /// Lays out the experiment's tables and cells.
    pub body: fn(&mut Sweep),
}

impl Repro {
    /// Runs the experiment under `args` and writes its files.
    pub fn run(&self, args: &Args) {
        let mut sweep = Sweep {
            args,
            repro: self,
            csv: Vec::new(),
            manifests: Vec::new(),
            table: None,
            first: None,
        };
        (self.body)(&mut sweep);
        sweep.flush();
        let out = args.out_dir();
        if let Some((stem, header)) = self.csv {
            write_or_exit(out, &format!("{stem}.csv"), &csv(header, &sweep.csv));
        }
        if !sweep.manifests.is_empty() {
            write_manifests_or_exit(out, self.name, &sweep.manifests);
        }
    }

    /// `repro profile`: runs the first run of the experiment's first
    /// cell that passes the `--filter`, alone, and prints each round
    /// phase's share of its run loop's wall time. The body lays its
    /// cells out as usual but runs none of them, prints nothing and
    /// writes no file; it sees a filter no label passes, so work it
    /// does outside a cell behind that filter (`attacks`' backdoor
    /// deep-dive) is skipped, and `scale` asks [`Sweep::profiling`].
    pub fn profile(&self, args: &Args) -> Result<(), String> {
        let mut body_args = args.clone();
        body_args.filter = Some(NO_LABEL.to_string());
        let mut sweep = Sweep {
            args: &body_args,
            repro: self,
            csv: Vec::new(),
            manifests: Vec::new(),
            table: None,
            first: Some(Profile { args, cell: None }),
        };
        (self.body)(&mut sweep);
        let first = sweep.first.and_then(|p| p.cell);
        let Some((label, cfg, options)) = first else {
            return Err(format!("`{}` has no cell to profile", self.name));
        };
        let out = options.try_run(&cfg).map_err(|e| format!("{label}: {e}"))?;
        let total = out.phases.total();
        println!(
            "{} / {label}: {} rounds, loop wall {:.1} ms, accuracy {}",
            self.name,
            out.manifest.rounds.len(),
            total as f64 / 1e6,
            pct(out.result.final_accuracy)
        );
        for (phase, share) in out.phases.shares() {
            println!("  {phase:<16} {:>6.2} %", 100.0 * share);
        }
        Ok(())
    }
}

/// A filter no cell label passes (labels are printable).
const NO_LABEL: &str = "\u{0}";

/// What `repro profile` keeps of a sweep: the command line's own
/// arguments (their `--filter`) and the first cell that passes it.
struct Profile<'a> {
    args: &'a Args,
    cell: Option<(String, HflConfig, RunOptions<'static>)>,
}

/// What a cell whose label the `--filter` excludes reads.
const FILTERED: &str = "—";

/// A markdown table being filled: it is printed once the next table
/// starts, a line is said, or the experiment ends.
struct Table {
    title: String,
    headers: Vec<String>,
    keep: bool,
    rows: Vec<Vec<String>>,
    /// The open row, and whether it holds cells / a cell that ran.
    row: Vec<String>,
    row_cells: bool,
    row_ran: bool,
}

impl Table {
    /// Closes the open row: a row whose cells the filter all excluded is
    /// dropped.
    fn close_row(&mut self) {
        let row = std::mem::take(&mut self.row);
        if !row.is_empty() && (self.row_ran || !self.row_cells) {
            self.rows.push(row);
        }
        (self.row_cells, self.row_ran) = (false, false);
    }
}

/// One experiment's run: its options, the CSV lines and manifests
/// collected so far, and the table being filled.
pub struct Sweep<'a> {
    /// The command line.
    pub args: &'a Args,
    repro: &'a Repro,
    csv: Vec<String>,
    manifests: Vec<RunManifest>,
    table: Option<Table>,
    /// Set under `repro profile`: no cell runs.
    first: Option<Profile<'a>>,
}

impl Sweep<'_> {
    /// Whether this is `repro profile`, where no cell runs: a body that
    /// measures outside its cells lays out one cell and returns.
    pub fn profiling(&self) -> bool {
        self.first.is_some()
    }

    /// Prints `text` as a line of its own, after the table being filled
    /// (neither, under `repro profile`).
    pub fn say(&mut self, text: impl std::fmt::Display) {
        self.flush();
        if self.first.is_none() {
            println!("{text}");
        }
    }

    /// Starts a markdown table, printed under `title` (verbatim) unless
    /// it ends without a row. When the experiment writes manifests, its
    /// runs keep theirs.
    pub fn table(&mut self, title: impl Into<String>, headers: &[&str]) {
        self.open(title.into(), headers, true);
    }

    /// [`Sweep::table`] whose runs keep no manifest.
    pub fn table_unkept(&mut self, title: impl Into<String>, headers: &[&str]) {
        self.open(title.into(), headers, false);
    }

    fn open(&mut self, title: String, headers: &[&str], keep: bool) {
        self.flush();
        self.table = Some(Table {
            title,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            keep,
            rows: Vec::new(),
            row: Vec::new(),
            row_cells: false,
            row_ran: false,
        });
    }

    /// Starts a row with these leading columns.
    ///
    /// # Panics
    /// Outside a table.
    pub fn row<S: ToString>(&mut self, head: impl IntoIterator<Item = S>) {
        let table = self.table.as_mut().expect("a row belongs to a table");
        table.close_row();
        table.row.extend(head.into_iter().map(|s| s.to_string()));
    }

    /// One cell of the open row: runs `cfg` under `options` (its
    /// schedule; the sweep attaches the telemetry) and appends what
    /// `render` makes of the outcome — CSV text (any number of lines)
    /// and `N` table columns. A filtered cell reads `—`, an invalid one
    /// `invalid`.
    pub fn cell<const N: usize>(
        &mut self,
        label: &str,
        cfg: HflConfig,
        options: RunOptions<'static>,
        render: impl FnOnce(&RunOutput) -> (String, [String; N]),
    ) {
        self.fill(label, vec![(cfg, options)], false, |o| render(&o[0]));
    }

    /// [`Sweep::cell`] over several runs (repetitions, or one config at
    /// several horizons), rendered together.
    pub fn repeated<const N: usize>(
        &mut self,
        label: &str,
        runs: Vec<(HflConfig, RunOptions<'static>)>,
        render: impl FnOnce(&[RunOutput]) -> (String, [String; N]),
    ) {
        self.fill(label, runs, true, render);
    }

    fn fill<const N: usize>(
        &mut self,
        label: &str,
        runs: Vec<(HflConfig, RunOptions<'static>)>,
        numbered: bool,
        render: impl FnOnce(&[RunOutput]) -> (String, [String; N]),
    ) {
        let keep = self.table.as_ref().is_some_and(|t| t.keep);
        let (ran, columns) = match self.run(label, runs, numbered, keep) {
            Ok(outcomes) => {
                let (lines, columns) = render(&outcomes);
                if !lines.is_empty() {
                    self.csv.push(lines);
                }
                (true, columns)
            }
            Err(placeholder) => (
                placeholder != FILTERED,
                std::array::from_fn(|_| placeholder.to_string()),
            ),
        };
        let table = self.table.as_mut().expect("a cell belongs to a table row");
        table.row_cells = true;
        table.row_ran |= ran;
        table.row.extend(columns);
    }

    /// Runs a cell outside any table; `None` when filtered or invalid.
    /// `keep` keeps the manifests (labelled as [`Sweep::cell`] does).
    pub fn outcomes(
        &mut self,
        label: &str,
        runs: Vec<(HflConfig, RunOptions<'static>)>,
        keep: bool,
    ) -> Option<Vec<RunOutput>> {
        self.run(label, runs, false, keep).ok()
    }

    /// The runs of one cell, or the placeholder its table columns read:
    /// [`FILTERED`], or `invalid` when a config is inconsistent.
    fn run(
        &mut self,
        label: &str,
        runs: Vec<(HflConfig, RunOptions<'static>)>,
        numbered: bool,
        keep: bool,
    ) -> Result<Vec<RunOutput>, &'static str> {
        if let Some(profile) = &mut self.first {
            if profile.cell.is_none() && profile.args.matches(label) {
                profile.cell = (runs.into_iter().next()).map(|(c, o)| (label.to_string(), c, o));
            }
            return Err(FILTERED);
        }
        if !self.args.matches(label) {
            return Err(FILTERED);
        }
        let mut outcomes = Vec::with_capacity(runs.len());
        for (rep, (cfg, options)) in runs.into_iter().enumerate() {
            let tag = match numbered {
                true => format!("{label}/rep{rep}"),
                false => label.to_string(),
            };
            // A fresh bundle per run keeps manifests per-run rather than
            // cumulative across the sweep.
            let telem = match self.repro.recording {
                true => Telemetry::recording().0,
                false => Telemetry::disabled(),
            };
            let run = options.telemetry(&telem).try_run(&cfg);
            let mut outcome = run.map_err(|e| {
                eprintln!("  {tag}: skipped ({e})");
                "invalid"
            })?;
            eprintln!("  {tag}: acc {}", pct(outcome.result.final_accuracy));
            if self.repro.manifests == Some(Labels::Cell) {
                outcome.manifest.label = format!("{}/{tag}", self.repro.name);
            }
            outcomes.push(outcome);
        }
        if keep && self.repro.manifests.is_some() {
            self.manifests
                .extend(outcomes.iter().map(|o| o.manifest.clone()));
        }
        Ok(outcomes)
    }

    /// Prints the table being filled, if it has a row and this is not
    /// `repro profile`.
    fn flush(&mut self) {
        let Some(mut table) = self.table.take() else {
            return;
        };
        table.close_row();
        if !table.rows.is_empty() && self.first.is_none() {
            let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
            println!("{}", table.title);
            println!("{}", markdown_table(&headers, &table.rows));
        }
    }
}
