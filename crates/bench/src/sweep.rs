//! The one sweep behind every `repro` experiment.
//!
//! An experiment module declares a [`Repro`]: its name, its CSV columns
//! and a body that lays out its tables. The body declares each cell (a
//! label, the configs it runs and their [`RunOptions`]) and how the
//! cell's outcome renders into CSV lines and table columns. The sweep
//! owns everything else: the `--filter`, skipping a cell whose config
//! is invalid, the telemetry and labels of the manifests a table keeps,
//! and the CSV, markdown and manifest-JSONL output.

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
}

impl Sweep<'_> {
    /// Prints `text` as a line of its own, after the table being filled.
    pub fn say(&mut self, text: impl std::fmt::Display) {
        self.flush();
        println!("{text}");
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

    /// Prints the table being filled, if it has a row.
    fn flush(&mut self) {
        let Some(mut table) = self.table.take() else {
            return;
        };
        table.close_row();
        if !table.rows.is_empty() {
            let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
            println!("{}", table.title);
            println!("{}", markdown_table(&headers, &table.rows));
        }
    }
}
