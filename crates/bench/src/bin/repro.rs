//! `repro`: every experiment of the paper's evaluation, the scenario
//! fuzzer and the divergence search behind one entry point.
//!
//! ```sh
//! cargo run --release -p hfl-bench --bin repro -- list
//! cargo run --release -p hfl-bench --bin repro -- table5 --quick --out results
//! cargo run --release -p hfl-bench --bin repro -- fuzz --iters 200 --seed 42
//! ```
//!
//! Malformed command lines print the usage and exit 2.

use std::process::ExitCode;

use hfl_bench::args::{BISECT_FLAGS, EXPERIMENT_FLAGS, FUZZ_FLAGS};
use hfl_bench::bisect::{self, Pair};
use hfl_bench::memprobe::CountingAlloc;
use hfl_bench::{experiments, fuzz, Args};

// `repro scale` reads its per-round allocation peaks off these counters.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: repro <experiment> [--quick] [--rounds N] [--reps N] [--seed S] [--filter SUBSTR] [--out DIR] [--smoke]
       repro all [experiment flags]    every experiment, in `repro list` order
       repro list                      the experiments and what each reproduces
       repro fuzz [--iters N] [--seed S] [--corpus-dir DIR] [--out DIR]
                  [--mutation quorum|conservation|determinism|staleness|defense-bypass]
       repro bisect --manifest-a A.json --manifest-b B.json
       repro bisect --spec-a A.toml --spec-b B.toml";

fn main() -> ExitCode {
    let argv: Result<Vec<String>, String> = std::env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|a| format!("argument {a:?} is not UTF-8"))
        })
        .collect();
    let outcome = argv.and_then(|argv| {
        let (command, flags) = argv.split_first().map_or(("", &[][..]), |(c, f)| (c, f));
        dispatch(command, &Args::parse_from(flags.to_vec())?)
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs `command`; `Err` is a usage error.
fn dispatch(command: &str, args: &Args) -> Result<ExitCode, String> {
    match command {
        "list" => {
            args.only(&[])?;
            for r in experiments::ALL {
                println!("{:<20} {}", r.name, r.reproduces);
            }
        }
        "all" => {
            args.only(EXPERIMENT_FLAGS)?;
            for r in experiments::ALL {
                eprintln!("=== {} ===", r.name);
                r.run(args);
            }
        }
        "fuzz" => {
            args.only(FUZZ_FLAGS)?;
            return Ok(fuzz::run(args));
        }
        "bisect" => {
            args.only(BISECT_FLAGS)?;
            let pair = match (&args.manifests, &args.specs) {
                ([Some(a), Some(b)], [None, None]) => Pair::Manifests(a, b),
                ([None, None], [Some(a), Some(b)]) => Pair::Specs(a, b),
                _ => return Err("bisect takes two manifests or two specs".into()),
            };
            return Ok(bisect::run(pair).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }));
        }
        name => {
            let repro =
                experiments::find(name).ok_or_else(|| format!("unknown subcommand `{name}`"))?;
            args.only(EXPERIMENT_FLAGS)?;
            repro.run(args);
        }
    }
    Ok(ExitCode::SUCCESS)
}
