//! Architecture rules: the source shapes the hot paths under Algorithms
//! 3–6 rely on, as one table every `cargo test` checks. Rules read code
//! only — comments, literals and `#[cfg(test)]` items are blanked — and
//! see each use of a pattern inside its innermost enclosing `fn`.

use std::{collections::BTreeMap, fs, path::Path};
use Check::*;

enum Check {
    /// None of these substrings occurs.
    Forbid(&'static [&'static str]),
    /// None of these substrings occurs outside the listed files.
    ForbidBut(&'static [&'static str], &'static [&'static str]),
    /// So many uses in each listed (file, enclosing fn or ""), none elsewhere.
    Count(&'static str, &'static [(&'static str, &'static str, usize)]),
    /// Each line holding the pattern sits right under one holding the marker.
    Under(&'static str, &'static str),
    /// No file is longer; the fixture is one line, repeated past the cap.
    MaxLines(usize),
}

/// `files`: paths or `/`-ended prefixes, the fixture joining as the first.
struct Rule {
    name: &'static str,
    files: &'static [&'static str],
    check: Check,
    /// The `## <n>.` section of DESIGN.md that explains the rule.
    design: u8,
    message: &'static str,
    fixture: &'static str,
}

const TREE: &[&str] = &["crates/", "src/"];
const OPS: &str = "crates/tensor/src/ops.rs";
const RNG: &str = "crates/ml/src/rng.rs";

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "one entry point", design: 3, files: &["crates/bench/src/bin/"], check: Count("fn main(", &[("crates/bench/src/bin/repro.rs", "", 1)]),
        fixture: "fn main() {}", message: "crates/bench/src/bin must hold repro.rs alone" },
    Rule { name: "transcendentals are ours", design: 9, files: TREE,
        check: ForbidBut(&[".ln(", ".exp(", ".sin(", ".cos(", ".powf(", ".powi("], &["crates/core/src/theory.rs", "crates/bench/src/ci.rs"]),
        fixture: "fn f() { x.ln(); }", message: "a libm transcendental outside crates/core/src/theory.rs and crates/bench/src/ci.rs: use hfl_tensor::math (exp, ln, sin_cos_2pi and the f64 forms) or a counted multiply" },
    Rule { name: "one scheduler", design: 9, files: &["crates/core/src/", "crates/faults/src/"], check: Forbid(&["hfl_simnet::engine"]),
        fixture: "use hfl_simnet::engine::Sim;", message: "crates/core or crates/faults drives the event simulator again" },
    Rule { name: "the pipeline is a timing config", design: 9, files: &["crates/core/src/pipeline.rs"], check: MaxLines(299),
        fixture: "const X: u8 = 0;\n", message: "crates/core/src/pipeline.rs grew past 300 lines" },
    Rule { name: "no widened copy", design: 15, files: &["crates/tensor/src/", "crates/ml/src/"], check: Forbid(&["fn widen", "ops::widen"]),
        fixture: "fn f() { ops::widen(t); }", message: "a widened-copy dense path is back beside ops::forward_class_major" },
    Rule { name: "one dense kernel", design: 15, files: &["crates/tensor/src/", "crates/ml/src/"],
        check: Forbid(&["fn affine_panel(", "Option<&Panel>", "fn forward_block", "Panel<f64>", "struct Dense"]),
        fixture: "struct Dense<'a> { panel: &'a Panel<f64> }",
        message: "a second exact dense kernel (forward_block, an f64 Panel, a Dense layer wrapper) or a per-input kernel switch is back beside ops::forward_class_major" },
    Rule { name: "a gradient is a rank update", design: 15, files: &["crates/ml/src/linear.rs", "crates/ml/src/mlp.rs"], check: Forbid(&["axpy"]),
        fixture: "fn grad() { ops::axpy(g, c, x); }", message: "linear.rs / mlp.rs accumulate a gradient by axpy again instead of ops::rank_update" },
    Rule { name: "two fused products", design: 15, files: TREE, check: Count("mul_add", &[(OPS, "add_exact_product", 1), (OPS, "approx_tile", 1)]),
        fixture: "fn rank_update() { g.mul_add(c, x); }",
        message: "mul_add outside hfl_tensor::ops::add_exact_product and the f32 approximate tile (ops::approx_tile): no other product may fuse" },
    Rule { name: "one reader of the approximation", design: 15, files: TREE,
        check: Count("forward_approx", &[("crates/ml/src/linear.rs", "score_ballot", 1)]),
        fixture: "fn f() { ops::forward_approx(p, x, o); }", message: "ops::forward_approx is called outside hfl_ml::linear" },
    Rule { name: "one scoring of a ballot", design: 15, files: &["crates/consensus/src/eval.rs"], check: Forbid(&["clone_box", "set_params"]),
        fixture: "fn f() { m.clone_box(); }",
        message: "crates/consensus/src/eval.rs loads proposals into a model clone again instead of scoring the ballot at once" },
    Rule { name: "one pair fill", design: 15, files: &["crates/robust/src/"], check: Forbid(&["dist_sq_block"]),
        fixture: "fn f() { ops::dist_sq_block(x, r, o); }", message: "crates/robust calls dist_sq_block beside the pairwise panel kernel again" },
    Rule { name: "one way into the pair kernel", design: 15, files: TREE, check: Count("dist_sq_pairs(", &[(OPS, "pairwise_dist_sq", 1)]),
        fixture: "fn krum() { dist_sq_pairs(r, 0, o); }", message: "dist_sq_pairs is called outside ops::pairwise_dist_sq" },
    Rule { name: "one width decision", design: 15, files: TREE, check: Count("Width::widest(", &[(OPS, "current", 1)]),
        fixture: "fn blocks() { Width::widest().run(k, a, b, c); }",
        message: "Width::widest is called outside Width::current: a kernel runs at Width::current (ops::at_current), so a with_width scope reaches it" },
    Rule { name: "no schedule pins the worker count", design: 9, files: &["crates/core/src/"], check: Forbid(&["with_threads(", "set_default_threads("]),
        fixture: "fn f() { hfl_parallel::with_threads(1, || g()); }", message: "crates/core/src pins the hfl-parallel thread count instead of running at default_threads()" },
    Rule { name: "one aggregation site", design: 9, files: &["crates/core/src/", "crates/bench/src/"], check: Forbid(&[".aggregate("]),
        fixture: "fn f() { agg.aggregate(&refs, None); }", message: "crates/core or crates/bench aggregates a round beside the engine's cluster step (aggregate_into)" },
    Rule { name: "no level copies a row", design: 9, files: &["crates/core/src/engine/"], check: Forbid(&["clone_from", "pub next:", "pub carried:"]),
        fixture: "struct W {\n    pub next: Vec<f32>,\n}\n", message: "the round engine copies a row set per level again" },
    Rule { name: "unsafe has an allow-list", design: 15, files: TREE, fixture: "fn f() { unsafe { g() } }",
        check: Count("unsafe", &[(OPS, "run", 2), ("crates/parallel/src/lib.rs", "fork_join", 1), ("crates/bench/src/memprobe.rs", "", 5)]),
        message: "crates/tensor/src must hold exactly two unsafe tokens, each under a // SAFETY: line; crates/robust/src must hold no unsafe; crates/attacks/src must hold no unsafe; crates/ml/src must hold no unsafe" },
    Rule { name: "tensor's unsafe is justified", design: 15, files: &["crates/tensor/src/"], check: Under("unsafe", "// SAFETY:"),
        fixture: "fn f() {\n    unsafe { g() }\n}\n", message: "crates/tensor/src must hold exactly two unsafe tokens, each under a // SAFETY: line" },
    Rule { name: "an attack reads a matrix", design: 13, files: &["crates/attacks/src/model_poison.rs"], check: Forbid(&["for j in 0..d", "mean_var(", "flat_map"]),
        fixture: "fn f() { v.flat_map(g); }", message: "crates/attacks/src/model_poison.rs gathers a column or computes a distance per pair again" },
    Rule { name: "a rule is its kind", design: 2, files: TREE, check: Count("impl Aggregator for", &[("crates/robust/src/lib.rs", "", 1)]),
        fixture: "impl Aggregator for Krum {}",
        message: "a second impl of hfl_robust::Aggregator: a BRA rule is an AggregatorKind variant, and AggregatorKind's impl in crates/robust/src/lib.rs is the trait's one" },
    // Spelled in pieces, so that a text search for the removed trait finds live code only.
    Rule { name: "a mechanism is its kind", design: 2, files: TREE,
        check: Forbid(&[concat!("trait ", "Consensus"), concat!("impl ", "Consensus for"), concat!("dyn ", "Consensus")]),
        fixture: concat!("impl ", "Consensus for PbftConsensus {}"),
        message: "a consensus mechanism beside hfl_consensus::ConsensusKind again: a CBA mechanism is a ConsensusKind variant, and ConsensusKind::decide is its one body" },
    Rule { name: "the engine reads the level from the config", design: 9, files: &["crates/core/src/engine/"], check: Forbid(&["enum LevelRule"]),
        fixture: "pub(super) enum LevelRule { Bra(AggregatorKind) }",
        message: "crates/core/src/engine holds a per-level rule handle again: step::aggregate and clock::cluster_closed match the config's LevelAgg (exp.config().levels[l])" },
    Rule { name: "a rule takes no thread count", design: 15, files: &["crates/robust/src/"], check: Forbid(&["threads: usize"]),
        fixture: "fn krum_scores_into(u: &[&[f32]], threads: usize) {}",
        message: "a crates/robust/src function takes a thread count: read hfl_parallel::default_threads() where it forks, and sweep thread counts in tests under hfl_parallel::with_threads" },
    Rule { name: "one coordinate-wise kernel", design: 14, files: &["crates/robust/src/streaming.rs"], check: Forbid(&["vec![P2Median", "sort_unstable_by"]),
        fixture: "fn f() { v.sort_unstable_by(g); }", message: "crates/robust/src/streaming.rs holds a d-long estimator array or its own sort again" },
    Rule { name: "a sample is a function of its index", design: 15, files: &["crates/ml/src/synth.rs"], check: Forbid(&["standard_normal(&mut rng)", "next_u32()"]),
        fixture: "fn f() { rng.next_u32(); }", message: "crates/ml/src/synth.rs draws samples off a sequential or per-word rng read again" },
    Rule { name: "one quarter round", design: 15, files: &[RNG], check: Count("rotate_left(", &[(RNG, "quarter_round", 4)]),
        fixture: "fn f() { d = d.rotate_left(16); }", message: "crates/ml/src/rng.rs holds a second ChaCha quarter round or a scalar block fill" },
    Rule { name: "no scalar block fill", design: 15, files: &[RNG], check: Forbid(&["fn fill("]),
        fixture: "fn fill(&mut self) {}", message: "crates/ml/src/rng.rs holds a second ChaCha quarter round or a scalar block fill" },
    Rule { name: "one splitmix64", design: 15, files: TREE, check: ForbidBut(&["0x9E37_79B9_7F4A_7C15"], &["crates/tensor/src/lib.rs"]),
        fixture: "fn mix(z: u64) -> u64 { z.wrapping_add(0x9E37_79B9_7F4A_7C15) }",
        message: "a SplitMix64 step outside crates/tensor/src/lib.rs: call hfl_tensor::splitmix64" },
    Rule { name: "consensus records no metrics", design: 5, files: &["crates/consensus/src/"], check: Forbid(&["hfl_telemetry"]),
        fixture: "use hfl_telemetry::Registry;",
        message: "crates/consensus/src names hfl_telemetry: the engine records a consensus outcome (engine::cost::charge_consensus)" },
    Rule { name: "one run loop", design: 9, files: TREE,
        check: Count(".run_round_into(", &[("crates/core/src/runner.rs", "run_loop", 1), ("crates/bench/src/memprobe.rs", "probe_rounds", 1)]),
        fixture: "fn f() { engine.run_round_into(g, r, c, t, l, s, o); }",
        message: "a round loop beside runner::run_loop (and memprobe::probe_rounds): run a config through RunOptions::try_run, run_prepared_with, run_prepared_snapshotting or resume_prepared_with" },
    Rule { name: "no panicking twin", design: 9, files: &["crates/core/src/"], check: Forbid(&[" prepare(", " resume("]),
        fixture: "pub fn resume(s: &EngineSnapshot, cfg: &HflConfig) -> RunResult { todo!() }",
        message: "crates/core/src holds a prepare or resume beside Experiment::try_prepare and resume_prepared_with again" },
    Rule { name: "one snapshot codec", design: 11, files: &["crates/snapshot/src/json.rs"],
        check: Forbid(&["RoundRecord", "FaultRecord", "SuspicionRecord", "LayerState", "TrackerState", "SearchState", "MetricSample", "MetricValue", "HistogramStats", "CostCounters"]),
        fixture: "use hfl_telemetry::{CostCounters, RoundRecord};",
        message: "crates/snapshot/src/json.rs encodes snapshot fields itself again: it is a hex envelope over binary.rs, the one snapshot codec" },
];

/// A file and its code: comments, literals and `#[cfg(test)]` items blanked, newlines kept.
struct Source {
    path: String,
    raw: String,
    code: String,
}

impl Source {
    fn new(path: &str, raw: &str) -> Source {
        let (path, raw, mut code) = (path.to_string(), raw.to_string(), blank(raw));
        while let Some(start) = code.find("#[cfg(test)]") {
            let end = item_end(&code, start);
            let gap = code[start..end].replace(|c: char| c != '\n', " ");
            code.replace_range(start..end, &gap);
        }
        Source { path, raw, code }
    }

    /// Each use of `pat` (`fn pat` is a definition): its line and innermost fn, or "".
    fn uses(&self, pat: &str) -> Vec<(usize, &str)> {
        let (code, mut uses) = (&self.code, vec![]);
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        for (p, _) in code.match_indices(pat) {
            let before = &code[..p];
            if before.ends_with("fn ") {
                continue;
            }
            let fns = before.match_indices("fn ").map(|(k, _)| k);
            let open = fns.filter(|&k| !before[..k].ends_with(ident) && item_end(code, k) > p);
            let name = open.last().map_or("", |k| code[k + 3..].trim_start());
            let name = name.split(|c: char| !ident(c)).next().unwrap_or("");
            uses.push((1 + before.matches('\n').count(), name));
        }
        uses
    }
}

/// Blanks comments and string / raw-string / char literals (not lifetimes), newlines kept.
fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    // One past the first `close` from `k` on, stepping over `\` escapes.
    let past = |mut k: usize, close: &str, escapes: bool| {
        while k < b.len() && !b[k..].starts_with(close.as_bytes()) {
            k += 1 + usize::from(escapes && b[k] == b'\\');
        }
        (k + close.len()).min(b.len())
    };
    let (mut out, mut i) = (String::with_capacity(b.len()), 0);
    while i < b.len() {
        let r = i + usize::from(at(i) == b'b');
        let hashes = "#".repeat(b.iter().skip(r + 1).take_while(|&&c| c == b'#').count());
        let end = match (at(i), at(i + 1)) {
            (b'/', b'/') => past(i, "\n", false),
            (b'/', b'*') => past(i + 2, "*/", false),
            (b'"', _) => past(i + 1, "\"", true),
            (b'\'', c) if c == b'\\' || src[i + 1..].chars().nth(1) == Some('\'') => {
                past(i + 1, "'", true)
            }
            (b'r' | b'b', _) if at(r) == b'r' && at(r + 1 + hashes.len()) == b'"' => {
                past(r + 2 + hashes.len(), &format!("\"{hashes}"), false)
            }
            (c, _) => {
                out.push(if c.is_ascii() { c as char } else { ' ' });
                i += 1;
                continue;
            }
        };
        out += &src[i..end].replace(|c: char| c != '\n', " ");
        i = end;
    }
    out
}

/// One past the item at `start`: the `}` closing its first `{`, or an earlier top-level `;`.
fn item_end(code: &str, start: usize) -> usize {
    let (mut nest, mut depth) = (0, 0);
    for (k, c) in code.bytes().enumerate().skip(start) {
        match c {
            b'(' | b'[' => nest += 1,
            b')' | b']' => nest -= 1,
            b'{' => depth += 1,
            b'}' if depth <= 1 => return k + 1,
            b'}' => depth -= 1,
            b';' if nest == 0 && depth == 0 => return k + 1,
            _ => {}
        }
    }
    code.len()
}

/// What `check` finds in the files of `tree` under `files`: nothing when they pass.
fn violations(check: &Check, files: &[&str], tree: &[Source]) -> Vec<String> {
    let (mut found, mut held) = (vec![], BTreeMap::new());
    let in_scope = |s: &&Source| files.iter().any(|f| s.path.starts_with(f));
    for s in tree.iter().filter(in_scope) {
        let lines: Vec<&str> = s.raw.lines().collect();
        let at = |line: usize| format!("{}:{line}", s.path);
        match *check {
            Forbid(pats) | ForbidBut(pats, _) => {
                if let ForbidBut(_, except) = *check {
                    if except.contains(&s.path.as_str()) {
                        continue;
                    }
                }
                for &pat in pats {
                    found.extend(s.uses(pat).iter().map(|u| at(u.0) + ": " + pat));
                }
            }
            Count(pat, _) => {
                for (_, item) in s.uses(pat) {
                    *held.entry(format!("{}, fn {item:?}", s.path)).or_insert(0) += 1;
                }
            }
            Under(pat, marker) => {
                let bare = |l: usize| l < 2 || !lines[l - 2].contains(marker);
                found.extend(s.uses(pat).iter().filter(|u| bare(u.0)).map(|u| at(u.0)));
            }
            MaxLines(max) => found.extend((lines.len() > max).then(|| at(lines.len()))),
        }
    }
    if let Count(_, sites) = *check {
        for &(path, item, n) in sites {
            *held.entry(format!("{path}, fn {item:?}")).or_insert(0) -= n as i64;
        }
    }
    for (site, surplus) in held.into_iter().filter(|h| h.1 != 0) {
        found.push(format!("{site}: {surplus:+} uses"));
    }
    found
}

/// Every `.rs` file under `crates/*/src` and `src/`, by path from the root.
fn tree() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut tree) = (vec![root.join("crates"), root.join("src")], vec![]);
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy();
            if path.is_dir() {
                dirs.push(path.clone());
            } else if rel.ends_with(".rs") && (rel.starts_with("src/") || rel.contains("/src/")) {
                tree.push(Source::new(&rel, &fs::read_to_string(&path).unwrap()));
            }
        }
    }
    tree
}

#[test]
fn every_rule_holds_flags_its_fixture_and_cites_design() {
    let design = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"));
    let (design, mut tree) = (design.unwrap(), tree());
    for rule in RULES {
        let bad = violations(&rule.check, rule.files, &tree).join(", ");
        assert!(bad.is_empty(), "{}: {bad} [{}]", rule.message, rule.name);
        let section = format!("\n## {}. ", rule.design);
        assert!(design.contains(&section), "{}: no {section:?}", rule.name);
        let times = match rule.check {
            MaxLines(max) => max + 1,
            _ => 1,
        };
        tree.push(Source::new(rule.files[0], &rule.fixture.repeat(times)));
        let found = violations(&rule.check, rule.files, &tree);
        assert!(!found.is_empty(), "{} misses its fixture", rule.name);
        tree.pop();
    }
}

/// Decoys no rule may read: `fn kept` (KEPT) holds the one live `mul_add`.
#[test]
fn the_scanner_reads_only_live_code() {
    const KEPT: Check = Count("mul_add", &[("x.rs", "kept", 1)]);
    for decoy in [
        "#[cfg(test)]\nmod tests {\n    fn f() { a.mul_add(b, c) }\n}\nKEPT",
        "// mul_add\n/// mul_add\n/* mul_add */\nKEPT",
        "const S: &str = \"mul_add \\\" mul_add\";\nconst R: &str = r#\"mul_add \" \"#;\nKEPT",
        "fn kept() {\n    let (s, c) = (\"}\", '{');\n    a.mul_add(b, c)\n}\n",
        "fn kept<'a>(a: &'a f64, b: &'static f64) -> f64 {\n    a.mul_add(*b, 2.0)\n}\n",
    ] {
        let src = decoy.replace("KEPT", "fn kept() { a.mul_add(b, c) }\n");
        let found = violations(&KEPT, &[""], &[Source::new("x.rs", &src)]);
        assert!(found.is_empty(), "{decoy:?}: {found:?}");
    }
}
