//! `repro`'s command line: malformed input is an exit code and a
//! message, never a panic. Each case runs the binary and checks its
//! exit code and that stderr holds no `panicked`.

use std::path::PathBuf;
use std::process::Command;

/// Runs `repro` with `args`; returns its exit code, stdout and stderr.
fn repro(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !stderr.contains("panicked"),
        "repro {args:?} panicked:\n{stderr}"
    );
    let code = out.status.code().expect("repro exits with a code");
    (
        code,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr,
    )
}

/// A fresh directory of this test's own under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfl_bench_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[test]
fn malformed_command_lines_print_the_usage_and_exit_2() {
    for args in [
        &[][..],
        &["nonsense"],
        &["table5", "--wat"],
        &["table5", "--rounds"],
        &["table5", "--rounds", "many"],
        &["table5", "--seed", "-1"],
        &["table5", "--iters", "3"],
        &["fuzz", "--quick"],
        &["fuzz", "--iters", "x"],
        &["fuzz", "--mutation", "nonsense"],
        &["list", "--quick"],
        &["bisect"],
        &["bisect", "--manifest-a", "a.json"],
        &["bisect", "--manifest-a", "a.json", "--spec-b", "b.toml"],
        &["profile"],
        &["profile", "nonsense"],
        &["profile", "gallery", "--iters", "3"],
    ] {
        let (code, _, stderr) = repro(args);
        assert_eq!(code, 2, "repro {args:?}:\n{stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}:\n{stderr}");
    }
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_a_usage_error() {
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "table5".as_ref(),
            std::ffi::OsStr::from_bytes(b"--filter\xff"),
        ])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("is not UTF-8") && !stderr.contains("panicked"),
        "{stderr}"
    );
}

#[test]
fn bisect_names_an_unreadable_or_unparsable_file_and_exits_2() {
    let dir = scratch("bisect");
    let missing = dir.join("missing.json");
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, "not a manifest = [").unwrap();
    let (missing, garbage) = (missing.to_str().unwrap(), garbage.to_str().unwrap());
    for (args, says) in [
        (
            ["--manifest-a", missing, "--manifest-b", missing],
            "cannot read",
        ),
        (
            ["--manifest-a", garbage, "--manifest-b", garbage],
            "is not a run manifest",
        ),
        (["--spec-a", missing, "--spec-b", missing], "cannot read"),
        (
            ["--spec-a", garbage, "--spec-b", garbage],
            "is not a scenario spec",
        ),
    ] {
        let (code, _, stderr) = repro(&[&["bisect"][..], &args[..]].concat());
        assert_eq!(code, 2, "bisect {args:?}:\n{stderr}");
        assert!(
            stderr.contains(args[1]) && stderr.contains(says),
            "bisect {args:?}:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn spec_bisect_compares_engine_state_through_the_final_round() {
    let base = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/seed_clean_baseline.toml"
    );
    let (code, stdout, stderr) = repro(&["bisect", "--spec-a", base, "--spec-b", base]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(
        stdout.contains("identical after every one of 3 rounds"),
        "{stdout}"
    );

    // One more round: the config hash differs from round 1 on, but the
    // engine state agrees until round 3, where the shorter run's final
    // evaluation lands in its round record.
    let dir = scratch("spec_bisect");
    let longer = dir.join("four_rounds.toml");
    let spec = std::fs::read_to_string(base).unwrap();
    assert!(spec.contains("\nrounds = 3\n"), "the corpus spec changed");
    std::fs::write(&longer, spec.replace("\nrounds = 3\n", "\nrounds = 4\n")).unwrap();
    let longer = longer.to_str().unwrap();
    let (code, stdout, stderr) = repro(&["bisect", "--spec-a", base, "--spec-b", longer]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stdout.contains("round 3 (round records)"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_failed_write_of_scale_json_exits_1_naming_the_path() {
    let dir = scratch("scale");
    // A directory where the file should go.
    std::fs::create_dir_all(dir.join("scale.json")).unwrap();
    let out = dir.to_str().unwrap();
    let (code, _, stderr) = repro(&["scale", "--smoke", "--rounds", "2", "--out", out]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains(&format!("could not write {out}/scale.json")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_prints_the_phase_shares_of_the_first_cell_and_writes_nothing() {
    let out = scratch("profile");
    let dir = out.join("results");
    let args = [
        "profile",
        "gallery",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
    ];
    let (code, stdout, stderr) = repro(&args);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.starts_with("gallery / none/fedavg/iid: "),
        "{stdout}"
    );
    let shares: Vec<f64> = stdout
        .lines()
        .skip(1)
        .map(|l| l.trim_end_matches('%').split_whitespace().last().unwrap())
        .map(|v| v.parse().expect("a share in percent"))
        .collect();
    assert_eq!(
        shares.len(),
        11,
        "open, train, 3 × 2 levels, close, evaluate, other"
    );
    let sum: f64 = shares.iter().sum();
    assert!((sum - 100.0).abs() < 0.1, "shares sum to {sum} %");
    assert!(!dir.exists(), "profile wrote {}", dir.display());
    let filtered = ["profile", "gallery", "--quick", "--filter", "no such cell"];
    let (code, _, stderr) = repro(&filtered);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("has no cell to profile"), "{stderr}");
}

#[test]
fn list_prints_every_experiment_in_the_order_all_runs_them() {
    let (code, stdout, _) = repro(&["list"]);
    assert_eq!(code, 0);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registry: Vec<&str> = hfl_bench::experiments::ALL.iter().map(|r| r.name).collect();
    assert_eq!(names, registry);
    assert_eq!(registry.first(), Some(&"table5"));
    assert_eq!(registry.last(), Some(&"scale"));
}

#[test]
fn an_experiment_whose_cells_are_all_filtered_out_writes_a_header_only_csv() {
    let dir = scratch("filtered");
    let out = dir.to_str().unwrap();
    let (code, stdout, stderr) =
        repro(&["faults", "--quick", "--filter", "none-such", "--out", out]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, "", "a table without rows is not printed");
    let csv = std::fs::read_to_string(dir.join("faults.csv")).unwrap();
    assert_eq!(csv.lines().count(), 1, "only the header: {csv}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_caught_mutation_exits_0_and_writes_its_minimal_repro() {
    let dir = scratch("mutation");
    let out = dir.to_str().unwrap();
    let (code, stdout, stderr) =
        repro(&["fuzz", "--mutation", "quorum", "--seed", "42", "--out", out]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("mutation `quorum` caught"), "{stdout}");
    let text = std::fs::read_to_string(dir.join("mutation_quorum.toml")).unwrap();
    assert!(
        hfl_oracle::toml::from_toml(&text).is_ok(),
        "the repro parses back:\n{text}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
