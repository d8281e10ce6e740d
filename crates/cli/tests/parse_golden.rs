//! Golden tests of `costar parse` output: stdout, stderr and the exit
//! code, compared byte for byte against expected text in
//! `tests/fixtures/parse_golden/`.
//!
//! Each language has a small clean input and a broken copy of it with
//! one closer deleted. Every case runs from the fixture directory with
//! relative file names, so the batch verdict lines are stable. No case
//! prints a wall-clock figure (`--time`, `--stats`), so every byte is
//! deterministic.
//!
//! An expected file holds one run, rendered as:
//!
//! ```text
//! exit: CODE
//! --- stdout
//! ...
//! --- stderr
//! ...
//! ```

use std::path::PathBuf;
use std::process::Command;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parse_golden")
}

/// Runs `costar parse ARGS` in the fixture directory and renders the run
/// in the expected-file format.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_costar"))
        .current_dir(fixture_dir())
        .env_remove("COSTAR_CACHE_DIR")
        .arg("parse")
        .args(args)
        .output()
        .expect("spawn costar");
    let code = out
        .status
        .code()
        .map_or_else(|| "signal".to_owned(), |c| c.to_string());
    format!(
        "exit: {code}\n--- stdout\n{}--- stderr\n{}",
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

/// The cases for one language, as `(expected-file stem, parse args)`.
fn cases(lang: &'static str) -> Vec<(String, Vec<String>)> {
    let clean = format!("clean.{lang}");
    let broken = format!("broken.{lang}");
    let case = |stem: &str, args: &[&str]| {
        let mut v = vec!["--lang".to_owned(), lang.to_owned()];
        v.extend(args.iter().map(|a| (*a).to_owned()));
        (format!("{lang}_{stem}"), v)
    };
    vec![
        case("clean", &[&clean]),
        case("broken", &[&broken]),
        case("clean_tree", &[&clean, "--tree"]),
        case("broken_tree", &[&broken, "--tree"]),
        case("clean_recover_tree", &[&clean, "--recover", "--tree"]),
        case("broken_recover_tree", &[&broken, "--recover", "--tree"]),
        case("clean_recover_json", &[&clean, "--recover=json"]),
        case("broken_recover_json", &[&broken, "--recover=json"]),
        case("broken_trace", &[&broken, "--trace-buffer", "16"]),
        case("batch", &["--jobs", "1", &clean, &broken]),
        case(
            "batch_recover_json",
            &["--jobs", "1", &clean, &broken, "--recover=json"],
        ),
    ]
}

fn check_language(lang: &'static str) {
    let mut mismatches = Vec::new();
    for (stem, args) in cases(lang) {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let got = run(&args);
        let path = fixture_dir().join(format!("{stem}.txt"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if got != want {
            mismatches.push(format!(
                "== {stem} (costar parse {}):\n-- want:\n{want}\n-- got:\n{got}",
                args.join(" ")
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn json_parse_output_matches_golden() {
    check_language("json");
}

#[test]
fn dot_parse_output_matches_golden() {
    check_language("dot");
}
