//! The harness's own tests: tiny runs of every workload print every metric
//! `BENCHMARK.json` names, with its unit and no failures; a wrong reference
//! is counted; and the deterministic counts repeat for a seed.

use perfbench::{run, Config, Report, Sizes, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The `costar` executable, built once for all tests.
fn costar_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .map(|t| if t.is_absolute() { t } else { repo().join(t) })
            .unwrap_or_else(|| repo().join("perfbench/target"));
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "costar-cli",
            ])
            .current_dir(repo())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building costar-cli failed");
        target.join("release/costar")
    })
    .clone()
}

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.3,
        trace,
        costar_bin: costar_bin(),
        out_dir: repo().join(format!("perfbench/out/test-{}-{seed}", std::process::id())),
        sizes: Sizes::tiny(),
        tamper_reference: false,
        inject_churn: 0,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string closes");
        rest[open..open + len].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_metrics(report: &Report, list: &str, what: &str) {
    let want = declared(list);
    assert_eq!(report.metrics.len(), want.len(), "{what}: metric count");
    for (name, unit) in want {
        let m = report
            .metric(&name)
            .unwrap_or_else(|| panic!("{what}: no metric {name}"));
        assert_eq!(m.unit, unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
}

#[test]
fn tiny_runs_print_every_metric_without_failures() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let what = format!("{} trace={trace}", workload.name());
            let report = run(&config(workload, 1, trace)).expect("run completes");
            assert!(report.attempted > 0, "{what}: nothing attempted");
            assert_eq!(
                report.failed,
                0,
                "{what}: error_rate {}",
                report.error_rate()
            );
            assert!(report.correct());
            assert_metrics(&report, list, &what);
            let line = report.to_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn a_wrong_reference_is_counted_as_failed() {
    for workload in Workload::ALL {
        let mut cfg = config(workload, 2, false);
        cfg.tamper_reference = true;
        let report = run(&cfg).expect("run completes");
        assert!(
            report.failed > 0,
            "{}: wrong reference not caught",
            workload.name()
        );
        assert!(!report.correct());
        assert!(report.error_rate() > 0.0);
    }
}

#[test]
fn counts_repeat_for_a_seed_and_inputs_change_with_it() {
    let counts = |seed| {
        let report = run(&config(Workload::BulkParse, seed, true)).expect("run completes");
        report
            .metrics
            .into_iter()
            .filter(|m| m.name.starts_with("count.") || m.name.contains("_per_token"))
            .map(|m| (m.name, m.value))
            .collect::<Vec<_>>()
    };
    let first = counts(3);
    assert!(first.len() >= 9);
    assert_eq!(first, counts(3), "counts differ between runs of one seed");
    let fingerprint = |c: &[(String, f64)]| {
        c.iter()
            .find(|(n, _)| n == "count.input_fingerprint")
            .map(|c| c.1)
    };
    assert_ne!(
        fingerprint(&first),
        fingerprint(&counts(4)),
        "a new seed kept the inputs"
    );
}
