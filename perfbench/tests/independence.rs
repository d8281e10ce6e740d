//! The host factor and the peak resident set measure what they claim:
//! extra work in the loop's operations shows in full in the scaled
//! timings and in `peak_rss_mb`, and leaves the host factor where it was.
//!
//! One test function, so no other test shares this process's peak resident
//! set while it runs.

use perfbench::{churn, layers, run, Config, Report, Sizes, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CHURN: usize = 100_000;

fn config(inject_churn: usize) -> Config {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Config {
        workload: Workload::BulkParse,
        seed: 5,
        seconds: 1.5,
        trace: false,
        costar_bin: PathBuf::new(),
        out_dir: repo.join(format!("perfbench/out/test-{}-5", std::process::id())),
        sizes: Sizes::tiny(),
        tamper_reference: false,
        inject_churn,
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report.metric(name).expect("metric present").value
}

/// Median time of `churn(CHURN)` on this host now, in ms.
fn churn_ms() -> f64 {
    let mut ms: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            churn(CHURN);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[test]
fn injected_work_shows_in_full_and_leaves_the_host_factor() {
    let base = run(&config(0)).expect("run completes");
    let injected = run(&config(CHURN)).expect("run completes");
    let cost = churn_ms();
    assert_eq!(base.failed + injected.failed, 0);

    let moved = injected.host_factor / base.host_factor;
    assert!(
        (0.75..1.33).contains(&moved),
        "host factor moved {moved}x with the injected work"
    );
    for lang in ["json", "xml", "dot", "python"] {
        let name = format!("p50_ms.{lang}");
        let rise = value(&injected, &name) - value(&base, &name);
        let expected = cost * injected.host_factor;
        assert!(
            (0.6 * expected..1.6 * expected).contains(&rise),
            "{name} rose {rise} ms; the injected work costs {expected} ms scaled"
        );
        let raw_rise = injected.raw.iter().find(|m| m.name == name).unwrap().value
            - base.raw.iter().find(|m| m.name == name).unwrap().value;
        assert!(
            (0.6 * cost..1.6 * cost).contains(&raw_rise),
            "raw {name} rose {raw_rise} ms; the injected work costs {cost} ms"
        );
    }

    // CHURN strings of 24 bytes, and the vector holding them, take several
    // MiB while an operation holds them.
    let rss_rise = value(&injected, "peak_rss_mb") - value(&base, "peak_rss_mb");
    assert!(rss_rise > 2.0, "peak_rss_mb rose {rss_rise} MiB");

    // A peak from before the reset does not count.
    let big = vec![1u8; 64 << 20];
    std::hint::black_box(&big);
    drop(big);
    let before = layers::own_peak_rss_mb();
    layers::reset_own_peak_rss();
    let after = layers::own_peak_rss_mb();
    assert!(
        after < before - 32.0,
        "peak {after} MiB after the reset, {before} MiB before"
    );
}
