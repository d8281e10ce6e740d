//! Emits the parse observability report (`BENCH_parse.json`).
//!
//! ```text
//! parse_bench [--quick|--standard] [--out PATH] [--check BASELINE]
//! ```
//!
//! Runs every benchmark-language corpus through the default
//! (NullObserver) parse path and the metrics-observed path, then writes a
//! JSON report with per-language throughput, the prediction-mode
//! breakdown (decisions, SLL-resolved fraction, failovers), cache hit
//! rates, and the observer overhead ratio. The human-readable table goes
//! to stderr; the JSON file is the artifact CI uploads.
//!
//! `--check BASELINE` compares the run against a committed baseline
//! report and exits nonzero if any of these gates fails:
//!
//! * observer overhead — the time-weighted overhead of the metrics
//!   observer may not exceed the baseline's by more than 5% (the "metrics
//!   collection stays cheap, the default path stays free" claim);
//! * recovery overhead — the same envelope for the recovering parse on
//!   clean input;
//! * broken-DOT recovery — recovering a DOT file with an unclosed list
//!   stays within 5x a clean parse;
//! * metrics reconciliation — every language's metrics reconcile with
//!   the fuel meter;
//! * cost soundness — no parse out-steps its certified cost bound, and
//!   the bound stays between 1x and 10^6x the metered work;
//! * batch determinism — 4-worker batch results equal the sequential
//!   ones;
//! * batch speedup — on hosts with at least 4 cores, 4 workers reach a
//!   1.8x speedup;
//! * incremental splicing — spliced token vectors equal a from-scratch
//!   lex, and a single-token JSON edit splices at least 10x faster than a
//!   full relex;
//! * certificate speedup — validating the embedded audit certificate
//!   stays at least 10x cheaper than recomputing it;
//! * static fast path — the LL(1) fast path fires on JSON, and its hit
//!   fraction on JSON, XML and DOT stays within 0.05 of the baseline's.
//!
//! On success it prints every gate that ran.

use costar_bench::{parse_bench, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::quick();
    let mut out = "BENCH_parse.json".to_owned();
    let mut check = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = Config::quick(),
            "--standard" => cfg = Config::standard(),
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check needs a baseline path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: parse_bench [--quick|--standard] [--out PATH] [--check BASELINE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if cfg!(debug_assertions) {
        eprintln!("note: running unoptimized; use `cargo run --release --bin parse_bench`");
    }
    let report = parse_bench(&cfg);
    eprintln!("{report}");

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");

    if let Some(baseline_path) = check {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        match report.check_against(&baseline, 0.05) {
            Ok(gates) => eprintln!(
                "all {} gates passed against {baseline_path}: {}",
                gates.len(),
                gates.join(", ")
            ),
            Err(msg) => {
                eprintln!("gate failures vs {baseline_path}:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
