//! The CoStar benchmark of record.
//!
//! One process runs one workload for a fixed time and prints one JSON line
//! of results. With tracing off it reports the end-to-end metrics; with
//! tracing on it runs the loop twice (untraced, then traced, to measure
//! the tracing overhead), then a fixed sweep of calls into every layer,
//! and reports per-layer metrics computed from the spans.
//!
//! Workloads (why each exists is recorded in `perfbench/workloads.json`):
//! - `cli_small`: one `costar parse --lang L --tree FILE` process at a
//!   time on small files; set-up layers dominate.
//! - `bulk_parse`: tokenize, parse and drop ~20k-token files in process.
//! - `edit_session`: single-token edits replayed through edit sessions,
//!   some breaking and later repairing the syntax.

pub mod calib;
pub mod check;
pub mod gen;
pub mod layers;
pub mod stats;
pub mod trace;
mod workloads;

use calib::Calibration;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliSmall,
    BulkParse,
    EditSession,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CliSmall,
        Workload::BulkParse,
        Workload::EditSession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliSmall => "cli_small",
            Workload::BulkParse => "bulk_parse",
            Workload::EditSession => "edit_session",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] runs every code path in well under a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `cli_small` files per language, and their token range.
    pub cli_files: usize,
    pub cli_tokens: (usize, usize),
    /// `bulk_parse` files per language, and their nominal token count.
    pub bulk_files: usize,
    pub bulk_tokens: usize,
    /// `edit_session` document size and script length per language.
    pub edit_tokens: usize,
    pub edit_script: usize,
    /// Share of `edit_session` edits that break the syntax, and share of
    /// the other edits that retype a token unchanged, in percent.
    pub edit_break_percent: u64,
    pub edit_retype_percent: u64,
    /// How many times set-up runs (its median is `setup_s`), and how many
    /// times the sweep repeats each timed call.
    pub setup_repeats: usize,
    pub sweep_repeats: usize,
    /// Inputs per language that the Earley recognizer also checks.
    pub earley_sample: usize,
    /// Token count of the sweep's sample file per language.
    pub sample_tokens: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            cli_files: 48,
            cli_tokens: (100, 1000),
            bulk_files: 3,
            bulk_tokens: 20_000,
            edit_tokens: 20_000,
            edit_script: 120,
            edit_break_percent: 5,
            edit_retype_percent: 10,
            setup_repeats: 3,
            sweep_repeats: 3,
            earley_sample: 1,
            sample_tokens: 600,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            cli_files: 2,
            cli_tokens: (40, 80),
            bulk_files: 2,
            bulk_tokens: 150,
            edit_tokens: 150,
            edit_script: 24,
            edit_break_percent: 30,
            edit_retype_percent: 20,
            setup_repeats: 2,
            sweep_repeats: 1,
            earley_sample: 2,
            sample_tokens: 60,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `costar` executable `cli_small` and the sweep spawn.
    pub costar_bin: PathBuf,
    /// Where scratch input files and the span file go.
    pub out_dir: PathBuf,
    pub sizes: Sizes,
    /// Test hook: check every output against a deliberately wrong
    /// reference for the first input, so the checks must count failures.
    pub tamper_reference: bool,
    /// Test hook: boxed strings each loop operation allocates, touches and
    /// drops inside its timed interval, as extra work of known cost.
    pub inject_churn: usize,
}

/// One timed operation of a workload loop.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub lang: usize,
    /// Timed wall time, without the checks of the operation's output.
    pub ns: u64,
    pub tokens: u64,
    pub ok: bool,
}

/// Named values a run collects besides spans (per-language counts and
/// ratios measured from outside the program), each reported as a mean.
#[derive(Debug, Default)]
pub struct Extra(BTreeMap<String, Vec<f64>>);

impl Extra {
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).and_then(|v| stats::median(v))
    }

    pub fn sum(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.iter().sum())
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    pub cfg: Config,
    pub tr: Tracer,
    pub setup_secs: Vec<f64>,
    /// Operations of the untraced loop.
    pub records: Vec<OpRecord>,
    /// Operations of the traced loop (tracing runs only).
    pub traced: Vec<OpRecord>,
    pub extra: Extra,
    /// Peak resident set of the process that ran the workload, in MiB.
    pub peak_rss_mb: f64,
    pub calibration: Calibration,
}

impl Run {
    fn new(cfg: &Config) -> Run {
        Run {
            cfg: cfg.clone(),
            tr: Tracer::new(false),
            setup_secs: Vec::new(),
            records: Vec::new(),
            traced: Vec::new(),
            extra: Extra::default(),
            peak_rss_mb: 0.0,
            calibration: Calibration::start(),
        }
    }

    /// Runs the closed loop: `op` is called with increasing operation ids
    /// until the loop has run for `seconds` and has made a whole number of
    /// rounds of `round` operations. A round visits every input of the
    /// workload equally, so every run measures the same mix of operations
    /// whatever the host's speed; on `edit_session` it replays each edit
    /// script once, including its few costly breaks. In a tracing run the
    /// first half runs untraced and the second half traced.
    ///
    /// The process's peak resident set is reset when the loop starts and
    /// read when it ends, so `peak_rss_mb` is the loop's own.
    pub fn closed_loop(&mut self, round: u64, mut op: impl FnMut(&mut Tracer, u64) -> OpRecord) {
        self.tr.phase = trace::Phase::Loop;
        layers::reset_own_peak_rss();
        let tracing = self.cfg.trace;
        let halves: &[bool] = if tracing { &[false, true] } else { &[false] };
        let seconds = self.cfg.seconds / halves.len() as f64;
        let mut id = 0u64;
        for &traced in halves {
            self.tr.set_enabled(traced);
            let start = Instant::now();
            let mut recs = Vec::new();
            while recs.is_empty()
                || !id.is_multiple_of(round.max(1))
                || start.elapsed().as_secs_f64() < seconds
            {
                id += 1;
                let mut rec = op(&mut self.tr, id);
                if self.cfg.inject_churn > 0 {
                    let start = Instant::now();
                    churn(self.cfg.inject_churn);
                    rec.ns += start.elapsed().as_nanos() as u64;
                }
                recs.push(rec);
                self.calibration.between_operations();
            }
            if traced {
                self.traced = recs;
            } else {
                self.records = recs;
            }
        }
        self.tr.set_enabled(tracing);
        self.peak_rss_mb = layers::own_peak_rss_mb();
    }

    /// Times `setup` `setup_repeats` times (only once, traced, in a tracing
    /// run) and returns the last result. The calibration samples the host
    /// before each set-up and after the last.
    pub fn setup<T>(&mut self, mut setup: impl FnMut(&Config, &mut Tracer) -> T) -> T {
        let repeats = if self.cfg.trace {
            1
        } else {
            self.cfg.sizes.setup_repeats
        };
        let mut last = None;
        for _ in 0..repeats {
            drop(last.take());
            self.calibration.around_setup();
            let start = Instant::now();
            last = Some(setup(&self.cfg, &mut self.tr));
            self.setup_secs.push(start.elapsed().as_secs_f64());
        }
        self.calibration.around_setup();
        last.expect("setup runs at least once")
    }
}

/// Allocates `n` boxed strings, writes them, and drops them: the extra
/// work of [`Config::inject_churn`].
pub fn churn(n: usize) {
    let strings: Vec<Box<str>> = (0..n)
        .map(|i| format!("{i:024}").into_boxed_str())
        .collect();
    std::hint::black_box(&strings);
}

/// Measures the time `f` takes, for keeping checks out of an operation's
/// timed wall time.
#[derive(Debug, Default)]
pub struct CheckClock {
    ns: u64,
}

impl CheckClock {
    pub fn check(&mut self, tr: &mut Tracer, f: impl FnOnce() -> bool) -> bool {
        let start = Instant::now();
        let ok = tr.span("check", None, |_| f());
        self.ns += start.elapsed().as_nanos() as u64;
        ok
    }

    pub fn ns(&self) -> u64 {
        self.ns
    }
}

/// Times one operation, leaving out the time its checks took.
pub fn timed_op(
    tr: &mut Tracer,
    id: u64,
    lang: usize,
    f: impl FnOnce(&mut Tracer, &mut CheckClock) -> (bool, u64),
) -> OpRecord {
    let mut clock = CheckClock::default();
    let start = Instant::now();
    let (ok, tokens) = tr.operation(id, lang, |tr| f(tr, &mut clock));
    let total = start.elapsed().as_nanos() as u64;
    OpRecord {
        lang,
        ns: total.saturating_sub(clock.ns()),
        tokens,
        ok,
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of a run: the contract's last line of standard output.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What the loop's end-to-end timings, and `setup_s`, were multiplied
    /// by (see [`calib`]).
    pub host_factor: f64,
    pub setup_factor: f64,
    /// The end-to-end metrics of an untraced run before scaling.
    pub raw: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints for an `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Runs one workload as configured and returns its report. Spans of a
/// tracing run are written to `out_dir`.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let mut run = Run::new(cfg);
    run.tr = Tracer::new(cfg.trace);
    let sweep = match cfg.workload {
        Workload::CliSmall => workloads::cli_small(&mut run)?,
        Workload::BulkParse => workloads::bulk_parse(&mut run),
        Workload::EditSession => workloads::edit_session(&mut run),
    };
    let attempted_ops: Vec<OpRecord> = run.records.iter().chain(&run.traced).copied().collect();
    let mut report = Report {
        attempted: attempted_ops.len() as u64,
        failed: attempted_ops.iter().filter(|r| !r.ok).count() as u64,
        metrics: Vec::new(),
        host_factor: run.calibration.loop_factor(),
        setup_factor: run.calibration.setup_factor(),
        raw: Vec::new(),
    };
    if cfg.trace {
        run.tr.phase = trace::Phase::Sweep;
        let (attempted, failed) = layers::sweep(&mut run, &sweep)?;
        report.attempted += attempted;
        report.failed += failed;
        report.metrics = layers::per_layer(&run);
        let path = cfg
            .out_dir
            .join(format!("spans-{}-{}.tsv", cfg.workload.name(), cfg.seed));
        std::fs::write(path, run.tr.to_tsv(&gen::LANGS))?;
    } else {
        report.metrics = layers::end_to_end(&run, report.host_factor, report.setup_factor);
        report.raw = layers::end_to_end(&run, 1.0, 1.0);
    }
    Ok(report)
}

/// What a workload hands the sweep: the inputs it measured.
#[derive(Debug, Default)]
pub struct SweepInputs {
    /// Every generated input of the workload (the deterministic counts
    /// cover exactly these).
    pub inputs: Vec<gen::Input>,
    /// Extra bytes the inputs depend on (edit scripts), for the input
    /// fingerprint.
    pub script_bytes: Vec<u8>,
}
