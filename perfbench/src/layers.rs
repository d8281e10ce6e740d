//! Metrics: the end-to-end ones of an untraced run, and the per-layer ones
//! of a traced run, computed from its spans.
//!
//! A traced run ends with a sweep: a fixed set of calls into every layer
//! on this seed's inputs, so each per-layer metric is measured on every
//! workload. A span-based metric uses the loop's spans of that layer when
//! the loop made any, and otherwise the set-up's and the sweep's.

use crate::gen::{self, Fingerprint, Input, Rng, LANGS};
use crate::trace::{Phase, Span};
use crate::workloads::{self, Built};
use crate::{check, stats, Metric, Run, SweepInputs, Workload};
use costar_grammar::analysis::{from_cache_json, to_cache_json, GrammarAnalysis};
use costar_grammar::Token;
use costar_lexer::EditSession;
use std::collections::HashMap;

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set (Linux 4.0 and later); does nothing where that fails.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set of any child process this process has
/// waited for, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux (the only target this benchmark runs on), and
    // getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    let _ = (usage.utime, usage.stime, usage.rest);
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, the loop's timings scaled by
/// `f` and the set-up time by `setup_f` (see [`crate::calib`]).
pub fn end_to_end(run: &Run, f: f64, setup_f: f64) -> Vec<Metric> {
    let recs = &run.records;
    let mut m = vec![
        metric(
            "setup_s",
            stats::median(&run.setup_secs).unwrap_or(0.0) * setup_f,
            "s",
        ),
        metric("tokens_per_s", tokens_per_s(recs) / f, "1/s"),
    ];
    for (q, name) in [(0.5, "p50_ms"), (0.9, "p90_ms")] {
        for (l, lang) in LANGS.iter().enumerate() {
            let ms: Vec<f64> = recs
                .iter()
                .filter(|r| r.lang == l)
                .map(|r| r.ns as f64 / 1e6 * f)
                .collect();
            m.push(metric(
                format!("{name}.{lang}"),
                stats::quantile(&ms, q).unwrap_or(0.0),
                "ms",
            ));
        }
    }
    m.push(metric("peak_rss_mb", run.peak_rss_mb, "MB"));
    m
}

fn tokens_per_s(recs: &[crate::OpRecord]) -> f64 {
    let tokens: u64 = recs.iter().filter(|r| r.ok).map(|r| r.tokens).sum();
    let ns: u64 = recs.iter().map(|r| r.ns).sum();
    tokens as f64 / (ns.max(1) as f64 / 1e9)
}

/// The calls of a traced run that are not part of its workload's loop.
/// Returns the number of checked outputs and how many failed.
pub fn sweep(run: &mut Run, inputs: &SweepInputs) -> std::io::Result<(u64, u64)> {
    let cfg = run.cfg.clone();
    let reps = cfg.sizes.sweep_repeats;
    let tr = &mut run.tr;
    let extra = &mut run.extra;
    let mut checked = Checked::default();
    let mut rng = Rng::new(cfg.seed ^ 0x5eed_5eed);

    // Set-up layers: building languages, compiling their grammars, and
    // computing, storing and loading their analyses.
    for _ in 0..reps {
        tr.span("langs.all_languages", None, |_| {
            drop(costar_langs::all_languages())
        });
    }
    let mut built = Vec::new();
    let mut cache_bytes = 0u64;
    for (l, name) in LANGS.iter().enumerate() {
        for _ in 0..reps {
            tr.span("langs.build", Some(l), |_| drop(gen::build(l)));
            tr.span("ebnf.compile", Some(l), |_| {
                drop(costar_ebnf::compile(gen::grammar_src(l)))
            });
        }
        let lang = gen::build(l);
        let g = lang.grammar();
        let mut analysis = None;
        for _ in 0..reps {
            analysis = Some(tr.span("analysis.compute", Some(l), |_| GrammarAnalysis::compute(g)));
        }
        let analysis = analysis.expect("at least one repeat");
        let (json, bytes) = tr.span_counted("analysis.cache_store", Some(l), |_| {
            let json = to_cache_json(g, &analysis);
            let n = json.len() as u64;
            (json, n)
        });
        cache_bytes += bytes;
        extra.push(format!("analysis.cache_bytes.{name}"), bytes as f64);
        for _ in 0..reps {
            let loaded = tr.span("analysis.cache_load", Some(l), |_| {
                from_cache_json(g, &json)
            });
            checked.record(loaded.is_some_and(|a| to_cache_json(g, &a) == json));
        }
        built.push(Built { lang, analysis });
    }
    extra.push("count.cache_bytes", cache_bytes as f64);

    // One sample file per language: the CLI pipeline in and out of process,
    // recovery and edit sessions on it.
    let samples: Vec<Input> = (0..LANGS.len())
        .map(|l| gen::sized_file(&mut rng, l, &built[l].lang, cfg.sizes.sample_tokens))
        .collect();
    let dir = cfg.out_dir.join(format!("sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut render_bytes = 0u64;
    for (l, sample) in samples.iter().enumerate() {
        let path = dir.join(format!("sample.{}", LANGS[l]));
        std::fs::write(&path, &sample.source)?;
        let tokens = built[l].lang.tokenize(&sample.source).unwrap_or_default();
        if cfg.workload != Workload::CliSmall {
            for _ in 0..reps {
                let start = std::time::Instant::now();
                let out = tr.span("cli.process", Some(l), |_| {
                    workloads::spawn_parse(&cfg.costar_bin, l, &path)
                });
                let process_ns = start.elapsed().as_nanos() as f64;
                checked.record(
                    matches!(&out, Ok((true, s)) if check::rendered_leaves_match(s, &tokens)),
                );
                let (replay_ns, analysis_ns) = workloads::replay_cli(tr, l, &path);
                extra.push(
                    format!("cli.residual_ms.{}", LANGS[l]),
                    (process_ns - replay_ns as f64) / 1e6,
                );
                extra.push("cli.analysis_share", analysis_ns as f64 / process_ns);
            }
        }
        let mut parser = built[l].parser();
        let outcome = parser.parse(&tokens);
        checked.record(
            check::unique_with_yield(&outcome, &tokens)
                && check::earley_agrees(built[l].lang.grammar(), &tokens, true),
        );
        if let Some(tree) = outcome.tree() {
            let (_, n) = tr.span_counted("tree.render", Some(l), |_| {
                let text = tree.render(built[l].lang.grammar().symbols());
                ((), std::hint::black_box(text).len() as u64)
            });
            render_bytes += n;
        }
        tr.span("sweep.recovery", Some(l), |tr| {
            recovery(tr, extra, &mut checked, l, &built[l], &tokens, reps)
        });
        if built[l].lang.incremental_lexing() {
            session(
                tr,
                extra,
                &mut checked,
                &mut rng,
                l,
                &built[l],
                &sample.source,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    extra.push("count.render_bytes", render_bytes as f64);

    // Batch parsing: a corpus per language of 8 files spread up to half the
    // bulk_parse size, parsed sequentially and with parse_many.
    let batchers = workloads::batchers(&built);
    for (l, b) in built.iter().enumerate() {
        let corpus = costar_langs::corpus(
            gen::generator(l),
            rng.next_u64(),
            8,
            gen::knob_for(l, cfg.sizes.bulk_tokens / 2),
        );
        let words: Vec<Vec<Token>> = corpus
            .iter()
            .map(|s| b.lang.tokenize(s).unwrap_or_default())
            .collect();
        let (digests, sequential_ms) = workloads::sequential_reference(tr, l, b, &corpus, &words);
        extra.push(format!("batch.sequential_ms.{}", LANGS[l]), sequential_ms);
        for _ in 0..reps {
            let result = tr.span("batch.parse_many", Some(l), |_| {
                batchers[l].parse_many(&words)
            });
            checked.record(digests.as_ref().is_some_and(|d| {
                result
                    .items
                    .iter()
                    .map(|i| check::outcome_digest(i.outcome()))
                    .eq(d.iter().copied())
            }));
        }
    }
    extra.push("batch.jobs", workloads::jobs() as f64);

    counts(tr, extra, &mut checked, &built, inputs);
    Ok((checked.attempted, checked.failed))
}

#[derive(Debug, Default)]
struct Checked {
    attempted: u64,
    failed: u64,
}

impl Checked {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Recovering against plain parsing on a clean word, and recovery on the
/// word with one closing token removed.
fn recovery(
    tr: &mut crate::trace::Tracer,
    extra: &mut crate::Extra,
    checked: &mut Checked,
    l: usize,
    b: &Built,
    tokens: &[Token],
    reps: usize,
) {
    let mut parser = b.parser();
    let (mut plain, mut recovering) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let outcome = tr.span("core.parse", Some(l), |_| parser.parse(tokens));
        plain.push(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        let recovered = tr.span("recover.parse", Some(l), |_| {
            parser.parse_recovering(tokens)
        });
        recovering.push(start.elapsed().as_secs_f64());
        checked.record(recovered.diagnostics.is_empty() && recovered.outcome == outcome);
        tr.span("tree.drop", Some(l), |_| drop((outcome, recovered)));
    }
    if let (Some(p), Some(r)) = (stats::median(&plain), stats::median(&recovering)) {
        extra.push(format!("recover.overhead.{}", LANGS[l]), r / p);
    }
    let symbols = b.lang.grammar().symbols();
    if let Some(cut) = tokens
        .iter()
        .rposition(|t| matches!(symbols.terminal_name(t.terminal()), "}" | "]" | ")" | ">"))
    {
        let mut broken = tokens.to_vec();
        broken.remove(cut);
        let (recovered, diagnostics) = tr.span_counted("recover.parse", Some(l), |_| {
            let r = parser.parse_recovering(&broken);
            let d = r.diagnostics.len() as u64;
            (r, d)
        });
        extra.push("recover.diagnostics", diagnostics as f64);
        checked.record(
            !recovered.outcome.is_accept()
                && diagnostics > 0
                && check::earley_agrees(b.lang.grammar(), &broken, false),
        );
    }
}

/// A short edit script through `EditSession::apply`, re-parsing after each
/// splice that changed the token vector.
fn session(
    tr: &mut crate::trace::Tracer,
    extra: &mut crate::Extra,
    checked: &mut Checked,
    rng: &mut Rng,
    l: usize,
    b: &Built,
    source: &str,
) {
    let Ok(tokens) = b.lang.tokenize(source) else {
        checked.record(false);
        return;
    };
    let script = gen::edit_script(rng, l, &b.lang, source, &tokens, 12, 30, 30);
    let Ok(mut es) = EditSession::new(b.lang.lexer(), source) else {
        checked.record(false);
        return;
    };
    let mut parser = b.parser();
    let sweep_relexed = !extra.has("lexer.tokens_relexed");
    for e in &script {
        let (report, relexed) = tr.span_counted("lexer.splice", Some(l), |_| {
            let r = es.apply(&e.edit);
            let n = r.as_ref().map_or(0, |r| r.tokens_relexed as u64);
            (r, n)
        });
        let Ok(report) = report else {
            checked.record(false);
            continue;
        };
        if sweep_relexed {
            extra.push("lexer.tokens_relexed", relexed as f64);
            extra.push(
                "session.reuse_fraction",
                f64::from(u8::from(report.unchanged)),
            );
        }
        if !report.unchanged {
            let r = tr.span("recover.parse", Some(l), |_| {
                parser.parse_recovering(es.tokens())
            });
            tr.span("tree.drop", Some(l), |_| drop(r));
        }
        checked.record(
            b.lang
                .tokenize(es.source())
                .is_ok_and(|fresh| fresh == es.tokens()),
        );
    }
}

/// The deterministic counts over every input of the workload, and the
/// per-token ratios `Parser::parse_with_metrics` reports.
fn counts(
    tr: &mut crate::trace::Tracer,
    extra: &mut crate::Extra,
    checked: &mut Checked,
    built: &[Built],
    inputs: &SweepInputs,
) {
    let mut fp = Fingerprint::default();
    let mut per = [[0u64; 8]; 4];
    let (mut bytes, mut height) = (0u64, 0usize);
    for input in &inputs.inputs {
        fp.add(input.source.as_bytes());
        bytes += input.source.len() as u64;
        let b = &built[input.lang];
        let Ok(tokens) = b.lang.tokenize(&input.source) else {
            checked.record(false);
            continue;
        };
        let mut parser = b.parser();
        let (outcome, m) = tr.span("core.parse_with_metrics", Some(input.lang), |_| {
            parser.parse_with_metrics(&tokens)
        });
        checked.record(check::unique_with_yield(&outcome, &tokens));
        let nodes = outcome.tree().map_or(0, |t| {
            height = height.max(t.height());
            t.size()
        });
        let p = &mut per[input.lang];
        for (slot, v) in [
            tokens.len() as u64,
            nodes as u64,
            m.machine_steps,
            m.prediction_steps,
            m.static_fast_path_hits,
            m.decisions,
            m.cache_hits,
            m.cache_lookups,
        ]
        .into_iter()
        .enumerate()
        {
            p[slot] += v;
        }
    }
    fp.add(&inputs.script_bytes);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    for (l, p) in per.iter().enumerate() {
        let lang = LANGS[l];
        if p[0] == 0 {
            continue;
        }
        extra.push(
            format!("core.machine_steps_per_token.{lang}"),
            ratio(p[2], p[0]),
        );
        extra.push(
            format!("core.prediction_steps_per_token.{lang}"),
            ratio(p[3], p[0]),
        );
        extra.push(
            format!("core.static_fast_path_fraction.{lang}"),
            ratio(p[4], p[5]),
        );
        extra.push(format!("core.sll_cache_hit_rate.{lang}"), ratio(p[6], p[7]));
        extra.push(format!("tree.nodes_per_token.{lang}"), ratio(p[1], p[0]));
    }
    let total = |slot: usize| per.iter().map(|p| p[slot]).sum::<u64>() as f64;
    extra.push("count.tokens", total(0));
    extra.push("count.tree_nodes", total(1));
    extra.push("count.machine_steps", total(2));
    extra.push("count.prediction_steps", total(3));
    extra.push("count.tree_height_max", height as f64);
    extra.push("count.input_bytes", bytes as f64);
    extra.push("count.input_fingerprint", f64::from(fp.value()));
}

/// Self times and work of the run's spans, grouped by name.
struct SpanIndex<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
    by_name: HashMap<&'static str, Vec<usize>>,
}

impl<'a> SpanIndex<'a> {
    fn new(run: &'a Run) -> Self {
        let spans = run.tr.spans();
        let mut by_name: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_name.entry(s.name).or_default().push(i);
        }
        SpanIndex {
            spans,
            own: run.tr.self_ns(),
            by_name,
        }
    }

    /// The spans named `name` (of language `lang`, if given): the loop's,
    /// when it made any, otherwise all.
    fn pick(&self, name: &str, lang: Option<usize>) -> Vec<usize> {
        let all: Vec<usize> = self
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| lang.is_none() || self.spans[i].lang == lang)
                    .collect()
            })
            .unwrap_or_default();
        let looped: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.spans[i].phase == Phase::Loop)
            .collect();
        if looped.is_empty() {
            all
        } else {
            looped
        }
    }

    fn median_ms(&self, name: &str, lang: Option<usize>) -> f64 {
        let ms: Vec<f64> = self
            .pick(name, lang)
            .iter()
            .map(|&i| self.own[i] as f64 / 1e6)
            .collect();
        stats::median(&ms).unwrap_or(0.0)
    }

    /// Work per second of self time.
    fn rate(&self, name: &str, lang: Option<usize>) -> f64 {
        let picked = self.pick(name, lang);
        let work: u64 = picked.iter().map(|&i| self.spans[i].work).sum();
        let s: f64 = picked.iter().map(|&i| self.own[i] as f64 / 1e9).sum();
        if s > 0.0 {
            work as f64 / s
        } else {
            0.0
        }
    }

    fn median_work(&self, name: &str, lang: Option<usize>) -> f64 {
        let w: Vec<f64> = self
            .pick(name, lang)
            .iter()
            .map(|&i| self.spans[i].work as f64)
            .collect();
        stats::median(&w).unwrap_or(0.0)
    }

    /// Time dropping trees over time parsing them, within the operations
    /// (root spans) that do both: the loop's when it has any, otherwise
    /// all. Parsing is any of the parse calls a workload makes.
    fn drop_per_parse(&self) -> f64 {
        let mut per_root: HashMap<usize, (u64, u64)> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let slot = per_root.entry(root).or_default();
            match s.name {
                "tree.drop" => slot.0 += self.own[i],
                "core.parse" | "recover.parse" | "batch.parse_many" => slot.1 += self.own[i],
                _ => {}
            }
        }
        let both: Vec<(usize, (u64, u64))> = per_root
            .into_iter()
            .filter(|(_, (d, p))| *d > 0 && *p > 0)
            .collect();
        let looped: Vec<&(usize, (u64, u64))> = both
            .iter()
            .filter(|(r, _)| self.spans[*r].phase == Phase::Loop)
            .collect();
        let picked: Vec<&(usize, (u64, u64))> = if looped.is_empty() {
            both.iter().collect()
        } else {
            looped
        };
        let (d, p) = picked
            .iter()
            .fold((0, 0), |(d, p), (_, (dd, pp))| (d + dd, p + pp));
        if p > 0 {
            d as f64 / p as f64
        } else {
            0.0
        }
    }

    /// Loop operations: (wall time without checks, residual) in ns, where
    /// the residual is the root span's self time — the part of the
    /// operation no layer span covers.
    fn operations(&self) -> Vec<(u64, u64)> {
        let mut checks: HashMap<usize, u64> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "check" {
                if let Some(p) = s.parent {
                    *checks.entry(p).or_default() += self.spans[i].ns();
                }
            }
        }
        self.by_name
            .get("op")
            .into_iter()
            .flatten()
            .map(|&i| {
                (
                    self.spans[i].ns() - checks.get(&i).copied().unwrap_or(0),
                    self.own[i],
                )
            })
            .collect()
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let ix = SpanIndex::new(run);
    let x = &run.extra;
    let mut m = Vec::new();
    let each = |m: &mut Vec<Metric>, prefix: &str, unit: &'static str, f: &dyn Fn(usize) -> f64| {
        for (l, lang) in LANGS.iter().enumerate() {
            m.push(metric(format!("{prefix}.{lang}"), f(l), unit));
        }
    };
    let mean = |name: &str| x.mean(name).unwrap_or(0.0);
    let median = |name: &str| x.median(name).unwrap_or(0.0);

    m.push(metric(
        "langs.all_languages_ms",
        ix.median_ms("langs.all_languages", None),
        "ms",
    ));
    each(&mut m, "langs.build_ms", "ms", &|l| {
        ix.median_ms("langs.build", Some(l))
    });
    each(&mut m, "ebnf.compile_ms", "ms", &|l| {
        ix.median_ms("ebnf.compile", Some(l))
    });
    each(&mut m, "analysis.compute_ms", "ms", &|l| {
        ix.median_ms("analysis.compute", Some(l))
    });
    each(&mut m, "analysis.cache_load_ms", "ms", &|l| {
        ix.median_ms("analysis.cache_load", Some(l))
    });
    each(&mut m, "analysis.cache_bytes", "bytes", &|l| {
        mean(&format!("analysis.cache_bytes.{}", LANGS[l]))
    });
    m.push(metric(
        "lexer.tokenize_ms",
        ix.median_ms("lexer.tokenize", None),
        "ms",
    ));
    each(&mut m, "lexer.tokens_per_s", "1/s", &|l| {
        ix.rate("lexer.tokenize", Some(l))
    });
    m.push(metric(
        "lexer.splice_ms",
        ix.median_ms("lexer.splice", None),
        "ms",
    ));
    m.push(metric(
        "lexer.tokens_relexed",
        mean("lexer.tokens_relexed"),
        "count",
    ));
    m.push(metric(
        "core.parse_ms",
        ix.median_ms("core.parse", None),
        "ms",
    ));
    each(&mut m, "core.parse_tokens_per_s", "1/s", &|l| {
        ix.rate("core.parse", Some(l))
    });
    for name in [
        "core.machine_steps_per_token",
        "core.prediction_steps_per_token",
        "core.static_fast_path_fraction",
        "core.sll_cache_hit_rate",
    ] {
        each(&mut m, name, "ratio", &|l| {
            mean(&format!("{name}.{}", LANGS[l]))
        });
    }
    m.push(metric(
        "tree.drop_ms",
        ix.median_ms("tree.drop", None),
        "ms",
    ));
    m.push(metric("tree.drop_per_parse", ix.drop_per_parse(), "ratio"));
    each(&mut m, "tree.nodes_per_token", "ratio", &|l| {
        mean(&format!("tree.nodes_per_token.{}", LANGS[l]))
    });
    m.push(metric(
        "tree.render_ms",
        ix.median_ms("tree.render", None),
        "ms",
    ));
    m.push(metric(
        "tree.render_bytes",
        ix.median_work("tree.render", None),
        "bytes",
    ));
    m.push(metric(
        "recover.parse_ms",
        ix.median_ms("recover.parse", None),
        "ms",
    ));
    each(&mut m, "recover.overhead", "ratio", &|l| {
        mean(&format!("recover.overhead.{}", LANGS[l]))
    });
    m.push(metric(
        "recover.diagnostics",
        mean("recover.diagnostics"),
        "count",
    ));
    m.push(metric(
        "session.reuse_fraction",
        mean("session.reuse_fraction"),
        "ratio",
    ));
    each(&mut m, "batch.parse_many_ms", "ms", &|l| {
        ix.median_ms("batch.parse_many", Some(l))
    });
    each(&mut m, "batch.speedup", "ratio", &|l| {
        let many = ix.median_ms("batch.parse_many", Some(l));
        let sequential = mean(&format!("batch.sequential_ms.{}", LANGS[l]));
        if many > 0.0 {
            sequential / many
        } else {
            0.0
        }
    });
    m.push(metric("batch.jobs", mean("batch.jobs"), "count"));
    each(&mut m, "cli.residual_ms", "ms", &|l| {
        median(&format!("cli.residual_ms.{}", LANGS[l]))
    });
    m.push(metric(
        "cli.analysis_share",
        mean("cli.analysis_share"),
        "ratio",
    ));

    let ops = ix.operations();
    let wall: u64 = ops.iter().map(|o| o.0).sum();
    let residual: u64 = ops.iter().map(|o| o.1).sum();
    let untraced = tokens_per_s(&run.records);
    m.push(metric(
        "trace.overhead",
        if untraced > 0.0 {
            tokens_per_s(&run.traced) / untraced
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(metric(
        "trace.residual_ms",
        residual as f64 / 1e6 / ops.len().max(1) as f64,
        "ms",
    ));
    m.push(metric(
        "trace.residual_share",
        residual as f64 / wall.max(1) as f64,
        "ratio",
    ));

    for name in [
        "count.tokens",
        "count.tree_nodes",
        "count.tree_height_max",
        "count.machine_steps",
        "count.prediction_steps",
        "count.render_bytes",
        "count.cache_bytes",
        "count.input_bytes",
        "count.input_fingerprint",
    ] {
        m.push(metric(name, x.sum(name).unwrap_or(0.0), "count"));
    }
    m
}
