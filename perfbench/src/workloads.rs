//! The three workloads. Each builds its inputs from the seed, checks them
//! once against references the code under test did not produce, then runs
//! a closed loop with one client whose operations are timed without their
//! output checks.

use crate::gen::{self, Input, Rng, ScriptedEdit, LANGS};
use crate::trace::Tracer;
use crate::{check, timed_op, Config, Run, SweepInputs};
use costar::{BatchParser, ParseOutcome, ParseSession, Parser, RecoveredParse};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::Token;
use costar_langs::Language;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Seeds of different workloads never share an input stream.
fn rng_for(cfg: &Config, salt: u64) -> Rng {
    Rng::new(cfg.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ salt)
}

/// A bundled language with its grammar analysis, built the way a program
/// embedding the library would: `<lang>::language()`, then
/// `GrammarAnalysis::compute`.
pub struct Built {
    pub lang: Language,
    pub analysis: GrammarAnalysis,
}

impl Built {
    pub fn parser(&self) -> Parser {
        Parser::with_analysis(self.lang.grammar().clone(), self.analysis.clone())
    }
}

pub fn build_all(tr: &mut Tracer) -> Vec<Built> {
    (0..LANGS.len())
        .map(|l| {
            let lang = tr.span("langs.build", Some(l), |_| gen::build(l));
            let analysis = tr.span("analysis.compute", Some(l), |_| {
                GrammarAnalysis::compute(lang.grammar())
            });
            Built { lang, analysis }
        })
        .collect()
}

/// The reference text the checks compare against: the generated source,
/// or a wrong one for the first input when the test hook asks for it.
fn reference(cfg: &Config, index: usize, source: &str) -> String {
    if cfg.tamper_reference && index == 0 {
        check::tampered(source)
    } else {
        source.to_owned()
    }
}

fn tokenize(tr: &mut Tracer, l: usize, lang: &Language, source: &str) -> Option<Vec<Token>> {
    tr.span_counted("lexer.tokenize", Some(l), |_| {
        let t = lang.tokenize(source).ok();
        let n = t.as_ref().map_or(0, Vec::len) as u64;
        (t, n)
    })
    .0
}

fn parse(tr: &mut Tracer, l: usize, parser: &mut Parser, tokens: &[Token]) -> ParseOutcome {
    tr.span_counted("core.parse", Some(l), |_| {
        (parser.parse(tokens), tokens.len() as u64)
    })
    .0
}

fn parse_recovering(
    tr: &mut Tracer,
    l: usize,
    parser: &mut Parser,
    tokens: &[Token],
) -> RecoveredParse {
    tr.span_counted("recover.parse", Some(l), |_| {
        let r = parser.parse_recovering(tokens);
        let d = r.diagnostics.len() as u64;
        (r, d)
    })
    .0
}

/// Checks a generated input once: its tokens spell the reference text, it
/// parses `Unique` with its token word as the tree's yield, and (for
/// `earley`) the Earley recognizer accepts it too.
pub fn validate(
    tr: &mut Tracer,
    l: usize,
    b: &Built,
    parser: &mut Parser,
    reference: &str,
    source: &str,
    earley: bool,
) -> bool {
    tr.span("check", None, |_| {
        let Ok(tokens) = b.lang.tokenize(source) else {
            return false;
        };
        check::tokens_cover(reference, &tokens)
            && check::unique_with_yield(&parser.parse(&tokens), &tokens)
            && (!earley
                || !check::earley_affordable(l, tokens.len())
                || check::earley_agrees(b.lang.grammar(), &tokens, true))
    })
}

/// Which inputs of `n` per language the Earley recognizer also checks.
fn earley_pick(rng: &mut Rng, n: usize, sample: usize) -> Vec<bool> {
    let mut pick: Vec<bool> = (0..n).map(|i| i < sample).collect();
    rng.shuffle(&mut pick);
    pick
}

// ---------------------------------------------------------------- cli_small

/// A `costar parse` child: its exit status and standard output.
pub fn spawn_parse(bin: &Path, lang: usize, file: &Path) -> std::io::Result<(bool, String)> {
    let out = Command::new(bin)
        .args(["parse", "--lang", LANGS[lang], "--tree"])
        .arg(file)
        .env_remove("COSTAR_CACHE_DIR")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// The `costar parse --lang L --tree FILE` pipeline replayed in process,
/// one span per public call: language lookup through `all_languages`,
/// analysis (no cache directory on this path), tokenize, parser
/// construction, parse, render and drop. Returns the replay's wall time
/// and the part of it the analysis took, in ns.
pub fn replay_cli(tr: &mut Tracer, l: usize, file: &Path) -> (u64, u64) {
    let start = Instant::now();
    let mut analysis_ns = 0;
    tr.span("cli.replay", Some(l), |tr| {
        let lang = tr.span("langs.all_languages", None, |_| {
            costar_langs::all_languages()
                .into_iter()
                .map(|(lang, _)| lang)
                .find(|lang| lang.name.eq_ignore_ascii_case(LANGS[l]))
        });
        let (Some(lang), Ok(source)) = (lang, std::fs::read_to_string(file)) else {
            return;
        };
        let Some(tokens) = tokenize(tr, l, &lang, &source) else {
            return;
        };
        let grammar = lang.grammar().clone();
        let analysis_start = Instant::now();
        let analysis = tr.span("analysis.compute", Some(l), |_| {
            GrammarAnalysis::compute(&grammar)
        });
        analysis_ns = analysis_start.elapsed().as_nanos() as u64;
        let mut parser = tr.span("core.with_analysis", Some(l), |_| {
            Parser::with_analysis(grammar, analysis)
        });
        let outcome = parse(tr, l, &mut parser, &tokens);
        if let Some(tree) = outcome.tree() {
            tr.span_counted("tree.render", Some(l), |_| {
                let text = tree.render(parser.grammar().symbols());
                ((), std::hint::black_box(text).len() as u64)
            });
        }
        tr.span("tree.drop", Some(l), |_| drop(outcome));
        tr.span("cli.drop_rest", Some(l), |_| {
            drop((parser, lang, tokens, source))
        });
    });
    (start.elapsed().as_nanos() as u64, analysis_ns)
}

pub fn cli_small(run: &mut Run) -> std::io::Result<SweepInputs> {
    let dir = run.cfg.out_dir.join(format!("cli-{}", std::process::id()));
    let result = cli_small_in(run, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn cli_small_in(run: &mut Run, dir: &Path) -> std::io::Result<SweepInputs> {
    let bin = run.cfg.costar_bin.clone();
    // Set-up is what a user's first call costs the harness: generating and
    // writing the files, and one warm-up process per language (the
    // executable's pages are then cached, as for any user after the first
    // call).
    let (inputs, paths) = run.setup(|cfg, _| -> std::io::Result<(Vec<Input>, Vec<PathBuf>)> {
        let s = &cfg.sizes;
        let mut rng = rng_for(cfg, 1);
        std::fs::create_dir_all(dir)?;
        let mut inputs = Vec::new();
        let mut paths = Vec::new();
        for (l, name) in LANGS.iter().enumerate() {
            let lang = gen::build(l);
            let (lo, hi) = s.cli_tokens;
            for (f, input) in gen::files_in_range(&mut rng, l, &lang, s.cli_files, lo, hi)
                .into_iter()
                .enumerate()
            {
                let path = dir.join(format!("{l}-{f}.{name}"));
                std::fs::write(&path, &input.source)?;
                inputs.push(input);
                paths.push(path);
            }
        }
        for l in 0..LANGS.len() {
            spawn_parse(&bin, l, &paths[l * s.cli_files])?;
        }
        Ok((inputs, paths))
    })?;

    // References, built once outside the timed loop: the token word of
    // each file, checked against its text and (for every file) the Earley
    // recognizer.
    let built = build_all(&mut run.tr);
    let mut parsers: Vec<Parser> = built.iter().map(Built::parser).collect();
    let mut expected: Vec<Option<Vec<Token>>> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let b = &built[input.lang];
        let reference = reference(&run.cfg, i, &input.source);
        let ok = validate(
            &mut run.tr,
            input.lang,
            b,
            &mut parsers[input.lang],
            &reference,
            &input.source,
            true,
        );
        expected.push(ok.then(|| b.lang.tokenize(&input.source).ok()).flatten());
    }

    // Each block of four operations visits every language once, in a
    // seeded order. Each language cycles through its files in a seeded
    // order, so every file gets an equal share.
    let mut rng = rng_for(&run.cfg, 2);
    let files = run.cfg.sizes.cli_files;
    let mut cycles: Vec<Vec<usize>> = vec![Vec::new(); LANGS.len()];
    let mut block: Vec<usize> = Vec::new();
    let mut spawn_error = None;
    let mut residuals: Vec<(usize, f64, f64)> = Vec::new();
    run.closed_loop((LANGS.len() * files) as u64, |tr, id| {
        if block.is_empty() {
            block = (0..LANGS.len()).collect();
            rng.shuffle(&mut block);
        }
        let l = block.pop().expect("refilled above");
        if cycles[l].is_empty() {
            cycles[l] = (0..files).collect();
            rng.shuffle(&mut cycles[l]);
        }
        let i = l * files + cycles[l].pop().expect("refilled above");
        let mut process_ns = 0;
        let rec = timed_op(tr, id, l, |tr, clock| {
            let start = Instant::now();
            let out = tr.span("cli.process", Some(l), |_| spawn_parse(&bin, l, &paths[i]));
            process_ns = start.elapsed().as_nanos() as u64;
            let ok = clock.check(tr, || match (&out, &expected[i]) {
                (Ok((true, stdout)), Some(tokens)) => {
                    stdout.starts_with("unique parse (")
                        && check::rendered_leaves_match(stdout, tokens)
                }
                _ => false,
            });
            if let Err(e) = out {
                spawn_error.get_or_insert(e);
            }
            (ok, expected[i].as_ref().map_or(0, Vec::len) as u64)
        });
        if tr.enabled() {
            let (replay_ns, analysis_ns) = replay_cli(tr, l, &paths[i]);
            let process_ns = process_ns as f64;
            residuals.push((
                l,
                (process_ns - replay_ns as f64) / 1e6,
                analysis_ns as f64 / process_ns,
            ));
        }
        rec
    });
    if let Some(e) = spawn_error {
        return Err(e);
    }
    for (l, ms, share) in residuals {
        run.extra.push(format!("cli.residual_ms.{}", LANGS[l]), ms);
        run.extra.push("cli.analysis_share", share);
    }
    run.peak_rss_mb = crate::layers::children_peak_rss_mb();
    Ok(SweepInputs {
        inputs,
        script_bytes: Vec::new(),
    })
}

// --------------------------------------------------------------- bulk_parse

pub fn bulk_parse(run: &mut Run) -> SweepInputs {
    // Set-up: inputs, languages, analyses, one parser per language, and a
    // warm-up pass over every file.
    let (inputs, built, mut parsers) = run.setup(|cfg, tr| {
        let s = &cfg.sizes;
        let mut rng = rng_for(cfg, 3);
        let built = build_all(tr);
        let inputs: Vec<Input> = (0..LANGS.len())
            .flat_map(|l| gen::files(&mut rng, l, &built[l].lang, s.bulk_files, s.bulk_tokens))
            .collect();
        let mut parsers: Vec<Parser> = built.iter().map(Built::parser).collect();
        for input in &inputs {
            let tokens = built[input.lang]
                .lang
                .tokenize(&input.source)
                .unwrap_or_default();
            drop(parsers[input.lang].parse(&tokens));
        }
        (inputs, built, parsers)
    });
    let files = run.cfg.sizes.bulk_files;
    let mut rng = rng_for(&run.cfg, 4);
    let mut valid = Vec::new();
    let mut references = Vec::new();
    for l in 0..LANGS.len() {
        let earley = earley_pick(&mut rng, files, run.cfg.sizes.earley_sample);
        for (f, &earley) in earley.iter().enumerate() {
            let i = l * files + f;
            let reference = reference(&run.cfg, i, &inputs[i].source);
            valid.push(validate(
                &mut run.tr,
                l,
                &built[l],
                &mut parsers[l],
                &reference,
                &inputs[i].source,
                earley,
            ));
            references.push(reference);
        }
    }

    // Round-robin over the languages, cycling through each one's files.
    run.closed_loop((LANGS.len() * files) as u64, |tr, id| {
        let n = (id - 1) as usize;
        let l = n % LANGS.len();
        let i = l * files + (n / LANGS.len()) % files;
        timed_op(tr, id, l, |tr, clock| {
            let Some(tokens) = tokenize(tr, l, &built[l].lang, &inputs[i].source) else {
                return (false, 0);
            };
            let outcome = parse(tr, l, &mut parsers[l], &tokens);
            let ok = clock.check(tr, || {
                valid[i]
                    && check::tokens_cover(&references[i], &tokens)
                    && check::unique_with_yield(&outcome, &tokens)
            });
            tr.span("tree.drop", Some(l), |_| drop(outcome));
            (ok, tokens.len() as u64)
        })
    });
    SweepInputs {
        inputs,
        script_bytes: Vec::new(),
    }
}

// ------------------------------------------------------------- edit_session

/// An open document: an incremental edit session, or (for a language
/// whose tokenizer is not a plain DFA pass, i.e. Python) the text and the
/// result of re-tokenizing and re-parsing it from scratch, as `costar edit`
/// does.
enum Doc {
    Session(Box<ParseSession>),
    Scratch {
        source: String,
        result: RecoveredParse,
    },
}

impl Doc {
    fn open(tr: &mut Tracer, l: usize, b: &Built, parser: &mut Parser, source: &str) -> Doc {
        if b.lang.incremental_lexing() {
            let session = tr.span("session.open", Some(l), |_| {
                parser.parse_session_recovering(b.lang.lexer(), source)
            });
            Doc::Session(Box::new(session.expect("generated documents lex")))
        } else {
            let tokens = tokenize(tr, l, &b.lang, source).unwrap_or_default();
            let result = parse_recovering(tr, l, parser, &tokens);
            Doc::Scratch {
                source: source.to_owned(),
                result,
            }
        }
    }
}

/// Applies `edit` to `text` without the program's help.
fn apply_edit(text: &mut String, e: &ScriptedEdit) -> bool {
    let r = e.edit.range.clone();
    if r.end > text.len() || !text.is_char_boundary(r.start) || !text.is_char_boundary(r.end) {
        return false;
    }
    text.replace_range(r, &e.edit.replacement);
    true
}

/// The edited document's result is what the script says it should be: a
/// clean unique parse whose yield is the token word, or (while a break is
/// outstanding) a rejection with at least one diagnostic.
fn as_scripted(result: &RecoveredParse, tokens: &[Token], broken: bool) -> bool {
    if broken {
        !result.outcome.is_accept() && !result.diagnostics.is_empty()
    } else {
        result.diagnostics.is_empty() && check::unique_with_yield(&result.outcome, tokens)
    }
}

pub fn edit_session(run: &mut Run) -> SweepInputs {
    // Set-up: documents, languages, analyses, parsers, edit scripts, and
    // opening each document (its first full parse).
    let (inputs, built, mut parsers, scripts, mut docs) = run.setup(|cfg, tr| {
        let s = &cfg.sizes;
        let mut rng = rng_for(cfg, 5);
        let built = build_all(tr);
        let inputs: Vec<Input> = (0..LANGS.len())
            .map(|l| gen::sized_file(&mut rng, l, &built[l].lang, s.edit_tokens))
            .collect();
        let mut parsers: Vec<Parser> = built.iter().map(Built::parser).collect();
        let scripts: Vec<Vec<ScriptedEdit>> = inputs
            .iter()
            .map(|input| {
                let l = input.lang;
                let tokens = built[l].lang.tokenize(&input.source).unwrap_or_default();
                let (b, r) = (s.edit_break_percent, s.edit_retype_percent);
                gen::edit_script(
                    &mut rng,
                    l,
                    &built[l].lang,
                    &input.source,
                    &tokens,
                    s.edit_script,
                    b,
                    r,
                )
            })
            .collect();
        let docs: Vec<Doc> = inputs
            .iter()
            .map(|input| {
                Doc::open(
                    tr,
                    input.lang,
                    &built[input.lang],
                    &mut parsers[input.lang],
                    &input.source,
                )
            })
            .collect();
        (inputs, built, parsers, scripts, docs)
    });
    let mut rng = rng_for(&run.cfg, 6);
    let mut valid = Vec::new();
    let mut texts = Vec::new();
    for (l, input) in inputs.iter().enumerate() {
        let earley = earley_pick(&mut rng, 1, run.cfg.sizes.earley_sample)[0];
        let reference = reference(&run.cfg, l, &input.source);
        valid.push(validate(
            &mut run.tr,
            l,
            &built[l],
            &mut parsers[l],
            &reference,
            &input.source,
            earley,
        ));
        texts.push(reference);
    }

    let cfg = run.cfg.clone();
    let mut steps = vec![0usize; LANGS.len()];
    let mut relexed = Vec::new();
    let mut reused = Vec::new();
    let round = LANGS.len() * run.cfg.sizes.edit_script;
    run.closed_loop(round as u64, |tr, id| {
        let l = (id - 1) as usize % LANGS.len();
        if steps[l] == scripts[l].len() {
            // The script is spent: start it again on a fresh document.
            steps[l] = 0;
            docs[l] = Doc::open(tr, l, &built[l], &mut parsers[l], &inputs[l].source);
            texts[l] = reference(&cfg, l, &inputs[l].source);
        }
        let e = &scripts[l][steps[l]];
        steps[l] += 1;
        let (b, parser, doc, text) = (&built[l], &mut parsers[l], &mut docs[l], &mut texts[l]);
        timed_op(tr, id, l, |tr, clock| match doc {
            Doc::Session(session) => {
                let r = tr.span("session.reparse", Some(l), |_| {
                    parser.reparse_after_edit(session, &e.edit)
                });
                if let Ok(r) = &r {
                    relexed.push(r.splice.tokens_relexed as f64);
                    reused.push(f64::from(u8::from(r.reused)));
                }
                let ok = clock.check(tr, || {
                    if r.is_err() || !apply_edit(text, e) {
                        return false;
                    }
                    let Ok(fresh) = b.lang.tokenize(text) else {
                        return false;
                    };
                    session.source() == text.as_str()
                        && check::tokens_cover(text, session.tokens())
                        && session.tokens() == fresh.as_slice()
                        && session.recovered() == Some(&parser.parse_recovering(&fresh))
                        && session
                            .recovered()
                            .is_some_and(|res| as_scripted(res, &fresh, e.broken))
                });
                (ok && valid[l], session.tokens().len() as u64)
            }
            Doc::Scratch { source, result } => {
                let Ok(edited) = e.edit.apply_to(source) else {
                    return (false, 0);
                };
                *source = edited;
                let Some(tokens) = tokenize(tr, l, &b.lang, source) else {
                    return (false, 0);
                };
                let old = std::mem::replace(result, parse_recovering(tr, l, parser, &tokens));
                tr.span("tree.drop", Some(l), |_| drop(old));
                let ok = clock.check(tr, || {
                    apply_edit(text, e)
                        && source == text
                        && check::tokens_cover(text, &tokens)
                        && as_scripted(result, &tokens, e.broken)
                });
                (ok && valid[l], tokens.len() as u64)
            }
        })
    });
    for v in relexed {
        run.extra.push("lexer.tokens_relexed", v);
    }
    for v in reused {
        run.extra.push("session.reuse_fraction", v);
    }
    let mut script_bytes = Vec::new();
    for e in scripts.iter().flatten() {
        script_bytes
            .extend_from_slice(format!("{:?}{}", e.edit.range, e.edit.replacement).as_bytes());
    }
    SweepInputs {
        inputs,
        script_bytes,
    }
}

// -------------------------------------------------------------------- batch

/// Workers for `BatchParser`: every core the process may use.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A batch parser per language over `built`, sharing grammar and analysis.
pub fn batchers(built: &[Built]) -> Vec<BatchParser> {
    built
        .iter()
        .map(|b| {
            BatchParser::with_shared(
                Arc::new(b.lang.grammar().clone()),
                Arc::new(b.analysis.clone()),
            )
            .with_jobs(jobs())
        })
        .collect()
}

/// Parses a corpus file by file with one parser (span `batch.sequential`)
/// and checks each result. Returns the digests of the results (`None`
/// when a check fails) and the time the parses took, in ms.
pub fn sequential_reference(
    tr: &mut Tracer,
    l: usize,
    b: &Built,
    references: &[String],
    words: &[Vec<Token>],
) -> (Option<Vec<u64>>, f64) {
    let mut parser = b.parser();
    let mut digests = Vec::new();
    let mut ns = 0u64;
    let mut ok = true;
    for (reference, word) in references.iter().zip(words) {
        let start = Instant::now();
        let (outcome, _) = tr.span_counted("batch.sequential", Some(l), |_| {
            (parser.parse(word), word.len() as u64)
        });
        ns += start.elapsed().as_nanos() as u64;
        ok &= tr.span("check", None, |_| {
            check::tokens_cover(reference, word) && check::unique_with_yield(&outcome, word)
        });
        digests.push(check::outcome_digest(&outcome));
    }
    (ok.then_some(digests), ns as f64 / 1e6)
}
