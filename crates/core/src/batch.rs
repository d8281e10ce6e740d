//! Batch parsing: many inputs, one shared read-only grammar context.
//!
//! The ROADMAP's production north star is corpus-shaped traffic — many
//! independent inputs against one grammar. A [`Parser`](crate::Parser)
//! owns its grammar and analysis by value, so naive fan-out pays the
//! FIRST/FOLLOW/decision-table computation (or at least a deep clone) per
//! worker. [`BatchParser`] instead wraps `Arc<Grammar>` +
//! `Arc<GrammarAnalysis>` (the analysis carries the
//! [`DecisionTable`](costar_grammar::analysis::DecisionTable)) as an
//! immutable shared context: workers borrow it, each owning only a
//! private [`SllCache`].
//!
//! ## Determinism contract
//!
//! Per-input results are a pure function of (grammar, input, budget,
//! prediction mode, cache-start state) — never of worker count or
//! scheduling. Concretely, for every input the outcome, tree,
//! diagnostics, exit class, and the deterministic view of its metrics
//! ([`ParseMetrics::deterministic`]) are byte-identical across runs with
//! any `--jobs` value, and identical to a sequential (`jobs = 1`) run.
//! The design choices that make this true:
//!
//! * every input starts from the same cache state: empty by default, or
//!   (in warm mode, [`BatchParser::with_warm_cache`]) a private clone of
//!   one snapshot taken after a warmup parse — never a cache that other
//!   inputs mutated in a schedule-dependent order;
//! * every input draws from its own fresh [`Budget`] meter, so fuel and
//!   the wall-clock deadline are per parse (see
//!   [`Budget::with_deadline`]), not shared from batch start;
//! * results are scattered back into input order regardless of which
//!   worker finished first.
//!
//! Wall-clock fields (`total_nanos`, latency histograms) are measurement,
//! not behavior, and are excluded from the contract.
//!
//! Each input, and the warm-cache warmup parse, runs through the crate's
//! one parse driver — the same cache set-up, step loop and panic boundary
//! as [`Parser`](crate::Parser): a panic while parsing one input clears
//! that worker's cache and becomes that input's typed
//! [`ParseOutcome::Error`], never a dead worker.
//!
//! ## Scheduling
//!
//! Work units are claimed from a shared atomic counter (dynamic load
//! balancing — a worker stuck on a pathological input doesn't idle the
//! rest). Inputs at or above the small-input threshold form singleton
//! units; runs of smaller inputs are grouped so per-unit overhead (the
//! claim, the cache reset bookkeeping, result vector growth) amortizes
//! across a group rather than recurring per tiny file.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::budget::Budget;
use crate::driver::{CacheStart, Driver};
use crate::error::ParseError;
use crate::machine::{ParseOutcome, PredictionMode};
use crate::observe::{MetricsObserver, NullObserver, ParseMetrics};
use crate::prediction::cache::SllCache;
use crate::recover::RecoveredParse;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Token, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Inputs with at least this many tokens get their own work unit;
/// smaller ones are grouped.
const SMALL_INPUT_THRESHOLD: usize = 256;

/// Upper bound on how many small inputs one work unit may group.
const MAX_GROUP: usize = 64;

/// A parser for running one grammar over many inputs, optionally in
/// parallel, with deterministic per-input results.
///
/// # Examples
///
/// ```
/// use costar::BatchParser;
/// use costar_grammar::{GrammarBuilder, Token};
///
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a", "S"]);
/// gb.rule("S", &["b"]);
/// let g = gb.start("S").build()?;
/// let a = g.symbols().lookup_terminal("a").unwrap();
/// let b = g.symbols().lookup_terminal("b").unwrap();
///
/// let batch = BatchParser::new(g).with_jobs(2);
/// let inputs: Vec<Vec<Token>> = vec![
///     vec![Token::new(a, "a"), Token::new(b, "b")],
///     vec![Token::new(b, "b")],
///     vec![Token::new(a, "a")], // rejected
/// ];
/// let result = batch.parse_many(&inputs);
/// assert_eq!(result.items.len(), 3);
/// assert!(result.items[0].outcome().is_accept());
/// assert!(result.items[1].outcome().is_accept());
/// assert!(!result.items[2].outcome().is_accept());
/// assert_eq!(result.exit_code(), 1); // worst across the batch
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchParser {
    grammar: Arc<Grammar>,
    analysis: Arc<GrammarAnalysis>,
    budget: Budget,
    jobs: usize,
    warm_cache: bool,
    auto_steps: bool,
}

/// What one input produced: a plain or a recovering parse result.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItemResult {
    /// From [`BatchParser::parse_many`].
    Plain(ParseOutcome),
    /// From [`BatchParser::parse_many_recovering`].
    Recovered(RecoveredParse),
}

/// One input's slot in a [`BatchResult`], in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The parse result.
    pub result: BatchItemResult,
    /// This input's own metrics (also merged into
    /// [`BatchResult::metrics`]).
    pub metrics: ParseMetrics,
}

impl BatchItem {
    /// The machine outcome, unified across plain and recovering items.
    pub fn outcome(&self) -> &ParseOutcome {
        match &self.result {
            BatchItemResult::Plain(o) => o,
            BatchItemResult::Recovered(r) => &r.outcome,
        }
    }

    /// The parse tree, if one was produced (for recovering items, the
    /// error-annotated tree after recoveries).
    pub fn tree(&self) -> Option<&Tree> {
        match &self.result {
            BatchItemResult::Plain(o) => o.tree(),
            BatchItemResult::Recovered(r) => r.tree(),
        }
    }

    /// The CLI exit class for this input alone: 0 accepted (or recovered
    /// cleanly), 1 rejected or internal error, 3 budget abort, 4 parsed
    /// with recovered errors.
    pub fn exit_code(&self) -> i32 {
        match (&self.result, self.outcome()) {
            (_, ParseOutcome::Unique(_) | ParseOutcome::Ambig(_)) => 0,
            (BatchItemResult::Recovered(_), ParseOutcome::Reject(_)) => 4,
            (_, ParseOutcome::Reject(_) | ParseOutcome::Error(_)) => 1,
            (_, ParseOutcome::Aborted(_)) => 3,
        }
    }
}

/// Everything a batch run produced, in stable input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One entry per input, index-aligned with the `inputs` slice.
    pub items: Vec<BatchItem>,
    /// All per-input metrics merged in input order
    /// ([`ParseMetrics::merge`]) — one roll-up for the whole batch.
    pub metrics: ParseMetrics,
    /// Worker threads the run actually used.
    pub jobs: usize,
}

impl BatchResult {
    /// Folds the per-input exit classes into one process exit code: the
    /// *most severe* across the batch, under severity
    /// `0 < 4 < 1 < 3` — success, then parsed-with-recovered-errors,
    /// then rejected/internal error, then budget abort (an abort means
    /// the batch's verdict on that input is unknown, which outranks a
    /// definite rejection).
    pub fn exit_code(&self) -> i32 {
        fn severity(code: i32) -> u8 {
            match code {
                0 => 0,
                4 => 1,
                1 => 2,
                _ => 3, // 3 (abort) and anything unexpected
            }
        }
        self.items
            .iter()
            .map(BatchItem::exit_code)
            .max_by_key(|&c| severity(c))
            .unwrap_or(0)
    }
}

impl BatchParser {
    /// Creates a batch parser, computing the grammar analysis once. Jobs
    /// default to the machine's available parallelism; the cache is cold
    /// per input (published CoStar's policy, see
    /// [`Parser::new`](crate::Parser::new)).
    pub fn new(grammar: Grammar) -> Self {
        let analysis = GrammarAnalysis::compute(&grammar);
        Self::with_shared(Arc::new(grammar), Arc::new(analysis))
    }

    /// Creates a batch parser around an already-shared context — e.g. an
    /// analysis restored from the on-disk grammar cache. Like
    /// [`Parser::with_analysis`](crate::Parser::with_analysis), the
    /// analysis must belong to this exact grammar.
    pub fn with_shared(grammar: Arc<Grammar>, analysis: Arc<GrammarAnalysis>) -> Self {
        BatchParser {
            grammar,
            analysis,
            budget: Budget::unlimited(),
            jobs: default_jobs(),
            warm_cache: false,
            auto_steps: false,
        }
    }

    /// Sets the worker count. `0` restores the default (available
    /// parallelism). The effective count is additionally capped by the
    /// number of work units, so tiny batches don't spawn idle threads.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// Sets the per-input [`Budget`]. Every input draws from its own
    /// fresh meter — fuel, deadline, and recovery caps are per parse,
    /// never shared across the batch.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Derives each input's step fuel from the grammar's certified cost
    /// bound instead of a shared `--max-steps` value: input `i` with
    /// `n_i` tokens parses under fuel
    /// [`CostModel::bound_for(n_i)`](costar_grammar::analysis::CostModel::bound_for),
    /// overriding any fuel set via [`BatchParser::with_budget`] (other
    /// budget limits — deadline, stack depth, cache caps — are kept).
    /// Because the certificate claims no accepting or rejecting parse
    /// exceeds the bound, a `StepLimit` abort under auto fuel is evidence
    /// of a parser or certificate bug, never of a large input — and one
    /// long file can never inflate a sibling input's allowance, since
    /// every input's fuel is derived from its own length.
    pub fn with_auto_steps(mut self, on: bool) -> Self {
        self.auto_steps = on;
        self
    }

    /// Enables warm-cache mode: before the batch runs, one warmup parse
    /// of the first input populates an [`SllCache`], a snapshot of which
    /// every input then starts from (each gets a private clone). This is
    /// the deterministic analogue of
    /// [`Parser::with_cache_reuse`](crate::Parser::with_cache_reuse):
    /// cross-input cache value without schedule-dependent cache state.
    /// The warmup parse's own result is discarded, so all inputs —
    /// including the first — observe the identical starting cache.
    pub fn with_warm_cache(mut self, on: bool) -> Self {
        self.warm_cache = on;
        self
    }

    /// The shared grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The shared analysis.
    pub fn analysis(&self) -> &GrammarAnalysis {
        &self.analysis
    }

    /// The configured worker count (before capping by unit count).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Parses every input (plain, no recovery), in input order.
    pub fn parse_many<I: AsRef<[Token]> + Sync>(&self, inputs: &[I]) -> BatchResult {
        self.run(inputs, false)
    }

    /// Parses every input with syntax-error recovery
    /// ([`Parser::parse_recovering`](crate::Parser::parse_recovering)
    /// semantics per input).
    pub fn parse_many_recovering<I: AsRef<[Token]> + Sync>(&self, inputs: &[I]) -> BatchResult {
        self.run(inputs, true)
    }

    fn run<I: AsRef<[Token]> + Sync>(&self, inputs: &[I], recovering: bool) -> BatchResult {
        let units = plan_units(inputs, SMALL_INPUT_THRESHOLD);
        let jobs = self.jobs.min(units.len()).max(1);
        let warm = if self.warm_cache {
            inputs
                .first()
                .map(|first| self.warm_snapshot(first.as_ref()))
        } else {
            None
        };
        let warm = warm.as_ref();

        let mut slots: Vec<Option<BatchItem>> = Vec::new();
        slots.resize_with(inputs.len(), || None);

        if jobs == 1 {
            let mut cache = SllCache::new();
            for unit in &units {
                for &i in unit {
                    slots[i] =
                        Some(self.parse_one(inputs[i].as_ref(), &mut cache, warm, recovering));
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let units = &units;
            let collected: Vec<Vec<(usize, BatchItem)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        s.spawn(|| {
                            let mut cache = SllCache::new();
                            let mut out: Vec<(usize, BatchItem)> = Vec::new();
                            loop {
                                let u = next.fetch_add(1, Ordering::Relaxed);
                                let Some(unit) = units.get(u) else { break };
                                for &i in unit {
                                    let item = self.parse_one(
                                        inputs[i].as_ref(),
                                        &mut cache,
                                        warm,
                                        recovering,
                                    );
                                    out.push((i, item));
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            for (i, item) in collected.into_iter().flatten() {
                slots[i] = Some(item);
            }
        }

        // Per-parse panics are caught by the parse driver; an empty slot
        // can only mean a worker died outside that boundary. Fail the input
        // loudly rather than dropping it from the batch.
        let items: Vec<BatchItem> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| BatchItem {
                    result: item_result(
                        RecoveredParse::plain(ParseOutcome::Error(ParseError::invalid_state(
                            "batch worker died before producing a result".to_owned(),
                        ))),
                        recovering,
                    ),
                    metrics: ParseMetrics::default(),
                })
            })
            .collect();

        let mut metrics = ParseMetrics::default();
        for item in &items {
            metrics.merge(&item.metrics);
        }
        BatchResult {
            items,
            metrics,
            jobs,
        }
    }

    /// Runs the warmup parse for warm-cache mode and returns the cache
    /// to snapshot. The result is discarded (see
    /// [`BatchParser::with_warm_cache`]); a panicking warmup leaves the
    /// cache empty, so the batch falls back to cold caches (correctness
    /// never depended on cache content).
    fn warm_snapshot(&self, word: &[Token]) -> SllCache {
        let mut cache = SllCache::new();
        self.driver(word).parse(
            word,
            &mut cache,
            CacheStart::Clear,
            false,
            &mut NullObserver,
        );
        cache
    }

    /// One budgeted, observed, panic-safe parse through the crate's parse
    /// driver. The caller's cache is reset to the input's defined
    /// starting state (warm snapshot clone, or empty) so results are
    /// independent of what the worker parsed before.
    fn parse_one(
        &self,
        word: &[Token],
        cache: &mut SllCache,
        warm: Option<&SllCache>,
        recovering: bool,
    ) -> BatchItem {
        let start = warm.map_or(CacheStart::Clear, CacheStart::Warm);
        let mut obs = MetricsObserver::new();
        let clock = Instant::now();
        let parsed = self
            .driver(word)
            .parse(word, cache, start, recovering, &mut obs);
        BatchItem {
            result: item_result(parsed, recovering),
            metrics: obs.finish(word.len(), clock.elapsed()),
        }
    }

    /// The parse driver for one input: the shared grammar context under
    /// that input's [effective budget](BatchParser::effective_budget).
    fn driver(&self, word: &[Token]) -> Driver<'_> {
        Driver {
            grammar: &self.grammar,
            analysis: &self.analysis,
            mode: PredictionMode::Adaptive,
            budget: self.effective_budget(word),
        }
    }

    /// The budget one input actually parses under: the configured budget,
    /// with step fuel replaced by the certified per-input bound when
    /// auto-steps mode ([`BatchParser::with_auto_steps`]) is on.
    fn effective_budget(&self, word: &[Token]) -> Budget {
        if self.auto_steps {
            self.budget
                .with_max_steps(self.analysis.cost.bound_for(word.len() as u64))
        } else {
            self.budget
        }
    }
}

/// Wraps a driven parse as a batch item result: the whole recovered
/// parse for recovering batches, its outcome alone for plain ones.
fn item_result(parsed: RecoveredParse, recovering: bool) -> BatchItemResult {
    if recovering {
        BatchItemResult::Recovered(parsed)
    } else {
        BatchItemResult::Plain(parsed.outcome)
    }
}

/// The default worker count: the machine's available parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Partitions input indices into work units: singletons for inputs at or
/// above `threshold` tokens, runs of consecutive smaller inputs grouped
/// up to [`MAX_GROUP`]. Grouping affects scheduling granularity only —
/// never results, which are defined per input.
fn plan_units<I: AsRef<[Token]>>(inputs: &[I], threshold: usize) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if threshold > 0 && input.as_ref().len() < threshold {
            group.push(i);
            if group.len() >= MAX_GROUP {
                units.push(std::mem::take(&mut group));
            }
        } else {
            if !group.is_empty() {
                units.push(std::mem::take(&mut group));
            }
            units.push(vec![i]);
        }
    }
    if !group.is_empty() {
        units.push(group);
    }
    units
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::budget::AbortReason;
    use crate::Parser;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    fn fig2_inputs(n: usize) -> Vec<Vec<Token>> {
        let g = fig2();
        let mut tab = g.symbols().clone();
        (0..n)
            .map(|i| {
                let mut w: Vec<(&str, &str)> = vec![("a", "a"); i % 7];
                w.push(("b", "b"));
                w.push(if i % 2 == 0 { ("c", "c") } else { ("d", "d") });
                tokens(&mut tab, &w)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_parser_exactly() {
        let inputs = fig2_inputs(23);
        let mut seq = Parser::new(fig2());
        let expected: Vec<ParseOutcome> = inputs.iter().map(|w| seq.parse(w)).collect();
        for jobs in [1, 2, 8] {
            let batch = BatchParser::new(fig2()).with_jobs(jobs);
            let got = batch.parse_many(&inputs);
            assert_eq!(got.items.len(), inputs.len());
            for (item, want) in got.items.iter().zip(&expected) {
                assert_eq!(item.outcome(), want, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn deterministic_metrics_identical_across_worker_counts() {
        let inputs = fig2_inputs(17);
        let reference = BatchParser::new(fig2()).with_jobs(1).parse_many(&inputs);
        for jobs in [2, 8] {
            let got = BatchParser::new(fig2()).with_jobs(jobs).parse_many(&inputs);
            for (i, (a, b)) in reference.items.iter().zip(got.items.iter()).enumerate() {
                assert_eq!(
                    a.metrics.deterministic(),
                    b.metrics.deterministic(),
                    "input {i}, jobs={jobs}"
                );
            }
            assert_eq!(
                reference.metrics.deterministic(),
                got.metrics.deterministic(),
                "roll-up, jobs={jobs}"
            );
        }
    }

    #[test]
    fn rollup_metrics_equal_sum_of_items_and_reconcile() {
        let inputs = fig2_inputs(9);
        let r = BatchParser::new(fig2()).with_jobs(3).parse_many(&inputs);
        let mut manual = ParseMetrics::default();
        for item in &r.items {
            assert!(item.metrics.reconciles());
            manual.merge(&item.metrics);
        }
        assert_eq!(manual, r.metrics);
        assert!(r.metrics.reconciles());
        assert_eq!(r.metrics.tokens, inputs.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn exit_code_folding_severity_order() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let good = tokens(&mut tab, &[("b", "b"), ("c", "c")]);
        let bad = tokens(&mut tab, &[("b", "b")]); // rejected
        let batch = BatchParser::new(fig2()).with_jobs(2);
        assert_eq!(batch.parse_many(std::slice::from_ref(&good)).exit_code(), 0);
        assert_eq!(
            batch.parse_many(&[good.clone(), bad.clone()]).exit_code(),
            1
        );
        // A budget abort outranks a rejection.
        let strict = BatchParser::new(fig2())
            .with_jobs(2)
            .with_budget(Budget::unlimited().with_max_steps(1));
        let r = strict.parse_many(&[bad, good]);
        assert!(matches!(
            r.items[1].outcome(),
            ParseOutcome::Aborted(AbortReason::StepLimit { .. })
        ));
        assert_eq!(r.exit_code(), 3);
        // Recovered-with-errors folds to 4 and is outranked by nothing
        // worse here.
        let mut tab2 = batch.grammar().symbols().clone();
        let fixable = tokens(&mut tab2, &[("b", "b"), ("b", "b"), ("c", "c")]);
        let clean = tokens(&mut tab2, &[("b", "b"), ("d", "d")]);
        let r = batch.parse_many_recovering(&[clean, fixable]);
        assert_eq!(r.items[0].exit_code(), 0);
        assert_eq!(r.items[1].exit_code(), 4);
        assert!(!r.items[1].result_diagnostics_empty());
        assert_eq!(r.exit_code(), 4);
    }

    impl BatchItem {
        fn result_diagnostics_empty(&self) -> bool {
            match &self.result {
                BatchItemResult::Plain(_) => true,
                BatchItemResult::Recovered(r) => r.diagnostics.is_empty(),
            }
        }
    }

    #[test]
    fn recovering_batch_matches_sequential_recovering_parser() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let words: Vec<Vec<Token>> = vec![
            tokens(&mut tab, &[("b", "b"), ("c", "c")]),
            tokens(&mut tab, &[("a", "a"), ("b", "b")]),
            tokens(&mut tab, &[("b", "b"), ("b", "b"), ("d", "d")]),
            tokens(&mut tab, &[]),
        ];
        let mut seq = Parser::new(fig2());
        let expected: Vec<RecoveredParse> = words.iter().map(|w| seq.parse_recovering(w)).collect();
        for jobs in [1, 4] {
            let got = BatchParser::new(fig2())
                .with_jobs(jobs)
                .parse_many_recovering(&words);
            for (i, (item, want)) in got.items.iter().zip(&expected).enumerate() {
                let BatchItemResult::Recovered(r) = &item.result else {
                    panic!("expected recovered item");
                };
                assert_eq!(r, want, "input {i}, jobs={jobs}");
            }
        }
    }

    #[test]
    fn warm_cache_mode_is_deterministic_and_outcome_identical() {
        let inputs = fig2_inputs(15);
        let cold = BatchParser::new(fig2()).with_jobs(1).parse_many(&inputs);
        let warm1 = BatchParser::new(fig2())
            .with_warm_cache(true)
            .with_jobs(1)
            .parse_many(&inputs);
        let warm4 = BatchParser::new(fig2())
            .with_warm_cache(true)
            .with_jobs(4)
            .parse_many(&inputs);
        for i in 0..inputs.len() {
            assert_eq!(cold.items[i].outcome(), warm1.items[i].outcome());
            assert_eq!(
                warm1.items[i].metrics.deterministic(),
                warm4.items[i].metrics.deterministic(),
                "warm metrics must not depend on worker count (input {i})"
            );
        }
        // The warm snapshot turns repeat predictions into cache hits the
        // cold batch pays as misses.
        assert!(warm1.metrics.cache_hits >= cold.metrics.cache_hits);
    }

    #[test]
    fn small_inputs_group_and_large_inputs_stand_alone() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let small = tokens(&mut tab, &[("b", "b"), ("c", "c")]);
        let mut big_word: Vec<(&str, &str)> = vec![("a", "a"); 300];
        big_word.push(("b", "b"));
        big_word.push(("c", "c"));
        let big = tokens(&mut tab, &big_word);
        let inputs = vec![small.clone(), small.clone(), big, small];
        let units = plan_units(&inputs, SMALL_INPUT_THRESHOLD);
        assert_eq!(units, vec![vec![0, 1], vec![2], vec![3]]);
        // Threshold 0 disables grouping.
        let units = plan_units(&inputs, 0);
        assert_eq!(units.len(), 4);
        // Grouping never changes results: every input of the mixed batch
        // matches a sequential parse of that input alone.
        let grouped = BatchParser::new(fig2()).with_jobs(2).parse_many(&inputs);
        let mut seq = Parser::new(fig2());
        for (i, (item, word)) in grouped.items.iter().zip(&inputs).enumerate() {
            let (outcome, metrics) = seq.parse_with_metrics(word);
            assert_eq!(item.outcome(), &outcome, "input {i}");
            assert_eq!(
                item.metrics.deterministic(),
                metrics.deterministic(),
                "input {i}"
            );
        }
    }

    #[test]
    fn auto_steps_derives_per_input_fuel_from_the_cost_certificate() {
        let inputs = fig2_inputs(12);
        let batch = BatchParser::new(fig2())
            .with_jobs(2)
            // A 1-step shared fuel would abort everything; auto mode must
            // replace it with each input's own certified bound.
            .with_budget(Budget::unlimited().with_max_steps(1))
            .with_auto_steps(true);
        let r = batch.parse_many(&inputs);
        for (i, item) in r.items.iter().enumerate() {
            assert!(
                item.outcome().is_accept(),
                "input {i} aborted under its certified bound"
            );
            let bound = batch.analysis().cost.bound_for(inputs[i].len() as u64);
            assert_eq!(item.metrics.predicted_steps, bound, "input {i}");
            assert_eq!(item.metrics.cost_checks, 1, "input {i}");
            assert_eq!(item.metrics.cost_violations, 0, "input {i}");
            assert!(item.metrics.meter_steps <= bound, "input {i}");
        }
        assert_eq!(r.metrics.cost_violations, 0);
        assert_eq!(r.metrics.cost_checks, inputs.len() as u64);
        // Auto fuel stays deterministic across worker counts.
        let seq = BatchParser::new(fig2())
            .with_jobs(1)
            .with_auto_steps(true)
            .parse_many(&inputs);
        for (a, b) in seq.items.iter().zip(r.items.iter()) {
            assert_eq!(a.metrics.deterministic(), b.metrics.deterministic());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = BatchParser::new(fig2()).parse_many(&Vec::<Vec<Token>>::new());
        assert!(r.items.is_empty());
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.metrics, ParseMetrics::default());
    }

    #[test]
    fn per_input_deadline_not_shared_across_batch() {
        // A batch whose first input aborts on deadline must still give
        // later inputs their full allowance: each parse's meter starts
        // its own clock (Budget::with_deadline batch semantics).
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let mut huge: Vec<(&str, &str)> = vec![("a", "a"); 5000];
        huge.push(("b", "b"));
        let slow = tokens(&mut tab, &huge);
        let quick = tokens(&mut tab, &[("a", "a"), ("b", "b")]);
        let batch = BatchParser::new(g)
            .with_jobs(1)
            .with_budget(Budget::unlimited().with_deadline(std::time::Duration::from_secs(30)));
        let r = batch.parse_many(&[slow, quick]);
        assert!(
            r.items[1].outcome().is_accept(),
            "the second input must not inherit a clock the first input ran down"
        );
    }
}
