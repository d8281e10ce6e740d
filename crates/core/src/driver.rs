//! The parse driver: the one place a parse is set up, run and guarded.
//!
//! The paper's parser is one `step` function iterated by one `multistep`
//! loop (§3.1). Every parse in this crate — [`Parser::parse`],
//! [`Parser::parse_recovering`], each [`BatchParser`] input and its
//! warm-cache warmup, and through them every [`ParseSession`] reparse —
//! runs through [`Driver::parse`], which does each of these jobs once:
//!
//! * puts the prediction cache in its starting state ([`CacheStart`]):
//!   kept, cleared, or cloned from a warm snapshot;
//! * applies the budget's cache caps;
//! * runs [`run`], the crate's only loop over
//!   [`Machine::step_observed`]. On `Reject` the loop either ends the
//!   parse or hands the machine to recovery; [`Machine::run_observed`] is
//!   the same loop with recovery off;
//! * fires [`ParseObserver::on_cost_check`] (plain parses only) and
//!   [`ParseObserver::on_finish`];
//! * holds the crate's one `catch_unwind`: a panic below it (a parser
//!   bug, never a property of the input) discards the possibly
//!   inconsistent cache and surfaces as
//!   [`ParseError::InvalidState`](crate::ParseError::InvalidState).
//!
//! [`Parser::parse`]: crate::Parser::parse
//! [`Parser::parse_recovering`]: crate::Parser::parse_recovering
//! [`BatchParser`]: crate::BatchParser
//! [`ParseSession`]: crate::ParseSession

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use crate::budget::{AbortReason, Budget};
use crate::error::ParseError;
use crate::machine::{Machine, ParseOutcome, PredictionMode, StepResult};
use crate::observe::ParseObserver;
use crate::prediction::cache::SllCache;
use crate::recover::{self, Diagnostic, RecoveredParse};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Token};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The state a parse's prediction cache starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CacheStart<'s> {
    /// Keep what earlier parses left ([`Parser::with_cache_reuse`](crate::Parser::with_cache_reuse)).
    Keep,
    /// Start empty — the published CoStar policy (§6.2).
    Clear,
    /// Start from a private clone of a warm snapshot
    /// ([`BatchParser::with_warm_cache`](crate::BatchParser::with_warm_cache)).
    Warm(&'s SllCache),
}

/// What the step loop does when the machine rejects.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OnReject {
    /// End the parse with the rejection (the paper's `multistep`).
    Stop,
    /// Recover and keep going, at most `limit` times.
    Recover {
        /// The cap from [`Budget::with_max_recoveries`].
        limit: Option<u64>,
    },
}

/// One parse's fixed inputs: the grammar context, prediction mode and
/// budget.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Driver<'a> {
    pub(crate) grammar: &'a Grammar,
    pub(crate) analysis: &'a GrammarAnalysis,
    pub(crate) mode: PredictionMode,
    pub(crate) budget: Budget,
}

impl Driver<'_> {
    /// Parses `word` with `cache` put in state `start`, recovering from
    /// syntax errors when `recovering`. Plain parses return their outcome
    /// with no diagnostics and no error tree.
    pub(crate) fn parse<O: ParseObserver>(
        &self,
        word: &[Token],
        cache: &mut SllCache,
        start: CacheStart<'_>,
        recovering: bool,
        obs: &mut O,
    ) -> RecoveredParse {
        match start {
            CacheStart::Keep => {}
            CacheStart::Clear => cache.clear(),
            CacheStart::Warm(snapshot) => cache.clone_from(snapshot),
        }
        let budget = &self.budget;
        cache.set_capacity(budget.max_cache_entries(), budget.max_cache_bytes());
        let on_reject = if recovering {
            OnReject::Recover {
                limit: budget.max_recoveries(),
            }
        } else {
            OnReject::Stop
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let machine =
                Machine::with_budget(self.grammar, self.analysis, word, self.mode, budget);
            run(machine, cache, obs, on_reject)
        }));
        result.unwrap_or_else(|payload| {
            // The panic may have interrupted a cache mutation; drop
            // everything cached so the cache stays usable (this is what
            // makes the AssertUnwindSafe above sound).
            cache.clear();
            let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            RecoveredParse::plain(ParseOutcome::Error(ParseError::invalid_state(format!(
                "panic during parse: {msg}"
            ))))
        })
    }
}

/// Drives `machine` to a final result: `multistep`, the crate's only loop
/// over [`Machine::step_observed`].
///
/// Termination is guaranteed for well-formed grammars by the measure
/// argument of paper §4, and recovery keeps it (see [`crate::recover`]).
/// The cost certificate's claim covers accepting and rejecting plain
/// parses, so those fire [`ParseObserver::on_cost_check`] against the
/// certified bound; a deflated certificate then surfaces dynamically.
/// Errors and aborts are outside the claim — an abort stops *because*
/// fuel ran out — and recovering parses do work the claim never covered.
pub(crate) fn run<O: ParseObserver>(
    mut machine: Machine<'_>,
    cache: &mut SllCache,
    obs: &mut O,
    on_reject: OnReject,
) -> RecoveredParse {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut last_recovery_cursor: Option<usize> = None;
    let (error_tree, outcome) = loop {
        // Recovery can leave error nodes as siblings of the root in the
        // bottom frame; the machine's accept step requires exactly one
        // final tree, so fold them under a start-symbol node first.
        if !diagnostics.is_empty() {
            recover::normalize_final_forest(&mut machine);
        }
        match machine.step_observed(cache, obs) {
            StepResult::Cont => continue,
            // Clean parses hand the tree to the outcome; recovered parses
            // keep the error tree alongside the first rejection.
            StepResult::Accept(tree) => {
                break match diagnostics.first() {
                    Some(d) => (Some(tree), ParseOutcome::Reject(d.reason.clone())),
                    None if machine.state().unique => (None, ParseOutcome::Unique(tree)),
                    None => (None, ParseOutcome::Ambig(tree)),
                }
            }
            StepResult::Error(e) => break (None, ParseOutcome::Error(e)),
            StepResult::Abort(r) => break (None, ParseOutcome::Aborted(r)),
            StepResult::Reject(reason) => {
                let OnReject::Recover { limit } = on_reject else {
                    break (None, ParseOutcome::Reject(reason));
                };
                if let Some(limit) = limit.filter(|&l| diagnostics.len() as u64 >= l) {
                    let abort = AbortReason::RecoveryLimit { limit };
                    obs.on_abort(&abort);
                    break (None, ParseOutcome::Aborted(abort));
                }
                let cursor = machine.state().cursor;
                obs.on_recovery(cursor, &reason);
                let force_skip = last_recovery_cursor.replace(cursor) == Some(cursor);
                diagnostics.push(recover::recover_once(&mut machine, obs, reason, force_skip));
            }
        }
    };
    if matches!(on_reject, OnReject::Stop)
        && matches!(
            outcome,
            ParseOutcome::Unique(_) | ParseOutcome::Ambig(_) | ParseOutcome::Reject(_)
        )
    {
        let bound = machine
            .analysis()
            .cost
            .bound_for(machine.tokens().len() as u64);
        obs.on_cost_check(bound, machine.steps_taken() <= bound);
    }
    obs.on_finish(machine.steps_taken());
    RecoveredParse {
        error_tree,
        diagnostics,
        outcome,
    }
}
