//! The closure as it was before exhausted frames were elided, kept as a
//! test reference, and the differential properties that hold the
//! production [`closure`](super::sim::closure) to it.
//!
//! Inside [`with_reference`], every closure on the calling thread runs
//! this copy instead, so the real SLL and LL drivers, the DFA cache and
//! the recovering parser can be compared end to end.

use crate::error::ParseError;
use crate::observe::ParseObserver;
use crate::prediction::sim::{Config, SimFrame, SimMode, SimStack, SpState};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, NtSet, ProdId, Symbol};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// `true` while [`with_reference`] runs on this thread.
pub(super) fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Runs `f` with every closure on this thread computed by the reference.
fn with_reference<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
        }
    }
    ACTIVE.with(|a| a.set(true));
    let _reset = Reset;
    f()
}

/// The pre-elision closure: pushes every callee onto the caller's
/// advanced frame, exhausted or not.
pub(super) fn closure<O: ParseObserver>(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    mode: SimMode,
    configs: Vec<Config>,
    num_nts: usize,
    obs: &mut O,
) -> Result<Vec<Config>, ParseError> {
    let mut out: Vec<Config> = Vec::new();
    let mut emitted: HashSet<Config> = HashSet::new();
    let mut explored: HashSet<Config> = HashSet::new();
    let mut work: Vec<(ProdId, SimStack, NtSet)> = Vec::new();

    let emit = |out: &mut Vec<Config>, emitted: &mut HashSet<Config>, c: Config| {
        if emitted.insert(c.clone()) {
            out.push(c);
        }
    };

    for c in configs {
        match c.state {
            SpState::AcceptEof => emit(&mut out, &mut emitted, c),
            SpState::Stack(stack) => {
                work.push((c.alt, stack, NtSet::with_capacity(num_nts)));
            }
        }
    }

    while let Some((alt, stack, mut visited)) = work.pop() {
        obs.on_closure_step();
        // Process each distinct (alternative, stack) configuration once:
        // converging derivation paths would otherwise re-explore shared
        // continuations exponentially often.
        if !explored.insert(Config {
            alt,
            state: SpState::Stack(stack.clone()),
        }) {
            continue;
        }
        let Some(top) = stack.top() else {
            // Empty stacks are handled eagerly below; reaching here means a
            // caller passed one in, which the constructors never do.
            debug_assert!(false, "closure saw an empty stack");
            continue;
        };
        match top.head() {
            Some(Symbol::T(_)) => {
                // Stable: consuming input is the only way forward.
                emit(
                    &mut out,
                    &mut emitted,
                    Config {
                        alt,
                        state: SpState::Stack(stack),
                    },
                );
            }
            Some(Symbol::Nt(y)) => {
                if visited.contains(y) {
                    return Err(ParseError::LeftRecursive(y));
                }
                visited.insert(y);
                // Mirror the machine's push semantics: the caller's dot
                // passes the nonterminal at push time, so a simulated
                // return is a plain pop.
                let advanced = SimFrame {
                    lhs: top.lhs,
                    rhs: Arc::clone(&top.rhs),
                    dot: top.dot + 1,
                };
                let base = stack.replace_top(advanced);
                for &q in g.alternatives(y) {
                    let pushed = base.push(SimFrame {
                        lhs: Some(y),
                        rhs: g.rhs_arc(q),
                        dot: 0,
                    });
                    work.push((alt, pushed, visited.clone()));
                }
            }
            None => {
                // Exhausted frame: simulated return.
                let finished_lhs = top.lhs;
                let tail = stack.pop();
                if let Some(x) = finished_lhs {
                    visited.remove(x);
                }
                if !tail.is_empty() {
                    // The caller's dot already passed the finished
                    // nonterminal at push time; just resume there.
                    work.push((alt, tail, visited));
                } else {
                    match mode {
                        SimMode::Ll => {
                            // The whole machine stack is consumed: only end
                            // of input can follow.
                            emit(
                                &mut out,
                                &mut emitted,
                                Config {
                                    alt,
                                    state: SpState::AcceptEof,
                                },
                            );
                        }
                        SimMode::Sll => {
                            // Return through the statically computed stable
                            // frames of the finished nonterminal (§3.5).
                            let Some(x) = finished_lhs else {
                                return Err(ParseError::invalid_state(
                                    "SLL simulation frame has no production label",
                                ));
                            };
                            let dests = analysis.stable_frames.dests(x);
                            for pos in &dests.positions {
                                let frame = SimFrame {
                                    lhs: Some(g.production(pos.production).lhs()),
                                    rhs: g.rhs_arc(pos.production),
                                    dot: pos.dot as usize,
                                };
                                // Stable by construction: the dot precedes
                                // a terminal.
                                emit(
                                    &mut out,
                                    &mut emitted,
                                    Config {
                                        alt,
                                        state: SpState::Stack(SimStack::empty().push(frame)),
                                    },
                                );
                            }
                            if dests.can_end {
                                emit(
                                    &mut out,
                                    &mut emitted,
                                    Config {
                                        alt,
                                        state: SpState::AcceptEof,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod props {
    use super::with_reference;
    use crate::budget::Meter;
    use crate::error::ParseError;
    use crate::observe::ParseObserver;
    use crate::prediction::cache::SllCache;
    use crate::prediction::{ll_predict, sll_predict, Prediction};
    use crate::state::SuffixFrame;
    use crate::{ParseMetrics, Parser, RecoveredParse};
    use costar_grammar::analysis::GrammarAnalysis;
    use costar_grammar::sampler::{DerivationSampler, SplitMix64};
    use costar_grammar::{Grammar, GrammarBuilder, NonTerminal, Symbol, Token};
    use proptest::prelude::*;
    use std::sync::Arc;

    const TERMINALS: [&str; 4] = ["a", "b", "c", "d"];
    /// Longer derivable words are skipped: LL prediction on ambiguous
    /// random grammars grows quickly with the word.
    const MAX_WORD: usize = 12;

    fn pick(rng: &mut SplitMix64, from: &[Symbol]) -> Symbol {
        from[rng.below(from.len())]
    }

    /// A random grammar over four terminals: 2–4 base nonterminals with
    /// 1–3 alternatives of up to 4 symbols, plus 1–3 helpers in the shapes
    /// the EBNF desugaring emits — `X*` (`S -> ε | X S`, right-recursive),
    /// `X+` (`P -> X S`) and `X?` (`O -> ε | X`). A third of the base
    /// alternatives start with a nullable helper. Left recursion, direct
    /// or through nullable heads, is left in on purpose.
    fn random_grammar(rng: &mut SplitMix64) -> Option<Grammar> {
        let mut gb = GrammarBuilder::new();
        let terminals: Vec<Symbol> = TERMINALS
            .iter()
            .map(|t| Symbol::T(gb.terminal(t)))
            .collect();
        let base: Vec<NonTerminal> = (0..2 + rng.below(3))
            .map(|i| gb.nonterminal(&format!("N{i}")))
            .collect();
        let mut usable: Vec<Symbol> = base.iter().map(|&x| Symbol::Nt(x)).collect();
        let mut nullable: Vec<Symbol> = Vec::new();
        for h in 0..1 + rng.below(3) {
            let item = if rng.below(3) == 0 {
                pick(rng, &terminals)
            } else {
                pick(rng, &usable)
            };
            if rng.below(3) == 2 {
                let opt = gb.nonterminal(&format!("H{h}__opt"));
                gb.rule_syms(opt, vec![]);
                gb.rule_syms(opt, vec![item]);
                nullable.push(Symbol::Nt(opt));
                usable.push(Symbol::Nt(opt));
                continue;
            }
            let star = gb.nonterminal(&format!("H{h}__star"));
            gb.rule_syms(star, vec![]);
            gb.rule_syms(star, vec![item, Symbol::Nt(star)]);
            nullable.push(Symbol::Nt(star));
            if rng.below(2) == 0 {
                usable.push(Symbol::Nt(star));
            } else {
                let plus = gb.nonterminal(&format!("H{h}__plus"));
                gb.rule_syms(plus, vec![item, Symbol::Nt(star)]);
                usable.push(Symbol::Nt(plus));
            }
        }
        for &x in &base {
            for _ in 0..1 + rng.below(3) {
                let mut rhs: Vec<Symbol> = (0..rng.below(5))
                    .map(|_| {
                        if rng.below(2) == 0 {
                            pick(rng, &terminals)
                        } else {
                            pick(rng, &usable)
                        }
                    })
                    .collect();
                if !rhs.is_empty() && rng.below(3) == 0 {
                    rhs[0] = pick(rng, &nullable);
                }
                gb.rule_syms(x, rhs);
            }
        }
        gb.start_sym(base[0]).build().ok()
    }

    /// Up to two derivable words of at most [`MAX_WORD`] tokens, a deletion, an insertion and a swap of
    /// each, and one short random word.
    fn words(g: &Grammar, rng: &mut SplitMix64) -> Vec<Vec<Token>> {
        let tok = |rng: &mut SplitMix64| {
            let name = TERMINALS[rng.below(TERMINALS.len())];
            Token::new(g.symbols().lookup_terminal(name).expect("terminal"), name)
        };
        let sampler = DerivationSampler::new(g);
        let mut out = Vec::new();
        for _ in 0..2 {
            let Some((w, _)) = sampler.sample_word(rng, 6) else {
                break;
            };
            if w.len() > MAX_WORD {
                continue;
            }
            if !w.is_empty() {
                let mut deleted = w.clone();
                deleted.remove(rng.below(w.len()));
                out.push(deleted);
                let mut swapped = w.clone();
                swapped.swap(rng.below(w.len()), rng.below(w.len()));
                out.push(swapped);
            }
            let mut inserted = w.clone();
            inserted.insert(rng.below(w.len() + 1), tok(rng));
            out.push(inserted);
            out.push(w);
        }
        out.push((0..rng.below(7)).map(|_| tok(rng)).collect());
        out
    }

    /// LL contexts for deciding `x`: as the start symbol, and at each of
    /// its first three occurrences on a right-hand side.
    fn contexts(g: &Grammar, x: NonTerminal) -> Vec<Vec<SuffixFrame>> {
        let bottom = |y: NonTerminal| SuffixFrame {
            caller: None,
            rhs: Arc::from([Symbol::Nt(y)]),
            dot: 0,
        };
        let mut out = vec![vec![bottom(x)]];
        for (p, prod) in g.iter() {
            for (dot, &s) in prod.rhs().iter().enumerate() {
                if s == Symbol::Nt(x) && out.len() < 4 {
                    let frame = SuffixFrame {
                        caller: Some(prod.lhs()),
                        rhs: g.rhs_arc(p),
                        dot,
                    };
                    out.push(vec![bottom(prod.lhs()), frame]);
                }
            }
        }
        out
    }

    #[derive(Default)]
    struct ClosureSteps(u64);
    impl ParseObserver for ClosureSteps {
        fn on_closure_step(&mut self) {
            self.0 += 1;
        }
    }

    /// Tallies over [`check`] calls, to show the comparisons are not
    /// vacuous.
    #[derive(Default)]
    struct Coverage {
        predictions: usize,
        left_recursive: usize,
        fewer_closure_steps: usize,
    }

    impl Coverage {
        fn note(&mut self, p: &Prediction, new_steps: u64, ref_steps: u64) {
            self.predictions += 1;
            if matches!(p, Prediction::Error(ParseError::LeftRecursive(_))) {
                self.left_recursive += 1;
            }
            if new_steps < ref_steps {
                self.fewer_closure_steps += 1;
            }
        }
    }

    /// `f` under the production closure and under the reference, each
    /// returning a comparable result and its closure-step count.
    fn both<R>(mut f: impl FnMut(&mut ClosureSteps) -> R) -> ((R, u64), (R, u64)) {
        let (mut new_steps, mut ref_steps) = (ClosureSteps::default(), ClosureSteps::default());
        let new = f(&mut new_steps);
        let reference = with_reference(|| f(&mut ref_steps));
        ((new, new_steps.0), (reference, ref_steps.0))
    }

    /// The parts of a recovering parse that must not depend on how the
    /// closure shapes its simulated stacks.
    fn observable(r: &RecoveredParse, m: &ParseMetrics) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            r.outcome,
            r.tree(),
            r.diagnostics,
            (
                m.machine_steps,
                m.max_stack_height,
                m.prediction_steps,
                m.sll_steps,
                m.ll_steps,
                m.decisions,
                m.sll_resolved,
                m.failovers,
                m.static_fast_path_hits,
                m.cache_lookups,
                &m.lookahead_depth,
                &m.abort,
            )
        )
    }

    /// Compares SLL and LL prediction (result and lookahead) for every
    /// decision of one random grammar at two positions of each word, and
    /// the recovering parse of each word.
    fn check(seed: u64, cov: &mut Coverage) -> Result<(), TestCaseError> {
        let mut rng = SplitMix64::new(seed);
        let Some(g) = random_grammar(&mut rng) else {
            return Ok(());
        };
        let an = GrammarAnalysis::compute(&g);
        let mut parser = Parser::with_analysis(g.clone(), an.clone());
        let deciding: Vec<NonTerminal> = g
            .symbols()
            .nonterminals()
            .filter(|&x| g.alternatives(x).len() > 1)
            .collect();
        for word in words(&g, &mut rng) {
            let starts = [0, rng.below(word.len() + 1)];
            for &x in &deciding {
                for &i in &starts {
                    let rest = &word[i..];
                    let ((new, new_steps), (reference, ref_steps)) = both(|obs| {
                        let mut meter = Meter::unlimited();
                        let mut cache = SllCache::new();
                        let p = sll_predict(&g, &an, x, rest, &mut cache, &mut meter, obs);
                        (p, meter.steps_taken())
                    });
                    prop_assert_eq!(
                        &new,
                        &reference,
                        "SLL {} on {:?}",
                        g.symbols().nonterminal_name(x),
                        rest
                    );
                    cov.note(&new.0, new_steps, ref_steps);
                    for suffix in contexts(&g, x) {
                        let ((new, new_steps), (reference, ref_steps)) = both(|obs| {
                            let mut meter = Meter::unlimited();
                            let p = ll_predict(&g, &an, x, &suffix, rest, &mut meter, obs);
                            (p, meter.steps_taken())
                        });
                        prop_assert_eq!(
                            &new,
                            &reference,
                            "LL {} on {:?}",
                            g.symbols().nonterminal_name(x),
                            rest
                        );
                        cov.note(&new.0, new_steps, ref_steps);
                    }
                }
            }
            let ((new, _), (reference, _)) = both(|_| {
                let (r, m) = parser.parse_recovering_with_metrics(&word);
                observable(&r, &m)
            });
            prop_assert_eq!(new, reference, "recovering parse of {:?}", word);
        }
        Ok(())
    }

    proptest! {
                /// The production closure and the reference agree on every SLL
        /// and LL prediction, its lookahead, every `LeftRecursive(x)`
        /// verdict, and every recovering parse.
        #[test]
        fn closure_matches_reference(seed in any::<u64>()) {
            check(seed, &mut Coverage::default())?;
        }
    }

    /// The differential cases are not vacuous: over a fixed sweep most
    /// predictions decide, some reach left recursion, and the elision fires (the
    /// production closure takes fewer steps than the reference).
    #[test]
    fn differential_sweep_covers_elision_and_left_recursion() {
        let mut cov = Coverage::default();
        for seed in 0..64 {
            check(seed, &mut cov).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        let decided = cov.predictions - cov.left_recursive;
        assert!(
            decided > 1_000,
            "{decided} predictions without left recursion"
        );
        assert!(cov.left_recursive > 0, "no left-recursive verdicts");
        assert!(cov.fewer_closure_steps > 0, "the elision never fired");
    }
}
