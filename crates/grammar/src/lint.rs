//! Diagnostics-grade grammar linter.
//!
//! CoStar's correctness theorems come with static preconditions — above
//! all, that the grammar is not left-recursive (paper §5) — and its
//! prediction machinery rests on static analyses (§3.5). This module
//! turns those analyses into *user-facing diagnostics*: structured
//! [`Diagnostic`] values with a stable code, a severity, a message, and a
//! machine-checkable [`Witness`] (the left-recursion cycle, the LL(1)
//! conflict pair), so third-party grammars get actionable feedback before
//! the first parse. The `costar lint` CLI subcommand renders these in
//! human or JSON form.
//!
//! ## Codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `L001` | error | left-recursive nonterminal — the paper's theorem precondition fails |
//! | `L002` | error | the start symbol derives no terminal string — the language is empty |
//! | `L003` | warning | unproductive nonterminal — predicting into it can never complete |
//! | `L004` | warning | unreachable nonterminal — dead grammar weight |
//! | `L005` | warning | duplicate production — every use is ambiguous |
//! | `L006` | note | LL(1) conflict — ALL(*) resolves it, but lookahead work is done here |
//! | `L007` | error | statically ambiguous decision pair — two alternatives derive a common word (witnessed) |
//! | `L008` | note | SLL-safe nonterminal — SLL prediction provably never conflicts, LL failover is dead weight |
//! | `L009` | error | dead alternative — its right-hand side derives no terminal word, so no input ever selects it |
//! | `L010` | warning | shadowed alternative — an earlier alternative's language covers it, so it can never win |
//! | `L011` | note | lookahead bound exceeds the `--max-lookahead` threshold (audit-only, see [`audit_findings`]) |
//! | `L012` | warning | superlinear-prediction risk — an unbounded-`k` decision point is reachable from a token-free cycle (cost-only, see [`cost_findings`]) |
//! | `L013` | note | certified cost bound exceeds the `--max-steps-per-token` threshold (cost-only) |
//!
//! `L006` and `L007` are driven by the static
//! [`DecisionTable`](crate::analysis::DecisionTable) and together are the
//! exact complement of its `Ll1` class: a multi-alternative nonterminal
//! is classified `Ll1` if and only if the linter reports neither code for
//! it (each conflicting pair yields `L007` when a common derivable word
//! proves it ambiguous, `L006` otherwise). A unit test enforces the
//! partition. `L009` and `L010` are driven by the audit pass
//! ([`AuditTable`](crate::analysis::AuditTable)); `L011` needs the
//! caller's lookahead threshold, so it is only produced by
//! [`audit_findings`] (the engine behind `costar audit`), never by plain
//! [`lint_grammar`]. `L012` and `L013` are driven by the static cost
//! model ([`CostModel`](crate::analysis::CostModel)) and only produced by
//! [`cost_findings`] (the engine behind `costar cost`), keeping plain
//! lint output stable.

use crate::analysis::{DecisionClass, GrammarAnalysis};
use crate::grammar::{Grammar, ProdId};
use crate::symbol::{NonTerminal, Terminal};
use std::collections::HashMap;
use std::fmt;

/// How severe a finding is. `Error` findings void the paper's correctness
/// guarantees or make the grammar useless; `Warning` findings indicate
/// defects a parse can run into; `Note` findings are performance or style
/// observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Correctness-voiding defect.
    Error,
    /// Likely defect.
    Warning,
    /// Observation.
    Note,
}

impl Severity {
    /// Lowercase name, as rendered in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Stable diagnostic codes (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagCode {
    /// `L001`: left-recursive nonterminal.
    LeftRecursive,
    /// `L002`: the start symbol is unproductive (empty language).
    EmptyLanguage,
    /// `L003`: unproductive nonterminal.
    Unproductive,
    /// `L004`: unreachable nonterminal.
    Unreachable,
    /// `L005`: duplicate production.
    DuplicateProduction,
    /// `L006`: LL(1) conflict between two alternatives.
    Ll1Conflict,
    /// `L007`: statically ambiguous decision pair (a common derivable
    /// word witnesses two distinct parse trees).
    StaticAmbiguous,
    /// `L008`: SLL-safe nonterminal (LL failover provably unreachable).
    SllSafe,
    /// `L009`: dead alternative — no token word ever selects it.
    DeadAlternative,
    /// `L010`: shadowed alternative — an earlier alternative's language
    /// covers it, so the engine's min-alternative ambiguity resolution
    /// never picks it.
    ShadowedAlternative,
    /// `L011`: certified lookahead bound exceeds the caller's threshold
    /// (or no finite bound exists).
    LookaheadBound,
    /// `L012`: superlinear-prediction risk — an unbounded-lookahead
    /// decision point is reachable from a token-free cycle (left
    /// recursion or a nullable-closure cycle), so prediction can rescan
    /// input that is not being consumed.
    SuperlinearPrediction,
    /// `L013`: the certified cost bound exceeds the caller's
    /// steps-per-token threshold (or no linear bound exists).
    CostBound,
}

impl DiagCode {
    /// The stable code string (`L001`…).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::LeftRecursive => "L001",
            DiagCode::EmptyLanguage => "L002",
            DiagCode::Unproductive => "L003",
            DiagCode::Unreachable => "L004",
            DiagCode::DuplicateProduction => "L005",
            DiagCode::Ll1Conflict => "L006",
            DiagCode::StaticAmbiguous => "L007",
            DiagCode::SllSafe => "L008",
            DiagCode::DeadAlternative => "L009",
            DiagCode::ShadowedAlternative => "L010",
            DiagCode::LookaheadBound => "L011",
            DiagCode::SuperlinearPrediction => "L012",
            DiagCode::CostBound => "L013",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::LeftRecursive
            | DiagCode::EmptyLanguage
            | DiagCode::StaticAmbiguous
            | DiagCode::DeadAlternative => Severity::Error,
            DiagCode::Unproductive
            | DiagCode::Unreachable
            | DiagCode::DuplicateProduction
            | DiagCode::ShadowedAlternative
            | DiagCode::SuperlinearPrediction => Severity::Warning,
            DiagCode::Ll1Conflict
            | DiagCode::SllSafe
            | DiagCode::LookaheadBound
            | DiagCode::CostBound => Severity::Note,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The evidence backing a diagnostic — concrete enough that a reader (or a
/// test) can replay it against the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A derivation cycle `x ⇒ … ⇒ x` (left recursion), start and end
    /// both `x`.
    Cycle(Vec<NonTerminal>),
    /// Two productions of the same nonterminal selectable on the same
    /// lookahead (`None` = both alternatives are nullable, conflicting on
    /// every FOLLOW terminal and end-of-input).
    Ll1Pair {
        /// First conflicting production.
        a: ProdId,
        /// Second conflicting production.
        b: ProdId,
        /// A terminal in both select sets, if one exists.
        lookahead: Option<Terminal>,
    },
    /// Two syntactically identical productions.
    Duplicate {
        /// First copy.
        a: ProdId,
        /// Second copy.
        b: ProdId,
    },
    /// Two productions of the same nonterminal deriving the same terminal
    /// word — exact proof the decision pair is ambiguous.
    AmbiguousWord {
        /// First alternative.
        a: ProdId,
        /// Second alternative.
        b: ProdId,
        /// The common word (possibly empty: both alternatives derive ε).
        word: Vec<Terminal>,
    },
    /// A production whose right-hand side derives no terminal word.
    DeadAlt {
        /// The dead alternative.
        production: ProdId,
    },
    /// A later alternative whose language an earlier one covers.
    Shadowed {
        /// The covering (earlier) alternative.
        earlier: ProdId,
        /// The covered (later) alternative — never selected.
        later: ProdId,
    },
    /// A certified lookahead bound beyond the caller's threshold.
    LookaheadBound {
        /// The certified bound; `None` = no finite bound exists.
        k: Option<usize>,
        /// The caller's `--max-lookahead` threshold.
        max: usize,
    },
    /// An unbounded-lookahead decision point reachable from a token-free
    /// cycle — the combination that lets prediction work grow faster
    /// than consumed input.
    Superlinear {
        /// `true` when the grammar also carries a nullable-closure
        /// cycle hazard (the other source of token-free re-entry besides
        /// left recursion).
        nullable_hazard: bool,
    },
    /// A certified cost bound beyond the caller's steps-per-token
    /// threshold.
    CostBound {
        /// The certified steps-per-token coefficient; `None` = no
        /// linear bound exists.
        steps_per_token: Option<u64>,
        /// The caller's `--max-steps-per-token` threshold.
        max: u64,
    },
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The nonterminal the finding is about.
    pub nonterminal: NonTerminal,
    /// Human-readable one-line description.
    pub message: String,
    /// Replayable evidence, when the defect has a finite witness.
    pub witness: Option<Witness>,
}

impl Diagnostic {
    /// Renders the witness with grammar symbol names, e.g.
    /// `S ⇒ A ⇒ S` or `` `E -> E x` / `E -> y` on lookahead `y` ``.
    pub fn render_witness(&self, g: &Grammar) -> Option<String> {
        let tab = g.symbols();
        self.witness.as_ref().map(|w| match w {
            Witness::Cycle(cycle) => cycle
                .iter()
                .map(|&x| tab.nonterminal_name(x))
                .collect::<Vec<_>>()
                .join(" \u{21d2} "),
            Witness::Ll1Pair { a, b, lookahead } => {
                let la = match lookahead {
                    Some(t) => format!("lookahead `{}`", tab.terminal_name(*t)),
                    None => "empty input (both alternatives nullable)".to_owned(),
                };
                format!(
                    "`{}` / `{}` on {la}",
                    g.render_production(*a),
                    g.render_production(*b)
                )
            }
            Witness::Duplicate { a, b: _ } => {
                format!("`{}` appears twice", g.render_production(*a))
            }
            Witness::AmbiguousWord { a, b, word } => {
                let rendered = if word.is_empty() {
                    "the empty word".to_owned()
                } else {
                    format!(
                        "`{}`",
                        word.iter()
                            .map(|&t| tab.terminal_name(t))
                            .collect::<Vec<_>>()
                            .join(" ")
                    )
                };
                format!(
                    "`{}` / `{}` both derive {rendered}",
                    g.render_production(*a),
                    g.render_production(*b)
                )
            }
            Witness::DeadAlt { production } => {
                format!(
                    "`{}` contains an unproductive nonterminal",
                    g.render_production(*production)
                )
            }
            Witness::Shadowed { earlier, later } => {
                format!(
                    "`{}` is covered by the earlier `{}`",
                    g.render_production(*later),
                    g.render_production(*earlier)
                )
            }
            Witness::LookaheadBound { k, max } => match k {
                Some(k) => format!("certified bound k = {k} exceeds threshold {max}"),
                None => format!("no finite bound exists (threshold {max})"),
            },
            Witness::Superlinear { nullable_hazard } => {
                if *nullable_hazard {
                    "unbounded lookahead reachable from a token-free cycle \
                     (left recursion or nullable-closure cycle)"
                        .to_owned()
                } else {
                    "unbounded lookahead reachable from a left-recursive cycle".to_owned()
                }
            }
            Witness::CostBound {
                steps_per_token,
                max,
            } => match steps_per_token {
                Some(a) => format!("certified bound a = {a} steps/token exceeds threshold {max}"),
                None => format!("no linear bound exists (threshold {max})"),
            },
        })
    }

    /// Renders the finding as one human-readable block, `cargo`-style.
    pub fn render_human(&self, g: &Grammar) -> String {
        let mut out = format!(
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code.as_str(),
            self.message
        );
        if let Some(w) = self.render_witness(g) {
            out.push_str("\n  witness: ");
            out.push_str(&w);
        }
        out
    }

    /// Renders the finding as one JSON object.
    pub fn to_json(&self, g: &Grammar) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":\"{}\"", self.code.as_str()));
        out.push_str(&format!(",\"severity\":\"{}\"", self.severity.as_str()));
        out.push_str(&format!(
            ",\"nonterminal\":{}",
            json_string(g.symbols().nonterminal_name(self.nonterminal))
        ));
        out.push_str(&format!(",\"message\":{}", json_string(&self.message)));
        match self.render_witness(g) {
            Some(w) => out.push_str(&format!(",\"witness\":{}", json_string(&w))),
            None => out.push_str(",\"witness\":null"),
        }
        out.push('}');
        out
    }
}

/// Renders `s` as a quoted JSON string literal, escaping quotes,
/// backslashes and control characters.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs every lint over the grammar, most severe findings first (ties
/// broken by code, then by nonterminal index, so output is deterministic).
pub fn lint_grammar(g: &Grammar, analysis: &GrammarAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let tab = g.symbols();

    // L001: left recursion, with the cycle as witness.
    for x in analysis.left_recursion.left_recursive_set().iter() {
        let cycle = analysis.left_recursion.witness_cycle(x);
        out.push(Diagnostic {
            code: DiagCode::LeftRecursive,
            severity: DiagCode::LeftRecursive.severity(),
            nonterminal: x,
            message: format!(
                "nonterminal `{}` is left-recursive; CoStar's correctness theorems \
                 require a non-left-recursive grammar (rewrite it, or run \
                 `costar check --eliminate-lr`)",
                tab.nonterminal_name(x)
            ),
            witness: cycle.map(Witness::Cycle),
        });
    }

    // L002: empty language (start symbol unproductive).
    if !analysis.productivity.is_productive(g.start()) {
        out.push(Diagnostic {
            code: DiagCode::EmptyLanguage,
            severity: DiagCode::EmptyLanguage.severity(),
            nonterminal: g.start(),
            message: format!(
                "start symbol `{}` cannot derive any terminal string; the grammar's \
                 language is empty and every parse will reject or diverge",
                tab.nonterminal_name(g.start())
            ),
            witness: None,
        });
    }

    // L003: unproductive nonterminals (other than the start symbol, which
    // L002 already covers more loudly).
    for x in analysis.productivity.unproductive(g) {
        if x == g.start() {
            continue;
        }
        out.push(Diagnostic {
            code: DiagCode::Unproductive,
            severity: DiagCode::Unproductive.severity(),
            nonterminal: x,
            message: format!(
                "nonterminal `{}` cannot derive any terminal string; a prediction \
                 that commits to it can never complete",
                tab.nonterminal_name(x)
            ),
            witness: None,
        });
    }

    // L004: unreachable nonterminals.
    for x in analysis.reachability.unreachable(g) {
        out.push(Diagnostic {
            code: DiagCode::Unreachable,
            severity: DiagCode::Unreachable.severity(),
            nonterminal: x,
            message: format!(
                "nonterminal `{}` is unreachable from the start symbol `{}`; its \
                 productions can never participate in a parse",
                tab.nonterminal_name(x),
                tab.nonterminal_name(g.start())
            ),
            witness: None,
        });
    }

    // L005: duplicate productions — identical (lhs, rhs) pairs make every
    // use of the nonterminal ambiguous.
    let mut seen: HashMap<(NonTerminal, &[crate::symbol::Symbol]), ProdId> = HashMap::new();
    for (pid, p) in g.iter() {
        if let Some(&first) = seen.get(&(p.lhs(), p.rhs())) {
            out.push(Diagnostic {
                code: DiagCode::DuplicateProduction,
                severity: DiagCode::DuplicateProduction.severity(),
                nonterminal: p.lhs(),
                message: format!(
                    "duplicate production for `{}`; every word using it parses \
                     ambiguously",
                    tab.nonterminal_name(p.lhs())
                ),
                witness: Some(Witness::Duplicate { a: first, b: pid }),
            });
        } else {
            seen.insert((p.lhs(), p.rhs()), pid);
        }
    }

    // L006/L007/L008: decision-point findings, driven by the static
    // decision table so the linter and the parser's fast path share one
    // definition of LL(1)-ness. One diagnostic per code per nonterminal
    // (the first qualifying pair), since a single shared prefix typically
    // produces a quadratic blow-up of pairs that all say the same thing.
    //
    // Together L006 and L007 are the exact complement of the `Ll1`
    // decision class: every conflicting pair yields exactly one of them
    // (L007 when a common derivable word proves it ambiguous, L006
    // otherwise), so a multi-alternative nonterminal draws neither code
    // iff it is classified `Ll1` — the partition a unit test enforces.
    for d in analysis.decisions.iter() {
        let x = d.nonterminal;
        if let Some((c, word)) = d
            .conflicts
            .iter()
            .find_map(|c| c.ambiguous_word.as_ref().map(|w| (c, w)))
        {
            out.push(Diagnostic {
                code: DiagCode::StaticAmbiguous,
                severity: DiagCode::StaticAmbiguous.severity(),
                nonterminal: x,
                message: format!(
                    "two alternatives of `{}` derive the same word; every parse \
                     that reaches this decision on such input is ambiguous",
                    tab.nonterminal_name(x)
                ),
                witness: Some(Witness::AmbiguousWord {
                    a: c.a,
                    b: c.b,
                    word: word.clone(),
                }),
            });
        }
        if let Some(c) = d.conflicts.iter().find(|c| c.ambiguous_word.is_none()) {
            out.push(Diagnostic {
                code: DiagCode::Ll1Conflict,
                severity: DiagCode::Ll1Conflict.severity(),
                nonterminal: x,
                message: format!(
                    "alternatives of `{}` are not LL(1)-separable; ALL(*) \
                     prediction resolves this with multi-token lookahead",
                    tab.nonterminal_name(x)
                ),
                witness: Some(Witness::Ll1Pair {
                    a: c.a,
                    b: c.b,
                    lookahead: c.lookahead,
                }),
            });
        }
        if d.class == DecisionClass::SllSafe {
            out.push(Diagnostic {
                code: DiagCode::SllSafe,
                severity: DiagCode::SllSafe.severity(),
                nonterminal: x,
                message: format!(
                    "`{}` is SLL-safe: SLL prediction provably never conflicts \
                     here, so the LL failover path is unreachable for this \
                     decision",
                    tab.nonterminal_name(x)
                ),
                witness: None,
            });
        }
    }

    // L009/L010: audit-pass findings (dead and shadowed alternatives).
    push_audit_diags(g, analysis, None, &mut out);

    sort_diags(&mut out);
    out
}

/// Audit-centric findings: L009 (dead alternative), L010 (shadowed
/// alternative), and — when `max_lookahead` is given — L011 for every
/// decision whose certified bound exceeds the threshold (or has no
/// finite bound at all). This is the diagnostic engine behind
/// `costar audit`; plain [`lint_grammar`] also reports L009/L010 but
/// never L011, which is meaningless without a threshold.
pub fn audit_findings(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    max_lookahead: Option<usize>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    push_audit_diags(g, analysis, max_lookahead, &mut out);
    sort_diags(&mut out);
    out
}

/// Cost-centric findings: L012 for every unbounded decision point
/// reachable from a token-free cycle (the superlinear-prediction risk
/// set of the [`CostModel`](crate::analysis::CostModel)), and — when
/// `max_steps_per_token` is given — L013 when the certified bound
/// exceeds the threshold (a grammar with no linear bound exceeds every
/// threshold). This is the diagnostic engine behind `costar cost`;
/// plain [`lint_grammar`] emits neither code, keeping its output stable.
pub fn cost_findings(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    max_steps_per_token: Option<u64>,
) -> Vec<Diagnostic> {
    let tab = g.symbols();
    let cost = &analysis.cost;
    let mut out = Vec::new();
    for &x in &cost.superlinear {
        out.push(Diagnostic {
            code: DiagCode::SuperlinearPrediction,
            severity: DiagCode::SuperlinearPrediction.severity(),
            nonterminal: x,
            message: format!(
                "deciding `{}` has no certified lookahead bound and is reachable \
                 from a token-free cycle; prediction work can grow faster than \
                 the input being consumed",
                tab.nonterminal_name(x)
            ),
            witness: Some(Witness::Superlinear {
                nullable_hazard: cost.nullable_hazard,
            }),
        });
    }
    if let Some(max) = max_steps_per_token {
        let exceeds = match cost.steps_per_token() {
            Some(a) => a > max,
            None => true,
        };
        if exceeds {
            let bound = match cost.steps_per_token() {
                Some(a) => format!("a = {a} steps per token"),
                None => "no linear bound".to_owned(),
            };
            out.push(Diagnostic {
                code: DiagCode::CostBound,
                severity: DiagCode::CostBound.severity(),
                nonterminal: g.start(),
                message: format!(
                    "the certified cost bound is {bound}, beyond the requested \
                     --max-steps-per-token {max}"
                ),
                witness: Some(Witness::CostBound {
                    steps_per_token: cost.steps_per_token(),
                    max,
                }),
            });
        }
    }
    sort_diags(&mut out);
    out
}

fn sort_diags(out: &mut [Diagnostic]) {
    out.sort_by(|a, b| {
        (a.severity, a.code, a.nonterminal.index()).cmp(&(
            b.severity,
            b.code,
            b.nonterminal.index(),
        ))
    });
}

/// Shared L009/L010/L011 emission, one diagnostic per code per
/// nonterminal (first qualifying alternative or pair). L009 is skipped
/// for unproductive nonterminals: there *every* alternative is dead and
/// L002/L003 already report the defect at the right granularity.
fn push_audit_diags(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    max_lookahead: Option<usize>,
    out: &mut Vec<Diagnostic>,
) {
    let tab = g.symbols();
    for info in analysis.audit.iter() {
        let x = info.nonterminal;
        let dead_first = info
            .dead
            .first()
            .filter(|_| analysis.productivity.is_productive(x));
        if let Some(&p) = dead_first {
            out.push(Diagnostic {
                code: DiagCode::DeadAlternative,
                severity: DiagCode::DeadAlternative.severity(),
                nonterminal: x,
                message: format!(
                    "an alternative of `{}` derives no terminal string; no \
                     input ever selects it",
                    tab.nonterminal_name(x)
                ),
                witness: Some(Witness::DeadAlt { production: p }),
            });
        }
        if let Some(&(earlier, later)) = info.shadowed.first() {
            out.push(Diagnostic {
                code: DiagCode::ShadowedAlternative,
                severity: DiagCode::ShadowedAlternative.severity(),
                nonterminal: x,
                message: format!(
                    "a later alternative of `{}` is wholly covered by an earlier \
                     one; ambiguity resolution always prefers the earlier \
                     alternative, so the later can never win",
                    tab.nonterminal_name(x)
                ),
                witness: Some(Witness::Shadowed { earlier, later }),
            });
        }
        if let Some(max) = max_lookahead {
            let exceeds = match info.k {
                Some(k) => k > max,
                None => true,
            };
            if exceeds {
                let bound = match info.k {
                    Some(k) => format!("k = {k}"),
                    None => "no finite bound".to_owned(),
                };
                out.push(Diagnostic {
                    code: DiagCode::LookaheadBound,
                    severity: DiagCode::LookaheadBound.severity(),
                    nonterminal: x,
                    message: format!(
                        "deciding `{}` needs {bound} of lookahead, beyond the \
                         requested --max-lookahead {max}",
                        tab.nonterminal_name(x)
                    ),
                    witness: Some(Witness::LookaheadBound { k: info.k, max }),
                });
            }
        }
    }
}

/// The worst severity among `diags`, or `None` when the list is empty —
/// what the CLI folds into its exit code.
pub fn worst_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn lint(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, Vec<Diagnostic>) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        let diags = lint_grammar(&g, &analysis);
        (g, diags)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_grammar_has_no_findings() {
        let (_, diags) = lint(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["b", "d"]);
            gb.rule("A", &["a"]);
            gb.start("S");
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn left_recursion_reported_with_cycle() {
        let (g, diags) = lint(|gb| {
            gb.rule("E", &["E", "plus", "Int"]);
            gb.rule("E", &["Int"]);
            gb.start("E");
        });
        // Besides L001, the two alternatives share FIRST on `Int`, so an
        // LL(1) note rides along — the error must sort first.
        assert_eq!(codes(&diags), vec!["L001", "L006"]);
        let d = &diags[0];
        assert_eq!(d.severity, Severity::Error);
        let w = d.render_witness(&g).unwrap();
        assert_eq!(w, "E \u{21d2} E");
        assert!(d.render_human(&g).contains("error[L001]"));
    }

    #[test]
    fn hidden_left_recursion_through_nullable_prefix() {
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["N", "S", "x"]);
            gb.rule("S", &["y"]);
            gb.rule("N", &[]);
            gb.rule("N", &["n"]);
            gb.start("S");
        });
        assert!(codes(&diags).contains(&"L001"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::LeftRecursive)
            .unwrap();
        assert_eq!(g.symbols().nonterminal_name(d.nonterminal), "S");
    }

    #[test]
    fn empty_language_beats_unproductive_for_start() {
        let (_, diags) = lint(|gb| {
            gb.rule("S", &["S", "a"]); // no base case anywhere
            gb.start("S");
        });
        let c = codes(&diags);
        assert!(c.contains(&"L002"), "{c:?}");
        assert!(!c.contains(&"L003"), "start covered by L002 only: {c:?}");
    }

    #[test]
    fn unproductive_and_unreachable_reported() {
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["ok"]);
            gb.rule("Pit", &["a", "Pit"]); // unproductive AND unreachable
            gb.rule("Dead", &["b"]); // merely unreachable
            gb.start("S");
        });
        let c = codes(&diags);
        assert!(c.contains(&"L003"), "{c:?}");
        assert!(c.contains(&"L004"), "{c:?}");
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::Unreachable)
            .map(|d| g.symbols().nonterminal_name(d.nonterminal))
            .collect();
        assert!(unreachable.contains(&"Dead"));
        assert!(unreachable.contains(&"Pit"));
    }

    #[test]
    fn duplicate_production_reported_once() {
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("S", &["a"]);
            gb.start("S");
        });
        let dups: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::DuplicateProduction)
            .collect();
        assert_eq!(dups.len(), 1);
        assert!(dups[0]
            .render_witness(&g)
            .unwrap()
            .contains("appears twice"));
        // The identical pair must not *also* show up as an LL(1) note.
        assert!(!codes(&diags).contains(&"L006"), "{diags:?}");
    }

    #[test]
    fn ll1_conflict_notes_the_pair_and_lookahead() {
        // Fig. 2 of the paper: S -> A c | A d shares FIRST(A) = {a, b}.
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        // S also proves SLL-safe (the c/d suffix always separates the
        // alternatives), so an L008 note rides along after the L006.
        assert_eq!(codes(&diags), vec!["L006", "L008"]);
        let d = &diags[0];
        assert_eq!(d.severity, Severity::Note);
        let w = d.render_witness(&g).unwrap();
        assert!(w.contains("lookahead"), "{w}");
        assert!(w.contains("S -> A c") || w.contains("A c"), "{w}");
        let sll = &diags[1];
        assert_eq!(sll.severity, Severity::Note);
        assert!(sll.message.contains("SLL-safe"), "{}", sll.message);
    }

    #[test]
    fn nullable_nullable_ambiguity_witnessed_by_empty_word() {
        // A -> ε and A -> B with B -> ε both derive the empty word: not
        // just an LL(1) conflict but a proven ambiguity, so the decision
        // analysis upgrades the finding to L007 with the empty word as
        // witness (and no L006 rides along for the same pair).
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["A"]);
            gb.rule("A", &[]);
            gb.rule("A", &["B"]);
            gb.rule("B", &[]);
            gb.start("S");
        });
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::StaticAmbiguous)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        let Some(Witness::AmbiguousWord { word, .. }) = &d.witness else {
            panic!("expected an ambiguous-word witness");
        };
        assert!(word.is_empty());
        assert!(d.render_witness(&g).unwrap().contains("empty word"));
        assert!(!codes(&diags).contains(&"L006"), "{diags:?}");
    }

    #[test]
    fn ambiguous_pair_reported_with_word_witness() {
        // Paper Fig. 6 shape: S -> X | Y with X, Y -> a. The common word
        // "a" is exact proof of ambiguity: L007 at error severity.
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["X"]);
            gb.rule("S", &["Y"]);
            gb.rule("X", &["a"]);
            gb.rule("Y", &["a"]);
            gb.start("S");
        });
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::StaticAmbiguous)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        let w = d.render_witness(&g).unwrap();
        assert!(w.contains("both derive `a`"), "{w}");
        // Errors sort before everything else.
        assert_eq!(diags[0].code, DiagCode::StaticAmbiguous);
    }

    #[test]
    fn dead_alternative_reported_as_error() {
        // U derives nothing, so `S -> U x` is dead while S stays live.
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("S", &["U", "x"]);
            gb.rule("U", &["u", "U"]);
            gb.start("S");
        });
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::DeadAlternative)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(g.symbols().nonterminal_name(d.nonterminal), "S");
        let w = d.render_witness(&g).unwrap();
        assert!(w.contains("S -> U x"), "{w}");
        // U itself draws L003, not L009: every alternative of an
        // unproductive nonterminal is dead, and that defect already has
        // a code at the right granularity.
        assert!(
            !diags.iter().any(|d| d.code == DiagCode::DeadAlternative
                && g.symbols().nonterminal_name(d.nonterminal) == "U"),
            "{diags:?}"
        );
    }

    #[test]
    fn shadowed_alternative_reported_as_warning() {
        // lang(S -> a) = {a} ⊆ lang(S -> A) = {a, b}.
        let (g, diags) = lint(|gb| {
            gb.rule("S", &["A"]);
            gb.rule("S", &["a"]);
            gb.rule("A", &["a"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ShadowedAlternative)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        let w = d.render_witness(&g).unwrap();
        assert!(
            w.contains("`S -> a` is covered by the earlier `S -> A`"),
            "{w}"
        );
    }

    #[test]
    fn audit_findings_reports_l011_only_with_threshold() {
        // S -> a b c | a b d certifies k = 3.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "b", "c"]);
        gb.rule("S", &["a", "b", "d"]);
        gb.start("S");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        assert!(
            !lint_grammar(&g, &analysis)
                .iter()
                .any(|d| d.code == DiagCode::LookaheadBound),
            "plain lint never emits L011"
        );
        let none = audit_findings(&g, &analysis, None);
        assert!(!none.iter().any(|d| d.code == DiagCode::LookaheadBound));
        let within = audit_findings(&g, &analysis, Some(3));
        assert!(!within.iter().any(|d| d.code == DiagCode::LookaheadBound));
        let over = audit_findings(&g, &analysis, Some(2));
        let d = over
            .iter()
            .find(|d| d.code == DiagCode::LookaheadBound)
            .unwrap();
        assert_eq!(d.severity, Severity::Note);
        let w = d.render_witness(&g).unwrap();
        assert!(w.contains("k = 3"), "{w}");
        // Unbounded decisions always exceed any threshold.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        let diags = audit_findings(&g, &analysis, Some(1_000_000));
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::LookaheadBound)
            .unwrap();
        assert!(d.render_witness(&g).unwrap().contains("no finite bound"));
    }

    #[test]
    fn cost_findings_reports_l012_for_superlinear_decisions() {
        // E -> E plus int | int: E is left-recursive, so its unbounded
        // decision sits on a token-free cycle — the L012 combination.
        let mut gb = GrammarBuilder::new();
        gb.rule("E", &["E", "plus", "int"]);
        gb.rule("E", &["int"]);
        gb.start("E");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        let e = g.symbols().lookup_nonterminal("E").unwrap();
        assert_eq!(analysis.audit.k_bound(e), None, "E must audit unbounded");
        let diags = cost_findings(&g, &analysis, None);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::SuperlinearPrediction)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.nonterminal, e);
        assert!(d
            .render_witness(&g)
            .unwrap()
            .contains("left-recursive cycle"));
        // Plain lint never emits the cost codes — its output is pinned by
        // other tests and must not change.
        assert!(!lint_grammar(&g, &analysis).iter().any(|d| matches!(
            d.code,
            DiagCode::SuperlinearPrediction | DiagCode::CostBound
        )));
        // Fig. 2's unbounded decision has no token-free cycle: no L012.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        assert!(!cost_findings(&g, &analysis, None)
            .iter()
            .any(|d| d.code == DiagCode::SuperlinearPrediction));
    }

    #[test]
    fn cost_findings_reports_l013_only_with_threshold() {
        // S -> a S | b certifies the linear bound a = 5 steps/token.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        gb.start("S");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        assert_eq!(analysis.cost.steps_per_token(), Some(5));
        assert!(cost_findings(&g, &analysis, None).is_empty());
        assert!(cost_findings(&g, &analysis, Some(5)).is_empty());
        let over = cost_findings(&g, &analysis, Some(4));
        let d = over.iter().find(|d| d.code == DiagCode::CostBound).unwrap();
        assert_eq!(d.severity, Severity::Note);
        let w = d.render_witness(&g).unwrap();
        assert!(w.contains("a = 5 steps/token"), "{w}");
        // A grammar with no linear bound exceeds every threshold.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S");
        let g = gb.build().unwrap();
        let analysis = GrammarAnalysis::compute(&g);
        let diags = cost_findings(&g, &analysis, Some(u64::MAX));
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::CostBound)
            .unwrap();
        assert!(d.render_witness(&g).unwrap().contains("no linear bound"));
    }

    #[test]
    fn ll1_class_partitions_decision_points_with_l006_l007() {
        // The contract behind the parser's static fast path: a
        // multi-alternative nonterminal is classified `Ll1` exactly when
        // the linter reports neither L006 nor L007 for it. The audit
        // codes partition the same way: L009 fires exactly for live
        // nonterminals with a dead alternative, L010 exactly for
        // decisions with a shadowed alternative, and each appears at
        // most once per nonterminal.
        let builders: Vec<fn(&mut GrammarBuilder)> = vec![
            |gb| {
                // Fig. 2: A is LL(1), S conflicts (SLL-safe).
                gb.rule("S", &["A", "c"]);
                gb.rule("S", &["A", "d"]);
                gb.rule("A", &["a", "A"]);
                gb.rule("A", &["b"]);
                gb.start("S");
            },
            |gb| {
                // Fig. 6: genuinely ambiguous S.
                gb.rule("S", &["X"]);
                gb.rule("S", &["Y"]);
                gb.rule("X", &["a"]);
                gb.rule("Y", &["a"]);
                gb.start("S");
            },
            |gb| {
                // Duplicate (ambiguous) and nullable-nullable decisions.
                gb.rule("S", &["A"]);
                gb.rule("S", &["A"]);
                gb.rule("A", &[]);
                gb.rule("A", &["B"]);
                gb.rule("B", &["b"]);
                gb.start("S");
            },
            |gb| {
                // Left recursion: conflicting but not provably ambiguous.
                gb.rule("E", &["E", "plus", "int"]);
                gb.rule("E", &["int"]);
                gb.start("E");
            },
            |gb| {
                // Clean LL(1) decisions everywhere.
                gb.rule("S", &["A", "c"]);
                gb.rule("S", &["b", "d"]);
                gb.rule("A", &["a"]);
                gb.rule("A", &[]);
                gb.start("S");
            },
            |gb| {
                // Dead alternative: U is unproductive, S stays live.
                gb.rule("S", &["a"]);
                gb.rule("S", &["U", "x"]);
                gb.rule("U", &["u", "U"]);
                gb.start("S");
            },
            |gb| {
                // Shadowed alternative: lang(S -> a) ⊆ lang(S -> A).
                gb.rule("S", &["A"]);
                gb.rule("S", &["a"]);
                gb.rule("A", &["a"]);
                gb.rule("A", &["b"]);
                gb.start("S");
            },
        ];
        for build in builders {
            let mut gb = GrammarBuilder::new();
            build(&mut gb);
            let g = gb.build().unwrap();
            let analysis = GrammarAnalysis::compute(&g);
            let diags = lint_grammar(&g, &analysis);
            for x in g.symbols().nonterminals() {
                if g.alternatives(x).len() < 2 {
                    continue;
                }
                let is_ll1 = analysis
                    .decisions
                    .decision(x)
                    .is_some_and(|d| d.class == DecisionClass::Ll1);
                let flagged = diags.iter().any(|d| {
                    d.nonterminal == x
                        && matches!(d.code, DiagCode::Ll1Conflict | DiagCode::StaticAmbiguous)
                });
                assert_eq!(
                    is_ll1,
                    !flagged,
                    "partition violated for `{}`",
                    g.symbols().nonterminal_name(x)
                );
                // Audit-code partition: L009 iff a live nonterminal has a
                // dead alternative, L010 iff one is shadowed; at most one
                // diagnostic per code per nonterminal.
                let audit = analysis.audit.audit(x).unwrap();
                let want_dead = !audit.dead.is_empty() && analysis.productivity.is_productive(x);
                let dead_count = diags
                    .iter()
                    .filter(|d| d.nonterminal == x && d.code == DiagCode::DeadAlternative)
                    .count();
                assert_eq!(dead_count, usize::from(want_dead));
                let shadow_count = diags
                    .iter()
                    .filter(|d| d.nonterminal == x && d.code == DiagCode::ShadowedAlternative)
                    .count();
                assert_eq!(shadow_count, usize::from(!audit.shadowed.is_empty()));
            }
        }
    }

    #[test]
    fn ordering_is_severity_then_code() {
        let (_, diags) = lint(|gb| {
            gb.rule("S", &["E", "x"]);
            gb.rule("S", &["y"]);
            gb.rule("E", &["E", "z"]); // left-recursive AND unproductive
            gb.rule("Dead", &["d"]); // unreachable
            gb.start("S");
        });
        let c = codes(&diags);
        assert_eq!(c[0], "L001", "{c:?}");
        let sevs: Vec<_> = diags.iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort();
        assert_eq!(sevs, sorted);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let (g, diags) = lint(|gb| {
            gb.rule("E", &["E", "x"]);
            gb.rule("E", &["y"]);
            gb.start("E");
        });
        let json = diags[0].to_json(&g);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"code\":\"L001\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"witness\":\"E \u{21d2} E\""), "{json}");
    }

    #[test]
    fn worst_severity_folds() {
        assert_eq!(worst_severity(&[]), None);
        let (_, diags) = lint(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("Dead", &["b"]);
            gb.start("S");
        });
        assert_eq!(worst_severity(&diags), Some(Severity::Warning));
    }
}
