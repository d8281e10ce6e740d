//! Cap-boundary pins for the static SLL closure-graph analyses.
//!
//! The decision table (`DecisionTable`: the pair graph behind each
//! conflict's distinguishing prefix and the all-alternatives graph behind
//! the class) and the audit pass (`AuditTable`: the pair graph behind each
//! lookahead bound `k`) explore closure graphs under four caps:
//! `MAX_STATES` (256 subset states), `MAX_STACK_DEPTH` (32 frames),
//! `MAX_CONFIGS_PER_STATE` (512 configurations) and `MAX_WORK_ITEMS`
//! (100 000 closure work items per exploration). Each grammar family
//! below is sized to sit exactly at a cap and one step past it, and the
//! tests pin what both analyses report there: the class, the number of
//! subset states, the pair's distinguishing prefix and the pair's `k`.
//! A faster closure engine must reproduce every one of these verdicts.

// Tests are exempt from the crate's panic-freedom discipline
// (crates/grammar/clippy.toml), same as the in-crate test modules.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use costar_grammar::analysis::{DecisionClass, GrammarAnalysis};
use costar_grammar::{Grammar, GrammarBuilder};

/// What the two analyses report for decision `S`, whose first two
/// alternatives form the pinned pair.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    /// Decision class (from the all-alternatives graph).
    class: DecisionClass,
    /// Subset states of the all-alternatives graph.
    decision_states: usize,
    /// Length of the pair's distinguishing prefix, `None` when the pair
    /// graph stopped (cap) before any resolved state was dequeued.
    prefix_len: Option<usize>,
    /// The pair's audited lookahead bound.
    k: Option<usize>,
    /// Subset states of the pair's audit graph.
    audit_states: usize,
}

fn verdict(g: &Grammar) -> Verdict {
    let a = GrammarAnalysis::compute(g);
    let s = g.symbols().lookup_nonterminal("S").expect("S");
    let d = a.decisions.decision(s).expect("S is a decision");
    let pair = d.conflicts.first().expect("S's pair conflicts");
    let audit = a.audit.audit(s).expect("S is audited");
    let pa = &audit.pairs[0];
    assert_eq!((pa.a, pa.b), (pair.a, pair.b));
    Verdict {
        class: d.class,
        decision_states: d.graph_states,
        prefix_len: pair.distinguishing_prefix.as_ref().map(Vec::len),
        k: pa.k,
        audit_states: if audit.pairs.len() == 1 {
            audit.graph_states
        } else {
            usize::MAX
        },
    }
}

fn build(rules: &[(String, Vec<String>)]) -> Grammar {
    let mut gb = GrammarBuilder::new();
    for (lhs, rhs) in rules {
        let rhs: Vec<&str> = rhs.iter().map(String::as_str).collect();
        gb.rule(lhs, &rhs);
    }
    gb.start("S").build().expect("well-formed grammar")
}

fn rule(lhs: &str, rhs: &[&str]) -> (String, Vec<String>) {
    (
        lhs.to_owned(),
        rhs.iter().map(|s| (*s).to_owned()).collect(),
    )
}

fn repeat(sym: &str, n: usize, last: &str) -> Vec<String> {
    let mut v = vec![sym.to_owned(); n];
    v.push(last.to_owned());
    v
}

/// `S -> a^n c | a^n d`: a left factor of `n` tokens. The pair graph has
/// `n + 1` live states plus the two resolved ones.
fn left_factor(n: usize) -> Grammar {
    build(&[
        ("S".to_owned(), repeat("a", n, "c")),
        ("S".to_owned(), repeat("a", n, "d")),
    ])
}

/// `S -> L N1 c | L N1 d` with the chain `N_i -> N_{i+1} z`,
/// `N_m -> a`, where `L` is `b` when `lead` (so the deep push happens in
/// a later closure) and empty otherwise. The deepest push makes a stack
/// of `m + 1` (or, after `b`, still `m + 1`) frames.
fn deep_chain(m: usize, lead: bool) -> Grammar {
    let mut rules = Vec::new();
    for last in ["c", "d"] {
        let mut rhs: Vec<&str> = Vec::new();
        if lead {
            rhs.push("b");
        }
        rhs.extend(["N1", last]);
        rules.push(rule("S", &rhs));
    }
    for i in 1..m {
        rules.push(rule(&format!("N{i}"), &[&format!("N{}", i + 1), "z"]));
    }
    rules.push(rule(&format!("N{m}"), &["a"]));
    build(&rules)
}

/// `S -> X c | X d` where `X` fans out over `w` leaf nonterminals (a
/// balanced binary tree of single-symbol alternatives, each leaf
/// `-> a`): the initial closure holds `w` configurations per alternative.
fn fan(w: usize) -> Grammar {
    fn grow(name: String, w: usize, rules: &mut Vec<(String, Vec<String>)>) {
        if w == 1 {
            rules.push((name, vec!["a".to_owned()]));
            return;
        }
        let (l, r) = (format!("{name}l"), format!("{name}r"));
        rules.push((name.clone(), vec![l.clone()]));
        rules.push((name, vec![r.clone()]));
        grow(l, w / 2, rules);
        grow(r, w - w / 2, rules);
    }
    let mut rules = vec![rule("S", &["X", "c"]), rule("S", &["X", "d"])];
    grow("X".to_owned(), w, &mut rules);
    build(&rules)
}

/// `S -> C^r X^n c | X^n d` with `X -> t1 | ... | tw`, where `C^r` is
/// a chain of `r` unit productions ending in ε (`C0 -> C1`, ...,
/// `C{r-1} -> ε`), present when `r > 0`. Every state expands `w` moves
/// whose closures each re-push `X`, so the closure work grows with
/// `n * w * w` while states and configurations stay small; each chain
/// link adds exactly one work item to the initial closure.
fn wide_left_factor(n: usize, w: usize, r: usize) -> Grammar {
    let mut first = if r > 0 {
        vec!["C0".to_owned()]
    } else {
        Vec::new()
    };
    first.extend(repeat("X", n, "c"));
    let mut rules = vec![
        ("S".to_owned(), first),
        ("S".to_owned(), repeat("X", n, "d")),
    ];
    for i in 0..w {
        rules.push(rule("X", &[&format!("t{i}")]));
    }
    for i in 0..r {
        if i + 1 < r {
            rules.push(rule(&format!("C{i}"), &[&format!("C{}", i + 1)]));
        } else {
            rules.push(rule(&format!("C{i}"), &[]));
        }
    }
    build(&rules)
}

/// `S -> D0 X^n c | X^n d | X^n e` with `X -> t1 | ... | tw` and a chain
/// of `r` diamonds `D{i} -> L{i} | R{i}`, `L{i} -> D{i+1}`,
/// `R{i} -> D{i+1}`, `D{r} -> ε`: both sides of a diamond push the same
/// continuations, so a closure pops configurations it has already
/// visited. The pairs `(c, d)` and `(c, e)` cost the same, and the
/// second one's closures of the `c` alternative are memo hits.
fn shared_diamonds(n: usize, w: usize, r: usize) -> Grammar {
    let mut first = vec!["D0".to_owned()];
    first.extend(repeat("X", n, "c"));
    let mut rules = vec![
        ("S".to_owned(), first),
        ("S".to_owned(), repeat("X", n, "d")),
        ("S".to_owned(), repeat("X", n, "e")),
    ];
    for i in 0..w {
        rules.push(rule("X", &[&format!("t{i}")]));
    }
    for i in 0..r {
        let (d, l, rr, next) = (
            format!("D{i}"),
            format!("L{i}"),
            format!("R{i}"),
            format!("D{}", i + 1),
        );
        rules.push(rule(&d, &[&l]));
        rules.push(rule(&d, &[&rr]));
        rules.push(rule(&l, &[&next]));
        rules.push(rule(&rr, &[&next]));
    }
    rules.push(rule(&format!("D{r}"), &[]));
    build(&rules)
}

/// The audited `k` of each pair of `S`, in pair order, and the audit's
/// total subset states over those pairs.
fn pair_bounds(g: &Grammar) -> (Vec<Option<usize>>, usize) {
    let a = GrammarAnalysis::compute(g);
    let s = g.symbols().lookup_nonterminal("S").expect("S");
    let audit = a.audit.audit(s).expect("S is audited");
    (
        audit.pairs.iter().map(|pa| pa.k).collect(),
        audit.graph_states,
    )
}

/// `S -> A | B`, `A -> a | a a^n c`, `B -> a | a a^n d`: after `a` both
/// alternatives accept end of input (an end-of-input conflict the audit
/// stops at), while the decision graph walks on along the `a` chain.
fn conflict_then_chain(n: usize) -> Grammar {
    let mut long_a = vec!["a".to_owned()];
    long_a.extend(repeat("a", n, "c"));
    let mut long_b = vec!["a".to_owned()];
    long_b.extend(repeat("a", n, "d"));
    build(&[
        rule("S", &["A"]),
        rule("S", &["B"]),
        rule("A", &["a"]),
        ("A".to_owned(), long_a),
        rule("B", &["a"]),
        ("B".to_owned(), long_b),
    ])
}

/// `S -> A c | A d`, `A -> e | a^n`: the `e` branch resolves after two
/// tokens while the `a` chain runs on to the state cap.
fn early_resolve_then_chain(n: usize) -> Grammar {
    let mut rules = vec![rule("S", &["A", "c"]), rule("S", &["A", "d"])];
    rules.push(rule("A", &["e"]));
    rules.push(("A".to_owned(), vec!["a".to_owned(); n]));
    build(&rules)
}

fn settled(class: DecisionClass, states: usize, k: usize) -> Verdict {
    Verdict {
        class,
        decision_states: states,
        prefix_len: Some(k),
        k: Some(k),
        audit_states: states,
    }
}

fn capped(decision_states: usize, prefix_len: Option<usize>, audit_states: usize) -> Verdict {
    Verdict {
        class: DecisionClass::NeedsFullAllStar,
        decision_states,
        prefix_len,
        k: None,
        audit_states,
    }
}

#[test]
fn state_cap_admits_256_states_and_stops_at_the_257th() {
    // n = 253: 254 live states plus the two resolved ones = 256 exactly.
    assert_eq!(
        verdict(&left_factor(253)),
        settled(DecisionClass::SllSafe, 256, 254)
    );
    // n = 254: the second resolved state would be the 257th.
    assert_eq!(verdict(&left_factor(254)), capped(256, None, 256));
}

#[test]
fn stack_depth_cap_admits_32_frames_and_stops_at_33() {
    assert_eq!(
        verdict(&deep_chain(31, false)),
        settled(DecisionClass::SllSafe, 34, 32)
    );
    assert_eq!(
        verdict(&deep_chain(31, true)),
        settled(DecisionClass::SllSafe, 35, 33)
    );
    // The overflowing push in the initial closure: no state interned.
    assert_eq!(verdict(&deep_chain(32, false)), capped(0, None, 0));
    // The overflowing push in the closure after `b`: one state interned.
    assert_eq!(verdict(&deep_chain(32, true)), capped(1, None, 1));
}

#[test]
fn config_cap_admits_512_configurations_and_stops_past_them() {
    assert_eq!(verdict(&fan(256)), settled(DecisionClass::SllSafe, 4, 2));
    // 2 * 257 = 514 configurations in the start state.
    assert_eq!(verdict(&fan(257)), capped(1, None, 1));
}

#[test]
fn work_cap_is_charged_to_the_exact_item() {
    // n = 81, w = 24 costs 99 990 work items; the chain adds one item for
    // the push of C0 plus one per link. r = 9 spends the budget exactly.
    assert_eq!(
        verdict(&wide_left_factor(81, 24, 0)),
        settled(DecisionClass::SllSafe, 84, 82)
    );
    assert_eq!(
        verdict(&wide_left_factor(81, 24, 9)),
        settled(DecisionClass::SllSafe, 84, 82)
    );
    // One item more fails in the last closure before the resolved states.
    assert_eq!(verdict(&wide_left_factor(81, 24, 10)), capped(83, None, 83));
    assert_eq!(verdict(&wide_left_factor(81, 24, 12)), capped(82, None, 82));
    assert_eq!(verdict(&wide_left_factor(82, 24, 0)), capped(82, None, 82));
}

#[test]
fn end_of_input_conflict_stops_the_audit_but_not_the_decision_graph() {
    assert_eq!(verdict(&conflict_then_chain(300)), capped(256, None, 2));
}

#[test]
fn early_resolution_keeps_its_prefix_past_a_later_cap() {
    assert_eq!(
        verdict(&early_resolve_then_chain(300)),
        capped(256, Some(2), 256)
    );
}

#[test]
fn work_cap_charges_repeated_pops_and_memo_hits() {
    // One diamond fits the budget of the pairs with the `c` alternative;
    // two overrun it. Both pairs must overrun together: the second reads
    // the `c` closures from the memo and must still be charged for them,
    // including the pops of configurations already visited.
    assert_eq!(
        pair_bounds(&shared_diamonds(81, 24, 1)),
        (vec![Some(82), Some(82), Some(82)], 252)
    );
    assert_eq!(
        pair_bounds(&shared_diamonds(81, 24, 2)),
        (vec![None, None, Some(82)], 248)
    );
}
