//! Subset construction and DFA minimization.
//!
//! The combined rule NFA is determinized (subset construction over an
//! alphabet compressed into byte equivalence classes) and then minimized
//! by partition refinement, preserving each state's accept-rule tag. The
//! result is the dense table the lexer's inner loop runs on: one
//! `next[state][class]` lookup per input byte.

use crate::nfa::Nfa;
use crate::regex::ByteSet;
use std::collections::{HashMap, HashSet};

/// Sentinel for "no transition".
pub(crate) const DEAD: u32 = u32::MAX;

/// A deterministic finite automaton with rule-tagged accepting states and
/// a compressed alphabet.
#[derive(Debug, Clone)]
pub(crate) struct Dfa {
    /// Byte -> equivalence class.
    pub class_of: [u16; 256],
    /// Number of classes.
    pub num_classes: usize,
    /// `next[state * num_classes + class]`, `DEAD` when undefined.
    pub next: Vec<u32>,
    /// Accepting rule per state (lower index = higher priority).
    pub accept: Vec<Option<usize>>,
    /// The start state.
    pub start: u32,
}

impl Dfa {
    /// Determinizes `nfa` and minimizes the result.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let class_of = byte_classes(nfa);
        let num_classes = (class_of.iter().max().copied().unwrap_or(0) + 1) as usize;
        // One representative byte per class.
        let mut rep = vec![0u8; num_classes];
        for b in (0u16..=255).rev() {
            rep[class_of[b as usize] as usize] = b as u8;
        }

        // Subset construction. The per-move buffers are reused, so a move
        // allocates only when it discovers a new DFA state.
        let mut scratch = nfa.closure_scratch();
        let (mut moved, mut closed) = (Vec::new(), Vec::new());
        nfa.eps_closure(&[nfa.start], &mut scratch, &mut closed);
        let mut ids: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut sets: Vec<Vec<usize>> = vec![closed.clone()];
        let mut next: Vec<u32> = vec![DEAD; num_classes];
        let mut accept: Vec<Option<usize>> = vec![None];
        ids.insert(closed.clone(), 0);

        let mut work = vec![0u32];
        while let Some(sid) = work.pop() {
            // Every state is popped once, so its set can move out.
            let set = std::mem::take(&mut sets[sid as usize]);
            accept[sid as usize] = nfa.accept_of(&set);
            for (c, &b) in rep.iter().enumerate() {
                nfa.step(&set, b, &mut moved);
                if moved.is_empty() {
                    continue;
                }
                nfa.eps_closure(&moved, &mut scratch, &mut closed);
                let tid = match ids.get(closed.as_slice()) {
                    Some(&t) => t,
                    None => {
                        let t = sets.len() as u32;
                        ids.insert(closed.clone(), t);
                        sets.push(closed.clone());
                        next.extend(std::iter::repeat_n(DEAD, num_classes));
                        accept.push(None);
                        work.push(t);
                        t
                    }
                };
                next[sid as usize * num_classes + c] = tid;
            }
        }

        let dfa = Dfa {
            class_of,
            num_classes,
            next,
            accept,
            start: 0,
        };
        minimize(&dfa)
    }

    /// The next state on byte `b`, or `DEAD`.
    #[inline]
    pub fn step(&self, state: u32, b: u8) -> u32 {
        self.next[state as usize * self.num_classes + self.class_of[b as usize] as usize]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }
}

/// Computes byte equivalence classes: two bytes are equivalent if no NFA
/// edge distinguishes them. Starting from one class, each distinct edge
/// set splits every class into its bytes inside and outside the set;
/// classes are numbered in order of their first byte.
fn byte_classes(nfa: &Nfa) -> [u16; 256] {
    let mut class_of = [0u16; 256];
    let mut distinct: HashSet<ByteSet> = HashSet::new();
    for s in &nfa.states {
        for &(set, _) in &s.edges {
            if !distinct.insert(set) {
                continue;
            }
            // renumber[old class][inside set] = new class, or MAX.
            let mut renumber = [[u16::MAX; 2]; 256];
            let mut fresh = 0u16;
            for (b, class) in class_of.iter_mut().enumerate() {
                let slot = &mut renumber[*class as usize][usize::from(set.contains(b as u8))];
                if *slot == u16::MAX {
                    *slot = fresh;
                    fresh += 1;
                }
                *class = *slot;
            }
        }
    }
    class_of
}

/// Moore-style partition refinement minimization.
fn minimize(dfa: &Dfa) -> Dfa {
    let n = dfa.num_states();
    let width = dfa.num_classes + 1;
    // Initial partition: by accept tag. Reserve partition 0 for the
    // implicit dead state so "no transition" stays distinguishable.
    let mut part: Vec<u32> = dfa
        .accept
        .iter()
        .map(|a| match a {
            None => 1,
            Some(r) => 2 + *r as u32,
        })
        .collect();
    let mut blocks = {
        let mut tags = part.clone();
        tags.sort_unstable();
        tags.dedup();
        tags.len()
    };

    // Signature of a state: (current partition, partitions of all
    // successors), one row of `sigs` per state; both buffers are reused
    // by every round.
    let mut sigs = vec![0u32; n * width];
    let mut new_part = vec![0u32; n];
    loop {
        for (s, sig) in sigs.chunks_exact_mut(width).enumerate() {
            sig[0] = part[s];
            for (c, slot) in sig[1..].iter_mut().enumerate() {
                let t = dfa.next[s * dfa.num_classes + c];
                *slot = if t == DEAD { 0 } else { part[t as usize] };
            }
        }
        let mut sig_ids: HashMap<&[u32], u32> = HashMap::with_capacity(blocks);
        for (sig, new_p) in sigs.chunks_exact(width).zip(new_part.iter_mut()) {
            let fresh = sig_ids.len() as u32 + 1;
            *new_p = *sig_ids.entry(sig).or_insert(fresh);
        }
        // Same number of blocks means no refinement happened (each old
        // block maps to exactly one new block by construction).
        let refined = sig_ids.len();
        std::mem::swap(&mut part, &mut new_part);
        if refined == blocks {
            break;
        }
        blocks = refined;
    }

    // Renumber blocks (now 1..=blocks) densely, keeping the start state's
    // block first.
    let mut state_of = vec![DEAD; blocks + 1];
    state_of[part[dfa.start as usize] as usize] = 0;
    let mut num_blocks = 1;
    for &block in &part {
        if state_of[block as usize] == DEAD {
            state_of[block as usize] = num_blocks;
            num_blocks += 1;
        }
    }
    let num_blocks = num_blocks as usize;
    let mut next = vec![DEAD; num_blocks * dfa.num_classes];
    let mut accept = vec![None; num_blocks];
    for s in 0..n {
        let b = state_of[part[s] as usize] as usize;
        accept[b] = dfa.accept[s];
        for c in 0..dfa.num_classes {
            let t = dfa.next[s * dfa.num_classes + c];
            next[b * dfa.num_classes + c] = if t == DEAD {
                DEAD
            } else {
                state_of[part[t as usize] as usize]
            };
        }
    }
    Dfa {
        class_of: dfa.class_of,
        num_classes: dfa.num_classes,
        next,
        accept,
        start: 0,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::regex::parse_regex;

    fn dfa_of(patterns: &[&str]) -> Dfa {
        let rules: Vec<_> = patterns.iter().map(|p| parse_regex(p).unwrap()).collect();
        Dfa::from_nfa(&Nfa::compile(&rules))
    }

    fn matches(dfa: &Dfa, input: &[u8]) -> Option<usize> {
        let mut s = dfa.start;
        for &b in input {
            s = dfa.step(s, b);
            if s == DEAD {
                return None;
            }
        }
        dfa.accept[s as usize]
    }

    #[test]
    fn agrees_with_simple_patterns() {
        let dfa = dfa_of(&["(ab|cd)+"]);
        assert_eq!(matches(&dfa, b"abcd"), Some(0));
        assert_eq!(matches(&dfa, b"ab"), Some(0));
        assert_eq!(matches(&dfa, b""), None);
        assert_eq!(matches(&dfa, b"abc"), None);
    }

    #[test]
    fn rule_priority_preserved() {
        let dfa = dfa_of(&["if", "[a-z]+"]);
        assert_eq!(matches(&dfa, b"if"), Some(0));
        assert_eq!(matches(&dfa, b"iffy"), Some(1));
        assert_eq!(matches(&dfa, b"i"), Some(1));
    }

    #[test]
    fn minimization_shrinks_redundant_states() {
        // (a|b)(a|b) has equivalent intermediate branches; the minimal
        // DFA has 3 live states.
        let dfa = dfa_of(&["(a|b)(a|b)"]);
        assert_eq!(dfa.num_states(), 3);
        assert_eq!(matches(&dfa, b"ab"), Some(0));
        assert_eq!(matches(&dfa, b"ba"), Some(0));
        assert_eq!(matches(&dfa, b"a"), None);
    }

    #[test]
    fn byte_classes_compress_alphabet() {
        let dfa = dfa_of(&["[0-9]+"]);
        // Two classes: digits and everything else.
        assert_eq!(dfa.num_classes, 2);
        assert_eq!(dfa.class_of[b'3' as usize], dfa.class_of[b'7' as usize]);
        assert_ne!(dfa.class_of[b'3' as usize], dfa.class_of[b'x' as usize]);
    }

    #[test]
    fn exhaustive_agreement_with_nfa_oracle() {
        // Compare DFA and NFA decisions on every string over {a,b,c} up
        // to length 5 for a mixed rule set.
        let patterns = ["a(b|c)*", "abc", "c+", "(ab)+c?"];
        let rules: Vec<_> = patterns.iter().map(|p| parse_regex(p).unwrap()).collect();
        let nfa = Nfa::compile(&rules);
        let dfa = Dfa::from_nfa(&nfa);
        let alphabet = [b'a', b'b', b'c'];
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
        let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..5 {
            let mut next_frontier = Vec::new();
            for i in &frontier {
                for &b in &alphabet {
                    let mut v = i.clone();
                    v.push(b);
                    next_frontier.push(v);
                }
            }
            inputs.extend(next_frontier.iter().cloned());
            frontier = next_frontier;
        }
        let mut scratch = nfa.closure_scratch();
        let (mut cur, mut moved) = (Vec::new(), Vec::new());
        for input in &inputs {
            nfa.eps_closure(&[nfa.start], &mut scratch, &mut cur);
            for &b in input {
                nfa.step(&cur, b, &mut moved);
                nfa.eps_closure(&moved, &mut scratch, &mut cur);
            }
            let expected = nfa.accept_of(&cur);
            assert_eq!(matches(&dfa, input), expected, "input {input:?}");
        }
    }

    /// The subset construction, byte classes and minimization with a
    /// fresh `Vec` per closure, move and signature, kept as the
    /// differential oracle for [`Dfa::from_nfa`].
    mod reference {
        use super::super::*;

        fn eps_closure(nfa: &Nfa, states: &[usize]) -> Vec<usize> {
            let mut seen = vec![false; nfa.states.len()];
            let mut stack: Vec<usize> = states.to_vec();
            let mut out = Vec::new();
            while let Some(s) = stack.pop() {
                if seen[s] {
                    continue;
                }
                seen[s] = true;
                out.push(s);
                for &t in &nfa.states[s].eps {
                    stack.push(t);
                }
            }
            out.sort_unstable();
            out
        }

        fn step(nfa: &Nfa, states: &[usize], b: u8) -> Vec<usize> {
            let mut out = Vec::new();
            for &s in states {
                for (set, t) in &nfa.states[s].edges {
                    if set.contains(b) {
                        out.push(*t);
                    }
                }
            }
            out
        }

        pub(in super::super) fn from_nfa(nfa: &Nfa) -> Dfa {
            let class_of = byte_classes(nfa);
            let num_classes = (class_of.iter().max().copied().unwrap_or(0) + 1) as usize;
            let mut rep = vec![0u8; num_classes];
            for b in (0u16..=255).rev() {
                rep[class_of[b as usize] as usize] = b as u8;
            }

            let start_set = eps_closure(nfa, &[nfa.start]);
            let mut ids: HashMap<Vec<usize>, u32> = HashMap::new();
            let mut sets: Vec<Vec<usize>> = Vec::new();
            let mut next: Vec<u32> = Vec::new();
            let mut accept: Vec<Option<usize>> = Vec::new();

            ids.insert(start_set.clone(), 0);
            sets.push(start_set);
            next.extend(std::iter::repeat_n(DEAD, num_classes));
            accept.push(None);

            let mut work = vec![0u32];
            while let Some(sid) = work.pop() {
                let set = sets[sid as usize].clone();
                accept[sid as usize] = nfa.accept_of(&set);
                for (c, &b) in rep.iter().enumerate() {
                    let moved = eps_closure(nfa, &step(nfa, &set, b));
                    if moved.is_empty() {
                        continue;
                    }
                    let tid = match ids.get(&moved) {
                        Some(&t) => t,
                        None => {
                            let t = sets.len() as u32;
                            ids.insert(moved.clone(), t);
                            sets.push(moved);
                            next.extend(std::iter::repeat_n(DEAD, num_classes));
                            accept.push(None);
                            work.push(t);
                            t
                        }
                    };
                    next[sid as usize * num_classes + c] = tid;
                }
            }

            let dfa = Dfa {
                class_of,
                num_classes,
                next,
                accept,
                start: 0,
            };
            minimize(&dfa)
        }

        fn byte_classes(nfa: &Nfa) -> [u16; 256] {
            let mut signatures: Vec<Vec<bool>> = vec![Vec::new(); 256];
            for s in &nfa.states {
                for (set, _) in &s.edges {
                    for (b, sig) in signatures.iter_mut().enumerate() {
                        sig.push(set.contains(b as u8));
                    }
                }
            }
            let mut class_ids: HashMap<&[bool], u16> = HashMap::new();
            let mut out = [0u16; 256];
            for b in 0..256 {
                let n = class_ids.len() as u16;
                let id = *class_ids.entry(&signatures[b]).or_insert(n);
                out[b] = id;
            }
            out
        }

        fn minimize(dfa: &Dfa) -> Dfa {
            let n = dfa.num_states();
            let mut part: Vec<u32> = dfa
                .accept
                .iter()
                .map(|a| match a {
                    None => 1,
                    Some(r) => 2 + *r as u32,
                })
                .collect();

            loop {
                let mut sig_ids: HashMap<Vec<u32>, u32> = HashMap::new();
                let mut new_part = vec![0u32; n];
                for (s, new_p) in new_part.iter_mut().enumerate() {
                    let mut sig = Vec::with_capacity(dfa.num_classes + 1);
                    sig.push(part[s]);
                    for c in 0..dfa.num_classes {
                        let t = dfa.next[s * dfa.num_classes + c];
                        sig.push(if t == DEAD { 0 } else { part[t as usize] });
                    }
                    let fresh = sig_ids.len() as u32 + 1;
                    *new_p = *sig_ids.entry(sig).or_insert(fresh);
                }
                let stable = {
                    let old_blocks: HashSet<u32> = part.iter().copied().collect();
                    sig_ids.len() == old_blocks.len()
                };
                part = new_part;
                if stable {
                    break;
                }
            }

            let mut block_to_state: HashMap<u32, u32> = HashMap::new();
            block_to_state.insert(part[dfa.start as usize], 0);
            for &block in part.iter().take(n) {
                let fresh = block_to_state.len() as u32;
                block_to_state.entry(block).or_insert(fresh);
            }
            let num_blocks = block_to_state.len();
            let mut next = vec![DEAD; num_blocks * dfa.num_classes];
            let mut accept = vec![None; num_blocks];
            for s in 0..n {
                let b = block_to_state[&part[s]] as usize;
                accept[b] = dfa.accept[s];
                for c in 0..dfa.num_classes {
                    let t = dfa.next[s * dfa.num_classes + c];
                    next[b * dfa.num_classes + c] = if t == DEAD {
                        DEAD
                    } else {
                        block_to_state[&part[t as usize]]
                    };
                }
            }
            Dfa {
                class_of: dfa.class_of,
                num_classes: dfa.num_classes,
                next,
                accept,
                start: 0,
            }
        }
    }

    mod differential {
        use super::super::*;
        use crate::regex::{ByteSet, Regex};
        use proptest::prelude::*;

        /// Asserts that the reference construction builds the same tables.
        fn same_tables(rules: &[Regex]) -> Result<(), TestCaseError> {
            let nfa = Nfa::compile(rules);
            let (got, want) = (Dfa::from_nfa(&nfa), super::reference::from_nfa(&nfa));
            prop_assert_eq!(got.class_of, want.class_of);
            prop_assert_eq!(got.num_classes, want.num_classes);
            prop_assert_eq!(&got.next, &want.next);
            prop_assert_eq!(&got.accept, &want.accept);
            prop_assert_eq!(got.start, want.start);
            Ok(())
        }

        fn range(lo: u8, hi: u8) -> Regex {
            let mut set = ByteSet::empty();
            set.insert_range(lo, hi);
            Regex::Class(set)
        }

        fn literal(word: &[u8]) -> Regex {
            Regex::Concat(word.iter().map(|&b| range(b, b)).collect())
        }

        /// Decodes a postfix program into one regex: operands are byte
        /// ranges around `a`..`f` (a few of them wide), operators combine
        /// the top of the stack, and what is left is concatenated.
        fn decode(program: &[(u8, u8, u8)]) -> Regex {
            let mut stack: Vec<Regex> = Vec::new();
            for &(op, x, y) in program {
                let operand = stack.len();
                match op {
                    0..=3 => {
                        let lo = b'a' + x % 6;
                        stack.push(match y % 8 {
                            0 => range(lo.saturating_sub(60), lo),
                            1 => range(lo, 0xff),
                            n => range(lo, lo + (n - 2) % 3),
                        });
                    }
                    4 if operand >= 2 => {
                        let (b, a) = (stack.pop().unwrap(), stack.pop().unwrap());
                        stack.push(Regex::Concat(vec![a, b]));
                    }
                    5 if operand >= 2 => {
                        let (b, a) = (stack.pop().unwrap(), stack.pop().unwrap());
                        stack.push(Regex::Alt(vec![a, b]));
                    }
                    6 if operand >= 1 => {
                        let a = Box::new(stack.pop().unwrap());
                        stack.push(match x % 3 {
                            0 => Regex::Star(a),
                            1 => Regex::Plus(a),
                            _ => Regex::Opt(a),
                        });
                    }
                    _ => {}
                }
            }
            match stack.len() {
                0 => Regex::Empty,
                1 => stack.pop().unwrap(),
                _ => Regex::Concat(stack),
            }
        }

        proptest! {
            /// Random rule lists over a small alphabet.
            #[test]
            fn tables_match_the_reference_on_random_rules(
                programs in proptest::collection::vec(
                    proptest::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 1..10),
                    1..6,
                ),
            ) {
                let rules: Vec<Regex> = programs.iter().map(|p| decode(p)).collect();
                same_tables(&rules)?;
            }

            /// Keyword-heavy rule lists shaped like a programming-language
            /// lexer: literal keywords first, then an identifier rule that
            /// also matches them, then numbers and blanks.
            #[test]
            fn tables_match_the_reference_on_keyword_heavy_rules(
                keywords in proptest::collection::vec(
                    proptest::collection::vec(0u8..8, 1..7),
                    1..30,
                ),
            ) {
                let mut rules: Vec<Regex> = keywords
                    .iter()
                    .map(|k| literal(&k.iter().map(|&c| b'a' + c).collect::<Vec<_>>()))
                    .collect();
                let ident_start = Regex::Alt(vec![range(b'a', b'z'), range(b'_', b'_')]);
                let ident_rest =
                    Regex::Alt(vec![range(b'a', b'z'), range(b'0', b'9'), range(b'_', b'_')]);
                rules.push(Regex::Concat(vec![ident_start, Regex::Star(Box::new(ident_rest))]));
                rules.push(Regex::Plus(Box::new(range(b'0', b'9'))));
                rules.push(Regex::Plus(Box::new(range(b' ', b' '))));
                same_tables(&rules)?;
            }
        }
    }
}
