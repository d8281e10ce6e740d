//! Thompson construction: regular expressions to a nondeterministic
//! finite automaton with ε-transitions.
//!
//! Several rules are compiled into *one* NFA with a shared start state;
//! each rule's accept state carries the rule's index as a priority tag, so
//! the downstream DFA can implement the lexer-generator convention
//! "longest match wins; ties go to the earliest rule".

use crate::regex::{ByteSet, Regex};

/// A state's outgoing edges.
#[derive(Debug, Clone, Default)]
pub(crate) struct NfaState {
    /// Byte-labeled transitions.
    pub edges: Vec<(ByteSet, usize)>,
    /// ε-transitions.
    pub eps: Vec<usize>,
    /// Accepting rule index (lower = higher priority), if any.
    pub accept: Option<usize>,
}

/// An NFA over bytes with rule-tagged accept states.
#[derive(Debug, Clone)]
pub(crate) struct Nfa {
    pub states: Vec<NfaState>,
    pub start: usize,
}

impl Nfa {
    /// Builds a combined NFA for a list of rule patterns. Rule `i`'s
    /// accept states are tagged `i`.
    pub fn compile(rules: &[Regex]) -> Nfa {
        let mut nfa = Nfa {
            states: vec![NfaState::default()],
            start: 0,
        };
        for (i, re) in rules.iter().enumerate() {
            let (s, e) = nfa.add(re);
            nfa.states[0].eps.push(s);
            nfa.states[e].accept = Some(i);
        }
        nfa
    }

    fn new_state(&mut self) -> usize {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    /// Thompson construction: returns (entry, exit) states for `re`.
    fn add(&mut self, re: &Regex) -> (usize, usize) {
        match re {
            Regex::Empty => {
                let s = self.new_state();
                (s, s)
            }
            Regex::Class(set) => {
                let s = self.new_state();
                let e = self.new_state();
                self.states[s].edges.push((*set, e));
                (s, e)
            }
            Regex::Concat(parts) => {
                let mut entry: Option<usize> = None;
                let mut last_exit: Option<usize> = None;
                for p in parts {
                    let (s, e) = self.add(p);
                    if let Some(prev) = last_exit {
                        self.states[prev].eps.push(s);
                    } else {
                        entry = Some(s);
                    }
                    last_exit = Some(e);
                }
                match (entry, last_exit) {
                    (Some(s), Some(e)) => (s, e),
                    _ => {
                        let s = self.new_state();
                        (s, s)
                    }
                }
            }
            Regex::Alt(alts) => {
                let s = self.new_state();
                let e = self.new_state();
                for a in alts {
                    let (as_, ae) = self.add(a);
                    self.states[s].eps.push(as_);
                    self.states[ae].eps.push(e);
                }
                (s, e)
            }
            Regex::Star(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                let (is, ie) = self.add(inner);
                self.states[s].eps.push(is);
                self.states[s].eps.push(e);
                self.states[ie].eps.push(is);
                self.states[ie].eps.push(e);
                (s, e)
            }
            Regex::Plus(inner) => {
                let (is, ie) = self.add(inner);
                let e = self.new_state();
                self.states[ie].eps.push(is);
                self.states[ie].eps.push(e);
                (is, e)
            }
            Regex::Opt(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                let (is, ie) = self.add(inner);
                self.states[s].eps.push(is);
                self.states[s].eps.push(e);
                self.states[ie].eps.push(e);
                (s, e)
            }
        }
    }

    /// Fresh scratch space for [`Nfa::eps_closure`] over this NFA.
    pub fn closure_scratch(&self) -> ClosureScratch {
        ClosureScratch {
            seen: vec![0; self.states.len()],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// ε-closure of a set of states into `out` (sorted, deduplicated).
    /// Allocates only while `scratch` and `out` grow.
    pub fn eps_closure(
        &self,
        states: &[usize],
        scratch: &mut ClosureScratch,
        out: &mut Vec<usize>,
    ) {
        if scratch.stamp == u32::MAX {
            scratch.seen.fill(0);
            scratch.stamp = 0;
        }
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        out.clear();
        scratch.stack.clear();
        scratch.stack.extend_from_slice(states);
        while let Some(s) = scratch.stack.pop() {
            if scratch.seen[s] == stamp {
                continue;
            }
            scratch.seen[s] = stamp;
            out.push(s);
            scratch.stack.extend_from_slice(&self.states[s].eps);
        }
        out.sort_unstable();
    }

    /// The highest-priority (lowest-index) accept tag in a state set.
    pub fn accept_of(&self, states: &[usize]) -> Option<usize> {
        states.iter().filter_map(|&s| self.states[s].accept).min()
    }

    /// All states reachable from `states` on byte `b`, into `out`.
    pub fn step(&self, states: &[usize], b: u8, out: &mut Vec<usize>) {
        out.clear();
        for &s in states {
            for (set, t) in &self.states[s].edges {
                if set.contains(b) {
                    out.push(*t);
                }
            }
        }
    }
}

/// Reusable buffers for ε-closures: a visited mark per NFA state, stamped
/// with a fresh value per closure so it is never cleared, and one DFS
/// stack.
pub(crate) struct ClosureScratch {
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<usize>,
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::regex::parse_regex;

    /// Simulates the NFA directly on an input (test oracle for the DFA).
    fn nfa_matches(nfa: &Nfa, input: &[u8]) -> Option<usize> {
        let mut scratch = nfa.closure_scratch();
        let (mut cur, mut moved) = (Vec::new(), Vec::new());
        nfa.eps_closure(&[nfa.start], &mut scratch, &mut cur);
        for &b in input {
            nfa.step(&cur, b, &mut moved);
            nfa.eps_closure(&moved, &mut scratch, &mut cur);
            if cur.is_empty() {
                return None;
            }
        }
        nfa.accept_of(&cur)
    }

    fn single(pattern: &str) -> Nfa {
        Nfa::compile(&[parse_regex(pattern).unwrap()])
    }

    #[test]
    fn literal_match() {
        let nfa = single("abc");
        assert_eq!(nfa_matches(&nfa, b"abc"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"ab"), None);
        assert_eq!(nfa_matches(&nfa, b"abd"), None);
    }

    #[test]
    fn star_matches_zero_or_more() {
        let nfa = single("a*b");
        for input in ["b", "ab", "aaab"] {
            assert_eq!(nfa_matches(&nfa, input.as_bytes()), Some(0), "{input}");
        }
        assert_eq!(nfa_matches(&nfa, b"a"), None);
    }

    #[test]
    fn plus_requires_one() {
        let nfa = single("a+");
        assert_eq!(nfa_matches(&nfa, b""), None);
        assert_eq!(nfa_matches(&nfa, b"a"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"aaaa"), Some(0));
    }

    #[test]
    fn opt_matches_both() {
        let nfa = single("ab?c");
        assert_eq!(nfa_matches(&nfa, b"ac"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"abc"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"abbc"), None);
    }

    #[test]
    fn alternation_and_groups() {
        let nfa = single("(ab|cd)+");
        assert_eq!(nfa_matches(&nfa, b"abcdab"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"abc"), None);
    }

    #[test]
    fn priority_goes_to_earlier_rule() {
        // Both rules match "if": the earlier (keyword) rule wins.
        let rules = [parse_regex("if").unwrap(), parse_regex("[a-z]+").unwrap()];
        let nfa = Nfa::compile(&rules);
        assert_eq!(nfa_matches(&nfa, b"if"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"iff"), Some(1));
        assert_eq!(nfa_matches(&nfa, b"x"), Some(1));
    }

    #[test]
    fn empty_regex_accepts_empty() {
        let nfa = single("");
        assert_eq!(nfa_matches(&nfa, b""), Some(0));
        assert_eq!(nfa_matches(&nfa, b"a"), None);
    }
}
