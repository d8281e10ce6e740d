//! Static "stable return frame" analysis for SLL prediction.
//!
//! Original ALL(*) lets an SLL subparser with an empty simulated stack
//! return to *all possible caller frames*. CoStar (paper §3.5) instead
//! precomputes, for each nonterminal `X`, the *stable* grammar positions
//! that are closure-reachable (via push and return operations that consume
//! no input) from every possible caller of `X`. When an SLL subparser
//! finishes simulating `X` with an empty local stack, it resumes from each
//! of those positions. Computing them statically is what keeps CoStar's SLL
//! termination proof tractable — and here, what keeps the SLL simulation a
//! simple bounded loop.
//!
//! A *stable position* is a grammar position `(production, dot)` whose dot
//! sits immediately before a terminal: a position where the subparser must
//! consume input to make further progress. Additionally, "end of parse" is
//! a stable destination when some caller chain is nullable all the way to
//! the completion of the start symbol.

use crate::analysis::nullable::NullableSet;
use crate::grammar::{Grammar, ProdId};
use crate::symbol::{NonTerminal, Symbol};
use std::collections::VecDeque;

/// A grammar position: the dot sits before `rhs(production)[dot]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// The production the dot is inside.
    pub production: ProdId,
    /// Index into the production's right-hand side (0 ≤ dot < len).
    pub dot: u32,
}

/// The stable destinations of one nonterminal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StableDests {
    /// Stable positions (dot before a terminal), deduplicated and ordered.
    pub positions: Vec<Position>,
    /// `true` if end-of-input is an acceptable continuation after the
    /// nonterminal completes (some caller chain reaches the end of the
    /// start production through nullable material only).
    pub can_end: bool,
}

/// Per-nonterminal stable return destinations (paper §3.5).
///
/// # Examples
///
/// ```
/// use costar_grammar::{GrammarBuilder, analysis::{NullableSet, StableFrames}};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["A", "d"]);
/// gb.rule("A", &["b"]);
/// let g = gb.start("S").build()?;
/// let nullable = NullableSet::compute(&g);
/// let sf = StableFrames::compute(&g, &nullable);
/// let a = g.symbols().lookup_nonterminal("A").unwrap();
/// // After A completes, the only stable continuation is "S -> A . d".
/// assert_eq!(sf.dests(a).positions.len(), 1);
/// assert!(!sf.dests(a).can_end);
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StableFrames {
    dests: Vec<StableDests>,
}

impl StableFrames {
    /// Computes stable destinations for every nonterminal as the least
    /// solution of three mutually recursive set families:
    ///
    /// * `SD[X]` — stable destinations of `X` (the result);
    /// * `SF[p, j]` — stable positions closure-reachable from position
    ///   `(p, j)` without consuming input;
    /// * `FS[Z]` — stable positions reachable from the start of any of
    ///   `Z`'s right-hand sides (the push case of closure).
    ///
    /// Every constraint has the form `target ⊇ source`, so the solution
    /// is a propagation over a flow graph: each set is a bitset over the
    /// grammar's stable positions (plus one bit for end of input), and a
    /// worklist re-propagates a set along its out-edges only when it grew.
    pub fn compute(g: &Grammar, nullable: &NullableSet) -> Self {
        let num_nts = g.num_nonterminals();

        // Stable positions in (production, dot) order, so bit order is
        // `Position` order; the bit after the last position is "can end".
        let mut positions: Vec<Position> = Vec::new();
        // Flatten SF variables: sf_index(p, j) for 0 <= j <= len(rhs(p)).
        let mut sf_base = Vec::with_capacity(g.num_productions() + 1);
        let mut num_sf = 0;
        for (pid, p) in g.iter() {
            sf_base.push(num_sf);
            num_sf += p.rhs().len() + 1;
            for (j, s) in p.rhs().iter().enumerate() {
                if s.is_terminal() {
                    positions.push(Position {
                        production: pid,
                        dot: j as u32,
                    });
                }
            }
        }
        let can_end = positions.len();
        let mut sets = BitSets::new(num_nts + num_sf + num_nts, can_end + 1);
        let sd = |x: NonTerminal| x.index();
        let sf = |p: ProdId, j: usize| num_nts + sf_base[p.index()] + j;
        let fs = |z: NonTerminal| num_nts + num_sf + z.index();

        // Seed: completing the start symbol may be followed by EOF, and the
        // base case of SF at a terminal position is that position itself.
        sets.insert(sd(g.start()), can_end);
        let mut next_position = 0;
        let mut flows: Vec<(usize, usize)> = Vec::new();
        for (pid, p) in g.iter() {
            let rhs = p.rhs();
            // SF[p, len] ⊇ SD[lhs(p)] — returning out of p.
            flows.push((sd(p.lhs()), sf(pid, rhs.len())));
            // FS[lhs(p)] ⊇ SF[p, 0].
            flows.push((sf(pid, 0), fs(p.lhs())));
            for (j, &s) in rhs.iter().enumerate() {
                match s {
                    Symbol::T(_) => {
                        sets.insert(sf(pid, j), next_position);
                        next_position += 1;
                    }
                    Symbol::Nt(z) => {
                        // Push case: SF[p, j] ⊇ FS[Z].
                        flows.push((fs(z), sf(pid, j)));
                        // Nullable skip: SF[p, j] ⊇ SF[p, j+1].
                        if nullable.contains(z) {
                            flows.push((sf(pid, j + 1), sf(pid, j)));
                        }
                        // Caller constraint: SD[Z] ⊇ SF[p, j+1].
                        flows.push((sf(pid, j + 1), sd(z)));
                    }
                }
            }
        }

        // Out-edges in compressed rows, then the worklist: every set
        // starts queued, and a set is re-queued when a union grows it.
        let num_sets = sets.sets;
        let mut row = vec![0usize; num_sets + 1];
        for &(from, _) in &flows {
            row[from + 1] += 1;
        }
        for i in 0..num_sets {
            row[i + 1] += row[i];
        }
        let mut targets = vec![0usize; flows.len()];
        let mut fill = row.clone();
        for &(from, to) in &flows {
            targets[fill[from]] = to;
            fill[from] += 1;
        }
        let mut queued = vec![true; num_sets];
        let mut work: VecDeque<usize> = (0..num_sets).collect();
        while let Some(from) = work.pop_front() {
            queued[from] = false;
            for &to in &targets[row[from]..row[from + 1]] {
                if sets.union_into(from, to) && !queued[to] {
                    queued[to] = true;
                    work.push_back(to);
                }
            }
        }

        StableFrames {
            dests: g
                .symbols()
                .nonterminals()
                .map(|x| StableDests {
                    positions: sets
                        .iter(sd(x))
                        .take_while(|&i| i < can_end)
                        .map(|i| positions[i])
                        .collect(),
                    can_end: sets.contains(sd(x), can_end),
                })
                .collect(),
        }
    }

    /// The stable destinations of nonterminal `x`.
    pub fn dests(&self, x: NonTerminal) -> &StableDests {
        &self.dests[x.index()]
    }

    /// All destinations in nonterminal index order (grammar-cache
    /// serialization).
    pub(crate) fn all_dests(&self) -> &[StableDests] {
        &self.dests
    }

    /// Rebuilds from raw parts (grammar-cache deserialization).
    pub(crate) fn from_parts(dests: Vec<StableDests>) -> Self {
        StableFrames { dests }
    }
}

/// A family of equally sized bitsets in one flat buffer.
struct BitSets {
    sets: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitSets {
    fn new(sets: usize, bits: usize) -> Self {
        let words = bits.div_ceil(64);
        BitSets {
            sets,
            words,
            bits: vec![0; sets * words],
        }
    }

    fn insert(&mut self, set: usize, bit: usize) {
        self.bits[set * self.words + bit / 64] |= 1 << (bit % 64);
    }

    fn contains(&self, set: usize, bit: usize) -> bool {
        self.bits[set * self.words + bit / 64] & (1 << (bit % 64)) != 0
    }

    /// `to ∪= from`; whether `to` grew.
    fn union_into(&mut self, from: usize, to: usize) -> bool {
        let mut grew = false;
        for w in 0..self.words {
            let add = self.bits[from * self.words + w];
            let dst = &mut self.bits[to * self.words + w];
            if add & !*dst != 0 {
                *dst |= add;
                grew = true;
            }
        }
        grew
    }

    /// The members of `set`, ascending.
    fn iter(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        self.bits[set * self.words..(set + 1) * self.words]
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word & (1 << b) != 0)
                    .map(move |b| w * 64 + b)
            })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn nt(g: &Grammar, name: &str) -> NonTerminal {
        g.symbols().lookup_nonterminal(name).unwrap()
    }

    fn compute(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, StableFrames) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let sf = StableFrames::compute(&g, &n);
        (g, sf)
    }

    #[test]
    fn start_symbol_can_end() {
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["a"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "S"));
        assert!(d.can_end);
        assert!(d.positions.is_empty());
    }

    #[test]
    fn single_caller_terminal_continuation() {
        // Fig. 2 grammar: after A completes, continuations are "S -> A . c"
        // and "S -> A . d" and, recursively, nothing else (c/d are
        // terminals). A also occurs in "A -> a A ." whose completion
        // returns to A's own callers (already covered).
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "A"));
        assert_eq!(d.positions.len(), 2);
        assert!(!d.can_end);
        for pos in &d.positions {
            let p = g.production(pos.production);
            assert_eq!(g.symbols().nonterminal_name(p.lhs()), "S");
            assert_eq!(pos.dot, 1);
        }
    }

    #[test]
    fn nullable_tail_reaches_eof() {
        // S -> A B, B nullable: after A, both "inside B" positions and EOF
        // are stable destinations.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["A", "B"]);
            gb.rule("A", &["a"]);
            gb.rule("B", &["b"]);
            gb.rule("B", &[]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "A"));
        assert!(d.can_end, "nullable B then end of S");
        // Position "B -> . b" is reachable by pushing B.
        assert_eq!(d.positions.len(), 1);
        let pos = d.positions[0];
        assert_eq!(
            g.symbols()
                .nonterminal_name(g.production(pos.production).lhs()),
            "B"
        );
        assert_eq!(pos.dot, 0);
    }

    #[test]
    fn transitive_return_through_caller() {
        // C completes inside B which completes inside S: C's stable
        // destinations include the terminal after B in S.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["B", "x"]);
            gb.rule("B", &["C"]);
            gb.rule("C", &["c"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "C"));
        assert!(!d.can_end);
        assert_eq!(d.positions.len(), 1);
        let p = g.production(d.positions[0].production);
        assert_eq!(g.symbols().nonterminal_name(p.lhs()), "S");
        assert_eq!(d.positions[0].dot, 1);
    }

    #[test]
    fn multiple_callers_union() {
        // X called from two places with different continuations.
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["X", "a"]);
            gb.rule("S", &["X", "b"]);
            gb.rule("X", &["x"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "X"));
        assert_eq!(d.positions.len(), 2);
    }

    #[test]
    fn unreachable_nonterminal_has_no_dests() {
        let (g, sf) = compute(|gb| {
            gb.rule("S", &["a"]);
            gb.rule("U", &["u"]);
            gb.start("S");
        });
        let d = sf.dests(nt(&g, "U"));
        assert!(d.positions.is_empty());
        assert!(!d.can_end);
    }
}
