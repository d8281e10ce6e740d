//! Static SLL closure graph: a grammar-time subset construction over the
//! abstract configurations an SLL prediction can reach.
//!
//! The parse-time SLL engine (paper §3.4/§3.5) simulates one subparser
//! per alternative over the *actual* remaining input, returning through
//! the statically computed stable frames when a simulated stack empties.
//! This module runs the same simulation symbolically over *all possible*
//! inputs: states are canonical sets of abstract configurations, and
//! transitions are labeled by the terminal consumed. The resulting graph
//! answers, entirely at grammar-compile time, the question "can SLL
//! prediction for this decision nonterminal ever report a conflict?" —
//! the property the `SllSafe` decision class certifies.
//!
//! ## Abstraction and soundness
//!
//! An abstract configuration carries the alternative it votes for and a
//! continuation: either `Eof` (the subparser accepts exactly at end of
//! input) or a stack of `(production, dot)` frames. Two deliberate
//! over-approximations keep the graph finite where the concrete
//! simulation's state space is not:
//!
//! * **Tail-call elision.** When a caller frame's dot passes the last
//!   symbol of its right-hand side at push time, the frame is dropped
//!   instead of kept. A configuration that later empties its stack then
//!   returns through the stable destinations of the *pushed* nonterminal
//!   `Y` rather than of the dropped caller's left-hand side `Z`. This is
//!   sound because `SD[Y] ⊇ SF[p, |rhs(p)|] ⊇ SD[Z]` (the caller and
//!   return constraints of the stable-frame fixpoint): the elided
//!   configuration set is a superset of the concrete one. Elision is what
//!   keeps right-recursive grammars — whose concrete simulated stacks
//!   grow with input length — finite-state here.
//! * **Exploration caps.** Left recursion and pathological grammars can
//!   still blow the graph up; bounded exploration reports
//!   [`GraphOutcome::Bounded`], which callers treat as "not provably
//!   safe" — never as "safe".
//!
//! Because every concrete reachable configuration set is covered by an
//! abstract reachable state, a graph with no conflicting state proves the
//! parse-time engine can never take the LL failover path for this
//! decision. The converse does not hold: a conflicting *abstract* state
//! may be unreachable concretely, so `Conflict` only means "not provably
//! safe".
//!
//! ## One closure engine per analysis run
//!
//! The decision table, the audit pass and certificate replay all ask
//! questions of the same graphs, so they share one [`ClosureEngine`],
//! created by the caller for one analysis run and dropped with it (no
//! global or thread-local state). The engine:
//!
//! * interns continuations as nodes of a frame tree (a stack is the path
//!   from a node to the root), so a push or a pop is a table lookup, and
//!   a configuration is the pair of an alternative and a node id;
//! * computes each continuation's closure step once — the stable marker,
//!   its pushes or returns, or a stack-depth overflow;
//! * memoizes closures by input set. Configurations of different
//!   alternatives never interact, so a state's closure is the union of
//!   one closure per alternative, and the memo key is one alternative's
//!   set of continuations: two pairs that share an alternative share its
//!   closures;
//! * runs one BFS per pair of alternatives ([`ClosureEngine::pair`]) and
//!   caches the result, which carries both the decision table's
//!   distinguishing prefix and outcome and the audit pass's lookahead
//!   bound with its witnesses.
//!
//! ### Budget accounting
//!
//! Memoization must not move a cap verdict, so every closure is charged
//! exactly what the uncached worklist pops: the size of its input set
//! plus the out-degree (the pushes) of every configuration it visits.
//! The visited set is the set reachable from the input, so this cost does
//! not depend on the order of the work; the memo stores it with the
//! closure. Each exploration starts with [`MAX_WORK_ITEMS`] and a closure
//! fails — the exploration reports [`GraphOutcome::Bounded`] — iff its
//! cost exceeds the remaining budget or a push from a visited
//! configuration would make a stack deeper than [`MAX_STACK_DEPTH`]. A
//! closure costing more than `MAX_WORK_ITEMS` is memoized as a failure,
//! since no exploration ever has more than that left.

use crate::analysis::stable_frames::StableFrames;
use crate::grammar::{Grammar, ProdId};
use crate::symbol::{Symbol, Terminal};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Exploration caps: exceeding any of them yields [`GraphOutcome::Bounded`].
pub(crate) const MAX_STATES: usize = 256;
pub(crate) const MAX_STACK_DEPTH: usize = 32;
pub(crate) const MAX_CONFIGS_PER_STATE: usize = 512;
pub(crate) const MAX_WORK_ITEMS: usize = 100_000;

/// What exploring the closure graph established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GraphOutcome {
    /// Every reachable state was enumerated and none lets two
    /// alternatives accept end of input: SLL prediction provably never
    /// conflicts for this decision.
    ConflictFree,
    /// Some reachable abstract state has end-of-input configurations for
    /// at least two alternatives — a potential SLL conflict.
    Conflict,
    /// An exploration cap was hit first; safety is unknown.
    Bounded,
}

/// The exact lookahead bound of a set of alternatives, measured on its
/// closure graph (see `audit.rs` for the claim it certifies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LookaheadBound {
    /// `1 +` the longest walk through live states (states where two or
    /// more alternatives survive); `None` when a live state has an
    /// end-of-input conflict, the live states form a cycle, or a cap was
    /// hit.
    pub k: Option<usize>,
    /// A word of length `k - 1` that keeps two alternatives alive.
    pub collide: Option<Vec<Terminal>>,
    /// The collide word extended by one terminal that resolves.
    pub resolve: Option<Vec<Terminal>>,
    /// States interned when the bound was settled: all of them, or those
    /// interned by the time the first live end-of-input conflict was
    /// dequeued (the bound is settled there; the BFS walks on only for
    /// the [`Exploration`] fields).
    pub states: usize,
}

impl LookaheadBound {
    fn unbounded(states: usize) -> Self {
        LookaheadBound {
            k: None,
            collide: None,
            resolve: None,
            states,
        }
    }
}

/// The result of one BFS over the closure graph of a set of alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Exploration {
    /// What the exploration established.
    pub outcome: GraphOutcome,
    /// Number of distinct subset states enumerated.
    pub states: usize,
    /// The terminal word labeling the shortest path (in BFS order) to a
    /// state where at most one alternative survives — a distinguishing
    /// prefix under the SLL abstraction. `None` when no such state was
    /// dequeued within the caps.
    pub distinguishing_prefix: Option<Vec<Terminal>>,
    /// The lookahead bound (the audit pass's per-pair verdict).
    pub bound: LookaheadBound,
}

/// Interned continuation id; [`EOF`] is the accept-at-end continuation,
/// every other id a frame-tree node.
type ContId = u32;
const EOF: ContId = 0;
/// Parent of a bottom frame.
const ROOT: ContId = u32::MAX;

/// A configuration packed as `alternative << 32 | continuation`, so a
/// sorted state groups its configurations by alternative.
type Config = u64;

fn config(alt: u32, cont: ContId) -> Config {
    (u64::from(alt) << 32) | u64::from(cont)
}

fn alt_of(c: Config) -> u32 {
    (c >> 32) as u32
}

fn cont_of(c: Config) -> ContId {
    c as u32
}

/// What one closure step does with a continuation.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Not computed yet.
    Unknown,
    /// Stable: `Eof`, or the top dot sits before a terminal.
    Stable,
    /// Pushes `succ[start..start + len]` (a push into a nonterminal or a
    /// return).
    Edges { start: u32, len: u32 },
    /// The push would exceed [`MAX_STACK_DEPTH`].
    Overflow,
}

/// A frame-tree node: the top frame `(prod, dot)` over `parent`.
#[derive(Debug, Clone, Copy)]
struct Cont {
    parent: ContId,
    prod: u32,
    dot: u32,
    depth: u32,
    step: Step,
}

/// A memoized closure: `out[start..start + len]`, sorted, and its cost.
#[derive(Debug, Clone, Copy)]
struct Closed {
    start: u32,
    len: u32,
    cost: usize,
}

/// Signals an exploration cap was exceeded.
struct CapHit;

/// The closure engine shared by one analysis run (see the module docs).
pub(crate) struct ClosureEngine<'a> {
    g: &'a Grammar,
    sf: &'a StableFrames,
    conts: Vec<Cont>,
    cont_ids: FxMap<(ContId, u32, u32), ContId>,
    succ: Vec<ContId>,
    memo: FxMap<Box<[ContId]>, Option<Closed>>,
    out: Vec<ContId>,
    pairs: FxMap<(ProdId, ProdId), Exploration>,
    /// Closure scratch: per-continuation visit stamps and the worklist.
    visited: Vec<u32>,
    epoch: u32,
    work: Vec<ContId>,
}

impl<'a> ClosureEngine<'a> {
    /// An empty engine over `g` and its stable frames.
    pub(crate) fn new(g: &'a Grammar, sf: &'a StableFrames) -> Self {
        ClosureEngine {
            g,
            sf,
            conts: vec![Cont {
                parent: ROOT,
                prod: 0,
                dot: 0,
                depth: 0,
                step: Step::Stable,
            }],
            cont_ids: FxMap::default(),
            succ: Vec::new(),
            memo: FxMap::default(),
            out: Vec::new(),
            pairs: FxMap::default(),
            visited: Vec::new(),
            epoch: 0,
            work: Vec::new(),
        }
    }

    /// The grammar the engine explores.
    pub(crate) fn grammar(&self) -> &'a Grammar {
        self.g
    }

    fn intern(&mut self, parent: ContId, prod: u32, dot: u32) -> ContId {
        if let Some(&id) = self.cont_ids.get(&(parent, prod, dot)) {
            return id;
        }
        let depth = if parent == ROOT {
            1
        } else {
            self.conts[parent as usize].depth + 1
        };
        let id = self.conts.len() as ContId;
        self.conts.push(Cont {
            parent,
            prod,
            dot,
            depth,
            step: Step::Unknown,
        });
        self.cont_ids.insert((parent, prod, dot), id);
        id
    }

    /// One closure step of `c`: stable, its successors, or an overflow.
    fn step(&mut self, c: ContId) -> Step {
        let Cont {
            parent,
            prod,
            dot,
            depth,
            step,
            ..
        } = self.conts[c as usize];
        if !matches!(step, Step::Unknown) {
            return step;
        }
        let (g, sf) = (self.g, self.sf);
        let p = ProdId(prod);
        let rhs = g.production(p).rhs();
        let start = self.succ.len() as u32;
        match rhs.get(dot as usize) {
            // Stable: consuming input is the only way forward.
            Some(Symbol::T(_)) => {
                self.conts[c as usize].step = Step::Stable;
                return Step::Stable;
            }
            Some(&Symbol::Nt(y)) => {
                // Abstract push with tail-call elision: advance the
                // caller's dot past `y`, dropping the frame when that
                // exhausts it (see the module docs for why this is a
                // sound over-approximation).
                let (base, base_depth) = if (dot as usize) + 1 < rhs.len() {
                    (self.intern(parent, prod, dot + 1), depth)
                } else {
                    (parent, depth - 1)
                };
                let alts = g.alternatives(y);
                if !alts.is_empty() && base_depth as usize + 1 > MAX_STACK_DEPTH {
                    self.conts[c as usize].step = Step::Overflow;
                    return Step::Overflow;
                }
                for &q in alts {
                    let pushed = self.intern(base, q.0, 0);
                    self.succ.push(pushed);
                }
            }
            None if parent == ROOT => {
                // Return out of the decision context: resume at the
                // statically computed stable destinations of the finished
                // nonterminal (paper §3.5), exactly as the parse-time
                // engine does.
                let dests = sf.dests(g.production(p).lhs());
                for pos in &dests.positions {
                    let resumed = self.intern(ROOT, pos.production.0, pos.dot);
                    self.succ.push(resumed);
                }
                if dests.can_end {
                    self.succ.push(EOF);
                }
            }
            // The frame below was advanced past the finished nonterminal
            // at push time; just resume there.
            None => self.succ.push(parent),
        }
        let step = Step::Edges {
            start,
            len: self.succ.len() as u32 - start,
        };
        self.conts[c as usize].step = step;
        step
    }

    /// The terminal at `c`'s dot and the continuation after consuming
    /// it, or `None` for `Eof` and unstable continuations.
    fn advance(&mut self, c: ContId) -> Option<(Terminal, ContId)> {
        if c == EOF {
            return None;
        }
        let Cont {
            parent, prod, dot, ..
        } = self.conts[c as usize];
        let Some(&Symbol::T(t)) = self.g.production(ProdId(prod)).rhs().get(dot as usize) else {
            return None;
        };
        Some((t, self.intern(parent, prod, dot + 1)))
    }

    /// The closure of one alternative's continuation set `init` (sorted,
    /// distinct), memoized; `None` when it overflows the stack depth or
    /// costs more than [`MAX_WORK_ITEMS`].
    fn closure(&mut self, init: &[ContId]) -> Option<Closed> {
        if let Some(&closed) = self.memo.get(init) {
            return closed;
        }
        let closed = self.compute_closure(init);
        self.memo.insert(init.into(), closed);
        closed
    }

    /// The uncached worklist: performs every abstract push and return
    /// reachable from `init` without consuming input, collecting the
    /// stable continuations. Every pop costs one work item.
    fn compute_closure(&mut self, init: &[ContId]) -> Option<Closed> {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.extend_from_slice(init);
        let start = self.out.len();
        let mut cost = 0usize;
        let mut ok = true;
        while let Some(c) = work.pop() {
            cost += 1;
            if cost > MAX_WORK_ITEMS {
                ok = false;
                break;
            }
            let i = c as usize;
            if i >= self.visited.len() {
                self.visited.resize(self.conts.len().max(i + 1), 0);
            }
            if self.visited[i] == self.epoch {
                continue;
            }
            self.visited[i] = self.epoch;
            match self.step(c) {
                Step::Stable => self.out.push(c),
                Step::Edges { start, len } => {
                    work.extend_from_slice(&self.succ[start as usize..(start + len) as usize]);
                }
                Step::Overflow | Step::Unknown => {
                    ok = false;
                    break;
                }
            }
        }
        self.work = work;
        if !ok {
            self.out.truncate(start);
            return None;
        }
        self.out[start..].sort_unstable();
        Some(Closed {
            start: start as u32,
            len: (self.out.len() - start) as u32,
            cost,
        })
    }

    /// Closes the configuration set `init` (sorted, distinct), charging
    /// the cost against `budget`.
    fn close(&mut self, init: &[Config], budget: &mut usize) -> Result<Vec<Config>, CapHit> {
        let mut state = Vec::new();
        let mut cost = 0usize;
        let mut conts: Vec<ContId> = Vec::new();
        for group in init.chunk_by(|a, b| alt_of(*a) == alt_of(*b)) {
            conts.clear();
            conts.extend(group.iter().map(|&c| cont_of(c)));
            let alt = alt_of(group[0]);
            let closed = self.closure(&conts).ok_or(CapHit)?;
            cost += closed.cost;
            if cost > *budget {
                return Err(CapHit);
            }
            let out = &self.out[closed.start as usize..(closed.start + closed.len) as usize];
            state.extend(out.iter().map(|&c| config(alt, c)));
        }
        *budget -= cost;
        Ok(state)
    }

    /// The closed start state of `alts`.
    fn start_state(&mut self, alts: &[ProdId], budget: &mut usize) -> Result<Vec<Config>, CapHit> {
        let mut init: Vec<Config> = alts
            .iter()
            .map(|&p| config(p.0, self.intern(ROOT, p.0, 0)))
            .collect();
        init.sort_unstable();
        init.dedup();
        self.close(&init, budget)
    }

    /// The "move" half of the subset construction: the stable stack
    /// configurations of `state` grouped by the terminal each consumes,
    /// dots advanced, in terminal-index order (each group sorted).
    /// `Eof` configurations die on any terminal and are omitted.
    fn moves(&mut self, state: &[Config]) -> Vec<(Terminal, Config)> {
        let mut moved: Vec<(Terminal, Config)> = state
            .iter()
            .filter_map(|&c| {
                let (t, next) = self.advance(cont_of(c))?;
                Some((t, config(alt_of(c), next)))
            })
            .collect();
        moved.sort_unstable();
        moved
    }

    /// The BFS over the closure graph of `alts` (see [`Exploration`]).
    /// The first state dequeued with at most one surviving alternative
    /// labels the distinguishing prefix; any state with an end-of-input
    /// conflict settles the outcome as [`GraphOutcome::Conflict`] and the
    /// lookahead bound as unbounded.
    pub(crate) fn explore(&mut self, alts: &[ProdId]) -> Exploration {
        let mut budget = MAX_WORK_ITEMS;
        let Ok(start) = self.start_state(alts, &mut budget) else {
            return Exploration {
                outcome: GraphOutcome::Bounded,
                states: 0,
                distinguishing_prefix: None,
                bound: LookaheadBound::unbounded(0),
            };
        };
        let mut bfs = Bfs::default();
        bfs.intern(start, None);
        let mut conflict = false;
        while let Some((sid, state)) = bfs.queue.pop_front() {
            if state.len() > MAX_CONFIGS_PER_STATE {
                return bfs.bounded();
            }
            let is_live = distinct_alts(&state) >= 2;
            bfs.live[sid] = is_live;
            if has_eof_conflict(&state) {
                // Some input ending here is unresolvable: no finite bound.
                conflict = true;
                bfs.settled.get_or_insert(bfs.ids.len());
            }
            if !is_live {
                // The parse-time engine commits (or rejects) here without
                // reading further input: record the prefix, prune
                // successors.
                bfs.resolved.get_or_insert(sid);
                continue;
            }
            let mut capped = false;
            let moved = self.moves(&state);
            for group in moved.chunk_by(|a, b| a.0 == b.0) {
                let t = group[0].0;
                let init: Vec<Config> = group.iter().map(|&(_, c)| c).collect();
                let Ok(next) = self.close(&init, &mut budget) else {
                    capped = true;
                    break;
                };
                let next_id = match bfs.ids.get(&next) {
                    Some(&id) => id,
                    None if bfs.ids.len() >= MAX_STATES => {
                        capped = true;
                        break;
                    }
                    None => bfs.intern(next, Some((sid, t))),
                };
                if bfs.settled.is_none() {
                    bfs.edges[sid].push((t, next_id));
                }
            }
            if capped {
                return bfs.bounded();
            }
        }
        let states = bfs.ids.len();
        Exploration {
            outcome: if conflict {
                GraphOutcome::Conflict
            } else {
                GraphOutcome::ConflictFree
            },
            states,
            distinguishing_prefix: bfs.resolved.map(|sid| bfs.prefix(sid)),
            bound: match bfs.settled {
                Some(at) => LookaheadBound::unbounded(at),
                None => bfs.longest_live_walk(),
            },
        }
    }

    /// The exploration of the pair `(a, b)`, computed once per engine.
    pub(crate) fn pair(&mut self, a: ProdId, b: ProdId) -> &Exploration {
        if !self.pairs.contains_key(&(a, b)) {
            let e = self.explore(&[a, b]);
            self.pairs.insert((a, b), e);
        }
        &self.pairs[&(a, b)]
    }

    /// Replays `word` against the closure graph of `alts`: the initial
    /// closure, then one move and closure per terminal, under one
    /// [`MAX_WORK_ITEMS`] budget. Returns the surviving alternatives,
    /// ascending, or `None` when a cap is hit.
    pub(crate) fn survivors(&mut self, alts: &[ProdId], word: &[Terminal]) -> Option<Vec<ProdId>> {
        let mut budget = MAX_WORK_ITEMS;
        let mut state = self.start_state(alts, &mut budget).ok()?;
        for &t in word {
            let mut moved: Vec<Config> = state
                .iter()
                .filter_map(|&c| match self.advance(cont_of(c)) {
                    Some((u, next)) if u == t => Some(config(alt_of(c), next)),
                    _ => None,
                })
                .collect();
            moved.sort_unstable();
            state = self.close(&moved, &mut budget).ok()?;
        }
        let mut alts: Vec<ProdId> = state.iter().map(|&c| ProdId(alt_of(c))).collect();
        alts.dedup();
        Some(alts)
    }
}

/// The number of distinct alternatives voted for by a sorted state.
fn distinct_alts(state: &[Config]) -> usize {
    state.chunk_by(|a, b| alt_of(*a) == alt_of(*b)).count()
}

/// Do two or more alternatives accept end of input in `state`? This is
/// precisely the condition under which the parse-time engine's
/// end-of-input resolution reports a conflict and fails over to LL.
fn has_eof_conflict(state: &[Config]) -> bool {
    let mut eof_alts = state
        .iter()
        .filter(|&&c| cont_of(c) == EOF)
        .map(|&c| alt_of(c));
    match eof_alts.next() {
        Some(first) => eof_alts.any(|a| a != first),
        None => false,
    }
}

/// One BFS's subset states: interning, discovery paths, liveness and the
/// edges the lookahead bound is measured on.
#[derive(Default)]
struct Bfs {
    ids: FxMap<Vec<Config>, usize>,
    queue: VecDeque<(usize, Vec<Config>)>,
    /// The discovering state and terminal of each state (BFS tree).
    parent: Vec<Option<(usize, Terminal)>>,
    live: Vec<bool>,
    /// Edges out of live states, recorded until the bound is settled.
    edges: Vec<Vec<(Terminal, usize)>>,
    /// The first dequeued resolved state.
    resolved: Option<usize>,
    /// States interned when a live end-of-input conflict settled the
    /// lookahead bound as unbounded.
    settled: Option<usize>,
}

impl Bfs {
    fn intern(&mut self, state: Vec<Config>, parent: Option<(usize, Terminal)>) -> usize {
        let id = self.parent.len();
        self.ids.insert(state.clone(), id);
        self.parent.push(parent);
        self.live.push(false);
        self.edges.push(Vec::new());
        self.queue.push_back((id, state));
        id
    }

    /// The terminal word labeling the BFS path to `sid`.
    fn prefix(&self, mut sid: usize) -> Vec<Terminal> {
        let mut word = Vec::new();
        while let Some((prev, t)) = self.parent[sid] {
            word.push(t);
            sid = prev;
        }
        word.reverse();
        word
    }

    /// The exploration cut short by a cap.
    fn bounded(&self) -> Exploration {
        let states = self.ids.len();
        Exploration {
            outcome: GraphOutcome::Bounded,
            states,
            distinguishing_prefix: self.resolved.map(|sid| self.prefix(sid)),
            bound: LookaheadBound::unbounded(self.settled.unwrap_or(states)),
        }
    }

    /// The exact lookahead bound of a fully explored graph with no live
    /// end-of-input conflict. Expansion is pruned at resolved states, so
    /// every state is reachable through live interior states.
    ///
    /// `k = None` when the live subgraph has a cycle (the alternatives
    /// stay alive on arbitrarily long inputs). Otherwise the live
    /// subgraph is a DAG rooted at the start state and `k = 1 + longest
    /// live path`: after at most `k` observations every walk has left the
    /// live region (committed or rejected), and the longest-path word is
    /// a collide witness showing `k - 1` observations do not suffice.
    fn longest_live_walk(&self) -> LookaheadBound {
        let (live, edges) = (&self.live, &self.edges);
        let n = live.len();
        if !live[0] {
            // One alternative already dies in the initial closure:
            // resolved with zero observations.
            return LookaheadBound {
                k: Some(0),
                collide: None,
                resolve: None,
                states: n,
            };
        }
        // Kahn's algorithm on the live subgraph: a leftover node means a
        // live cycle, i.e. some input keeps both alternatives alive
        // forever.
        let mut indeg = vec![0usize; n];
        for (u, es) in edges.iter().enumerate() {
            if !live[u] {
                continue;
            }
            for &(_, v) in es {
                if live[v] {
                    indeg[v] += 1;
                }
            }
        }
        let mut topo: Vec<usize> = Vec::new();
        let mut ready: VecDeque<usize> = (0..n).filter(|&u| live[u] && indeg[u] == 0).collect();
        while let Some(u) = ready.pop_front() {
            topo.push(u);
            for &(_, v) in &edges[u] {
                if live[v] {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        ready.push_back(v);
                    }
                }
            }
        }
        let live_count = live.iter().filter(|&&l| l).count();
        if topo.len() != live_count {
            return LookaheadBound::unbounded(n);
        }
        // Longest path from the start through live states, with parent
        // pointers for the collide witness.
        let mut depth = vec![0usize; n];
        let mut parent: Vec<Option<(usize, Terminal)>> = vec![None; n];
        for &u in &topo {
            for &(t, v) in &edges[u] {
                if live[v] && depth[u] + 1 > depth[v] {
                    depth[v] = depth[u] + 1;
                    parent[v] = Some((u, t));
                }
            }
        }
        let Some(deepest) = (0..n).filter(|&u| live[u]).max_by_key(|&u| depth[u]) else {
            return LookaheadBound::unbounded(n);
        };
        let mut collide: Vec<Terminal> = Vec::new();
        let mut cursor = deepest;
        while let Some((prev, t)) = parent[cursor] {
            collide.push(t);
            cursor = prev;
        }
        collide.reverse();
        // Every edge out of the deepest live state targets a resolved
        // state (a live target would contradict maximality), so any of
        // them completes a resolve witness; pick the smallest terminal
        // for determinism. No edge at all means the state resolves only
        // at end of input.
        let resolve = edges[deepest].first().map(|&(t, _)| {
            let mut w = collide.clone();
            w.push(t);
            w
        });
        LookaheadBound {
            k: Some(depth[deepest] + 1),
            collide: Some(collide),
            resolve,
            states: n,
        }
    }
}

/// A hash map keyed by the engine's small integer tuples and slices (the
/// decision table's form and word interners use it too).
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate hash of the Rust compiler's `FxHasher`. It is not
/// collision-resistant: the keys are dense ids that the engine and the
/// grammar builder assign (continuation ids, production indices, dots,
/// symbols, interned form and word ids), not bytes read from outside, and the exploration caps bound the work
/// any grammar can cause. On these keys it beats the default SipHash by
/// enough to matter for certificate replay (Python: 1.2 ms against
/// 1.75 ms on a 2-core x86-64 host), which must stay an order of
/// magnitude cheaper than the recompute it replaces.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::analysis::nullable::NullableSet;
    use crate::grammar::GrammarBuilder;

    fn setup(build: impl FnOnce(&mut GrammarBuilder)) -> (Grammar, StableFrames) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let n = NullableSet::compute(&g);
        let sf = StableFrames::compute(&g, &n);
        (g, sf)
    }

    fn report(g: &Grammar, sf: &StableFrames, name: &str) -> Exploration {
        let x = g.symbols().lookup_nonterminal(name).unwrap();
        ClosureEngine::new(g, sf).explore(g.alternatives(x))
    }

    #[test]
    fn fig2_decision_is_conflict_free() {
        // Paper Fig. 2: S -> A c | A d is not LL(1), but SLL prediction
        // always resolves it (the c/d suffix separates the alternatives),
        // so the graph must be conflict-free despite the right recursion
        // in A (tail-call elision keeps it finite).
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
        assert!(r.states >= 2);
        // A shortest distinguishing prefix exists: e.g. "b c" resolves to
        // the first alternative after two tokens.
        let prefix = r.distinguishing_prefix.expect("fig2 S is resolvable");
        assert!(!prefix.is_empty());
    }

    #[test]
    fn genuinely_ambiguous_decision_conflicts() {
        // Paper Fig. 6: S -> X | Y; X -> a; Y -> a. Both alternatives
        // accept EOF after "a": the conflict state is reachable.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["X"]);
            gb.rule("S", &["Y"]);
            gb.rule("X", &["a"]);
            gb.rule("Y", &["a"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::Conflict, "{r:?}");
        assert_eq!(r.bound.k, None);
    }

    #[test]
    fn sll_context_merge_conflict_detected() {
        // The SLL-conflict grammar from the core prediction tests: merged
        // contexts let both X alternatives survive to EOF on "a a b".
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["p", "C1"]);
            gb.rule("S", &["q", "C2"]);
            gb.rule("C1", &["X", "b"]);
            gb.rule("C2", &["X", "a", "b"]);
            gb.rule("X", &["a", "a"]);
            gb.rule("X", &["a"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "X");
        assert_eq!(r.outcome, GraphOutcome::Conflict, "{r:?}");
        // The top-level S decision (p vs q) stays conflict-free.
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
    }

    #[test]
    fn left_recursion_is_bounded_not_safe() {
        let (g, sf) = setup(|gb| {
            gb.rule("E", &["E", "x"]);
            gb.rule("E", &["y"]);
            gb.start("E");
        });
        let r = report(&g, &sf, "E");
        assert_eq!(r.outcome, GraphOutcome::Bounded, "{r:?}");
        assert_eq!(r.bound.k, None);
    }

    #[test]
    fn pair_exploration_yields_distinguishing_prefix() {
        // Exploring just the fig2 S pair gives the shortest prefix after
        // which one alternative remains: one of "b c" / "b d" families —
        // the first resolved state in BFS order.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["A", "c"]);
            gb.rule("S", &["A", "d"]);
            gb.rule("A", &["a", "A"]);
            gb.rule("A", &["b"]);
            gb.start("S");
        });
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let alts = g.alternatives(s);
        let mut engine = ClosureEngine::new(&g, &sf);
        let prefix = engine
            .pair(alts[0], alts[1])
            .distinguishing_prefix
            .clone()
            .unwrap();
        // The prefix must end in the separating c or d.
        let last = *prefix.last().unwrap();
        let name = g.symbols().terminal_name(last);
        assert!(name == "c" || name == "d", "{name}");
        // The cached pair is the same exploration as a fresh one.
        assert_eq!(engine.pair(alts[0], alts[1]).clone(), engine.explore(alts));
    }

    #[test]
    fn right_recursion_stays_finite() {
        // rlist: S -> a S | e. Concrete simulated stacks grow with input
        // length; elision must keep the abstract graph small.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["a", "S"]);
            gb.rule("S", &["e"]);
            gb.start("S");
        });
        let r = report(&g, &sf, "S");
        assert_eq!(r.outcome, GraphOutcome::ConflictFree, "{r:?}");
        assert!(r.states <= 8, "expected a small graph, got {}", r.states);
    }

    #[test]
    fn memoized_closures_replay_identically() {
        // Survivors of the same word agree whether the engine is fresh or
        // has already memoized every closure on the way.
        let (g, sf) = setup(|gb| {
            gb.rule("S", &["a", "b", "c"]);
            gb.rule("S", &["a", "b", "d"]);
            gb.start("S");
        });
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let alts = g.alternatives(s);
        let a = g.symbols().lookup_terminal("a").unwrap();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let c = g.symbols().lookup_terminal("c").unwrap();
        let mut engine = ClosureEngine::new(&g, &sf);
        for _ in 0..2 {
            assert_eq!(engine.survivors(alts, &[a, b]).unwrap().len(), 2);
            assert_eq!(engine.survivors(alts, &[a, b, c]).unwrap(), vec![alts[0]]);
            assert!(engine.survivors(alts, &[b]).unwrap().is_empty());
        }
    }
}
