//! Output checks. Each compares an output of the program with a reference
//! the code under test did not produce: the source text itself, the token
//! word the parser was given, the Earley recognizer of `costar-baselines`,
//! or a sequential parse checked the same way.

use costar::ParseOutcome;
use costar_grammar::{Grammar, Token, Tree};

/// The tokens spell `source`: each spelled token is the source text at its
/// span, spans ascend without overlap, and only whitespace lies between
/// them (none of the bundled generators writes comments outside tokens).
/// Layout tokens with empty spellings (Python's INDENT, DEDENT, NEWLINE)
/// are skipped.
pub fn tokens_cover(source: &str, tokens: &[Token]) -> bool {
    let mut pos = 0;
    for t in tokens.iter().filter(|t| !t.lexeme().is_empty()) {
        let start = t.span().offset;
        let Some(gap) = source.get(pos..start) else {
            return false;
        };
        if !gap.chars().all(char::is_whitespace)
            || source.get(start..start + t.lexeme().len()) != Some(t.lexeme())
        {
            return false;
        }
        pos = start + t.lexeme().len();
    }
    source
        .get(pos..)
        .is_some_and(|rest| rest.chars().all(char::is_whitespace))
}

/// The outcome is a unique parse whose yield is exactly `tokens`.
pub fn unique_with_yield(outcome: &ParseOutcome, tokens: &[Token]) -> bool {
    matches!(outcome, ParseOutcome::Unique(t) if yield_is(t, tokens))
}

/// The tree's leaves, in order, are exactly `tokens` (kind, spelling, span).
pub fn yield_is(tree: &Tree, tokens: &[Token]) -> bool {
    tree.leaf_count() == tokens.len() && tree.yield_tokens() == tokens
}

/// Inputs the Earley recognizer checks in reasonable time. It has no Leo
/// optimization, so DOT's right-recursive statement lists cost it
/// quadratic time (about 8 s at 20k tokens); the other languages stay
/// linear (under 0.2 s at 20k tokens).
pub fn earley_affordable(lang: usize, tokens: usize) -> bool {
    lang != 2 || tokens <= 4000
}

/// The Earley recognizer agrees that `tokens` is (or is not) in the language.
pub fn earley_agrees(grammar: &Grammar, tokens: &[Token], accepted: bool) -> bool {
    costar_baselines::earley_recognize(grammar, tokens) == accepted
}

/// The leaf lines of `costar parse --tree` output spell `tokens`, in order.
/// A leaf line is `<indent><terminal> <lexeme as a Rust debug string>`; an
/// interior line is a bare nonterminal name.
pub fn rendered_leaves_match(rendered: &str, tokens: &[Token]) -> bool {
    let mut expected = tokens.iter();
    for line in rendered.lines().skip(1) {
        let Some((_, lexeme)) = line.trim_start().split_once(' ') else {
            continue;
        };
        match expected.next() {
            Some(t) if *lexeme == format!("{:?}", t.lexeme()) => {}
            _ => return false,
        }
    }
    expected.next().is_none()
}

/// A digest of an outcome: its verdict and, for an accepted word, every
/// node of its tree (nonterminal, or terminal and span of a leaf). It lets
/// many results be compared with one reference without keeping every tree
/// alive; the walk is iterative, so deep trees cannot overflow the stack.
pub fn outcome_digest(outcome: &ParseOutcome) -> u64 {
    let (tag, tree) = match outcome {
        ParseOutcome::Unique(t) => (1, Some(t)),
        ParseOutcome::Ambig(t) => (2, Some(t)),
        ParseOutcome::Reject(_) => (3, None),
        ParseOutcome::Error(_) => (4, None),
        ParseOutcome::Aborted(_) => (5, None),
    };
    let mut h = Mix(tag);
    let mut stack: Vec<&Tree> = tree.into_iter().collect();
    while let Some(t) = stack.pop() {
        match t {
            Tree::Leaf(tok) => {
                h.add(tok.terminal().index() as u64);
                h.add(tok.span().offset as u64);
                h.add(tok.lexeme().len() as u64);
            }
            Tree::Node(x, children) => {
                h.add(!(x.index() as u64));
                h.add(children.len() as u64);
                stack.extend(children.iter().rev());
            }
            Tree::Error(e) => h.add(u64::MAX - e.skipped.len() as u64),
        }
    }
    h.0
}

/// A 64-bit multiply-xorshift accumulator.
struct Mix(u64);

impl Mix {
    fn add(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

/// A copy of `source` with its first letter or digit changed: a wrong
/// reference, for showing that the checks count what they should.
pub fn tampered(source: &str) -> String {
    let mut s = source.to_owned();
    if let Some(i) = s.find(|c: char| c.is_ascii_alphanumeric()) {
        let c = if s.as_bytes()[i] == b'q' { "z" } else { "q" };
        s.replace_range(i..i + 1, c);
    }
    s
}
