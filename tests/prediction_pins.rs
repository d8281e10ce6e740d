//! Pinned prediction behaviour of `Parser::parse_recovering` on the four
//! bundled languages.
//!
//! Every row is a seeded generated document in one of three variants:
//! clean, with a closer deleted mid-line, and with a closer deleted at a
//! line end (the break that leaves a right-recursive list open until the
//! end of the input). For each, the test pins literal values of
//! everything a change to the prediction *engine* must leave alone: a
//! digest of the outcome and tree, a digest of the diagnostics, the
//! machine and prediction step counts, how decisions were resolved, the
//! number of cache lookups, and the lookahead-depth histogram.
//!
//! Deliberately *not* pinned: `closure_steps`, `cache_hits` and
//! `cache_misses`. They measure how much work prediction did and how well
//! its DFA cache was reused, which an optimization of the simulated
//! stacks is expected to change.
//!
//! A scaling guard bounds that work instead: on a DOT document whose
//! subgraph is never closed, the SLL cache must not grow with the number
//! of statements after the break.

use costar::{ParseMetrics, Parser, RecoveredParse};
use costar_grammar::Token;
use costar_langs::language;

/// Lexemes that close a bracketed construct in at least one bundled
/// language.
const CLOSERS: &[&str] = &["}", "]", ")", ">", "/>"];

/// FNV-1a over the bytes of `s`: a stable digest for pinning.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The index of the first closer token starting at or after `from_pct`
/// percent of the source bytes for which `at_line_end` matches whether a
/// newline (or the end of the text) follows it.
fn find_closer(src: &str, word: &[Token], from_pct: usize, at_line_end: bool) -> Option<usize> {
    let from = src.len() * from_pct / 100;
    word.iter().position(|t| {
        let end = t.span().offset + t.span().len;
        let ends_line = matches!(src.as_bytes().get(end), None | Some(b'\n'));
        t.offset() >= from && CLOSERS.contains(&t.lexeme()) && ends_line == at_line_end
    })
}

/// The three variants of a tokenized document: clean, a closer deleted
/// mid-line (first at or after 40% of the bytes), and a closer deleted at
/// a line end (first at or after 24%).
fn variants(src: &str, word: &[Token]) -> Vec<(&'static str, Vec<Token>)> {
    let delete = |i: usize| {
        let mut w = word.to_vec();
        w.remove(i);
        w
    };
    let mut out = vec![("clean", word.to_vec())];
    if let Some(i) = find_closer(src, word, 40, false) {
        out.push(("mid_line", delete(i)));
    }
    if let Some(i) = find_closer(src, word, 24, true) {
        out.push(("line_end", delete(i)));
    }
    out
}

/// The pinned observation of one recovering parse.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    case: (&'static str, u64, &'static str),
    outcome: u64,
    diagnostics: (usize, u64),
    machine_steps: u64,
    prediction_steps: u64,
    sll_resolved: u64,
    failovers: u64,
    cache_lookups: u64,
    lookahead: (u64, u64, u64, u64),
}

fn observe(case: (&'static str, u64, &'static str), r: &RecoveredParse, m: &ParseMetrics) -> Pin {
    let diags: Vec<String> = r.diagnostics.iter().map(|d| format!("{d:?}")).collect();
    let h = &m.lookahead_depth;
    Pin {
        case,
        outcome: fnv(&format!("{:?}|{:?}", r.outcome, r.tree())),
        diagnostics: (r.diagnostics.len(), fnv(&diags.join("\n"))),
        machine_steps: m.machine_steps,
        prediction_steps: m.prediction_steps,
        sll_resolved: m.sll_resolved,
        failovers: m.failovers,
        cache_lookups: m.cache_lookups,
        lookahead: (h.count(), h.sum(), h.max(), fnv(&format!("{h:?}"))),
    }
}

/// Languages, seeds and sizes of the pinned documents.
const DOCS: &[(&str, u64, usize)] = &[
    ("json", 3, 300),
    ("json", 11, 300),
    ("xml", 3, 300),
    ("xml", 11, 300),
    ("dot", 3, 300),
    ("dot", 11, 300),
    ("dot", 7, 1500),
    ("python", 3, 300),
    ("python", 11, 300),
];

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: ("json", 3, "clean"), outcome: 1032726582195481654, diagnostics: (0, 14695981039346656037), machine_steps: 2372, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("json", 3, "mid_line"), outcome: 11053958276165307122, diagnostics: (15, 18287888993434595814), machine_steps: 1181, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("json", 3, "line_end"), outcome: 15932173968592513692, diagnostics: (1, 1366638442150863543), machine_steps: 2369, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("json", 11, "clean"), outcome: 16535457080020239610, diagnostics: (0, 14695981039346656037), machine_steps: 2386, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("json", 11, "mid_line"), outcome: 13224267803644858035, diagnostics: (17, 5315698422667583968), machine_steps: 1295, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("json", 11, "line_end"), outcome: 7640500667803206021, diagnostics: (1, 252276053168498639), machine_steps: 2383, prediction_steps: 0, sll_resolved: 0, failovers: 0, cache_lookups: 0, lookahead: (0, 0, 0, 403780671062623122) },
    Pin { case: ("xml", 3, "clean"), outcome: 4630182064796160302, diagnostics: (0, 14695981039346656037), machine_steps: 1010, prediction_steps: 346, sll_resolved: 101, failovers: 0, cache_lookups: 346, lookahead: (101, 346, 15, 1604800479198900480) },
    Pin { case: ("xml", 3, "mid_line"), outcome: 2761800033893903903, diagnostics: (1, 13837672630453738358), machine_steps: 1008, prediction_steps: 346, sll_resolved: 101, failovers: 0, cache_lookups: 346, lookahead: (101, 346, 15, 1604800479198900480) },
    Pin { case: ("xml", 3, "line_end"), outcome: 2780998319509155613, diagnostics: (1, 11692998541012498006), machine_steps: 1008, prediction_steps: 346, sll_resolved: 101, failovers: 0, cache_lookups: 346, lookahead: (101, 346, 15, 1604800479198900480) },
    Pin { case: ("xml", 11, "clean"), outcome: 17928768458779089078, diagnostics: (0, 14695981039346656037), machine_steps: 994, prediction_steps: 352, sll_resolved: 86, failovers: 0, cache_lookups: 352, lookahead: (86, 352, 15, 17652318738507447550) },
    Pin { case: ("xml", 11, "mid_line"), outcome: 18261282793786104858, diagnostics: (8, 12693822342238925248), machine_steps: 973, prediction_steps: 356, sll_resolved: 92, failovers: 0, cache_lookups: 356, lookahead: (92, 356, 15, 16204868148238610162) },
    Pin { case: ("xml", 11, "line_end"), outcome: 1725098888884584147, diagnostics: (1, 10088582940675592926), machine_steps: 992, prediction_steps: 352, sll_resolved: 86, failovers: 0, cache_lookups: 352, lookahead: (86, 352, 15, 17652318738507447550) },
    Pin { case: ("dot", 3, "clean"), outcome: 7331724516674398702, diagnostics: (0, 14695981039346656037), machine_steps: 2403, prediction_steps: 168, sll_resolved: 48, failovers: 0, cache_lookups: 168, lookahead: (48, 168, 17, 9456629461291318910) },
    Pin { case: ("dot", 3, "mid_line"), outcome: 4516641743553498271, diagnostics: (1, 7367416778338549778), machine_steps: 2386, prediction_steps: 168, sll_resolved: 48, failovers: 0, cache_lookups: 168, lookahead: (48, 168, 17, 9456629461291318910) },
    Pin { case: ("dot", 3, "line_end"), outcome: 10990398960900956294, diagnostics: (2, 1619401075715305801), machine_steps: 2400, prediction_steps: 621, sll_resolved: 50, failovers: 0, cache_lookups: 619, lookahead: (50, 621, 233, 11902645889305007929) },
    Pin { case: ("dot", 11, "clean"), outcome: 14889159830100694434, diagnostics: (0, 14695981039346656037), machine_steps: 2323, prediction_steps: 122, sll_resolved: 38, failovers: 0, cache_lookups: 122, lookahead: (38, 122, 17, 13563491957544308367) },
    Pin { case: ("dot", 11, "mid_line"), outcome: 11169364824469526254, diagnostics: (1, 1265016968459639642), machine_steps: 2306, prediction_steps: 122, sll_resolved: 38, failovers: 0, cache_lookups: 122, lookahead: (38, 122, 17, 13563491957544308367) },
    Pin { case: ("dot", 11, "line_end"), outcome: 5994465876174726175, diagnostics: (2, 2490088358163748257), machine_steps: 2320, prediction_steps: 543, sll_resolved: 40, failovers: 0, cache_lookups: 541, lookahead: (40, 543, 217, 7742974456000417185) },
    Pin { case: ("dot", 7, "clean"), outcome: 11222950422579993054, diagnostics: (0, 14695981039346656037), machine_steps: 11762, prediction_steps: 771, sll_resolved: 216, failovers: 0, cache_lookups: 771, lookahead: (216, 771, 17, 363174428958689935) },
    Pin { case: ("dot", 7, "mid_line"), outcome: 13875248827101164925, diagnostics: (1, 9550976857899070154), machine_steps: 11745, prediction_steps: 771, sll_resolved: 216, failovers: 0, cache_lookups: 771, lookahead: (216, 771, 17, 363174428958689935) },
    Pin { case: ("dot", 7, "line_end"), outcome: 9561483604019666749, diagnostics: (2, 4600807132312821513), machine_steps: 11759, prediction_steps: 3030, sll_resolved: 218, failovers: 0, cache_lookups: 3028, lookahead: (218, 3030, 1136, 15772957345019031293) },
    Pin { case: ("python", 3, "clean"), outcome: 8222895235245684662, diagnostics: (0, 14695981039346656037), machine_steps: 5815, prediction_steps: 39, sll_resolved: 36, failovers: 0, cache_lookups: 39, lookahead: (36, 39, 2, 15411000072144453610) },
    Pin { case: ("python", 3, "mid_line"), outcome: 11119447267793005724, diagnostics: (1, 1812901307446080028), machine_steps: 5762, prediction_steps: 38, sll_resolved: 35, failovers: 0, cache_lookups: 38, lookahead: (35, 38, 2, 10941588353599237671) },
    Pin { case: ("python", 3, "line_end"), outcome: 4215126571720433398, diagnostics: (1, 1812901307446080028), machine_steps: 5762, prediction_steps: 38, sll_resolved: 35, failovers: 0, cache_lookups: 38, lookahead: (35, 38, 2, 10941588353599237671) },
    Pin { case: ("python", 11, "clean"), outcome: 11775834017948017256, diagnostics: (0, 14695981039346656037), machine_steps: 5684, prediction_steps: 41, sll_resolved: 36, failovers: 0, cache_lookups: 41, lookahead: (36, 41, 2, 9316457283395759293) },
    Pin { case: ("python", 11, "mid_line"), outcome: 15377551672752409017, diagnostics: (1, 3224017892205855483), machine_steps: 5630, prediction_steps: 40, sll_resolved: 35, failovers: 0, cache_lookups: 40, lookahead: (35, 40, 2, 12031233182676426732) },
    Pin { case: ("python", 11, "line_end"), outcome: 13892326118420432420, diagnostics: (1, 266673746204344211), machine_steps: 5624, prediction_steps: 40, sll_resolved: 35, failovers: 0, cache_lookups: 40, lookahead: (35, 40, 2, 12031233182676426732) },
];

#[test]
fn recovering_parses_match_their_pins() {
    let mut actual = Vec::new();
    for &(name, seed, size) in DOCS {
        let (lang, generate) = language(name).expect("bundled language");
        let src = generate(seed, size);
        let mut parser = Parser::new(lang.grammar().clone());
        let clean = lang.tokenize(&src).expect("generated text lexes");
        for (variant, word) in variants(&src, &clean) {
            let (recovered, metrics) = parser.parse_recovering_with_metrics(&word);
            actual.push(observe((name, seed, variant), &recovered, &metrics));
        }
    }
    let rows: Vec<String> = actual.iter().map(|p| format!("    {p:?},")).collect();
    assert_eq!(
        actual.len(),
        PINS.len(),
        "pinned case count differs; actual rows:\n{}",
        rows.join("\n")
    );
    for (a, p) in actual.iter().zip(PINS) {
        assert_eq!(a, p, "pin mismatch; actual rows:\n{}", rows.join("\n"));
    }
}

/// A DOT graph whose `subgraph {` is never closed, followed by
/// `statements` edge statements: the final `}` closes the subgraph and
/// leaves the graph open, so predictions inside it read to the end of the
/// input.
fn unclosed_subgraph(statements: usize) -> String {
    let mut src = String::from("digraph g {\n  subgraph {\n");
    for i in 0..statements {
        src.push_str(&format!("  n{i} -> n{};\n", i + 1));
    }
    src.push_str("}\n");
    src
}

#[test]
fn unclosed_subgraph_cache_does_not_grow_with_the_document() {
    let (lang, _) = language("dot").expect("bundled language");
    let mut parser = Parser::new(lang.grammar().clone());
    let mut states = |statements: usize| {
        let src = unclosed_subgraph(statements);
        let word = lang.tokenize(&src).expect("generated text lexes");
        let recovered = parser.parse_recovering(&word);
        assert!(!recovered.diagnostics.is_empty(), "the document is broken");
        parser.cache_stats().states
    };
    let (small, large) = (states(100), states(2_000));
    assert_eq!(
        small, large,
        "SLL cache states grew from {small} at 100 statements to {large} at 2,000"
    );
}
