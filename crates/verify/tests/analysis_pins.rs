//! Byte-exact pins of the serialized grammar analysis.
//!
//! `to_cache_json` serializes every analysis result — decision table,
//! stable frames, the audit certificate, the cost certificate — so a
//! change to any of them shows up here as a different length or hash.
//! The pins cover the four bundled languages and every template grammar
//! the proof harnesses range over. A refactor of the analysis engines
//! must keep them byte-identical; a deliberate change of an analysis
//! result must update them in the same change, with the reason.

use costar_grammar::analysis::{to_cache_json, GrammarAnalysis};
use costar_grammar::Grammar;
use costar_verify::grammars;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(byte length, FNV-1a-64)` of the grammar's serialized analysis.
fn pin(g: &Grammar) -> (usize, String) {
    let json = to_cache_json(g, &GrammarAnalysis::compute(g));
    (json.len(), format!("{:016x}", fnv1a64(json.as_bytes())))
}

fn check(name: &str, g: &Grammar, len: usize, hash: &str) {
    let (got_len, got_hash) = pin(g);
    assert_eq!(
        (got_len, got_hash.as_str()),
        (len, hash),
        "{name}: serialized analysis changed"
    );
}

#[test]
fn bundled_language_analyses_are_pinned() {
    let pins = [
        ("JSON", 3629, "26aa3d603c4baa3a"),
        ("XML", 4787, "dc3b8681a8e69a8f"),
        ("DOT", 13904, "f2f83afc75e444d9"),
        ("Python", 114719, "2d52014cc630a3ab"),
    ];
    let langs = costar_langs::all_languages();
    assert_eq!(langs.len(), pins.len());
    for ((lang, _), (name, len, hash)) in langs.iter().zip(pins) {
        assert_eq!(lang.name, name);
        check(name, lang.grammar(), len, hash);
    }
}

#[test]
fn template_grammar_analyses_are_pinned() {
    let pins = [
        ("fig2", 1169, "edd589da71841479"),
        ("nullable", 1169, "94e4aea1065438e2"),
        ("ambig", 1028, "7941c4b046674747"),
        ("sll-conflict", 1290, "df6ae29808007b84"),
        ("rlist", 861, "7cb604b3e06bdf23"),
    ];
    let family = grammars::templates();
    assert_eq!(family.len(), pins.len());
    for (t, (name, len, hash)) in family.iter().zip(pins) {
        assert_eq!(t.name, name);
        check(name, &t.grammar, len, hash);
    }
}
