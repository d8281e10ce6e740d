//! Rendering grammars back to readable text (for `check --eliminate-lr`).

use costar::{ParseError, RejectReason};
use costar_grammar::lint::json_string;
use costar_grammar::{Grammar, Span, Symbol};

/// Renders a span suffix (" (line L, column C)") when the tokens carried
/// source positions; empty otherwise.
fn loc(span: &Span) -> String {
    if span.has_position() {
        format!(" ({span})")
    } else {
        String::new()
    }
}

/// Renders a rejection with symbol names resolved through the grammar's
/// table (the library's `Display` impls cannot see the table, so they
/// print raw indices), locating the error by source line/column when the
/// input tokens carried positions.
pub fn describe_reject(g: &Grammar, reason: &RejectReason) -> String {
    let t = |term: costar_grammar::Terminal| g.symbols().terminal_name(term).to_owned();
    match reason {
        RejectReason::TokenMismatch {
            at,
            span,
            expected,
            found,
        } => format!(
            "token {at}{}: expected {}, found {}",
            loc(span),
            t(*expected),
            t(*found)
        ),
        RejectReason::UnexpectedEnd { span, expected, .. } => {
            format!(
                "unexpected end of input{}: expected {}",
                loc(span),
                t(*expected)
            )
        }
        RejectReason::TrailingInput { at, span } => {
            format!("trailing input starting at token {at}{}", loc(span))
        }
        RejectReason::NoViableAlternative {
            at,
            span,
            nonterminal,
        } => format!(
            "token {at}{}: no viable alternative for {}",
            loc(span),
            g.symbols().nonterminal_name(*nonterminal)
        ),
    }
}

/// Renders one recovery diagnostic: the rejection (with names and source
/// position), the expected-token set, and what the recovery skipped.
pub fn describe_diagnostic(g: &Grammar, d: &costar::Diagnostic) -> String {
    let mut out = describe_reject(g, &d.reason);
    if !d.expected.is_empty() {
        let names: Vec<&str> = d
            .expected
            .iter()
            .map(|t| g.symbols().terminal_name(*t))
            .collect();
        // The singleton case is already spelled out by describe_reject.
        if d.expected.len() > 1 {
            out.push_str(&format!(" (expected one of: {})", names.join(", ")));
        }
    }
    if d.skipped > 0 {
        out.push_str(&format!(
            "; skipped {} token{}",
            d.skipped,
            if d.skipped == 1 { "" } else { "s" }
        ));
    }
    if d.popped > 0 {
        out.push_str(&format!(
            "; abandoned {} open production{}",
            d.popped,
            if d.popped == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Serializes a recovered parse as one machine-readable JSON object for
/// `--recover=json`.
pub fn recovery_report_json(g: &Grammar, r: &costar::RecoveredParse, num_tokens: usize) -> String {
    let outcome = match &r.outcome {
        costar::ParseOutcome::Unique(_) | costar::ParseOutcome::Ambig(_) => "clean",
        costar::ParseOutcome::Reject(_) => "recovered",
        costar::ParseOutcome::Error(_) => "error",
        costar::ParseOutcome::Aborted(_) => "aborted",
    };
    let skipped: usize = r.diagnostics.iter().map(|d| d.skipped).sum();
    let mut out = format!(
        "{{\"outcome\":\"{outcome}\",\"tokens\":{num_tokens},\"errors\":{},\"tokens_skipped\":{skipped},\"diagnostics\":[",
        r.diagnostics.len()
    );
    for (i, d) in r.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (line, col) = if d.span.has_position() {
            (d.span.line.to_string(), d.span.col.to_string())
        } else {
            ("null".to_owned(), "null".to_owned())
        };
        let expected: Vec<String> = d
            .expected
            .iter()
            .map(|t| json_string(g.symbols().terminal_name(*t)))
            .collect();
        out.push_str(&format!(
            "{{\"at\":{},\"line\":{line},\"col\":{col},\"message\":{},\"expected\":[{}],\"skipped\":{},\"popped\":{}}}",
            d.at,
            json_string(&describe_reject(g, &d.reason)),
            expected.join(","),
            d.skipped,
            d.popped
        ));
    }
    out.push_str("]}");
    out
}

/// Renders a parser error with symbol names resolved.
pub fn describe_error(g: &Grammar, error: &ParseError) -> String {
    match error {
        ParseError::LeftRecursive(x) => format!(
            "grammar nonterminal {} is left-recursive",
            g.symbols().nonterminal_name(*x)
        ),
        other => other.to_string(),
    }
}

/// Renders a grammar as one `lhs : alt | alt ;` block per nonterminal, in
/// the EBNF-ish notation of `costar-ebnf`. Terminal names that are not
/// plain uppercase-leading identifiers are quoted.
pub fn render_grammar(g: &Grammar) -> String {
    let symbols = g.symbols();
    let mut out = String::new();
    for x in symbols.nonterminals() {
        let alts = g.alternatives(x);
        if alts.is_empty() {
            continue;
        }
        let mut line = format!("{} :", symbols.nonterminal_name(x));
        for (i, &pid) in alts.iter().enumerate() {
            if i > 0 {
                line.push_str(" |");
            }
            let rhs = g.production(pid).rhs();
            if rhs.is_empty() {
                line.push_str(" /* empty */");
            }
            for &s in rhs {
                line.push(' ');
                match s {
                    Symbol::Nt(y) => line.push_str(symbols.nonterminal_name(y)),
                    Symbol::T(t) => {
                        let name = symbols.terminal_name(t);
                        if is_token_type_name(name) {
                            line.push_str(name);
                        } else {
                            line.push('\'');
                            for c in name.chars() {
                                if c == '\'' || c == '\\' {
                                    line.push('\\');
                                }
                                line.push(c);
                            }
                            line.push('\'');
                        }
                    }
                }
            }
        }
        line.push_str(" ;\n");
        out.push_str(&line);
    }
    out
}

/// Can this terminal name appear bare in the EBNF notation (uppercase
/// identifier)?
fn is_token_type_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_uppercase())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::GrammarBuilder;

    #[test]
    fn reject_descriptions_use_names() {
        let mut gb = GrammarBuilder::new();
        gb.rule("stmt", &["If", "Then"]);
        let g = gb.start("stmt").build().unwrap();
        let if_t = g.symbols().lookup_terminal("If").unwrap();
        let then_t = g.symbols().lookup_terminal("Then").unwrap();
        let msg = describe_reject(
            &g,
            &costar::RejectReason::TokenMismatch {
                at: 1,
                span: Span::default(),
                expected: then_t,
                found: if_t,
            },
        );
        assert_eq!(msg, "token 1: expected Then, found If");
        let msg = describe_reject(
            &g,
            &costar::RejectReason::TokenMismatch {
                at: 1,
                span: Span::new(10, 2, 2, 7),
                expected: then_t,
                found: if_t,
            },
        );
        assert_eq!(msg, "token 1 (line 2, column 7): expected Then, found If");
        let stmt = g.symbols().lookup_nonterminal("stmt").unwrap();
        let msg = describe_error(&g, &costar::ParseError::LeftRecursive(stmt));
        assert!(msg.contains("stmt"));
    }

    #[test]
    fn renders_productions_grouped_by_lhs() {
        let mut gb = GrammarBuilder::new();
        gb.rule("s", &["Num", "s"]);
        gb.rule("s", &[]);
        let g = gb.start("s").build().unwrap();
        let text = render_grammar(&g);
        assert_eq!(text, "s : Num s | /* empty */ ;\n");
    }

    #[test]
    fn quotes_punctuation_terminals() {
        let mut gb = GrammarBuilder::new();
        gb.rule("s", &["{", "}", "don't"]);
        let g = gb.start("s").build().unwrap();
        let text = render_grammar(&g);
        assert!(text.contains("'{' '}'"));
        assert!(text.contains(r"'don\'t'"));
    }

    #[test]
    fn rewritten_grammar_renders() {
        let mut gb = GrammarBuilder::new();
        gb.rule("e", &["e", "Plus", "Num"]);
        gb.rule("e", &["Num"]);
        let g = gb.start("e").build().unwrap();
        let r = costar_grammar::transform::eliminate_left_recursion(&g).unwrap();
        let text = render_grammar(&r);
        assert!(text.contains("e :"));
        assert!(text.contains("__lr"));
    }
}
