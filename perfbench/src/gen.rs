//! Seeded inputs: the four bundled languages, source files of a nominal
//! token size, and single-token edit scripts.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed see byte-identical inputs (see [`Fingerprint`]).

use costar_grammar::{Terminal, Token};
use costar_langs::{dot, json, python, xml, Generator, Language};
use costar_lexer::Edit;

/// Metric-name suffixes of the bundled languages, in `all_languages()` order.
pub const LANGS: [&str; 4] = ["json", "xml", "dot", "python"];

/// Average tokens per unit of a generator's size knob, measured once on
/// the bundled generators; used to aim a file at a token count.
const TOKENS_PER_KNOB: [f64; 4] = [2.55, 1.08, 1.0, 0.94];

/// Builds language `lang` (an index into [`LANGS`]) on its own, the way
/// `<lang>::language()` does.
pub fn build(lang: usize) -> Language {
    match lang {
        0 => json::language(),
        1 => xml::language(),
        2 => dot::language(),
        _ => python::language(),
    }
}

/// The EBNF source `build` compiles.
pub fn grammar_src(lang: usize) -> &'static str {
    match lang {
        0 => json::GRAMMAR,
        1 => xml::GRAMMAR,
        2 => dot::GRAMMAR,
        _ => python::GRAMMAR,
    }
}

pub fn generator(lang: usize) -> Generator {
    match lang {
        0 => json::generate,
        1 => xml::generate,
        2 => dot::generate,
        _ => python::generate,
    }
}

/// The size knob that aims a file of language `lang` at `tokens` tokens.
pub fn knob_for(lang: usize, tokens: usize) -> usize {
    ((tokens as f64 / TOKENS_PER_KNOB[lang]).round() as usize).max(1)
}

/// SplitMix64: a small, seedable generator whose stream is fixed by this
/// file, so inputs do not depend on any library's RNG version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F87D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of byte strings; folded to 32 bits so it is
/// exact when printed as a JSON number.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

/// One generated source file.
#[derive(Debug, Clone)]
pub struct Input {
    pub lang: usize,
    pub source: String,
}

/// A file of language `lang` aimed at `tokens` tokens: generated once at
/// the nominal size knob, then again from the same seed with the knob
/// scaled by how far the first try missed, so that files of one nominal
/// size vary little in token count from seed to seed.
pub fn sized_file(rng: &mut Rng, lang: usize, language: &Language, tokens: usize) -> Input {
    let seed = rng.next_u64();
    let knob = knob_for(lang, tokens);
    let got = language
        .tokenize(&generator(lang)(seed, knob))
        .map_or(0, |t| t.len());
    let knob = if got == 0 {
        knob
    } else {
        ((knob as f64 * tokens as f64 / got as f64).round() as usize).max(1)
    };
    Input {
        lang,
        source: generator(lang)(seed, knob),
    }
}

/// `n` files of language `lang` near `tokens` tokens each.
pub fn files(
    rng: &mut Rng,
    lang: usize,
    language: &Language,
    n: usize,
    tokens: usize,
) -> Vec<Input> {
    (0..n)
        .map(|_| sized_file(rng, lang, language, tokens))
        .collect()
}

/// `n` files of language `lang` with sizes spread evenly over `lo..=hi`
/// tokens.
pub fn files_in_range(
    rng: &mut Rng,
    lang: usize,
    language: &Language,
    n: usize,
    lo: usize,
    hi: usize,
) -> Vec<Input> {
    (0..n)
        .map(|f| sized_file(rng, lang, language, lo + (hi - lo) * (2 * f + 1) / (2 * n)))
        .collect()
}

/// Terminals whose deletion always unbalances the input: closing brackets,
/// and XML's `/` (which turns a closing or self-closing tag into an
/// opening one).
fn is_closer(lang: usize, name: &str) -> bool {
    matches!(name, "}" | "]" | ")") || (lang == 1 && name == "/")
}

/// One edit of a script, with the state it leaves the document in.
#[derive(Debug, Clone)]
pub struct ScriptedEdit {
    pub edit: Edit,
    /// `true` when the edit leaves the text outside the language (it
    /// deleted a closing token).
    pub broken: bool,
}

/// A script of `len` single-token edits over `source`, whose token
/// spans are `tokens`.
///
/// Every `100 / break_percent`-th edit deletes a closing token and the
/// next edit puts it back, so the session passes through an error state.
/// Recovery cost depends on where the error is (on DOT, an error at a line
/// end costs time in proportion to the text after it), so the breaks follow
/// one fixed, evenly spread pattern on every seed's document:
/// - the number of breaks at a line end is the document's own share of
///   closers there times the script's breaks, rounded, and those breaks are
///   spread evenly over the script. Rounding the count keeps it the same on
///   documents whose shares differ a little (DOT: 2 of a 120-edit script's
///   6 breaks for every share from 0.25 to 0.41);
/// - within each of the two groups, the breaks walk a golden-ratio sequence
///   of fractions of the text, each deleting the group's first closer at or
///   after that fraction (or its last closer), so that a break sits at
///   nearly the same place in the text on every seed's document.
///
/// The seed varies the document and the other edits: retypes of a token
/// unchanged (`retype_percent` of them) and renames.
#[allow(clippy::too_many_arguments)]
pub fn edit_script(
    rng: &mut Rng,
    lang_index: usize,
    lang: &Language,
    source: &str,
    tokens: &[Token],
    len: usize,
    break_percent: u64,
    retype_percent: u64,
) -> Vec<ScriptedEdit> {
    let symbols = lang.grammar().symbols();
    // (start, end, terminal) of every token with a spelling, in order.
    let mut spans: Vec<(usize, usize, usize)> = tokens
        .iter()
        .filter(|t| !t.lexeme().is_empty())
        .map(|t| {
            let o = t.span().offset;
            (o, o + t.lexeme().len(), t.terminal().index())
        })
        .collect();
    let mut text = source.to_owned();
    // Terminals with more than one spelling, and the spellings seen.
    let mut spellings: std::collections::BTreeMap<usize, Vec<String>> = Default::default();
    for &(s, e, k) in &spans {
        let v = spellings.entry(k).or_default();
        if v.len() < 64 && !v.iter().any(|x| x == &text[s..e]) {
            v.push(text[s..e].to_owned());
        }
    }
    spellings.retain(|_, v| v.len() > 1);
    // Ranks (among spelled tokens) of the closing tokens in document order,
    // split by whether the closer ends its line.
    let mut closers: [Vec<usize>; 2] = Default::default();
    for (rank, &(_, e, k)) in spans.iter().enumerate() {
        if is_closer(lang_index, symbols.terminal_name(Terminal::from_index(k))) {
            let ends_line = text[e..]
                .trim_start_matches([' ', '\t', '\r'])
                .starts_with('\n');
            closers[usize::from(ends_line)].push(rank);
        }
    }
    let period = (100 / break_percent.max(1)).max(2) as usize;
    let due = |at: usize| at % period == period / 2 && at + 2 <= len;
    let total = closers[0].len() + closers[1].len();
    // Which breaks, in script order, delete a closer at a line end.
    let mut at_line_end = vec![false; (0..len).filter(|&at| due(at)).count()];
    if total > 0 {
        let n = at_line_end.len();
        let k = (n as f64 * closers[1].len() as f64 / total as f64).round() as usize;
        for j in 0..k {
            at_line_end[(2 * j + 1) * n / (2 * k)] = true;
        }
    }

    let mut spread = [0.0f64; 2];
    let mut breaks = at_line_end.into_iter();
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        let at_line_end = if total > 0 && due(script.len()) {
            breaks.next()
        } else {
            None
        };
        if let Some(at_line_end) = at_line_end {
            let group = usize::from(at_line_end);
            spread[group] = (spread[group] + 0.618_033_988_749_895).fract();
            let c = &closers[group];
            let at = (spread[group] * text.len() as f64) as usize;
            let rank = c[c.partition_point(|&r| spans[r].0 < at).min(c.len() - 1)];
            let (s, e, _) = spans[rank];
            let deleted = text[s..e].to_owned();
            // The deleted token keeps a zero-width slot until its repair.
            apply(&mut text, &mut spans, s..e, "");
            script.push(ScriptedEdit {
                edit: Edit::new(s..e, ""),
                broken: true,
            });
            apply(&mut text, &mut spans, s..s, &deleted);
            script.push(ScriptedEdit {
                edit: Edit::new(s..s, deleted),
                broken: false,
            });
            continue;
        }
        let edit = benign(rng, &mut text, &mut spans, &spellings, retype_percent);
        script.push(ScriptedEdit {
            edit,
            broken: false,
        });
    }
    script
}

/// A rename or retype of a spelled token.
fn benign(
    rng: &mut Rng,
    text: &mut String,
    spans: &mut [(usize, usize, usize)],
    spellings: &std::collections::BTreeMap<usize, Vec<String>>,
    retype_percent: u64,
) -> Edit {
    let retype = rng.chance(retype_percent);
    let eligible = |sp: &(usize, usize, usize)| retype || spellings.contains_key(&sp.2);
    // Draw until an eligible token comes up; after a bounded number of
    // draws, retype the first token.
    let i = (0..64)
        .map(|_| rng.below(spans.len()))
        .find(|&i| eligible(&spans[i]))
        .unwrap_or(0);
    let (s, e, k) = spans[i];
    let current = &text[s..e];
    let replacement = match spellings.get(&k) {
        Some(options) if !retype => {
            let pick = rng.below(options.len());
            let r = &options[pick];
            // Never draw the current spelling: a rename changes the text.
            if r == current {
                &options[(pick + 1) % options.len()]
            } else {
                r
            }
            .clone()
        }
        _ => current.to_owned(),
    };
    apply(text, spans, s..e, &replacement);
    Edit::new(s..e, replacement)
}

/// Applies an edit to `text` and rebases the token spans after it. The
/// replaced token keeps its slot: a deleted one becomes zero-width until
/// an insertion at its offset fills it again.
fn apply(
    text: &mut String,
    spans: &mut [(usize, usize, usize)],
    range: std::ops::Range<usize>,
    with: &str,
) {
    let delta = with.len() as isize - range.len() as isize;
    text.replace_range(range.clone(), with);
    let shift = |x: usize| (x as isize + delta) as usize;
    for sp in spans.iter_mut() {
        if sp.0 == range.start && sp.1 == range.end {
            sp.1 = range.start + with.len();
        } else if sp.0 >= range.end {
            sp.0 = shift(sp.0);
            sp.1 = shift(sp.1);
        }
    }
}
