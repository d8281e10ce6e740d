//! Spans recorded by the benchmark around its calls into the program.
//!
//! Spans live in memory while a run measures and are written out when it
//! ends. A span's self time is its duration minus the time its child spans
//! cover; an operation's root span has the harness's own share of the
//! operation as its self time, which is the reconciliation residual.

use std::fmt::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    /// The workload's timed loop, and the checks of its outputs.
    Loop,
    /// The fixed set of calls that ends every traced run, so each layer
    /// is measured on every workload.
    Sweep,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub lang: Option<usize>,
    pub phase: Phase,
    /// Operation id: spans of one loop operation share it; 0 outside one.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done by the call, in the unit its layer counts (tokens,
    /// bytes, ...); 0 when the layer counts nothing.
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise each call runs its closure and
/// nothing else.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub phase: Phase,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            phase: Phase::Setup,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        lang: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.span_counted(name, lang, |t| (f(t), 0)).0
    }

    /// Like [`Tracer::span`], with `f` also returning the work the call did.
    pub fn span_counted<R>(
        &mut self,
        name: &'static str,
        lang: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> (R, u64) {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            lang,
            phase: self.phase,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            work: 0,
        });
        self.open.push(idx);
        let (r, work) = f(self);
        self.open.pop();
        let end = self.now();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.work = work;
        (r, work)
    }

    /// Runs one loop operation `id` inside a root span named `op`.
    pub fn operation<R>(&mut self, id: u64, lang: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = id;
        let r = self.span("op", Some(lang), f);
        self.op = 0;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// The spans as tab-separated lines: index, parent, op, phase, name,
    /// language, start, end (ns since the run began), self ns, work.
    pub fn to_tsv(&self, langs: &[&str]) -> String {
        let own = self.self_ns();
        let mut out =
            String::from("id\tparent\top\tphase\tname\tlang\tstart_ns\tend_ns\tself_ns\twork\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.parent.map_or(-1, |p| p as i64),
                s.op,
                s.phase,
                s.name,
                s.lang.map_or("-", |l| langs[l]),
                s.start_ns,
                s.end_ns,
                own[i],
                s.work
            );
        }
        out
    }
}
