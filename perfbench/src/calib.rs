//! The host factor: how fast the host runs a fixed workload of the
//! harness's own, against how fast it ran it when the benchmark was tuned.
//!
//! The host this benchmark was tuned on changes speed by up to 2.5x over
//! minutes, and every timing of a run moves with it. The end-to-end timings
//! are therefore multiplied by [`Calibration::REFERENCE_MS`] over this
//! workload's median time in the run: over the set-up samples for the
//! set-up time, and over the loop samples for the loop's timings. They read
//! as on a host where the workload takes `REFERENCE_MS` (the tuning VM when
//! quiet). The raw timings are printed on standard error next to the
//! factors. One factor per run, not one per operation: a single sample is
//! noisier than the operations it would scale.
//!
//! The calibration must not move when the program's speed does:
//! - it allocates nothing while it is timed: it builds its trees as nodes
//!   of one buffer allocated before set-up, so the program's heap cannot
//!   reach it;
//! - it runs only while the program is idle: between loop operations
//!   (outside their timed intervals) about every 100 ms, and around each
//!   set-up. It runs on the thread, and so on the core, that runs the
//!   operations.
//!
//! `tests/independence.rs` checks that extra work in the operations leaves
//! the factor where it was and shows in the scaled timings in full.

use crate::stats;
use std::time::Instant;

/// The calibration's node buffer, and the times it took, in ms, per phase.
#[derive(Debug)]
pub struct Calibration {
    /// Tree nodes: first child, next sibling and value (`NONE` for no
    /// child or sibling).
    nodes: Vec<[u32; 3]>,
    last: Option<Instant>,
    setup: Vec<f64>,
    looped: Vec<f64>,
}

const NONE: u32 = u32::MAX;

impl Calibration {
    /// The calibration's median time on the quiet 2-vCPU tuning VM.
    pub const REFERENCE_MS: f64 = 0.6;
    const EVERY_S: f64 = 0.1;
    /// Samples taken before each set-up and after the last one.
    const AROUND_SETUP: usize = 4;
    const TREES: usize = 100;

    /// Allocates the node buffer: the trees are the same on every sample,
    /// so one untimed pass sizes it for all of them.
    pub fn start() -> Calibration {
        let mut c = Calibration {
            nodes: Vec::new(),
            last: None,
            setup: Vec::new(),
            looped: Vec::new(),
        };
        c.workload();
        c
    }

    /// Builds a node `depth` levels deep from the generator `state`;
    /// returns its index.
    fn build(&mut self, state: &mut u64, depth: u32) -> u32 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = (*state >> 33) as u32;
        let me = self.nodes.len() as u32;
        self.nodes.push([NONE, NONE, r % 1000]);
        if depth == 0 || r.is_multiple_of(4) {
            return me;
        }
        let mut prev = NONE;
        for _ in 0..1 + r % 4 {
            let child = self.build(state, depth - 1);
            if prev == NONE {
                self.nodes[me as usize][0] = child;
            } else {
                self.nodes[prev as usize][1] = child;
            }
            prev = child;
        }
        me
    }

    fn walk(&self, node: u32) -> u64 {
        let [mut child, _, value] = self.nodes[node as usize];
        let mut sum = u64::from(value);
        while child != NONE {
            sum += self.walk(child);
            child = self.nodes[child as usize][1];
        }
        sum
    }

    /// The fixed workload: build `TREES` small trees into the buffer and
    /// walk each. Returns its time in ms.
    fn workload(&mut self) -> f64 {
        let start = Instant::now();
        self.nodes.clear();
        let mut state = 42;
        let sum: u64 = (0..Self::TREES)
            .map(|_| {
                let root = self.build(&mut state, 7);
                self.walk(root)
            })
            .sum();
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64() * 1e3
    }

    fn sample(&mut self) -> f64 {
        let ms = self.workload();
        self.last = Some(Instant::now());
        ms
    }

    /// Samples around a set-up.
    pub fn around_setup(&mut self) {
        for _ in 0..Self::AROUND_SETUP {
            let ms = self.sample();
            self.setup.push(ms);
        }
    }

    /// Samples between loop operations when the last sample is `EVERY_S`
    /// old.
    pub fn between_operations(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= Self::EVERY_S)
        {
            let ms = self.sample();
            self.looped.push(ms);
        }
    }

    fn factor_of(samples: &[f64]) -> f64 {
        stats::median(samples).map_or(1.0, |m| Self::REFERENCE_MS / m)
    }

    /// The factor the set-up time is multiplied by.
    pub fn setup_factor(&self) -> f64 {
        Self::factor_of(&self.setup)
    }

    /// The factor the loop's timings are multiplied by.
    pub fn loop_factor(&self) -> f64 {
        Self::factor_of(&self.looped)
    }
}
