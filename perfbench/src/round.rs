//! One round of a workload: set-up, the timed part, then the checks.
//!
//! A workload runs as many identical rounds as fit in the run's time
//! budget. Every round rebuilds its machines and inputs from the
//! workload seed, so every round simulates exactly the same events.

use crate::stats::events;
use crate::trace::{Open, Tracer};
use sgx_sim::{Counters, Machine};
use std::collections::BTreeMap;
// sgx-lint: allow(nondeterminism) host wall-clock is what this benchmark measures
use std::time::Instant;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds of each set-up the round performed.
    pub setup: Vec<f64>,
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// Simulator counters of each kernel call, in call order.
    pub kernels: Vec<(String, Counters)>,
    /// Values layers report themselves (job seconds, DES events, ...).
    pub layers: BTreeMap<String, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Digest lines of simulated outputs that must repeat exactly.
    pub outputs: Vec<String>,
}

impl Round {
    /// Simulator counters of the whole timed part.
    pub fn sim(&self) -> Counters {
        let mut total = Counters::default();
        for (_, c) in &self.kernels {
            total.merge(c);
        }
        total
    }

    /// Simulated events of the kernel calls named `name`.
    pub fn kernel_events(&self, name: &str) -> u64 {
        self.kernels
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, c)| events(c))
            .sum()
    }

    /// Counters of the first kernel call named `name`.
    pub fn kernel(&self, name: &str) -> Option<&Counters> {
        self.kernels.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Everything that must be identical between two rounds of one seed:
    /// per-kernel counters and simulated outputs.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for (name, c) in &self.kernels {
            s.push_str(name);
            s.push('\n');
            s.push_str(&c.report());
            s.push('\n');
        }
        for line in &self.outputs {
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

/// A running phase: set-up or the timed part.
pub struct Phase {
    // sgx-lint: allow(nondeterminism) phase timing is host time by definition
    started: Instant,
    span: Open,
}

/// Records one round: phase timings, kernel spans and counters, checks.
pub struct Rec<'t> {
    /// The run's span recorder.
    pub tr: &'t mut Tracer,
    /// The round being recorded.
    pub round: Round,
}

impl<'t> Rec<'t> {
    /// Start recording a round.
    pub fn new(tr: &'t mut Tracer) -> Rec<'t> {
        Rec {
            tr,
            round: Round::default(),
        }
    }

    /// Open a phase span and start its clock.
    pub fn begin(&mut self, name: &str) -> Phase {
        let span = self.tr.enter(name);
        // sgx-lint: allow(nondeterminism) phase timing is host time by definition
        let started = Instant::now();
        Phase { started, span }
    }

    /// Close a phase and return its host seconds.
    pub fn end(&mut self, phase: Phase) -> f64 {
        let secs = phase.started.elapsed().as_secs_f64();
        self.tr.exit(phase.span);
        secs
    }

    /// Close a set-up phase and record its seconds.
    pub fn end_setup(&mut self, phase: Phase) {
        let secs = self.end(phase);
        self.round.setup.push(secs);
    }

    /// Close the timed phase and record its seconds.
    pub fn end_timed(&mut self, phase: Phase) {
        self.round.wall_s = self.end(phase);
    }

    /// Run a child span named `name` around `f`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.tr.enter(name);
        let r = f();
        self.tr.exit(open);
        r
    }

    /// Run kernel `name` on machine `m`, with a span `<name>.s` around
    /// the call and the machine's counter delta recorded.
    pub fn on_machine<R>(
        &mut self,
        name: &str,
        m: &mut Machine,
        f: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        let before = m.counters().clone();
        let r = self.span(&format!("{name}.s"), || f(m));
        self.round
            .kernels
            .push((name.to_string(), m.counters().delta(&before)));
        r
    }

    /// Run kernel `name`, which builds and drops its own machines, with a
    /// span `<name>.s` around the call; the counters of every machine
    /// dropped during the call are recorded.
    pub fn owned<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        // Discard machines dropped earlier on this thread.
        sgx_sim::counters::session_take();
        let r = self.span(&format!("{name}.s"), f);
        self.round
            .kernels
            .push((name.to_string(), sgx_sim::counters::session_take()));
        r
    }

    /// Count one checked operation; `ok` is whether its output was right.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.round.attempted += 1;
        if !ok {
            self.round.failed += 1;
            eprintln!("perfbench: {name}: output differs from its oracle");
        }
    }

    /// Record a value a layer reports about itself.
    pub fn layer(&mut self, name: &str, value: f64) {
        *self.round.layers.entry(name.to_string()).or_insert(0.0) += value;
    }
}

/// Derive the `k`-th input seed from a workload seed (splitmix64), so
/// each generated input of a round gets its own stream.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(7, 0), sub_seed(7, 0));
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 0), sub_seed(8, 0));
    }

    #[test]
    fn sim_totals_merge_kernels() {
        let mut r = Round::default();
        r.kernels.push((
            "a".into(),
            Counters {
                loads: 2,
                stream_lines: 1,
                ..Counters::default()
            },
        ));
        r.kernels.push((
            "b".into(),
            Counters {
                stores: 3,
                ..Counters::default()
            },
        ));
        r.kernels.push((
            "a".into(),
            Counters {
                alu_ops: 4,
                ..Counters::default()
            },
        ));
        assert_eq!(events(&r.sim()), 10);
        assert_eq!(r.kernel_events("a"), 7);
        assert_eq!(r.kernel("b").map(|c| c.stores), Some(3));
    }
}
