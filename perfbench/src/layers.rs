//! Step accounting shared by the training and serving workloads: the
//! per-kind profile totals of `StepStats`, the runtime and `raxpp-ir`
//! per-layer metrics derived from them, and the step ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use raxpp_runtime::StepStats;

use crate::report::Report;
use crate::stats::{mean, median, ms};

/// The `Run` kinds `ir.compute_ms_per_step` sums.
const COMPUTE_KINDS: [&str; 5] = ["fwd", "bwd", "bwdw", "accum_grad", "update"];
/// Every `Run` kind plus copies: the compute line of the ledger.
const LEDGER_COMPUTE_KINDS: [&str; 8] = [
    "fwd",
    "bwd",
    "bwdw",
    "accum_grad",
    "ct_sum",
    "grad_reduce",
    "update",
    "copy",
];

/// Per-kind profile totals and counters summed over steps.
#[derive(Debug, Default)]
pub struct StepAcc {
    /// Steps added.
    pub steps: u64,
    /// Kind → (ms summed over actors, instruction count).
    kinds: BTreeMap<&'static str, (f64, u64)>,
    allocated: u64,
    reused: u64,
    tp_bytes: u64,
    dp_bytes: u64,
    rpcs: u64,
    /// Caller-side step wall (ms) per step.
    pub walls: Vec<f64>,
    /// Caller-side wall minus `StepStats::wall` (ms) per step.
    driver_overhead: Vec<f64>,
}

impl StepAcc {
    /// Adds one step: its caller-side `wall` and the runtime's stats.
    pub fn add(&mut self, wall: Duration, s: &StepStats) {
        self.steps += 1;
        self.walls.push(ms(wall));
        self.driver_overhead.push(ms(wall.saturating_sub(s.wall)));
        self.rpcs += s.rpcs as u64;
        for p in &s.profiles {
            for (k, d, c) in p.entries() {
                let e = self.kinds.entry(k).or_default();
                e.0 += ms(d);
                e.1 += c as u64;
            }
            self.tp_bytes += p.bytes_wire();
            self.dp_bytes += p.dp_bytes_wire();
        }
        let a = s.alloc_stats();
        self.allocated += a.allocated;
        self.reused += a.reused;
    }

    fn per_step(&self, kind: &str, count: bool) -> f64 {
        let (t, c) = self.kinds.get(kind).copied().unwrap_or_default();
        (if count { c as f64 } else { t }) / self.steps.max(1) as f64
    }

    fn per_step_sum(&self, kinds: &[&str]) -> f64 {
        kinds.iter().map(|k| self.per_step(k, false)).sum()
    }

    /// Records the per-layer metrics these steps determine and the
    /// ledger: the step wall against its mean-per-actor parts, with the
    /// residual stated.
    pub fn report(&self, report: &mut Report, n_actors: usize) {
        let steps = self.steps.max(1) as f64;
        report.set("ir.compute_ms_per_step", self.per_step_sum(&COMPUTE_KINDS));
        report.set("ir.alloc_per_step", self.allocated as f64 / steps);
        let touched = (self.allocated + self.reused).max(1) as f64;
        report.set("ir.reuse_ratio", self.reused as f64 / touched);
        report.set(
            "runtime.recv_wait_ms_per_step",
            self.per_step("recv", false),
        );
        report.set("runtime.send_ms_per_step", self.per_step("send", false));
        report.set("runtime.frees_per_step", self.per_step("free", true));
        report.set("runtime.free_ms_per_step", self.per_step("free", false));
        report.set(
            "runtime.tp_collective_ms_per_step",
            self.per_step("collective", false),
        );
        report.set(
            "runtime.tp_collective_wait_ms_per_step",
            self.per_step("collective_wait", false),
        );
        report.set("runtime.tp_bytes_per_step", self.tp_bytes as f64 / steps);
        report.set(
            "runtime.dp_collective_ms_per_step",
            self.per_step("dp_collective", false),
        );
        report.set("runtime.dp_bytes_per_step", self.dp_bytes as f64 / steps);
        let n = n_actors as f64;
        report.set("runtime.rpcs_per_step", self.rpcs as f64 / steps / n);
        report.set("runtime.driver_overhead_ms", median(&self.driver_overhead));

        let wall = mean(&self.walls);
        let per_actor = |kinds: &[&str]| self.per_step_sum(kinds) / n;
        let lines = [
            ("compute", per_actor(&LEDGER_COMPUTE_KINDS)),
            ("collective", per_actor(&["collective", "dp_collective"])),
            ("recv wait", per_actor(&["recv"])),
            ("send", per_actor(&["send"])),
            ("free", per_actor(&["free"])),
            ("driver overhead", mean(&self.driver_overhead)),
        ];
        let residual = wall - lines.iter().map(|(_, v)| v).sum::<f64>();
        report.set("ledger.residual_share", residual / wall);
        let parts: Vec<String> = lines
            .iter()
            .map(|(k, v)| format!("{k} {v:.3} ms"))
            .collect();
        report.note(format!(
            "ledger (mean of {} untraced steps; actor lines averaged over {n_actors} actors): \
             step wall {wall:.3} ms = {} + residual {residual:.3} ms ({:.1}% of the wall: \
             actor idle between its instructions, dispatch and control)",
            self.steps,
            parts.join(" + "),
            100.0 * residual / wall
        ));
    }
}

/// How many times each compile pass is timed.
const PASS_REPS: usize = 5;

/// Wall time of each named compile pass, in pipeline order, over
/// `PASS_REPS` repetitions.
#[derive(Debug, Default)]
pub struct PassTimes(Vec<(&'static str, Vec<f64>)>);

impl PassTimes {
    /// Runs `f` as one repetition of the pass `name`, recording its time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        let elapsed = ms(t.elapsed());
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(elapsed),
            None => self.0.push((name, vec![elapsed])),
        }
        r
    }

    /// Runs `pipeline` (one pass through every compile pass) `PASS_REPS`
    /// times, then records `taskgraph.compile_ms` as the sum of the
    /// per-pass medians and one finding listing each pass.
    pub fn measure(
        report: &mut Report,
        mut pipeline: impl FnMut(&mut PassTimes) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut passes = PassTimes::default();
        for _ in 0..PASS_REPS {
            pipeline(&mut passes)?;
        }
        let medians: Vec<(&str, f64)> = passes.0.iter().map(|(n, v)| (*n, median(v))).collect();
        report.set("taskgraph.compile_ms", medians.iter().map(|(_, v)| v).sum());
        let detail: Vec<String> = medians
            .iter()
            .map(|(n, v)| format!("{n} {v:.3} ms"))
            .collect();
        report.note(format!(
            "taskgraph passes (median of {PASS_REPS}): {}",
            detail.join(", ")
        ));
        Ok(())
    }
}
