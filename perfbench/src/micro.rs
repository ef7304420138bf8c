//! Isolated `raxpp-ir` microbenchmarks at the exact shapes a launched
//! program executes, and the in-step ÷ isolated ratio for matmul.
//!
//! The shapes come from the program itself: every `Run` instruction's
//! jaxpr is walked and each `matmul`, `tanh` and `transpose` equation is
//! counted with its operand shapes, so the isolated numbers are weighted
//! exactly as one step weights them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{eval_prim, Prim, Tensor};
use raxpp_runtime::StepTrace;
use raxpp_taskgraph::{Instr, MpmdProgram};

use crate::report::Report;

/// How often one step runs each op at each shape.
#[derive(Debug, Default)]
pub struct OpCensus {
    /// `(m, k, n)` → calls per step.
    matmul: BTreeMap<(usize, usize, usize), u64>,
    /// `[rows, cols]` of the input → calls per step.
    tanh: BTreeMap<Vec<usize>, u64>,
    /// `[rows, cols]` of the input → calls per step.
    transpose: BTreeMap<Vec<usize>, u64>,
}

/// Counts the ops of interest in every actor stream of `program`.
pub fn census(program: &MpmdProgram) -> OpCensus {
    let mut c = OpCensus::default();
    for stream in &program.actors {
        for instr in stream {
            let Instr::Run { jaxpr, .. } = instr else {
                continue;
            };
            let g = &program.jaxprs[jaxpr.0 as usize];
            for eqn in g.eqns() {
                let dims = |i: usize| g.shape(eqn.inputs[i]).dims().to_vec();
                match eqn.prim {
                    Prim::MatMul => {
                        let (a, b) = (dims(0), dims(1));
                        *c.matmul.entry((a[0], a[1], b[1])).or_default() += 1;
                    }
                    Prim::Tanh => *c.tanh.entry(dims(0)).or_default() += 1,
                    Prim::Transpose => *c.transpose.entry(dims(0)).or_default() += 1,
                    _ => {}
                }
            }
        }
    }
    c
}

/// Median wall time of one call of `f`, over at least `min_calls` calls
/// and `budget` of total time, after one untimed warm-up call.
fn time_call(mut f: impl FnMut() -> Tensor, budget: Duration, min_calls: usize) -> Duration {
    black_box(f());
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// The isolated results, aggregated over one step's census.
#[derive(Debug, Default)]
pub struct Micro {
    /// Σ matmul FLOPs ÷ Σ isolated matmul time, per step's calls.
    matmul_gflops: f64,
    /// Isolated time of one matmul call, averaged over the step's calls.
    matmul_ns_per_call: f64,
    /// Isolated tanh time per element over the step's calls.
    tanh_ns_per_elem: f64,
    /// Bytes read + written ÷ isolated transpose time over the step's calls.
    transpose_gbps: f64,
    /// One line per measured shape.
    lines: Vec<String>,
}

/// Times every distinct shape of `census` in isolation.
pub fn measure(census: &OpCensus, seed: u64, budget: Duration) -> Micro {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let mut out = Micro::default();

    let (mut flops, mut mm_ns, mut mm_calls) = (0f64, 0f64, 0u64);
    for (&(m, k, n), &calls) in &census.matmul {
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let t = time_call(|| a.matmul(&b).expect("census shapes agree"), budget, 5);
        let f = 2.0 * (m * k * n) as f64;
        let ns = t.as_secs_f64() * 1e9;
        out.lines.push(format!(
            "matmul [{m},{k}]x[{k},{n}] ×{calls}/step: {:.3} ms, {:.2} GFLOP/s",
            ns / 1e6,
            f / ns
        ));
        flops += f * calls as f64;
        mm_ns += ns * calls as f64;
        mm_calls += calls;
    }
    if mm_calls > 0 {
        out.matmul_gflops = flops / mm_ns;
        out.matmul_ns_per_call = mm_ns / mm_calls as f64;
    }

    let (mut elems, mut tanh_ns) = (0f64, 0f64);
    for (dims, &calls) in &census.tanh {
        let x = Tensor::randn(dims.clone(), 1.0, &mut rng);
        let t = time_call(
            || eval_prim(&Prim::Tanh, &[&x]).expect("tanh is unary"),
            budget,
            5,
        );
        let ns = t.as_secs_f64() * 1e9;
        let numel = x.numel() as f64;
        out.lines.push(format!(
            "tanh {dims:?} ×{calls}/step: {:.3} ms, {:.2} ns/elem",
            ns / 1e6,
            ns / numel
        ));
        elems += numel * calls as f64;
        tanh_ns += ns * calls as f64;
    }
    if elems > 0.0 {
        out.tanh_ns_per_elem = tanh_ns / elems;
    }

    let (mut bytes, mut tr_ns) = (0f64, 0f64);
    for (dims, &calls) in &census.transpose {
        let x = Tensor::randn(dims.clone(), 1.0, &mut rng);
        let t = time_call(|| x.transpose().expect("census shapes are 2-D"), budget, 5);
        let ns = t.as_secs_f64() * 1e9;
        let moved = 8.0 * x.numel() as f64;
        out.lines.push(format!(
            "transpose {dims:?} ×{calls}/step: {:.3} ms, {:.2} GB/s",
            ns / 1e6,
            moved / ns
        ));
        bytes += moved * calls as f64;
        tr_ns += ns * calls as f64;
    }
    if tr_ns > 0.0 {
        out.transpose_gbps = bytes / tr_ns;
    }
    out
}

/// In-step matmul time, from the `op` spans of traced steps.
#[derive(Debug, Default)]
pub struct InSitu {
    ns: u64,
    calls: u64,
    steps: u64,
}

impl InSitu {
    /// Adds the matmul `op` spans of one traced step.
    pub fn add(&mut self, trace: &StepTrace) {
        self.steps += 1;
        for a in &trace.actors {
            for s in a
                .spans
                .iter()
                .filter(|s| s.kind == "op" && s.name == "matmul")
            {
                self.ns += s.dur_ns;
                self.calls += 1;
            }
        }
    }
}

impl Micro {
    /// Records the `ir.*` kernel metrics, the in-step ÷ isolated matmul
    /// ratio, and one finding per measured shape.
    pub fn report(&self, insitu: &InSitu, report: &mut Report) {
        report.set("ir.matmul_gflops", self.matmul_gflops);
        report.set("ir.tanh_ns_per_elem", self.tanh_ns_per_elem);
        report.set("ir.transpose_gbps", self.transpose_gbps);
        let per_call = insitu.ns as f64 / insitu.calls.max(1) as f64;
        report.set(
            "ir.matmul_insitu_ratio",
            if self.matmul_ns_per_call > 0.0 {
                per_call / self.matmul_ns_per_call
            } else {
                0.0
            },
        );
        for l in &self.lines {
            report.note(format!("isolated {l}"));
        }
        report.note(format!(
            "matmul per call: {:.3} ms inside traced steps ({} calls over {} steps) vs {:.3} ms \
             isolated",
            per_call / 1e6,
            insitu.calls,
            insitu.steps,
            self.matmul_ns_per_call / 1e6
        ));
    }
}
