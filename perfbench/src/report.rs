//! The metric catalog (mirrors `BENCHMARK.json`), the per-run report,
//! its JSON result line and the per-layer table of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them (see `README.md` for what each means on training and serving).
/// `serve_p99_ms` and `serve_max_rps` are per-layer: on a shared 2-core
/// host their run-to-run spread is far wider than any usable bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "rows/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("serve_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_store_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: `(name, unit, what it should move)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("ir.matmul_gflops", "GFLOP/s", "train_compute samples_per_s"),
    (
        "ir.matmul_insitu_ratio",
        "ratio",
        "train_compute samples_per_s",
    ),
    (
        "ir.tanh_ns_per_elem",
        "ns",
        "train_compute samples_per_s, serve_open serve_p50_ms",
    ),
    ("ir.transpose_gbps", "GB/s", "train_compute samples_per_s"),
    (
        "ir.compute_ms_per_step",
        "ms",
        "train_compute samples_per_s",
    ),
    (
        "ir.alloc_per_step",
        "count",
        "train_compute step_p50_ms, peak_store_mb",
    ),
    (
        "ir.reuse_ratio",
        "ratio",
        "train_compute step_p50_ms, peak_store_mb",
    ),
    (
        "taskgraph.compile_ms",
        "ms",
        "train_collective/train_wire setup_s",
    ),
    (
        "taskgraph.instrs_per_step",
        "count",
        "train_collective samples_per_s",
    ),
    (
        "sched.ideal_bubble",
        "ratio",
        "yardstick for runtime.bubble_share",
    ),
    (
        "runtime.bubble_share",
        "ratio",
        "train_compute samples_per_s",
    ),
    (
        "runtime.recv_wait_ms_per_step",
        "ms",
        "train_collective/train_wire samples_per_s",
    ),
    (
        "runtime.send_ms_per_step",
        "ms",
        "train_collective/train_wire samples_per_s",
    ),
    (
        "runtime.frees_per_step",
        "count",
        "train_collective/train_wire samples_per_s",
    ),
    (
        "runtime.free_ms_per_step",
        "ms",
        "train_collective/train_wire samples_per_s",
    ),
    (
        "runtime.tp_collective_ms_per_step",
        "ms",
        "train_collective samples_per_s",
    ),
    (
        "runtime.tp_collective_wait_ms_per_step",
        "ms",
        "train_collective samples_per_s",
    ),
    (
        "runtime.tp_overlap_ratio",
        "ratio",
        "train_collective samples_per_s",
    ),
    (
        "runtime.tp_bytes_per_step",
        "bytes",
        "train_collective samples_per_s",
    ),
    (
        "runtime.dp_collective_ms_per_step",
        "ms",
        "train_collective samples_per_s",
    ),
    (
        "runtime.dp_bytes_per_step",
        "bytes",
        "train_collective samples_per_s",
    ),
    (
        "runtime.transport_bytes_per_step",
        "bytes",
        "train_wire samples_per_s",
    ),
    ("runtime.reconnects", "count", "train_wire samples_per_s"),
    (
        "runtime.rpcs_per_step",
        "rpc/actor",
        "must stay at one per actor",
    ),
    (
        "runtime.driver_overhead_ms",
        "ms",
        "train_collective step_p50_ms",
    ),
    (
        "ledger.residual_share",
        "ratio",
        "step wall not explained by the ledger lines",
    ),
    ("core.compile_ms", "ms", "setup_s on every workload"),
    ("core.init_ms", "ms", "setup_s on every workload"),
    ("core.first_step_ms", "ms", "setup_s on every workload"),
    (
        "serve_p99_ms",
        "ms",
        "serving tail latency at the base rate (not gated)",
    ),
    (
        "serve_max_rps",
        "req/s",
        "highest rate meeting p99 ≤ 10 ms (not gated)",
    ),
    (
        "serve.batch_fill",
        "ratio",
        "serve_open serve_max_rps, samples_per_s",
    ),
    ("serve.batch_ms", "ms", "serve_open serve_p50_ms"),
    ("serve.forward_ms", "ms", "serve_open serve_p50_ms"),
    ("serve.queue_depth_max", "count", "serve_open serve_p99_ms"),
    ("serve.swap_ms", "ms", "serve_open serve_p99_ms"),
    (
        "serve.gen_late_ms",
        "ms",
        "validity check of the open-loop generator",
    ),
    (
        "proc.cpu_util",
        "ratio",
        "train_compute/train_collective samples_per_s",
    ),
    (
        "proc.sys_share",
        "ratio",
        "train_compute/train_collective samples_per_s",
    ),
    (
        "proc.minor_faults_per_step",
        "count",
        "train_compute/train_collective samples_per_s",
    ),
    (
        "proc.threads",
        "count",
        "train_compute/train_collective samples_per_s",
    ),
    (
        "trace.overhead_ratio",
        "ratio",
        "cost of tracing; traced ÷ untraced step_p50_ms",
    ),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, u, _)| *u)
        })
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured region (steps or requests).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable findings: check results, tail percentiles, ledger.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a catalog metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a human-readable line to the run's findings.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn names(trace: bool) -> Vec<&'static str> {
        if trace {
            PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        }
    }

    /// The metric table printed before the result line.
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for name in Self::names(trace) {
            let unit = unit_of(name).unwrap_or("");
            match self.get(name) {
                Some(v) => writeln!(s, "  {name:<40} {v:>16.6} {unit}"),
                None => writeln!(s, "  {name:<40} {:>16} {unit}", "missing"),
            }
            .expect("writing to a String cannot fail");
        }
        s
    }

    /// The single JSON result line: `correct`, `attempted`, `failed`
    /// and every end-to-end (`trace == false`) or per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the selected set was not recorded.
    pub fn json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::names(trace)
            .into_iter()
            .map(|name| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit_of(name).expect("catalog names have units")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The per-layer table of a traced run as Markdown: every per-layer
    /// metric with the end-to-end metric it should move, then the
    /// run's findings (checks, ledger, residual).
    pub fn layer_markdown(&self, workload: &str, header: &str) -> String {
        let mut s = format!("# Per-layer metrics: {workload}\n\n{header}\n\n");
        s.push_str("| metric | value | unit | should move |\n|---|---:|---|---|\n");
        for (name, unit, moves) in PER_LAYER {
            let v = self
                .get(name)
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "missing".into());
            writeln!(s, "| `{name}` | {v} | {unit} | {moves} |")
                .expect("writing to a String cannot fail");
        }
        s.push_str("\n## Findings\n\n");
        for n in &self.notes {
            writeln!(s, "- {n}").expect("writing to a String cannot fail");
        }
        s
    }
}
