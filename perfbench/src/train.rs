//! The training workloads: `train_compute`, `train_collective` and
//! `train_wire`.
//!
//! Each run builds the workload's trainer several times (set-up time),
//! times `Trainer::step` on a caller thread for the measured interval,
//! and afterwards — outside the timed region — replays the first steps
//! on a correctness twin whose losses must agree bitwise. A traced run
//! instead alternates untraced and traced steps and reports the layer
//! metrics, the in-step ÷ isolated matmul ratio and the step ledger.

use std::time::{Duration, Instant};

use raxpp_core::{compile_train_step, CompileOptions, DpConfig, Optimizer, TpConfig, Trainer};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{num_threads, set_num_threads, Tensor};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::TransportKind;
use raxpp_sched::{gpipe, ideal_bubble_ratio, one_f1b, Schedule};
use raxpp_taskgraph::{
    bucket_collectives, insert_frees, pipeline_model, replicate_program, shard_program,
    unroll_loop, UnrollOptions,
};

use crate::layers::{PassTimes, StepAcc};
use crate::micro;
use crate::procstat;
use crate::report::Report;
use crate::stats::{mean, median, ms, tail};

/// Distinct global batches the steps cycle through.
const POOL: usize = 4;
/// Untimed steps between set-up and the measured interval.
const WARMUP: usize = 2;
/// Steps every correctness twin replays.
const TWIN_STEPS: usize = 3;

/// The twin a workload's losses are checked against.
#[derive(Debug, Clone, Copy)]
enum Twin {
    /// The same program with one kernel thread.
    OneKernelThread,
    /// The same program on the serial TP ring, plus dp=1 at step 0.
    SerialRingAndDp1,
    /// The same degrees on the in-process mpsc transport.
    Mpsc,
}

/// One training workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    name: &'static str,
    width: usize,
    /// Rows of one microbatch.
    rows: usize,
    layers: usize,
    stages: usize,
    one_f1b: bool,
    /// Microbatches of one replica's schedule.
    mubatches: usize,
    tp: usize,
    dp: usize,
    transport: TransportKind,
    twin: Twin,
    /// Force the serial TP ring instead of the default lane rendezvous.
    serial_ring: bool,
    /// How many times a run builds the trainer to time set-up.
    setup_reps: usize,
}

/// Kernels do the work: 4×[512,512] over 4 stages, GPipe, 4×[256,512].
pub const TRAIN_COMPUTE: Spec = Spec {
    name: "train_compute",
    width: 512,
    rows: 256,
    layers: 4,
    stages: 4,
    one_f1b: false,
    mubatches: 4,
    tp: 1,
    dp: 1,
    transport: TransportKind::Mpsc,
    twin: Twin::OneKernelThread,
    serial_ring: false,
    setup_reps: 5,
};

/// Dispatch and collectives do the work: 8×[128,128] over 4 stages,
/// 1F1B with 16 global microbatches of [16,128], tp=2 × dp=2.
pub const TRAIN_COLLECTIVE: Spec = Spec {
    name: "train_collective",
    width: 128,
    rows: 16,
    layers: 8,
    stages: 4,
    one_f1b: true,
    mubatches: 8,
    tp: 2,
    dp: 2,
    transport: TransportKind::Mpsc,
    twin: Twin::SerialRingAndDp1,
    serial_ring: false,
    setup_reps: 9,
};

/// The socket fabric does the work: the train_collective model and
/// schedule at tp=2, dp=1, over Unix sockets between in-process actors.
pub const TRAIN_WIRE: Spec = Spec {
    name: "train_wire",
    width: 128,
    rows: 16,
    layers: 8,
    stages: 4,
    one_f1b: true,
    mubatches: 16,
    tp: 2,
    dp: 1,
    transport: TransportKind::UnixSocket,
    twin: Twin::Mpsc,
    serial_ring: false,
    setup_reps: 9,
};

impl Spec {
    fn schedule(&self) -> Result<Schedule, String> {
        let s = if self.one_f1b {
            one_f1b(self.stages, self.mubatches)
        } else {
            gpipe(self.stages, self.mubatches)
        };
        s.map_err(|e| format!("{}: schedule: {e}", self.name))
    }

    fn global_mubatches(&self) -> usize {
        self.mubatches * self.dp
    }

    fn global_rows(&self) -> usize {
        self.rows * self.global_mubatches()
    }

    fn options(&self) -> CompileOptions {
        CompileOptions {
            tp: (self.tp > 1).then(|| TpConfig {
                lanes: self.serial_ring.then_some(1),
                ..TpConfig::model_parallel(self.tp)
            }),
            dp: (self.dp > 1).then(|| DpConfig::replicas(self.dp)),
            transport: Some(self.transport),
            ..CompileOptions::default()
        }
    }

    fn describe(&self) -> String {
        format!(
            "mlp_chain {}×[{w},{w}] over {} stages, {} with {} global microbatches of [{},{w}], \
             tp={} dp={}, transport {}",
            self.layers,
            self.stages,
            if self.one_f1b { "1F1B" } else { "GPipe" },
            self.global_mubatches(),
            self.rows,
            self.tp,
            self.dp,
            self.transport,
            w = self.width,
        )
    }
}

/// Set-up phases of one trainer launch.
#[derive(Debug, Clone, Copy)]
struct Setup {
    compile: Duration,
    init: Duration,
    first_step: Duration,
}

impl Setup {
    fn total(&self) -> Duration {
        self.compile + self.init + self.first_step
    }
}

type Batch = Vec<Vec<Tensor>>;

/// Compiles, launches and initializes `spec`, then runs its first step
/// on `first`: the set-up a user waits for before training starts.
fn launch(
    spec: &Spec,
    model: &BuiltModel,
    first: &Batch,
) -> Result<(Trainer, Setup, Vec<f32>), String> {
    let t0 = Instant::now();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &spec.schedule()?,
        Optimizer::Sgd { lr: 1e-3 },
        spec.options(),
    )
    .map_err(|e| format!("{}: compile: {e}", spec.name))?;
    let t1 = Instant::now();
    trainer
        .init(&model.init)
        .map_err(|e| format!("{}: init: {e}", spec.name))?;
    let t2 = Instant::now();
    let r = trainer
        .step(first)
        .map_err(|e| format!("{}: first step: {e}", spec.name))?;
    let t3 = Instant::now();
    let setup = Setup {
        compile: t1 - t0,
        init: t2 - t1,
        first_step: t3 - t2,
    };
    Ok((trainer, setup, r.losses))
}

/// Wall-clock time each public pass takes on the workload's model (the
/// optimizer append of `compile_train_step` is internal and not timed).
fn time_passes(spec: &Spec, model: &BuiltModel, report: &mut Report) -> Result<(), String> {
    let schedule = spec.schedule()?;
    let mesh = TpConfig::model_parallel(spec.tp.max(1)).mesh;
    PassTimes::measure(report, |p| {
        let pm = p
            .time("pipeline_model", || {
                pipeline_model(&model.jaxpr, model.n_params)
            })
            .map_err(|e| e.to_string())?;
        let opts = UnrollOptions {
            loop_commuting: true,
        };
        let mut program = p
            .time("unroll_loop", || unroll_loop(&pm, &schedule, opts))
            .map_err(|e| e.to_string())?
            .program;
        if spec.tp > 1 {
            program = p
                .time("shard_program", || shard_program(&program, &mesh, "model"))
                .map_err(|e| e.to_string())?;
        }
        if spec.dp > 1 {
            program = p
                .time("replicate_program", || {
                    replicate_program(&program, spec.dp, None)
                })
                .map_err(|e| e.to_string())?;
        }
        p.time("insert_frees", || insert_frees(&mut program));
        if spec.tp > 1 || spec.dp > 1 {
            p.time("bucket_collectives", || bucket_collectives(&mut program));
        }
        Ok(())
    })
}

/// Replays the first steps on the workload's twin; returns a failure
/// description, or `None` when every compared loss agrees bitwise.
fn check_twin(
    spec: &Spec,
    model: &BuiltModel,
    batch: &dyn Fn(usize) -> Batch,
    want: &[Vec<f32>],
    report: &mut Report,
) -> Result<Option<String>, String> {
    let replay = |twin: &Trainer, first: Vec<f32>, steps: usize| -> Result<Vec<Vec<f32>>, String> {
        let mut out = vec![first];
        for i in 1..steps {
            out.push(
                twin.step(&batch(i))
                    .map_err(|e| format!("{}: twin step {i}: {e}", spec.name))?
                    .losses,
            );
        }
        Ok(out)
    };
    let compare = |what: &str, got: &[Vec<f32>]| -> Option<String> {
        got.iter().zip(want).enumerate().find_map(|(i, (g, w))| {
            let same =
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits());
            (!same).then(|| format!("step {i}: losses differ bitwise from {what}"))
        })
    };
    match spec.twin {
        Twin::OneKernelThread => {
            let prev = num_threads();
            set_num_threads(1);
            let twin = launch(spec, model, &batch(0));
            let got = twin.and_then(|(t, _, first)| replay(&t, first, TWIN_STEPS));
            set_num_threads(prev);
            let got = got?;
            report.note(format!(
                "check: {TWIN_STEPS} steps bitwise equal to a 1-kernel-thread twin \
                 (measured run used {prev} kernel threads)"
            ));
            Ok(compare("the 1-kernel-thread twin", &got))
        }
        Twin::SerialRingAndDp1 => {
            let serial = Spec {
                serial_ring: true,
                ..*spec
            };
            let (t, _, first) = launch(&serial, model, &batch(0))?;
            let got = replay(&t, first, TWIN_STEPS)?;
            drop(t);
            if let Some(f) = compare("the serial-ring twin", &got) {
                return Ok(Some(f));
            }
            let dp1 = Spec {
                dp: 1,
                mubatches: spec.global_mubatches(),
                ..*spec
            };
            let (_t, _, first) = launch(&dp1, model, &batch(0))?;
            report.note(format!(
                "check: {TWIN_STEPS} steps bitwise equal to a serial-ring twin; step 0 bitwise \
                 equal to dp=1"
            ));
            Ok(compare("the dp=1 twin at step 0", &[first]))
        }
        Twin::Mpsc => {
            let mpsc = Spec {
                transport: TransportKind::Mpsc,
                ..*spec
            };
            let (t, _, first) = launch(&mpsc, model, &batch(0))?;
            let got = replay(&t, first, TWIN_STEPS)?;
            report.note(format!(
                "check: {TWIN_STEPS} steps bitwise equal to an mpsc twin at the same degrees"
            ));
            Ok(compare("the mpsc twin", &got))
        }
    }
}

/// Runs one training workload for `seconds` and reports its end-to-end
/// (`trace == false`) or per-layer metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::default();
    report.note(format!("workload: {}", spec.describe()));
    let model = mlp_chain(spec.width, spec.rows, spec.layers, spec.stages, seed)
        .map_err(|e| format!("{}: model: {e}", spec.name))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Batch> = (0..POOL)
        .map(|_| {
            vec![(0..spec.global_mubatches())
                .map(|_| Tensor::randn([spec.rows, spec.width], 1.0, &mut rng))
                .collect()]
        })
        .collect();
    let batch = |i: usize| pool[i % POOL].clone();

    // Set-up, repeated; the last trainer is the measured one.
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut measured = None;
    for _ in 0..spec.setup_reps {
        drop(measured.take());
        let (t, s, first) = launch(spec, &model, &batch(0))?;
        setups.push(s);
        measured = Some((t, first));
    }
    let (trainer, first) = measured.expect("setup_reps is positive");
    let mut losses = vec![first];
    for i in 1..=WARMUP {
        let r = trainer
            .step(&batch(i))
            .map_err(|e| format!("{}: warm-up step {i}: {e}", spec.name))?;
        losses.push(r.losses);
    }
    let setup_ms =
        |f: fn(&Setup) -> Duration| median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>());

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut acc = StepAcc::default();
    let mut next = WARMUP + 1;
    let mut step = |traced: bool, acc: &mut StepAcc, losses: &mut Vec<Vec<f32>>| {
        attempted += 1;
        let data = batch(next);
        next += 1;
        let t = Instant::now();
        let r = if traced {
            trainer.step_traced(&data).map(|(r, tr)| (r, Some(tr)))
        } else {
            trainer.step(&data).map(|r| (r, None))
        };
        let wall = t.elapsed();
        match r {
            Ok((r, tr)) => {
                acc.add(wall, &r.stats);
                losses.push(r.losses);
                tr
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: step failed: {e}", spec.name);
                None
            }
        }
    };

    let budget = Duration::from_secs_f64(seconds);
    if !trace {
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            step(false, &mut acc, &mut losses);
        }
    } else {
        // Pass timing and isolated kernels first, then alternating
        // untraced/traced steps so machine drift hits both alike.
        time_passes(spec, &model, &mut report)?;
        let program = trainer.runtime().program();
        let instrs: usize = program.actors.iter().map(Vec::len).sum();
        report.set("taskgraph.instrs_per_step", instrs as f64);
        let census = micro::census(&program);
        let iso = micro::measure(&census, seed, Duration::from_millis(40));

        let mut traced_acc = StepAcc::default();
        let mut bubble = Vec::new();
        let mut insitu = micro::InSitu::default();
        let mut proc_acc = procstat::Acc::default();
        let wire0 = trainer.runtime().transport_stats();
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            proc_acc.measure(|| step(false, &mut acc, &mut losses));
            if let Some(tr) = step(true, &mut traced_acc, &mut losses) {
                bubble.push(trainer.bubble_report(&tr).measured_bubble);
                insitu.add(&tr);
            }
        }
        let wire1 = trainer.runtime().transport_stats();
        iso.report(&insitu, &mut report);
        acc.report(&mut report, program.n_actors());
        proc_acc.report(&mut report, cores);
        report.set(
            "sched.ideal_bubble",
            ideal_bubble_ratio(spec.stages, spec.mubatches, 1),
        );
        report.set("runtime.bubble_share", mean(&bubble));
        report.set(
            "runtime.tp_overlap_ratio",
            trainer.metrics().gauge("tp_overlap_ratio").unwrap_or(0.0),
        );
        // Tracing adds no wire traffic, so the volume is over all steps.
        let both = (acc.steps + traced_acc.steps).max(1) as f64;
        report.set(
            "runtime.transport_bytes_per_step",
            wire1.bytes_tx.saturating_sub(wire0.bytes_tx) as f64 / both,
        );
        report.set("runtime.reconnects", wire1.reconnects as f64);
        report.set("core.compile_ms", setup_ms(|s| s.compile));
        report.set("core.init_ms", setup_ms(|s| s.init));
        report.set("core.first_step_ms", setup_ms(|s| s.first_step));
        for name in [
            "serve.batch_fill",
            "serve.batch_ms",
            "serve.forward_ms",
            "serve.queue_depth_max",
            "serve.swap_ms",
            "serve.gen_late_ms",
        ] {
            report.set(name, 0.0);
        }

        let traced_p50 = median(&traced_acc.walls);
        let untraced_p50 = median(&acc.walls);
        report.set("trace.overhead_ratio", traced_p50 / untraced_p50);
        report.note(format!(
            "tracing: {} untraced / {} traced interleaved steps, p50 {untraced_p50:.3} ms vs \
             {traced_p50:.3} ms",
            acc.steps, traced_acc.steps
        ));
    }

    // The closed loop of one caller: every step is a request, so the
    // serving metrics restate step latency and steps per second.
    let ok = acc.steps as f64;
    let p50 = median(&acc.walls);
    let (tail_v, tail_p, n) = tail(&acc.walls).ok_or_else(|| {
        format!(
            "{}: only {} untraced steps; need at least 11",
            spec.name, acc.steps
        )
    })?;
    let step_s: f64 = acc.walls.iter().sum::<f64>() / 1e3;
    report.set("samples_per_s", spec.global_rows() as f64 * ok / step_s);
    report.set("step_p50_ms", p50);
    report.set("step_tail_ms", tail_v);
    report.set("serve_p50_ms", p50);
    report.set("serve_p99_ms", tail_v);
    report.set("serve_max_rps", ok / step_s);
    report.note(format!(
        "step_tail_ms is p{tail_p:.1} of {n} untraced steps; serve_p50_ms, serve_p99_ms and \
         serve_max_rps restate step p50, step tail and steps/s for the one-caller closed loop \
         of training"
    ));
    report.set("setup_s", setup_ms(|s| s.total()) / 1e3);
    report.note(format!(
        "setup: median of {} launches, compile {:.1} ms + init {:.1} ms + first step {:.1} ms",
        setups.len(),
        setup_ms(|s| s.compile),
        setup_ms(|s| s.init),
        setup_ms(|s| s.first_step)
    ));
    let peak: usize = trainer
        .runtime()
        .peak_store_bytes()
        .map_err(|e| format!("{}: peak store: {e}", spec.name))?
        .iter()
        .sum();
    report.set("peak_store_mb", peak as f64 / (1024.0 * 1024.0));
    drop(trainer);
    report.attempted = attempted;
    report.failed = failed;
    report.set(
        "success_rate",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );

    // Correctness, outside the timed region.
    let finite = losses.iter().flatten().all(|l| l.is_finite());
    let twin = check_twin(spec, &model, &batch, &losses[..TWIN_STEPS], &mut report)?;
    if let Some(f) = &twin {
        report.note(format!("check FAILED: {f}"));
    }
    if !finite {
        report.note("check FAILED: a loss is not finite");
    }
    report.correct = twin.is_none() && finite && failed == 0;
    Ok(report)
}
