//! The serving workload `serve_open`: a 2-stage [256,256] forward-only
//! model behind `raxpp-serve`, 4 slots, `max_wait` 1 ms, driven by an
//! open loop of seeded Poisson arrivals over a ladder of offered rates,
//! with `swap_weights` issued at a fixed interval beside the reads.
//!
//! Load comes from two threads: a generator that submits each request
//! at its due time and a collector that waits the tickets in order.
//! Latency is timed from the due time, so a stall also charges the
//! requests queued behind it. The main thread issues the weight swaps.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use raxpp_core::bubble_report;
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{Jaxpr, Tensor, TraceCtx};
use raxpp_sched::{gpipe, ideal_bubble_ratio};
use raxpp_serve::{
    compile_forward_step, ForwardOptions, ForwardStep, ServeConfig, ServeError, Server, Ticket,
};
use raxpp_taskgraph::{forward_project, insert_frees, pipeline_model, unroll_loop, UnrollOptions};

use crate::layers::{PassTimes, StepAcc};
use crate::micro;
use crate::procstat;
use crate::report::Report;
use crate::stats::{mean, median, ms, percentile, tail};

const WIDTH: usize = 256;
const ROWS: usize = 8;
const STAGES: usize = 2;
const SLOTS: usize = 4;
const MAX_WAIT: Duration = Duration::from_millis(1);
/// Offered rates in req/s; the first is the base rung.
const LADDER: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
/// Requests each rung sends per round. The base rung's 1,000 give its
/// p99 ten samples beyond it in every round; the top rung's 2,000 keep
/// the server overloaded long enough to time its sustained throughput.
const RUNG_REQUESTS: [usize; 5] = [1000, 500, 1000, 500, 2000];
/// One round of the ladder per this many seconds of `--seconds`: a
/// round's send windows plus the backlog its overloaded rungs drain
/// take about 7 s on a 2-core host.
const SECONDS_PER_ROUND: f64 = 6.5;
/// A round is invalid when its median submission lateness exceeds this.
const GENERATOR_BEHIND_MS: f64 = 1.0;
/// The latency limit a rung's p99 must meet.
const LIMIT_MS: f64 = 10.0;
/// Interval between weight swaps.
const SWAP_EVERY: Duration = Duration::from_millis(200);
/// Distinct request tensors; every `SAMPLE_EVERY`-th reply is checked.
const POOL: usize = 16;
const SAMPLE_EVERY: usize = 8;
const SETUP_REPS: usize = 15;
/// Share of the measured interval spent timing `ForwardStep::forward`.
const FORWARD_SHARE: f64 = 0.1;

/// The served model: loss = 0.5 Σ y², y = tanh(x@w1) @ w2, two
/// pipeline stages, the prediction served as aux output.
fn model() -> Jaxpr {
    let ctx = TraceCtx::new();
    let w1 = ctx.input([WIDTH, WIDTH]);
    let w2 = ctx.input([WIDTH, WIDTH]);
    let x = ctx.input([ROWS, WIDTH]);
    let h = ctx.pipeline_yield(&x.matmul(&w1).expect("square shapes").tanh());
    let y = h.matmul(&w2).expect("square shapes");
    let loss = y.mul(&y).expect("same shapes").sum().scale(0.5);
    ctx.finish(&[loss, y]).expect("a well-formed trace")
}

fn compile(jaxpr: &Jaxpr, slots: usize) -> Result<ForwardStep, String> {
    let schedule = gpipe(STAGES, slots).map_err(|e| e.to_string())?;
    compile_forward_step(jaxpr, 2, &schedule, ForwardOptions::default())
        .map_err(|e| format!("serve_open: compile: {e}"))
}

#[derive(Debug, Clone, Copy)]
struct Setup {
    compile: Duration,
    init: Duration,
    first_reply: Duration,
}

/// Compile → `load_params` → `Server::start` → first reply.
fn launch(jaxpr: &Jaxpr, weights: &[Tensor], probe: &Tensor) -> Result<(Server, Setup), String> {
    let t0 = Instant::now();
    let step = compile(jaxpr, SLOTS)?;
    let t1 = Instant::now();
    step.load_params(weights)
        .map_err(|e| format!("serve_open: load_params: {e}"))?;
    let t2 = Instant::now();
    let server = Server::start(
        step,
        ServeConfig {
            max_wait: MAX_WAIT,
            ..ServeConfig::default()
        },
    );
    server
        .infer(vec![probe.clone()])
        .map_err(|e| format!("serve_open: first reply: {e}"))?;
    let t3 = Instant::now();
    Ok((
        server,
        Setup {
            compile: t1 - t0,
            init: t2 - t1,
            first_reply: t3 - t2,
        },
    ))
}

/// Seeded Poisson arrivals conditioned on their count: `n` sorted
/// uniform offsets (seconds) over the window `n / rate`.
fn arrivals(rate: f64, n: usize, rng: &mut StdRng) -> Vec<f64> {
    let window = n as f64 / rate;
    let mut v: Vec<f64> = (0..n).map(|_| rng.next_f64() * window).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("offsets are finite"));
    v
}

enum Item {
    Req {
        due: Instant,
        ticket: Result<Ticket, ServeError>,
        input: usize,
        sample: bool,
    },
    EndOfRung,
}

/// What the collector saw of one rung.
#[derive(Debug, Default)]
struct Replies {
    /// Due → reply, ms; a failed or refused request counts as +inf.
    latencies: Vec<f64>,
    ok: u64,
    failed: u64,
    last: Option<Instant>,
}

/// One round of one rung.
#[derive(Debug)]
struct RungRound {
    rung: usize,
    start: Instant,
    replies: Replies,
    /// How late the generator submitted each request, ms.
    late_ms: Vec<f64>,
    /// Mean polled queue depth over the first and second half of sends.
    depth_halves: (f64, f64),
    depth_max: usize,
    requests: u64,
    dispatches: u64,
}

impl RungRound {
    fn p(&self, pct: f64) -> f64 {
        percentile(&self.replies.latencies, pct)
    }

    fn late_max_ms(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }

    /// The generator fell behind the schedule rather than through a
    /// passing stall: half of the round's requests went out late.
    fn generator_behind(&self) -> bool {
        median(&self.late_ms) > GENERATOR_BEHIND_MS
    }

    /// The backlog grew when the second half of the sends saw a queue
    /// deeper than the first half's by more than one full dispatch.
    fn backlog_grew(&self) -> bool {
        self.depth_halves.1 > self.depth_halves.0 + SLOTS as f64
    }

    /// Replies per second from the round's start to its last reply.
    fn achieved_rps(&self) -> f64 {
        let end = self.replies.last.unwrap_or(self.start);
        self.replies.ok as f64 / end.duration_since(self.start).as_secs_f64().max(1e-9)
    }
}

/// One rung over every round: medians across rounds, so a host stall
/// in one round does not decide the rung.
#[derive(Debug)]
struct Rung<'a> {
    rate: f64,
    rounds: Vec<&'a RungRound>,
}

impl Rung<'_> {
    fn median_of(&self, f: impl Fn(&RungRound) -> f64) -> f64 {
        median(&self.rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    }

    fn p50(&self) -> f64 {
        self.median_of(|r| r.p(50.0))
    }

    fn p99(&self) -> f64 {
        self.median_of(|r| r.p(99.0))
    }

    fn sent(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.replies.ok + r.replies.failed)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.replies.failed).sum()
    }

    /// The backlog grew in most rounds.
    fn backlog_grew(&self) -> bool {
        2 * self.rounds.iter().filter(|r| r.backlog_grew()).count() > self.rounds.len()
    }

    /// No failure, median p99 within the limit, and no growing backlog.
    fn passes(&self) -> bool {
        self.failed() == 0 && self.p99() <= LIMIT_MS && !self.backlog_grew()
    }

    fn achieved_rps(&self) -> f64 {
        self.median_of(RungRound::achieved_rps)
    }

    fn requests_dispatches(&self) -> (u64, u64) {
        self.rounds
            .iter()
            .fold((0, 0), |(q, d), r| (q + r.requests, d + r.dispatches))
    }

    fn fill(&self) -> f64 {
        let (q, d) = self.requests_dispatches();
        q as f64 / (d.max(1) * SLOTS as u64) as f64
    }
}

struct Ladder {
    /// Every round of every rung, in the order they ran.
    rounds: Vec<RungRound>,
    /// `(pool index, reply outputs)` of every sampled request.
    samples: Vec<(usize, Vec<Tensor>)>,
    swap_ms: Vec<f64>,
    swap_failures: u64,
    /// Peak process thread count while the load threads ran.
    threads: usize,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn counters(server: &Server) -> (u64, u64) {
    let m = server.metrics();
    (
        m.counter("serve_requests_total"),
        m.counter("serve_batches_total"),
    )
}

/// Runs the planned rung rounds in order, each drained before the
/// next starts, while the calling thread swaps weights.
fn run_ladder(
    server: &Server,
    pool: &[Tensor],
    plan: &[(usize, Vec<f64>)],
    generations: [&[Tensor]; 2],
) -> Ladder {
    let (tx, rx) = mpsc::channel::<Item>();
    let (done_tx, done_rx) = mpsc::channel::<Replies>();
    let (fin_tx, fin_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut samples = Vec::new();
            let mut cur = Replies::default();
            for item in rx {
                match item {
                    Item::Req {
                        due,
                        ticket,
                        input,
                        sample,
                    } => {
                        let r = ticket.and_then(Ticket::wait);
                        let now = Instant::now();
                        cur.last = Some(now);
                        match r {
                            Ok(out) => {
                                cur.ok += 1;
                                cur.latencies.push(ms(now.duration_since(due)));
                                if sample {
                                    samples.push((input, out));
                                }
                            }
                            Err(_) => {
                                cur.failed += 1;
                                cur.latencies.push(f64::INFINITY);
                            }
                        }
                    }
                    Item::EndOfRung => {
                        if done_tx.send(std::mem::take(&mut cur)).is_err() {
                            break;
                        }
                    }
                }
            }
            samples
        });
        let generator = s.spawn(move || {
            let mut rounds = Vec::new();
            for (r, (rung, offsets)) in plan.iter().enumerate() {
                let (req0, batch0) = counters(server);
                let start = Instant::now() + Duration::from_millis(2);
                let mut late_ms = Vec::with_capacity(offsets.len());
                let mut depths = Vec::with_capacity(offsets.len());
                for (i, &off) in offsets.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(off);
                    sleep_until(due);
                    let input = (i + 7 * r) % POOL;
                    let ticket = server.submit(vec![pool[input].clone()]);
                    late_ms.push(ms(Instant::now().saturating_duration_since(due)));
                    depths.push(server.queue_depth());
                    let item = Item::Req {
                        due,
                        ticket,
                        input,
                        sample: i % SAMPLE_EVERY == 0,
                    };
                    tx.send(item).expect("the collector outlives the generator");
                }
                tx.send(Item::EndOfRung)
                    .expect("the collector outlives the generator");
                let replies = done_rx.recv().expect("the collector answers every rung");
                let (req1, batch1) = counters(server);
                let half = depths.len() / 2;
                let as_f64 = |d: &[usize]| d.iter().map(|&x| x as f64).collect::<Vec<_>>();
                rounds.push(RungRound {
                    rung: *rung,
                    start,
                    replies,
                    late_ms,
                    depth_halves: (
                        mean(&as_f64(&depths[..half])),
                        mean(&as_f64(&depths[half..])),
                    ),
                    depth_max: depths.iter().copied().max().unwrap_or(0),
                    requests: req1 - req0,
                    dispatches: batch1 - batch0,
                });
            }
            drop(tx);
            drop(fin_tx);
            rounds
        });

        // Writes beside the reads: alternate weight generations.
        let (mut swap_ms, mut swap_failures, mut k) = (Vec::new(), 0u64, 1usize);
        let mut threads = 0;
        while let Err(mpsc::RecvTimeoutError::Timeout) = fin_rx.recv_timeout(SWAP_EVERY) {
            let t = Instant::now();
            match server.swap_weights(generations[k % 2].to_vec()) {
                Ok(()) => swap_ms.push(ms(t.elapsed())),
                Err(_) => swap_failures += 1,
            }
            k += 1;
            threads = threads.max(procstat::threads());
        }
        Ladder {
            rounds: generator.join().expect("generator thread panicked"),
            samples: collector.join().expect("collector thread panicked"),
            swap_ms,
            swap_failures,
            threads,
        }
    })
}

/// Outputs of each pool request served alone through a 1-slot program,
/// per weight generation: `[generation][pool index][output]`.
fn unbatched(
    jaxpr: &Jaxpr,
    pool: &[Tensor],
    generations: [&[Tensor]; 2],
) -> Result<Vec<Vec<Vec<Tensor>>>, String> {
    let single = compile(jaxpr, 1)?;
    generations
        .iter()
        .map(|g| {
            single.load_params(g).map_err(|e| e.to_string())?;
            pool.iter()
                .map(|x| {
                    let out = single
                        .forward(&[vec![x.clone()]])
                        .map_err(|e| format!("serve_open: unbatched forward: {e}"))?;
                    Ok(out.into_iter().map(|mut row| row.remove(0)).collect())
                })
                .collect()
        })
        .collect()
}

fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The public passes `compile_forward_step` runs, timed one by one.
fn time_passes(jaxpr: &Jaxpr, report: &mut Report) -> Result<(), String> {
    let schedule = gpipe(STAGES, SLOTS).map_err(|e| e.to_string())?;
    PassTimes::measure(report, |p| {
        let pm = p
            .time("pipeline_model", || pipeline_model(jaxpr, 2))
            .map_err(|e| e.to_string())?;
        let unrolled = p
            .time("unroll_loop", || {
                unroll_loop(&pm, &schedule, UnrollOptions::default())
            })
            .map_err(|e| e.to_string())?
            .program;
        let mut program = p
            .time("forward_project", || forward_project(&unrolled))
            .map_err(|e| e.to_string())?;
        p.time("insert_frees", || insert_frees(&mut program));
        Ok(())
    })
}

/// Runs `serve_open` for about `seconds` and reports its end-to-end
/// (`trace == false`) or per-layer metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::default();
    report.note(format!(
        "workload: {STAGES}-stage forward-only MLP [{WIDTH},{WIDTH}], requests [{ROWS},{WIDTH}], \
         {SLOTS} slots, max_wait {MAX_WAIT:?}, open loop of Poisson arrivals over {LADDER:?} \
         req/s, a weight swap every {SWAP_EVERY:?}"
    ));
    let jaxpr = model();
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_a: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([WIDTH, WIDTH], 0.05, &mut rng))
        .collect();
    let gen_b: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([WIDTH, WIDTH], 0.05, &mut rng))
        .collect();
    let pool: Vec<Tensor> = (0..POOL)
        .map(|_| Tensor::randn([ROWS, WIDTH], 1.0, &mut rng))
        .collect();
    // Rounds of the whole ladder, rungs interleaved in time so drift of
    // the machine hits every rung alike.
    let rounds = ((seconds / SECONDS_PER_ROUND).round() as usize).max(1);
    let plan: Vec<(usize, Vec<f64>)> = (0..rounds)
        .flat_map(|_| 0..LADDER.len())
        .map(|i| (i, arrivals(LADDER[i], RUNG_REQUESTS[i], &mut rng)))
        .collect();
    // The standalone serving step: ForwardStep::forward at 4 slots.
    let fstep = compile(&jaxpr, SLOTS)?;
    fstep.load_params(&gen_a).map_err(|e| e.to_string())?;
    let data = vec![pool[..SLOTS].to_vec()];
    let forward = || {
        fstep
            .forward(&data)
            .map_err(|e| format!("serve_open: forward: {e}"))
    };
    for _ in 0..20 {
        forward()?;
    }
    let fwd_budget = Duration::from_secs_f64(FORWARD_SHARE * seconds);
    let mut fwd_walls = Vec::new();
    if trace {
        time_passes(&jaxpr, &mut report)?;
        let program = fstep.runtime().program();
        let instrs: usize = program.actors.iter().map(Vec::len).sum();
        report.set("taskgraph.instrs_per_step", instrs as f64);
        let iso = micro::measure(&micro::census(&program), seed, Duration::from_millis(40));
        let mut insitu = micro::InSitu::default();
        let (mut traced_walls, mut bubble) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while t0.elapsed() < fwd_budget {
            let t = Instant::now();
            forward()?;
            fwd_walls.push(ms(t.elapsed()));
            fstep.runtime().set_tracing(true);
            let t = Instant::now();
            let r = forward();
            traced_walls.push(ms(t.elapsed()));
            fstep.runtime().set_tracing(false);
            r?;
            let tr = fstep
                .runtime()
                .take_step_trace()
                .ok_or("serve_open: a traced forward recorded no trace")?;
            bubble.push(bubble_report(&tr, fstep.schedule()).measured_bubble);
            insitu.add(&tr);
        }
        iso.report(&insitu, &mut report);
        let untraced = median(&fwd_walls);
        report.set("serve.forward_ms", untraced);
        report.set("trace.overhead_ratio", median(&traced_walls) / untraced);
        report.note(format!(
            "tracing: {} untraced / {} traced interleaved forwards, p50 {untraced:.3} ms vs \
             {:.3} ms",
            fwd_walls.len(),
            traced_walls.len(),
            median(&traced_walls)
        ));
        report.set("runtime.bubble_share", mean(&bubble));
        report.set("sched.ideal_bubble", ideal_bubble_ratio(STAGES, SLOTS, 1));
        // Runtime-level accounting of the same step.
        let mut acc = StepAcc::default();
        for _ in 0..fwd_walls.len().clamp(20, 200) {
            let t = Instant::now();
            let out = fstep
                .runtime()
                .step(&data)
                .map_err(|e| format!("serve_open: runtime step: {e}"))?;
            acc.add(t.elapsed(), &out.stats);
        }
        acc.report(&mut report, program.n_actors());
        report.set("runtime.tp_overlap_ratio", 0.0);
        report.set("runtime.transport_bytes_per_step", 0.0);
        report.set(
            "runtime.reconnects",
            fstep.runtime().transport_stats().reconnects as f64,
        );
    } else {
        let t0 = Instant::now();
        while t0.elapsed() < fwd_budget {
            let t = Instant::now();
            forward()?;
            fwd_walls.push(ms(t.elapsed()));
        }
        let (v, p, n) = tail(&fwd_walls).ok_or("serve_open: too few forwards for a tail")?;
        report.set("step_p50_ms", median(&fwd_walls));
        report.set("step_tail_ms", v);
        report.note(format!(
            "step_p50_ms/step_tail_ms time ForwardStep::forward at {SLOTS} slots back to back; \
             the tail is p{p:.1} of {n}"
        ));
    }
    // Check the batched step against the unbatched program too.
    let slot_outputs = forward()?;
    drop(fstep);

    // Set-up, repeated; the last server is the measured one.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            drop(Server::shutdown(s));
        }
        let (s, setup) = launch(&jaxpr, &gen_a, &pool[0])?;
        setups.push(setup);
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS is positive");
    let setup_ms =
        |f: fn(&Setup) -> Duration| median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>());
    let total = |s: &Setup| s.compile + s.init + s.first_reply;
    report.set("setup_s", setup_ms(total) / 1e3);
    report.note(format!(
        "setup: median of {SETUP_REPS} launches, compile {:.2} ms + load_params {:.2} ms + \
         Server::start and first reply {:.2} ms",
        setup_ms(|s| s.compile),
        setup_ms(|s| s.init),
        setup_ms(|s| s.first_reply)
    ));

    let mut proc_acc = procstat::Acc::default();
    let ladder = proc_acc.measure(|| run_ladder(&server, &pool, &plan, [&gen_a, &gen_b]));
    let batch_ms = server
        .metrics()
        .histogram("serve_batch_time_s")
        .map(|h| h.mean() * 1e3)
        .unwrap_or(0.0);
    let step = server.shutdown();
    let peak: usize = step
        .runtime()
        .peak_store_bytes()
        .map_err(|e| format!("serve_open: peak store: {e}"))?
        .iter()
        .sum();
    drop(step);
    report.set("peak_store_mb", peak as f64 / (1024.0 * 1024.0));

    let rungs: Vec<Rung> = LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| Rung {
            rate,
            rounds: ladder.rounds.iter().filter(|r| r.rung == i).collect(),
        })
        .collect();
    for r in &rungs {
        let (requests, dispatches) = r.requests_dispatches();
        let late = r.rounds.iter().map(|x| x.late_max_ms()).fold(0.0, f64::max);
        let late_p50 = r.median_of(|x| median(&x.late_ms));
        let depth = r.rounds.iter().map(|x| x.depth_max).max().unwrap_or(0);
        let grew = r.rounds.iter().filter(|x| x.backlog_grew()).count();
        report.note(format!(
            "rung {:>4.0} req/s × {rounds} rounds: sent {} ok {} failed {}, p50 {:.3} ms, p99 {:.3} ms \
             (medians over rounds; per-round p99 {}), achieved {:.1} req/s, fill {:.3} ({requests} \
             requests in {dispatches} dispatches), backlog grew in {grew} of {rounds} rounds, queue \
             depth max {depth}, generator late p50 {late_p50:.3} ms max {late:.3} ms → {}",
            r.rate,
            r.sent(),
            r.sent() - r.failed(),
            r.failed(),
            r.p50(),
            r.p99(),
            r.rounds
                .iter()
                .map(|x| format!("{:.2}", x.p(99.0)))
                .collect::<Vec<_>>()
                .join("/"),
            r.achieved_rps(),
            r.fill(),
            if r.passes() { "meets the limit" } else { "misses the limit" },
        ));
    }
    let base = &rungs[0];
    let best = rungs.iter().rev().find(|r| r.passes());
    let max_rps = best.map(Rung::achieved_rps).unwrap_or(0.0);
    let (attempted, failed) = rungs
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.sent(), f + r.failed()));
    report.attempted = attempted;
    report.failed = failed;

    if base.failed() > 0 {
        return Err("serve_open: requests failed at the base rung".into());
    }
    let top = rungs.last().expect("the ladder has rungs");
    report.set("serve_p50_ms", base.p50());
    report.set("serve_p99_ms", base.p99());
    report.set("serve_max_rps", max_rps);
    report.set("samples_per_s", ROWS as f64 * top.achieved_rps());
    report.set(
        "success_rate",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    report.note(format!(
        "serve_max_rps: achieved rate of the {} req/s rung, the highest whose median p99 ≤ \
         {LIMIT_MS} ms with no growing backlog; samples_per_s: rows per second completed at the \
         {} req/s rung ({ROWS} per request), the throughput the server sustains when overloaded",
        best.map(|r| r.rate).unwrap_or(0.0),
        top.rate
    ));
    if trace {
        let (requests, dispatches) = rungs.iter().fold((0, 0), |(q, d), r| {
            let (rq, rd) = r.requests_dispatches();
            (q + rq, d + rd)
        });
        report.set(
            "serve.batch_fill",
            requests as f64 / (dispatches.max(1) * SLOTS as u64) as f64,
        );
        report.set("serve.batch_ms", batch_ms);
        let depth_max = ladder.rounds.iter().map(|r| r.depth_max).max().unwrap_or(0);
        report.set("serve.queue_depth_max", depth_max as f64);
        report.set("serve.swap_ms", median(&ladder.swap_ms));
        proc_acc.count_ops(dispatches);
        proc_acc.report(&mut report, cores);
        report.set("proc.threads", ladder.threads as f64);
        report.set("core.compile_ms", setup_ms(|s| s.compile));
        report.set("core.init_ms", setup_ms(|s| s.init));
        report.set("core.first_step_ms", setup_ms(|s| s.first_reply));
    }
    let late = ladder
        .rounds
        .iter()
        .map(RungRound::late_max_ms)
        .fold(0.0, f64::max);
    report.set("serve.gen_late_ms", late);
    report.note(format!(
        "{} weight swaps, median {:.3} ms; {} failed",
        ladder.swap_ms.len(),
        median(&ladder.swap_ms),
        ladder.swap_failures
    ));

    // Correctness, outside the timed region: every sampled reply and the
    // standalone 4-slot step bitwise equal to the unbatched program
    // under one of the two generations.
    let want = unbatched(&jaxpr, &pool, [&gen_a, &gen_b])?;
    let mut bad = Vec::new();
    for (input, out) in &ladder.samples {
        if !want.iter().any(|g| same_bits(out, &g[*input])) {
            bad.push(*input);
        }
    }
    for slot in 0..SLOTS {
        let out: Vec<Tensor> = slot_outputs.iter().map(|row| row[slot].clone()).collect();
        if !same_bits(&out, &want[0][slot]) {
            bad.push(slot);
        }
    }
    report.note(format!(
        "check: {} sampled replies and {SLOTS} standalone slots against an unbatched 1-slot \
         ForwardStep: {} mismatches",
        ladder.samples.len(),
        bad.len()
    ));
    let behind = ladder
        .rounds
        .iter()
        .filter(|r| r.generator_behind())
        .count();
    if behind > 0 {
        report.note(format!(
            "check FAILED: the generator fell behind its schedule (median lateness above \
             {GENERATOR_BEHIND_MS} ms) in {behind} rung rounds; the offered load was not offered"
        ));
    }
    report.correct =
        bad.is_empty() && ladder.swap_failures == 0 && !ladder.samples.is_empty() && behind == 0;
    Ok(report)
}
