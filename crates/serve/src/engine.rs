//! The single-threaded serving engine: slot packing, dispatch,
//! padding, weight swaps, and fleet repair.
//!
//! One thread owns the [`ForwardStep`] and processes its mailbox
//! strictly in order. That single-threadedness *is* the weight-swap
//! barrier: a swap message is applied between two dispatches because
//! nothing else can interleave, so a parameter generation is never
//! replaced while a forward is reading it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use raxpp_core::{CoreError, ForwardStep};
use raxpp_ir::Tensor;
use raxpp_runtime::{ActorTrace, RuntimeError, SpanEvent, StepTrace};
use raxpp_sched::SlotPlan;

use crate::server::{Msg, Request};
use crate::{ServeConfig, ServeError};

pub(crate) struct Engine {
    step: ForwardStep,
    cfg: ServeConfig,
    rx: mpsc::Receiver<Msg>,
    queue_depth: Arc<AtomicUsize>,
    last_trace: Arc<Mutex<Option<StepTrace>>>,
    /// The slot ledger of the dispatch being formed.
    plan: SlotPlan,
    /// Requests of the forming dispatch, in slot order.
    batch: Vec<Request>,
    /// Filler tensors for padded slots: zeros of the per-microbatch
    /// data shapes, allocated once (tensors are cheap `Arc` clones).
    pad: Vec<Tensor>,
    /// Most recent request latencies (µs), bounded by
    /// `cfg.latency_window` — the source of the p50/p99 gauges.
    window: VecDeque<u64>,
    /// Reused copy of `window` that the percentile selection reorders.
    scratch: Vec<u64>,
    consecutive_failures: u32,
}

impl Engine {
    pub(crate) fn new(
        step: ForwardStep,
        cfg: ServeConfig,
        rx: mpsc::Receiver<Msg>,
        queue_depth: Arc<AtomicUsize>,
        last_trace: Arc<Mutex<Option<StepTrace>>>,
    ) -> Engine {
        let plan = SlotPlan::new(step.n_mubatches());
        let pad = step
            .data_shapes()
            .iter()
            .map(|s| Tensor::zeros(s.clone()))
            .collect();
        Engine {
            step,
            cfg,
            rx,
            queue_depth,
            last_trace,
            plan,
            batch: Vec::new(),
            pad,
            window: VecDeque::new(),
            scratch: Vec::new(),
            consecutive_failures: 0,
        }
    }

    /// The engine loop. Returns the step on shutdown so the server can
    /// hand it back to the caller.
    pub(crate) fn run(mut self) -> ForwardStep {
        loop {
            let msg = if self.batch.is_empty() {
                // Nothing forming: block until traffic arrives.
                match self.rx.recv() {
                    Ok(m) => m,
                    Err(_) => break, // all senders gone
                }
            } else {
                // A dispatch is forming: wait at most until the oldest
                // request's admission deadline. Once it has passed,
                // keep admitting what is *already queued* (work-
                // conserving: under a backlog every request is past its
                // deadline, and launching each alone would pad the rest
                // of the slots) and pad only when the mailbox is empty.
                let deadline = self.batch[0].enqueued + self.cfg.max_wait;
                let left = deadline.saturating_duration_since(Instant::now());
                let next = if left.is_zero() {
                    self.rx.try_recv().map_err(|e| match e {
                        mpsc::TryRecvError::Empty => mpsc::RecvTimeoutError::Timeout,
                        mpsc::TryRecvError::Disconnected => mpsc::RecvTimeoutError::Disconnected,
                    })
                } else {
                    self.rx.recv_timeout(left)
                };
                match next {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.dispatch();
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        self.dispatch();
                        break;
                    }
                }
            };
            match msg {
                Msg::Request(req) => {
                    self.plan
                        .admit()
                        .expect("a full plan must have been dispatched");
                    self.batch.push(req);
                    if self.plan.is_full() {
                        self.dispatch();
                    }
                }
                Msg::Swap { params, reply } => {
                    let r = self
                        .step
                        .load_params(&params)
                        .map_err(|e| ServeError::Swap(e.to_string()));
                    if r.is_ok() {
                        self.step.metrics().inc("serve_weight_swaps_total", 1);
                    }
                    let _ = reply.send(r);
                }
                Msg::SwapCheckpoint { dir, reply } => {
                    let r = self
                        .step
                        .load_latest_checkpoint(&dir)
                        .map_err(|e| ServeError::Swap(e.to_string()));
                    if matches!(r, Ok(Some(_))) {
                        self.step.metrics().inc("serve_weight_swaps_total", 1);
                    }
                    let _ = reply.send(r);
                }
                Msg::Shutdown => break,
            }
        }
        // Answer everything still queued — a partially formed dispatch
        // and any unread mailbox traffic — so no client blocks forever.
        for req in self.batch.drain(..) {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let _ = req.reply.send(Err(ServeError::ShuttingDown));
        }
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                Msg::Request(req) => {
                    self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::Swap { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::SwapCheckpoint { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::Shutdown => {}
            }
        }
        self.step
    }

    /// Launches the forming dispatch: pads the free slots, runs one
    /// forward step, demuxes each filled slot's outputs to its ticket
    /// (padded outputs are discarded), and updates the latency gauges.
    /// On failure, errors every carried request (bounded wait) and
    /// repairs the fleet for the next dispatch.
    fn dispatch(&mut self) {
        debug_assert!(!self.batch.is_empty(), "nothing to dispatch");
        let metrics = self.step.metrics().clone();
        metrics.inc("serve_padded_slots_total", self.plan.padded() as u64);
        metrics.set_gauge("serve_slot_utilization", self.plan.utilization());

        // data[input][slot]: filled slots carry request tensors, the
        // padded tail carries zero filler whose outputs nobody reads.
        let n_inputs = self.pad.len();
        let mut data: Vec<Vec<Tensor>> = vec![Vec::with_capacity(self.plan.n_slots()); n_inputs];
        for req in &self.batch {
            for (i, t) in req.inputs.iter().enumerate() {
                data[i].push(t.clone());
            }
        }
        for _ in self.plan.padded_slots() {
            for (i, p) in self.pad.iter().enumerate() {
                data[i].push(p.clone());
            }
        }

        let t0 = Instant::now();
        let result = self.step.forward(&data);
        metrics.observe("serve_batch_time_s", t0.elapsed().as_secs_f64());
        match result {
            Ok(outputs) => {
                self.consecutive_failures = 0;
                metrics.inc("serve_batches_total", 1);
                // Latency of each carried request, admission -> reply.
                let lat_ns: Vec<u64> = self
                    .batch
                    .iter()
                    .map(|r| r.enqueued.elapsed().as_nanos() as u64)
                    .collect();
                self.record_trace(&lat_ns);
                for (slot, req) in self.batch.drain(..).enumerate() {
                    let out = outputs.iter().map(|row| row[slot].clone()).collect();
                    // Depth drops before the reply is sent: a client
                    // woken by its ticket must never observe its own
                    // request still counted as queued.
                    self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    let _ = req.reply.send(Ok(out));
                    metrics.inc("serve_replies_total", 1);
                }
                for ns in &lat_ns {
                    if self.window.len() == self.cfg.latency_window.max(1) {
                        self.window.pop_front();
                    }
                    self.window.push_back(ns / 1_000);
                }
                self.scratch.clear();
                self.scratch.extend(&self.window);
                metrics.set_gauge("serve_p50_us", select_percentile(&mut self.scratch, 50.0));
                metrics.set_gauge("serve_p99_us", select_percentile(&mut self.scratch, 99.0));
            }
            Err(e) => {
                self.consecutive_failures += 1;
                metrics.inc("serve_failed_batches_total", 1);
                let msg = e.to_string();
                for req in self.batch.drain(..) {
                    self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(ServeError::Dispatch(msg.clone())));
                    metrics.inc("serve_request_failures_total", 1);
                }
                self.repair(&e);
            }
        }
        metrics.set_gauge(
            "serve_queue_depth",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        self.plan.reset();
    }

    /// Degraded-mode ladder after a failed dispatch: respawn dead
    /// actors in place, or — once `rebalance_after` consecutive
    /// dispatches failed and the culprit is known — permanently fold
    /// its stages onto survivors. Either way the current weight
    /// generation is re-placed, so the next dispatch answers from the
    /// same weights.
    fn repair(&mut self, e: &CoreError) {
        let dead = match e {
            CoreError::Runtime(RuntimeError::ActorDied { actor })
            | CoreError::Runtime(RuntimeError::Exec { actor, .. })
            | CoreError::Runtime(RuntimeError::Timeout { actor }) => Some(*actor),
            _ => None,
        };
        if let (Some(actor), Some(after)) = (dead, self.cfg.rebalance_after) {
            if self.consecutive_failures >= after && self.step.rebalance(&[actor]).is_ok() {
                self.consecutive_failures = 0;
                return;
            }
        }
        let _ = self.step.recover();
    }

    /// When the runtime traced this dispatch, appends the serving
    /// tier's pseudo-actor track — one `"serve"` span per carried
    /// request, admission to reply — and parks the merged trace for
    /// [`crate::Server::take_step_trace`]. Trace schema v7.
    fn record_trace(&self, lat_ns: &[u64]) {
        if !self.step.runtime().tracing_enabled() {
            return;
        }
        let Some(mut trace) = self.step.runtime().take_step_trace() else {
            return;
        };
        let now_ns = self.step.runtime().now_ns();
        let track = self.step.runtime().program().n_actors();
        let spans = self
            .batch
            .iter()
            .zip(lat_ns)
            .enumerate()
            .map(|(slot, (req, &ns))| SpanEvent {
                instr: slot as u32,
                kind: "serve",
                name: format!("request {} (slot {slot})", req.id),
                start_ns: now_ns.saturating_sub(ns),
                dur_ns: ns,
                bytes: 0,
                alloc: None,
            })
            .collect();
        trace.actors.push(ActorTrace {
            actor: track,
            spans,
            dropped: 0,
        });
        *self.last_trace.lock().unwrap() = Some(trace);
    }
}

/// 0-based index of the nearest-rank `p`-th percentile in a sample of
/// `len > 0` values.
fn nearest_rank(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Nearest-rank percentile of an unsorted sample (µs); 0 for an empty
/// window. Selects in O(n) and reorders `sample`, which keeps its
/// values, so it can be queried again for another `p`.
fn select_percentile(sample: &mut [u64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let idx = nearest_rank(sample.len(), p);
    *sample.select_nth_unstable(idx).1 as f64
}

/// Nearest-rank percentile of an ascending-sorted sample (µs); 0 for
/// an empty window. The oracle that [`select_percentile`] is checked
/// against.
#[cfg(test)]
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p)] as f64
}

#[cfg(test)]
mod tests {
    use super::{percentile, select_percentile, Engine};
    use crate::server::{Msg, Request};
    use crate::ServeConfig;
    use raxpp_core::{compile_forward_step, ForwardOptions, ForwardStep};
    use raxpp_ir::{Tensor, TraceCtx};
    use raxpp_sched::gpipe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn selected_percentiles_equal_the_sorted_nearest_rank() {
        // SplitMix64: a seeded, dependency-free source of test windows.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        assert_eq!(select_percentile(&mut [], 50.0), 0.0);
        for len in [1, 2, 3, 7, 100, 1023, 1024] {
            // Wide values, then a narrow range that forces duplicates.
            for modulus in [u64::MAX, 8] {
                let window: Vec<u64> = (0..len).map(|_| next() % modulus).collect();
                let mut sorted = window.clone();
                sorted.sort_unstable();
                // One buffer queried for several ranks in turn, as
                // `dispatch` does for p50 then p99.
                let mut scratch = window;
                for p in [50.0, 99.0, 0.0, 1.0, 100.0] {
                    assert_eq!(
                        select_percentile(&mut scratch, p),
                        percentile(&sorted, p),
                        "len {len}, modulus {modulus}, p{p}"
                    );
                }
            }
        }
    }

    /// loss = 0.5 * Σ (tanh(x@w1) @ w2)², prediction served as aux output.
    fn forward_step(n_slots: usize) -> ForwardStep {
        let ctx = TraceCtx::new();
        let w1 = ctx.input([4, 4]);
        let w2 = ctx.input([4, 4]);
        let x = ctx.input([2, 4]);
        let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap().tanh());
        let y = h.matmul(&w2).unwrap();
        let loss = y.mul(&y).unwrap().sum().scale(0.5);
        let jaxpr = ctx.finish(&[loss, y]).unwrap();
        let step = compile_forward_step(
            &jaxpr,
            2,
            &gpipe(2, n_slots).unwrap(),
            ForwardOptions::default(),
        )
        .unwrap();
        step.load_params(&params(1.0)).unwrap();
        step
    }

    fn params(scale: f32) -> Vec<Tensor> {
        vec![
            Tensor::from_vec([4, 4], (0..16).map(|i| scale * 0.05 * i as f32).collect()).unwrap(),
            Tensor::from_vec(
                [4, 4],
                (0..16).map(|i| scale * 0.03 * (i % 5) as f32).collect(),
            )
            .unwrap(),
        ]
    }

    fn request(i: usize) -> Tensor {
        Tensor::from_vec([2, 4], (0..8).map(|j| 0.1 * (i * 8 + j) as f32).collect()).unwrap()
    }

    #[test]
    fn a_backlog_past_its_deadline_fills_every_dispatch() {
        const SLOTS: usize = 4;
        let max_wait = Duration::from_millis(2);
        // Every queued request is already past its admission deadline,
        // as under a backlog the engine cannot keep up with.
        let enqueued = Instant::now() - 10 * max_wait;
        let (tx, rx) = mpsc::channel();
        let submit = |i: usize| {
            let (reply, ticket) = mpsc::channel();
            tx.send(Msg::Request(Request {
                id: i as u64,
                inputs: vec![request(i)],
                enqueued,
                reply,
            }))
            .unwrap();
            ticket
        };
        let mut tickets: Vec<_> = (0..SLOTS).map(submit).collect();
        let (swap_reply, swapped) = mpsc::channel();
        tx.send(Msg::Swap {
            params: params(2.0),
            reply: swap_reply,
        })
        .unwrap();
        tickets.extend((SLOTS..2 * SLOTS).map(submit));
        tx.send(Msg::Shutdown).unwrap();

        let queue_depth = Arc::new(AtomicUsize::new(2 * SLOTS));
        let step = Engine::new(
            forward_step(SLOTS),
            ServeConfig {
                max_wait,
                ..ServeConfig::default()
            },
            rx,
            Arc::clone(&queue_depth),
            Arc::new(Mutex::new(None)),
        )
        .run();
        swapped.recv().unwrap().unwrap();
        let metrics = step.metrics();
        assert_eq!(
            metrics.counter("serve_batches_total"),
            2,
            "one dispatch per group"
        );
        assert_eq!(
            metrics.counter("serve_padded_slots_total"),
            0,
            "no slot padded"
        );
        assert_eq!(metrics.counter("serve_weight_swaps_total"), 1);
        assert_eq!(queue_depth.load(Ordering::Relaxed), 0);

        // The groups straddle the swap: the first is answered by the old
        // generation, the second by the new one, bitwise.
        let direct = forward_step(SLOTS);
        let old = direct
            .forward(&[(0..SLOTS).map(request).collect()])
            .unwrap();
        direct.load_params(&params(2.0)).unwrap();
        let new = direct
            .forward(&[(SLOTS..2 * SLOTS).map(request).collect()])
            .unwrap();
        let first_on_new = direct
            .forward(&[(0..SLOTS).map(request).collect()])
            .unwrap();
        assert_ne!(
            old[1][0].data(),
            first_on_new[1][0].data(),
            "weights actually changed"
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.recv().unwrap().unwrap();
            let (want, slot) = if i < SLOTS {
                (&old, i)
            } else {
                (&new, i - SLOTS)
            };
            for (o, tensor) in got.iter().enumerate() {
                assert_eq!(
                    tensor.data(),
                    want[o][slot].data(),
                    "output {o} of request {i} must match its generation bitwise"
                );
            }
        }
    }
}
