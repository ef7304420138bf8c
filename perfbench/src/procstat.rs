//! Process counters as the OS sees them: CPU time, page faults and
//! thread count. Read through `extern "C"` declarations of libc (which
//! std already links) and `/proc/self/status`, so the benchmark needs no
//! dependency beyond the repository's own crates.

use std::time::{Duration, Instant};

use crate::report::Report;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals followed
/// by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// One reading of the process counters.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Process CPU time (all threads), from `CLOCK_PROCESS_CPUTIME_ID`.
    cpu: Duration,
    /// User CPU time, from `getrusage`.
    user: Duration,
    /// System CPU time, from `getrusage`.
    sys: Duration,
    /// Minor page faults so far.
    minor_faults: u64,
}

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
}

/// Reads the process counters now.
fn sample() -> Sample {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    // SAFETY: both pointers refer to live, writable structs laid out as
    // the kernel ABI expects (`struct timespec` and `struct rusage` on
    // 64-bit Linux); the calls write nothing beyond them.
    let (rc_clock, rc_usage) = unsafe {
        (
            clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts),
            getrusage(RUSAGE_SELF, &mut ru),
        )
    };
    assert_eq!(
        rc_clock, 0,
        "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed"
    );
    assert_eq!(rc_usage, 0, "getrusage(RUSAGE_SELF) failed");
    Sample {
        cpu: Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32),
        user: timeval(&ru.ru_utime),
        sys: timeval(&ru.ru_stime),
        // ru_minflt is the fifth long after the two timevals.
        minor_faults: ru.longs[4] as u64,
    }
}

/// Process counters accumulated over measured operations only.
#[derive(Debug, Default)]
pub struct Acc {
    ops: u64,
    wall: Duration,
    cpu: Duration,
    user: Duration,
    sys: Duration,
    minor_faults: u64,
    threads: usize,
}

impl Acc {
    /// Runs `f` as one measured operation, adding its counter deltas.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a = sample();
        let t = Instant::now();
        let r = f();
        self.wall += t.elapsed();
        let b = sample();
        self.ops += 1;
        self.cpu += b.cpu.saturating_sub(a.cpu);
        self.user += b.user.saturating_sub(a.user);
        self.sys += b.sys.saturating_sub(a.sys);
        self.minor_faults += b.minor_faults.saturating_sub(a.minor_faults);
        self.threads = self.threads.max(threads());
        r
    }

    /// Counts the measured interval as `ops` operations (e.g. the
    /// dispatches a serving interval ran) for the per-step fault rate.
    pub fn count_ops(&mut self, ops: u64) {
        self.ops = ops;
    }

    /// Records the `proc.*` metrics: CPU time ÷ (wall × cores), system
    /// share of CPU time, minor faults per operation and peak threads.
    pub fn report(&self, report: &mut Report, cores: usize) {
        let wall = self.wall.as_secs_f64() * cores as f64;
        report.set("proc.cpu_util", self.cpu.as_secs_f64() / wall.max(1e-9));
        let us = (self.user + self.sys).as_secs_f64();
        report.set(
            "proc.sys_share",
            if us > 0.0 {
                self.sys.as_secs_f64() / us
            } else {
                0.0
            },
        );
        report.set(
            "proc.minor_faults_per_step",
            self.minor_faults as f64 / self.ops.max(1) as f64,
        );
        report.set("proc.threads", self.threads as f64);
    }
}

/// Host-wide `(steal, total)` CPU ticks from the `cpu` line of
/// `/proc/stat`: the time a virtual machine's CPUs were runnable but
/// held by the hypervisor, and all ticks. `None` when unreadable.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// The process's current thread count (`Threads:` of `/proc/self/status`).
pub fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
