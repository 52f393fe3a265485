//! The clocks and host counters the benchmark reads.
//!
//! Every timing is on-CPU time as the kernel scheduler accounts it
//! (`CLOCK_PROCESS_CPUTIME_ID`). On a paravirtualised guest with
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING=y` that clock excludes the time the
//! hypervisor steals, which wall-clock does not; steal and run-queue wait
//! are recorded beside the result instead, from `/proc`.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's id for the calling process's CPU-time clock.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds this process has consumed, all threads together.
pub fn cpu_nanos() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for)
    // for the whole call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host counters sampled at the start and the end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// `/proc/stat` steal ticks, all CPUs.
    steal: u64,
    /// `/proc/stat` ticks of every kind (user … steal), all CPUs.
    total: u64,
    /// Nanoseconds this process waited on a run queue.
    runqueue_wait_ns: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let mut sample = HostSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/stat") {
            if let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) {
                // user nice system idle iowait irq softirq steal [guest ...]
                let ticks: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|f| f.parse().ok())
                    .collect();
                sample.total = ticks.iter().sum();
                sample.steal = ticks.get(7).copied().unwrap_or(0);
            }
        }
        if let Ok(schedstat) = fs::read_to_string("/proc/self/schedstat") {
            // on-CPU ns, run-queue wait ns, timeslices
            sample.runqueue_wait_ns = schedstat
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0);
        }
        sample
    }
}

/// What the host looked like over a run.
#[derive(Debug, Clone)]
pub struct Host {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel: String,
    /// Share of all CPUs' time the hypervisor stole over the run.
    pub steal_frac: f64,
    pub runqueue_wait_s: f64,
}

impl Host {
    pub fn over(start: HostSample, end: HostSample) -> Self {
        let total = end.total.saturating_sub(start.total);
        let steal = end.steal.saturating_sub(start.steal);
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, model)| model.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |k| k.trim().to_string()),
            steal_frac: if total == 0 {
                0.0
            } else {
                steal as f64 / total as f64
            },
            runqueue_wait_s: end.runqueue_wait_ns.saturating_sub(start.runqueue_wait_ns) as f64
                / 1e9,
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
