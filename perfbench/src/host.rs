//! Host placement and contention: the process is pinned to one CPU, and
//! the hypervisor's steal time on that CPU is read from `/proc/stat`.
//!
//! On a shared virtual machine every hand-off between two threads on
//! different virtual CPUs is a cross-CPU wake-up, and when the host has
//! descheduled the target CPU the hand-off waits for the host's next time
//! slice. Under host contention that multiplies latency and divides `tps`
//! far beyond the CPU time actually lost. With every thread of the process
//! on one CPU a hand-off is a context switch, and host contention costs
//! only the time it steals. Steal (time a runnable virtual CPU waited
//! while the host ran other guests) still slows a run, so each round
//! records the steal its closed loop saw.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPU the process is pinned to (`usize::MAX` until pinned).
static PINNED: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Pin the calling thread, and so every thread it spawns afterwards, to
/// the first CPU it may run on. Call before any other thread starts.
/// Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size of a `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, reading `size` bytes from `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    PINNED.store(cpu, Ordering::Relaxed);
    Ok(cpu)
}

/// Steal ticks of the pinned CPU, `None` when not pinned or where the
/// kernel reports none.
fn steal_ticks() -> Option<u64> {
    let cpu = PINNED.load(Ordering::Relaxed);
    if cpu == usize::MAX {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let prefix = format!("cpu{cpu} ");
    let line = stat.lines().find_map(|l| l.strip_prefix(prefix.as_str()))?;
    line.split_whitespace().nth(7)?.parse().ok()
}

/// Measures the share of the pinned CPU's time stolen over an interval.
pub struct StealMeter {
    ticks: Option<u64>,
    started: Instant,
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter {
            ticks: steal_ticks(),
            started: Instant::now(),
        }
    }

    /// Stolen share of the pinned CPU's time since `start` (0 when
    /// unknown).
    pub fn fraction(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.ticks, steal_ticks()) else {
            return 0.0;
        };
        let wall = self.started.elapsed().as_secs_f64();
        (t1.saturating_sub(t0)) as f64 / TICKS_PER_SEC / wall.max(1e-9)
    }
}
