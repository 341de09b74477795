//! Host-speed normalisation. Besides steal (see [`crate::steal`]), a
//! shared host slows a guest's cores by 10–20% for tens of seconds at a
//! time when its neighbours load the caches, memory and sibling
//! hyperthreads. That slowdown is not steal and reaches every
//! CPU-bound time. So each timed closed-loop operation is bracketed by
//! runs of a fixed reference kernel that lives in the benchmark, not in
//! the program, timed in CPU time of its thread (which leaves steal
//! out). The operation's steal-free time is then scaled by how much
//! slower than nominal the kernel ran around it: the figure is the time
//! the operation would take on a host running the kernel in [`REF_MS`].
//!
//! A change to the program moves the operation's time and not the
//! kernel's, so it moves the normalised time by the same share.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal CPU time of one kernel run: about its median on the 2-core
/// host the bounds were set on, so normalised times read close to
/// steal-free wall times there.
pub const REF_MS: f64 = 100.0;
/// Words the reference kernel sorts (8 MiB).
const WORDS: usize = 1 << 20;

/// The reference kernel: sorts 8 MiB of pseudo-random words, builds a
/// hash map from a quarter of them and probes it with all of them, so it
/// mixes branchy compute with cache-missing memory traffic as the
/// pipeline does. Single-threaded and deterministic.
pub fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = HashMap::with_capacity(WORDS / 4);
    for (i, &k) in v.iter().enumerate().step_by(4) {
        m.insert(k >> 9, i as u64);
    }
    let mut acc = 0u64;
    for k in &v {
        if let Some(i) = m.get(&(k >> 9)) {
            acc = acc.wrapping_add(*i);
        }
    }
    acc ^ m.len() as u64
}

/// CPU time of the calling thread in nanoseconds (`/proc/thread-self/
/// schedstat`, which leaves steal out), if readable. The kernel updates
/// it at every scheduler tick, so a reading may lag by one tick.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Milliseconds of one kernel run: CPU time of this thread, or wall
/// time where CPU time cannot be read.
pub fn kernel_ms() -> f64 {
    let cpu = thread_cpu_ns();
    let start = Instant::now();
    black_box(kernel());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    match (cpu, thread_cpu_ns()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e6,
        _ => wall_ms,
    }
}

/// `ms` at nominal speed, given the kernel times just before and just
/// after it.
pub fn normalise(ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    ms * REF_MS * 2.0 / (before_ms + after_ms)
}

/// Runs the kernel between operations. Each kernel run closes one
/// operation's bracket and opens the next one's.
pub struct Pace {
    last_ms: f64,
    /// Every kernel time, for reporting.
    pub kernel_ms: Vec<f64>,
}

impl Pace {
    /// Runs the kernel once to open the first bracket.
    pub fn new() -> Pace {
        let ms = kernel_ms();
        Pace {
            last_ms: ms,
            kernel_ms: vec![ms],
        }
    }

    /// Closes the bracket around an operation that took `ms` (steal
    /// left out) and returns its normalised time.
    pub fn close(&mut self, ms: f64) -> f64 {
        let after = kernel_ms();
        let before = std::mem::replace(&mut self.last_ms, after);
        self.kernel_ms.push(after);
        normalise(ms, before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_scales_by_the_kernels_slowdown() {
        // Kernel at nominal speed: the time stands.
        assert_eq!(normalise(500.0, REF_MS, REF_MS), 500.0);
        // Kernel twice as slow on both sides: the host ran at half
        // speed, so the operation counts half its time.
        assert_eq!(normalise(500.0, 2.0 * REF_MS, 2.0 * REF_MS), 250.0);
        // The bracket's two ends are averaged.
        assert_eq!(normalise(300.0, REF_MS, 3.0 * REF_MS), 150.0);
    }

    #[test]
    fn brackets_share_their_ends() {
        let mut pace = Pace::new();
        pace.close(1.0);
        pace.close(1.0);
        // One opening run, then one closing run per operation.
        assert_eq!(pace.kernel_ms.len(), 3);
        assert!(pace.kernel_ms.iter().all(|&ms| ms > 0.0));
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
