//! CPU steal: time the hypervisor kept a runnable virtual CPU off its
//! physical core. On a shared host it stretches every CPU-bound wall
//! time, by 0 to 40% depending on what the host's other guests do at
//! the moment, whatever the program does. The benchmark's end-to-end
//! times therefore leave it out: an interval's wall time is multiplied
//! by the share of the CPU time the machine wanted in it (busy plus
//! stolen) that it was actually given. Busy time does not count steal
//! on kernels with steal accounting, as the guest kernels of such hosts
//! have.
//!
//! The counters come from `/proc/stat`; where it cannot be read nothing
//! is taken out.

use std::time::Instant;

/// Milliseconds per `/proc/stat` tick (`USER_HZ` is 100 on Linux).
const TICK_MS: f64 = 10.0;
/// Below this many wanted ticks an interval is too short to estimate
/// its stolen share (one tick either way would swing it), and its wall
/// time stands as measured.
const MIN_WANTED_TICKS: u64 = 5;

/// Busy and stolen ticks summed over all CPUs since boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    /// The counters now (zero when `/proc/stat` cannot be read).
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse(&s))
            .unwrap_or_default()
    }

    /// Ticks from `self` to `later`.
    pub fn until(self, later: CpuTicks) -> CpuTicks {
        CpuTicks {
            busy: later.busy.saturating_sub(self.busy),
            steal: later.steal.saturating_sub(self.steal),
        }
    }

    /// Share of the wanted CPU time (busy + stolen) that was stolen, in
    /// an interval's tick deltas; 0 when too few ticks to tell.
    pub fn stolen_share(self) -> f64 {
        let wanted = self.busy + self.steal;
        if wanted < MIN_WANTED_TICKS {
            0.0
        } else {
            self.steal as f64 / wanted as f64
        }
    }

    /// Stolen time in the interval, summed over CPUs, in milliseconds.
    pub fn stolen_ms(self) -> f64 {
        self.steal as f64 * TICK_MS
    }
}

/// The aggregate `cpu` line of `/proc/stat`: busy is user + nice +
/// system + irq + softirq, steal the eighth field.
fn parse(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    Some(CpuTicks {
        busy: at(0) + at(1) + at(2) + at(5) + at(6),
        steal: at(7),
    })
}

/// `wall_ms` with the interval's stolen share taken out.
pub fn adjust(wall_ms: f64, ticks: CpuTicks) -> f64 {
    wall_ms * (1.0 - ticks.stolen_share())
}

/// A wall-clock interval that also counts CPU ticks.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
    ticks: CpuTicks,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            ticks: CpuTicks::now(),
            start: Instant::now(),
        }
    }

    /// Wall milliseconds since the start.
    pub fn wall_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Wall milliseconds since the start, and the same with the stolen
    /// share taken out.
    pub fn stop(&self) -> (f64, f64) {
        let wall_ms = self.wall_ms();
        let ticks = self.ticks.until(CpuTicks::now());
        (wall_ms, adjust(wall_ms, ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 5 20 900 3 7 8 40 0 0\ncpu0 50 0 10 450 1 3 4 20 0 0\n";
        assert_eq!(
            parse(stat),
            Some(CpuTicks {
                busy: 100 + 5 + 20 + 7 + 8,
                steal: 40
            })
        );
        assert_eq!(parse("intr 1 2 3\n"), None);
    }

    #[test]
    fn stolen_share_scales_wall_time_down() {
        // 300 ticks busy and 100 stolen: a quarter of the wanted time
        // was stolen, so a 2000 ms interval counts as 1500 ms.
        let a = CpuTicks {
            busy: 1000,
            steal: 50,
        };
        let b = CpuTicks {
            busy: 1300,
            steal: 150,
        };
        let d = a.until(b);
        assert_eq!(d.stolen_share(), 0.25);
        assert_eq!(d.stolen_ms(), 1000.0);
        assert_eq!(adjust(2000.0, d), 1500.0);
        // No steal: the wall time stands.
        let clean = CpuTicks { busy: 80, steal: 0 };
        assert_eq!(adjust(2000.0, clean), 2000.0);
    }

    #[test]
    fn short_intervals_stand_as_measured() {
        // One stolen tick against one busy tick says nothing about a
        // 40 ms wait on a timer.
        let d = CpuTicks { busy: 1, steal: 1 };
        assert_eq!(d.stolen_share(), 0.0);
        assert_eq!(adjust(40.0, d), 40.0);
        // Counters that went backwards count as no ticks.
        let back = CpuTicks { busy: 5, steal: 5 }.until(CpuTicks::default());
        assert_eq!(back, CpuTicks::default());
    }

    #[test]
    fn timer_never_adds_time() {
        let t = Timer::start();
        let (wall, adjusted) = t.stop();
        assert!(wall >= 0.0 && adjusted <= wall && adjusted >= 0.0);
    }
}
