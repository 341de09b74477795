//! Open-loop request accounting: requests fall due on a fixed schedule
//! whatever the system does, and each is timed from when it was due.

/// Timestamps of one open-loop request, in milliseconds since the
/// schedule started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due_ms: f64,
    /// When its connection was free to send (the previous response on
    /// that connection arrived).
    pub ready_ms: f64,
    /// When it was actually written.
    pub sent_ms: f64,
    /// When its response arrived.
    pub done_ms: f64,
}

impl Timing {
    /// Latency charged to the request. Measured from the due time, so a
    /// stall also charges the wait it imposes on every later request
    /// queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }

    /// How late the generator itself sent: the delay past the moment it
    /// was both due and free to go. Waiting for a busy connection is
    /// the system's queueing, already inside [`Timing::latency_ms`].
    pub fn lag_ms(&self) -> f64 {
        self.sent_ms - self.due_ms.max(self.ready_ms)
    }

    /// Time on the wire and in the server: send to response.
    pub fn service_ms(&self) -> f64 {
        self.done_ms - self.sent_ms
    }
}

/// Due time of request `k` at `rate` requests per second.
pub fn due_ms(k: usize, rate: f64) -> f64 {
    k as f64 * 1e3 / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ms(0, 20.0), 0.0);
        assert_eq!(due_ms(3, 20.0), 150.0);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One connection, a request every 10 ms; the first takes 50 ms.
        let first = Timing {
            due_ms: 0.0,
            ready_ms: 0.0,
            sent_ms: 0.0,
            done_ms: 50.0,
        };
        let second = Timing {
            due_ms: 10.0,
            ready_ms: 50.0,
            sent_ms: 50.0,
            done_ms: 52.0,
        };
        assert_eq!(first.latency_ms(), 50.0);
        // Timed from its send the second request looks fast (2 ms);
        // from its due time it waited 42 ms.
        assert_eq!(second.service_ms(), 2.0);
        assert_eq!(second.latency_ms(), 42.0);
        assert_eq!(second.lag_ms(), 0.0);
    }

    #[test]
    fn lag_counts_only_the_generators_own_delay() {
        // Free connection, but the sender woke 3 ms after the due time.
        let late = Timing {
            due_ms: 100.0,
            ready_ms: 80.0,
            sent_ms: 103.0,
            done_ms: 110.0,
        };
        assert_eq!(late.lag_ms(), 3.0);
        assert_eq!(late.latency_ms(), 10.0);
        // Busy connection, sent 1 ms after it freed up.
        let busy = Timing {
            due_ms: 100.0,
            ready_ms: 120.0,
            sent_ms: 121.0,
            done_ms: 130.0,
        };
        assert_eq!(busy.lag_ms(), 1.0);
        assert_eq!(busy.latency_ms(), 30.0);
    }
}
