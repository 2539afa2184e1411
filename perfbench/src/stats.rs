//! The benchmark's own arithmetic: event sums, medians and pool
//! utilisation.

use sgx_sim::Counters;

/// Simulated events in a counter set: charged loads, stores, scalar and
/// vector operations, plus cache lines moved by explicit stream reads
/// and writes. Stream lines count because a streaming store kernel
/// records them without any load or store.
pub fn events(c: &Counters) -> u64 {
    c.loads + c.stores + c.alu_ops + c.vec_ops + c.stream_lines
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; 0 for an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Worker-pool accounting for one registry run of `workers` threads that
/// took `wall` seconds and kept jobs running for `busy` seconds in total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pool {
    /// Worker seconds spent without a job: `workers * wall - busy`.
    pub idle_s: f64,
    /// Share of worker seconds spent in jobs: `busy / (workers * wall)`.
    pub util: f64,
}

/// See [`Pool`].
pub fn pool(workers: usize, wall: f64, busy: f64) -> Pool {
    let capacity = workers as f64 * wall;
    Pool {
        idle_s: capacity - busy,
        util: if capacity > 0.0 { busy / capacity } else { 0.0 },
    }
}

/// Host nanoseconds per simulated event; 0 when no event was simulated.
pub fn ns_per_event(secs: f64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        secs * 1e9 / events as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_count_stream_lines() {
        let c = Counters {
            loads: 1,
            stores: 2,
            alu_ops: 4,
            vec_ops: 8,
            stream_lines: 16,
            // Hits and fills are outcomes of accesses, not extra events.
            l1_hits: 100,
            dram_fills: 100,
            ..Counters::default()
        };
        assert_eq!(events(&c), 31);
        // A pure streaming store pass still counts.
        let w = Counters {
            stream_lines: 262_144,
            ..Counters::default()
        };
        assert_eq!(events(&w), 262_144);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_min() {
        assert_eq!(fastest(&[0.3, 0.2, 0.4]), 0.2);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn pool_util_and_idle() {
        let p = pool(2, 10.0, 15.0);
        assert_eq!(p.util, 0.75);
        assert_eq!(p.idle_s, 5.0);
        assert_eq!(pool(1, 4.0, 4.0).util, 1.0);
        assert_eq!(pool(2, 0.0, 0.0).util, 0.0);
    }

    #[test]
    fn ns_per_event_guards_zero() {
        assert_eq!(ns_per_event(1.0, 0), 0.0);
        assert_eq!(ns_per_event(0.5, 1_000_000), 500.0);
    }
}
