//! Sample statistics and process measurements.

use std::time::Duration;

/// Nearest-rank quantile of a sorted sample: the value at rank
/// `ceil(q * n)` (1-based), so that `p50` of `[1, 2]` is `1`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples ranked strictly above the `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q` quantile, only when at least ten samples lie beyond it — the
/// rule every reported tail percentile follows. `None` means the run is too
/// short to support that percentile.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), q) < 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(quantile_sorted(&s, q))
}

/// Most blocks a run's samples are split into by [`block_quantile`].
pub const MAX_BLOCKS: usize = 40;
/// Fewest samples in a block.
pub const MIN_BLOCK: usize = 100;

/// The median over a run's stretches of their `q` quantile. The samples,
/// in the order they were taken, are split into up to [`MAX_BLOCKS`]
/// consecutive blocks of at least [`MIN_BLOCK`] samples (or one block),
/// each holding at least ten samples beyond its `q` quantile.
///
/// A tail quantile of the whole run moves with however long the run's
/// slowest stretches happened to last; the median over blocks follows the
/// typical stretch, and a slowdown that hits most of them still shows.
/// `None` when the samples cannot fill one block.
pub fn block_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let mut blocks = MAX_BLOCKS.min(n / MIN_BLOCK).max(1);
    while blocks > 0 && samples_beyond(n / blocks, q) < 10 {
        blocks -= 1;
    }
    if blocks == 0 {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| tail_quantile(&samples[b * n / blocks..(b + 1) * n / blocks], q))
        .collect::<Option<_>>()?;
    Some(median(&per_block))
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time of the whole process — every thread, live or exited — from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, at nanosecond resolution
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for short
/// intervals).
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds(2)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds(3)
}

fn cpu_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live, exclusively borrowed value, and keeps no reference to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten samples lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves nine beyond — not supported.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(&s[..999], 0.99), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn block_quantile_is_the_median_over_stretches() {
        // 4000 samples near 10.0; a quarter of the run is 2x slower.
        let s: Vec<f64> = (0..4000)
            .map(|i| {
                let base = 10.0 + (i % 7) as f64 / 10.0;
                if (1000..2000).contains(&i) {
                    2.0 * base
                } else {
                    base
                }
            })
            .collect();
        // p99 blocks need 1000 samples: four blocks, one of them slow.
        let p99 = block_quantile(&s, 0.99).unwrap();
        assert!((10.0..11.0).contains(&p99), "{p99}");
        assert!(tail_quantile(&s, 0.99).unwrap() > 20.0);
        // A slowdown over most of the run shows.
        let slow: Vec<f64> = s
            .iter()
            .enumerate()
            .map(|(i, &x)| if i < 3000 { 2.0 * x } else { x })
            .collect();
        assert!(block_quantile(&slow, 0.99).unwrap() > 20.0);
        // One block: the plain tail quantile.
        assert_eq!(
            block_quantile(&s[..1000], 0.99),
            tail_quantile(&s[..1000], 0.99)
        );
        assert_eq!(block_quantile(&s[..19], 0.5), None);
    }

    /// User + system CPU seconds from `/proc/self/stat` (fields 14 and 15,
    /// counted after the command name's last `)`, in 100 Hz ticks).
    fn stat_cpu_seconds(stat: &str) -> Option<f64> {
        let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }

    #[test]
    fn cpu_time_reader_counts_all_threads() {
        assert_eq!(
            stat_cpu_seconds("42 (a (b)) R 1 2 3 4 5 6 7 8 9 10 250 50 0"),
            Some(3.0)
        );
        let spin = || {
            let mut x = 0u64;
            for i in 0..30_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
        };
        let a = process_cpu_seconds();
        // Work done on threads that have exited still counts.
        std::thread::scope(|s| {
            s.spawn(spin);
            s.spawn(spin);
        });
        spin();
        let used = process_cpu_seconds() - a;
        assert!(used > 0.0);
        // It agrees with the kernel's tick-resolution accounting.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let ticks = stat_cpu_seconds(&stat).unwrap();
        assert!((process_cpu_seconds() - ticks).abs() < 0.1, "{ticks}");
    }
}
