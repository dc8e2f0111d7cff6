//! A fixed unit of reference work that calls none of the program under
//! test, timed at intervals through a run to gauge how fast the host ran
//! the run.
//!
//! Other tenants of a shared host slow every piece of code in a process by
//! a common factor, for minutes at a time. The unit's work is fixed (the
//! same for every seed and every revision of the program), so its time
//! moves only with the host; a run's timing divided by the reference time
//! measured beside it largely cancels that factor.

use crate::stats::thread_cpu_seconds;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Entries in each of the reference maps: together a few MiB, beyond the
/// per-core caches, like the engine's tables.
const ENTRIES: u64 = 1 << 16;
/// Lookups per unit.
const LOOKUPS: u64 = 4000;
/// Entries removed and inserted again per unit.
const CHURN: u64 = 400;
/// Formatted lines per unit.
const LINES: u64 = 100;

#[derive(Debug)]
pub struct Reference {
    tree: BTreeMap<u64, u64>,
    /// Keyed by a fixed hasher, so its layout is the same in every run.
    hash: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    text: String,
    next: u64,
    /// Time of each unit run, in microseconds.
    pub samples_us: Vec<f64>,
    /// CPU seconds the units took, for leaving them out of a stream's.
    pub cpu_s: f64,
}

/// A fixed permutation of `0..ENTRIES` (an odd multiplier modulo a power
/// of two) that puts successive keys far apart.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (ENTRIES - 1)
}

impl Default for Reference {
    fn default() -> Self {
        let tree: BTreeMap<u64, u64> = (0..ENTRIES).map(|i| (key(i), i)).collect();
        let hash: HashMap<u64, u64, _> = (0..ENTRIES).map(|i| (key(i), i)).collect();
        Reference {
            tree,
            hash,
            text: String::new(),
            next: 0,
            samples_us: Vec::new(),
            cpu_s: 0.0,
        }
    }
}

impl Reference {
    /// Run `units` units, recording the time of each.
    pub fn sample(&mut self, units: usize) {
        let cpu = thread_cpu_seconds();
        for _ in 0..units {
            self.unit();
        }
        self.cpu_s += thread_cpu_seconds() - cpu;
    }

    fn unit(&mut self) {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in self.next..self.next + LOOKUPS {
            let k = key(i);
            acc = acc.wrapping_add(*self.tree.get(&k).unwrap_or(&0));
            acc = acc.wrapping_add(*self.hash.get(&k).unwrap_or(&0));
        }
        for i in self.next..self.next + CHURN {
            let k = key(i * 3);
            if let Some(v) = self.tree.remove(&k) {
                self.tree.insert(k, v);
            }
            if let Some(v) = self.hash.remove(&k) {
                self.hash.insert(k, v);
            }
        }
        self.text.clear();
        for i in 0..LINES {
            let _ = writeln!(
                self.text,
                "INSERT INTO t VALUES ({i}, {}, 'x{}');",
                acc % 1000,
                i * 7
            );
        }
        std::hint::black_box((acc, self.text.len()));
        self.next = (self.next + LOOKUPS) % ENTRIES;
        self.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
}
