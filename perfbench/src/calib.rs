//! Host-speed calibration.
//!
//! A shared host runs the same code a third to twice as slow for minutes
//! at a time, with no stolen time to show for it: other guests compete
//! for caches, memory bandwidth and the CPU's sibling threads. A run
//! therefore times a fixed piece of work that lives here, in the
//! benchmark, next to every replay, and reports each time scaled by how
//! long that work took beside it. Changes to the crates cannot change
//! the calibration, so what the scaling takes out is the host, not the
//! program.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// About what [`calibrate`] takes on the 2-core Intel Xeon guest the
/// README's figures come from (0.008 to 0.013 s there, with the load on
/// the host). A time scaled by [`scale`] reads as seconds on a host where
/// it takes exactly this.
pub const REFERENCE_S: f64 = 0.010;

/// Rounds of [`calibrate`]; the median round resists a single hiccup.
const ROUNDS: usize = 5;

/// Median seconds of one calibration round over [`ROUNDS`] rounds.
pub fn calibrate() -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

/// Time one round of work shaped like scheduler bookkeeping: a priority
/// queue of pending keys and an ordered map of small float vectors that
/// are updated, read and dropped. Of the kinds of work tried (this, the
/// same over a 6 MB map, byte encoding, scoring bit pairs, allocation
/// churn, pointer chasing over 8 MiB, small file writes), this one's
/// slowdowns tracked the serial workloads' replays best.
fn round() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mut heap = BinaryHeap::new();
    let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x % 4096, i));
        if heap.len() > 512 {
            let (k, _) = heap.pop().expect("the heap holds over 512 keys");
            let v = map.entry(k % 2048).or_insert_with(|| vec![0.0; 16]);
            for (j, e) in v.iter_mut().enumerate() {
                *e = (*e * 0.5 + (j as f64 + k as f64).sqrt()).min(1e6);
            }
            acc += v[(x % 16) as usize];
            if x.is_multiple_of(5) {
                map.remove(&(x % 2048));
            }
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The factor that turns a time measured between calibrations taking
/// `before` and `after` seconds into seconds on the reference host.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
