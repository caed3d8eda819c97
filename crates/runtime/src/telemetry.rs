//! Fleet time-series telemetry: what the scheduler looked like at every
//! tick, not just at the end.
//!
//! The ROADMAP asks for *admission backpressure signals over time* —
//! queue depth history, not final counts. With
//! [`SchedulerConfig::telemetry_every_ticks`](crate::SchedulerConfig::telemetry_every_ticks)
//! set, the tick loop appends one [`TickSample`] per cadence beat to a
//! [`Telemetry`] series; the series rides along in
//! [`FleetReport::telemetry`](crate::FleetReport::telemetry) so the
//! workload driver, the benches and the `Display` summary can all read
//! the same record. Telemetry is observational: it never influences
//! scheduling, and it is not checkpointed (a restored fleet starts a
//! fresh series at its inherited tick counter).

use std::fmt;

/// One sampled instant of the fleet: the tick-loop state after the
/// backends stepped. Count fields are cumulative; `queue_depth` and
/// `running` are instantaneous.
#[derive(Clone, Debug, PartialEq)]
pub struct TickSample {
    /// The scheduler tick this sample was taken at (monotone, survives
    /// checkpoint/restore).
    pub tick: u64,
    /// Fleet clock at the sample (modeled seconds — the max backend
    /// clock).
    pub now_s: f64,
    /// Jobs waiting in the queue — the backpressure signal admission
    /// caps act on.
    pub queue_depth: u64,
    /// Jobs currently placed on a backend.
    pub running: u64,
    /// Jobs completed so far (cumulative, cancelled/rejected excluded).
    pub completed: u64,
    /// Jobs cancelled so far (cumulative).
    pub cancelled: u64,
    /// Jobs rejected/shed so far (cumulative; scheduler-side sheds only
    /// — outright submission bounces never reach the scheduler).
    pub rejected: u64,
    /// Preemptions so far (cumulative).
    pub preemptions: u64,
    /// Busy seconds per device backend at the sample.
    pub device_busy_s: Vec<f64>,
    /// Bytes uploaded over PCIe so far, summed across devices
    /// (cumulative).
    pub bytes_h2d: u64,
    /// Bytes read back over PCIe so far, summed across devices
    /// (cumulative) — the series that collapses under
    /// [`SelectionMode::DeviceArgmin`](lnls_gpu_sim::SelectionMode).
    pub bytes_d2h: u64,
}

/// A time series of [`TickSample`]s plus summary accessors.
///
/// Long saturation runs can record millions of ticks; a
/// [`with_cap`](Self::with_cap) bound keeps memory flat by
/// deterministically thinning the series (keep-every-other compaction)
/// whenever it outgrows the cap — the surviving samples are a coarser
/// but faithful history, and the compaction depends only on push count,
/// so replayed runs thin identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    samples: Vec<TickSample>,
    max_samples: Option<usize>,
}

impl Telemetry {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty series bounded to at most `cap` samples (clamped to a
    /// floor of 2 so thinning always keeps the endpoints meaningful);
    /// `None` keeps every sample.
    pub fn with_cap(cap: Option<usize>) -> Self {
        Self { samples: Vec::new(), max_samples: cap.map(|c| c.max(2)) }
    }

    /// The configured sample cap, if any.
    pub fn max_samples(&self) -> Option<usize> {
        self.max_samples
    }

    pub(crate) fn push(&mut self, sample: TickSample) {
        self.samples.push(sample);
        if let Some(cap) = self.max_samples {
            if self.samples.len() > cap {
                // Keep-every-other compaction: retain even indices,
                // halving the series while preserving its oldest sample
                // and overall shape. Purely a function of push count —
                // bit-identical across replays.
                let mut i = 0usize;
                self.samples.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
            }
        }
    }

    /// The recorded samples, in tick order.
    pub fn samples(&self) -> &[TickSample] {
        &self.samples
    }

    /// True when nothing was recorded (telemetry off or no ticks ran).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Deepest queue observed at any sample.
    pub fn max_queue_depth(&self) -> u64 {
        self.samples.iter().map(|s| s.queue_depth).max().unwrap_or(0)
    }

    /// Mean queue depth over the samples (0 when empty).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.queue_depth as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Rejections/sheds that landed between consecutive samples — the
    /// per-tick backpressure response (first entry counts from zero).
    pub fn rejections_per_sample(&self) -> Vec<u64> {
        let mut prev = 0;
        self.samples
            .iter()
            .map(|s| {
                let d = s.rejected.saturating_sub(prev);
                prev = s.rejected;
                d
            })
            .collect()
    }

    /// Queue depth compressed to at most `buckets` points (max within
    /// each bucket — backpressure spikes must survive the compression).
    pub fn queue_depth_buckets(&self, buckets: usize) -> Vec<u64> {
        bucket_max(&self.samples.iter().map(|s| s.queue_depth).collect::<Vec<_>>(), buckets)
    }

    /// Merge per-shard series into one fleet-wide series, sample by
    /// sample. Shards tick in lockstep under the sharded facades, so
    /// series recorded with the same cadence and cap align index for
    /// index; the merge sums the count fields, concatenates
    /// `device_busy_s` shard-major (shard 0's devices first), and takes
    /// the max clock — the same "fleet clock is the max backend clock"
    /// rule the scheduler itself uses. `tick` comes from the first
    /// series. Deterministic: a pure fold over the input order, so a
    /// sharded fleet merges bit-identically at any worker count.
    ///
    /// Series of unequal length (shards configured with different
    /// cadences or caps) are truncated to the shortest — the aligned
    /// prefix is the only part with a coherent fleet-wide meaning.
    pub fn merge(series: &[&Telemetry]) -> Telemetry {
        let Some((first, rest)) = series.split_first() else {
            return Telemetry::new();
        };
        debug_assert!(
            rest.iter().all(|t| t.samples.len() == first.samples.len()),
            "lockstep shards should record equally long series"
        );
        let len = series.iter().map(|t| t.samples.len()).min().unwrap_or(0);
        let mut merged = Telemetry::with_cap(first.max_samples);
        for i in 0..len {
            let mut sample = first.samples[i].clone();
            for t in rest {
                let s = &t.samples[i];
                sample.now_s = sample.now_s.max(s.now_s);
                sample.queue_depth += s.queue_depth;
                sample.running += s.running;
                sample.completed += s.completed;
                sample.cancelled += s.cancelled;
                sample.rejected += s.rejected;
                sample.preemptions += s.preemptions;
                sample.device_busy_s.extend_from_slice(&s.device_busy_s);
                sample.bytes_h2d += s.bytes_h2d;
                sample.bytes_d2h += s.bytes_d2h;
            }
            merged.samples.push(sample);
        }
        merged
    }

    /// One-line sparkline of the queue depth (empty string when no
    /// samples) — the `Display` backpressure summary.
    pub fn queue_sparkline(&self, buckets: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let series = self.queue_depth_buckets(buckets);
        let peak = series.iter().copied().max().unwrap_or(0).max(1);
        series
            .iter()
            .map(|&d| {
                if d == 0 {
                    ' '
                } else {
                    BARS[((d * (BARS.len() as u64 - 1)).div_ceil(peak) as usize)
                        .min(BARS.len() - 1)]
                }
            })
            .collect()
    }
}

impl fmt::Display for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue depth max {} mean {:.1} over {} samples [{}]",
            self.max_queue_depth(),
            self.mean_queue_depth(),
            self.samples.len(),
            self.queue_sparkline(32),
        )
    }
}

/// Compress `values` to at most `buckets` entries, keeping the max of
/// each bucket.
fn bucket_max(values: &[u64], buckets: usize) -> Vec<u64> {
    if values.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let per = values.len().div_ceil(buckets);
    values.chunks(per).map(|c| c.iter().copied().max().unwrap_or(0)).collect()
}

/// Nearest-rank percentile of an **unsorted** sample set (`q` in
/// `[0, 1]`); 0.0 for an empty set. Deterministic — the workload replay
/// proptest compares reports bit for bit. Clones and sorts per call:
/// when reading several quantiles from one set, sort once and use
/// [`percentile_sorted`].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Nearest-rank percentile of an **already sorted** (ascending,
/// `f64::total_cmp` order) sample set — the allocation-free fast path
/// for reading many quantiles from one series. Same rank arithmetic as
/// [`percentile`], so the two agree bit for bit.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64, depth: u64, rejected: u64) -> TickSample {
        TickSample {
            tick,
            now_s: tick as f64,
            queue_depth: depth,
            running: 1,
            completed: 0,
            cancelled: 0,
            rejected,
            preemptions: 0,
            device_busy_s: vec![0.0],
            bytes_h2d: 0,
            bytes_d2h: 0,
        }
    }

    #[test]
    fn summaries_over_a_small_series() {
        let mut t = Telemetry::new();
        for (i, d) in [3u64, 5, 2, 0].iter().enumerate() {
            t.push(sample(i as u64, *d, i as u64));
        }
        assert_eq!(t.max_queue_depth(), 5);
        assert!((t.mean_queue_depth() - 2.5).abs() < 1e-12);
        assert_eq!(t.rejections_per_sample(), vec![0, 1, 1, 1]);
        assert_eq!(t.queue_depth_buckets(2), vec![5, 2]);
        assert_eq!(t.queue_sparkline(4).chars().count(), 4);
        assert!(t.queue_sparkline(4).ends_with(' '), "empty queue renders blank");
    }

    #[test]
    fn empty_series_is_harmless() {
        let t = Telemetry::new();
        assert!(t.is_empty());
        assert_eq!(t.max_queue_depth(), 0);
        assert_eq!(t.mean_queue_depth(), 0.0);
        assert_eq!(t.queue_sparkline(8), "");
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn percentile_sorted_agrees_with_percentile() {
        let v = [9.0, 1.0, 5.0, 2.0, 8.0, 3.0, 0.5];
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&v, q), percentile_sorted(&sorted, q), "q={q}");
        }
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn merge_sums_counts_concats_devices_and_maxes_the_clock() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        for i in 0..3u64 {
            let mut s = sample(i, 2, 1);
            s.now_s = i as f64;
            s.device_busy_s = vec![1.0];
            a.push(s);
            let mut s = sample(i, 3, 4);
            s.now_s = i as f64 + 0.5;
            s.device_busy_s = vec![2.0, 3.0];
            b.push(s);
        }
        let merged = Telemetry::merge(&[&a, &b]);
        assert_eq!(merged.samples().len(), 3);
        let s = &merged.samples()[1];
        assert_eq!(s.tick, 1, "tick comes from the first series");
        assert_eq!(s.now_s, 1.5, "clock is the max across shards");
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.rejected, 5);
        assert_eq!(s.running, 2);
        assert_eq!(s.device_busy_s, vec![1.0, 2.0, 3.0], "devices concatenate shard-major");

        assert!(Telemetry::merge(&[]).is_empty());
        let solo = Telemetry::merge(&[&a]);
        assert_eq!(solo, a, "merging one series is the identity");
    }

    #[test]
    fn capped_series_thins_deterministically_and_stays_bounded() {
        let cap = 8usize;
        let mut a = Telemetry::with_cap(Some(cap));
        let mut b = Telemetry::with_cap(Some(cap));
        for i in 0..1000u64 {
            a.push(sample(i, i % 7, 0));
            b.push(sample(i, i % 7, 0));
            assert!(a.samples().len() <= cap, "cap must hold at every push");
        }
        assert_eq!(a, b, "compaction is a pure function of the push sequence");
        assert_eq!(a.samples()[0].tick, 0, "the oldest sample survives every halving");
        let ticks: Vec<u64> = a.samples().iter().map(|s| s.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "order preserved: {ticks:?}");

        // A cap below the floor is clamped, not honored literally.
        let mut tiny = Telemetry::with_cap(Some(0));
        for i in 0..10u64 {
            tiny.push(sample(i, 0, 0));
        }
        assert!(tiny.samples().len() <= 2);
        assert_eq!(tiny.max_samples(), Some(2));

        // Uncapped series keep everything.
        let mut unbounded = Telemetry::with_cap(None);
        for i in 0..100u64 {
            unbounded.push(sample(i, 0, 0));
        }
        assert_eq!(unbounded.samples().len(), 100);
    }
}
