//! Wall-clock benchmark for the lnls fleet runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed-serial|hot-sharded|ckpt-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays one seeded workload through the public API for `--seconds`,
//! checks every replay's `FleetReport` against a reference
//! `Driver::replay` at one worker, and prints a result object as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and every metric.

mod calib;
mod replay;
mod spans;
mod stats;
mod timed;
mod workloads;

use lnls_workload::{Driver, Scenario, WorkloadReport};
use replay::{Options, Replay, SetupTimes};
use stats::{median, percentile_sorted, Metric};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Replays every run makes at least, however short `--seconds` is.
const MIN_REPLAYS: usize = 3;

/// Where recovery checkpoints and Chrome traces go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    let mut bench = Bench::new(&args);
    if args.trace {
        bench.run_traced(&args);
    } else {
        bench.run_timed(&args);
    }
}

/// The references a run's replays are checked against, and the tally.
struct Bench {
    workload: Workload,
    scenario: Scenario,
    seed: u64,
    /// `Driver::replay` of the run's trace at one worker.
    reference: WorkloadReport,
    /// Per-job outcomes of an uninterrupted replay that matched
    /// `reference` bit for bit.
    reference_jobs: Vec<String>,
    /// Report bits of the run's first replay with crash/restores; the
    /// later ones must repeat them.
    recovered_bits: Option<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    delta_dir: PathBuf,
}

impl Bench {
    /// Replay the reference, then one uninterrupted benchmark replay
    /// against it (which also warms the process up).
    fn new(args: &Args) -> Bench {
        let w = args.workload;
        let scenario = w.scenario();
        let reference = catch_unwind(|| Driver::replay(&w.lower(&scenario, args.seed)))
            .unwrap_or_else(|_| {
                eprintln!("perfbench: the reference replay panicked");
                std::process::exit(1);
            });
        eprintln!(
            "{}: seed {}, {} submissions, {} ticks, {} iterations, {} worker(s), nproc {}",
            w.name(),
            args.seed,
            reference.submitted,
            reference.ticks,
            reference.fleet.iterations_executed,
            w.workers(),
            workloads::nproc()
        );
        let mut bench = Bench {
            workload: w,
            scenario,
            seed: args.seed,
            reference,
            reference_jobs: Vec::new(),
            recovered_bits: None,
            correct: true,
            attempted: 0,
            failed: 0,
            delta_dir: Path::new(OUT_DIR).join(format!("ckpt-{}", std::process::id())),
        };
        if let Err(e) = accounting(&bench.reference) {
            eprintln!("perfbench: reference replay: {e}");
            bench.correct = false;
        }
        let uninterrupted = Options { recover_every: None, ..bench.options(false) };
        if let Some((_, r)) = bench.run_once(&uninterrupted) {
            bench.reference_jobs = r.jobs;
        }
        bench
    }

    /// The workload's replay options.
    fn options(&self, traced: bool) -> Options {
        let w = self.workload;
        Options {
            traced,
            recover_every: w.recover_every(),
            delta_dir: w.churns().then(|| self.delta_dir.clone()),
        }
    }

    /// Set up and replay once; `None` when the replay panicked or failed
    /// its check.
    fn run_once(&mut self, opts: &Options) -> Option<(SetupTimes, Replay)> {
        let w = self.workload;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let setup = replay::setup(w, &self.scenario, self.seed, opts.traced);
            (setup.times, replay::replay(setup, opts))
        }));
        let submitted = self.reference.submitted;
        self.attempted += submitted;
        let checked = match outcome {
            Ok((setup, r)) => self.check(&r, opts.recover_every.is_some()).map(|()| (setup, r)),
            Err(_) => Err("the replay panicked".to_string()),
        };
        match checked {
            Ok(done) => Some(done),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                self.correct = false;
                self.failed += submitted;
                None
            }
        }
    }

    /// An uninterrupted replay must reproduce the reference report bit
    /// for bit. A crash/restore re-prices residency (restored jobs
    /// upload their state again), so a replay with recoveries must
    /// instead keep every job's outcome, and repeat its own bits on
    /// every replay of the run.
    fn check(&mut self, r: &Replay, recovered: bool) -> Result<(), String> {
        let got = WorkloadReport {
            scenario: self.reference.scenario.clone(),
            seed: self.reference.seed,
            submitted: r.submitted,
            admitted: r.admitted,
            bounced: r.bounced,
            crashes: 0,
            ticks: r.ticks,
            fleet: r.report.clone(),
        };
        accounting(&got)?;
        let counts = |w: &WorkloadReport| (w.submitted, w.admitted, w.bounced);
        if counts(&got) != counts(&self.reference) {
            return Err(format!(
                "(submitted, admitted, bounced) {:?} != reference {:?}",
                counts(&got),
                counts(&self.reference)
            ));
        }
        let bits = format!("{:?}", r.report);
        if !recovered {
            if r.ticks != self.reference.ticks {
                return Err(format!("{} ticks != reference {}", r.ticks, self.reference.ticks));
            }
            return same_bits(
                "the reference replay",
                &bits,
                &format!("{:?}", self.reference.fleet),
            );
        }
        if r.jobs != self.reference_jobs {
            let at = r.jobs.iter().zip(&self.reference_jobs).position(|(a, b)| a != b);
            return Err(format!(
                "job outcomes differ from the uninterrupted replay: got {:?}, want {:?}",
                at.map(|i| &r.jobs[i]),
                at.map(|i| &self.reference_jobs[i])
            ));
        }
        match &self.recovered_bits {
            Some(first) => same_bits("the run's first replay with recoveries", &bits, first),
            None => {
                self.recovered_bits = Some(bits);
                Ok(())
            }
        }
    }

    /// `--trace 0`: replay until `--seconds` have passed and report the
    /// end-to-end metrics. Every time is scaled to the reference host by
    /// the calibrations on either side of its replay (see `calib`).
    /// Every time metric is the median over the run's replays of that
    /// replay's figure.
    fn run_timed(&mut self, args: &Args) {
        let w = self.workload;
        let (mut setups, mut walls, mut ipws, mut tick_p99s, mut completed) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut raw_walls, mut calibrations) = (Vec::new(), Vec::new());
        let opts = self.options(false);
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let mut before = calib::calibrate();
        calibrations.push(before);
        while walls.len() < MIN_REPLAYS || Instant::now() < deadline {
            let outcome = self.run_once(&opts);
            let after = calib::calibrate();
            calibrations.push(after);
            let k = calib::scale(before, after);
            before = after;
            let Some((setup, mut r)) = outcome else {
                // A failed replay counts every submission as failed.
                walls.push(f64::NAN);
                completed.push(0.0);
                continue;
            };
            setups.push(setup.total_s * k);
            raw_walls.push(r.wall_s);
            walls.push(r.wall_s * k);
            ipws.push(r.report.iterations_executed as f64 / (r.wall_s * k));
            r.tick_ns.sort_unstable();
            tick_p99s.push(percentile_sorted(&r.tick_ns, 99.0) as f64 / 1e3 * k);
            completed.push(r.report.jobs_completed as f64 / r.submitted as f64);
        }
        let metrics = [
            Metric { name: "replay_wall_s", unit: "s", value: median(&walls) },
            Metric { name: "iters_per_wall_s", unit: "1/s", value: median(&ipws) },
            Metric { name: "tick_wall_p99_us", unit: "us", value: median(&tick_p99s) },
            Metric { name: "setup_s", unit: "s", value: median(&setups) },
            Metric { name: "peak_rss_mib", unit: "MiB", value: stats::peak_rss_mib() },
            Metric { name: "completed_frac", unit: "frac", value: median(&completed) },
        ];
        println!(
            "{} seed {}: {} replays of {} ticks",
            w.name(),
            self.seed,
            walls.len(),
            self.reference.ticks
        );
        println!(
            "unscaled: replay_wall_s median {:.4} s; calibration median {:.4} s (reference {} s)",
            median(&raw_walls),
            median(&calibrations),
            calib::REFERENCE_S
        );
        self.finish(&metrics);
    }

    /// `--trace 1`: alternate untraced and traced replays until
    /// `--seconds` have passed, write one traced replay's spans as a
    /// Chrome trace, and report the per-layer metrics.
    fn run_traced(&mut self, args: &Args) {
        let w = self.workload;
        let mut plain_walls = Vec::new();
        let mut traced: Vec<Vec<Metric>> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let mut i = 0usize;
        while i < 2 * MIN_REPLAYS || Instant::now() < deadline {
            let is_traced = i % 2 == 1;
            i += 1;
            let Some((setup, r)) = self.run_once(&self.options(is_traced)) else { continue };
            if !is_traced {
                plain_walls.push(r.wall_s);
                continue;
            }
            if traced.is_empty() {
                let path =
                    Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", w.name(), self.seed));
                std::fs::write(&path, spans::chrome_json(&r.spans))
                    .expect("write the Chrome trace");
                eprintln!("wrote {} spans to {}", r.spans.len(), path.display());
            }
            traced.push(layer_values(&r, &setup));
        }
        // Every traced replay yields the same metrics in the same order.
        let metrics: Vec<Metric> = (0..traced.first().map_or(0, Vec::len))
            .map(|k| {
                let values: Vec<f64> = traced.iter().map(|m| m[k].value).collect();
                Metric { name: traced[0][k].name, unit: traced[0][k].unit, value: median(&values) }
            })
            .collect();
        let t =
            metrics.iter().find(|m| m.name == "trace.replay_wall_s").map_or(f64::NAN, |m| m.value);
        let u = median(&plain_walls);
        println!(
            "tracing overhead: traced - untraced replay_wall_s = {:.4} s - {:.4} s = {:+.4} s ({:+.1}%)",
            t,
            u,
            t - u,
            (t / u - 1.0) * 100.0
        );
        self.finish(&metrics);
    }

    fn finish(&self, metrics: &[Metric]) {
        for m in metrics {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = std::fs::remove_dir_all(&self.delta_dir);
        println!(
            "{}",
            stats::result_json(self.correct, self.attempted.max(1), self.failed, metrics)
        );
    }
}

/// Every submission is admitted or bounced, the fleet is drained, and
/// every admitted job ended completed, cancelled or shed.
fn accounting(r: &WorkloadReport) -> Result<(), String> {
    let f = &r.fleet;
    if r.admitted + r.bounced != r.submitted {
        return Err(format!(
            "{} admitted + {} bounced != {} submitted",
            r.admitted, r.bounced, r.submitted
        ));
    }
    if f.jobs_queued + f.jobs_running != 0 {
        return Err("the fleet was not drained".into());
    }
    let shed = f.jobs_rejected.checked_sub(r.bounced).ok_or("fewer rejections than bounces")?;
    if f.jobs_completed + f.jobs_cancelled + shed != r.admitted {
        return Err(format!(
            "{} completed + {} cancelled + {shed} shed != {} admitted",
            f.jobs_completed, f.jobs_cancelled, r.admitted
        ));
    }
    Ok(())
}

/// `Ok` when `got` equals `want`; otherwise where they first differ.
fn same_bits(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
    let from = at.saturating_sub(60);
    Err(format!(
        "the fleet report differs from {what} at byte {at}: got '…{}…', want '…{}…'",
        &got[from..(at + 40).min(got.len())],
        &want[from..(at + 40).min(want.len())]
    ))
}

/// Per-layer values of one traced replay and its set-up.
fn layer_values(r: &Replay, setup: &SetupTimes) -> Vec<Metric> {
    let l = &r.layers;
    let f = &r.report;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut tick_ns = r.tick_ns.clone();
    tick_ns.sort_unstable();
    let mut recover_ns = r.recover_ns.clone();
    recover_ns.sort_unstable();
    let self_s = layer_self_times(r);
    let covered: u64 = r
        .spans
        .iter()
        .filter(|s| s.parent == r.root_span && s.tid == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    vec![
        ("workload.lower_s", "s", setup.lower_s),
        ("workload.trace_codec_s", "s", setup.codec_s),
        ("workload.trace_bytes", "bytes", setup.trace_bytes as f64),
        ("workload.recipe_s", "s", l.recipe_s),
        ("runtime.submit_s", "s", l.submit_s),
        ("runtime.submits", "count", r.submitted as f64),
        ("runtime.admit_ratio", "ratio", per(r.admitted as f64, r.submitted as f64)),
        ("runtime.tick_s", "s", l.tick_s),
        ("runtime.ticks", "count", r.ticks as f64),
        ("runtime.tick_p50_us", "us", percentile_sorted(&tick_ns, 50.0) as f64 / 1e3),
        ("runtime.exec_step_s", "s", l.exec_s),
        ("runtime.exec_steps", "count", l.exec_steps as f64),
        ("runtime.exec_us_per_iter", "us", per(l.exec_s * 1e6, f.iterations_executed as f64)),
        ("runtime.bookkeeping_s", "s", l.bookkeeping_s),
        ("runtime.iterations", "count", f.iterations_executed as f64),
        ("runtime.fused_launches", "count", f.fused_launches as f64),
        (
            "runtime.lanes_per_launch",
            "lanes",
            per((f.fused_launches + f.launches_saved) as f64, f.fused_launches as f64),
        ),
        ("runtime.preemptions", "count", f.preemptions as f64),
        ("runtime.sim_jobs_per_s", "jobs/sim_s", f.jobs_per_sim_s),
        ("runtime.sim_makespan_s", "sim_s", f.makespan_s),
        ("runtime.ckpt_encode_s", "s", l.encode_s),
        ("runtime.ckpt_decode_s", "s", l.decode_s),
        ("runtime.restore_s", "s", l.restore_s),
        ("runtime.ckpt_bytes_mean", "bytes", per(l.ckpt_bytes as f64, l.ckpts as f64)),
        ("runtime.recoveries", "count", l.recoveries as f64),
        ("runtime.recover_p50_ms", "ms", percentile_sorted(&recover_ns, 50.0) as f64 / 1e6),
        ("runtime.recover_p95_ms", "ms", percentile_sorted(&recover_ns, 95.0) as f64 / 1e6),
        ("runtime.delta_snapshot_s", "s", l.delta_s),
        ("runtime.delta_bytes_mean", "bytes", per(l.delta_bytes as f64, l.delta_segments as f64)),
        ("runtime.delta_dirty_ratio", "ratio", per(l.delta_dirty as f64, l.delta_live as f64)),
        ("runtime.base_snapshots", "count", l.base_snapshots as f64),
        ("runtime.report_s", "s", l.report_s),
        ("shard.workers", "count", l.workers as f64),
        ("shard.worker_busy_frac", "ratio", per(l.exec_s, l.workers as f64 * l.tick_s)),
        ("shard.single_busy_tick_frac", "ratio", per(l.single_busy_ticks as f64, r.ticks as f64)),
        ("shard.load_imbalance", "ratio", per(l.imbalance_sum, l.balance_ticks as f64)),
        ("shard.steals", "count", l.steals as f64),
        ("process.cores_busy", "cores", per(l.cpu_s, r.wall_s)),
        ("layer.workload_s", "s", self_s.get("workload").copied().unwrap_or(0.0)),
        ("layer.runtime_s", "s", self_s.get("runtime").copied().unwrap_or(0.0)),
        ("layer.shard_s", "s", self_s.get("shard").copied().unwrap_or(0.0)),
        ("layer.search_s", "s", self_s.get("search").copied().unwrap_or(0.0)),
        ("layer.bench_s", "s", self_s.get("bench").copied().unwrap_or(0.0)),
        ("trace.span_coverage", "ratio", per(covered as f64, r.wall_s * 1e9)),
        ("trace.replay_wall_s", "s", r.wall_s),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric { name, unit, value })
    .collect()
}

/// Wall seconds of one traced replay attributed to layers by self time.
/// A coordinator span's self time is its duration minus, over the
/// threads its children ran on, the largest per-thread sum; when that
/// largest sum ran on a worker thread it is the search stack's critical
/// path and counts as `search`. The layers add up to the replay's wall.
fn layer_self_times(r: &Replay) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, BTreeMap<usize, u64>> = BTreeMap::new();
    for s in &r.spans {
        *children.entry(s.parent).or_default().entry(s.tid).or_default() += s.end_ns - s.start_ns;
    }
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in r.spans.iter().filter(|s| s.tid == 0) {
        let (tid, critical) = children
            .get(&s.id)
            .and_then(|by_tid| by_tid.iter().max_by_key(|(_, &ns)| ns))
            .map_or((0, 0), |(&tid, &ns)| (tid, ns));
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(critical);
        *layers.entry(spans::layer(s.name)).or_default() += self_ns as f64 / 1e9;
        if tid != 0 {
            *layers.entry("search").or_default() += critical as f64 / 1e9;
        }
    }
    layers
}
