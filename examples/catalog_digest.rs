//! Same-bits digest of the scenario catalog: for every
//! `Scenario::catalog()` entry × seeds 1, 42 and 2026, record the
//! workload and write five artefacts to `<dir>/<scenario>-<seed>-<artefact>`:
//!
//! - `report.txt` — the recorded `WorkloadReport`, `Debug`-rendered (every
//!   f64 in its exact shortest round-trip form);
//! - `trace.bin` — the recorded trace bytes;
//! - `replay2.txt` — a 2-worker replay's `WorkloadReport`, `Debug`-rendered;
//! - `metrics.prom` — `Driver::replay_metered`'s Prometheus text;
//! - `events.jsonl` — `Driver::replay_observed`'s JSONL event stream.
//!
//! Then it prints one `length digest name` line per file (64-bit FNV-1a).
//! Run it on two commits and `diff -r` the two directories: a change that
//! keeps the modeled bits leaves nothing to report, and any file that
//! differs names the scenario, seed and layer that moved.
//!
//! ```text
//! cargo run --release --example catalog_digest -- target/digest-a
//! cargo run --release --example catalog_digest -- target/digest-b
//! diff -r target/digest-a target/digest-b
//! ```

use lnls::prelude::*;
use std::path::Path;

const SEEDS: [u64; 3] = [1, 42, 2026];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("write artefact");
    println!("{} {:016x} {name}", bytes.len(), fnv1a(bytes));
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "target/catalog-digest".to_string());
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir).expect("create digest directory");
    for scenario in Scenario::catalog() {
        for seed in SEEDS {
            let stem = format!("{}-{seed}", scenario.name);
            let (trace, recorded) = Driver::record(&scenario, seed);
            write(dir, &format!("{stem}-report.txt"), format!("{recorded:?}").as_bytes());
            write(dir, &format!("{stem}-trace.bin"), &trace.to_bytes());
            let replay2 = Driver::replay_with_workers(&trace, 2);
            write(dir, &format!("{stem}-replay2.txt"), format!("{replay2:?}").as_bytes());
            let (_, metrics) = Driver::replay_metered(&trace);
            write(dir, &format!("{stem}-metrics.prom"), metrics.render_prometheus().as_bytes());
            // The sink owns the file; the driver drops it (flushing) before
            // `replay_observed` returns, so the bytes are complete here.
            let events = dir.join(format!("{stem}-events.jsonl"));
            let sink = JsonlSink::create(&events).expect("create event log");
            let _ = Driver::replay_observed(&trace, Box::new(sink));
            let bytes = std::fs::read(&events).expect("read event log");
            println!("{} {:016x} {stem}-events.jsonl", bytes.len(), fnv1a(&bytes));
        }
    }
}
