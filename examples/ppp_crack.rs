//! The paper's motivating scenario end to end: a Pointcheval
//! identification key is generated, the attacker sees only the public
//! instance, recovers an equivalent secret with large-neighborhood tabu
//! search (escalating 1 → 2 → 3-Hamming exactly as the paper's tables
//! do), and then passes the identification protocol.
//!
//! ```text
//! cargo run --release --example ppp_crack
//! ```

use lnls::ppp::crypto;
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let (m, n, seed) = (37, 37, 77);
    println!("── key generation ───────────────────────────────────────");
    let (pk, sk) = crypto::keygen(m, n, seed);
    println!("issued a PPP-{m}×{n} identification key");
    let honest = crypto::identification_session(&pk, &sk, 16, 1);
    println!("honest prover passes {honest}/16 rounds\n");

    println!("── attack: large-neighborhood tabu search ───────────────");
    let problem = Ppp::new(pk.inst.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);

    let mut recovered: Option<BitString> = None;
    for k in 1..=3usize {
        let hood = KHamming::new(n, k);
        let budget = (Neighborhood::size(&KHamming::new(n, 3)) / 8).max(2_000);
        let search = TabuSearch::paper(
            SearchConfig::budget(budget).with_seed(seed + k as u64),
            Neighborhood::size(&hood),
        );
        let mut explorer = SequentialExplorer::new(hood);
        let t0 = Instant::now();
        let r = search.run(&problem, &mut explorer, init.clone());
        println!(
            "{k}-Hamming: fitness {:>3} after {:>6} iters ({:>8.2?})  {}",
            r.best_fitness,
            r.iterations,
            t0.elapsed(),
            if r.success { "→ key recovered!" } else { "" }
        );
        if r.success {
            recovered = Some(r.best);
            break;
        }
    }

    let Some(v) = recovered else {
        println!("\nattack failed within the budget — rerun with a bigger budget");
        return;
    };

    println!("\n── impersonation with the recovered key ─────────────────");
    assert!(pk.inst.is_solution(&v), "recovered vector must satisfy the instance");
    match &sk.v {
        w if *w == v => println!("recovered the exact planted secret"),
        _ => println!("recovered an equivalent secret (same correlation multiset)"),
    }
    let forged = crypto::SecretKey { v };
    let passed = crypto::identification_session(&pk, &forged, 16, 2);
    println!("attacker passes {passed}/16 identification rounds");
    assert_eq!(passed, 16, "a valid witness must always identify");
    println!("\nthe scheme is broken exactly as §IV of the paper demonstrates.");
}
