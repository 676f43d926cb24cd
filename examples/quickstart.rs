//! Quickstart: align two sequences three ways — the software WFA, the SWG
//! oracle, and the full WFAsic co-design (accelerator + driver + CPU
//! backtrace) — and show they agree.
//!
//! Run with: `cargo run --release --example quickstart`

use wfasic::accel::AccelConfig;
use wfasic::driver::WfasicDriver;
use wfasic::seqio::Pair;
use wfasic::wfa::{swg_align, wfa_align, Penalties, WfaOptions};

fn main() {
    let a = b"GATTACAGATTACAGATTACAGATTACA".to_vec();
    let b = b"GATCACAGATTACAGGATTACAGATACA".to_vec();
    let p = Penalties::WFASIC_DEFAULT;

    println!("a = {}", String::from_utf8_lossy(&a));
    println!("b = {}", String::from_utf8_lossy(&b));
    println!("penalties: x={} o={} e={}\n", p.x, p.o, p.e);

    // 1. Software WFA (the algorithm the chip accelerates).
    let wfa = wfa_align(&a, &b, &WfaOptions::exact(p)).expect("exact WFA cannot fail unbounded");
    let cigar = wfa.cigar.clone().unwrap();
    println!("software WFA : score {:>3}  cigar {}", wfa.score, cigar);
    println!(
        "               cells computed {}, bases compared {} (SWG would compute {})",
        wfa.stats.cells_computed,
        wfa.stats.bases_compared,
        3 * (a.len() + 1) * (b.len() + 1),
    );

    // 2. The O(n^2) SWG oracle.
    let swg = swg_align(&a, &b, &p);
    println!("SWG oracle   : score {:>3}  cigar {}", swg.score, swg.cigar);
    assert_eq!(wfa.score as u64, swg.score, "WFA is exact");

    // 3. The WFAsic co-design: device + driver + CPU backtrace.
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    let pairs = vec![Pair::new(0, a.clone(), b.clone())];
    let job = drv
        .submit(&pairs, true)
        .expect("fault-free job cannot fail");
    let res = &job.results[0];
    let hw_cigar = res.cigar.as_ref().unwrap();
    println!(
        "WFAsic       : score {:>3}  cigar {}  ({} accelerator cycles)",
        res.score, hw_cigar, job.report.pairs[0].align_cycles
    );
    assert!(res.success);
    assert_eq!(res.score, wfa.score);
    hw_cigar
        .check(&a, &b)
        .expect("hardware CIGAR must be valid");
    assert_eq!(hw_cigar.score(&p), res.score as u64);

    println!("\nall three agree.");
}
