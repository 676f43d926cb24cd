//! A miniature read mapper — the application the paper's introduction
//! motivates: *seeding* finds candidate locations of each read in a
//! reference genome via a k-mer index, then *seed extension* verifies each
//! candidate with exact pairwise alignment, offloaded to the WFAsic device.
//!
//! Run with: `cargo run --release --example read_mapper`

use std::collections::HashMap;
use wfasic::accel::AccelConfig;
use wfasic::driver::WfasicDriver;
use wfasic::seqio::{Pair, PairGenerator};
use wfasic::wfa::Penalties;

const K: usize = 15;
const READ_LEN: usize = 300;
const REF_LEN: usize = 20_000;

/// A k-mer index over the reference: k-mer -> positions.
fn build_index(reference: &[u8]) -> HashMap<&[u8], Vec<usize>> {
    let mut index: HashMap<&[u8], Vec<usize>> = HashMap::new();
    for pos in 0..=reference.len().saturating_sub(K) {
        index.entry(&reference[pos..pos + K]).or_default().push(pos);
    }
    index
}

/// Seeding: vote for candidate read placements from k-mer hits.
fn candidates(read: &[u8], index: &HashMap<&[u8], Vec<usize>>) -> Vec<usize> {
    let mut votes: HashMap<usize, u32> = HashMap::new();
    for (off, kmer) in read.windows(K).enumerate().step_by(7) {
        if let Some(hits) = index.get(kmer) {
            for &pos in hits {
                let start = pos.saturating_sub(off);
                *votes.entry(start / 16 * 16).or_default() += 1;
            }
        }
    }
    let mut cands: Vec<(usize, u32)> = votes.into_iter().collect();
    cands.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    cands.into_iter().take(2).map(|(p, _)| p).collect()
}

fn main() {
    // Build a synthetic "genome" and sample erroneous reads from it.
    let mut refgen = PairGenerator::new(REF_LEN, 0.0, 99);
    let reference = refgen.pair().a.to_bytes();
    let index = build_index(&reference);

    let readgen = PairGenerator::new(READ_LEN, 0.08, 123);
    let n_reads = 12;
    let mut truths = Vec::new();
    let mut jobs: Vec<Pair> = Vec::new();
    let mut job_meta: Vec<(usize, usize)> = Vec::new(); // (read idx, candidate pos)

    for r in 0..n_reads {
        // Sample a true location, take the reference slice, mutate it.
        let true_pos = (r * 1543) % (REF_LEN - READ_LEN);
        let template = &reference[true_pos..true_pos + READ_LEN];
        let read = wfasic::seqio::generate::mutate(
            template,
            (READ_LEN as f64 * 0.08) as usize,
            &Default::default(),
            &mut rand_rng(r as u64),
        );
        truths.push(true_pos);

        // Seeding on the CPU.
        for cand in candidates(&read, &index) {
            let lo = cand.min(REF_LEN - READ_LEN - 32);
            let window = &reference[lo..(lo + READ_LEN + 32).min(REF_LEN)];
            job_meta.push((r, lo));
            jobs.push(Pair::new(jobs.len() as u32, read.clone(), window.to_vec()));
        }
        let _ = &readgen;
    }

    println!(
        "reference {} bp, {} reads of {} bp, {} seed-extension jobs -> WFAsic",
        REF_LEN,
        n_reads,
        READ_LEN,
        jobs.len()
    );

    // Seed extension on the accelerator (backtrace on: mappers need CIGARs).
    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    let job = drv.submit(&jobs, true).expect("fault-free job cannot fail");

    // Pick the best-scoring candidate per read.
    let mut best: HashMap<usize, (u32, usize, String)> = HashMap::new();
    for (res, &(read_idx, pos)) in job.results.iter().zip(&job_meta) {
        if !res.success {
            continue;
        }
        let entry = best.entry(read_idx).or_insert((u32::MAX, 0, String::new()));
        if res.score < entry.0 {
            *entry = (res.score, pos, res.cigar.as_ref().unwrap().to_rle_string());
        }
    }

    let mut mapped_close = 0;
    #[allow(clippy::needless_range_loop)]
    for r in 0..n_reads {
        if let Some((score, pos, cigar)) = best.get(&r) {
            let delta = (*pos as i64 - truths[r] as i64).abs();
            if delta <= 32 {
                mapped_close += 1;
            }
            println!(
                "read {r:>2}: mapped at {pos:>6} (truth {:>6}, score {score:>3})  {}",
                truths[r],
                if cigar.len() > 40 {
                    &cigar[..40]
                } else {
                    cigar
                }
            );
        } else {
            println!("read {r:>2}: unmapped");
        }
    }
    println!(
        "\n{mapped_close}/{n_reads} reads mapped within 32 bp of the truth; accelerator spent {} cycles",
        job.report.total_cycles
    );
    assert!(
        mapped_close * 10 >= n_reads * 8,
        "mapper should place most reads"
    );

    // Scores are exact: spot-check one against SWG.
    let check = &jobs[0];
    let sw = wfasic::wfa::swg_score(
        &check.a.bytes(),
        &check.b.bytes(),
        &Penalties::WFASIC_DEFAULT,
    );
    assert_eq!(job.results[0].score as u64, sw);
}

/// Seeded RNG helper for the mutator.
fn rand_rng(seed: u64) -> wfasic::wfa::SmallRng {
    wfasic::wfa::SmallRng::seed_from_u64(seed)
}
