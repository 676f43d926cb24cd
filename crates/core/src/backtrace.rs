//! Software backtrace over retained wavefronts (paper §2.3 `backtrace()`).
//!
//! Starting from the final cell `(n, m)` (diagonal `k_end = m - n`, offset
//! `m`, component M), the backtrace replays Eq. 3 in reverse: at each step it
//! recomputes which source produced the stored offset, emits the
//! corresponding operation, and jumps to that source's `(score, diagonal,
//! component)`. Matches contributed by `extend()` are recovered as the gap
//! between the stored (post-extend) offset and the recomputed pre-extend
//! value.
//!
//! The hardware variant (origin bits emitted by the Compute sub-module,
//! walked by the CPU) lives in `wfasic-driver`; this module is the in-memory
//! reference both are tested against.

use crate::cigar::{Cigar, Op};
use crate::penalties::Penalties;
use crate::wavefront::{offset_is_valid, WavefrontSet, OFFSET_NULL};
use crate::wfa::validated_offset;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    M,
    I,
    D,
}

/// Reconstruct an optimal transcript from the full wavefront history.
///
/// `fronts[s]` must hold the wavefront set for score `s` (post-extend), as
/// produced by [`crate::wfa::wfa_align`] in CIGAR mode; `score` is the final
/// alignment score. The walk is purely offset arithmetic — it needs only
/// the sequence *lengths* (`n = |a|`, `m = |b|`), never the bases, so it is
/// representation-agnostic by construction.
pub fn backtrace(
    n: i32,
    m: i32,
    fronts: &[Option<WavefrontSet>],
    score: u32,
    p: &Penalties,
) -> Cigar {
    let get_m = |s: i64, k: i32| -> i32 {
        if s < 0 {
            return OFFSET_NULL;
        }
        fronts
            .get(s as usize)
            .and_then(|o| o.as_ref())
            .map(|set| set.m.get(k))
            .unwrap_or(OFFSET_NULL)
    };
    let get_i = |s: i64, k: i32| -> i32 {
        if s < 0 {
            return OFFSET_NULL;
        }
        fronts
            .get(s as usize)
            .and_then(|o| o.as_ref())
            .and_then(|set| set.i.as_ref())
            .map(|w| w.get(k))
            .unwrap_or(OFFSET_NULL)
    };
    let get_d = |s: i64, k: i32| -> i32 {
        if s < 0 {
            return OFFSET_NULL;
        }
        fronts
            .get(s as usize)
            .and_then(|o| o.as_ref())
            .and_then(|set| set.d.as_ref())
            .map(|w| w.get(k))
            .unwrap_or(OFFSET_NULL)
    };

    let x = p.x as i64;
    let oe = (p.o + p.e) as i64;
    let e = p.e as i64;

    let mut cigar = Cigar::new();
    let mut s = score as i64;
    let mut k = m - n;
    let mut h = m; // current offset (j coordinate)
    let mut comp = Comp::M;

    loop {
        match comp {
            Comp::M => {
                if s == 0 {
                    // Initial wavefront: everything left is leading matches.
                    debug_assert_eq!(k, 0, "backtrace must finish on diagonal 0");
                    cigar.push_run(Op::Match, h as u32);
                    break;
                }
                // Recompute the pre-extend value of M[s][k] exactly as
                // compute() did (including bounds validation).
                let sub_src = get_m(s - x, k);
                let sub = if offset_is_valid(sub_src) {
                    validated_offset(sub_src + 1, k, n, m)
                } else {
                    OFFSET_NULL
                };
                let iv = get_i(s, k);
                let dv = get_d(s, k);
                let pre = sub.max(iv).max(dv);
                debug_assert!(
                    offset_is_valid(pre) && pre <= h,
                    "inconsistent backtrace state at s={s} k={k} h={h} pre={pre}"
                );
                // Matches recovered by extend().
                cigar.push_run(Op::Match, (h - pre) as u32);
                h = pre;
                if offset_is_valid(iv) && iv == pre {
                    comp = Comp::I;
                } else if offset_is_valid(dv) && dv == pre {
                    comp = Comp::D;
                } else {
                    debug_assert_eq!(sub, pre, "mismatch source must match at s={s} k={k}");
                    cigar.push(Op::Mismatch);
                    s -= x;
                    h -= 1;
                }
            }
            Comp::I => {
                // I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1, consuming b.
                cigar.push(Op::Ins);
                let from_open = get_m(s - oe, k - 1);
                if offset_is_valid(from_open) && from_open + 1 == h {
                    s -= oe;
                    comp = Comp::M;
                } else {
                    debug_assert_eq!(get_i(s - e, k - 1) + 1, h);
                    s -= e;
                }
                k -= 1;
                h -= 1;
            }
            Comp::D => {
                // D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1]), consuming a.
                cigar.push(Op::Del);
                let from_open = get_m(s - oe, k + 1);
                if offset_is_valid(from_open) && from_open == h {
                    s -= oe;
                    comp = Comp::M;
                } else {
                    debug_assert_eq!(get_d(s - e, k + 1), h);
                    s -= e;
                }
                k += 1;
            }
        }
    }

    cigar.reverse();
    cigar
}

#[cfg(test)]
mod tests {
    use crate::penalties::Penalties;
    use crate::swg::swg_align;
    use crate::wfa::{wfa_align, WfaOptions};

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    fn roundtrip(a: &[u8], b: &[u8]) {
        let r = wfa_align(a, b, &WfaOptions::exact(P)).unwrap();
        let cigar = r.cigar.unwrap();
        cigar.check(a, b).unwrap();
        assert_eq!(
            cigar.score(&P),
            r.score as u64,
            "cigar must cost the WFA score"
        );
        assert_eq!(r.score as u64, swg_align(a, b, &P).score);
    }

    #[test]
    fn pure_matches() {
        roundtrip(b"ACGT", b"ACGT");
    }

    #[test]
    fn leading_trailing_edits() {
        roundtrip(b"TACGT", b"AACGT");
        roundtrip(b"ACGTT", b"ACGTA");
        roundtrip(b"TTACGT", b"ACGT");
        roundtrip(b"ACGT", b"ACGTTT");
    }

    #[test]
    fn mixed_edit_soup() {
        roundtrip(b"GATTACAGATTACA", b"GACTACAGGATTAA");
        roundtrip(b"CCCCAAAATTTT", b"CCCCTTTT");
        roundtrip(b"AGCT", b"TCGA");
    }

    #[test]
    fn gap_then_mismatch_interleave() {
        roundtrip(b"AAACCCGGG", b"AAATCCCGGGG");
    }

    #[test]
    fn homopolymer_slippage() {
        // Repeats make many co-optimal paths; any returned path must be valid.
        roundtrip(b"AAAAAAAAAA", b"AAAAAAA");
        roundtrip(b"AAAAAAA", b"AAAAAAAAAA");
    }
}
