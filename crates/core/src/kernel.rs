//! The shared host kernels used by every aligner in the workspace: the LCP
//! ("extend") comparison and the batched Eq. 3 compute row, each with one
//! fast path per CPU and one scalar reference.
//!
//! WFA's `extend()` operator is a longest-common-prefix computation:
//! starting from `(i, j)`, count how many bases of `a[i..]` and `b[j..]`
//! match. The hardware compares 16 bases per cycle (paper §4.3.2); the host
//! analogue takes the widest path the CPU has:
//!
//! * **Avx2** — `std::arch::x86_64` kernels comparing 32 ASCII bases or
//!   128 packed bases per iteration ([`lcp_packed_simd`]), taken whenever
//!   `is_x86_feature_detected!("avx2")` reports the feature.
//! * **Word** — one `u64` per iteration: 8 ASCII bases ([`lcp_bytes_word`])
//!   or 32 packed bases ([`lcp_packed_word`]) via XOR + `trailing_zeros`.
//!   The portable path on every other CPU.
//!
//! Nothing overrides the CPU's choice; [`kernel_dispatch`] only reports it.
//! Each operator keeps a scalar reference ([`lcp_bytes_scalar`],
//! [`lcp_packed_scalar`], [`compute_row_scalar`],
//! [`compute_row_with_origins_scalar`]) that the tests in this module
//! compare every path against directly, across unaligned starts,
//! word/vector-boundary mismatches, empty sequences and length-limited
//! tails.
//!
//! [`extend_row`] extends a whole wavefront row of packed cells in one
//! pass (gathering four diagonals' windows at a time on AVX2); it is the
//! Extend phase of both the accelerator model and the software WFA.
//! Simulated accelerator cycles are derived from the modeled comparison
//! blocks (`wfasic_accel::extend::compare_cycles`), never from host word
//! width, so the kernel path cannot leak into cycle counts.
//!
//! [`compute_row`] is the batched form of Eq. 3 (paper §2.3): it computes a
//! whole run of adjacent diagonals' I/D/M offsets from padded source rows
//! (`_mm256_max_epi32` candidate reduction on AVX2).
//! [`compute_row_scalar`] delegates to the per-cell
//! [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions and is the reference.
//! [`compute_row_with_origins_scalar`] is the reference for the Compute
//! sub-module's 5-bit origin bundle (paper §4.3.3), which the structural
//! Aligner model also runs.

use crate::bitpack::PackedSeq;
use crate::wavefront::OFFSET_NULL;

/// Bytes (= bases) compared per machine word by [`lcp_bytes_word`].
pub const BYTES_PER_WORD: usize = 8;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// The host kernel path the running CPU takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelDispatch {
    /// One `u64` per iteration (the portable path).
    Word,
    /// 256-bit `std::arch::x86_64` kernels.
    Avx2,
}

impl KernelDispatch {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Word => "word",
            KernelDispatch::Avx2 => "avx2",
        }
    }
}

/// The path the running CPU takes: AVX2 when it reports the feature, the
/// portable word path otherwise.
#[inline]
pub fn kernel_dispatch() -> KernelDispatch {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return KernelDispatch::Avx2;
    }
    KernelDispatch::Word
}

// ---------------------------------------------------------------------------
// LCP over ASCII bytes
// ---------------------------------------------------------------------------

/// Count matching bases of `a[i..]` vs `b[j..]` on the CPU's path. The
/// hot entry point used by the software WFA oracle
/// ([`crate::wfa::wfa_align`]), which must accept arbitrary bytes
/// (including non-ACGT) and therefore cannot pack.
#[inline]
pub fn lcp_bytes(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if kernel_dispatch() == KernelDispatch::Avx2 {
        // SAFETY: `kernel_dispatch` reports AVX2 only when the CPU has it.
        return unsafe { lcp_bytes_avx2(a, b, i, j) };
    }
    lcp_bytes_word(a, b, i, j)
}

/// Count matching bases of `a[i..]` vs `b[j..]`, one byte at a time.
///
/// The scalar reference; every fast path must match it exactly on every
/// input.
#[inline]
pub fn lcp_bytes_scalar(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    let (sa, sb) = (&a[i..], &b[j..]);
    let limit = sa.len().min(sb.len());
    let mut count = 0;
    while count < limit && sa[count] == sb[count] {
        count += 1;
    }
    count
}

/// Count matching bases of `a[i..]` vs `b[j..]`, 8 bytes per `u64`.
///
/// Whole words are compared with a single XOR; the first differing byte is
/// located with `trailing_zeros / 8` (sequences are compared little-endian,
/// so the lowest differing byte lane is the earliest mismatch). The
/// sub-word tail falls back to the scalar loop.
#[inline]
pub fn lcp_bytes_word(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    let (sa, sb) = (&a[i..], &b[j..]);
    let limit = sa.len().min(sb.len());
    let mut k = 0;
    while k + BYTES_PER_WORD <= limit {
        let wa = u64::from_le_bytes(sa[k..k + BYTES_PER_WORD].try_into().unwrap());
        let wb = u64::from_le_bytes(sb[k..k + BYTES_PER_WORD].try_into().unwrap());
        let diff = wa ^ wb;
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += BYTES_PER_WORD;
    }
    while k < limit && sa[k] == sb[k] {
        k += 1;
    }
    k
}

/// AVX2 byte LCP: 32 bytes per compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lcp_bytes_avx2(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    use std::arch::x86_64::*;
    let (sa, sb) = (&a[i..], &b[j..]);
    let limit = sa.len().min(sb.len());
    let mut k = 0;
    while k + 32 <= limit {
        let va = _mm256_loadu_si256(sa.as_ptr().add(k) as *const __m256i);
        let vb = _mm256_loadu_si256(sb.as_ptr().add(k) as *const __m256i);
        let eq = _mm256_cmpeq_epi8(va, vb);
        let mask = _mm256_movemask_epi8(eq) as u32;
        if mask != u32::MAX {
            return k + (!mask).trailing_zeros() as usize;
        }
        k += 32;
    }
    k + lcp_bytes_word(a, b, i + k, j + k)
}

// ---------------------------------------------------------------------------
// LCP over 2-bit packed sequences
// ---------------------------------------------------------------------------

/// Count matching bases of `a[i..]` vs `b[j..]` on 2-bit-packed sequences
/// on the CPU's path. The hot entry point used by the accelerator model's
/// Extend sub-module and the packed CPU backend.
#[inline]
pub fn lcp_packed(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    // One 32-base window resolves the vast majority of WFA extends (at
    // realistic error rates the mean run is a couple of bases); only runs
    // that clear the whole window enter a long-run loop. Values are unchanged —
    // this is the first iteration of the word kernel, hoisted.
    let limit = (a.len() - i).min(b.len() - j);
    if limit == 0 {
        return 0;
    }
    let diff = a.window(i) ^ b.window(j);
    if diff != 0 {
        return ((diff.trailing_zeros() / 2) as usize).min(limit);
    }
    if limit <= crate::bitpack::BASES_PER_WORD {
        return limit;
    }
    lcp_packed_simd(a, b, i, j)
}

/// One-base-at-a-time reference for the packed kernels.
#[inline]
pub fn lcp_packed_scalar(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    let limit = (a.len() - i).min(b.len() - j);
    let mut count = 0;
    while count < limit && a.get(i + count) == b.get(j + count) {
        count += 1;
    }
    count
}

/// Count matching bases of `a[i..]` vs `b[j..]` on 2-bit-packed sequences,
/// 32 bases per `u64`.
///
/// Each iteration reads one 32-base window from each sequence (shifting
/// across the word boundary, like the hardware's REG_1/REG_2 concatenate
/// network), XORs them, and counts trailing zero *base pairs*. Garbage
/// bits past a sequence's end never flow into the result: the count is
/// clamped to the in-bounds limit.
#[inline]
pub fn lcp_packed_word(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    let limit = (a.len() - i).min(b.len() - j);
    let mut matched = 0;
    while matched < limit {
        let wa = a.window(i + matched);
        let wb = b.window(j + matched);
        let diff = wa ^ wb;
        if diff == 0 {
            matched += crate::bitpack::BASES_PER_WORD;
        } else {
            matched += (diff.trailing_zeros() / 2) as usize;
            break;
        }
    }
    matched.min(limit)
}

/// AVX2 packed LCP (128 bases per compare) when the CPU supports it, the
/// word kernel otherwise, and on every target but x86_64. Callers normally
/// go through [`lcp_packed`].
///
/// Both packed streams are bit-aligned in registers with a per-lane
/// `srl/sll` pair — the vector form of the word path's cross-word window
/// shift. The bits the two shifted loads contribute at overlapping lane
/// positions are the *same stream bits*, so OR-combining them is exact.
#[inline]
pub fn lcp_packed_simd(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above.
        return unsafe { lcp_packed_avx2(a, b, i, j) };
    }
    lcp_packed_word(a, b, i, j)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lcp_packed_avx2(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    use std::arch::x86_64::*;
    let limit = (a.len() - i).min(b.len() - j);
    let ab = a.as_raw_bytes();
    let bb = b.as_raw_bytes();
    // Bit phase within the starting byte of each stream; constant across
    // the loop because each hit advances by whole bytes (32 = 128 bases).
    let sa = _mm_cvtsi32_si128(2 * (i % 4) as i32);
    let sb_sh = _mm_cvtsi32_si128(2 * (j % 4) as i32);
    let ca = _mm_cvtsi32_si128(8 - 2 * (i % 4) as i32);
    let cb = _mm_cvtsi32_si128(8 - 2 * (j % 4) as i32);
    let mut abyte = i / 4;
    let mut bbyte = j / 4;
    let mut matched = 0usize;
    // Each iteration needs loads at byte and byte+1 (33 bytes in-bounds).
    while matched < limit && abyte + 33 <= ab.len() && bbyte + 33 <= bb.len() {
        let a0 = _mm256_loadu_si256(ab.as_ptr().add(abyte) as *const __m256i);
        let a1 = _mm256_loadu_si256(ab.as_ptr().add(abyte + 1) as *const __m256i);
        let va = _mm256_or_si256(_mm256_srl_epi64(a0, sa), _mm256_sll_epi64(a1, ca));
        let b0 = _mm256_loadu_si256(bb.as_ptr().add(bbyte) as *const __m256i);
        let b1 = _mm256_loadu_si256(bb.as_ptr().add(bbyte + 1) as *const __m256i);
        let vb = _mm256_or_si256(_mm256_srl_epi64(b0, sb_sh), _mm256_sll_epi64(b1, cb));
        let diff = _mm256_xor_si256(va, vb);
        if _mm256_testz_si256(diff, diff) == 0 {
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, diff);
            for (lane, &d) in lanes.iter().enumerate() {
                if d != 0 {
                    matched += lane * 32 + (d.trailing_zeros() / 2) as usize;
                    return matched.min(limit);
                }
            }
        }
        matched += 128;
        abyte += 32;
        bbyte += 32;
    }
    if matched >= limit {
        return limit;
    }
    (matched + lcp_packed_word(a, b, i + matched, j + matched)).min(limit)
}

/// The Extend phase (paper §4.3.2) as one pass over a wavefront row:
/// `offs[t]` is the offset (`j`) of diagonal `k_lo + t`. NULL cells are left
/// untouched; every valid cell (it must lie inside the DP matrix, or this
/// panics) advances by its `lcp_packed` match count, then `on_cell(t,
/// matches, limit)` gets its index, matches and `limit = min(a.len() - i,
/// b.len() - j)`, in increasing index order.
/// `matches < limit` means the run stopped on a mismatch inside both
/// sequences.
///
/// The AVX2 path takes four offsets per step straight from the row, one
/// masked 64-bit gather per sequence fetches each lane's window, and a
/// per-lane trailing-zeros count resolves it; a run past the window
/// escalates to the long-run kernel. The word path loops over
/// [`lcp_packed`], so offsets and callbacks are identical on both.
pub fn extend_row<F: FnMut(usize, usize, usize)>(
    a: &PackedSeq,
    b: &PackedSeq,
    offs: &mut [i32],
    k_lo: i32,
    mut on_cell: F,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel_dispatch() == KernelDispatch::Avx2 {
        // SAFETY: `kernel_dispatch` reports AVX2 only when the CPU has it.
        unsafe { extend_row_avx2(a, b, offs, k_lo, &mut on_cell) };
        return;
    }
    extend_cells(a, b, offs, k_lo, 0, &mut on_cell);
}

/// [`extend_row`] one cell at a time over `offs[start..]`: the word path
/// and the AVX2 tail.
fn extend_cells<F: FnMut(usize, usize, usize)>(
    a: &PackedSeq,
    b: &PackedSeq,
    offs: &mut [i32],
    k_lo: i32,
    start: usize,
    on_cell: &mut F,
) {
    let (n, m) = (a.len() as i64, b.len() as i64);
    for (t, off) in offs.iter_mut().enumerate().skip(start) {
        if !crate::wavefront::offset_is_valid(*off) {
            continue;
        }
        let (i, j) = (*off as i64 - (k_lo as i64 + t as i64), *off as i64);
        assert!(
            (0..=n).contains(&i) && (0..=m).contains(&j),
            "extend_row: cell (i={i}, j={j}) outside the {n}x{m} matrix"
        );
        let matches = lcp_packed(a, b, i as usize, j as usize);
        *off += matches as i32;
        on_cell(t, matches, (n - i).min(m - j) as usize);
    }
}

/// [`extend_row`] on the AVX2 path.
///
/// # Safety
///
/// The CPU must support AVX2. Every gather stays in bounds for any input:
/// cells outside the matrix panic before their lanes are fetched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn extend_row_avx2<F: FnMut(usize, usize, usize)>(
    a: &PackedSeq,
    b: &PackedSeq,
    offs: &mut [i32],
    k_lo: i32,
    on_cell: &mut F,
) {
    use std::arch::x86_64::*;
    let (ab, bb) = (a.as_raw_bytes(), b.as_raw_bytes());
    let n_v = _mm_set1_epi32(a.len() as i32);
    let m_v = _mm_set1_epi32(b.len() as i32);
    let a_last = _mm_set1_epi32(ab.len() as i32 - 8);
    let b_last = _mm_set1_epi32(bb.len() as i32 - 8);
    let null_half = _mm_set1_epi32(OFFSET_NULL / 2);
    let iota = _mm_setr_epi32(0, 1, 2, 3);
    let zero = _mm_setzero_si128();
    let three = _mm_set1_epi32(3);
    let bases_per_word = _mm_set1_epi32(crate::bitpack::BASES_PER_WORD as i32);

    // Four windows at base positions `v`: an unaligned 8-byte gather at byte
    // `v/4` (pulled back to the buffer's last 8 bytes near its end), shifted
    // so base `v` is bit 0. It holds `32 - shift/2` real bases (at least 29
    // away from the end), then zeros. Inactive lanes never touch memory.
    macro_rules! windows {
        ($bytes:expr, $last:expr, $v:expr, $active:expr) => {{
            let byte = _mm_srli_epi32::<2>($v);
            let at = _mm_min_epi32(byte, $last);
            let sh = _mm_add_epi32(
                _mm_slli_epi32::<3>(_mm_sub_epi32(byte, at)),
                _mm_slli_epi32::<1>(_mm_and_si128($v, three)),
            );
            let w = _mm256_mask_i32gather_epi64::<1>(
                _mm256_setzero_si256(),
                $bytes.as_ptr() as *const i64,
                at,
                _mm256_cvtepi32_epi64($active),
            );
            (_mm256_srlv_epi64(w, _mm256_cvtepi32_epi64(sh)), sh)
        }};
    }

    let mut t = 0usize;
    while t + 4 <= offs.len() {
        let vj = _mm_loadu_si128(offs.as_ptr().add(t) as *const __m128i);
        let valid = _mm_cmpgt_epi32(vj, null_half);
        let valid_bits = _mm_movemask_ps(_mm_castsi128_ps(valid));
        if valid_bits == 0 {
            t += 4;
            continue;
        }
        let vi = _mm_sub_epi32(vj, _mm_add_epi32(_mm_set1_epi32(k_lo + t as i32), iota));
        let limit = _mm_min_epi32(_mm_sub_epi32(n_v, vi), _mm_sub_epi32(m_v, vj));
        // A valid cell outside the matrix would gather out of bounds.
        let outside = _mm_or_si128(
            _mm_cmpgt_epi32(zero, _mm_min_epi32(vi, vj)),
            _mm_cmpgt_epi32(zero, limit),
        );
        assert!(
            _mm_testz_si128(outside, valid) != 0,
            "extend_row: cell outside the matrix"
        );
        // active ⇔ valid and limit > 0 ⇔ i < a.len() and j < b.len(): the
        // gathers are in bounds exactly on active lanes.
        let active = _mm_and_si128(valid, _mm_cmpgt_epi32(limit, zero));
        let (wa, sha) = windows!(ab, a_last, vi, active);
        let (wb, shb) = windows!(bb, b_last, vj, active);
        let mut dl = [0u64; 4];
        _mm256_storeu_si256(dl.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(wa, wb));
        let mut ll = [0i32; 4];
        _mm_storeu_si128(ll.as_mut_ptr() as *mut __m128i, limit);
        // Real bases both windows of a lane hold.
        let mut wl = [0i32; 4];
        let covered = _mm_sub_epi32(bases_per_word, _mm_srli_epi32::<1>(_mm_max_epi32(sha, shb)));
        _mm_storeu_si128(wl.as_mut_ptr() as *mut __m128i, covered);
        for lane in 0..4 {
            if valid_bits >> lane & 1 == 0 {
                continue;
            }
            let (idx, lim, window) = (t + lane, ll[lane] as usize, wl[lane] as usize);
            let off = offs[idx];
            let first_diff = (dl[lane].trailing_zeros() / 2) as usize;
            let matches = if lim == 0 {
                0
            } else if first_diff < window {
                first_diff.min(lim)
            } else if lim <= window {
                lim
            } else {
                // The whole first window matched and the run continues past
                // it — rare at realistic error rates; resolve with the
                // long-run kernel (identical to `lcp_packed`'s long-run call).
                lcp_packed_avx2(a, b, (off - (k_lo + idx as i32)) as usize, off as usize)
            };
            offs[idx] = off + matches as i32;
            on_cell(idx, matches, lim);
        }
        t += 4;
    }
    extend_cells(a, b, offs, k_lo, t, on_cell);
}

// ---------------------------------------------------------------------------
// Batched Eq. 3 compute row
// ---------------------------------------------------------------------------

/// Compute a run of adjacent diagonals' I/D/M offsets (Eq. 3) in one call.
///
/// The four source rows each cover diagonals `k_lo - 1 ..= k_lo + L` where
/// `L = out_i.len()` (one halo cell on each side, [`OFFSET_NULL`]-filled
/// where the source wavefront has no storage):
///
/// * `sub`  — `M[s-x]`, read at `k` (index `t + 1`);
/// * `open` — `M[s-o-e]`, read at `k-1` (insertion) and `k+1` (deletion);
/// * `iext` — `I[s-e]`, read at `k-1`;
/// * `dext` — `D[s-e]`, read at `k+1`.
///
/// Outputs are written unconditionally; an invalid component is exactly
/// [`OFFSET_NULL`], bit-identical to the per-cell
/// [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions on every input.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn compute_row(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    let len = out_i.len();
    assert_eq!(out_d.len(), len);
    assert_eq!(out_m.len(), len);
    assert_eq!(sub.len(), len + 2);
    assert_eq!(open.len(), len + 2);
    assert_eq!(iext.len(), len + 2);
    assert_eq!(dext.len(), len + 2);
    #[cfg(target_arch = "x86_64")]
    if kernel_dispatch() == KernelDispatch::Avx2 {
        // SAFETY: `kernel_dispatch` reports AVX2 only when the CPU has it.
        return unsafe { compute_row_avx2(sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m) };
    }
    compute_row_scalar(sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m)
}

/// Per-cell reference for [`compute_row`]: delegates every cell to the
/// property-tested [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions.
#[allow(clippy::too_many_arguments)]
pub fn compute_row_scalar(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    use crate::wfa::{compute_cell_d, compute_cell_i, compute_cell_m};
    for t in 0..out_i.len() {
        let k = k_lo + t as i32;
        let iv = compute_cell_i(open[t], iext[t], k, n, m);
        let dv = compute_cell_d(open[t + 2], dext[t + 2], k, n, m);
        let mv = compute_cell_m(sub[t + 1], iv, dv, k, n, m);
        out_i[t] = iv;
        out_d[t] = dv;
        out_m[t] = mv;
    }
}

/// [`compute_row`] plus per-cell backtrace origin codes, for the
/// backtrace-enabled accelerator datapath.
///
/// `out_code[t]` is the 5-bit origin bundle of cell `t` in the hardware
/// BT-stream encoding (`wfasic_seqio::memimage::CellOrigin::code`):
/// bits 0..2 hold the M origin (0 none, 1 substitution, 2 insertion-open,
/// 3 insertion-extend, 4 deletion-open, 5 deletion-extend), bit 3 is set
/// when I came from `I[s-e][k-1]`, bit 4 when D came from `D[s-e][k+1]`.
/// Ties prefer the extension source and M ties prefer substitution then
/// insertion, exactly like the per-cell encoder.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn compute_row_with_origins(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    let len = out_i.len();
    assert_eq!(out_d.len(), len);
    assert_eq!(out_m.len(), len);
    assert_eq!(out_code.len(), len);
    assert_eq!(sub.len(), len + 2);
    assert_eq!(open.len(), len + 2);
    assert_eq!(iext.len(), len + 2);
    assert_eq!(dext.len(), len + 2);
    #[cfg(target_arch = "x86_64")]
    if kernel_dispatch() == KernelDispatch::Avx2 {
        // SAFETY: `kernel_dispatch` reports AVX2 only when the CPU has it.
        return unsafe {
            compute_row_with_origins_avx2(
                sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m, out_code,
            )
        };
    }
    compute_row_with_origins_scalar(
        sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m, out_code,
    )
}

/// Per-cell reference for [`compute_row_with_origins`]: the Eq. 3
/// candidate arithmetic with the origin-priority chain spelled out.
#[allow(clippy::too_many_arguments)]
pub fn compute_row_with_origins_scalar(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    use crate::wavefront::offset_is_valid;
    use crate::wfa::validated_offset;
    for t in 0..out_i.len() {
        let k = k_lo + t as i32;
        let validate_inc = |off: i32| {
            if offset_is_valid(off) {
                validated_offset(off + 1, k, n, m)
            } else {
                OFFSET_NULL
            }
        };
        let validate = |off: i32| {
            if offset_is_valid(off) {
                validated_offset(off, k, n, m)
            } else {
                OFFSET_NULL
            }
        };
        let i_open = validate_inc(open[t]);
        let i_ext = validate_inc(iext[t]);
        let (iv, i_from_ext) = if i_ext >= i_open {
            (i_ext, true)
        } else {
            (i_open, false)
        };
        let d_open = validate(open[t + 2]);
        let d_ext = validate(dext[t + 2]);
        let (dv, d_from_ext) = if d_ext >= d_open {
            (d_ext, true)
        } else {
            (d_open, false)
        };
        let sub_v = validate_inc(sub[t + 1]);
        let mv = sub_v.max(iv).max(dv);
        let m_code: u8 = if !offset_is_valid(mv) {
            0
        } else if offset_is_valid(sub_v) && sub_v == mv {
            1
        } else if offset_is_valid(iv) && iv == mv {
            if i_from_ext {
                3
            } else {
                2
            }
        } else if d_from_ext {
            5
        } else {
            4
        };
        out_i[t] = iv;
        out_d[t] = dv;
        out_m[t] = mv;
        out_code[t] = m_code
            | ((i_from_ext && offset_is_valid(iv)) as u8) << 3
            | ((d_from_ext && offset_is_valid(dv)) as u8) << 4;
    }
}

// The SIMD rows validate each Eq. 3 candidate with the bounds test alone:
// a NULL source bumped by +1 is still hugely negative, so `0 <= j` already
// rejects it — the scalar path's explicit `offset_is_valid` pre-check is
// subsumed, and the lane result (candidate or exact OFFSET_NULL) matches
// the scalar functions bit for bit.
//
// The origin variants derive the flag bits from the computed maxima: a
// validated candidate is either in-matrix (`>= 0`) or exactly NULL, so
// "the extension source won (ties included)" is `candidate == max` and
// "the component is valid" is `max > -1`. Because NULL lanes compare equal
// to each other, every equality mask is ANDed with the validity mask of
// its component before it selects an origin.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn compute_row_avx2(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    use std::arch::x86_64::*;
    let len = out_i.len();
    let null = _mm256_set1_epi32(OFFSET_NULL);
    let ones = _mm256_set1_epi32(1);
    let neg1 = _mm256_set1_epi32(-1);
    let m_lim = _mm256_set1_epi32(m + 1);
    let n_lim = _mm256_set1_epi32(n + 1);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut t = 0usize;
    while t + 8 <= len {
        let kv = _mm256_add_epi32(_mm256_set1_epi32(k_lo + t as i32), iota);
        let validate = |v: __m256i| {
            let iv = _mm256_sub_epi32(v, kv);
            let ok = _mm256_and_si256(
                _mm256_and_si256(_mm256_cmpgt_epi32(v, neg1), _mm256_cmpgt_epi32(m_lim, v)),
                _mm256_and_si256(_mm256_cmpgt_epi32(iv, neg1), _mm256_cmpgt_epi32(n_lim, iv)),
            );
            _mm256_blendv_epi8(null, v, ok)
        };
        let ld = |row: &[i32], off: usize| {
            _mm256_loadu_si256(row.as_ptr().add(t + off) as *const __m256i)
        };
        let i_open = validate(_mm256_add_epi32(ld(open, 0), ones));
        let i_ext = validate(_mm256_add_epi32(ld(iext, 0), ones));
        let ivv = _mm256_max_epi32(i_open, i_ext);
        let d_open = validate(ld(open, 2));
        let d_ext = validate(ld(dext, 2));
        let dvv = _mm256_max_epi32(d_open, d_ext);
        let sub_v = validate(_mm256_add_epi32(ld(sub, 1), ones));
        let mvv = _mm256_max_epi32(_mm256_max_epi32(sub_v, ivv), dvv);
        _mm256_storeu_si256(out_i.as_mut_ptr().add(t) as *mut __m256i, ivv);
        _mm256_storeu_si256(out_d.as_mut_ptr().add(t) as *mut __m256i, dvv);
        _mm256_storeu_si256(out_m.as_mut_ptr().add(t) as *mut __m256i, mvv);
        t += 8;
    }
    if t < len {
        compute_row_scalar(
            &sub[t..],
            &open[t..],
            &iext[t..],
            &dext[t..],
            k_lo + t as i32,
            n,
            m,
            &mut out_i[t..],
            &mut out_d[t..],
            &mut out_m[t..],
        );
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn compute_row_with_origins_avx2(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    use std::arch::x86_64::*;
    let len = out_i.len();
    let null = _mm256_set1_epi32(OFFSET_NULL);
    let ones = _mm256_set1_epi32(1);
    let neg1 = _mm256_set1_epi32(-1);
    let m_lim = _mm256_set1_epi32(m + 1);
    let n_lim = _mm256_set1_epi32(n + 1);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let two = _mm256_set1_epi32(2);
    let four = _mm256_set1_epi32(4);
    let bit3 = _mm256_set1_epi32(8);
    let bit4 = _mm256_set1_epi32(16);
    let mut t = 0usize;
    while t + 8 <= len {
        let kv = _mm256_add_epi32(_mm256_set1_epi32(k_lo + t as i32), iota);
        let validate = |v: __m256i| {
            let iv = _mm256_sub_epi32(v, kv);
            let ok = _mm256_and_si256(
                _mm256_and_si256(_mm256_cmpgt_epi32(v, neg1), _mm256_cmpgt_epi32(m_lim, v)),
                _mm256_and_si256(_mm256_cmpgt_epi32(iv, neg1), _mm256_cmpgt_epi32(n_lim, iv)),
            );
            _mm256_blendv_epi8(null, v, ok)
        };
        let ld = |row: &[i32], off: usize| {
            _mm256_loadu_si256(row.as_ptr().add(t + off) as *const __m256i)
        };
        let i_open = validate(_mm256_add_epi32(ld(open, 0), ones));
        let i_ext = validate(_mm256_add_epi32(ld(iext, 0), ones));
        let ivv = _mm256_max_epi32(i_open, i_ext);
        let d_open = validate(ld(open, 2));
        let d_ext = validate(ld(dext, 2));
        let dvv = _mm256_max_epi32(d_open, d_ext);
        let sub_v = validate(_mm256_add_epi32(ld(sub, 1), ones));
        let mvv = _mm256_max_epi32(_mm256_max_epi32(sub_v, ivv), dvv);
        _mm256_storeu_si256(out_i.as_mut_ptr().add(t) as *mut __m256i, ivv);
        _mm256_storeu_si256(out_d.as_mut_ptr().add(t) as *mut __m256i, dvv);
        _mm256_storeu_si256(out_m.as_mut_ptr().add(t) as *mut __m256i, mvv);

        let i_valid = _mm256_cmpgt_epi32(ivv, neg1);
        let d_valid = _mm256_cmpgt_epi32(dvv, neg1);
        let m_valid = _mm256_cmpgt_epi32(mvv, neg1);
        let i_ext_m = _mm256_and_si256(_mm256_cmpeq_epi32(i_ext, ivv), i_valid);
        let d_ext_m = _mm256_and_si256(_mm256_cmpeq_epi32(d_ext, dvv), d_valid);
        let sub_sel = _mm256_and_si256(_mm256_cmpeq_epi32(sub_v, mvv), m_valid);
        let i_sel = _mm256_and_si256(_mm256_cmpeq_epi32(ivv, mvv), m_valid);
        // Priority chain, lowest first: deletion (2 - mask = 4/5 via `four`),
        // then insertion (2/3), then substitution (1); invalid M stays 0.
        let d_code = _mm256_sub_epi32(four, d_ext_m);
        let i_code = _mm256_sub_epi32(two, i_ext_m);
        let mut code = _mm256_and_si256(d_code, m_valid);
        code = _mm256_blendv_epi8(code, i_code, i_sel);
        code = _mm256_blendv_epi8(code, ones, sub_sel);
        code = _mm256_or_si256(code, _mm256_and_si256(bit3, i_ext_m));
        code = _mm256_or_si256(code, _mm256_and_si256(bit4, d_ext_m));
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, code);
        for (l, &c) in lanes.iter().enumerate() {
            out_code[t + l] = c as u8;
        }
        t += 8;
    }
    if t < len {
        compute_row_with_origins_scalar(
            &sub[t..],
            &open[t..],
            &iext[t..],
            &dext[t..],
            k_lo + t as i32,
            n,
            m,
            &mut out_i[t..],
            &mut out_d[t..],
            &mut out_m[t..],
            &mut out_code[t..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;
    use crate::rng::SmallRng;
    use crate::wavefront::offset_is_valid;

    fn random_dna(rng: &mut SmallRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0, 4)]).collect()
    }

    /// A pair of related sequences: b is a mutated copy of a, so LCPs have
    /// realistic long runs instead of dying within 2 bases.
    fn related_pair(rng: &mut SmallRng, len: usize) -> (Vec<u8>, Vec<u8>) {
        let a = random_dna(rng, len);
        let mut b = a.clone();
        for base in b.iter_mut() {
            if rng.gen_bool(0.03) {
                *base = b"ACGT"[rng.gen_range(0, 4)];
            }
        }
        (a, b)
    }

    type ByteLcpFn = fn(&[u8], &[u8], usize, usize) -> usize;
    type PackedLcpFn = fn(&PackedSeq, &PackedSeq, usize, usize) -> usize;

    /// Every compiled byte-LCP fast path the CPU can run, by name.
    fn byte_tiers() -> Vec<(&'static str, ByteLcpFn)> {
        let mut tiers: Vec<(&'static str, ByteLcpFn)> = vec![("word", lcp_bytes_word)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2.
            tiers.push(("avx2", |a, b, i, j| unsafe { lcp_bytes_avx2(a, b, i, j) }));
        }
        tiers
    }

    /// Every compiled packed-LCP fast path, by name.
    fn packed_tiers() -> Vec<(&'static str, PackedLcpFn)> {
        vec![("word", lcp_packed_word), ("simd", lcp_packed_simd)]
    }

    #[test]
    fn all_byte_tiers_match_scalar() {
        prop::cases(200, 0x1C_B17E5, |rng, _| {
            let len = rng.gen_range(0, 200);
            let (a, b) = if len == 0 {
                let blen = rng.gen_range(0, 4);
                (Vec::new(), random_dna(rng, blen))
            } else {
                related_pair(rng, len)
            };
            for _ in 0..16 {
                let i = rng.gen_range(0, a.len() + 1);
                let j = rng.gen_range(0, b.len() + 1);
                let want = lcp_bytes_scalar(&a, &b, i, j);
                for (name, f) in byte_tiers() {
                    assert_eq!(f(&a, &b, i, j), want, "{name}: len={len} i={i} j={j}");
                }
            }
        });
    }

    #[test]
    fn all_packed_tiers_match_scalar() {
        prop::cases(200, 0x1C_9AC4ED, |rng, _| {
            let len = rng.gen_range(1, 200);
            let (a, b) = related_pair(rng, len);
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            for _ in 0..16 {
                let i = rng.gen_range(0, a.len() + 1);
                let j = rng.gen_range(0, b.len() + 1);
                let want = lcp_packed_scalar(&pa, &pb, i, j);
                assert_eq!(
                    want,
                    lcp_bytes_scalar(&a, &b, i, j),
                    "packed and byte oracles must agree, len={len} i={i} j={j}"
                );
                for (name, f) in packed_tiers() {
                    assert_eq!(f(&pa, &pb, i, j), want, "{name}: len={len} i={i} j={j}");
                }
            }
        });
    }

    /// A callback trace of [`extend_row`]: `(index, matches, limit)`.
    type RowTrace = Vec<(usize, usize, usize)>;

    /// Per-cell reference for [`extend_row`] over the scalar LCP oracle.
    fn extend_row_reference(a: &PackedSeq, b: &PackedSeq, offs: &mut [i32], k_lo: i32) -> RowTrace {
        let mut trace = Vec::new();
        for (t, off) in offs.iter_mut().enumerate() {
            if !offset_is_valid(*off) {
                continue;
            }
            let (i, j) = ((*off - (k_lo + t as i32)) as usize, *off as usize);
            let matches = lcp_packed_scalar(a, b, i, j);
            *off += matches as i32;
            trace.push((t, matches, (a.len() - i).min(b.len() - j)));
        }
        trace
    }

    type ExtendRowFn = fn(&PackedSeq, &PackedSeq, &mut [i32], i32, &mut RowTrace);

    /// Every compiled [`extend_row`] path, by name: the dispatched entry,
    /// the per-cell loop of the word path, and the AVX2 body.
    fn extend_row_paths() -> Vec<(&'static str, ExtendRowFn)> {
        let mut paths: Vec<(&'static str, ExtendRowFn)> = vec![
            ("dispatched", |a, b, offs, k_lo, tr| {
                extend_row(a, b, offs, k_lo, |t, mt, l| tr.push((t, mt, l)))
            }),
            ("per-cell", |a, b, offs, k_lo, tr| {
                extend_cells(a, b, offs, k_lo, 0, &mut |t, mt, l| tr.push((t, mt, l)))
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2.
            paths.push(("avx2", |a, b, offs, k_lo, tr| unsafe {
                extend_row_avx2(a, b, offs, k_lo, &mut |t, mt, l| tr.push((t, mt, l)))
            }));
        }
        paths
    }

    /// A random wavefront row over `a` x `b`: NULL cells (exact and
    /// perturbed sentinels), cells at a sequence end (`limit == 0`) and
    /// in-matrix cells, from a `k_lo` that is often negative.
    fn random_extend_row(rng: &mut SmallRng, n: usize, m: usize) -> (Vec<i32>, i32) {
        let len = rng.gen_range(0, 15);
        let k_lo = rng.gen_range(0, n + m + 1) as i32 - n as i32;
        let row = (0..len)
            .map(|t| {
                let k = k_lo + t as i32;
                let (lo, hi) = (k.max(0), (m as i32).min(n as i32 + k));
                if lo > hi || rng.gen_bool(0.25) {
                    OFFSET_NULL + rng.gen_range(0, 3) as i32
                } else if rng.gen_bool(0.15) {
                    hi
                } else {
                    lo + rng.gen_range(0, (hi - lo + 1) as usize) as i32
                }
            })
            .collect();
        (row, k_lo)
    }

    #[test]
    fn extend_row_matches_per_cell_reference() {
        prop::cases(300, 0x1C_E7E4D, |rng, case| {
            let len = rng.gen_range(1, 300);
            let (a, mut b) = related_pair(rng, len);
            if case % 3 == 0 {
                // Identical sequences: most runs clear the first 32-base
                // window and take the long-run escalation path.
                b = a.clone();
            }
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            let (row, k_lo) = random_extend_row(rng, a.len(), b.len());
            let mut want_row = row.clone();
            let want = extend_row_reference(&pa, &pb, &mut want_row, k_lo);
            for (t, &off) in row.iter().enumerate() {
                if !offset_is_valid(off) {
                    assert_eq!(want_row[t], off, "NULL cells stay untouched");
                }
            }
            for (name, f) in extend_row_paths() {
                let (mut got_row, mut got) = (row.clone(), Vec::new());
                f(&pa, &pb, &mut got_row, k_lo, &mut got);
                assert_eq!(got_row, want_row, "{name}: len={len} k_lo={k_lo}");
                assert_eq!(got, want, "{name}: len={len} k_lo={k_lo}");
            }
        });
    }

    #[test]
    fn extend_row_long_runs_escalate() {
        // Identical 200-base sequences on the main diagonals from aligned
        // and unaligned starts: every first window matches fully (limit >
        // 32), forcing the long-run path; 7 cells leave a 3-cell tail.
        let pa = PackedSeq::from_ascii(&[b'G'; 200]).unwrap();
        let row: Vec<i32> = (0..7).map(|t| 3 * t).collect();
        let mut want_row = row.clone();
        let want = extend_row_reference(&pa, &pa, &mut want_row, -3);
        assert!(want.iter().all(|&(_, matches, _)| matches > 32));
        for (name, f) in extend_row_paths() {
            let (mut got_row, mut got) = (row.clone(), Vec::new());
            f(&pa, &pa, &mut got_row, -3, &mut got);
            assert_eq!((got_row, got), (want_row.clone(), want.clone()), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn extend_row_refuses_a_cell_outside_the_matrix() {
        let p = PackedSeq::from_ascii(b"ACGTACGT").unwrap();
        // Diagonal 0 with offset 9 is past the end of both sequences.
        extend_row(&p, &p, &mut [0, 9, 0, 0], -1, |_, _, _| {});
    }

    #[test]
    fn long_identical_runs_hit_every_tier_fast_path() {
        // 1000 identical bases from every phase combination: the AVX2 loop
        // runs many full iterations and the tail must still clamp exactly.
        let a = vec![b'G'; 1000];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let want = 1000 - i.max(j);
                for (name, f) in byte_tiers() {
                    assert_eq!(f(&a, &a, i, j), want, "{name} i={i} j={j}");
                }
                for (name, f) in packed_tiers() {
                    assert_eq!(f(&pa, &pa, i, j), want, "{name} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn mismatch_at_every_word_boundary() {
        // Mismatch placed exactly at k, for k spanning byte-word, packed-word
        // and vector boundary positions.
        let len = 300;
        let a = vec![b'A'; len];
        for k in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 255, 256,
            299,
        ] {
            let mut b = a.clone();
            b[k] = b'T';
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            for (name, f) in byte_tiers() {
                assert_eq!(f(&a, &b, 0, 0), k, "{name} byte kernel, k={k}");
            }
            for (name, f) in packed_tiers() {
                assert_eq!(f(&pa, &pb, 0, 0), k, "{name} packed kernel, k={k}");
            }
        }
    }

    #[test]
    fn empty_and_exhausted_sequences() {
        let p = PackedSeq::from_ascii(b"ACGT").unwrap();
        let e = PackedSeq::from_ascii(b"").unwrap();
        for (name, f) in byte_tiers() {
            assert_eq!(f(b"", b"", 0, 0), 0, "{name}");
            assert_eq!(f(b"ACGT", b"", 0, 0), 0, "{name}");
            assert_eq!(f(b"ACGT", b"ACGT", 4, 4), 0, "{name}");
            assert_eq!(f(b"ACGT", b"ACGT", 4, 0), 0, "{name}");
        }
        for (name, f) in packed_tiers() {
            assert_eq!(f(&p, &e, 0, 0), 0, "{name}");
            assert_eq!(f(&p, &p, 4, 4), 0, "{name}");
        }
    }

    #[test]
    fn unaligned_tails_clamp_to_limit() {
        // 70 identical bases from unaligned starts: the final window reads
        // garbage bits past the end that must never count.
        let a = vec![b'G'; 70];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        for (i, j) in [(0, 0), (5, 0), (31, 33), (69, 1), (1, 69), (3, 2)] {
            let want = 70 - i.max(j);
            for (name, f) in byte_tiers() {
                assert_eq!(f(&a, &a, i, j), want, "{name} i={i} j={j}");
            }
            for (name, f) in packed_tiers() {
                assert_eq!(f(&pa, &pa, i, j), want, "{name} i={i} j={j}");
            }
        }
    }

    #[test]
    fn non_acgt_bytes_flow_through_the_byte_kernels() {
        // The oracle must handle arbitrary bytes ('N' reads reach the CPU
        // fallback path); every byte path compares them literally.
        let a = b"ACGNNNGT";
        let b = b"ACGNNNGA";
        assert_eq!(lcp_bytes_scalar(a, b, 0, 0), 7);
        for (name, f) in byte_tiers() {
            assert_eq!(f(a, b, 0, 0), 7, "{name}");
        }
        // And across a full vector of arbitrary bytes.
        let long_a: Vec<u8> = (0..100u8).collect();
        let mut long_b = long_a.clone();
        long_b[37] = 0xFF;
        for (name, f) in byte_tiers() {
            assert_eq!(f(&long_a, &long_b, 0, 0), 37, "{name}");
        }
    }

    // --- compute_row ---

    /// Random source row mixing NULLs and plausible offsets.
    fn random_row(rng: &mut SmallRng, len: usize, m: i32) -> Vec<i32> {
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    OFFSET_NULL
                } else {
                    rng.gen_range(0, (m + 3) as usize) as i32 - 1
                }
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn run_row(
        f: &dyn Fn(
            &[i32],
            &[i32],
            &[i32],
            &[i32],
            i32,
            i32,
            i32,
            &mut [i32],
            &mut [i32],
            &mut [i32],
        ),
        rows: &(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>),
        k_lo: i32,
        n: i32,
        m: i32,
        len: usize,
    ) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let mut oi = vec![0; len];
        let mut od = vec![0; len];
        let mut om = vec![0; len];
        f(
            &rows.0, &rows.1, &rows.2, &rows.3, k_lo, n, m, &mut oi, &mut od, &mut om,
        );
        (oi, od, om)
    }

    #[test]
    fn compute_row_tiers_match_scalar_oracle() {
        prop::cases(300, 0xC0_33B0, |rng, _| {
            let len = rng.gen_range(1, 40);
            let n = rng.gen_range(0, 60) as i32;
            let m = rng.gen_range(0, 60) as i32;
            let k_lo = rng.gen_range(0, 30) as i32 - 15;
            let rows = (
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
            );
            let want = run_row(&compute_row_scalar, &rows, k_lo, n, m, len);
            let got = run_row(&compute_row, &rows, k_lo, n, m, len);
            assert_eq!(got, want, "len={len} k_lo={k_lo} n={n} m={m}");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    let got = run_row(
                        &|s, o, ie, de, k, n, m, oi, od, om| unsafe {
                            compute_row_avx2(s, o, ie, de, k, n, m, oi, od, om)
                        },
                        &rows,
                        k_lo,
                        n,
                        m,
                        len,
                    );
                    assert_eq!(got, want, "avx2: len={len} k_lo={k_lo} n={n} m={m}");
                }
            }
        });
    }

    #[test]
    fn compute_row_with_origins_tiers_match_scalar_oracle() {
        type OriginRowFn = dyn Fn(
            &[i32],
            &[i32],
            &[i32],
            &[i32],
            i32,
            i32,
            i32,
            &mut [i32],
            &mut [i32],
            &mut [i32],
            &mut [u8],
        );
        let run = |f: &OriginRowFn,
                   rows: &(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>),
                   k_lo: i32,
                   n: i32,
                   m: i32,
                   len: usize| {
            let mut oi = vec![0; len];
            let mut od = vec![0; len];
            let mut om = vec![0; len];
            let mut oc = vec![0u8; len];
            f(
                &rows.0, &rows.1, &rows.2, &rows.3, k_lo, n, m, &mut oi, &mut od, &mut om, &mut oc,
            );
            (oi, od, om, oc)
        };
        prop::cases(300, 0xC0_44B1, |rng, _| {
            let len = rng.gen_range(1, 40);
            let n = rng.gen_range(0, 60) as i32;
            let m = rng.gen_range(0, 60) as i32;
            let k_lo = rng.gen_range(0, 30) as i32 - 15;
            let rows = (
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
            );
            let want = run(&compute_row_with_origins_scalar, &rows, k_lo, n, m, len);
            // Values agree with the origin-free row oracle.
            let plain = run_row(&compute_row_scalar, &rows, k_lo, n, m, len);
            assert_eq!(
                (want.0.clone(), want.1.clone(), want.2.clone()),
                plain,
                "origin variant changed values: len={len} k_lo={k_lo} n={n} m={m}"
            );
            let got = run(&compute_row_with_origins, &rows, k_lo, n, m, len);
            assert_eq!(got, want, "len={len} k_lo={k_lo} n={n} m={m}");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    let got = run(
                        &|s, o, ie, de, k, n, m, oi, od, om, oc| unsafe {
                            compute_row_with_origins_avx2(s, o, ie, de, k, n, m, oi, od, om, oc)
                        },
                        &rows,
                        k_lo,
                        n,
                        m,
                        len,
                    );
                    assert_eq!(got, want, "avx2: len={len} k_lo={k_lo} n={n} m={m}");
                }
            }
        });
    }

    #[test]
    fn compute_row_scalar_matches_cell_functions_on_all_null() {
        let len = 9;
        let rows = (
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
        );
        let (oi, od, om) = run_row(&compute_row, &rows, -4, 50, 50, len);
        assert!(oi.iter().all(|&v| v == OFFSET_NULL));
        assert!(od.iter().all(|&v| v == OFFSET_NULL));
        assert!(om.iter().all(|&v| v == OFFSET_NULL));
    }

    #[test]
    fn compute_row_bounds_reject_out_of_matrix_candidates() {
        // One valid source whose successor lands outside a tiny matrix on
        // some lanes: those lanes must be exactly NULL, in-bounds lanes real.
        let len = 8;
        let sub = vec![2; len + 2];
        let open = vec![OFFSET_NULL; len + 2];
        let iext = vec![OFFSET_NULL; len + 2];
        let dext = vec![OFFSET_NULL; len + 2];
        let mut oi = vec![0; len];
        let mut od = vec![0; len];
        let mut om = vec![0; len];
        // n = 2, m = 3: cell (i, j) = (3 - k, 3) valid only for 1 <= k <= 3.
        compute_row(
            &sub, &open, &iext, &dext, -2, 2, 3, &mut oi, &mut od, &mut om,
        );
        for (t, &mv) in om.iter().enumerate() {
            let k = -2 + t as i32;
            if (1..=3).contains(&k) {
                assert_eq!(mv, 3, "k={k}");
            } else {
                assert_eq!(mv, OFFSET_NULL, "k={k}");
            }
            assert!(offset_is_valid(mv) == (1..=3).contains(&k));
        }
    }

    /// One diagonal's Eq. 3 sources, in the Compute sub-module's order:
    /// `M[s-x][k]`, `M[s-o-e][k-1]`, `M[s-o-e][k+1]`, `I[s-e][k-1]`,
    /// `D[s-e][k+1]`.
    type Sources = [i32; 5];

    /// Those sources as the four halo rows of a one-wide compute row.
    fn one_wide_rows([sub, ins_open, del_open, iext, dext]: Sources) -> [[i32; 3]; 4] {
        const N: i32 = OFFSET_NULL;
        [
            [N, sub, N],
            [ins_open, N, del_open],
            [iext, N, N],
            [N, N, dext],
        ]
    }

    /// `(i, d, m, origin code)` of one cell through
    /// [`compute_row_with_origins_scalar`], whose `(i, d, m)` must equal
    /// [`compute_row_scalar`]'s.
    fn origin_cell(src: Sources, k: i32, n: i32, m: i32) -> (i32, i32, i32, u8) {
        let [sub, open, iext, dext] = one_wide_rows(src);
        let (mut oi, mut od, mut om, mut oc) = ([0], [0], [0], [0]);
        compute_row_with_origins_scalar(
            &sub, &open, &iext, &dext, k, n, m, &mut oi, &mut od, &mut om, &mut oc,
        );
        let (mut pi, mut pd, mut pm) = ([0], [0], [0]);
        compute_row_scalar(
            &sub, &open, &iext, &dext, k, n, m, &mut pi, &mut pd, &mut pm,
        );
        let cell = (oi[0], od[0], om[0]);
        assert_eq!(cell, (pi[0], pd[0], pm[0]), "{src:?} k={k} n={n} m={m}");
        (cell.0, cell.1, cell.2, oc[0])
    }

    #[test]
    fn scalar_origins_row_hand_checked_cells() {
        const N: i32 = OFFSET_NULL;
        // Origin codes: M source in bits 0..2 (1 substitution, 2/3
        // insertion open/extend, 4/5 deletion open/extend), I from
        // extension in bit 3, D from extension in bit 4.
        // Substitution wins, also on an M tie with an insertion.
        assert_eq!(origin_cell([5, 3, 3, N, N], 0, 100, 100), (4, 3, 6, 1));
        assert_eq!(origin_cell([5, 5, N, N, N], 0, 100, 100), (6, N, 6, 1));
        // Insertion: the open source alone, a longer extension, and an
        // extension that ties the open source (extension wins the tie).
        assert_eq!(origin_cell([N, 7, N, N, N], 0, 100, 100), (8, N, 8, 2));
        assert_eq!(
            origin_cell([N, 7, N, 9, N], 0, 100, 100),
            (10, N, 10, 3 | 8)
        );
        assert_eq!(origin_cell([N, 7, N, 7, N], 0, 100, 100), (8, N, 8, 3 | 8));
        // A deletion keeps its offset, opened or extended.
        assert_eq!(origin_cell([N, N, 4, N, N], 0, 100, 100), (N, 4, 4, 4));
        assert_eq!(origin_cell([N, N, 4, N, 6], 0, 100, 100), (N, 6, 6, 5 | 16));
        // Bounds give NULL: past the end of b (m = 5), then past the end
        // of a (n = 3).
        assert_eq!(origin_cell([5, N, N, N, N], 0, 100, 5), (N, N, N, 0));
        assert_eq!(origin_cell([5, N, N, N, N], 2, 3, 100), (N, N, N, 0));
        // All-NULL sources give a NULL cell with code 0.
        assert_eq!(origin_cell([N; 5], 0, 100, 100), (N, N, N, 0));
    }

    #[test]
    fn scalar_origins_row_values_equal_compute_row_scalar() {
        const N: i32 = OFFSET_NULL;
        let cases = [
            [5, 3, 2, 4, 1],
            [N, 3, N, 4, N],
            [7, N, 2, N, 9],
            [N; 5],
            [0; 5],
            [5, N, N, N, N],
        ];
        for src in cases {
            for k in [-2, 0, 2, 3] {
                for (n, m) in [(100, 100), (5, 100), (3, 3), (50, 60)] {
                    origin_cell(src, k, n, m);
                }
            }
        }
    }
}
