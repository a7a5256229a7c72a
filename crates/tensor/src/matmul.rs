//! Blocked, Rayon-parallel matrix multiplication.
//!
//! The kernels behind dense layers and the reference convolution. All
//! storage is row-major. `matmul_into` (`C = A · B`, the dense input
//! gradient) uses the `ikj` ordering so the innermost loop streams
//! contiguously over a row of `B` and a row of `C`; `matmul_bt_into`
//! (`A · Bᵀ`, the dense forward) and `matmul_at_into` (`Aᵀ · B`, the dense
//! weight gradient) hold register tiles of independent outputs. Large
//! products are split across threads by row blocks of `C` with
//! `par_chunks_mut`, so each thread owns a disjoint output slice
//! (data-race freedom by construction).

use crate::tensor::Tensor;
use rayon::prelude::*;
use std::cell::RefCell;

/// Rows-per-task granularity for the parallel split. Small enough to load
/// balance 100-device simulations, large enough to amortise task overhead.
const ROW_BLOCK: usize = 16;

/// Below this many multiply-adds the parallel split costs more than it
/// saves; run single-threaded.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Whether an `m`-row product of `macs` multiply-adds is split across
/// threads: only when it is large and has more than one row block — a
/// single block has nothing to share, and opening a region for it costs
/// the region (and, in the rayon shim, an allocation) for nothing.
fn split_rows(m: usize, macs: usize) -> bool {
    m > ROW_BLOCK && macs >= PAR_THRESHOLD
}

/// Lanes of one register-tile vector in the tiled kernels (here and in
/// `conv`): a full AVX-512 register. Every lane is an independent output
/// element, so the narrower clones just spend two or four registers per
/// vector.
pub(crate) const LANES: usize = 16;

/// Matrix product `a · b` for rank-2 tensors.
///
/// Part of the preserved pre-overhaul (allocating) path, so it runs the
/// reference kernel; the workspace train path calls the blocked
/// [`matmul_into`] directly. The two kernels are bitwise-identical.
///
/// # Panics
/// Panics when either operand is not rank 2 or the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

    let mut out = Tensor::zeros([m, n]);
    matmul_into_reference(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// `a · bᵀ` without materialising the transpose (used by dense backward).
///
/// Pre-overhaul path: one `dot_slices` per element, no cross-column
/// interleaving — the bitwise oracle for [`matmul_bt_into`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_bt lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul_bt rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (n, k2) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_bt inner dimension mismatch: {k} vs {k2}");

    let mut out = Tensor::zeros([m, n]);
    {
        let (ad, bd, c) = (a.data(), b.data(), out.data_mut());
        let run = |rows: &mut [f32], row0: usize| {
            for (ri, out_row) in rows.chunks_mut(n).enumerate() {
                let i = row0 + ri;
                let arow = &ad[i * k..(i + 1) * k];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = crate::ops::dot_slices_reference(arow, &bd[j * k..(j + 1) * k]);
                }
            }
        };
        if m * n * k >= PAR_THRESHOLD {
            c.par_chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(|(blk, rows)| run(rows, blk * ROW_BLOCK));
        } else {
            run(c, 0);
        }
    }
    out
}

/// `aᵀ · b` without materialising the transpose (used by dense backward
/// for weight gradients: `dyᵀ · x`).
///
/// Pre-overhaul path: runs [`matmul_at_into_reference`] — the bitwise
/// oracle for [`matmul_at_into`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_at lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul_at rhs must be rank 2");
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_at inner dimension mismatch: {k} vs {k2}");

    let mut out = Tensor::zeros([m, n]);
    matmul_at_into_reference(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Column-tile width of the blocked [`matmul_into`] kernel. 16 f32 lanes
/// fit the accumulator tile entirely in vector registers, so each output
/// element is written exactly once instead of read-modified k times.
const COL_TILE: usize = 16;

/// Compiles `$body` (an `#[inline(always)]` kernel body) three times — for
/// AVX-512F, AVX2 and the baseline target — and dispatches on the host CPU
/// at runtime via the cached `is_x86_feature_detected!` probe.
///
/// Widening the vector lanes is bitwise-free for every kernel routed
/// through this: lanes always map to *independent output elements* (or
/// independent accumulator slots of `dot_slices`' fixed four-lane split),
/// so no per-element reduction chain is ever reassociated. The preserved
/// `*_reference` kernels are deliberately NOT dispatched — they model the
/// seed build, which was plain baseline codegen.
macro_rules! simd_dispatch {
    ($dispatch:ident, $body:ident, ($($arg:ident : $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        mod $body {
            // Pulls in any types the signature mentions (e.g. geometry
            // structs); some bodies only use primitives.
            #[allow(unused_imports)]
            use super::*;
            #[target_feature(enable = "avx512f")]
            pub unsafe fn avx512($($arg: $ty),*) {
                super::$body($($arg),*);
            }
            #[target_feature(enable = "avx2")]
            pub unsafe fn avx2($($arg: $ty),*) {
                super::$body($($arg),*);
            }
        }

        #[inline]
        #[allow(clippy::too_many_arguments)]
        fn $dispatch($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the feature probe above guarantees the host
                    // supports every instruction this clone may emit.
                    return unsafe { $body::avx512($($arg),*) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: as above, for AVX2.
                    return unsafe { $body::avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use simd_dispatch;

/// Raw kernel: `c (m×n) = a (m×k) · b (k×n)`, all row-major slices.
///
/// `c` is fully overwritten. Parallel over row blocks of `c` when the
/// problem is large enough.
///
/// Register-blocked: a 2-row × `COL_TILE`-column tile of the output is
/// held in stack accumulators across the whole k-loop, so each row of `b`
/// streamed from cache feeds two output rows and the accumulator chains
/// stay deep enough to hide float-add latency. Blocking runs *across*
/// output elements only — every individual element still sums its products
/// in ascending-k order from a `+0.0` start, exactly like
/// [`matmul_into_reference`], so results are bitwise-identical for finite
/// inputs. (Dropping the reference kernel's `av != 0.0` skip is safe: an
/// accumulator that starts at `+0.0` can never become `-0.0` by adding
/// values, so adding a `±0.0` product is a bitwise no-op.)
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");

    if split_rows(m, m * k * n) {
        c.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, rows)| mm_block_dispatch(a, b, rows, blk * ROW_BLOCK, k, n));
    } else {
        mm_block_dispatch(a, b, c, 0, k, n);
    }
}

/// Single-row fallback tile of [`mm_block`] (odd trailing row).
#[inline(always)]
fn mm_one_row(arow: &[f32], b: &[f32], crow: &mut [f32], n: usize) {
    let mut j0 = 0usize;
    while j0 + COL_TILE <= n {
        let mut acc = [0.0f32; COL_TILE];
        for (l, &av) in arow.iter().enumerate() {
            let brow = &b[l * n + j0..l * n + j0 + COL_TILE];
            for (cv, &bv) in acc.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
        crow[j0..j0 + COL_TILE].copy_from_slice(&acc);
        j0 += COL_TILE;
    }
    if j0 < n {
        let rem = n - j0;
        let mut acc = [0.0f32; COL_TILE];
        for (l, &av) in arow.iter().enumerate() {
            let brow = &b[l * n + j0..l * n + n];
            for (cv, &bv) in acc[..rem].iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
        crow[j0..].copy_from_slice(&acc[..rem]);
    }
}

/// Row-block body of [`matmul_into`]: 4-row × `COL_TILE` register tiles
/// (2-row and 1-row fallbacks for the trailing rows). Wider row tiles
/// exist purely to stream each row of `b` past more output rows per pass
/// — every output element keeps its own ascending-k accumulator chain.
#[inline(always)]
fn mm_block(a: &[f32], b: &[f32], rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let nrows = rows.len() / n;
    let mut ri = 0usize;
    while ri + 4 <= nrows {
        let i = row0 + ri;
        let (crow0, rest) = rows[ri * n..].split_at_mut(n);
        let (crow1, rest) = rest.split_at_mut(n);
        let (crow2, rest) = rest.split_at_mut(n);
        let crow3 = &mut rest[..n];
        let arows: [&[f32]; 4] = std::array::from_fn(|t| &a[(i + t) * k..(i + t + 1) * k]);
        let mut j0 = 0usize;
        while j0 + COL_TILE <= n {
            let mut acc = [[0.0f32; COL_TILE]; 4];
            for l in 0..k {
                let av: [f32; 4] = std::array::from_fn(|t| arows[t][l]);
                let brow = &b[l * n + j0..l * n + j0 + COL_TILE];
                for (t, acct) in acc.iter_mut().enumerate() {
                    for (cv, &bv) in acct.iter_mut().zip(brow) {
                        *cv += av[t] * bv;
                    }
                }
            }
            crow0[j0..j0 + COL_TILE].copy_from_slice(&acc[0]);
            crow1[j0..j0 + COL_TILE].copy_from_slice(&acc[1]);
            crow2[j0..j0 + COL_TILE].copy_from_slice(&acc[2]);
            crow3[j0..j0 + COL_TILE].copy_from_slice(&acc[3]);
            j0 += COL_TILE;
        }
        if j0 < n {
            let rem = n - j0;
            let mut acc = [[0.0f32; COL_TILE]; 4];
            for l in 0..k {
                let av: [f32; 4] = std::array::from_fn(|t| arows[t][l]);
                let brow = &b[l * n + j0..l * n + n];
                for (t, acct) in acc.iter_mut().enumerate() {
                    for (cv, &bv) in acct[..rem].iter_mut().zip(brow) {
                        *cv += av[t] * bv;
                    }
                }
            }
            crow0[j0..].copy_from_slice(&acc[0][..rem]);
            crow1[j0..].copy_from_slice(&acc[1][..rem]);
            crow2[j0..].copy_from_slice(&acc[2][..rem]);
            crow3[j0..].copy_from_slice(&acc[3][..rem]);
        }
        ri += 4;
    }
    while ri + 2 <= nrows {
        let i = row0 + ri;
        let (crow0, rest) = rows[ri * n..].split_at_mut(n);
        let crow1 = &mut rest[..n];
        let arow0 = &a[i * k..(i + 1) * k];
        let arow1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j0 = 0usize;
        while j0 + COL_TILE <= n {
            let mut acc0 = [0.0f32; COL_TILE];
            let mut acc1 = [0.0f32; COL_TILE];
            for l in 0..k {
                let (av0, av1) = (arow0[l], arow1[l]);
                let brow = &b[l * n + j0..l * n + j0 + COL_TILE];
                for ((c0, c1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(brow) {
                    *c0 += av0 * bv;
                    *c1 += av1 * bv;
                }
            }
            crow0[j0..j0 + COL_TILE].copy_from_slice(&acc0);
            crow1[j0..j0 + COL_TILE].copy_from_slice(&acc1);
            j0 += COL_TILE;
        }
        if j0 < n {
            let rem = n - j0;
            let mut acc0 = [0.0f32; COL_TILE];
            let mut acc1 = [0.0f32; COL_TILE];
            for l in 0..k {
                let (av0, av1) = (arow0[l], arow1[l]);
                let brow = &b[l * n + j0..l * n + n];
                for ((c0, c1), &bv) in acc0[..rem].iter_mut().zip(acc1[..rem].iter_mut()).zip(brow)
                {
                    *c0 += av0 * bv;
                    *c1 += av1 * bv;
                }
            }
            crow0[j0..].copy_from_slice(&acc0[..rem]);
            crow1[j0..].copy_from_slice(&acc1[..rem]);
        }
        ri += 2;
    }
    if ri < nrows {
        let i = row0 + ri;
        mm_one_row(
            &a[i * k..(i + 1) * k],
            b,
            &mut rows[ri * n..(ri + 1) * n],
            n,
        );
    }
}

simd_dispatch!(
    mm_block_dispatch,
    mm_block,
    (a: &[f32], b: &[f32], rows: &mut [f32], row0: usize, k: usize, n: usize)
);

/// The pre-blocking `matmul_into` kernel, kept verbatim as the bitwise
/// oracle for the blocked kernel (see the proptest battery).
pub fn matmul_into_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    c.fill(0.0);

    let kernel = |rows: &mut [f32], row0: usize| {
        for (ri, crow) in rows.chunks_mut(n).enumerate() {
            let i = row0 + ri;
            let arow = &a[i * k..(i + 1) * k];
            for (l, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let brow = &b[l * n..(l + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    };

    if m * k * n >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, rows)| kernel(rows, blk * ROW_BLOCK));
    } else {
        kernel(c, 0);
    }
}

/// Raw kernel: `c (m×n) = a (m×k) · bᵀ` where `b` is stored `n×k`
/// row-major — the dense forward and every inference.
///
/// Every element is [`crate::ops::dot_slices`]' chain: product `j` goes
/// to accumulator `j mod 4`, the last `k mod 4` products to a tail, the
/// reduce is `((a0 + a1) + a2) + a3 + tail` — bitwise the per-element
/// oracle [`matmul_bt`]. Row blocks of four or more rows run on
/// sample-lane register tiles (`bt_lanes`); shorter blocks, which such a
/// tile would mostly leave empty, run row by row and transpose nothing
/// (`bt_rows`). Which path a block takes is a function of its row count
/// alone (DESIGN §12).
pub fn matmul_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), n * k, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    if c.is_empty() {
        return;
    }
    if k == 0 {
        // The empty dot: `((0 + 0) + 0) + 0 + 0`.
        c.fill(0.0);
        return;
    }
    if split_rows(m, m * n * k) {
        c.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, rows)| bt_block(&a[blk * ROW_BLOCK * k..], b, rows, k, n));
    } else {
        bt_block(a, b, c, k, n);
    }
}

/// One row block of [`matmul_bt_into`] (`c` holds its rows, `a` starts
/// at its first row; `n, k > 0`).
fn bt_block(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    if c.len() < 4 * n {
        bt_rows_dispatch(a, b, c, k, n);
    } else {
        LANE_TILES.with_borrow_mut(|tiles| {
            let (xt, yt) = tiles.sized(k, n);
            bt_lanes_dispatch(a, b, c, k, n, xt, yt);
        });
    }
}

/// Staging for [`bt_lanes`]: a row group's activations and outputs
/// transposed so that one vector holds one value of `LANES` rows. Owned
/// by the thread (the parallel row blocks each run on their own), grown
/// on demand, kept, and fully overwritten before it is read — so a
/// steady-state forward allocates nothing and zeroes nothing.
struct LaneTiles {
    /// `[k]` vectors: element `j` of each row of the group.
    xt: Vec<[f32; LANES]>,
    /// `[n rounded up to 4]` vectors: output `j` of each row.
    yt: Vec<[f32; LANES]>,
}

impl LaneTiles {
    /// The first `k` / `n.next_multiple_of(4)` vectors, grown if needed.
    fn sized(&mut self, k: usize, n: usize) -> (&mut [[f32; LANES]], &mut [[f32; LANES]]) {
        let n4 = n.next_multiple_of(4);
        if self.xt.len() < k {
            self.xt.resize(k, [0.0; LANES]);
        }
        if self.yt.len() < n4 {
            self.yt.resize(n4, [0.0; LANES]);
        }
        (&mut self.xt[..k], &mut self.yt[..n4])
    }
}

thread_local! {
    static LANE_TILES: RefCell<LaneTiles> = const {
        RefCell::new(LaneTiles {
            xt: Vec::new(),
            yt: Vec::new(),
        })
    };
}

/// Sample-lane body of [`matmul_bt_into`]: the block's rows in groups of
/// `LANES`, each group's activations transposed into `xt` (`xt[j][s]` =
/// `a[s][j]`) so that a vector lane is one sample, then register tiles of
/// 4 outputs × `LANES` samples ([`lane_dots`]) staged in `yt` and
/// transposed back into `c`. The transpositions cost `(k + n)` moves a
/// row — not `n · k` a call, as transposing the weights would. Lanes past
/// a group's last row repeat that row, and a last output tile past `n`
/// repeats output `n − 1`; neither is stored.
#[inline(always)]
fn bt_lanes(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    xt: &mut [[f32; LANES]],
    yt: &mut [[f32; LANES]],
) {
    let xt = &mut xt[..k];
    for (g, cg) in c.chunks_mut(LANES * n).enumerate() {
        let h = cg.len() / n;
        // Gather form (`x[s] = rows[s][j]`), as in conv's `dweight_tiles`.
        let rows: [&[f32]; LANES] = std::array::from_fn(|s| {
            let i = g * LANES + s.min(h - 1);
            &a[i * k..(i + 1) * k]
        });
        for (j, x) in xt.iter_mut().enumerate() {
            for s in 0..LANES {
                x[s] = rows[s][j];
            }
        }
        let (xq, xtail) = xt.as_chunks::<4>();
        for (t, y) in yt.as_chunks_mut::<4>().0.iter_mut().enumerate() {
            let w: [&[f32]; 4] = std::array::from_fn(|o| {
                let j = (4 * t + o).min(n - 1);
                &b[j * k..(j + 1) * k]
            });
            *y = lane_dots(xq, xtail, w);
        }
        for (s, crow) in cg.chunks_exact_mut(n).enumerate() {
            for (v, y) in crow.iter_mut().zip(yt.iter()) {
                *v = y[s];
            }
        }
    }
}

simd_dispatch!(
    bt_lanes_dispatch,
    bt_lanes,
    (
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        xt: &mut [[f32; LANES]],
        yt: &mut [[f32; LANES]]
    )
);

/// Four outputs × `LANES` samples: `w[o]` is output `o`'s weight row,
/// `xq` / `xtail` the samples' transposed activations in quads and the
/// `k mod 4` left over. Lane `s` of result `o` is `dot_slices(a[s], w[o])`
/// exactly — the four `j mod 4` chains and the tail run across the
/// samples, so 16 chains are in flight instead of `dot_slices`' four.
#[inline(always)]
fn lane_dots(
    xq: &[[[f32; LANES]; 4]],
    xtail: &[[f32; LANES]],
    w: [&[f32]; 4],
) -> [[f32; LANES]; 4] {
    let (w0, w0t) = w[0].as_chunks::<4>();
    let (w1, w1t) = w[1].as_chunks::<4>();
    let (w2, w2t) = w[2].as_chunks::<4>();
    let (w3, w3t) = w[3].as_chunks::<4>();
    // One named accumulator quad per output: a nested array indexed by a
    // loop variable would live in memory, not in registers.
    let [mut s0, mut s1, mut s2, mut s3] = [[[0.0f32; LANES]; 4]; 4];
    for ((((x, y0), y1), y2), y3) in xq.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
        for l in 0..4 {
            for s in 0..LANES {
                s0[l][s] += x[l][s] * y0[l];
                s1[l][s] += x[l][s] * y1[l];
                s2[l][s] += x[l][s] * y2[l];
                s3[l][s] += x[l][s] * y3[l];
            }
        }
    }
    let [mut t0, mut t1, mut t2, mut t3] = [[0.0f32; LANES]; 4];
    for ((((x, &y0), &y1), &y2), &y3) in xtail.iter().zip(w0t).zip(w1t).zip(w2t).zip(w3t) {
        for s in 0..LANES {
            t0[s] += x[s] * y0;
            t1[s] += x[s] * y1;
            t2[s] += x[s] * y2;
            t3[s] += x[s] * y3;
        }
    }
    [
        reduce_quad(&s0, &t0),
        reduce_quad(&s1, &t1),
        reduce_quad(&s2, &t2),
        reduce_quad(&s3, &t3),
    ]
}

/// `((a0 + a1) + a2) + a3 + tail`, lane by lane — `dot_slices`' reduce.
#[inline(always)]
fn reduce_quad(acc: &[[f32; LANES]; 4], tail: &[f32; LANES]) -> [f32; LANES] {
    let mut out = [0.0f32; LANES];
    for s in 0..LANES {
        out[s] = acc[0][s] + acc[1][s] + acc[2][s] + acc[3][s] + tail[s];
    }
    out
}

/// Row-by-row body of [`matmul_bt_into`] for blocks of fewer than four
/// rows: eight outputs at a time through [`crate::ops::dot_slices_many`],
/// reading `b` in place. A last tile past `n` repeats output `n − 1` and
/// stores only what exists.
#[inline(always)]
fn bt_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (t, out) in crow.chunks_mut(8).enumerate() {
            let w: [&[f32]; 8] = std::array::from_fn(|o| {
                let j = (8 * t + o).min(n - 1);
                &b[j * k..(j + 1) * k]
            });
            let dots = crate::ops::dot_slices_many(arow, w);
            out.copy_from_slice(&dots[..out.len()]);
        }
    }
}

simd_dispatch!(
    bt_rows_dispatch,
    bt_rows,
    (a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize)
);

/// Raw kernel: `c (m×n) = aᵀ · b` where `a` is stored `k×m` row-major —
/// the dense weight gradient `dyᵀ · x`.
///
/// Register-tiled: 4 rows × up to `4 · LANES` columns of `c` stay in
/// registers across the whole ascending-`l` loop and are stored once,
/// instead of the whole of `c` being read and rewritten once per `l`.
/// Every element sums its products in ascending `l` from `+0.0`, as
/// [`matmul_at_into_reference`] does; dropping that kernel's `!= 0.0`
/// skip is bitwise-free for finite inputs (DESIGN §12).
pub fn matmul_at_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    if !c.is_empty() {
        at_body_dispatch(a, b, c, m, n);
    }
}

/// Body of [`matmul_at_into`] (`m, n > 0`): column slabs of 4, 2 and 1
/// vectors, then one of fewer than `LANES` columns.
#[inline(always)]
fn at_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize) {
    let mut j0 = 0;
    while j0 + 4 * LANES <= n {
        at_slab::<4>(a, b, c, m, n, j0, 4 * LANES);
        j0 += 4 * LANES;
    }
    if j0 + 2 * LANES <= n {
        at_slab::<2>(a, b, c, m, n, j0, 2 * LANES);
        j0 += 2 * LANES;
    }
    if j0 + LANES <= n {
        at_slab::<1>(a, b, c, m, n, j0, LANES);
        j0 += LANES;
    }
    if j0 < n {
        at_slab::<1>(a, b, c, m, n, j0, n - j0);
    }
}

simd_dispatch!(
    at_body_dispatch,
    at_body,
    (a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize)
);

/// Columns `j0..j0 + width` (`width ≤ VT · LANES`) of every row of `c`,
/// in tiles of 4 rows; a last tile past `m` repeats row `m − 1` and
/// stores only the rows that exist.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn at_slab<const VT: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    j0: usize,
    width: usize,
) {
    for i0 in (0..m).step_by(4) {
        let r: [usize; 4] = std::array::from_fn(|t| (i0 + t).min(m - 1));
        let [mut c0, mut c1, mut c2, mut c3] = [[[0.0f32; LANES]; VT]; 4];
        for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
            let x = vectors_of::<VT>(&brow[j0..j0 + width]);
            mul_add_vectors(&mut c0, arow[r[0]], &x);
            mul_add_vectors(&mut c1, arow[r[1]], &x);
            mul_add_vectors(&mut c2, arow[r[2]], &x);
            mul_add_vectors(&mut c3, arow[r[3]], &x);
        }
        for (t, acc) in [c0, c1, c2, c3].iter().enumerate().take(m - i0) {
            let crow = &mut c[(i0 + t) * n + j0..][..width];
            crow.copy_from_slice(&acc.as_flattened()[..width]);
        }
    }
}

/// `VT` vectors of `LANES` floats.
pub(crate) type Vectors<const VT: usize> = [[f32; LANES]; VT];

/// The `VT` vectors of `src` (`src.len() ≤ VT · LANES`), zero past its
/// end.
#[inline(always)]
fn vectors_of<const VT: usize>(src: &[f32]) -> Vectors<VT> {
    let mut v = [[0.0f32; LANES]; VT];
    if src.len() == VT * LANES {
        for (d, s) in v.iter_mut().zip(src.as_chunks::<LANES>().0) {
            *d = *s;
        }
    } else {
        for (d, &s) in v.as_flattened_mut().iter_mut().zip(src) {
            *d = s;
        }
    }
    v
}

/// `acc[v][l] += s · x[v][l]`: one scalar against `VT` vectors.
#[inline(always)]
pub(crate) fn mul_add_vectors<const VT: usize>(acc: &mut Vectors<VT>, s: f32, x: &Vectors<VT>) {
    for (a, x) in acc.iter_mut().zip(x) {
        for (a, &x) in a.iter_mut().zip(x) {
            *a += s * x;
        }
    }
}

/// The pre-tiling [`matmul_at_into`] kernel, kept verbatim as its bitwise
/// oracle (and as [`matmul_at`]'s kernel): the whole of `c` is updated
/// once per row of `a`, skipping zero entries of `a`.
pub fn matmul_at_into_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    c.fill(0.0);
    for l in 0..k {
        let arow = &a[l * m..(l + 1) * m];
        let brow = &b[l * n..(l + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                let orow = &mut c[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Matrix–vector product `a (m×k) · x (k)`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matvec lhs must be rank 2");
    assert_eq!(x.shape().rank(), 1, "matvec rhs must be rank 1");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    assert_eq!(k, x.shape().dim(0), "matvec dimension mismatch");
    let mut out = Tensor::zeros([m]);
    for i in 0..m {
        out.data_mut()[i] = crate::ops::dot_slices(a.row(i), x.data());
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic values in [-1, 1] with `±0.0` and a subnormal mixed in.
    pub(crate) fn vals(len: usize, seed: u64) -> Vec<f32> {
        let mut v = crate::random::uniform([len.max(1)], -1.0, 1.0, &mut crate::random::rng(seed))
            .data()
            .to_vec();
        v.truncate(len);
        for (i, x) in v.iter_mut().enumerate() {
            match i % 11 {
                3 => *x = 0.0,
                6 => *x = -0.0,
                9 => *x = f32::from_bits(1 + i as u32),
                _ => {}
            }
        }
        v
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every compiled clone of a dispatched kernel the host can run.
    pub(crate) fn host_clones() -> Vec<&'static str> {
        let mut clones = vec!["baseline"];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                clones.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                clones.push("avx512");
            }
        }
        clones
    }

    /// Calls the clone of `$body` that `host_clones` named.
    macro_rules! call_clone {
        ($body:ident, $clone:expr, ($($arg:expr),*)) => {
            match $clone {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `host_clones` lists a clone only after probing
                // the feature it was compiled for.
                "avx2" => unsafe { $body::avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above.
                "avx512" => unsafe { $body::avx512($($arg),*) },
                _ => $body($($arg),*),
            }
        };
    }
    pub(crate) use call_clone;

    /// The dispatcher runs one clone per host and one path per block, so
    /// on an AVX-512 machine the narrower clones would otherwise never
    /// execute: every clone of both forward paths and of the weight
    /// gradient must produce the oracle's bits on the zoo's dense layers
    /// (`in → out`), at batches that fill no lane group, exactly one,
    /// and two and a half.
    #[test]
    fn every_clone_of_every_dense_kernel_matches_the_oracle_bitwise() {
        for (k, n) in [(256, 64), (64, 64), (64, 32), (32, 10), (64, 10)] {
            for m in [2, 4, 16, 40] {
                let x = Tensor::from_vec([m, k], vals(m * k, 1));
                let w = Tensor::from_vec([n, k], vals(n * k, 2));
                // ReLU-masked, as the gradient reaching a hidden layer is.
                let dy: Vec<f32> = vals(m * n, 3)
                    .into_iter()
                    .map(|v| if v > 0.0 { v } else { 0.0 })
                    .collect();
                let want_y = matmul_bt(&x, &w);
                let mut want_dw = vec![0.0; n * k];
                matmul_at_into_reference(&dy, x.data(), &mut want_dw, n, m, k);

                let mut xt = vec![[f32::NAN; LANES]; k];
                let mut yt = vec![[f32::NAN; LANES]; n.next_multiple_of(4)];
                for clone in host_clones() {
                    let shape = format!("{clone} {m} x {k} -> {n}");
                    let mut y = vec![f32::NAN; m * n];
                    call_clone!(
                        bt_lanes,
                        clone,
                        (x.data(), w.data(), &mut y, k, n, &mut xt, &mut yt)
                    );
                    assert_eq!(bits(&y), bits(want_y.data()), "lanes {shape}");
                    y.fill(f32::NAN);
                    call_clone!(bt_rows, clone, (x.data(), w.data(), &mut y, k, n));
                    assert_eq!(bits(&y), bits(want_y.data()), "rows {shape}");
                    let mut dw = vec![f32::NAN; n * k];
                    call_clone!(at_body, clone, (&dy, x.data(), &mut dw, n, k));
                    assert_eq!(bits(&dw), bits(&want_dw), "dweight {shape}");
                }
            }
        }
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a.at(&[i, l]) * b.at(&[l, j]);
                }
                c.set(&[i, j], s);
            }
        }
        c
    }

    fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_noop() {
        let mut eye = Tensor::zeros([4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0);
        }
        let a = Tensor::from_vec([4, 4], (0..16).map(|i| i as f32).collect());
        approx_eq(&matmul(&a, &eye), &a, 0.0);
        approx_eq(&matmul(&eye, &a), &a, 0.0);
    }

    #[test]
    fn matches_naive_on_odd_sizes() {
        let a = Tensor::from_vec([5, 7], (0..35).map(|i| (i as f32).sin()).collect());
        let b = Tensor::from_vec([7, 3], (0..21).map(|i| (i as f32).cos()).collect());
        approx_eq(&matmul(&a, &b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn large_enough_to_parallelise() {
        let a = Tensor::from_vec([80, 70], (0..5600).map(|i| (i % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec([70, 90], (0..6300).map(|i| (i % 7) as f32 * 0.2).collect());
        approx_eq(&matmul(&a, &b), &naive(&a, &b), 1e-2);
    }

    #[test]
    fn bt_matches_explicit_transpose() {
        let a = Tensor::from_vec([4, 5], (0..20).map(|i| i as f32 * 0.3).collect());
        let b = Tensor::from_vec([6, 5], (0..30).map(|i| (i as f32).sqrt()).collect());
        approx_eq(&matmul_bt(&a, &b), &matmul(&a, &b.transpose()), 1e-4);
    }

    #[test]
    fn at_matches_explicit_transpose() {
        let a = Tensor::from_vec([5, 4], (0..20).map(|i| i as f32 * 0.3).collect());
        let b = Tensor::from_vec([5, 6], (0..30).map(|i| (i as f32).sqrt()).collect());
        approx_eq(&matmul_at(&a, &b), &matmul(&a.transpose(), &b), 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec([3, 4], (0..12).map(|i| i as f32).collect());
        let x = Tensor::from_vec([4], vec![1., 0., -1., 2.]);
        let via_mm = matmul(&a, &x.reshaped([4, 1]));
        let mv = matvec(&a, &x);
        assert_eq!(mv.data(), via_mm.data());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
