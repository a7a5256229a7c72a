//! Blocked, Rayon-parallel matrix multiplication.
//!
//! The kernel at the heart of both dense layers and im2col convolution.
//! `C = A (m×k) · B (k×n)` with row-major storage. The inner loops use the
//! `ikj` ordering so the innermost loop streams contiguously over a row of
//! `B` and a row of `C`, which vectorises well; the work is split across
//! threads by row blocks of `C` with `par_chunks_mut`, so each thread owns a
//! disjoint output slice (data-race freedom by construction).

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows-per-task granularity for the parallel split. Small enough to load
/// balance 100-device simulations, large enough to amortise task overhead.
const ROW_BLOCK: usize = 16;

/// Below this many multiply-adds the parallel split costs more than it
/// saves; run single-threaded.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

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
/// for weight gradients: `xᵀ · dy`).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_at lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul_at rhs must be rank 2");
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_at inner dimension mismatch: {k} vs {k2}");

    // out[i][j] = sum_l a[l][i] * b[l][j]; accumulate row-by-row of a/b so
    // all traffic is sequential.
    let mut out = Tensor::zeros([m, n]);
    matmul_at_into(a.data(), b.data(), out.data_mut(), m, k, n);
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

    if m * k * n >= PAR_THRESHOLD && m > 1 {
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
/// row-major. Per-element reduction is exactly [`crate::ops::dot_slices`]
/// — eight output columns are computed per pass via
/// [`crate::ops::dot_slices_many`] so the short dots overlap instead of
/// serialising on add latency.
pub fn matmul_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), n * k, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    if m * n * k >= PAR_THRESHOLD {
        c.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, rows)| bt_block_dispatch(a, b, rows, blk * ROW_BLOCK, k, n));
    } else {
        bt_block_dispatch(a, b, c, 0, k, n);
    }
}

/// Stack capacity (in `k`) for [`bt_block`]'s transposed weight tile —
/// covers every dense layer in the model zoo; larger `k` falls back to
/// the untransposed tile path.
const BT_TILE_K: usize = 512;

/// Row-block body of [`matmul_bt_into`].
#[inline(always)]
fn bt_block(a: &[f32], b: &[f32], rows: &mut [f32], row0: usize, k: usize, n: usize) {
    let nrows = rows.len() / n;
    if k.is_multiple_of(4) && k <= BT_TILE_K && crate::ops::dots8_transposed_fast() {
        // Each 8-row tile of `b` is shared by every output row in the
        // block, so transpose it once and run the dots 8-wide across the
        // outputs (bitwise-identical per output).
        let mut bt = [0.0f32; BT_TILE_K * 8];
        let mut j0 = 0usize;
        while j0 + 8 <= n {
            for t in 0..8 {
                let brow = &b[(j0 + t) * k..(j0 + t + 1) * k];
                for (j, &v) in brow.iter().enumerate() {
                    bt[j * 8 + t] = v;
                }
            }
            for ri in 0..nrows {
                let i = row0 + ri;
                let arow = &a[i * k..(i + 1) * k];
                let dots = crate::ops::dot_slices_8_transposed(arow, &bt[..k * 8]);
                rows[ri * n + j0..][..8].copy_from_slice(&dots);
            }
            j0 += 8;
        }
        for ri in 0..nrows {
            let i = row0 + ri;
            let arow = &a[i * k..(i + 1) * k];
            for j in j0..n {
                rows[ri * n + j] = crate::ops::dot_slices(arow, &b[j * k..(j + 1) * k]);
            }
        }
        return;
    }
    for (ri, out_row) in rows.chunks_mut(n).enumerate() {
        let i = row0 + ri;
        let arow = &a[i * k..(i + 1) * k];
        let mut j0 = 0usize;
        while j0 + 8 <= n {
            let brows: [&[f32]; 8] = std::array::from_fn(|t| &b[(j0 + t) * k..(j0 + t + 1) * k]);
            let dots = crate::ops::dot_slices_many(arow, brows);
            out_row[j0..j0 + 8].copy_from_slice(&dots);
            j0 += 8;
        }
        for (j, o) in out_row.iter_mut().enumerate().skip(j0) {
            *o = crate::ops::dot_slices(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

simd_dispatch!(
    bt_block_dispatch,
    bt_block,
    (a: &[f32], b: &[f32], rows: &mut [f32], row0: usize, k: usize, n: usize)
);

/// Raw kernel: `c (m×n) = aᵀ · b` where `a` is stored `k×m` row-major.
///
/// Keeps the `av != 0.0` skip: the dominant caller feeds ReLU-masked
/// gradients as `a`, where the sparsity test genuinely pays for itself.
pub fn matmul_at_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    assert_eq!(c.len(), m * n, "out buffer size");
    at_body_dispatch(a, b, c, m, k, n);
}

/// Body of [`matmul_at_into`].
#[inline(always)]
fn at_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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

simd_dispatch!(
    at_body_dispatch,
    at_body,
    (a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize)
);

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
mod tests {
    use super::*;

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
