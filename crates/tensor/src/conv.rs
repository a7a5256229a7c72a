//! 2-D convolution and pooling kernels.
//!
//! Activations are NCHW (`[batch, channels, height, width]`). The train
//! and inference path ([`conv2d_forward_into`] / [`conv2d_backward_into`])
//! runs direct kernels: the batch is copied once into zero-bordered
//! planes and the forward, weight-gradient and input-gradient passes read
//! their taps from there, holding a register tile of outputs across the
//! whole tap loop — no patch matrix is ever built. The allocating
//! [`conv2d_forward`] / [`conv2d_backward`] lower each sample with
//! im2col into the reference GEMM; they are the bitwise oracles the
//! direct kernels are held to, reduction chain by reduction chain.

use crate::matmul::{matmul_into_reference, mul_add_vectors, Vectors, LANES};
use crate::simd_dispatch;
use crate::tensor::Tensor;

/// Static geometry of a convolution: shapes, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
}

impl ConvGeometry {
    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Rows of the im2col patch matrix (= patch size).
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col patch matrix (= output positions).
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validates the geometry against an input shape `[N, C, H, W]`.
    pub fn check_input(&self, t: &Tensor) {
        assert!(
            self.stride > 0 && self.kernel > 0 && self.in_c > 0,
            "conv geometry needs stride, kernel and in_c > 0: {self:?}"
        );
        assert_eq!(t.shape().rank(), 4, "conv input must be NCHW");
        assert_eq!(t.shape().dim(1), self.in_c, "conv input channel mismatch");
        assert_eq!(t.shape().dim(2), self.in_h, "conv input height mismatch");
        assert_eq!(t.shape().dim(3), self.in_w, "conv input width mismatch");
        assert!(
            self.in_h + 2 * self.pad >= self.kernel && self.in_w + 2 * self.pad >= self.kernel,
            "kernel larger than padded input"
        );
    }

    /// Height and width of an input plane with its zero border.
    fn padded(&self) -> (usize, usize) {
        (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad)
    }

    /// The bordered plane the input gradient reads `dy` from, as
    /// `(border, height, width)`: `dy` sits at `(border, border)` with its
    /// cells `stride` apart. `border = kernel − 1 − pad` (0 under wider
    /// padding) is how far above `dy`'s first row the first input cell's
    /// taps reach; the plane ends where the last cell's first tap does —
    /// or at `dy`'s last row, when padding wider than the kernel puts
    /// that further out.
    fn dy_frame(&self) -> (usize, usize, usize) {
        let border = (self.kernel - 1).saturating_sub(self.pad);
        let span = |cells: usize, outs: usize| {
            border + (cells + self.pad).max((outs - 1) * self.stride + 1)
        };
        (
            border,
            span(self.in_h, self.out_h()),
            span(self.in_w, self.out_w()),
        )
    }
}

/// Lowers one image `[C, H, W]` into rows of a (possibly wider) patch
/// matrix: row `r` of the patches lands at `cols[r * row_stride + offset..]`.
/// [`im2col_batch`] lays a whole batch side by side this way
/// (`row_stride == n * out_positions`).
#[inline(always)]
fn im2col_strided_body(
    img: &[f32],
    g: &ConvGeometry,
    cols: &mut [f32],
    row_stride: usize,
    offset: usize,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    let n_pos = oh * ow;
    let mut row = 0usize;
    for c in 0..g.in_c {
        let plane = &img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                // For a fixed (ky, kx) the in-bounds output columns form one
                // contiguous run per output row, so each row is a zero
                // prefix, a copied/gathered span and a zero suffix — pure
                // data movement, no per-element bounds checks.
                let (lo, hi) = valid_span(ow, g.stride, kx, g.pad, g.in_w);
                let out_row = &mut cols[row * row_stride + offset..][..n_pos];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy as usize >= g.in_h || lo >= hi {
                        dst.fill(0.0);
                        continue;
                    }
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    let ix0 = (lo * g.stride + kx) - g.pad;
                    let src = &plane[iy as usize * g.in_w + ix0..];
                    if g.stride == 1 {
                        dst[lo..hi].copy_from_slice(&src[..hi - lo]);
                    } else {
                        for (i, d) in dst[lo..hi].iter_mut().enumerate() {
                            *d = src[i * g.stride];
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

simd_dispatch!(
    im2col_strided,
    im2col_strided_body,
    (img: &[f32], g: &ConvGeometry, cols: &mut [f32], row_stride: usize, offset: usize)
);

/// The pre-overhaul per-image im2col body, kept verbatim (per-element bounds
/// checks and all) so the per-sample oracle kernels keep the seed's
/// performance as well as its output — the benchmark's "before" side
/// must not inherit the batched path's data-movement optimisations.
fn im2col_reference(img: &[f32], g: &ConvGeometry, cols: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    let n_pos = oh * ow;
    let mut row = 0usize;
    for c in 0..g.in_c {
        let plane = &img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let out_row = &mut cols[row * n_pos..(row + 1) * n_pos];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        out_row[p] = if iy >= 0
                            && (iy as usize) < g.in_h
                            && ix >= 0
                            && (ix as usize) < g.in_w
                        {
                            plane[iy as usize * g.in_w + ix as usize]
                        } else {
                            0.0
                        };
                        p += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// The pre-overhaul col2im body — the scatter-add adjoint of
/// [`im2col_reference`] — kept verbatim for the per-sample oracle.
fn col2im_reference(cols: &[f32], g: &ConvGeometry, img: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    img.fill(0.0);
    let n_pos = oh * ow;
    let mut row = 0usize;
    for c in 0..g.in_c {
        let plane = &mut img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let col_row = &cols[row * n_pos..(row + 1) * n_pos];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w {
                            plane[iy as usize * g.in_w + ix as usize] += col_row[p];
                        }
                        p += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Output-column range `[lo, hi)` whose input column `ox * stride + kx - pad`
/// lies inside `[0, in_w)`, clamped to `[0, ow)`.
fn valid_span(ow: usize, stride: usize, kx: usize, pad: usize, in_w: usize) -> (usize, usize) {
    let shift = kx as isize - pad as isize;
    let lo = if shift >= 0 {
        0
    } else {
        ((-shift) as usize).div_ceil(stride)
    };
    let hi = if (in_w as isize) <= shift {
        0
    } else {
        (in_w as isize - 1 - shift) as usize / stride + 1
    };
    (lo.min(ow), hi.min(ow).max(lo.min(ow)))
}

/// Lowers a whole NCHW batch into one patch matrix of shape
/// `[patch_len, n * out_positions]`: sample `b`'s columns sit at offset
/// `b * out_positions` within every row, so one GEMM covers the batch while
/// each output element sums exactly the per-sample products in the same
/// k-order.
pub fn im2col_batch(input: &[f32], n: usize, g: &ConvGeometry, cols: &mut [f32]) {
    let n_pos = g.out_positions();
    let img_len = g.in_c * g.in_h * g.in_w;
    let row_stride = n * n_pos;
    debug_assert_eq!(input.len(), n * img_len);
    debug_assert_eq!(cols.len(), g.patch_len() * row_stride);
    for b in 0..n {
        let img = &input[b * img_len..(b + 1) * img_len];
        im2col_strided(img, g, cols, row_stride, b * n_pos);
    }
}

/// Reusable workspace for the direct convolution kernels. All buffers are
/// grown on demand, retained across calls and fully overwritten before
/// they are read — with one declared exception: after
/// [`conv2d_forward_into`] it holds the batch in zero-bordered planes,
/// which [`conv2d_backward_into`] reads its taps from instead of padding
/// the input again.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// The batch in zero-bordered planes
    /// `[n, in_c, in_h + 2·pad, in_w + 2·pad]`.
    xpad: Vec<f32>,
    /// Where each output position's window starts inside one plane of
    /// `xpad` (see [`window_offsets`]).
    out_off: Vec<usize>,
    /// Where each input cell sits inside one plane of `dypad`.
    in_off: Vec<usize>,
    /// One sample's channel tile of `dy`, position-major
    /// `[out_positions][T]`.
    dyt: Vec<f32>,
    /// `dweight` and `dbias` accumulators in channel-tile layout
    /// `[tiles][patch_len + 1][T]` (row `patch_len` is the bias row).
    dwt: Vec<f32>,
    /// `dy` zero-bordered as far as an input cell's taps reach and
    /// zero-dilated by the stride: `[n, out_c, h, w]` with `h`, `w` from
    /// [`ConvGeometry::dy_frame`].
    dypad: Vec<f32>,
}

/// Fills `offs` with, for each cell `(y, x)` of a `rows × cols` grid in
/// row-major order, the offset `y·step·pitch + x·step` of the cell's
/// window inside a plane whose rows are `pitch` apart; zero-padded to
/// whole vectors, so lanes past the last cell read valid memory (what
/// they compute is never stored).
fn window_offsets(rows: usize, cols: usize, step: usize, pitch: usize, offs: &mut Vec<usize>) {
    offs.clear();
    for y in 0..rows {
        offs.extend((0..cols).map(|x| y * step * pitch + x * step));
    }
    offs.resize((rows * cols).next_multiple_of(LANES), 0);
}

/// How many consecutive cells of a `cols`-wide grid read consecutive
/// memory: the widest of 16, 8 or 4 that divides a row at step 1 (a
/// vector is then one row segment, two rows or four rows), else single
/// cells — odd widths and strides > 1 gather lane by lane.
fn run_len(cols: usize, step: usize) -> usize {
    [16, 8, 4]
        .into_iter()
        .find(|r| step == 1 && cols.is_multiple_of(*r))
        .unwrap_or(1)
}

/// Writes each `h × w` plane of `src` into the matching `dh × dw` plane
/// of `dst`: first cell at `(border, border)`, cells `step` apart. The
/// cells around and between are not touched — the caller zeroed them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn embed_planes(
    src: &[f32],
    h: usize,
    w: usize,
    dst: &mut [f32],
    dh: usize,
    dw: usize,
    border: usize,
    step: usize,
) {
    if h * w == 0 {
        return;
    }
    for (s, d) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(dh * dw)) {
        for (y, srow) in s.chunks_exact(w).enumerate() {
            let drow = &mut d[(border + y * step) * dw + border..];
            if step == 1 {
                copy_row(&mut drow[..w], srow);
            } else {
                for (x, &v) in srow.iter().enumerate() {
                    drow[x * step] = v;
                }
            }
        }
    }
}

/// `dst.copy_from_slice(src)` for one plane row or one vector of a
/// tile. The zoo's widths copy as inline vector moves: a `memcpy` call
/// per 16- to 64-byte row costs several times the copy.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    #[inline(always)]
    fn fixed<const W: usize>(dst: &mut [f32], src: &[f32]) {
        dst[..W].copy_from_slice(&src[..W]);
    }
    match src.len() {
        16 => fixed::<16>(dst, src),
        8 => fixed::<8>(dst, src),
        4 => fixed::<4>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// `acc[v][l] += x[v][l]`.
#[inline(always)]
fn add_vectors<const VT: usize>(acc: &mut Vectors<VT>, x: &Vectors<VT>) {
    for (a, x) in acc.iter_mut().zip(x) {
        for (a, &x) in a.iter_mut().zip(x) {
            *a += x;
        }
    }
}

/// The frame the forward and the input gradient share: every output
/// element is a sum over taps read at fixed offsets from bordered planes.
///
/// A sample's positions are cut into `n_vec` vectors of `LANES`, and the
/// batch's vectors are numbered sample by sample, so a register tile of
/// `VT` consecutive vectors runs on into the next sample — a 4 × 4 layer
/// (one vector a sample) fills its tiles from four samples.
struct TileGrid<'a> {
    /// Window offset of each position inside one bordered plane (see
    /// [`window_offsets`]); `n_vec · LANES` of them.
    offs: &'a [usize],
    /// Positions per sample and channel.
    n_pos: usize,
    /// Floats per sample in the bordered source / channels per sample in
    /// the destination.
    src_sample: usize,
    n_ch: usize,
}

impl TileGrid<'_> {
    /// Vectors per sample.
    #[inline(always)]
    fn n_vec(&self) -> usize {
        self.offs.len() / LANES
    }

    /// Where the runs of vectors `u0..u0 + VT` start inside the bordered
    /// batch (channel 0, tap 0): entry `[v][i]` is run `i` of vector `v`.
    /// Only the first `LANES / RL` of each row are used.
    #[inline(always)]
    fn run_origins<const VT: usize, const RL: usize>(&self, u0: usize) -> [[usize; LANES]; VT] {
        let mut org = [[0usize; LANES]; VT];
        for (v, runs) in org.iter_mut().enumerate() {
            let (b, vec) = ((u0 + v) / self.n_vec(), (u0 + v) % self.n_vec());
            let offs = &self.offs[vec * LANES..(vec + 1) * LANES];
            for (run, off) in runs.iter_mut().zip(offs.iter().step_by(RL)) {
                *run = b * self.src_sample + off;
            }
        }
        org
    }

    /// Stores channel `ch` of vectors `u0..u0 + VT` into the NCHW batch
    /// `dst`, each cut at its sample's last position.
    #[inline(always)]
    fn store<const VT: usize>(&self, dst: &mut [f32], ch: usize, u0: usize, acc: &Vectors<VT>) {
        for (v, lanes) in acc.iter().enumerate() {
            let (b, j) = ((u0 + v) / self.n_vec(), (u0 + v) % self.n_vec() * LANES);
            let len = LANES.min(self.n_pos - j);
            let at = (b * self.n_ch + ch) * self.n_pos + j;
            copy_row(&mut dst[at..at + len], &lanes[..len]);
        }
    }
}

/// `VT` vectors of taps: lane group `i` of vector `v` is the `RL`
/// consecutive floats at `src[base + org[v][i]..]`.
#[inline(always)]
fn load_vectors<const VT: usize, const RL: usize>(
    src: &[f32],
    base: usize,
    org: &[[usize; LANES]; VT],
) -> Vectors<VT> {
    let mut xv = [[0.0f32; LANES]; VT];
    for v in 0..VT {
        for i in 0..LANES / RL {
            let o = base + org[v][i];
            xv[v][i * RL..(i + 1) * RL].copy_from_slice(&src[o..o + RL]);
        }
    }
    xv
}

/// One pass over a [`TileGrid`]: computes a register tile, holding it in
/// registers across its whole tap loop, and stores it.
trait TapKernel {
    /// Channels `ch0..ch0 + CT` (`CT` is 4 or 1) at vectors
    /// `u0..u0 + VT`, whose runs are `RL` long and start at `org` (see
    /// [`TileGrid::run_origins`]).
    fn tile<const CT: usize, const VT: usize, const RL: usize>(
        &self,
        grid: &TileGrid,
        org: &[[usize; LANES]; VT],
        ch0: usize,
        u0: usize,
        dst: &mut [f32],
    );
}

/// Runs `kernel` over the `n` samples of `grid` in tiles of 4 channels ×
/// `VT` vectors; channels and vectors that do not fill a tile run the
/// same kernel one at a time. Vectors outside, channels inside: the few
/// planes a tile's taps come from stay in L1 while every channel tile
/// reads them.
#[inline(always)]
fn run_tiles<K: TapKernel, const VT: usize, const RL: usize>(
    kernel: &K,
    grid: &TileGrid,
    n: usize,
    dst: &mut [f32],
) {
    let units = n * grid.n_vec();
    let mut u0 = 0;
    while u0 + VT <= units {
        channel_tiles::<K, VT, RL>(kernel, grid, u0, dst);
        u0 += VT;
    }
    while u0 < units {
        channel_tiles::<K, 1, RL>(kernel, grid, u0, dst);
        u0 += 1;
    }
}

/// Every channel of vectors `u0..u0 + VT`.
#[inline(always)]
fn channel_tiles<K: TapKernel, const VT: usize, const RL: usize>(
    kernel: &K,
    grid: &TileGrid,
    u0: usize,
    dst: &mut [f32],
) {
    let org = grid.run_origins::<VT, RL>(u0);
    let mut ch0 = 0;
    while ch0 + 4 <= grid.n_ch {
        kernel.tile::<4, VT, RL>(grid, &org, ch0, u0, dst);
        ch0 += 4;
    }
    while ch0 < grid.n_ch {
        kernel.tile::<1, VT, RL>(grid, &org, ch0, u0, dst);
        ch0 += 1;
    }
}

/// Picks the run length of a `cols`-wide, `step`-strided grid (see
/// [`run_len`]) and runs `kernel` with it.
#[inline(always)]
fn run_tiles_for<K: TapKernel, const VT: usize>(
    kernel: &K,
    grid: &TileGrid,
    n: usize,
    cols: usize,
    step: usize,
    dst: &mut [f32],
) {
    match run_len(cols, step) {
        16 => run_tiles::<K, VT, 16>(kernel, grid, n, dst),
        8 => run_tiles::<K, VT, 8>(kernel, grid, n, dst),
        4 => run_tiles::<K, VT, 4>(kernel, grid, n, dst),
        _ => run_tiles::<K, VT, 1>(kernel, grid, n, dst),
    }
}

/// Forward taps: `xpad` is the batch in zero-bordered planes.
struct ForwardTaps<'a> {
    g: &'a ConvGeometry,
    xpad: &'a [f32],
    w: &'a [f32],
    bias: &'a [f32],
}

impl TapKernel for ForwardTaps<'_> {
    /// Each element starts at `+0.0`, adds `w[oc][r] · x` over ascending
    /// patch index `r = (c, ky, kx)`, then the bias: the reduction chain
    /// of the oracle's GEMM row followed by its bias pass. A tap on the
    /// border multiplies the `0.0` the oracle's patch matrix holds there.
    #[inline(always)]
    fn tile<const CT: usize, const VT: usize, const RL: usize>(
        &self,
        grid: &TileGrid,
        org: &[[usize; LANES]; VT],
        oc0: usize,
        u0: usize,
        dst: &mut [f32],
    ) {
        let g = self.g;
        let (k, plen, (ph, pw)) = (g.kernel, g.patch_len(), g.padded());
        let plane_len = ph * pw;
        let wrows = &self.w[oc0 * plen..(oc0 + CT) * plen];
        // One named accumulator per channel: a nested array indexed by a
        // loop variable would live in memory, not in registers.
        let [mut a0, mut a1, mut a2, mut a3] = [[[0.0f32; LANES]; VT]; 4];
        let mut r = 0;
        for c in 0..g.in_c {
            for ky in 0..k {
                for kx in 0..k {
                    let base = c * plane_len + ky * pw + kx;
                    let xv = load_vectors::<VT, RL>(self.xpad, base, org);
                    mul_add_vectors(&mut a0, wrows[r], &xv);
                    if CT == 4 {
                        mul_add_vectors(&mut a1, wrows[plen + r], &xv);
                        mul_add_vectors(&mut a2, wrows[2 * plen + r], &xv);
                        mul_add_vectors(&mut a3, wrows[3 * plen + r], &xv);
                    }
                    r += 1;
                }
            }
        }
        let bias = &self.bias[oc0..oc0 + CT];
        add_vectors(&mut a0, &[[bias[0]; LANES]; VT]);
        grid.store(dst, oc0, u0, &a0);
        if CT == 4 {
            add_vectors(&mut a1, &[[bias[1]; LANES]; VT]);
            add_vectors(&mut a2, &[[bias[2]; LANES]; VT]);
            add_vectors(&mut a3, &[[bias[3]; LANES]; VT]);
            grid.store(dst, oc0 + 1, u0, &a1);
            grid.store(dst, oc0 + 2, u0, &a2);
            grid.store(dst, oc0 + 3, u0, &a3);
        }
    }
}

/// Body of [`conv2d_forward_into`] once the batch sits in `xpad`.
#[inline(always)]
fn forward_body(
    g: &ConvGeometry,
    n: usize,
    xpad: &[f32],
    offs: &[usize],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let (ph, pw) = g.padded();
    let grid = TileGrid {
        offs,
        n_pos: g.out_positions(),
        src_sample: g.in_c * ph * pw,
        n_ch: g.out_c,
    };
    let taps = ForwardTaps { g, xpad, w, bias };
    run_tiles_for::<_, 4>(&taps, &grid, n, g.out_w(), g.stride, out);
}

simd_dispatch!(
    forward_dispatch,
    forward_body,
    (
        g: &ConvGeometry,
        n: usize,
        xpad: &[f32],
        offs: &[usize],
        w: &[f32],
        bias: &[f32],
        out: &mut [f32]
    )
);

/// Direct forward convolution into caller-owned storage.
///
/// Bitwise-identical to [`conv2d_forward`] (the per-sample oracle) for
/// finite inputs: the batch is copied once into zero-bordered planes and
/// every output element sums the oracle's products in the oracle's order
/// (see `ForwardTaps`); no patch matrix is built. `out` is resized and
/// fully overwritten; `scratch` keeps the padded batch for
/// [`conv2d_backward_into`].
pub fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    check_filters(weight, bias, g);
    conv2d_forward_slices_into(input, weight.data(), bias.data(), g, scratch, out);
}

/// [`conv2d_forward_into`] with the filters (`[out_c, patch_len]`, row
/// major) and bias (`[out_c]`) as slices, read in place from a
/// parameter plane.
pub fn conv2d_forward_slices_into(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    g: &ConvGeometry,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    g.check_input(input);
    check_filter_slices(weight, bias, g);

    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (ph, pw) = g.padded();

    scratch.xpad.clear();
    scratch.xpad.resize(n * g.in_c * ph * pw, 0.0);
    embed_planes(
        input.data(),
        g.in_h,
        g.in_w,
        &mut scratch.xpad,
        ph,
        pw,
        g.pad,
        1,
    );
    window_offsets(oh, ow, g.stride, pw, &mut scratch.out_off);

    out.resize([n, g.out_c, oh, ow]);
    forward_dispatch(
        g,
        n,
        &scratch.xpad,
        &scratch.out_off,
        weight,
        bias,
        out.data_mut(),
    );
}

/// Panics unless `weight` is `[out_c, patch_len]` and `bias` `[out_c]`.
fn check_filters(weight: &Tensor, bias: &Tensor, g: &ConvGeometry) {
    assert_eq!(
        weight.shape().dims(),
        &[g.out_c, g.patch_len()],
        "weight shape"
    );
    assert_eq!(bias.shape().dims(), &[g.out_c], "bias shape");
}

/// Panics unless `weight` holds `out_c · patch_len` values and `bias`
/// `out_c`.
fn check_filter_slices(weight: &[f32], bias: &[f32], g: &ConvGeometry) {
    assert_eq!(weight.len(), g.out_c * g.patch_len(), "weight shape");
    assert_eq!(bias.len(), g.out_c, "bias shape");
}

/// `G` adjacent `kx` taps of one `(c, ky)` against one channel tile: for
/// each tap, `T` dots over the positions, added into `out[tap]`.
///
/// Every dot is [`crate::ops::dot_slices`]' chain — position `j` goes to
/// accumulator `j mod 4`, the last `n_pos mod 4` positions to a tail, the
/// reduce is `((a0 + a1) + a2) + a3 + tail` — with the `T` channels of
/// the tile as the vector lanes. `x` starts at the taps' first row and
/// column, so position `j`'s input scalars are `x[offs[j]..][..G]`, read
/// in place; each tile row of `dyt` is loaded once for all `G` taps.
#[inline(always)]
fn tap_dots<const T: usize, const G: usize>(
    x: &[f32],
    offs: &[usize],
    dyt: &[[f32; T]],
    out: &mut [[f32; T]],
) {
    let mut acc = [[[0.0f32; T]; 4]; G];
    let (offs4, offs_tail) = offs.as_chunks::<4>();
    let (dyt4, dyt_tail) = dyt.as_chunks::<4>();
    for (o4, d4) in offs4.iter().zip(dyt4) {
        for l in 0..4 {
            let xs = &x[o4[l]..][..G];
            for (acc_g, &xv) in acc.iter_mut().zip(xs) {
                for (a, &d) in acc_g[l].iter_mut().zip(&d4[l]) {
                    *a += d * xv;
                }
            }
        }
    }
    let mut tail = [[0.0f32; T]; G];
    for (&o, d) in offs_tail.iter().zip(dyt_tail) {
        let xs = &x[o..][..G];
        for (tail_g, &xv) in tail.iter_mut().zip(xs) {
            for (a, &d) in tail_g.iter_mut().zip(d) {
                *a += d * xv;
            }
        }
    }
    for ((out_g, acc_g), tail_g) in out.iter_mut().zip(&acc).zip(&tail) {
        for t in 0..T {
            out_g[t] += acc_g[0][t] + acc_g[1][t] + acc_g[2][t] + acc_g[3][t] + tail_g[t];
        }
    }
}

/// `dweight` and `dbias` of the whole batch into `dwt`, in tiles of `T`
/// output channels (`[tiles][patch_len + 1][T]`, bias row last; a last
/// tile the layer does not fill repeats its final channel, and those
/// lanes are never read back).
///
/// Per sample, in ascending batch order as the oracle adds them: the
/// tile's `dy` rows are transposed into `dyt` (`[n_pos][T]`), `dbias`
/// is `Iterator::sum`'s sequential chain run across the lanes, and each
/// weight's dot comes from [`tap_dots`].
#[inline(always)]
fn dweight_tiles<const T: usize>(
    g: &ConvGeometry,
    n: usize,
    xpad: &[f32],
    offs: &[usize],
    dy: &[f32],
    dyt: &mut [f32],
    dwt: &mut [f32],
) {
    let (k, n_pos, plen) = (g.kernel, g.out_positions(), g.patch_len());
    let (ph, pw) = g.padded();
    let plane_len = ph * pw;
    let offs = &offs[..n_pos];
    let (dyt, _) = dyt.as_chunks_mut::<T>();
    let (dwt, _) = dwt.as_chunks_mut::<T>();
    // Whatever `Sum for f32` starts from (-0.0 on current toolchains).
    let sum_start: f32 = std::iter::empty::<f32>().sum();
    for b in 0..n {
        let dy_b = &dy[b * g.out_c * n_pos..(b + 1) * g.out_c * n_pos];
        let xs = &xpad[b * g.in_c * plane_len..(b + 1) * g.in_c * plane_len];
        for (tile, dw_tile) in dwt.chunks_exact_mut(plen + 1).enumerate() {
            // Gather form (`d[t] = rows[t][j]`): the scatter form
            // compiles to `vscatterqps`, several times slower.
            let rows: [&[f32]; T] = std::array::from_fn(|t| {
                let oc = (tile * T + t).min(g.out_c - 1);
                &dy_b[oc * n_pos..(oc + 1) * n_pos]
            });
            for (j, d) in dyt.iter_mut().enumerate() {
                for t in 0..T {
                    d[t] = rows[t][j];
                }
            }

            let mut sum = [sum_start; T];
            for d in dyt.iter() {
                for t in 0..T {
                    sum[t] += d[t];
                }
            }
            for t in 0..T {
                dw_tile[plen][t] += sum[t];
            }

            for (c, plane) in xs.chunks_exact(plane_len).enumerate() {
                for ky in 0..k {
                    let x = &plane[ky * pw..];
                    let dw_row = &mut dw_tile[(c * k + ky) * k..][..k];
                    let mut kx = 0;
                    while kx + 3 <= k {
                        tap_dots::<T, 3>(&x[kx..], offs, dyt, &mut dw_row[kx..kx + 3]);
                        kx += 3;
                    }
                    while kx < k {
                        tap_dots::<T, 1>(&x[kx..], offs, dyt, &mut dw_row[kx..kx + 1]);
                        kx += 1;
                    }
                }
            }
        }
    }
}

/// Body of the weight/bias gradient at channel-tile width `t`: 16 (one
/// AVX-512 register) or 8. The choice moves no bit — a lane is one output
/// channel either way.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dweight_body(
    g: &ConvGeometry,
    n: usize,
    xpad: &[f32],
    offs: &[usize],
    dy: &[f32],
    t: usize,
    dyt: &mut [f32],
    dwt: &mut [f32],
) {
    match t {
        16 => dweight_tiles::<16>(g, n, xpad, offs, dy, dyt, dwt),
        8 => dweight_tiles::<8>(g, n, xpad, offs, dy, dyt, dwt),
        _ => unreachable!("channel tiles are 8 or 16 wide"),
    }
}

simd_dispatch!(
    dweight_dispatch,
    dweight_body,
    (
        g: &ConvGeometry,
        n: usize,
        xpad: &[f32],
        offs: &[usize],
        dy: &[f32],
        t: usize,
        dyt: &mut [f32],
        dwt: &mut [f32]
    )
);

/// Channel-tile width of the weight gradient: 16 where the host has
/// AVX-512 and the layer has more than one 8-tile of channels, else 8.
fn dweight_tile_width(out_c: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    if avx512 && out_c > 8 {
        16
    } else {
        8
    }
}

/// Copies [`dweight_tiles`]' accumulators (`[tiles][plen + 1][t]`) out
/// into `dweight` (`[out_c, plen]`) and `dbias` (`[out_c]`).
fn untile_gradients(dwt: &[f32], t: usize, plen: usize, dweight: &mut [f32], dbias: &mut [f32]) {
    let tiles = dwt.chunks_exact((plen + 1) * t);
    let outs = dweight.chunks_mut(plen * t).zip(dbias.chunks_mut(t));
    for (tile, (dw, db)) in tiles.zip(outs) {
        for (lane, dw_row) in dw.chunks_exact_mut(plen).enumerate() {
            for (r, v) in dw_row.iter_mut().enumerate() {
                *v = tile[r * t + lane];
            }
        }
        for (lane, v) in db.iter_mut().enumerate() {
            *v = tile[plen * t + lane];
        }
    }
}

/// Input-gradient taps: `dypad` is the batch's `dy`, each plane
/// zero-bordered and zero-dilated by the stride (see
/// [`ConvGeometry::dy_frame`]).
struct DInputTaps<'a> {
    g: &'a ConvGeometry,
    dypad: &'a [f32],
    w: &'a [f32],
}

impl TapKernel for DInputTaps<'_> {
    /// Each input cell sums, over ascending `(ky, kx)`, the inner sum
    /// over ascending `oc` of `w[oc][c, ky, kx] · dy` from `+0.0` — the
    /// oracle's GEMM-then-`col2im` order, both levels in registers.
    ///
    /// The oracle adds a tap only where its output position exists; here
    /// every tap is added, and one whose position does not exist reads
    /// the border (or a dilation gap): its inner sum is `+0.0`, and
    /// `acc + 0.0` leaves bit-identical an accumulator that started at
    /// `+0.0` and so is never `-0.0`. That needs finite weights — the
    /// proviso the dropped `!= 0.0` skips already carry (DESIGN §12).
    #[inline(always)]
    fn tile<const CT: usize, const VT: usize, const RL: usize>(
        &self,
        grid: &TileGrid,
        org: &[[usize; LANES]; VT],
        c0: usize,
        u0: usize,
        dst: &mut [f32],
    ) {
        let g = self.g;
        let (k, kk, plen) = (g.kernel, g.kernel * g.kernel, g.patch_len());
        let (border, dh, dw) = g.dy_frame();
        let [mut a0, mut a1, mut a2, mut a3] = [[[0.0f32; LANES]; VT]; 4];
        for ky in 0..k {
            for kx in 0..k {
                // Cell `iy` meets tap `ky` at output row `(iy + pad - ky) / stride`,
                // which sits at row `iy + pad - ky + border` of the bordered plane.
                let tap = (border + g.pad - ky) * dw + (border + g.pad - kx);
                let [mut i0, mut i1, mut i2, mut i3] = [[[0.0f32; LANES]; VT]; 4];
                let taps = self.w[c0 * kk + ky * k + kx..].chunks(plen);
                for (oc, wtap) in taps.enumerate() {
                    let dv = load_vectors::<VT, RL>(self.dypad, oc * dh * dw + tap, org);
                    mul_add_vectors(&mut i0, wtap[0], &dv);
                    if CT == 4 {
                        mul_add_vectors(&mut i1, wtap[kk], &dv);
                        mul_add_vectors(&mut i2, wtap[2 * kk], &dv);
                        mul_add_vectors(&mut i3, wtap[3 * kk], &dv);
                    }
                }
                add_vectors(&mut a0, &i0);
                if CT == 4 {
                    add_vectors(&mut a1, &i1);
                    add_vectors(&mut a2, &i2);
                    add_vectors(&mut a3, &i3);
                }
            }
        }
        grid.store(dst, c0, u0, &a0);
        if CT == 4 {
            grid.store(dst, c0 + 1, u0, &a1);
            grid.store(dst, c0 + 2, u0, &a2);
            grid.store(dst, c0 + 3, u0, &a3);
        }
    }
}

/// Body of the input gradient once the batch's `dy` sits in `dypad`.
#[inline(always)]
fn dinput_body(
    g: &ConvGeometry,
    n: usize,
    dypad: &[f32],
    offs: &[usize],
    w: &[f32],
    din: &mut [f32],
) {
    let (_, dh, dw) = g.dy_frame();
    let grid = TileGrid {
        offs,
        n_pos: g.in_h * g.in_w,
        src_sample: g.out_c * dh * dw,
        n_ch: g.in_c,
    };
    let taps = DInputTaps { g, dypad, w };
    run_tiles_for::<_, 2>(&taps, &grid, n, g.in_w, 1, din);
}

simd_dispatch!(
    dinput_dispatch,
    dinput_body,
    (
        g: &ConvGeometry,
        n: usize,
        dypad: &[f32],
        offs: &[usize],
        w: &[f32],
        din: &mut [f32]
    )
);

/// Direct backward convolution into caller-owned storage.
///
/// Bitwise-identical to [`conv2d_backward`] for finite inputs:
/// `dweight`/`dbias` accumulate per-sample terms in ascending batch order
/// with the oracle's `dot_slices` / `Iterator::sum` reductions (see
/// `dweight_tiles`), and every input cell adds its taps in the order
/// the oracle's `col2im` does (see `DInputTaps`).
///
/// Requires `scratch` to hold the padded input left by
/// [`conv2d_forward_into`] on the same input. Pass `dinput: None` to skip
/// the input gradient entirely (the first layer of a network never needs
/// it).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    g: &ConvGeometry,
    scratch: &mut ConvScratch,
    dweight: &mut Tensor,
    dbias: &mut Tensor,
    dinput: Option<&mut Tensor>,
) {
    assert_eq!(
        weight.shape().dims(),
        &[g.out_c, g.patch_len()],
        "weight shape"
    );
    conv2d_backward_slices_into(
        input,
        weight.data(),
        dout,
        g,
        scratch,
        dweight,
        dbias,
        dinput,
    );
}

/// [`conv2d_backward_into`] with the filters as a slice
/// (`[out_c, patch_len]`, row major), read in place from a parameter
/// plane.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_slices_into(
    input: &Tensor,
    weight: &[f32],
    dout: &Tensor,
    g: &ConvGeometry,
    scratch: &mut ConvScratch,
    dweight: &mut Tensor,
    dbias: &mut Tensor,
    dinput: Option<&mut Tensor>,
) {
    assert_eq!(weight.len(), g.out_c * g.patch_len(), "weight shape");
    g.check_input(input);
    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(
        dout.shape().dims(),
        &[n, g.out_c, oh, ow],
        "dout shape mismatch"
    );
    let (n_pos, plen) = (oh * ow, g.patch_len());
    let (ph, pw) = g.padded();
    assert!(
        scratch.xpad.len() == n * g.in_c * ph * pw
            && scratch.out_off.len() == n_pos.next_multiple_of(LANES),
        "conv2d_backward_into requires the padded input left by `conv2d_forward_into`"
    );

    let t = dweight_tile_width(g.out_c);
    scratch.dyt.resize(n_pos * t, 0.0);
    scratch.dwt.clear();
    scratch
        .dwt
        .resize(g.out_c.div_ceil(t) * (plen + 1) * t, 0.0);
    dweight_dispatch(
        g,
        n,
        &scratch.xpad,
        &scratch.out_off,
        dout.data(),
        t,
        &mut scratch.dyt,
        &mut scratch.dwt,
    );
    dweight.resize([g.out_c, plen]);
    dbias.resize([g.out_c]);
    untile_gradients(&scratch.dwt, t, plen, dweight.data_mut(), dbias.data_mut());

    if let Some(dinput) = dinput {
        let (border, dh, dw) = g.dy_frame();
        scratch.dypad.clear();
        scratch.dypad.resize(n * g.out_c * dh * dw, 0.0);
        embed_planes(
            dout.data(),
            oh,
            ow,
            &mut scratch.dypad,
            dh,
            dw,
            border,
            g.stride,
        );
        window_offsets(g.in_h, g.in_w, 1, dw, &mut scratch.in_off);
        dinput.resize(input.shape());
        dinput_dispatch(
            g,
            n,
            &scratch.dypad,
            &scratch.in_off,
            weight,
            dinput.data_mut(),
        );
    }
}

/// Forward convolution.
///
/// * `input`: `[N, in_c, in_h, in_w]`
/// * `weight`: `[out_c, in_c * kernel * kernel]` (pre-flattened filters)
/// * `bias`: `[out_c]`
///
/// Returns `[N, out_c, out_h, out_w]`.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Tensor {
    check_filters(weight, bias, g);
    conv2d_forward_slices(input, weight.data(), bias.data(), g)
}

/// [`conv2d_forward`] with the filters and bias as slices, read in place
/// from a parameter plane.
pub fn conv2d_forward_slices(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    g: &ConvGeometry,
) -> Tensor {
    g.check_input(input);
    check_filter_slices(weight, bias, g);

    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_pos = oh * ow;
    let img_len = g.in_c * g.in_h * g.in_w;
    let out_img_len = g.out_c * n_pos;

    let mut out = Tensor::zeros([n, g.out_c, oh, ow]);
    let mut cols = vec![0.0f32; g.patch_len() * n_pos];
    for b in 0..n {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        im2col_reference(img, g, &mut cols);
        let dst = &mut out.data_mut()[b * out_img_len..(b + 1) * out_img_len];
        matmul_into_reference(weight, &cols, dst, g.out_c, g.patch_len(), n_pos);
        for (oc, chunk) in dst.chunks_mut(n_pos).enumerate() {
            let bv = bias[oc];
            for v in chunk {
                *v += bv;
            }
        }
    }
    out
}

/// Backward convolution.
///
/// Given upstream gradient `dout` (`[N, out_c, out_h, out_w]`), returns
/// `(dinput, dweight, dbias)` matching the forward argument shapes.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    g: &ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(
        weight.shape().dims(),
        &[g.out_c, g.patch_len()],
        "weight shape"
    );
    conv2d_backward_slices(input, weight.data(), dout, g)
}

/// [`conv2d_backward`] with the filters as a slice, read in place from a
/// parameter plane.
pub fn conv2d_backward_slices(
    input: &Tensor,
    weight: &[f32],
    dout: &Tensor,
    g: &ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(weight.len(), g.out_c * g.patch_len(), "weight shape");
    g.check_input(input);
    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(
        dout.shape().dims(),
        &[n, g.out_c, oh, ow],
        "dout shape mismatch"
    );
    let n_pos = oh * ow;
    let img_len = g.in_c * g.in_h * g.in_w;
    let out_img_len = g.out_c * n_pos;
    let plen = g.patch_len();

    let mut dinput = Tensor::zeros(input.shape().clone());
    let mut dweight = Tensor::zeros([g.out_c, plen]);
    let mut dbias = Tensor::zeros([g.out_c]);

    let mut cols = vec![0.0f32; plen * n_pos];
    let mut dcols = vec![0.0f32; plen * n_pos];
    let mut dw_local = vec![0.0f32; g.out_c * plen];

    for b in 0..n {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        let dy = &dout.data()[b * out_img_len..(b + 1) * out_img_len];

        // dbias: sum over spatial positions.
        for (oc, chunk) in dy.chunks(n_pos).enumerate() {
            dbias.data_mut()[oc] += chunk.iter().sum::<f32>();
        }

        // dweight += dy (out_c×n_pos) · colsᵀ (n_pos×plen)
        im2col_reference(img, g, &mut cols);
        for oc in 0..g.out_c {
            let dyrow = &dy[oc * n_pos..(oc + 1) * n_pos];
            let dwrow = &mut dw_local[oc * plen..(oc + 1) * plen];
            for (r, dwv) in dwrow.iter_mut().enumerate() {
                *dwv = crate::ops::dot_slices_reference(dyrow, &cols[r * n_pos..(r + 1) * n_pos]);
            }
        }
        for (acc, &v) in dweight.data_mut().iter_mut().zip(dw_local.iter()) {
            *acc += v;
        }

        // dcols = weightᵀ (plen×out_c) · dy (out_c×n_pos)
        dcols.fill(0.0);
        for oc in 0..g.out_c {
            let wrow = &weight[oc * plen..(oc + 1) * plen];
            let dyrow = &dy[oc * n_pos..(oc + 1) * n_pos];
            for (r, &wv) in wrow.iter().enumerate() {
                if wv != 0.0 {
                    let drow = &mut dcols[r * n_pos..(r + 1) * n_pos];
                    for (dv, &dyv) in drow.iter_mut().zip(dyrow) {
                        *dv += wv * dyv;
                    }
                }
            }
        }
        let dimg = &mut dinput.data_mut()[b * img_len..(b + 1) * img_len];
        col2im_reference(&dcols, g, dimg);
    }
    (dinput, dweight, dbias)
}

/// Forward 2×2-style max pooling with stride = window.
///
/// Returns the pooled tensor and the flat argmax indices (into each input
/// image) used by [`maxpool2d_backward`].
pub fn maxpool2d_forward(input: &Tensor, window: usize) -> (Tensor, Vec<u32>) {
    let mut out = Tensor::zeros([0]);
    let mut arg = Vec::new();
    maxpool2d_forward_into(input, window, &mut out, &mut arg);
    (out, arg)
}

/// [`maxpool2d_forward`] into caller-owned storage; `out` and `arg` are
/// resized and fully overwritten.
pub fn maxpool2d_forward_into(input: &Tensor, window: usize, out: &mut Tensor, arg: &mut Vec<u32>) {
    assert_eq!(input.shape().rank(), 4, "pool input must be NCHW");
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    assert!(window > 0 && h >= window && w >= window, "bad pool window");
    let (oh, ow) = (h / window, w / window);
    out.resize([n, c, oh, ow]);
    arg.resize(n * c * oh * ow, 0);
    if window == 2 {
        maxpool_2x2(input.data(), h, w, out.data_mut(), arg);
    } else {
        maxpool_windows(input.data(), h, w, window, out.data_mut(), arg);
    }
}

/// The window loop of [`maxpool2d_forward_into`] for any window: visit
/// the cells row by row, keep the first strict maximum above
/// `NEG_INFINITY` and its flat index, index 0 when nothing wins (a
/// window of `-inf` and `NaN`). The reference [`maxpool_2x2`] is held to.
fn maxpool_windows(id: &[f32], h: usize, w: usize, window: usize, od: &mut [f32], arg: &mut [u32]) {
    let (oh, ow) = (h / window, w / window);
    let mut o = 0usize;
    for base in (0..id.len()).step_by(h * w) {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for dy in 0..window {
                    for dx in 0..window {
                        let idx = base + (oy * window + dy) * w + (ox * window + dx);
                        if id[idx] > best {
                            best = id[idx];
                            best_i = idx;
                        }
                    }
                }
                od[o] = best;
                arg[o] = best_i as u32;
                o += 1;
            }
        }
    }
}

/// The 2 × 2 window — the only one the model zoo uses — as compare and
/// select, no branch: the four cells in [`maxpool_windows`]' visit order,
/// strict `>`, `NEG_INFINITY` start, index 0 when nothing wins. Indices
/// are computed in `u32`, which is the reference's `usize as u32`.
#[inline(always)]
fn maxpool_2x2_body(id: &[f32], h: usize, w: usize, od: &mut [f32], arg: &mut [u32]) {
    let (oh, ow) = (h / 2, w / 2);
    let outs = od
        .chunks_exact_mut(oh * ow)
        .zip(arg.chunks_exact_mut(oh * ow));
    for (p, (plane, (op, ap))) in id.chunks_exact(h * w).zip(outs).enumerate() {
        let rows = op.chunks_exact_mut(ow).zip(ap.chunks_exact_mut(ow));
        for (oy, (orow, arow)) in rows.enumerate() {
            let top = &plane[2 * oy * w..][..w];
            let bottom = &plane[(2 * oy + 1) * w..][..w];
            let i0 = (p * h * w + 2 * oy * w) as u32;
            let cells = top.as_chunks::<2>().0.iter().zip(bottom.as_chunks::<2>().0);
            for (ox, ((o, a), (t, b))) in orow.iter_mut().zip(arow).zip(cells).enumerate() {
                let i00 = i0.wrapping_add(2 * ox as u32);
                let i10 = i00.wrapping_add(w as u32);
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0u32;
                for (v, i) in [
                    (t[0], i00),
                    (t[1], i00.wrapping_add(1)),
                    (b[0], i10),
                    (b[1], i10.wrapping_add(1)),
                ] {
                    let wins = v > best;
                    best = if wins { v } else { best };
                    best_i = if wins { i } else { best_i };
                }
                *o = best;
                *a = best_i;
            }
        }
    }
}

simd_dispatch!(
    maxpool_2x2,
    maxpool_2x2_body,
    (id: &[f32], h: usize, w: usize, od: &mut [f32], arg: &mut [u32])
);

/// Backward max pooling: routes each upstream gradient to the argmax cell.
pub fn maxpool2d_backward(input_shape: &crate::shape::Shape, dout: &Tensor, arg: &[u32]) -> Tensor {
    let mut dinput = Tensor::zeros([0]);
    maxpool2d_backward_into(input_shape, dout, arg, &mut dinput);
    dinput
}

/// [`maxpool2d_backward`] into caller-owned storage; `dinput` is resized
/// and fully overwritten.
pub fn maxpool2d_backward_into(
    input_shape: &crate::shape::Shape,
    dout: &Tensor,
    arg: &[u32],
    dinput: &mut Tensor,
) {
    assert_eq!(dout.len(), arg.len(), "argmax table length mismatch");
    dinput.resize(input_shape);
    let dd = dinput.data_mut();
    dd.fill(0.0);
    for (g, &i) in dout.data().iter().zip(arg) {
        dd[i as usize] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call_clone;
    use crate::matmul::host_clones;
    use crate::matmul::tests::{bits, vals};

    fn geom(
        in_c: usize,
        out_c: usize,
        k: usize,
        s: usize,
        p: usize,
        h: usize,
        w: usize,
    ) -> ConvGeometry {
        ConvGeometry {
            in_c,
            out_c,
            kernel: k,
            stride: s,
            pad: p,
            in_h: h,
            in_w: w,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom(1, 4, 3, 1, 1, 8, 8);
        assert_eq!((g.out_h(), g.out_w()), (8, 8));
        let g2 = geom(1, 4, 3, 2, 0, 9, 9);
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1, bias 0 => output == input.
        let g = geom(1, 1, 1, 1, 0, 4, 4);
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let w = Tensor::ones([1, 1]);
        let b = Tensor::zeros([1]);
        let y = conv2d_forward(&x, &w, &b, &g);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel on an all-ones 3x3 input without padding: 9.
        let g = geom(1, 1, 3, 1, 0, 3, 3);
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 9]);
        let b = Tensor::zeros([1]);
        let y = conv2d_forward(&x, &w, &b, &g);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 9.0);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let g = geom(1, 2, 1, 1, 0, 2, 2);
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1]);
        let b = Tensor::from_vec([2], vec![1.5, -2.0]);
        let y = conv2d_forward(&x, &w, &b, &g);
        assert_eq!(&y.data()[..4], &[1.5; 4]);
        assert_eq!(&y.data()[4..], &[-2.0; 4]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let g = geom(1, 2, 3, 1, 1, 4, 4);
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            (0..16).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let w = Tensor::from_vec(
            [2, 9],
            (0..18).map(|i| (i as f32 * 0.21).cos() * 0.5).collect(),
        );
        let b = Tensor::from_vec([2], vec![0.1, -0.2]);

        // Loss = sum(conv(x)) so dout = ones.
        let y = conv2d_forward(&x, &w, &b, &g);
        let dout = Tensor::ones(y.shape().clone());
        let (dx, dw, db) = conv2d_backward(&x, &w, &dout, &g);

        let eps = 1e-3;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d_forward(x, w, b, &g).sum();

        for i in [0usize, 5, 12] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: fd={fd} an={}",
                dx.data()[i]
            );
        }
        for i in [0usize, 7, 17] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - dw.data()[i]).abs() < 1e-1,
                "dw[{i}]: fd={fd} an={}",
                dw.data()[i]
            );
        }
        for i in 0..2 {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (fd - db.data()[i]).abs() < 1e-1,
                "db[{i}]: fd={fd} an={}",
                db.data()[i]
            );
        }
    }

    #[test]
    fn maxpool_forward_picks_max() {
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 4., //
                3., 0., 1., 1., //
                0., 0., 9., 8., //
                0., 7., 6., 5.,
            ],
        );
        let (y, arg) = maxpool2d_forward(&x, 2);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3., 5., 7., 9.]);
        assert_eq!(arg, vec![4, 2, 13, 10]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 9., 3., 2.]);
        let (y, arg) = maxpool2d_forward(&x, 2);
        assert_eq!(y.data(), &[9.]);
        let dout = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let dx = maxpool2d_backward(x.shape(), &dout, &arg);
        assert_eq!(dx.data(), &[0., 5., 0., 0.]);
    }

    /// The dispatcher runs one clone per host (and one gradient tile
    /// width), so on an AVX-512 machine the narrower clones and the
    /// 8-channel tiles would otherwise never execute: every clone of every
    /// dispatched kernel, and both tile widths, must produce the oracle's
    /// bits on the cnn2 layers at the paper's batch.
    #[test]
    fn every_clone_of_every_kernel_matches_the_oracle_bitwise() {
        let n = 16;
        for g in [geom(1, 8, 3, 1, 1, 16, 16), geom(8, 16, 3, 1, 1, 8, 8)] {
            let (n_pos, plen) = (g.out_positions(), g.patch_len());
            let x = Tensor::from_vec(
                [n, g.in_c, g.in_h, g.in_w],
                vals(n * g.in_c * g.in_h * g.in_w, 1),
            );
            let w = Tensor::from_vec([g.out_c, plen], vals(g.out_c * plen, 2));
            let b = Tensor::from_vec([g.out_c], vals(g.out_c, 3));
            let dy = Tensor::from_vec(
                [n, g.out_c, g.out_h(), g.out_w()],
                vals(n * g.out_c * n_pos, 4),
            );
            let want_out = conv2d_forward(&x, &w, &b, &g);
            let (want_dx, want_dw, want_db) = conv2d_backward(&x, &w, &dy, &g);

            // The dispatched path leaves the padded batch, the bordered
            // `dy` and both offset tables in the scratch.
            let mut s = ConvScratch::default();
            let (mut out, mut dw, mut db, mut dx) = (
                Tensor::zeros([0]),
                Tensor::zeros([0]),
                Tensor::zeros([0]),
                Tensor::zeros([0]),
            );
            conv2d_forward_into(&x, &w, &b, &g, &mut s, &mut out);
            conv2d_backward_into(&x, &w, &dy, &g, &mut s, &mut dw, &mut db, Some(&mut dx));

            for clone in host_clones() {
                out.data_mut().fill(f32::NAN);
                call_clone!(
                    forward_body,
                    clone,
                    (
                        &g,
                        n,
                        &s.xpad,
                        &s.out_off,
                        w.data(),
                        b.data(),
                        out.data_mut()
                    )
                );
                assert_eq!(bits(out.data()), bits(want_out.data()), "forward {clone}");

                for t in [8, 16] {
                    let mut dyt = vec![f32::NAN; n_pos * t];
                    let mut dwt = vec![0.0; g.out_c.div_ceil(t) * (plen + 1) * t];
                    call_clone!(
                        dweight_body,
                        clone,
                        (&g, n, &s.xpad, &s.out_off, dy.data(), t, &mut dyt, &mut dwt)
                    );
                    untile_gradients(&dwt, t, plen, dw.data_mut(), db.data_mut());
                    assert_eq!(bits(dw.data()), bits(want_dw.data()), "dweight {clone} {t}");
                    assert_eq!(bits(db.data()), bits(want_db.data()), "dbias {clone} {t}");
                }

                dx.data_mut().fill(f32::NAN);
                call_clone!(
                    dinput_body,
                    clone,
                    (&g, n, &s.dypad, &s.in_off, w.data(), dx.data_mut())
                );
                assert_eq!(bits(dx.data()), bits(want_dx.data()), "dinput {clone}");
            }

            let (h, wd) = (g.out_h(), g.out_w());
            let mut want = (vec![0.0; dy.len() / 4], vec![0u32; dy.len() / 4]);
            maxpool_windows(dy.data(), h, wd, 2, &mut want.0, &mut want.1);
            for clone in host_clones() {
                let mut got = (vec![f32::NAN; want.0.len()], vec![u32::MAX; want.1.len()]);
                call_clone!(
                    maxpool_2x2_body,
                    clone,
                    (dy.data(), h, wd, &mut got.0, &mut got.1)
                );
                assert_eq!(bits(&got.0), bits(&want.0), "pool {clone}");
                assert_eq!(got.1, want.1, "pool argmax {clone}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stride, kernel and in_c > 0")]
    fn zero_stride_is_rejected_by_name() {
        let g = geom(1, 1, 3, 0, 1, 4, 4);
        conv2d_forward(
            &Tensor::zeros([1, 1, 4, 4]),
            &Tensor::zeros([1, 9]),
            &Tensor::zeros([1]),
            &g,
        );
    }

    #[test]
    #[should_panic(expected = "requires the padded input left by `conv2d_forward_into`")]
    fn backward_into_without_forward_names_what_it_needs() {
        let g = geom(1, 2, 3, 1, 1, 4, 4);
        let (mut dw, mut db) = (Tensor::zeros([0]), Tensor::zeros([0]));
        conv2d_backward_into(
            &Tensor::zeros([1, 1, 4, 4]),
            &Tensor::zeros([2, 9]),
            &Tensor::zeros([1, 2, 4, 4]),
            &g,
            &mut ConvScratch::default(),
            &mut dw,
            &mut db,
            None,
        );
    }

    proptest::proptest! {
        /// The branch-free 2 × 2 pool equals the generic window loop —
        /// values and argmax table — on odd and even planes holding ties,
        /// `-inf`, `NaN` and windows of nothing but `NaN`, and the backward
        /// pass routes through either table alike.
        #[test]
        fn pool_2x2_matches_the_window_loop(
            n in 1usize..3,
            c in 1usize..4,
            h in 2usize..12,
            w in 2usize..20,
            seed in 0u64..1000,
        ) {
            // A few distinct values, so ties are everywhere; whole 2 × 2
            // windows of NaN / -inf at seed-dependent places.
            let mut data: Vec<f32> = vals(n * c * h * w, seed)
                .iter()
                .map(|v| (v * 3.0).round())
                .collect();
            for (i, v) in data.iter_mut().enumerate() {
                let (y, x) = (i / w % h, i % w);
                let window = (y / 2 * 31 + x / 2 * 17 + seed as usize) % 13;
                match (window, i % 7) {
                    (0, _) | (_, 2) => *v = f32::NAN,
                    (1, _) | (_, 5) => *v = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            let x = Tensor::from_vec([n, c, h, w], data);
            let (mut out, mut arg) = (Tensor::zeros([0]), Vec::new());
            maxpool2d_forward_into(&x, 2, &mut out, &mut arg);
            let mut want = (vec![0.0; out.len()], vec![0u32; out.len()]);
            maxpool_windows(x.data(), h, w, 2, &mut want.0, &mut want.1);
            proptest::prop_assert_eq!(out.shape().dims(), &[n, c, h / 2, w / 2]);
            proptest::prop_assert_eq!(bits(out.data()), bits(&want.0));
            proptest::prop_assert_eq!(&arg, &want.1);

            let dout = Tensor::from_vec(out.shape().clone(), vals(out.len(), seed ^ 0x77));
            let via_fast = maxpool2d_backward(x.shape(), &dout, &arg);
            let via_loop = maxpool2d_backward(x.shape(), &dout, &want.1);
            proptest::prop_assert_eq!(bits(via_fast.data()), bits(via_loop.data()));
        }
    }
}
