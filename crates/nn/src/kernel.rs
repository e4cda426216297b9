//! The register-block kernel behind every matrix product of the training
//! step, and its two builds.
//!
//! The kernel computes `A · B` where each operand is a row-major matrix
//! read either as stored ([`Stored`]) or transposed ([`Transposed`]), so
//! the backward pass's `xᵀ·δ` and `δ·Wᵀ` need no transposed copy.
//!
//! The kernel body is compiled twice from one source: a baseline build for
//! the target's default features (SSE2 on x86-64), and on x86-64 an AVX
//! build, where one 8-wide panel row is one vector register instead of two.
//! [`Build::detected`] picks between them at run time. FMA stays off in
//! both: a fused multiply-add rounds once, where the textbook loop rounds
//! the product and the sum separately, so the two builds and the naive
//! triple loop agree bit for bit.

use std::ops::Range;

/// Width of a column panel of the right operand: one AVX vector, two SSE2
/// vectors.
const PANEL: usize = 8;

/// Left-operand rows per register block. Four rows by one panel is eight
/// SSE2 vector accumulators (four AVX ones), which fit in the sixteen
/// vector registers next to the panel row and the broadcast left value.
const BLOCK_ROWS: usize = 4;

/// Inner-index depth of a packed panel, which lives on the stack. No
/// product of the training step at its default batch of 32 is deeper; a
/// deeper one packs and sweeps the panel in slices of this depth.
const PACKED_DEPTH: usize = 32;

/// A row-major `rows x cols` matrix read as stored: element `(i, k)` of the
/// operand is `data[i * cols + k]`.
#[derive(Clone, Copy)]
pub(crate) struct Stored<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// A row-major `rows x cols` matrix read transposed, in place: element
/// `(i, k)` of the `cols x rows` operand is `data[k * cols + i]`.
#[derive(Clone, Copy)]
pub(crate) struct Transposed<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// The shape of an operand as the product reads it.
pub(crate) trait Operand: Copy {
    /// `(rows, cols)` of the operand.
    fn shape(self) -> (usize, usize);
}

impl Operand for Stored<'_> {
    fn shape(self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl Operand for Transposed<'_> {
    fn shape(self) -> (usize, usize) {
        (self.cols, self.rows)
    }
}

/// How the kernel reads its left operand: one block of rows at a time.
pub(crate) trait Left: Operand {
    /// The values of operand rows `i..i + R` at each inner index of
    /// `inner`, in ascending inner index.
    fn columns<const R: usize>(
        self,
        i: usize,
        inner: Range<usize>,
    ) -> impl Iterator<Item = [f32; R]>;
}

impl Left for Stored<'_> {
    #[inline(always)]
    fn columns<const R: usize>(
        self,
        i: usize,
        inner: Range<usize>,
    ) -> impl Iterator<Item = [f32; R]> {
        let depth = inner.len();
        // Filled by a loop: `std::array::from_fn` stayed a call per block.
        let mut rows: [&[f32]; R] = [&[]; R];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = &self.data[(i + r) * self.cols + inner.start..][..depth];
        }
        (0..depth).map(move |k| {
            let mut values = [0.0; R];
            for (value, row) in values.iter_mut().zip(rows) {
                *value = row[k];
            }
            values
        })
    }
}

impl Left for Transposed<'_> {
    /// Operand row `i` is stored column `i`, so the block's `R` values at
    /// one inner index lie side by side in one stored row.
    #[inline(always)]
    fn columns<const R: usize>(
        self,
        i: usize,
        inner: Range<usize>,
    ) -> impl Iterator<Item = [f32; R]> {
        self.data[inner.start * self.cols..inner.end * self.cols]
            .chunks_exact(self.cols)
            .map(move |row| {
                row[i..i + R]
                    .try_into()
                    .expect("a block's rows are stored columns")
            })
    }
}

/// How the kernel reads its right operand: in column panels of [`PANEL`].
pub(crate) trait Right<'a>: Operand {
    /// The full panel of operand columns `col..col + PANEL` where it lies,
    /// when the layout keeps each panel row contiguous.
    fn in_place(self, col: usize) -> Option<Panel<'a>>;

    /// Copies operand rows `inner` of columns `col..col + width` into
    /// `buf`, one [`PANEL`]-wide row per inner index, and zeroes the lanes
    /// past `width`.
    fn pack(self, col: usize, width: usize, inner: Range<usize>, buf: &mut [f32]);
}

impl<'a> Right<'a> for Stored<'a> {
    #[inline(always)]
    fn in_place(self, col: usize) -> Option<Panel<'a>> {
        Some(Panel {
            data: &self.data[col..],
            stride: self.cols,
            col,
            width: PANEL,
        })
    }

    #[inline(always)]
    fn pack(self, col: usize, width: usize, inner: Range<usize>, buf: &mut [f32]) {
        let rows =
            self.data[inner.start * self.cols..inner.end * self.cols].chunks_exact(self.cols);
        for (dst, src) in buf.chunks_exact_mut(PANEL).zip(rows) {
            let src = &src[col..col + width];
            for (lane, d) in dst.iter_mut().enumerate() {
                *d = src.get(lane).copied().unwrap_or(0.0);
            }
        }
    }
}

impl<'a> Right<'a> for Transposed<'a> {
    /// Operand column `j` is stored row `j`, so no panel row is contiguous.
    #[inline(always)]
    fn in_place(self, _col: usize) -> Option<Panel<'a>> {
        None
    }

    /// Gathers operand element `(k, col + lane)` from stored element
    /// `(col + lane, k)`.
    #[inline(always)]
    fn pack(self, col: usize, width: usize, inner: Range<usize>, buf: &mut [f32]) {
        let rows = &self.data[col * self.cols..(col + width) * self.cols];
        for (k, dst) in inner.zip(buf.chunks_exact_mut(PANEL)) {
            for (lane, d) in dst.iter_mut().enumerate() {
                *d = if lane < width {
                    rows[lane * self.cols + k]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Which compiled copy of the kernel runs. Only [`Build::detected`] picks
/// the AVX build, and only on a CPU that has AVX.
#[derive(Clone, Copy)]
pub(crate) struct Build {
    avx: bool,
}

impl Build {
    /// The build for the target's default features, which every CPU of the
    /// target runs.
    pub(crate) const BASELINE: Build = Build { avx: false };

    /// The AVX build when the running CPU has AVX, the baseline otherwise.
    pub(crate) fn detected() -> Build {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Build { avx: true };
        }
        Build::BASELINE
    }
}

/// Writes every element of the `out.len() / out_cols x out_cols` product
/// `a · b`, whose inner dimension is `depth`, with the kernel `build`
/// selects.
///
/// # Panics
///
/// Panics when an operand is smaller than its part of the product.
pub(crate) fn product<'a, A: Left, B: Right<'a>>(
    build: Build,
    a: A,
    b: B,
    depth: usize,
    out: &mut [f32],
    out_cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if build.avx {
        // SAFETY: `avx` is set only by `Build::detected`, and only when
        // the running CPU has AVX, the one feature `product_avx` enables.
        unsafe { product_avx(a, b, depth, out, out_cols) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = build; // the baseline is the only build
    product_baseline(a, b, depth, out, out_cols);
}

/// The kernel body for the target's default features. Kept out of line,
/// like the AVX copy, which cannot be inlined into callers without AVX:
/// inlined into [`product`], it made a two-epoch fit of an 11 -> 25 -> 5
/// model slightly slower (3.19-3.21 ms against 3.17-3.18 ms, best of 60,
/// baseline build forced, release build on a 2-core x86-64 VM).
#[inline(never)]
fn product_baseline<'a, A: Left, B: Right<'a>>(
    a: A,
    b: B,
    depth: usize,
    out: &mut [f32],
    out_cols: usize,
) {
    product_body(a, b, depth, out, out_cols);
}

/// The kernel body compiled with AVX, so each 8-wide panel row of the
/// register block is one vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline(never)]
fn product_avx<'a, A: Left, B: Right<'a>>(
    a: A,
    b: B,
    depth: usize,
    out: &mut [f32],
    out_cols: usize,
) {
    product_body(a, b, depth, out, out_cols);
}

/// The product kernel: the right operand is swept in column panels of
/// [`PANEL`] (Goto & van de Geijn, "Anatomy of High-Performance Matrix
/// Multiplication", ACM TOMS 2008). A full panel that lies contiguously in
/// `b` is read in place; any other panel (the narrower last one, or every
/// panel of a transposed right operand) is packed into a zero-padded stack
/// buffer. Against each panel, [`BLOCK_ROWS`] rows of `a` at a time
/// accumulate a `rows x PANEL` block in registers over the whole inner
/// index, so every output is written once, and the 5-wide output layer
/// still runs on full vectors.
///
/// Per output element the sum starts at `+0.0` and adds each `a * b` in
/// ascending inner index, with the multiply and the add rounded separately:
/// the result is bit-for-bit the textbook triple loop's, for every shape
/// and in both builds.
#[inline(always)]
fn product_body<'a, A: Left, B: Right<'a>>(
    a: A,
    b: B,
    depth: usize,
    out: &mut [f32],
    out_cols: usize,
) {
    if out_cols == 0 {
        return;
    }
    if depth == 0 {
        out.fill(0.0);
        return;
    }
    let mut packed = [0.0_f32; PANEL * PACKED_DEPTH];
    for col in (0..out_cols).step_by(PANEL) {
        let width = PANEL.min(out_cols - col);
        match b.in_place(col).filter(|_| width == PANEL) {
            Some(panel) => panel.multiply(a, 0..depth, out, out_cols),
            None => {
                for k0 in (0..depth).step_by(PACKED_DEPTH) {
                    let inner = k0..(k0 + PACKED_DEPTH).min(depth);
                    b.pack(col, width, inner.clone(), &mut packed);
                    let panel = Panel {
                        data: &packed,
                        stride: PANEL,
                        col,
                        width,
                    };
                    panel.multiply(a, inner, out, out_cols);
                }
            }
        }
    }
}

/// One column panel of the right operand: row `k` of the panel is
/// `data[k * stride..][..PANEL]`, counted from the first inner index the
/// panel holds. It feeds output columns `col..col + width`.
pub(crate) struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
    col: usize,
    width: usize,
}

impl Panel<'_> {
    /// Accumulates `a[.., inner] * panel` into the panel's columns of every
    /// output row, [`BLOCK_ROWS`] rows at a time. When `inner` does not
    /// start at 0, each sum resumes from the partial sum already in `out`.
    #[inline(always)]
    fn multiply<A: Left>(&self, a: A, inner: Range<usize>, out: &mut [f32], out_cols: usize) {
        let rows = out.len() / out_cols;
        let mut i = 0;
        while i + BLOCK_ROWS <= rows {
            self.block::<BLOCK_ROWS, A>(a, i, inner.clone(), out, out_cols);
            i += BLOCK_ROWS;
        }
        match rows - i {
            1 => self.block::<1, A>(a, i, inner, out, out_cols),
            2 => self.block::<2, A>(a, i, inner, out, out_cols),
            3 => self.block::<3, A>(a, i, inner, out, out_cols),
            _ => {}
        }
    }

    /// The register block: output rows `i..i + R` against this panel.
    #[inline(always)]
    fn block<const R: usize, A: Left>(
        &self,
        a: A,
        i: usize,
        inner: Range<usize>,
        out: &mut [f32],
        out_cols: usize,
    ) {
        let mut acc = [[0.0_f32; PANEL]; R];
        if inner.start > 0 {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                acc_row[..self.width]
                    .copy_from_slice(&out[(i + r) * out_cols + self.col..][..self.width]);
            }
        }
        for (k, a_values) in a.columns::<R>(i, inner).enumerate() {
            let b_row: &[f32; PANEL] = self.data[k * self.stride..][..PANEL]
                .try_into()
                .expect("a panel row is PANEL wide");
            for (acc_row, &av) in acc.iter_mut().zip(&a_values) {
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let sums = &mut out[(i + r) * out_cols + self.col..][..self.width];
            // One arm per width: a copy of constant length compiles to a
            // few moves. One of variable length calls `memcpy` for every
            // row of a narrow panel, and storing lane by lane kept the
            // compiler from vectorizing the block at all.
            match self.width {
                1 => store::<1>(sums, acc_row),
                2 => store::<2>(sums, acc_row),
                3 => store::<3>(sums, acc_row),
                4 => store::<4>(sums, acc_row),
                5 => store::<5>(sums, acc_row),
                6 => store::<6>(sums, acc_row),
                7 => store::<7>(sums, acc_row),
                _ => store::<PANEL>(sums, acc_row),
            }
        }
    }
}

/// Writes the first `N` sums of a block row to `out`.
#[inline(always)]
fn store<const N: usize>(out: &mut [f32], sums: &[f32; PANEL]) {
    out[..N].copy_from_slice(&sums[..N]);
}
