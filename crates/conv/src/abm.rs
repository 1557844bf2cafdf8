//! The Accumulate-Before-Multiply sparse convolution engine — the paper's
//! core contribution (Section 3, Equation 2).
//!
//! For every output pixel the engine runs the two-stage flow:
//!
//! 1. **Accumulate** — for each distinct non-zero weight value `Ŵp` of the
//!    kernel, sum the input pixels at that value's index positions,
//!    producing one partial sum per value;
//! 2. **Multiply** — multiply each partial sum by its `Ŵp` and reduce.
//!
//! Integer arithmetic makes the factorization exact: the result is
//! bit-identical to [`crate::dense::conv2d`].
//!
//! Two executors implement this flow:
//!
//! * [`PreparedConv`] — the hot path. Each kernel's value groups are
//!   lowered **once** to flat input offsets
//!   ([`abm_sparse::FlatCode`], the software analogue of the
//!   accelerator's address generator), the output plane is split into an
//!   *interior* region whose receptive fields never touch padding (tight
//!   pointer-bump accumulation, row-tiled for cache locality, one scratch
//!   partial-sum buffer reused across every pixel) and a *halo* region
//!   that keeps per-tap bounds checks. Work counts are **analytic** —
//!   `accumulations = nnz × out_pixels`,
//!   `multiplications = final_accumulations = Σ Q(m) × out_pixels` —
//!   computed once per layer instead of incremented per iteration.
//! * [`mod@reference`] — the naive interpretive loop with per-iteration
//!   counters, kept as the oracle for equivalence tests.
//!
//! [`conv2d`] / [`conv2d_counted`] prepare on the fly; batch consumers
//! ([`crate::infer::Inferencer`]) prepare once and reuse.

use crate::dense::Geometry;
use abm_fault::AbmError;
use abm_kernel::{gather_one, AbmKernel, AccWidth, Isa, Selection, MAX_LANES};
use abm_sparse::{FlatCode, FlatKernel, FlatLayout, LayerCode, Tap};
use abm_tensor::{Shape3, Shape4, Tensor3};
use std::ops::Range;
use std::time::{Duration, Instant};

pub mod reference;

/// Interior rows are processed in tiles of this many output rows per
/// kernel pass, so the input rows a tile touches stay cache-resident
/// while every kernel of the layer sweeps them.
const TILE_ROWS: usize = 8;

/// Work performed by one invocation, split by stage — the measured
/// counterpart of Table 1's `Acc.`/`Mult.` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AbmWork {
    /// Stage-1 accumulations (one per non-zero weight per output pixel).
    pub accumulations: u64,
    /// Stage-2 multiplications (one per distinct value per output pixel).
    pub multiplications: u64,
    /// Stage-2 final accumulations of the partial products.
    pub final_accumulations: u64,
}

impl AbmWork {
    /// Total operations (all additions plus multiplications).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.accumulations + self.multiplications + self.final_accumulations
    }
}

/// Static metric name for the per-variant execute counter — static
/// strings so the hot path never allocates to name a metric.
fn execute_counter(sel: Selection) -> &'static str {
    match (sel.isa, sel.acc) {
        (Isa::Scalar, AccWidth::I16) => "abm_execute_scalar_i16_total",
        (Isa::Scalar, AccWidth::I32) => "abm_execute_scalar_i32_total",
        (Isa::Scalar, AccWidth::I64) => "abm_execute_scalar_i64_total",
        (Isa::Avx2, AccWidth::I16) => "abm_execute_avx2_i16_total",
        (Isa::Avx2, AccWidth::I32) => "abm_execute_avx2_i32_total",
        (Isa::Avx2, AccWidth::I64) => "abm_execute_avx2_i64_total",
        (Isa::Avx512, AccWidth::I16) => "abm_execute_avx512_i16_total",
        (Isa::Avx512, AccWidth::I32) => "abm_execute_avx512_i32_total",
        (Isa::Avx512, AccWidth::I64) => "abm_execute_avx512_i64_total",
    }
}

/// Static metric name for the per-variant preparation-time dispatch
/// counter.
fn dispatch_counter(sel: Selection) -> &'static str {
    match (sel.isa, sel.acc) {
        (Isa::Scalar, AccWidth::I16) => "abm_dispatch_scalar_i16_total",
        (Isa::Scalar, AccWidth::I32) => "abm_dispatch_scalar_i32_total",
        (Isa::Scalar, AccWidth::I64) => "abm_dispatch_scalar_i64_total",
        (Isa::Avx2, AccWidth::I16) => "abm_dispatch_avx2_i16_total",
        (Isa::Avx2, AccWidth::I32) => "abm_dispatch_avx2_i32_total",
        (Isa::Avx2, AccWidth::I64) => "abm_dispatch_avx2_i64_total",
        (Isa::Avx512, AccWidth::I16) => "abm_dispatch_avx512_i16_total",
        (Isa::Avx512, AccWidth::I32) => "abm_dispatch_avx512_i32_total",
        (Isa::Avx512, AccWidth::I64) => "abm_dispatch_avx512_i64_total",
    }
}

/// Validates the channel/group contract shared by every ABM executor:
/// `groups` must be positive and divide the output channels, and the
/// input must carry `in_channels × groups` channels.
///
/// # Errors
///
/// Returns [`AbmError::BadGrouping`] or [`AbmError::ChannelMismatch`]
/// when the contract is violated.
pub(crate) fn validate_grouping(
    input: Shape3,
    weights: Shape4,
    geom: Geometry,
) -> Result<(), AbmError> {
    if geom.groups == 0 || !weights.out_channels.is_multiple_of(geom.groups) {
        return Err(AbmError::BadGrouping {
            groups: geom.groups,
            out_channels: weights.out_channels,
        });
    }
    if input.channels != weights.in_channels * geom.groups {
        return Err(AbmError::ChannelMismatch {
            input_channels: input.channels,
            expected: weights.in_channels * geom.groups,
        });
    }
    Ok(())
}

/// Runs ABM-SpConv over an encoded layer, returning the exact
/// full-precision output.
///
/// `code` must have been encoded from weights whose shape is consistent
/// with `input` and `geom` (see [`crate::dense::output_shape`]).
///
/// This prepares the flat-offset form on the fly; callers convolving the
/// same layer repeatedly should build a [`PreparedConv`] once instead.
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts, a group count
/// that does not divide the output channels, or an un-lowerable code.
pub fn conv2d(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<Tensor3<i64>, AbmError> {
    PreparedConv::try_new(code, input.shape(), geom)?.try_execute(input)
}

/// Like [`conv2d`] but also reports the per-stage operation counts.
///
/// The counts are analytic (computed once from the encoded streams and
/// the output geometry) and exactly equal what [`reference::conv2d_counted`]
/// counts iteration by iteration.
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts, a group count
/// that does not divide the output channels, or an un-lowerable code.
pub fn conv2d_counted(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<(Tensor3<i64>, AbmWork), AbmError> {
    let prepared = PreparedConv::try_new(code, input.shape(), geom)?;
    let out = prepared.try_execute(input)?;
    Ok((out, prepared.work))
}

/// An ABM layer prepared for repeated execution against one input
/// geometry: flat-offset streams, the interior/halo split and the
/// analytic work accounting, all computed once.
///
/// Prepared once per layer (offline, like the accelerator's encoder) and
/// reused across batch items and host workers — execution allocates
/// nothing beyond the output tensor and one scratch buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedConv {
    flat: FlatCode,
    in_shape: Shape3,
    out_shape: Shape3,
    geom: Geometry,
    /// Kernels per channel group (`M / groups`).
    m_per_group: usize,
    interior_rows: Range<usize>,
    interior_cols: Range<usize>,
    work: AbmWork,
    /// Word-lane digest of the flat streams, recorded at preparation: the
    /// golden signature [`verify_checksum`](Self::verify_checksum)
    /// compares against to catch post-load bit flips.
    checksum: u64,
    /// The kernel variant dispatch resolved at preparation time: the
    /// ISA that will execute this layer and the stage-1 accumulator
    /// width the lowering verifier proved safe for it
    /// (`abm_verify::AccumulatorModel::stage1_required_bits`, or the
    /// tighter certified bound when a range certificate is attached).
    sel: Selection,
    /// The worst-case dispatch (what `sel` would be with no
    /// certificate) — the guarded runtime fallback for inputs that
    /// escape a certificate's assumed range.
    fallback_sel: Selection,
    /// The range certificate the narrowed dispatch rests on, when the
    /// caller supplied a calibrated input range at preparation.
    cert: Option<abm_verify::WidthCertificate>,
}

impl PreparedConv {
    /// Lowers an encoded layer against a concrete input shape and
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] on inconsistent channel counts, a group
    /// count that does not divide the output channels, or a flat offset
    /// that overflows the 32-bit encoding.
    pub fn try_new(code: &LayerCode, in_shape: Shape3, geom: Geometry) -> Result<Self, AbmError> {
        Self::try_new_with_isa(code, in_shape, geom, None)
    }

    /// [`try_new`](Self::try_new) with an explicit kernel-ISA request:
    /// `Some(isa)` pins the variant (debugging, benchmarking, the CLI
    /// `--isa` flag), `None` defers to `ABM_FORCE_ISA` and then
    /// auto-detection. Whatever is requested, a layer whose stage-1
    /// worst case does not fit `i32` runs the checked scalar `i64`
    /// port — the pin chooses an ISA, never an unproven accumulator.
    ///
    /// # Errors
    ///
    /// All of [`try_new`](Self::try_new)'s errors, plus
    /// [`AbmError::IsaUnavailable`] when the pinned ISA cannot execute
    /// on this CPU (or the environment pin does not parse).
    pub fn try_new_with_isa(
        code: &LayerCode,
        in_shape: Shape3,
        geom: Geometry,
        isa: Option<Isa>,
    ) -> Result<Self, AbmError> {
        Self::try_new_certified(code, in_shape, geom, isa, None)
    }

    /// [`try_new_with_isa`](Self::try_new_with_isa) with a calibrated
    /// input-range abstraction. `Some(range)` runs the `abm-verify`
    /// range certifier over the lowering and dispatches on the
    /// **certified** stage-1 width instead of the worst case — strictly
    /// more layers prove `i32`, and layers certifying ≤16-bit stage-1
    /// take the packed dual-lane kernel. The certificate's assumption
    /// is then enforced at run time: [`execute`](Self::execute) scans
    /// the input against the assumed interval and falls back to the
    /// worst-case dispatch for any call whose input escapes it, so the
    /// public API stays bit-identical for arbitrary tensors.
    ///
    /// # Errors
    ///
    /// All of [`try_new_with_isa`](Self::try_new_with_isa)'s errors.
    pub fn try_new_certified(
        code: &LayerCode,
        in_shape: Shape3,
        geom: Geometry,
        isa: Option<Isa>,
        input_range: Option<abm_verify::AbsVal>,
    ) -> Result<Self, AbmError> {
        let w = code.shape();
        validate_grouping(in_shape, w, geom)?;
        let layout = FlatLayout {
            in_rows: in_shape.rows,
            in_cols: in_shape.cols,
            stride: geom.stride,
            pad: geom.pad,
        };
        let flat = FlatCode::lower(code, layout)?;
        let prepared = Self::assemble(flat, in_shape, geom, isa, input_range)?;
        // Debug builds statically verify the lowering against its source
        // streams on construction; release builds skip the pass (`cargo
        // xtask verify` runs it explicitly over the model zoo).
        #[cfg(debug_assertions)]
        {
            let report = prepared.verify_against(code);
            debug_assert!(
                report.is_clean(),
                "ABM lowering failed static verification:\n{report}"
            );
        }
        Ok(prepared)
    }

    /// Loads a pre-lowered flat code (e.g. one deserialized from a
    /// WT-Buffer/Q-Table image) after structurally validating it —
    /// unlike the [`FlatCode::from_kernels`] escape hatch, nothing gets
    /// past this constructor without its streams being self-consistent.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::CodeCorrupt`] when validation rejects the
    /// streams, or a contract error when the shape/grouping disagrees
    /// with `in_shape`/`geom`.
    pub fn try_from_flat(
        flat: FlatCode,
        in_shape: Shape3,
        geom: Geometry,
    ) -> Result<Self, AbmError> {
        validate_grouping(in_shape, flat.shape(), geom)?;
        let expected = FlatLayout {
            in_rows: in_shape.rows,
            in_cols: in_shape.cols,
            stride: geom.stride,
            pad: geom.pad,
        };
        if flat.layout() != expected {
            return Err(AbmError::ShapeMismatch {
                got: (
                    in_shape.channels,
                    flat.layout().in_rows,
                    flat.layout().in_cols,
                ),
                want: (in_shape.channels, in_shape.rows, in_shape.cols),
            });
        }
        abm_fault::validate_flat(&flat)?;
        Self::assemble(flat, in_shape, geom, None, None)
    }

    /// Shared tail of the constructors: derive the output geometry,
    /// interior split, analytic work, the golden checksum, and the
    /// kernel-variant dispatch (resolved here, once, never on the
    /// execution path).
    fn assemble(
        flat: FlatCode,
        in_shape: Shape3,
        geom: Geometry,
        isa: Option<Isa>,
        input_range: Option<abm_verify::AbsVal>,
    ) -> Result<Self, AbmError> {
        let w = flat.shape();
        let layout = flat.layout();
        let out_shape = Shape3::new(
            w.out_channels,
            abm_tensor::shape::conv_out_dim(in_shape.rows, w.kernel_rows, geom.stride, geom.pad),
            abm_tensor::shape::conv_out_dim(in_shape.cols, w.kernel_cols, geom.stride, geom.pad),
        );
        let out_pixels = (out_shape.rows * out_shape.cols) as u64;
        // Analytic accounting: every executor variant performs exactly
        // nnz stage-1 accumulations and Q(m) stage-2 multiply+add pairs
        // per output pixel — padding reads contribute zero but are still
        // issued, exactly like the reference loop counts them.
        let work = AbmWork {
            accumulations: flat.total_nnz() * out_pixels,
            multiplications: flat.total_distinct() * out_pixels,
            final_accumulations: flat.total_distinct() * out_pixels,
        };
        let checksum = abm_fault::flat_checksum(&flat);
        // The narrow-accumulator proof: the verifier's worst-case
        // stage-1 magnitude for this exact lowering decides whether the
        // vector kernels may pack `i32` lanes. `select_auto` then
        // resolves the ISA (explicit pin → `ABM_FORCE_ISA` → widest
        // variant whose lanes this layer's interior sweep can fill).
        let stage1_bits = abm_verify::AccumulatorModel::host().stage1_required_bits(&flat);
        let interior_cols = layout.interior_cols(w.kernel_cols, out_shape.cols);
        let interior_rows = layout.interior_rows(w.kernel_rows, out_shape.rows);
        let unit_stride = geom.stride == 1;
        let sweep_cols = interior_cols.end.saturating_sub(interior_cols.start);
        let fallback_sel = abm_kernel::select_auto(isa, stage1_bits, unit_stride, sweep_cols)
            .map_err(|detail| AbmError::IsaUnavailable { detail })?;
        // When the caller supplied a calibrated input range, run the
        // range certifier over this exact lowering: the certified
        // stage-1 width replaces the worst-case bound for dispatch (the
        // certificate's assumption is re-checked per execute, with
        // `fallback_sel` covering escapes).
        let cert = input_range.map(|iv| {
            let geometry = abm_verify::ConvGeometry {
                in_channels: in_shape.channels,
                in_rows: layout.in_rows,
                in_cols: layout.in_cols,
                stride: layout.stride,
                pad: layout.pad,
                groups: geom.groups,
                out_rows: out_shape.rows,
                out_cols: out_shape.cols,
                interior_rows: (interior_rows.start, interior_rows.end),
                interior_cols: (interior_cols.start, interior_cols.end),
            };
            abm_verify::certify_layer("prepared-conv", &flat, &geometry, iv)
        });
        let sel = match &cert {
            Some(c) => abm_kernel::select_auto(isa, c.stage1_bits, unit_stride, sweep_cols)
                .map_err(|detail| AbmError::IsaUnavailable { detail })?,
            None => fallback_sel,
        };
        // Dispatch accounting: one count per prepared layer, keyed by
        // the resolved variant (preparation-time, never the hot path).
        if abm_metrics::enabled() {
            abm_metrics::global().add(dispatch_counter(sel), 1);
        }
        Ok(Self {
            in_shape,
            out_shape,
            geom,
            m_per_group: w.out_channels / geom.groups,
            interior_rows,
            interior_cols,
            work,
            checksum,
            sel,
            fallback_sel,
            cert,
            flat,
        })
    }

    /// Runs the `abm-verify` lowering pass against this prepared layer's
    /// source streams: every flat offset must decode to its source tap,
    /// the declared interior span must be provably in-bounds, the value
    /// groups must partition the encoded non-zeros, and worst-case
    /// accumulation must fit the host accumulator.
    #[must_use]
    pub fn verify_against(&self, code: &LayerCode) -> abm_verify::VerifyReport {
        let layout = self.flat.layout();
        let geometry = abm_verify::ConvGeometry {
            in_channels: self.in_shape.channels,
            in_rows: layout.in_rows,
            in_cols: layout.in_cols,
            stride: layout.stride,
            pad: layout.pad,
            groups: self.geom.groups,
            out_rows: self.out_shape.rows,
            out_cols: self.out_shape.cols,
            interior_rows: (self.interior_rows.start, self.interior_rows.end),
            interior_cols: (self.interior_cols.start, self.interior_cols.end),
        };
        abm_verify::verify_lowering(
            "prepared-conv",
            code,
            &self.flat,
            &geometry,
            &abm_verify::AccumulatorModel::host(),
        )
    }

    /// The input shape this layer was prepared against.
    #[must_use]
    pub fn input_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// The output feature-map shape.
    #[must_use]
    pub fn output_shape(&self) -> Shape3 {
        self.out_shape
    }

    /// The convolution geometry this layer was prepared against.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The analytic per-invocation work (identical for every input).
    #[must_use]
    pub fn work(&self) -> AbmWork {
        self.work
    }

    /// The flat-offset form this layer executes from.
    #[must_use]
    pub fn flat(&self) -> &FlatCode {
        &self.flat
    }

    /// The golden stream checksum recorded at preparation time.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The kernel variant this layer dispatches to (ISA + proven
    /// stage-1 accumulator width), resolved once at preparation.
    #[must_use]
    pub fn selection(&self) -> Selection {
        self.sel
    }

    /// The worst-case dispatch this layer falls back to when an input
    /// escapes the certificate's assumed range. Equal to
    /// [`selection`](Self::selection) for uncertified layers.
    #[must_use]
    pub fn fallback_selection(&self) -> Selection {
        self.fallback_sel
    }

    /// The range certificate the narrowed dispatch rests on, when this
    /// layer was prepared with a calibrated input range.
    #[must_use]
    pub fn certificate(&self) -> Option<&abm_verify::WidthCertificate> {
        self.cert.as_ref()
    }

    /// Re-hashes the flat streams and compares against the golden
    /// checksum recorded at preparation — the cheap pre-execution guard
    /// that catches post-load bit flips (an M20K SEU in hardware
    /// terms).
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ChecksumMismatch`] when the streams no
    /// longer hash to the stored digest.
    pub fn verify_checksum(&self) -> Result<(), AbmError> {
        let computed = abm_fault::flat_checksum(&self.flat);
        if computed == self.checksum {
            Ok(())
        } else {
            Err(AbmError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            })
        }
    }

    /// Replaces the flat streams while **keeping the golden checksum**
    /// — the fault-injection escape hatch modelling a post-load SEU:
    /// the streams change underneath the layer, the signature recorded
    /// at load does not, and [`verify_checksum`](Self::verify_checksum)
    /// is expected to notice. Never a correctness tool; campaign and
    /// test use only.
    #[must_use]
    pub fn with_flat(mut self, flat: FlatCode) -> Self {
        self.flat = flat;
        self
    }

    /// Runs the prepared layer, returning the exact full-precision
    /// output.
    ///
    /// When the global metrics registry is enabled this also records
    /// the per-execute wall-clock histogram (`abm_execute_ns`), the
    /// resolved-variant execute counter and the interior/halo pixel
    /// split — observation only, never on the result path.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the prepared shape.
    #[must_use]
    pub fn execute(&self, input: &Tensor3<i16>) -> Tensor3<i64> {
        if !abm_metrics::enabled() {
            return self.execute_inner(input);
        }
        let timer = Instant::now();
        let out = self.execute_inner(input);
        let elapsed = u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let m = abm_metrics::global();
        m.observe("abm_execute_ns", elapsed);
        m.add(execute_counter(self.sel), 1);
        let out_plane = (self.out_shape.rows * self.out_shape.cols) as u64;
        let interior = (self.interior_rows.len() * self.interior_cols.len()) as u64;
        let channels = self.out_shape.channels as u64;
        m.add("abm_interior_pixels_total", interior * channels);
        m.add(
            "abm_halo_pixels_total",
            out_plane.saturating_sub(interior) * channels,
        );
        out
    }

    /// The uninstrumented execution body shared by the metered entry
    /// point above and the disabled-registry fast path.
    fn execute_inner(&self, input: &Tensor3<i16>) -> Tensor3<i64> {
        assert_eq!(
            input.shape(),
            self.in_shape,
            "input shape {} != prepared shape {}",
            input.shape(),
            self.in_shape
        );
        let mut out = Tensor3::zeros(self.out_shape);
        // The dispatch resolved at preparation: one virtual call maps
        // the stored selection to its kernel object, then the hot loops
        // below go through it for every pixel vector. `lanebuf` is the
        // lane-output scratch sized for the widest variant. A certified
        // (narrower-than-worst-case) dispatch first enforces its
        // assumption: one linear min/max scan of the input, and any
        // escape demotes this call to the worst-case fallback — the
        // certificate narrows the datapath, never the API contract.
        let kern: &'static dyn AbmKernel = abm_kernel::resolve(self.guarded_selection(input));
        let lanes = kern.lanes();
        let mut lanebuf = [0i64; MAX_LANES];
        // One scratch partial-sum buffer, reused across every pixel of
        // every kernel (the software stand-in for the lane's partial-sum
        // FIFO), plus the filtered-stream scratch the halo paths rebuild
        // per row/column.
        let mut partials = vec![0i64; self.flat.max_distinct()];
        let mut halo = HaloScratch::default();
        let data = input.as_slice();
        let out_rows = self.out_shape.rows;
        let out_cols = self.out_shape.cols;
        let out_plane = out_rows * out_cols;
        let in_rows = self.in_shape.rows;
        let in_cols = self.in_shape.cols;
        let plane = in_rows * in_cols;
        let stride = self.geom.stride;
        let pad = self.geom.pad;
        let out_data = out.as_mut_slice();

        for (m, kernel) in self.flat.kernels().iter().enumerate() {
            let chan_base = (m / self.m_per_group) * self.flat.shape().in_channels * plane;
            let out_base = m * out_plane;

            // Halo rows (above/below the interior) at full width. The
            // kernel-row validity of every tap is fixed along a row, so
            // the stream is filtered once per row: interior columns then
            // gather the survivors unchecked, fringe columns check only
            // the column coordinate.
            for orow in (0..self.interior_rows.start).chain(self.interior_rows.end..out_rows) {
                let pr0 = (orow * stride) as isize - pad as isize;
                halo.filter_rows(kernel, pr0, in_rows, plane, in_cols);
                let out_row = out_base + orow * out_cols;
                for ocol in (0..self.interior_cols.start).chain(self.interior_cols.end..out_cols) {
                    let pc0 = (ocol * stride) as isize - pad as isize;
                    out_data[out_row + ocol] = halo.col_checked_pixel(
                        kernel.values(),
                        data,
                        chan_base,
                        plane,
                        in_cols,
                        pc0,
                    );
                }
                sweep(self.interior_cols.clone(), lanes, |ocol, vec_step| {
                    let base = chan_base + ocol * stride - pad;
                    if vec_step {
                        if stride == 1 {
                            kern.gather_unit(
                                kernel.values(),
                                &halo.starts,
                                &halo.offsets,
                                data,
                                base,
                                &mut lanebuf,
                            );
                        } else {
                            kern.gather_strided(
                                kernel.values(),
                                &halo.starts,
                                &halo.offsets,
                                data,
                                base,
                                stride,
                                &mut lanebuf,
                            );
                        }
                        out_data[out_row + ocol..out_row + ocol + lanes]
                            .copy_from_slice(&lanebuf[..lanes]);
                    } else {
                        out_data[out_row + ocol] = gather_one(
                            kernel.values(),
                            &halo.starts,
                            &halo.offsets,
                            data,
                            base,
                            &mut partials,
                        );
                    }
                });
            }

            // Column fringes of the interior rows: symmetric — filter by
            // kernel-column validity once per fringe column, then sweep
            // the interior rows as an unchecked gather whose pixel step
            // is one (strided) input row.
            for ocol in (0..self.interior_cols.start).chain(self.interior_cols.end..out_cols) {
                let pc0 = (ocol * stride) as isize - pad as isize;
                halo.filter_cols(kernel, pc0, in_cols, plane);
                let row_step = stride * in_cols;
                sweep(self.interior_rows.clone(), lanes, |orow, vec_step| {
                    let base = chan_base + (orow * stride - pad) * in_cols;
                    if vec_step {
                        kern.gather_strided(
                            kernel.values(),
                            &halo.starts,
                            &halo.offsets,
                            data,
                            base,
                            row_step,
                            &mut lanebuf,
                        );
                        for (i, &a) in lanebuf[..lanes].iter().enumerate() {
                            out_data[out_base + (orow + i) * out_cols + ocol] = a;
                        }
                    } else {
                        out_data[out_base + orow * out_cols + ocol] = gather_one(
                            kernel.values(),
                            &halo.starts,
                            &halo.offsets,
                            data,
                            base,
                            &mut partials,
                        );
                    }
                });
            }
        }

        // Interior: tile rows so a tile's input footprint stays cached
        // while every kernel of the layer sweeps it (the line-buffer
        // prefetch window).
        let interior_rows: Vec<usize> = self.interior_rows.clone().collect();
        for tile in interior_rows.chunks(TILE_ROWS) {
            for (m, kernel) in self.flat.kernels().iter().enumerate() {
                let chan_base = (m / self.m_per_group) * self.flat.shape().in_channels * plane;
                let out_base = m * out_plane;
                for &orow in tile {
                    let row_base = chan_base + (orow * stride - pad) * in_cols;
                    let out_row = out_base + orow * out_cols;
                    sweep(self.interior_cols.clone(), lanes, |ocol, vec_step| {
                        let base = row_base + ocol * stride - pad;
                        if vec_step {
                            if stride == 1 {
                                kern.gather_unit(
                                    kernel.values(),
                                    kernel.group_bounds(),
                                    kernel.offsets(),
                                    data,
                                    base,
                                    &mut lanebuf,
                                );
                            } else {
                                kern.gather_strided(
                                    kernel.values(),
                                    kernel.group_bounds(),
                                    kernel.offsets(),
                                    data,
                                    base,
                                    stride,
                                    &mut lanebuf,
                                );
                            }
                            out_data[out_row + ocol..out_row + ocol + lanes]
                                .copy_from_slice(&lanebuf[..lanes]);
                        } else {
                            out_data[out_row + ocol] = gather_one(
                                kernel.values(),
                                kernel.group_bounds(),
                                kernel.offsets(),
                                data,
                                base,
                                &mut partials,
                            );
                        }
                    });
                }
            }
        }
        out
    }

    /// The selection one call will actually run: the certified narrow
    /// dispatch when the input honors the certificate's assumed
    /// interval, the worst-case fallback otherwise. Uncertified layers
    /// (and certified layers whose dispatch did not narrow) skip the
    /// scan entirely.
    fn guarded_selection(&self, input: &Tensor3<i16>) -> Selection {
        let Some(cert) = &self.cert else {
            return self.sel;
        };
        if self.sel == self.fallback_sel {
            return self.sel;
        }
        let lo = cert.input.range.lo;
        let hi = cert.input.range.hi;
        if input
            .as_slice()
            .iter()
            .all(|&x| lo <= x as i128 && (x as i128) <= hi)
        {
            self.sel
        } else {
            if abm_metrics::enabled() {
                abm_metrics::global().add("abm_range_guard_fallback_total", 1);
            }
            self.fallback_sel
        }
    }

    /// [`execute`](Self::execute) behind a typed shape guard instead of
    /// an assertion — the entry point the resilient inference path
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] if `input`'s shape differs
    /// from the prepared shape.
    pub fn try_execute(&self, input: &Tensor3<i16>) -> Result<Tensor3<i64>, AbmError> {
        let got = input.shape();
        if got != self.in_shape {
            return Err(AbmError::ShapeMismatch {
                got: (got.channels, got.rows, got.cols),
                want: (
                    self.in_shape.channels,
                    self.in_shape.rows,
                    self.in_shape.cols,
                ),
            });
        }
        Ok(self.execute(input))
    }

    /// [`execute`](Self::execute) plus the analytic work counts.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the prepared shape.
    #[must_use]
    pub fn execute_counted(&self, input: &Tensor3<i16>) -> (Tensor3<i64>, AbmWork) {
        (self.execute(input), self.work)
    }

    /// [`execute_counted`](Self::execute_counted) plus the wall-clock
    /// time the execution took — the telemetry hook that lets callers
    /// compare measured host throughput against the analytic
    /// [`AbmWork`] (ops ÷ duration).
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the prepared shape.
    #[must_use]
    pub fn execute_timed(&self, input: &Tensor3<i16>) -> (Tensor3<i64>, AbmWork, Duration) {
        let start = Instant::now();
        let (out, work) = self.execute_counted(input);
        (out, work, start.elapsed())
    }
}

/// Reusable scratch for the halo paths: the kernel's stream filtered to
/// the taps that stay in bounds along one axis, with the surviving
/// coordinate folded into a flat offset. Group boundaries mirror the
/// source kernel's, so `values()` still aligns (a fully-filtered group
/// just contributes a zero partial sum).
#[derive(Debug, Default)]
struct HaloScratch {
    /// Group `g` owns `offsets[starts[g]..starts[g+1]]` (and `taps`
    /// likewise after [`filter_rows`](Self::filter_rows)).
    starts: Vec<u32>,
    offsets: Vec<u32>,
    /// Row-filtered taps with the **absolute** input row stored in `k`
    /// (only the column coordinate still needs checking).
    taps: Vec<Tap>,
}

impl HaloScratch {
    /// Keeps the taps whose input row `pr0 + k` is in bounds; offsets
    /// become `n·plane + pr·in_cols + k'` (column still relative).
    fn filter_rows(
        &mut self,
        kernel: &FlatKernel,
        pr0: isize,
        in_rows: usize,
        plane: usize,
        in_cols: usize,
    ) {
        self.starts.clear();
        self.offsets.clear();
        self.taps.clear();
        self.starts.push(0);
        for (_, taps) in kernel.tap_groups() {
            for &t in taps {
                let pr = pr0 + t.k as isize;
                if pr >= 0 && (pr as usize) < in_rows {
                    let off = t.n as usize * plane + pr as usize * in_cols + t.kp as usize;
                    self.offsets.push(off as u32);
                    self.taps.push(Tap {
                        n: t.n,
                        k: pr as u16,
                        kp: t.kp,
                    });
                }
            }
            self.starts.push(self.offsets.len() as u32);
        }
    }

    /// Keeps the taps whose input column `pc0 + k'` is in bounds; offsets
    /// become `n·plane + k·in_cols + pc` (row still relative).
    fn filter_cols(&mut self, kernel: &FlatKernel, pc0: isize, in_cols: usize, plane: usize) {
        self.starts.clear();
        self.offsets.clear();
        self.taps.clear();
        self.starts.push(0);
        for (_, taps) in kernel.tap_groups() {
            for &t in taps {
                let pc = pc0 + t.kp as isize;
                if pc >= 0 && (pc as usize) < in_cols {
                    let off = t.n as usize * plane + t.k as usize * in_cols + pc as usize;
                    self.offsets.push(off as u32);
                }
            }
            self.starts.push(self.offsets.len() as u32);
        }
    }

    /// One corner pixel (halo row × halo column): the row coordinate was
    /// already validated by [`filter_rows`](Self::filter_rows), so only
    /// the column coordinate is checked per tap.
    fn col_checked_pixel(
        &self,
        values: &[i8],
        data: &[i16],
        chan_base: usize,
        plane: usize,
        in_cols: usize,
        pc0: isize,
    ) -> i64 {
        let mut acc = 0i64;
        for (&v, w) in values.iter().zip(self.starts.windows(2)) {
            let mut p = 0i64;
            for &Tap { n, k, kp } in &self.taps[w[0] as usize..w[1] as usize] {
                let pc = pc0 + kp as isize;
                if pc >= 0 && (pc as usize) < in_cols {
                    p += data[chan_base + n as usize * plane + k as usize * in_cols + pc as usize]
                        as i64;
                }
            }
            acc += v as i64 * p;
        }
        acc
    }
}

/// Sweeps `span` in `lanes`-wide steps (`f(index, true)`). A final
/// partial vector is re-issued as a full vector overlapping the previous
/// one when the span allows — every pixel is a pure function of the
/// input, so recomputing the overlap is bit-identical — and spans
/// narrower than one vector fall back to scalar steps (`f(index,
/// false)`). `lanes` is the dispatched kernel's pixel width
/// ([`AbmKernel::lanes`]).
#[inline]
fn sweep(span: Range<usize>, lanes: usize, mut f: impl FnMut(usize, bool)) {
    let mut i = span.start;
    while i + lanes <= span.end {
        f(i, true);
        i += lanes;
    }
    if i < span.end {
        if span.end - span.start >= lanes {
            f(span.end - lanes, true);
        } else {
            for j in i..span.end {
                f(j, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::{Shape4, Tensor4};

    /// Checks dense == reference == prepared, including bit-identical
    /// work counts between the analytic and per-iteration accounting.
    fn check_equivalence(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) {
        let dense_out = dense::conv2d(input, weights, geom);
        let code = LayerCode::encode(weights).unwrap();
        let (ref_out, ref_work) = reference::conv2d_counted(input, &code, geom).unwrap();
        let prepared = PreparedConv::try_new(&code, input.shape(), geom).unwrap();
        let (out, work) = prepared.execute_counted(input);
        assert_eq!(dense_out, ref_out);
        assert_eq!(ref_out, out);
        assert_eq!(ref_work, work, "analytic work != counted work");
        assert_eq!(prepared.output_shape(), out.shape());
    }

    fn pseudo_weights(shape: Shape4, modulus: usize) -> Tensor4<i8> {
        Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 131 + n * 31 + k * 7 + kp * 3) % modulus;
            if x < modulus / 2 {
                0
            } else {
                (x as i8) - (modulus / 2) as i8
            }
        })
    }

    fn pseudo_input(shape: Shape3) -> Tensor3<i16> {
        Tensor3::from_fn(shape, |c, r, col| {
            ((c * 577 + r * 37 + col * 11) % 255) as i16 - 127
        })
    }

    #[test]
    fn prepared_matches_reference_unpadded() {
        let input = pseudo_input(Shape3::new(3, 9, 9));
        let weights = pseudo_weights(Shape4::new(4, 3, 3, 3), 6);
        check_equivalence(&input, &weights, Geometry::new(1, 0));
    }

    #[test]
    fn prepared_matches_reference_padded() {
        // pad 2 > kernel reach on one side: wide halo on every edge.
        let input = pseudo_input(Shape3::new(2, 7, 7));
        let weights = pseudo_weights(Shape4::new(3, 2, 3, 3), 8);
        for pad in 0..4 {
            check_equivalence(&input, &weights, Geometry::new(1, pad));
        }
    }

    #[test]
    fn prepared_matches_reference_strided() {
        let input = pseudo_input(Shape3::new(3, 11, 11));
        let weights = pseudo_weights(Shape4::new(2, 3, 5, 5), 10);
        for stride in 1..4 {
            for pad in 0..3 {
                check_equivalence(&input, &weights, Geometry::new(stride, pad));
            }
        }
    }

    #[test]
    fn prepared_matches_reference_grouped() {
        let input = pseudo_input(Shape3::new(4, 6, 6));
        let weights = pseudo_weights(Shape4::new(6, 2, 3, 3), 7);
        check_equivalence(&input, &weights, Geometry::new(1, 1).with_groups(2));
    }

    #[test]
    fn no_interior_at_all() {
        // Kernel spans the whole padded input: every pixel is halo.
        let input = pseudo_input(Shape3::new(1, 3, 3));
        let weights = pseudo_weights(Shape4::new(2, 1, 5, 5), 9);
        check_equivalence(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    fn non_square_kernels() {
        let input = pseudo_input(Shape3::new(2, 8, 6));
        let weights = Tensor4::from_fn(Shape4::new(2, 2, 3, 2), |m, n, k, kp| {
            (((m + 2 * n + 3 * k + kp) % 5) as i8) - 2
        });
        check_equivalence(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    fn fc_layer_is_all_interior() {
        let input = pseudo_input(Shape3::new(24, 1, 1));
        let weights = pseudo_weights(Shape4::new(5, 24, 1, 1), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let prepared = PreparedConv::try_new(&code, input.shape(), Geometry::unit()).unwrap();
        assert_eq!(prepared.interior_rows, 0..1);
        assert_eq!(prepared.interior_cols, 0..1);
        check_equivalence(&input, &weights, Geometry::unit());
    }

    #[test]
    fn all_zero_layer_is_free() {
        let input = pseudo_input(Shape3::new(1, 4, 4));
        let weights = Tensor4::<i8>::zeros(Shape4::new(2, 1, 3, 3));
        let code = LayerCode::encode(&weights).unwrap();
        let (out, work) = conv2d_counted(&input, &code, Geometry::new(1, 1)).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0));
        assert_eq!(work.total(), 0);
    }

    #[test]
    fn analytic_work_formula() {
        let input = pseudo_input(Shape3::new(1, 3, 3));
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![3i8, 3, -1, 0]);
        let code = LayerCode::encode(&weights).unwrap();
        let (_, work) = conv2d_counted(&input, &code, Geometry::new(1, 0)).unwrap();
        // 4 output pixels, nnz=3, Q=2 — identical to the reference pins.
        assert_eq!(work.accumulations, 12);
        assert_eq!(work.multiplications, 8);
        assert_eq!(work.final_accumulations, 8);
        assert_eq!(work.total(), 28);
    }

    #[test]
    fn prepared_is_reusable_across_inputs() {
        let shape = Shape3::new(2, 6, 6);
        let weights = pseudo_weights(Shape4::new(3, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let geom = Geometry::new(1, 1);
        let prepared = PreparedConv::try_new(&code, shape, geom).unwrap();
        for salt in 0..3 {
            let input = Tensor3::from_fn(shape, |c, r, col| {
                ((c * 97 + r * 13 + col * 5 + salt * 41) % 200) as i16 - 100
            });
            assert_eq!(
                prepared.execute(&input),
                dense::conv2d(&input, &weights, geom)
            );
        }
    }

    /// A certified prepare narrows the dispatch under its assumed
    /// range, stays bit-identical to the worst-case prepare on
    /// in-range inputs, and the runtime guard demotes out-of-range
    /// inputs to the worst-case fallback — still bit-identical.
    #[test]
    fn certified_dispatch_is_bit_identical_and_guarded() {
        let shape = Shape3::new(2, 24, 24);
        let weights = pseudo_weights(Shape4::new(3, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let geom = Geometry::new(1, 1);
        let plain = PreparedConv::try_new(&code, shape, geom).unwrap();
        let certified = PreparedConv::try_new_certified(
            &code,
            shape,
            geom,
            None,
            Some(abm_verify::AbsVal::i8_features()),
        )
        .unwrap();
        let cert = certified.certificate().expect("certificate attached");
        assert!(cert
            .validate(certified.flat(), &conv_geometry(&certified))
            .is_clean());
        // Small 3×3 groups over 8-bit features certify ≤16-bit stage-1.
        assert!(cert.packable(), "stage1_bits = {}", cert.stage1_bits);
        assert_eq!(certified.fallback_selection(), plain.selection());

        // In-range input: certified (possibly packed) path, identical.
        let input = pseudo_input(shape);
        assert_eq!(certified.execute(&input), plain.execute(&input));
        assert_eq!(
            certified.execute(&input),
            reference::conv2d(&input, &code, geom).unwrap()
        );
        // Out-of-range input: the guard demotes to the worst-case
        // dispatch for this call — still exact.
        let hot = Tensor3::from_fn(shape, |c, r, col| {
            if (c + r + col) % 2 == 0 {
                32767
            } else {
                -32768
            }
        });
        assert_eq!(certified.execute(&hot), plain.execute(&hot));
    }

    /// Re-derives the verifier geometry for a prepared layer (test
    /// glue mirroring `verify_against`).
    fn conv_geometry(p: &PreparedConv) -> abm_verify::ConvGeometry {
        let layout = p.flat().layout();
        abm_verify::ConvGeometry {
            in_channels: p.input_shape().channels,
            in_rows: layout.in_rows,
            in_cols: layout.in_cols,
            stride: layout.stride,
            pad: layout.pad,
            groups: p.geometry().groups,
            out_rows: p.output_shape().rows,
            out_cols: p.output_shape().cols,
            interior_rows: (p.interior_rows.start, p.interior_rows.end),
            interior_cols: (p.interior_cols.start, p.interior_cols.end),
        }
    }

    #[test]
    fn invalid_grouping_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(2, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(3, 1, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0).with_groups(2)).unwrap_err();
        assert_eq!(
            err,
            AbmError::BadGrouping {
                groups: 2,
                out_channels: 3
            }
        );
    }

    #[test]
    fn channel_mismatch_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(3, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(2, 2, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0)).unwrap_err();
        assert_eq!(
            err,
            AbmError::ChannelMismatch {
                input_channels: 3,
                expected: 2
            }
        );
    }

    #[test]
    fn wrong_input_shape_is_typed_error() {
        let w = Tensor4::<i8>::zeros(Shape4::new(1, 1, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let prepared =
            PreparedConv::try_new(&code, Shape3::new(1, 4, 4), Geometry::unit()).unwrap();
        let err = prepared
            .try_execute(&Tensor3::<i16>::zeros(Shape3::new(1, 5, 5)))
            .unwrap_err();
        assert_eq!(
            err,
            AbmError::ShapeMismatch {
                got: (1, 5, 5),
                want: (1, 4, 4)
            }
        );
    }

    #[test]
    fn checksum_guard_catches_post_load_flip() {
        let weights = pseudo_weights(Shape4::new(2, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let prepared =
            PreparedConv::try_new(&code, Shape3::new(2, 6, 6), Geometry::new(1, 1)).unwrap();
        assert!(prepared.verify_checksum().is_ok());
        // Flip one offset bit post-load, keeping the golden checksum.
        let flat = prepared.flat().clone();
        let k = &flat.kernels()[0];
        let mut offsets = k.offsets().to_vec();
        offsets[0] ^= 1 << 3;
        let corrupted_kernel = abm_sparse::FlatKernel::from_raw_parts(
            k.values().to_vec(),
            k.group_bounds().to_vec(),
            offsets,
            k.taps().to_vec(),
        );
        let mut kernels: Vec<abm_sparse::FlatKernel> = flat.kernels().to_vec();
        kernels[0] = corrupted_kernel;
        let corrupted = FlatCode::from_kernels(flat.shape(), flat.layout(), kernels);
        let poisoned = prepared.clone().with_flat(corrupted);
        let err = poisoned.verify_checksum().unwrap_err();
        assert!(matches!(err, AbmError::ChecksumMismatch { .. }));
    }

    #[test]
    fn try_from_flat_rejects_corrupt_streams() {
        let weights = pseudo_weights(Shape4::new(2, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let in_shape = Shape3::new(2, 6, 6);
        let geom = Geometry::new(1, 1);
        let pristine = PreparedConv::try_new(&code, in_shape, geom).unwrap();
        // The pristine streams load fine through the validated path.
        let reloaded =
            PreparedConv::try_from_flat(pristine.flat().clone(), in_shape, geom).unwrap();
        assert_eq!(reloaded, pristine);
        // A pre-load offset corruption is rejected at the door.
        let flat = pristine.flat();
        let k = &flat.kernels()[1];
        let mut offsets = k.offsets().to_vec();
        offsets[2] ^= 1 << 7;
        let mut kernels: Vec<abm_sparse::FlatKernel> = flat.kernels().to_vec();
        kernels[1] = abm_sparse::FlatKernel::from_raw_parts(
            k.values().to_vec(),
            k.group_bounds().to_vec(),
            offsets,
            k.taps().to_vec(),
        );
        let bad = FlatCode::from_kernels(flat.shape(), flat.layout(), kernels);
        let err = PreparedConv::try_from_flat(bad, in_shape, geom).unwrap_err();
        assert!(
            matches!(err, AbmError::CodeCorrupt { kernel: 1, .. }),
            "{err}"
        );
    }
}
