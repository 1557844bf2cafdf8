//! Workload preparation and computation-task generation (Figure 3).
//!
//! A **computation task** is "a group of convolution operations performed
//! on a prefetch window of the input feature map": one batch of up to
//! `N_knl` kernels applied to one window. Windows are row-strips of the
//! output feature map sized so their input footprint fits the feature
//! buffer (`D_f` words of `8·S_ec` bits).

use crate::config::AcceleratorConfig;
use crate::lane;
use crate::parallel::{pure_map, Parallelism};
use abm_model::SparseLayer;
use abm_sparse::{EncodeError, FlatCode, FlatLayout, LayerCode};

/// One accelerated layer prepared for simulation.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Layer name.
    pub name: String,
    /// Encoded weights (the memory/footprint model reads this).
    pub code: LayerCode,
    /// Flat-lowered form of `code` — the same prepared stream the
    /// functional hot path executes; the lane timing walks this one.
    pub flat: FlatCode,
    /// Output channels `M`.
    pub out_channels: usize,
    /// Output rows `R'`.
    pub out_rows: usize,
    /// Output cols `C'`.
    pub out_cols: usize,
    /// Input channels (all groups).
    pub in_channels: usize,
    /// Input cols `C` (pre-padding).
    pub in_cols: usize,
    /// Kernel size `K`.
    pub kernel: usize,
    /// Stride `S`.
    pub stride: usize,
    /// Whether this is a fully-connected layer (vectorized over an
    /// `S_ec`-image batch instead of output pixels).
    pub is_fc: bool,
    /// Dense op count (the Table 2 throughput numerator).
    pub dense_ops: u64,
    /// Host kernel variant the functional engine would dispatch this
    /// layer to (same `select_auto` the prepared hot path runs, fed by
    /// the layer's *certified* stage-1 width below). Purely descriptive
    /// on the timing side — recorded into telemetry so simulated and
    /// host traces agree on which variant executes the stream.
    pub host_sel: abm_kernel::Selection,
    /// The layer's range certificate (summary form): proven stage-1 /
    /// stage-2 accumulator intervals and bit-widths under the
    /// accelerator's 8-bit feature regime, as computed by
    /// `abm_verify::certify_layer` against this workload's lowering
    /// geometry. Recorded so the simulated datapath widths are the
    /// proven ones, not the worst-case model's.
    pub cert: abm_verify::CertSummary,
}

impl Workload {
    /// Prepares a sparse layer for simulation.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the weights cannot be encoded.
    pub fn from_layer(layer: &SparseLayer) -> Result<Self, EncodeError> {
        let code = LayerCode::encode(&layer.weights)?;
        let out = layer.layer.output_shape;
        let input = layer.layer.input_shape;
        let w = layer.weights.shape();
        let is_fc = matches!(
            layer.layer.layer.kind,
            abm_model::LayerKind::FullyConnected(_)
        );
        // The simulator times the exact stream the functional engine
        // runs: the flat lowering against the layer's real input plane
        // (FC layers run as 1x1 convolutions over the flattened input).
        let layout = if is_fc {
            FlatLayout {
                in_rows: 1,
                in_cols: 1,
                stride: 1,
                pad: 0,
            }
        } else {
            FlatLayout {
                in_rows: input.rows,
                in_cols: input.cols,
                stride: layer.stride(),
                pad: layer.pad(),
            }
        };
        let flat = FlatCode::lower(&code, layout)?;
        // Certify the layer's accumulator ranges by abstract
        // interpretation over the accelerator's 8-bit feature regime
        // (the hardware streams 8-bit features; the host engine's i16
        // activations are guarded at dispatch on the functional side).
        // The certified stage-1 width — not the worst-case model — then
        // drives the same dispatch decision the functional engine makes
        // at `PreparedConv` construction: pick the widest ISA the
        // layer's sweep can fill, including the packed dual-lane i16
        // path when the proof admits it. A bad `ABM_FORCE_ISA` pin
        // falls back to scalar here rather than erroring — the
        // functional path is the authoritative gate for rejecting
        // unavailable pins.
        let geometry =
            crate::verify::lowered_geometry(&flat, is_fc, input.channels, out.rows, out.cols);
        let cert = abm_verify::certify_layer(
            layer.name(),
            &flat,
            &geometry,
            abm_verify::AbsVal::i8_features(),
        );
        let host_sel =
            abm_kernel::select_auto(None, cert.stage1_bits, layout.stride == 1, out.cols)
                // The scalar port always runs the i64 accumulator and
                // is compiled on every target, so it is the total
                // fallback when an env pin names an unavailable ISA.
                .unwrap_or(abm_kernel::Selection {
                    isa: abm_kernel::Isa::Scalar,
                    acc: abm_kernel::AccWidth::I64,
                });
        let workload = Self {
            name: layer.name().to_string(),
            code,
            flat,
            out_channels: out.channels,
            out_rows: out.rows,
            out_cols: out.cols,
            in_channels: input.channels,
            in_cols: input.cols,
            kernel: w.kernel_rows,
            stride: layer.stride(),
            is_fc,
            dense_ops: layer.layer.dense_ops(),
            host_sel,
            cert: cert.summary(),
        };
        // Debug builds prove the lowering before the simulator times it
        // (same gate as PreparedConv's constructor on the functional
        // side); release builds rely on `cargo xtask verify`.
        #[cfg(debug_assertions)]
        {
            let report = crate::verify::verify_workload_lowering(
                &workload,
                AcceleratorConfig::default().acc_bits,
            );
            debug_assert!(
                report.is_clean(),
                "workload lowering failed static verification:\n{report}"
            );
        }
        Ok(workload)
    }

    /// Vector sweeps needed to cover `rows` output rows: the address
    /// generator packs the `S_ec`-wide vector across the whole window in
    /// row-major order (`ceil(rows·C'/S_ec)`), so narrow layers do not
    /// strand vector lanes. FC layers always run one sweep (the vector
    /// dimension is the `S_ec`-image batch).
    pub fn vectors_per_window(&self, cfg: &AcceleratorConfig, rows: usize) -> u64 {
        if self.is_fc {
            1
        } else {
            ((rows * self.out_cols) as u64).div_ceil(cfg.s_ec as u64)
        }
    }

    /// Number of prefetch windows: output rows are grouped so the input
    /// rows they need fit the feature buffer (at least one row per
    /// window; FC layers use a single window).
    ///
    /// Two refinements over the naive buffer division:
    ///
    /// * windows never shrink below ~8 vector sweeps of output pixels,
    ///   so vector packing stays efficient on narrow deep layers (when
    ///   the window's input footprint then exceeds `D_f`, the fetch unit
    ///   streams it as channel slices — accumulation is channel-serial,
    ///   so timing is unaffected);
    /// * windows never exceed the layer's row count.
    pub fn rows_per_window(&self, cfg: &AcceleratorConfig) -> usize {
        if self.is_fc {
            return 1;
        }
        let buffer_pixels = (cfg.d_f * cfg.s_ec) as u64;
        let row_pixels = (self.in_channels * self.in_cols) as u64;
        if row_pixels == 0 {
            return self.out_rows.max(1);
        }
        let in_rows = (buffer_pixels / row_pixels) as usize;
        let overlap = self.kernel.saturating_sub(self.stride);
        let rows = in_rows.saturating_sub(overlap) / self.stride.max(1);
        let min_rows = (8 * cfg.s_ec).div_ceil(self.out_cols.max(1));
        rows.max(min_rows).clamp(1, self.out_rows.max(1))
    }

    /// Number of prefetch windows for this layer.
    pub fn window_count(&self, cfg: &AcceleratorConfig) -> usize {
        if self.is_fc {
            1
        } else {
            self.out_rows.div_ceil(self.rows_per_window(cfg)).max(1)
        }
    }

    /// Kernel batches per window (`ceil(M / N_knl)`).
    pub fn batches(&self, cfg: &AcceleratorConfig) -> usize {
        self.out_channels.div_ceil(cfg.n_knl)
    }

    /// Per-kernel lane cost (cycles) for a window of `rows` output rows,
    /// computed from the encoded stream (index `m` = kernel id).
    pub fn kernel_window_cycles(&self, cfg: &AcceleratorConfig, rows: usize) -> Vec<u64> {
        self.kernel_window_cycles_with(cfg, rows, Parallelism::Serial)
    }

    /// [`kernel_window_cycles`](Self::kernel_window_cycles) with the
    /// per-kernel timing recurrences fanned out across host threads —
    /// each simulated CU lane's cost is an independent function of its
    /// encoded kernel, so this is a pure map and the result is
    /// bit-identical for every `parallelism` setting.
    pub fn kernel_window_cycles_with(
        &self,
        cfg: &AcceleratorConfig,
        rows: usize,
        parallelism: Parallelism,
    ) -> Vec<u64> {
        let vectors = self.vectors_per_window(cfg, rows);
        pure_map(parallelism, self.flat.kernels(), |k| {
            lane::lane_cycles_flat(k, vectors, cfg.n as u64, cfg.fifo_depth)
        })
    }

    /// Task cycle costs for one window: one entry per kernel batch; the
    /// batch cost is the slowest lane (a CU finishes a task when all its
    /// lanes have), plus the task overhead.
    ///
    /// With [`AcceleratorConfig::sort_kernels_by_load`] the encoder
    /// orders kernels by workload first, so batch mates have similar
    /// costs and the per-batch maximum stays close to the mean.
    pub fn window_task_cycles(&self, cfg: &AcceleratorConfig, rows: usize) -> Vec<u64> {
        self.window_task_cycles_with(cfg, rows, Parallelism::Serial)
    }

    /// [`window_task_cycles`](Self::window_task_cycles) with the
    /// per-kernel timing computed in parallel (see
    /// [`kernel_window_cycles_with`](Self::kernel_window_cycles_with)).
    pub fn window_task_cycles_with(
        &self,
        cfg: &AcceleratorConfig,
        rows: usize,
        parallelism: Parallelism,
    ) -> Vec<u64> {
        let mut per_kernel = self.kernel_window_cycles_with(cfg, rows, parallelism);
        if cfg.sort_kernels_by_load {
            per_kernel.sort_unstable_by(|a, b| b.cmp(a));
        }
        per_kernel
            .chunks(cfg.n_knl)
            .map(|batch| batch.iter().copied().max().unwrap_or(0) + cfg.task_overhead)
            .collect()
    }

    /// Useful lane cycles in one window (for utilization accounting):
    /// the sum over kernels instead of the per-batch max.
    pub fn window_useful_cycles(&self, cfg: &AcceleratorConfig, rows: usize) -> u64 {
        self.kernel_window_cycles(cfg, rows).iter().sum()
    }

    /// Bottleneck profile of the layer's kernels under `cfg`: per-vector
    /// FIFO-stall cycles summed over kernels, and the number of kernels
    /// whose steady state is multiplier-bound (`Q·N > nnz + stalls`) —
    /// the population that makes `N` larger than the Acc/Mult ratio
    /// expensive.
    pub fn bottleneck_profile(&self, cfg: &AcceleratorConfig) -> BottleneckProfile {
        let mut profile = BottleneckProfile::default();
        for kernel in self.flat.kernels() {
            if kernel.total() == 0 {
                continue;
            }
            let v = crate::lane::vector_cycles_flat(kernel, cfg.n as u64, cfg.fifo_depth);
            profile.stall_cycles_per_vector += v.acc_stall;
            let mult_occupancy = kernel.distinct() as u64 * cfg.n as u64;
            if mult_occupancy > v.acc_total() {
                profile.mult_bound_kernels += 1;
            }
            profile.kernels += 1;
        }
        profile
    }
}

/// Aggregated per-layer bottleneck statistics (see
/// [`Workload::bottleneck_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BottleneckProfile {
    /// FIFO-stall cycles per vector sweep, summed over kernels.
    pub stall_cycles_per_vector: u64,
    /// Kernels whose lane is multiplier-bound in steady state.
    pub mult_bound_kernels: usize,
    /// Non-empty kernels inspected.
    pub kernels: usize,
}

impl BottleneckProfile {
    /// Fraction of kernels that are multiplier-bound.
    pub fn mult_bound_fraction(&self) -> f64 {
        if self.kernels == 0 {
            0.0
        } else {
            self.mult_bound_kernels as f64 / self.kernels as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn workload(name: &str) -> Workload {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
        let model = synthesize_model(&net, &profile, 42);
        Workload::from_layer(model.layer(name).unwrap()).unwrap()
    }

    #[test]
    fn conv_workload_geometry() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("CONV1");
        assert_eq!(w.out_rows, 32);
        assert_eq!(w.out_cols, 32);
        assert_eq!(w.out_channels, 16);
        assert!(!w.is_fc);
        // Vectors pack across the window: 32 rows x 32 cols / 20 lanes.
        let rows = w.rows_per_window(&cfg);
        assert_eq!(
            w.vectors_per_window(&cfg, rows),
            ((rows * 32) as u64).div_ceil(20)
        );
        assert_eq!(w.batches(&cfg), 2); // ceil(16/14)
                                        // Tiny input: everything fits one window.
        assert_eq!(w.window_count(&cfg), 1);
    }

    #[test]
    fn fc_workload_geometry() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("FC3");
        assert!(w.is_fc);
        assert_eq!(w.vectors_per_window(&cfg, 1), 1);
        assert_eq!(w.window_count(&cfg), 1);
        assert_eq!(w.batches(&cfg), 5); // ceil(64/14)
    }

    #[test]
    fn workload_records_certified_widths() {
        for name in ["CONV1", "CONV2", "FC3"] {
            let w = workload(name);
            assert_eq!(w.cert.layer, w.name);
            // The certificate is proven against the 8-bit feature
            // regime; the worst-case model assumes full-scale i16
            // activations, so the certified stage-1 width must be
            // strictly tighter, and the recorded dispatch must be the
            // one the certified width selects.
            let worst = abm_verify::AccumulatorModel::host().stage1_required_bits(&w.flat);
            assert!(
                w.cert.stage1_bits < worst,
                "{name}: certified {} !< worst-case {worst}",
                w.cert.stage1_bits
            );
            let sel = abm_kernel::select_auto(
                None,
                w.cert.stage1_bits,
                w.flat.layout().stride == 1,
                w.out_cols,
            )
            .unwrap();
            assert_eq!(w.host_sel, sel, "{name}");
        }
    }

    #[test]
    fn windows_shrink_with_small_buffers() {
        let mut cfg = AcceleratorConfig::paper();
        let w = workload("CONV2"); // input 16x16x16, output 16x16
        let one_window = w.window_count(&cfg);
        assert_eq!(one_window, 1);
        cfg.d_f = 16; // 16*20 = 320 pixels: ~1 input row of 16*16
        let many = w.window_count(&cfg);
        assert!(
            many > one_window,
            "tiny buffer must force more windows: {many}"
        );
        // The packing floor keeps windows at >= 8 vector sweeps even
        // when the buffer would allow less.
        let rows = w.rows_per_window(&cfg);
        assert_eq!(rows, (8 * cfg.s_ec).div_ceil(16));
    }

    #[test]
    fn task_costs_cover_all_kernels() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("CONV1");
        let tasks = w.window_task_cycles(&cfg, w.rows_per_window(&cfg));
        assert_eq!(tasks.len(), w.batches(&cfg));
        assert!(tasks.iter().all(|&t| t > 0));
        // Batch cost (max lane * rows) >= per-lane useful share.
        let useful = w.window_useful_cycles(&cfg, w.rows_per_window(&cfg));
        let paid: u64 = tasks
            .iter()
            .map(|t| (t - cfg.task_overhead) * cfg.n_knl as u64)
            .sum();
        assert!(paid >= useful);
    }
}
