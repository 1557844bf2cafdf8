//! Algorithm-based fault tolerance (ABFT) checks for the ABM executor.
//!
//! The classic ABFT idea for convolution: the sum of an output plane is
//! a *linear* functional of the input, so it can be predicted
//! independently of the executor from the weights and cheap input
//! aggregates. For kernel `m`,
//!
//! ```text
//! Σ_pixels out[m] = Σ_groups v_g · Σ_{taps t ∈ g} S(t)
//! ```
//!
//! where `S(t)` is the sum of the input values the tap `t` touches
//! across all output pixels — a rectangle of a stride-phased subgrid of
//! the tap's input channel. [`verify_output`] first tabulates `S` for
//! every (input channel, kernel row, kernel column), one rectangle
//! query each over 2-D prefix sums of the channel's stride-phased
//! subgrids. Each tap of the prediction is then one indexed load and an
//! add, and the multiply is paid once per value group: the same
//! accumulate-then-multiply shape as the ABM scheme itself. The check
//! costs `O(C·H·W + C·K·K')` to build the table plus `O(taps + out)` per
//! layer. That is far below a convolution layer, which reuses every tap
//! at each output pixel; on an FC layer, which reads each tap once per
//! image, it is of the same order as the layer.
//!
//! Because the predicted sum is exact integer arithmetic (accumulators
//! stay well inside `i64`), *any* single-bit flip in an output
//! accumulator changes the observed plane sum and is detected; this is
//! the software analogue of the checksum-augmented output rows ABFT
//! schemes add to hardware MAC arrays.
//!
//! The module also carries the input-stream checksum helpers used by
//! the fault campaign to detect FI-Buffer corruption (a word flipped
//! between DDR admit and CU consume).

use crate::abm::PreparedConv;
use crate::dense::Geometry;
use abm_fault::{stream_checksum_i16, AbmError};
use abm_tensor::{Shape3, Tensor3};

/// Word-lane digest of an input feature map — the "admit-side"
/// signature the campaign compares against the consume-side stream to
/// catch FI-Buffer word flips.
#[must_use]
pub fn input_checksum(input: &Tensor3<i16>) -> u64 {
    stream_checksum_i16(input.as_slice())
}

/// Compares an input feature map against its admit-side checksum.
///
/// # Errors
///
/// Returns [`AbmError::InputCorrupt`] when the digests differ.
pub fn verify_input(input: &Tensor3<i16>, expected: u64) -> Result<(), AbmError> {
    let computed = input_checksum(input);
    if computed == expected {
        Ok(())
    } else {
        Err(AbmError::InputCorrupt { expected, computed })
    }
}

/// Checks every output plane's sum against its ABFT prediction.
///
/// `input` and `out` must be the tensors the prepared layer consumed
/// and produced; shapes are checked first.
///
/// # Errors
///
/// Returns [`AbmError::ShapeMismatch`] if the tensors do not match the
/// prepared geometry, or [`AbmError::AbftMismatch`] naming the first
/// kernel whose observed plane sum disagrees with the prediction.
pub fn verify_output(
    prep: &PreparedConv,
    input: &Tensor3<i16>,
    out: &Tensor3<i64>,
) -> Result<(), AbmError> {
    if input.shape() != prep.input_shape() {
        return Err(AbmError::ShapeMismatch {
            got: (
                input.shape().channels,
                input.shape().rows,
                input.shape().cols,
            ),
            want: (
                prep.input_shape().channels,
                prep.input_shape().rows,
                prep.input_shape().cols,
            ),
        });
    }
    if out.shape() != prep.output_shape() {
        return Err(AbmError::ShapeMismatch {
            got: (out.shape().channels, out.shape().rows, out.shape().cols),
            want: (
                prep.output_shape().channels,
                prep.output_shape().rows,
                prep.output_shape().cols,
            ),
        });
    }

    let out_plane = prep.output_shape().rows * prep.output_shape().cols;
    let out_data = out.as_slice();
    for (m, predicted) in predicted_sums(prep, input).into_iter().enumerate() {
        let observed: i64 = out_data[m * out_plane..(m + 1) * out_plane].iter().sum();
        if observed != predicted {
            return Err(AbmError::AbftMismatch {
                kernel: m,
                predicted,
                observed,
            });
        }
    }
    Ok(())
}

/// The predicted plane sum of every output channel:
/// `Σ_groups v_g · Σ_{taps t ∈ g} S(t)`, one table load per tap.
fn predicted_sums(prep: &PreparedConv, input: &Tensor3<i16>) -> Vec<i64> {
    let flat = prep.flat();
    let shape = flat.shape();
    let (kr, kc) = (shape.kernel_rows, shape.kernel_cols);
    let sums = tap_sums(input, prep.geometry(), kr, kc, prep.output_shape());
    // One group's slice of the table covers exactly its kernels' taps.
    let volume = shape.in_channels * kr * kc;
    let m_per_group = shape.out_channels / prep.geometry().groups;
    flat.kernels()
        .iter()
        .enumerate()
        .map(|(m, kernel)| {
            let table = sums.get((m / m_per_group) * volume..).unwrap_or(&[]);
            kernel
                .tap_groups()
                .map(|(value, taps)| {
                    // A tap outside the kernel volume only exists in a
                    // corrupted stream (which the code checksum catches
                    // first); it predicts 0 rather than panicking.
                    let tap_sum: i64 = taps
                        .iter()
                        .map(|t| {
                            let i = (t.n as usize * kr + t.k as usize) * kc + t.kp as usize;
                            table.get(i).copied().unwrap_or(0)
                        })
                        .sum();
                    value as i64 * tap_sum
                })
                .sum()
        })
        .collect()
}

/// `S[c][k][kp]` for every input channel `c` and kernel position
/// `(k, kp)`, flattened row-major: the sum of
/// `input[c, orow·s + k − pad, ocol·s + kp − pad]` over all output
/// pixels, where out-of-bounds reads are the padding zeros.
///
/// Each entry is one rectangle query over a 2-D prefix table of a
/// stride-phased subgrid of channel `c`. The `s²` phase tables of one
/// channel share a single scratch buffer, reused channel by channel.
fn tap_sums(
    input: &Tensor3<i16>,
    geom: Geometry,
    kernel_rows: usize,
    kernel_cols: usize,
    out: Shape3,
) -> Vec<i64> {
    let shape = input.shape();
    let s = geom.stride;
    let pad = geom.pad as isize;
    let rows: Vec<_> = (0..kernel_rows)
        .map(|k| span(k as isize - pad, s, shape.rows, out.rows))
        .collect();
    let cols: Vec<_> = (0..kernel_cols)
        .map(|kp| span(kp as isize - pad, s, shape.cols, out.cols))
        .collect();
    // Subgrid length along an axis of `dim` positions for `phase`.
    let grid = |dim: usize, phase: usize| dim.saturating_sub(phase).div_ceil(s);
    // Phase (a, b)'s table is (grid(rows, a) + 1) × pitch[b], row-major,
    // starting at start[a·s + b]; row 0 and column 0 stay zero.
    let pitch: Vec<usize> = (0..s).map(|b| grid(shape.cols, b) + 1).collect();
    let mut start = Vec::with_capacity(s * s);
    let mut len = 0;
    for a in 0..s {
        for &p in &pitch {
            start.push(len);
            len += (grid(shape.rows, a) + 1) * p;
        }
    }
    let mut prefix = vec![0i64; len];
    let plane = shape.rows * shape.cols;
    let data = input.as_slice();
    let mut sums = Vec::with_capacity(shape.channels * kernel_rows * kernel_cols);
    for c in 0..shape.channels {
        let chan = &data[c * plane..(c + 1) * plane];
        for a in 0..s {
            for (b, &w) in pitch.iter().enumerate() {
                let p = &mut prefix[start[a * s + b]..];
                for i in 0..grid(shape.rows, a) {
                    let row = &chan[(a + i * s) * shape.cols..];
                    for j in 0..w - 1 {
                        p[(i + 1) * w + j + 1] =
                            row[b + j * s] as i64 + p[i * w + j + 1] + p[(i + 1) * w + j]
                                - p[i * w + j];
                    }
                }
            }
        }
        for r in &rows {
            for col in &cols {
                let (Some((a, i_lo, i_hi)), Some((b, j_lo, j_hi))) = (*r, *col) else {
                    sums.push(0);
                    continue;
                };
                let w = pitch[b];
                let p = &prefix[start[a * s + b]..];
                let at = |i: usize, j: usize| p[i * w + j];
                sums.push(
                    at(i_hi + 1, j_hi + 1) - at(i_lo, j_hi + 1) - at(i_hi + 1, j_lo)
                        + at(i_lo, j_lo),
                );
            }
        }
    }
    sums
}

/// The phase `d mod s` and inclusive subgrid-index range `[i_lo, i_hi]`
/// a tap displaced `d` covers along one axis, or `None` when no output
/// position lands the tap inside the input.
fn span(d: isize, s: usize, in_dim: usize, out_dim: usize) -> Option<(usize, usize, usize)> {
    let si = s as isize;
    // Smallest output index whose tapped input position is >= 0.
    let o_min = ((-d).max(0) as usize).div_ceil(s) as isize;
    // Largest output index whose tapped input position fits the input.
    let top = in_dim as isize - 1 - d;
    if top < 0 {
        return None;
    }
    let o_max = (top / si).min(out_dim as isize - 1);
    if o_max < o_min {
        return None;
    }
    // Subgrid index: with d = q·s + phase, position o maps to o + q.
    let a = d.rem_euclid(si);
    let q = (d - a) / si;
    Some((a as usize, (o_min + q) as usize, (o_max + q) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_fault::SplitMix64;
    use abm_sparse::LayerCode;
    use abm_tensor::{Shape4, Tensor4};
    use proptest::prelude::*;

    fn weights(shape: Shape4, salt: usize) -> Tensor4<i8> {
        Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 13 + n * 7 + k * 5 + kp * 3 + salt) % 5;
            if x == 0 {
                0
            } else {
                x as i8 - 2
            }
        })
    }

    fn check(in_shape: Shape3, w_shape: Shape4, geom: Geometry, salt: usize) {
        let w = weights(w_shape, salt);
        let code = LayerCode::encode(&w).unwrap();
        let prep = PreparedConv::try_new(&code, in_shape, geom).unwrap();
        let input = Tensor3::from_fn(in_shape, |c, r, col| {
            (((c * 31 + r * 17 + col * 3 + salt) % 255) as i16) - 127
        });
        let out = prep.execute(&input);
        verify_output(&prep, &input, &out).unwrap();
    }

    #[test]
    fn prediction_matches_execution() {
        check(
            Shape3::new(3, 8, 8),
            Shape4::new(4, 3, 3, 3),
            Geometry::new(1, 1),
            0,
        );
    }

    #[test]
    fn prediction_matches_strided_and_padded() {
        // Stride 2 exercises the phase decomposition; pad 2 with a 5x5
        // kernel exercises taps that fall outside the input for every
        // output position at the borders.
        check(
            Shape3::new(2, 11, 9),
            Shape4::new(3, 2, 5, 5),
            Geometry::new(2, 2),
            1,
        );
        check(
            Shape3::new(1, 7, 7),
            Shape4::new(2, 1, 3, 3),
            Geometry::new(3, 0),
            2,
        );
    }

    #[test]
    fn prediction_matches_grouped() {
        check(
            Shape3::new(4, 6, 6),
            Shape4::new(4, 2, 3, 3),
            Geometry::new(1, 1).with_groups(2),
            3,
        );
    }

    #[test]
    fn every_output_bit_flip_is_detected() {
        let in_shape = Shape3::new(2, 6, 6);
        let w = weights(Shape4::new(2, 2, 3, 3), 4);
        let code = LayerCode::encode(&w).unwrap();
        let prep = PreparedConv::try_new(&code, in_shape, Geometry::new(1, 1)).unwrap();
        let input = Tensor3::from_fn(in_shape, |c, r, col| ((c + r * 3 + col) % 11) as i16 - 5);
        let clean = prep.execute(&input);
        let plane = clean.shape().rows * clean.shape().cols;
        for bit in [0u32, 7, 23, 41, 62] {
            for idx in [0usize, plane + 3] {
                let mut corrupted = clean.clone();
                corrupted.as_mut_slice()[idx] ^= 1i64 << bit;
                let err = verify_output(&prep, &input, &corrupted).unwrap_err();
                let kernel = idx / plane;
                assert!(
                    matches!(err, AbmError::AbftMismatch { kernel: k, .. } if k == kernel),
                    "bit {bit} idx {idx}: {err}"
                );
            }
        }
    }

    /// Brute-force oracle for the predicted plane sums: every output
    /// pixel times every kernel position, read straight from the dense
    /// weights and the unpadded input.
    fn direct_sums(w: &Tensor4<i8>, input: &Tensor3<i16>, geom: Geometry, out: Shape3) -> Vec<i64> {
        let ws = w.shape();
        let is = input.shape();
        let m_per_group = ws.out_channels / geom.groups;
        (0..ws.out_channels)
            .map(|m| {
                let c0 = (m / m_per_group) * ws.in_channels;
                let mut sum = 0i64;
                for orow in 0..out.rows {
                    for ocol in 0..out.cols {
                        for n in 0..ws.in_channels {
                            for k in 0..ws.kernel_rows {
                                for kp in 0..ws.kernel_cols {
                                    let r = (orow * geom.stride + k).checked_sub(geom.pad);
                                    let c = (ocol * geom.stride + kp).checked_sub(geom.pad);
                                    if let (Some(r), Some(c)) = (r, c) {
                                        if r < is.rows && c < is.cols {
                                            sum += w[(m, n, k, kp)] as i64
                                                * input[(c0 + n, r, c)] as i64;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                sum
            })
            .collect()
    }

    /// A random sparse layer (about half the weights zero, full `i8`
    /// value range) and a random full-range input.
    fn random_layer(
        seed: u64,
        in_shape: Shape3,
        w_shape: Shape4,
        geom: Geometry,
    ) -> (Tensor4<i8>, PreparedConv, Tensor3<i16>) {
        let mut rng = SplitMix64::new(seed);
        let w = Tensor4::from_fn(w_shape, |_, _, _, _| {
            if rng.below(2) == 0 {
                0
            } else {
                rng.in_range(1, 255) as i16 as i8
            }
        });
        let code = LayerCode::encode(&w).unwrap();
        let prep = PreparedConv::try_new(&code, in_shape, geom).unwrap();
        let input = Tensor3::from_fn(in_shape, |_, _, _| rng.next_u64() as i16);
        (w, prep, input)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tap-table prediction equals the direct sum over every
        /// stride, padding and grouping the executor supports.
        #[test]
        fn tap_table_matches_direct_sum(
            (stride, pad, groups) in (1usize..5, 0usize..3, 1usize..3),
            (n_per_group, m_per_group, kr, kc) in (1usize..4, 1usize..4, 1usize..8, 1usize..8),
            (extra_rows, extra_cols, seed) in (0usize..9, 0usize..9, any::<u64>()),
        ) {
            let in_shape = Shape3::new(n_per_group * groups, kr + extra_rows, kc + extra_cols);
            let w_shape = Shape4::new(m_per_group * groups, n_per_group, kr, kc);
            let geom = Geometry::new(stride, pad).with_groups(groups);
            let (w, prep, input) = random_layer(seed, in_shape, w_shape, geom);
            let want = direct_sums(&w, &input, geom, prep.output_shape());
            prop_assert_eq!(predicted_sums(&prep, &input), want);
            let out = prep.execute(&input);
            prop_assert!(verify_output(&prep, &input, &out).is_ok());
        }

        /// Fully-connected layers run as 1x1 convolutions over a 1x1
        /// input: one tap-table entry per input feature.
        #[test]
        fn tap_table_matches_direct_sum_fc(
            in_features in 1usize..600,
            out_features in 1usize..6,
            seed in any::<u64>(),
        ) {
            let in_shape = Shape3::new(in_features, 1, 1);
            let w_shape = Shape4::new(out_features, in_features, 1, 1);
            let geom = Geometry::unit();
            let (w, prep, input) = random_layer(seed, in_shape, w_shape, geom);
            let want = direct_sums(&w, &input, geom, prep.output_shape());
            prop_assert_eq!(predicted_sums(&prep, &input), want);
        }
    }

    #[test]
    fn output_bit_flips_are_detected_at_alexnet_scale() {
        // AlexNet CONV1 (11x11, stride 4, full 227x227 input) and FC6
        // (9216 input features), each with a slice of its kernels.
        for (in_shape, w_shape, geom) in [
            (
                Shape3::new(3, 227, 227),
                Shape4::new(8, 3, 11, 11),
                Geometry::new(4, 0),
            ),
            (
                Shape3::new(9216, 1, 1),
                Shape4::new(16, 9216, 1, 1),
                Geometry::unit(),
            ),
        ] {
            let (_, prep, input) = random_layer(2019, in_shape, w_shape, geom);
            let clean = prep.execute(&input);
            verify_output(&prep, &input, &clean).unwrap();
            let plane = clean.shape().rows * clean.shape().cols;
            let mut rng = SplitMix64::new(7);
            for _ in 0..64 {
                let idx = rng.below(clean.len() as u64) as usize;
                let bit = rng.below(63) as u32;
                let mut corrupted = clean.clone();
                corrupted.as_mut_slice()[idx] ^= 1i64 << bit;
                let err = verify_output(&prep, &input, &corrupted).unwrap_err();
                assert!(
                    matches!(err, AbmError::AbftMismatch { kernel, .. } if kernel == idx / plane),
                    "{in_shape:?} idx {idx} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn input_checksum_round_trips() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, r, c| (r * 4 + c) as i16);
        let sum = input_checksum(&input);
        verify_input(&input, sum).unwrap();
        let mut tampered = input.clone();
        tampered.as_mut_slice()[5] ^= 1;
        let err = verify_input(&tampered, sum).unwrap_err();
        assert!(matches!(err, AbmError::InputCorrupt { expected, .. } if expected == sum));
    }
}
