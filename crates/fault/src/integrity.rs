//! Integrity primitives over the lowered code streams: a word-lane
//! stream digest for post-load SEU detection and a structural validator
//! for load-time corruption.
//!
//! Both operate on [`FlatCode`] — the software image of the WT-Buffer
//! (offsets), Q-Table (values and group bounds) and the decoded taps —
//! so they live here, next to [`AbmError`], rather than in `abm-sparse`
//! which must stay free of the fault vocabulary.

use crate::error::AbmError;
use abm_sparse::{FlatCode, Tap};

/// Per-lane multipliers. Each is odd, so `h -> (h ^ w) * P` is a
/// bijection of the lane state for a fixed word and of the word for a
/// fixed state.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xff51_afd7_ed55_8ccd,
];
/// Per-lane initial states.
const LANE_SEED: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
];
/// Per-lane finaliser multipliers (odd, so the finaliser is a bijection).
const FINAL_MUL: [u64; 4] = [
    0xc4ce_b9fe_1a85_ec53,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
];

/// A four-lane, word-at-a-time digest: word `i` of a stream updates
/// lane `i mod 4` as `h = (h ^ w) * P`. The lanes are independent
/// multiply chains (so they overlap in the pipeline, unlike a
/// byte-serial hash), and each stream's length is absorbed as its word
/// 0, so words cannot slide across a stream boundary unnoticed.
///
/// Every step and every finaliser is a bijection of its lane, and the
/// lanes are combined by XOR: a change confined to one word changes
/// exactly one lane's final state and therefore the digest. Any single
/// bit flip is caught, not just with high probability.
struct WordDigest {
    lanes: [u64; 4],
}

#[inline(always)]
fn step(h: u64, w: u64, lane: usize) -> u64 {
    (h ^ w).wrapping_mul(LANE_MUL[lane])
}

impl WordDigest {
    fn new() -> Self {
        Self { lanes: LANE_SEED }
    }

    /// Absorbs one stream of `len` elements packed into `words`.
    #[inline]
    fn stream(&mut self, len: usize, mut words: impl Iterator<Item = u64>) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        a = step(a, len as u64, 0);
        while let Some(w) = words.next() {
            b = step(b, w, 1);
            let Some(w) = words.next() else { break };
            c = step(c, w, 2);
            let Some(w) = words.next() else { break };
            d = step(d, w, 3);
            let Some(w) = words.next() else { break };
            a = step(a, w, 0);
        }
        self.lanes = [a, b, c, d];
    }

    fn finish(&self) -> u64 {
        self.lanes.iter().enumerate().fold(0, |acc, (lane, &h)| {
            let h = (h ^ h >> 33).wrapping_mul(FINAL_MUL[lane]);
            acc ^ (h ^ h >> 29).rotate_left(16 * lane as u32)
        })
    }
}

/// Packs `fields` of `bits` bits each, little-endian, into one word; a
/// short tail chunk leaves the high bits zero.
#[inline(always)]
fn pack(fields: impl Iterator<Item = u64>, bits: usize) -> u64 {
    fields
        .enumerate()
        .fold(0, |word, (i, f)| word | f << (i * bits))
}

/// `u32` elements (offsets) packed 2 per word.
fn u32_words(xs: &[u32]) -> impl Iterator<Item = u64> + '_ {
    xs.chunks(2)
        .map(|c| pack(c.iter().map(|&x| u64::from(x)), 32))
}

/// A tap as one word: `n | k << 16 | kp << 32`.
#[inline(always)]
fn tap_word(t: &Tap) -> u64 {
    u64::from(t.n) | u64::from(t.k) << 16 | u64::from(t.kp) << 32
}

/// Digest of every stream a [`FlatCode`] carries, plus its shape and
/// layout. A `PreparedConv` records this at construction and
/// re-verifies before execution: any post-load change confined to one
/// word of an offset, value, group-bound or tap stream — in particular
/// any single bit flip — changes the digest.
///
/// Streams are packed as values 8 per word, offsets 2 per word, and
/// group bounds and taps 1 per word.
#[must_use]
pub fn flat_checksum(flat: &FlatCode) -> u64 {
    let shape = flat.shape();
    let layout = flat.layout();
    let header = [
        shape.out_channels,
        shape.in_channels,
        shape.kernel_rows,
        shape.kernel_cols,
        layout.in_rows,
        layout.in_cols,
        layout.stride,
        layout.pad,
        flat.kernels().len(),
    ];
    let mut digest = WordDigest::new();
    digest.stream(header.len(), header.iter().map(|&d| d as u64));
    for k in flat.kernels() {
        let values = k.values();
        digest.stream(
            values.len(),
            values
                .chunks(8)
                .map(|c| pack(c.iter().map(|&v| u64::from(v as u8)), 8)),
        );
        let bounds = k.group_bounds();
        digest.stream(bounds.len(), bounds.iter().map(|&b| u64::from(b)));
        digest.stream(k.offsets().len(), u32_words(k.offsets()));
        digest.stream(k.taps().len(), k.taps().iter().map(tap_word));
    }
    digest.finish()
}

/// Digest of an `i16` stream (the FI feature words), 4 per word.
#[must_use]
pub fn stream_checksum_i16(words: &[i16]) -> u64 {
    let mut digest = WordDigest::new();
    digest.stream(
        words.len(),
        words
            .chunks(4)
            .map(|c| pack(c.iter().map(|&w| u64::from(w as u16)), 16)),
    );
    digest.finish()
}

/// Digest of a `u32` stream (the WT-Buffer offset words), 2 per word.
#[must_use]
pub fn stream_checksum_u32(words: &[u32]) -> u64 {
    let mut digest = WordDigest::new();
    digest.stream(words.len(), u32_words(words));
    digest.finish()
}

/// Structural validation of a [`FlatCode`] at load time — the software
/// analogue of checking a WT-Buffer/Q-Table page after the DDR
/// transfer, before any executor trusts it.
///
/// Checks, per kernel: group bounds start at zero, are monotone and
/// consistent with the value/offset/tap stream lengths; Q-Table values
/// are strictly ascending (the encoder's order); offsets are strictly
/// ascending within each group and each one decodes to exactly its tap
/// under the lowered layout; taps stay inside the kernel volume.
///
/// # Errors
///
/// Returns [`AbmError::CodeCorrupt`] naming the first inconsistent
/// kernel.
pub fn validate_flat(flat: &FlatCode) -> Result<(), AbmError> {
    let shape = flat.shape();
    let layout = flat.layout();
    let plane = layout.in_rows * layout.in_cols;
    let corrupt = |kernel: usize, detail: String| AbmError::CodeCorrupt { kernel, detail };
    for (m, k) in flat.kernels().iter().enumerate() {
        let bounds = k.group_bounds();
        if bounds.first() != Some(&0) {
            return Err(corrupt(m, "group bounds must start at 0".into()));
        }
        if bounds.len() != k.values().len() + 1 {
            return Err(corrupt(
                m,
                format!(
                    "{} group bounds for {} values (want values + 1)",
                    bounds.len(),
                    k.values().len()
                ),
            ));
        }
        if let Some(w) = bounds.windows(2).find(|w| w[0] > w[1]) {
            return Err(corrupt(
                m,
                format!("group bounds not monotone: {} > {}", w[0], w[1]),
            ));
        }
        if bounds.last().copied().unwrap_or(0) as usize != k.offsets().len() {
            return Err(corrupt(
                m,
                format!(
                    "group bounds end at {} but the kernel has {} offsets",
                    bounds.last().copied().unwrap_or(0),
                    k.offsets().len()
                ),
            ));
        }
        if k.taps().len() != k.offsets().len() {
            return Err(corrupt(
                m,
                format!("{} taps for {} offsets", k.taps().len(), k.offsets().len()),
            ));
        }
        if let Some(w) = k.values().windows(2).find(|w| w[0] >= w[1]) {
            return Err(corrupt(
                m,
                format!("Q-Table values not ascending: {} then {}", w[0], w[1]),
            ));
        }
        for (i, (&off, tap)) in k.offsets().iter().zip(k.taps()).enumerate() {
            if tap.n as usize >= shape.in_channels
                || tap.k as usize >= shape.kernel_rows
                || tap.kp as usize >= shape.kernel_cols
            {
                return Err(corrupt(
                    m,
                    format!(
                        "tap {i} ({}, {}, {}) outside the {}x{}x{} kernel volume",
                        tap.n,
                        tap.k,
                        tap.kp,
                        shape.in_channels,
                        shape.kernel_rows,
                        shape.kernel_cols
                    ),
                ));
            }
            let want = tap.n as usize * plane + tap.k as usize * layout.in_cols + tap.kp as usize;
            if off as usize != want {
                return Err(corrupt(
                    m,
                    format!("offset {off} at index {i} does not decode to its tap (want {want})"),
                ));
            }
        }
        for (_, group) in k.offset_groups() {
            if let Some(w) = group.windows(2).find(|w| w[0] >= w[1]) {
                return Err(corrupt(
                    m,
                    format!(
                        "offsets not ascending within a group: {} then {}",
                        w[0], w[1]
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_sparse::{FlatCode, FlatKernel, FlatLayout, LayerCode, Tap};
    use abm_tensor::{Shape4, Tensor4};

    fn lowered() -> (LayerCode, FlatCode) {
        let shape = Shape4::new(2, 2, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 7 + n * 5 + k * 3 + kp) % 4;
            if x == 0 {
                0
            } else {
                x as i8 - 2
            }
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 6,
            in_cols: 6,
            stride: 1,
            pad: 1,
        };
        let flat = FlatCode::lower(&code, layout).unwrap();
        (code, flat)
    }

    #[test]
    fn pristine_code_validates() {
        let (_, flat) = lowered();
        assert!(validate_flat(&flat).is_ok());
        assert_eq!(flat_checksum(&flat), flat_checksum(&flat));
    }

    #[test]
    fn every_offset_bit_flip_is_caught() {
        let (_, flat) = lowered();
        let k = &flat.kernels()[0];
        for bit in [0u32, 3, 17, 31] {
            let mut offsets = k.offsets().to_vec();
            offsets[1] ^= 1 << bit;
            let corrupted = FlatKernel::from_raw_parts(
                k.values().to_vec(),
                k.group_bounds().to_vec(),
                offsets,
                k.taps().to_vec(),
            );
            let bad = FlatCode::from_kernels(flat.shape(), flat.layout(), vec![corrupted]);
            let err = validate_flat(&bad).unwrap_err();
            assert!(
                matches!(err, AbmError::CodeCorrupt { kernel: 0, .. }),
                "bit {bit}: {err}"
            );
            assert_ne!(flat_checksum(&bad), flat_checksum(&flat));
        }
    }

    #[test]
    fn broken_group_bounds_are_caught() {
        let (_, flat) = lowered();
        let k = &flat.kernels()[0];
        let mut bounds = k.group_bounds().to_vec();
        let last = bounds.len() - 1;
        bounds.swap(0, last);
        let corrupted = FlatKernel::from_raw_parts(
            k.values().to_vec(),
            bounds,
            k.offsets().to_vec(),
            k.taps().to_vec(),
        );
        let bad = FlatCode::from_kernels(flat.shape(), flat.layout(), vec![corrupted]);
        assert!(validate_flat(&bad).is_err());
    }

    #[test]
    fn checksum_covers_values_and_taps() {
        let (_, flat) = lowered();
        let base = flat_checksum(&flat);
        let k = &flat.kernels()[0];
        let mut values = k.values().to_vec();
        values[0] ^= 1;
        let tweaked = FlatCode::from_kernels(
            flat.shape(),
            flat.layout(),
            vec![FlatKernel::from_raw_parts(
                values,
                k.group_bounds().to_vec(),
                k.offsets().to_vec(),
                k.taps().to_vec(),
            )],
        );
        assert_ne!(flat_checksum(&tweaked), base);
    }

    /// One kernel's four streams, held apart so a test can edit any
    /// element before reassembling the code.
    #[derive(Clone)]
    struct Parts {
        values: Vec<i8>,
        bounds: Vec<u32>,
        offsets: Vec<u32>,
        taps: Vec<Tap>,
    }

    const SHAPE: Shape4 = Shape4 {
        out_channels: 2,
        in_channels: 5,
        kernel_rows: 3,
        kernel_cols: 3,
    };
    const LAYOUT: FlatLayout = FlatLayout {
        in_rows: 9,
        in_cols: 7,
        stride: 2,
        pad: 1,
    };

    /// Raw streams sized so every stream spans at least four words
    /// after its length word (so every lane sees stream words) and
    /// ends in a partly filled tail word where packing leaves room:
    /// 37 values (5 words, 5 of 8 used), 38 bounds, 37 offsets
    /// (19 words, 1 of 2 used), 37 taps. The digest does not
    /// validate, so the streams need not form a legal code.
    fn parts(salt: u32) -> Parts {
        let n = 37u32;
        Parts {
            values: (0..n).map(|i| (i as i8) - 18).collect(),
            bounds: (0..=n).collect(),
            offsets: (0..n).map(|i| i * 3 + 1 + salt).collect(),
            taps: (0..n)
                .map(|i| Tap {
                    n: (i % 5) as u16,
                    k: (i % 3) as u16,
                    kp: ((i + salt) % 3) as u16,
                })
                .collect(),
        }
    }

    fn build(shape: Shape4, layout: FlatLayout, kernels: &[Parts]) -> FlatCode {
        let kernels = kernels
            .iter()
            .map(|p| {
                FlatKernel::from_raw_parts(
                    p.values.clone(),
                    p.bounds.clone(),
                    p.offsets.clone(),
                    p.taps.clone(),
                )
            })
            .collect();
        FlatCode::from_kernels(shape, layout, kernels)
    }

    #[test]
    fn digest_sees_every_bit_of_every_stream() {
        let kernels = [parts(0), parts(1)];
        let p = &kernels[0];
        // Every lane and a partly filled tail word are exercised.
        for (len, per_word) in [
            (p.values.len(), 8),
            (p.bounds.len(), 1),
            (p.offsets.len(), 2),
            (p.taps.len(), 1),
        ] {
            assert!(len.div_ceil(per_word) >= 4, "{len} elements");
            assert!(per_word == 1 || len % per_word != 0, "{len} elements");
        }
        let base = flat_checksum(&build(SHAPE, LAYOUT, &kernels));
        let mut flips = 0;
        let mut check = |edit: &dyn Fn(&mut Parts), what: String| {
            let mut bad = kernels.clone();
            edit(&mut bad[0]);
            assert_ne!(
                flat_checksum(&build(SHAPE, LAYOUT, &bad)),
                base,
                "{what} must change the digest"
            );
            flips += 1;
        };
        for i in 0..p.values.len() {
            for bit in 0..8 {
                check(&|p| p.values[i] ^= 1 << bit, format!("value {i} bit {bit}"));
            }
        }
        for i in 0..p.bounds.len() {
            for bit in 0..32 {
                check(&|p| p.bounds[i] ^= 1 << bit, format!("bound {i} bit {bit}"));
            }
        }
        for i in 0..p.offsets.len() {
            for bit in 0..32 {
                check(
                    &|p| p.offsets[i] ^= 1 << bit,
                    format!("offset {i} bit {bit}"),
                );
            }
        }
        for i in 0..p.taps.len() {
            for bit in 0..16 {
                check(&|p| p.taps[i].n ^= 1 << bit, format!("tap {i} n bit {bit}"));
                check(&|p| p.taps[i].k ^= 1 << bit, format!("tap {i} k bit {bit}"));
                check(
                    &|p| p.taps[i].kp ^= 1 << bit,
                    format!("tap {i} kp bit {bit}"),
                );
            }
        }
        assert_eq!(flips, 37 * 8 + 38 * 32 + 37 * 32 + 37 * 48);
    }

    #[test]
    fn digest_sees_every_bit_of_every_header_field() {
        let kernels = [parts(0), parts(1)];
        let base = flat_checksum(&build(SHAPE, LAYOUT, &kernels));
        let header = [
            SHAPE.out_channels,
            SHAPE.in_channels,
            SHAPE.kernel_rows,
            SHAPE.kernel_cols,
            LAYOUT.in_rows,
            LAYOUT.in_cols,
            LAYOUT.stride,
            LAYOUT.pad,
        ];
        for field in 0..header.len() {
            for bit in 0..usize::BITS {
                let mut h = header;
                h[field] ^= 1 << bit;
                let shape = Shape4::new(h[0], h[1], h[2], h[3]);
                let layout = FlatLayout {
                    in_rows: h[4],
                    in_cols: h[5],
                    stride: h[6],
                    pad: h[7],
                };
                assert_ne!(
                    flat_checksum(&build(shape, layout, &kernels)),
                    base,
                    "header field {field} bit {bit} must change the digest"
                );
            }
        }
    }

    #[test]
    fn digest_sees_a_word_moved_across_a_stream_boundary() {
        let kernels = [parts(0), parts(1)];
        let base = flat_checksum(&build(SHAPE, LAYOUT, &kernels));
        // The concatenated offset (or tap) stream is unchanged; only the
        // boundary between kernel 0 and kernel 1 moves by one word.
        let mut moved = kernels.clone();
        let last = moved[0].offsets.pop().unwrap();
        moved[1].offsets.insert(0, last);
        assert_ne!(flat_checksum(&build(SHAPE, LAYOUT, &moved)), base);
        let mut moved = kernels.clone();
        let first = moved[1].taps.remove(0);
        moved[0].taps.push(first);
        assert_ne!(flat_checksum(&build(SHAPE, LAYOUT, &moved)), base);
        let mut moved = kernels.clone();
        let last = moved[0].bounds.pop().unwrap();
        moved[1].bounds.insert(0, last);
        assert_ne!(flat_checksum(&build(SHAPE, LAYOUT, &moved)), base);
        // Words do not name their stream: kernel 0's last tap word,
        // re-read as six packed values of kernel 1's (empty) value
        // stream, is the same 64 bits absorbed into the same lane. Only
        // the stream lengths tell the two codes apart.
        let mut before = kernels.clone();
        before[1].values.clear();
        let mut after = before.clone();
        let tap = after[0].taps.pop().unwrap();
        after[1].values = tap_word(&tap).to_le_bytes()[..6]
            .iter()
            .map(|&b| b as i8)
            .collect();
        assert_ne!(
            flat_checksum(&build(SHAPE, LAYOUT, &before)),
            flat_checksum(&build(SHAPE, LAYOUT, &after))
        );
    }

    #[test]
    fn checksums_see_every_bit() {
        let base = vec![0i16, 1, -1, 127, -128, 1000];
        let digest = stream_checksum_i16(&base);
        for word in 0..base.len() {
            for bit in 0..16 {
                let mut flipped = base.clone();
                flipped[word] ^= 1 << bit;
                assert_ne!(
                    stream_checksum_i16(&flipped),
                    digest,
                    "flip of word {word} bit {bit} must change the digest"
                );
            }
        }
        assert_eq!(stream_checksum_i16(&base), digest, "digest is pure");
        assert_ne!(stream_checksum_u32(&[1, 2]), stream_checksum_u32(&[2, 1]));
    }
}
