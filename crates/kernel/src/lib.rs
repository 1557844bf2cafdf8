//! Runtime-dispatched SIMD kernels for the ABM-SpConv hot path.
//!
//! The accelerator's stage-1 datapath is a gather-and-add over small
//! per-value accumulators; stage 2 multiplies each partial sum once.
//! On the host that loop shape maps directly onto vector registers,
//! and — mirroring the DSP48 SIMD-packing trick of the INT8-packing
//! accelerator line — *narrower accumulators pack more lanes per
//! register*: proving at lowering time that a layer's stage-1 partial
//! sums fit `i32` lets the AVX2 kernel hold 8 partial sums in one
//! 256-bit register and the AVX-512 kernel 16 per 512-bit register,
//! instead of the 2/4 an `i64` accumulator allows.
//!
//! Three ISA variants live behind the safe [`AbmKernel`] trait:
//!
//! * [`Isa::Scalar`] — a bit-identical port of the original
//!   `gather_pixel_vec` / `gather_pixel_vec_unit` loops (plain safe
//!   Rust, 8-pixel lock-step, `i64` accumulators);
//! * [`Isa::Avx2`] — 8 pixels per call, `i32` stage-1 accumulation
//!   with exact widening `i32×i32→i64` stage-2 multiplies;
//! * [`Isa::Avx512`] — 16 pixels per call, same narrow-accumulator
//!   scheme on 512-bit registers.
//!
//! A fourth kernel body sits one step narrower: the AVX2 *packed*
//! variant ([`AccWidth::I16`]) holds 16 × `i16` stage-1 partials in a
//! single 256-bit register — two sums per 32-bit ALU slot, exactly the
//! DSP48 dual-multiply packing of the paper's accelerator. It is
//! reachable only when a layer carries a range certificate
//! (`abm_verify::WidthCertificate`) proving every stage-1 partial,
//! intermediate prefixes included, fits 16 signed bits; worst-case
//! bounds can never produce it.
//!
//! Dispatch is resolved **once** per prepared layer
//! ([`select`]): `is_x86_feature_detected!` picks the widest ISA the
//! CPU offers, `ABM_FORCE_ISA` (or an explicit request) can pin any
//! variant for debugging, and the caller passes the layer's
//! verifier-derived worst-case stage-1 magnitude so the narrow path is
//! only taken when **proven** overflow-free. Layers that do not fit
//! `i32` fall back to the checked `i64` scalar port, so results are
//! bit-identical everywhere: integer addition is associative and the
//! proof rules out wrap-around, hence re-packing the same additions
//! into wider vectors cannot change a single bit.
//!
//! All `unsafe` lives in the single allowlisted island `x86`
//! (`cargo xtask lint` enforces both the confinement and the
//! `INVARIANT:` comment on every unsafe block); this crate root denies
//! `unsafe_code` so nothing escapes the island.

#![deny(unsafe_code)]

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

/// The widest pixel vector any kernel variant processes per call —
/// executors size their lane scratch buffers to this.
pub const MAX_LANES: usize = 16;

/// An instruction-set variant of the gather kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable safe-Rust port of the original hot loops.
    Scalar,
    /// 256-bit AVX2 (8 × i32 stage-1 lanes).
    Avx2,
    /// 512-bit AVX-512 F+BW (16 × i32 stage-1 lanes).
    Avx512,
}

impl Isa {
    /// Every variant this build knows about, widest last.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// Stable lowercase name (CLI / env / telemetry vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses a CLI / `ABM_FORCE_ISA` spelling. `auto` (or the empty
    /// string) means "detect", expressed as `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised spelling.
    pub fn parse(s: &str) -> Result<Option<Isa>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(Isa::Scalar)),
            "avx2" => Ok(Some(Isa::Avx2)),
            "avx512" | "avx-512" => Ok(Some(Isa::Avx512)),
            other => Err(format!(
                "unknown ISA '{other}' (expected auto|scalar|avx2|avx512)"
            )),
        }
    }

    /// Whether the running CPU can execute this variant.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest variant the running CPU supports.
    #[must_use]
    pub fn detect() -> Isa {
        *Isa::ALL
            .iter()
            .rev()
            .find(|isa| isa.available())
            .unwrap_or(&Isa::Scalar)
    }

    /// Every variant the running CPU can execute, narrowest first.
    #[must_use]
    pub fn detect_all() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.available()).collect()
    }

    /// Pixel lanes this variant's kernel processes per call (the
    /// unit-stride sweep width). Kept in sync with the kernel structs
    /// by `lanes_agree_with_kernels`.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar | Isa::Avx2 => 8,
            Isa::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stage-1 accumulator width a kernel packs its lanes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccWidth {
    /// Packed 16-bit partial sums — two lanes per 32-bit ALU slot, the
    /// DSP48 dual-multiply trick. Requires a *range certificate*
    /// (`abm_verify::WidthCertificate`) proving every stage-1 partial,
    /// intermediate prefixes included, fits 16 signed bits; never
    /// chosen from a worst-case bound (a single full-range `i16` tap
    /// already needs 17 bits). Only [`select_auto`] produces it.
    I16,
    /// Narrow 32-bit partial sums — requires the verifier's proof that
    /// the layer's worst-case stage-1 magnitude fits 32 signed bits.
    I32,
    /// Full 64-bit partial sums — always safe (the host accumulator
    /// model), used when the narrow proof fails.
    I64,
}

impl AccWidth {
    /// Signed bits this width holds.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            AccWidth::I16 => 16,
            AccWidth::I32 => 32,
            AccWidth::I64 => 64,
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccWidth::I16 => "i16",
            AccWidth::I32 => "i32",
            AccWidth::I64 => "i64",
        }
    }

    /// The narrowest *register-sound* width for a stage-1 partial sum
    /// needing `required_bits` (magnitude + sign). Deliberately never
    /// [`AccWidth::I16`]: the packed kernel also needs a 16-wide
    /// unit-stride sweep to fill its lanes, so that upgrade is a
    /// [`select_auto`] decision, not a pure width fact.
    #[must_use]
    pub fn narrowest(required_bits: u32) -> AccWidth {
        if required_bits <= 32 {
            AccWidth::I32
        } else {
            AccWidth::I64
        }
    }
}

impl std::fmt::Display for AccWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resolved kernel choice: the ISA that will run and the stage-1
/// accumulator width it was proven safe at. `Copy + Eq` so prepared
/// layers stay cheaply comparable; [`resolve`] maps it back to the
/// executing kernel object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Selection {
    /// The variant that will execute.
    pub isa: Isa,
    /// The stage-1 accumulator width it runs at.
    pub acc: AccWidth,
}

impl Selection {
    /// Display name, e.g. `avx512/i32`.
    #[must_use]
    pub fn name(self) -> String {
        format!("{}/{}", self.isa, self.acc)
    }

    /// Pixel lanes the resolved kernel processes per call.
    #[must_use]
    pub fn lanes(self) -> usize {
        resolve(self).lanes()
    }
}

impl std::fmt::Display for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.isa, self.acc)
    }
}

/// The environment variable that pins a kernel variant process-wide
/// (`scalar` / `avx2` / `avx512` / `auto`).
pub const FORCE_ISA_ENV: &str = "ABM_FORCE_ISA";

/// Reads [`FORCE_ISA_ENV`]. Unset or `auto` means no pin.
///
/// # Errors
///
/// Returns a description of an unparsable value — a typo'd pin must
/// surface, not silently fall back to auto-detection.
pub fn forced_isa() -> Result<Option<Isa>, String> {
    match std::env::var(FORCE_ISA_ENV) {
        Ok(v) => Isa::parse(&v).map_err(|e| format!("{FORCE_ISA_ENV}: {e}")),
        Err(_) => Ok(None),
    }
}

/// Resolves the kernel variant for one prepared layer. Called once at
/// lowering time (`PreparedConv::new`), never on the execution path.
///
/// Priority: explicit `requested` pin, then the [`FORCE_ISA_ENV`]
/// environment pin, then the widest detected ISA. `stage1_bits` is the
/// verifier's worst-case stage-1 accumulator requirement (magnitude +
/// sign, see `abm_verify::AccumulatorModel::stage1_required_bits`):
/// vector ISAs take the narrow `i32` packing only when it provably
/// fits, and otherwise fall back to the checked `i64` scalar port —
/// the bit-identity guarantee never rests on luck.
///
/// # Errors
///
/// Returns a description when a pinned ISA is not executable on this
/// CPU, or the environment pin does not parse.
pub fn select(requested: Option<Isa>, stage1_bits: u32) -> Result<Selection, String> {
    let isa = match requested {
        Some(isa) => isa,
        None => match forced_isa()? {
            Some(isa) => isa,
            None => Isa::detect(),
        },
    };
    if !isa.available() {
        return Err(format!(
            "ISA '{isa}' is not available on this CPU (detected best: {})",
            Isa::detect()
        ));
    }
    let acc = AccWidth::narrowest(stage1_bits);
    Ok(match (isa, acc) {
        (Isa::Scalar, _) => Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        },
        // The vector kernels only implement the proven narrow packing;
        // a layer too hot for i32 runs the checked i64 scalar port.
        (_, AccWidth::I64) => Selection {
            isa: Isa::Scalar,
            acc: AccWidth::I64,
        },
        // `narrowest` never yields I16 here — the packed width only
        // enters through `select_auto`'s certificate + geometry gate.
        (isa, _) => Selection { isa, acc },
    })
}

/// [`select`] with a geometry hint: when nothing pins the ISA, picks
/// the widest *useful* variant for the layer instead of the widest the
/// CPU has. A sweep that is narrower than a variant's lane count never
/// issues a vector call (every pixel takes the one-at-a-time fallback),
/// so on narrow late layers (e.g. 13×13 AlexNet CONV3-5) a 16-lane
/// kernel loses to an 8-lane one. Strided layers run the lane-scalar
/// strided path where extra width only adds fringe, so they cap at 8
/// lanes. Explicit pins (argument or [`FORCE_ISA_ENV`]) bypass the
/// heuristic entirely — a forced variant must actually run.
///
/// # Errors
///
/// Same conditions as [`select`].
pub fn select_auto(
    requested: Option<Isa>,
    stage1_bits: u32,
    unit_stride: bool,
    sweep_cols: usize,
) -> Result<Selection, String> {
    let pinned = match requested {
        Some(isa) => Some(isa),
        None => forced_isa()?,
    };
    // Packed dual-lane upgrade: a range certificate proving ≤16-bit
    // stage-1 partials lets AVX2 hold 16 × i16 lanes per 256-bit
    // register (the DSP48 dual-multiply packing). Worst-case bounds can
    // never take this branch — one full-range i16 tap already needs 17
    // bits — so only certificate-carrying callers reach it. The sweep
    // must actually fill 16 unit-stride lanes, and a pin to any other
    // variant wins (a forced variant must actually run).
    if stage1_bits <= AccWidth::I16.bits()
        && unit_stride
        && sweep_cols >= Isa::Avx512.lanes()
        && Isa::Avx2.available()
        && matches!(pinned, None | Some(Isa::Avx2))
    {
        return Ok(Selection {
            isa: Isa::Avx2,
            acc: AccWidth::I16,
        });
    }
    let isa = pinned.unwrap_or_else(|| {
        *Isa::detect_all()
            .iter()
            .rev()
            .find(|isa| isa.lanes() <= sweep_cols && (unit_stride || isa.lanes() <= 8))
            .unwrap_or(&Isa::Scalar)
    });
    select(Some(isa), stage1_bits)
}

/// Maps a [`Selection`] to its executing kernel. Total: every value
/// [`select`] can produce resolves, and a hand-built selection for an
/// ISA this build lacks (or the running CPU cannot execute) degrades to
/// the scalar port rather than faulting. That availability re-check is
/// the soundness gate the vector kernels rely on: the `unsafe` island
/// only hands out a vector kernel through this function, so its
/// `#[target_feature]` contract always holds. `is_x86_feature_detected!`
/// caches its answer, and this runs once per prepared layer, never on
/// the execution path.
#[must_use]
pub fn resolve(sel: Selection) -> &'static dyn AbmKernel {
    if !sel.isa.available() {
        return &scalar::ScalarI64;
    }
    match (sel.isa, sel.acc) {
        (Isa::Scalar, _) => &scalar::ScalarI64,
        // The packed kernel is AVX2-bodied whatever ISA the selection
        // names; re-check the exact feature its `#[target_feature]`
        // contract needs before handing it out.
        #[cfg(target_arch = "x86_64")]
        (_, AccWidth::I16) => {
            if Isa::Avx2.available() {
                &x86::Avx2Packed16
            } else {
                &scalar::ScalarI64
            }
        }
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, _) => &x86::Avx2I32,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, _) => &x86::Avx512I32,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &scalar::ScalarI64,
    }
}

/// One ISA variant of the two-stage gather kernels.
///
/// A call accumulates [`lanes`](Self::lanes) adjacent output pixels in
/// lock-step: stage 1 walks each value group's flat offset stream once,
/// adding the gathered input pixels into per-lane partial sums; stage 2
/// multiplies each group's partials by its value and reduces into the
/// per-lane `i64` output accumulators written to `out`.
///
/// # Contract (shared by every implementation)
///
/// * `starts` is the group-bounds table: group `g` owns
///   `offsets[starts[g] as usize .. starts[g + 1] as usize]`, and
///   `values.len() + 1 == starts.len()` (the lowered `FlatKernel`
///   shape, re-proven by `abm-verify`).
/// * Every read lands in `data[base + off .. base + off + (lanes - 1) ·
///   pixel_stride + 1]`; implementations bounds-check the whole window
///   once per offset (exactly like the original scalar loop), so a
///   violated caller contract panics rather than reading wild.
/// * `out.len()` is at least [`lanes`](Self::lanes); the first
///   `lanes` entries are written.
/// * Results are **bit-identical** across implementations for inputs
///   within the proven accumulator bound.
pub trait AbmKernel: Send + Sync {
    /// The selection this kernel executes.
    fn selection(&self) -> Selection;

    /// Adjacent output pixels computed per call.
    fn lanes(&self) -> usize;

    /// Stage 1 + 2 for `lanes()` pixels whose bases are contiguous
    /// (`pixel_stride == 1`): one offset's reads form a contiguous
    /// window, checked with a single slice.
    fn gather_unit(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        out: &mut [i64],
    );

    /// Stage 1 + 2 for `lanes()` pixels whose bases step by
    /// `pixel_stride` elements (strided convolutions and the
    /// column-fringe sweeps, where the step is a whole input row).
    #[allow(clippy::too_many_arguments)]
    fn gather_strided(
        &self,
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        pixel_stride: usize,
        out: &mut [i64],
    );
}

/// One output pixel, scalar — stage-1 pointer-bump walk into the
/// shared `partials` scratch, then the stage-2 multiply reduction.
/// Shared by every variant (narrow spans below one vector are not
/// worth re-dispatching) and bit-identical to the lane kernels.
#[inline]
pub fn gather_one(
    values: &[i8],
    starts: &[u32],
    offsets: &[u32],
    data: &[i16],
    base: usize,
    partials: &mut [i64],
) -> i64 {
    for (w, partial) in starts.windows(2).zip(partials.iter_mut()) {
        let mut p = 0i64;
        for &off in &offsets[w[0] as usize..w[1] as usize] {
            p += data[base + off as usize] as i64;
        }
        *partial = p;
    }
    values
        .iter()
        .zip(partials.iter())
        .map(|(&v, &p)| v as i64 * p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random flat kernel + input for
    /// differential tests: `groups` value groups with mixed signs,
    /// offsets spread over a `span`-wide window.
    fn fixture(
        seed: u64,
        groups: usize,
        per_group: usize,
        span: u32,
        data_len: usize,
    ) -> (Vec<i8>, Vec<u32>, Vec<u32>, Vec<i16>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut values = Vec::new();
        let mut starts = vec![0u32];
        let mut offsets = Vec::new();
        for g in 0..groups {
            let v = (g as i8 + 1) * if g % 2 == 0 { 1 } else { -1 };
            values.push(v);
            let mut group: Vec<u32> = (0..per_group).map(|_| next() % span).collect();
            group.sort_unstable();
            group.dedup();
            offsets.extend_from_slice(&group);
            starts.push(offsets.len() as u32);
        }
        let data: Vec<i16> = (0..data_len).map(|_| (next() % 65536) as i16).collect();
        (values, starts, offsets, data)
    }

    fn reference_lanes(
        values: &[i8],
        starts: &[u32],
        offsets: &[u32],
        data: &[i16],
        base: usize,
        stride: usize,
        lanes: usize,
    ) -> Vec<i64> {
        let mut partials = vec![0i64; values.len()];
        (0..lanes)
            .map(|i| {
                gather_one(
                    values,
                    starts,
                    offsets,
                    data,
                    base + i * stride,
                    &mut partials,
                )
            })
            .collect()
    }

    /// Every available kernel variant agrees with the scalar
    /// single-pixel oracle on both the unit and strided entry points,
    /// across bases and strides — full-range i16 inputs, so the i32
    /// variants are exercised at the worst magnitudes the proof
    /// admits.
    #[test]
    fn variants_match_scalar_oracle() {
        let (values, starts, offsets, data) = fixture(0x5eed, 6, 40, 512, 4096);
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 32).expect("available ISA selects");
            let kern = resolve(sel);
            let lanes = kern.lanes();
            for base in [0usize, 7, 300] {
                let mut out = [0i64; MAX_LANES];
                kern.gather_unit(&values, &starts, &offsets, &data, base, &mut out[..lanes]);
                let want = reference_lanes(&values, &starts, &offsets, &data, base, 1, lanes);
                assert_eq!(&out[..lanes], &want[..], "{sel} unit base {base}");
                for stride in [1usize, 2, 3, 4, 7, 55] {
                    let mut out = [0i64; MAX_LANES];
                    kern.gather_strided(
                        &values,
                        &starts,
                        &offsets,
                        &data,
                        base,
                        stride,
                        &mut out[..lanes],
                    );
                    let want =
                        reference_lanes(&values, &starts, &offsets, &data, base, stride, lanes);
                    assert_eq!(
                        &out[..lanes],
                        &want[..],
                        "{sel} stride {stride} base {base}"
                    );
                }
            }
        }
    }

    /// Like `fixture`, but with data confined to the saturated 8-bit
    /// feature range `[-128, 127]` — the regime a range certificate
    /// proves, where 40-tap groups peak at |40 · 128| = 5120 ≪ 2^15,
    /// so the packed i16 kernel is exercised within its proof.
    fn fixture_certified(
        seed: u64,
        groups: usize,
        per_group: usize,
        span: u32,
        data_len: usize,
    ) -> (Vec<i8>, Vec<u32>, Vec<u32>, Vec<i16>) {
        let (values, starts, offsets, mut data) = fixture(seed, groups, per_group, span, data_len);
        for d in &mut data {
            *d = (*d as i32).rem_euclid(256) as i16 - 128;
        }
        (values, starts, offsets, data)
    }

    /// The packed dual-lane kernel is bit-identical to the scalar
    /// oracle on certified-range inputs, on both entry points.
    #[test]
    fn packed_kernel_matches_scalar_oracle() {
        if !Isa::Avx2.available() {
            return;
        }
        let (values, starts, offsets, data) = fixture_certified(0xabc, 6, 40, 512, 4096);
        let sel = Selection {
            isa: Isa::Avx2,
            acc: AccWidth::I16,
        };
        let kern = resolve(sel);
        assert_eq!(kern.lanes(), 16);
        assert_eq!(kern.selection(), sel);
        let lanes = kern.lanes();
        for base in [0usize, 7, 300] {
            let mut out = [0i64; MAX_LANES];
            kern.gather_unit(&values, &starts, &offsets, &data, base, &mut out[..lanes]);
            let want = reference_lanes(&values, &starts, &offsets, &data, base, 1, lanes);
            assert_eq!(&out[..lanes], &want[..], "packed unit base {base}");
            for stride in [1usize, 2, 3, 4, 7, 55] {
                let mut out = [0i64; MAX_LANES];
                kern.gather_strided(
                    &values,
                    &starts,
                    &offsets,
                    &data,
                    base,
                    stride,
                    &mut out[..lanes],
                );
                let want = reference_lanes(&values, &starts, &offsets, &data, base, stride, lanes);
                assert_eq!(
                    &out[..lanes],
                    &want[..],
                    "packed stride {stride} base {base}"
                );
            }
        }
    }

    /// The packed upgrade needs all four gates: certified ≤16-bit
    /// stage-1, unit stride, a 16-wide sweep, and no pin to another
    /// variant. Explicit pins avoid the env var, so this is race-free
    /// against the heuristic test.
    #[test]
    fn packed_selection_requires_certificate_and_geometry() {
        if !Isa::Avx2.available() {
            return;
        }
        let packed = Selection {
            isa: Isa::Avx2,
            acc: AccWidth::I16,
        };
        assert_eq!(select_auto(Some(Isa::Avx2), 16, true, 224).unwrap(), packed);
        assert_eq!(select_auto(Some(Isa::Avx2), 12, true, 16).unwrap(), packed);
        // One more required bit → the proven i32 packing.
        let s = select_auto(Some(Isa::Avx2), 17, true, 224).unwrap();
        assert_eq!(s.acc, AccWidth::I32);
        // Strided sweeps and narrow sweeps never pack.
        assert_ne!(
            select_auto(Some(Isa::Avx2), 12, false, 224).unwrap(),
            packed
        );
        assert_ne!(select_auto(Some(Isa::Avx2), 12, true, 13).unwrap(), packed);
        // Pins to other variants win over the upgrade.
        let scalar = select_auto(Some(Isa::Scalar), 12, true, 224).unwrap();
        assert_eq!(scalar.isa, Isa::Scalar);
        assert_eq!(scalar.acc, AccWidth::I64);
        if Isa::Avx512.available() {
            let wide = select_auto(Some(Isa::Avx512), 12, true, 224).unwrap();
            assert_eq!(wide.isa, Isa::Avx512);
            assert_eq!(wide.acc, AccWidth::I32);
        }
    }

    /// Empty groups (a value whose offsets were all filtered away by
    /// the halo path) contribute exactly zero.
    #[test]
    fn empty_groups_are_zero() {
        let values = [3i8, -2];
        let starts = [0u32, 0, 0];
        let offsets: [u32; 0] = [];
        let data = vec![7i16; 64];
        for isa in Isa::detect_all() {
            let kern = resolve(select(Some(isa), 32).expect("selects"));
            let mut out = [1i64; MAX_LANES];
            let lanes = kern.lanes();
            kern.gather_unit(&values, &starts, &offsets, &data, 0, &mut out[..lanes]);
            assert!(out[..lanes].iter().all(|&x| x == 0), "{isa}");
        }
    }

    #[test]
    fn selection_rules() {
        // Narrow proof → vector ISA keeps its narrow packing.
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 31).expect("selects");
            if isa == Isa::Scalar {
                assert_eq!(sel.acc, AccWidth::I64);
            } else {
                assert_eq!(sel.isa, isa);
                assert_eq!(sel.acc, AccWidth::I32);
            }
        }
        // Failed proof → checked scalar/i64 fallback, whatever was asked.
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 33).expect("selects");
            assert_eq!(
                sel,
                Selection {
                    isa: Isa::Scalar,
                    acc: AccWidth::I64
                }
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()).unwrap(), Some(isa));
        }
        assert_eq!(Isa::parse("auto").unwrap(), None);
        assert_eq!(Isa::parse("").unwrap(), None);
        assert_eq!(Isa::parse("AVX2").unwrap(), Some(Isa::Avx2));
        assert!(Isa::parse("sse9").is_err());
    }

    #[test]
    fn acc_width_thresholds() {
        assert_eq!(AccWidth::narrowest(1), AccWidth::I32);
        assert_eq!(AccWidth::narrowest(32), AccWidth::I32);
        assert_eq!(AccWidth::narrowest(33), AccWidth::I64);
        assert_eq!(AccWidth::narrowest(64), AccWidth::I64);
    }

    /// `Isa::lanes` is a static promise about the kernel structs; if a
    /// kernel's width changes this pins the mismatch.
    #[test]
    fn lanes_agree_with_kernels() {
        for isa in Isa::detect_all() {
            let sel = select(Some(isa), 31).expect("selects");
            assert_eq!(resolve(sel).lanes(), sel.isa.lanes(), "{isa}");
        }
    }

    #[test]
    fn select_auto_picks_useful_width() {
        // This test exercises the *heuristic*, so it must neutralize an
        // ambient `ABM_FORCE_ISA` (CI runs the whole suite under pinned
        // legs). No other test in this binary touches the variable, and
        // explicit-pin tests are immune to it, so a scoped save/restore
        // is race-free here.
        let saved = std::env::var(FORCE_ISA_ENV).ok();
        std::env::remove_var(FORCE_ISA_ENV);

        // Wide unit-stride sweep: auto takes the widest the CPU has.
        let wide = select_auto(None, 31, true, 224).expect("selects");
        assert_eq!(wide.isa, Isa::detect());
        // A 13-wide sweep cannot fill 16 lanes: auto must stay <= 8.
        let narrow = select_auto(None, 31, true, 13).expect("selects");
        assert!(narrow.isa.lanes() <= 13, "{narrow}");
        // Strided layers run the lane-scalar path; cap at 8 lanes.
        let strided = select_auto(None, 31, false, 224).expect("selects");
        assert!(strided.isa.lanes() <= 8, "{strided}");
        // Explicit pins bypass the heuristic.
        let pinned = select_auto(Some(Isa::Scalar), 31, true, 224).expect("selects");
        assert_eq!(pinned.isa, Isa::Scalar);
        // The environment pin is honored when no explicit pin is given.
        std::env::set_var(FORCE_ISA_ENV, "scalar");
        let forced = select_auto(None, 31, true, 224).expect("selects");
        assert_eq!(forced.isa, Isa::Scalar);
        std::env::remove_var(FORCE_ISA_ENV);

        if let Some(v) = saved {
            std::env::set_var(FORCE_ISA_ENV, v);
        }
    }
}
