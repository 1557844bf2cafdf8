//! What the benchmark feeds the program: seeded weights and inputs, the
//! set-up the program performs on them, and golden logits to check its
//! outputs against.

use abm_conv::{Engine, Inferencer, Parallelism, PreparedWeights};
use abm_model::{synthesize_model, zoo, Network, PruneProfile, SparseModel};
use abm_tensor::{Shape3, Tensor3};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    AlexNet,
    Vgg16,
}

impl Net {
    pub fn parse(key: &str) -> Option<Self> {
        [Net::AlexNet, Net::Vgg16]
            .into_iter()
            .find(|n| n.key() == key)
    }

    /// Lower-case key used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Net::AlexNet => "alexnet",
            Net::Vgg16 => "vgg16",
        }
    }

    pub fn network(self) -> Network {
        match self {
            Net::AlexNet => zoo::alexnet(),
            Net::Vgg16 => zoo::vgg16(),
        }
    }

    pub fn profile(self) -> PruneProfile {
        match self {
            Net::AlexNet => PruneProfile::alexnet_deep_compression(),
            Net::Vgg16 => PruneProfile::vgg16_deep_compression(),
        }
    }

    /// Distinct inputs cycled through a run. Golden logits come from the
    /// CSR engine, which needs seconds per VGG16 image, so VGG16 keeps
    /// its set small.
    pub fn distinct_inputs(self) -> usize {
        match self {
            Net::AlexNet => 8,
            Net::Vgg16 => 2,
        }
    }

    /// The weight seed for this network under workload seed `seed`.
    pub fn model_seed(self, seed: u64) -> u64 {
        let tag = match self {
            Net::AlexNet => 0xA1E8,
            Net::Vgg16 => 0x0916,
        };
        splitmix64(seed ^ (tag << 32))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D4_9BB1_3311_14EB);
    z ^ (z >> 31)
}

/// `count` distinct 8-bit images (stored as `i16`, the program's
/// feature type) drawn from the workload seed.
pub fn inputs(shape: Shape3, seed: u64, count: usize) -> Vec<Tensor3<i16>> {
    (0..count as u64)
        .map(|k| {
            let mut state = splitmix64(seed ^ 0x1A9E_0000 ^ k);
            Tensor3::from_fn(shape, |_, _, _| {
                state = splitmix64(state);
                (state >> 56) as i16 - 128
            })
        })
        .collect()
}

/// Synthesizes the model and prepares the ABM engine's weights: the
/// program's cold start (synthesize → encode → lower → certify →
/// prepare) as one user pays it.
pub fn build(net: Net, seed: u64) -> (SparseModel, PreparedWeights) {
    let model = synthesize_model(&net.network(), &net.profile(), net.model_seed(seed));
    let prepared = Inferencer::new(&model)
        .prepare()
        .expect("zoo models lower and certify");
    (model, prepared)
}

/// [`build`] repeated [`SETUP_REPS`] times; returns the last build and
/// every repetition's wall time in seconds.
pub fn timed_build(net: Net, seed: u64) -> (SparseModel, PreparedWeights, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(net, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let (model, prepared) = built.expect("SETUP_REPS > 0");
    (model, prepared, times)
}

/// Golden logits for the first `count` inputs of `net` under workload
/// seed `seed`, from the CSR sparse engine — an independent integer
/// engine that is bit-identical to ABM by contract. Computed once,
/// outside every timed phase, by a child process of this benchmark
/// (`perfbench golden ...`, see [`print_golden`]), so that the CSR
/// engine's weights and buffers never count in this process's
/// `peak_rss_mb`. The child synthesizes the same model and inputs from
/// the seed; the call waits for it to exit.
pub fn golden(net: Net, seed: u64, count: usize, workers: usize) -> Vec<Vec<f32>> {
    let exe = std::env::current_exe().expect("the benchmark can locate its own binary");
    let out = Command::new(exe)
        .args([
            "golden",
            net.key(),
            &seed.to_string(),
            &count.to_string(),
            &workers.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the golden child process starts");
    assert!(
        out.status.success(),
        "the golden child process failed: {}",
        out.status
    );
    let golden: Vec<Vec<f32>> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            line.split_whitespace()
                .map(|w| f32::from_bits(u32::from_str_radix(w, 16).expect("hex f32 bits")))
                .collect()
        })
        .collect();
    assert_eq!(golden.len(), count, "the golden child printed every input");
    golden
}

/// The child side of [`golden`]: prints one line per input, the CSR
/// engine's logits as hexadecimal `f32` bit patterns (exact).
pub fn print_golden(net: Net, seed: u64, count: usize, workers: usize) {
    let model = synthesize_model(&net.network(), &net.profile(), net.model_seed(seed));
    let inputs = inputs(model.network.input_shape(), seed, count);
    let inf = Inferencer::new(&model)
        .engine(Engine::Sparse)
        .parallelism(Parallelism::Threads(workers));
    let prepared = inf.prepare().expect("CSR encoding cannot fail");
    for r in inf
        .run_batch_prepared(&prepared, &inputs)
        .expect("golden inference")
    {
        let words: Vec<String> = r
            .logits
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        println!("{}", words.join(" "));
    }
}

/// Bit-for-bit logit equality.
pub fn same_logits(golden: &[f32], got: &[f32]) -> bool {
    golden.len() == got.len()
        && golden
            .iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Each ABM layer's kernel selection (`isa/acc`, with the worst-case
/// fallback when a range certificate narrowed it), as `LAYER=sel, ...`.
pub fn kernel_selection(model: &SparseModel, prepared: &PreparedWeights) -> String {
    model
        .layers
        .iter()
        .enumerate()
        .filter_map(|(i, sl)| {
            let p = prepared.abm_layer(i)?;
            let (sel, fb) = (p.selection().name(), p.fallback_selection().name());
            Some(if sel == fb {
                format!("{}={sel}", sl.name())
            } else {
                format!("{}={sel} (fallback {fb})", sl.name())
            })
        })
        .collect::<Vec<_>>()
        .join(", ")
}
