//! End-to-end image inference through the compiled execution plan + the
//! per-layer latency breakdown of the ImageNet zoo on the simulated GPU.
//!
//! Part 1 compiles a zoo model (VGG-Variant-Tiny, w1a2) once —
//! fusion, tile autotuning, weight packing, correction vectors and
//! quantization-range calibration all happen here — then serves a batch of
//! requests through `infer_batched_into` (real bit-serial compute, packed §5.1
//! activations between layers, sharded over the Rayon pool).
//!
//! Part 2 prices the *same kind of plan* on the latency model: the Fig.
//! 9-style per-layer breakdown for VGG-Variant at ImageNet scale.
//!
//! Run with: `cargo run --release --example image_inference`

use apnn_tc::nn::compile::CompileOptions;
use apnn_tc::nn::models::{vgg_variant, vgg_variant_tiny};
use apnn_tc::nn::{simulate, NetPrecision};
use apnn_tc::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(99);

    // --- Part 1: compile once, serve many --------------------------------
    let shard = 4; // compiled batch = sharding granularity
    let plan = vgg_variant_tiny().compile(
        NetPrecision::w1a2(),
        &CompileOptions::functional(shard, 2021),
    );
    println!(
        "compiled {} ({}): {} stages, {} classes, executable: {}",
        plan.model,
        plan.scheme,
        plan.stages().len(),
        plan.classes(),
        plan.is_executable()
    );

    // Synthetic 8-bit RGB request batch (10 images — not a multiple of the
    // shard size on purpose), packed channel-major (NPHWC).
    let requests = 10;
    let codes = Tensor4::<u32>::from_fn(requests, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        rng.gen_range(0..256)
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    let pool = plan.workspace_pool(2);
    let mut logits = Vec::new();
    plan.infer_batched_into(&input, &pool, 0, &mut logits);

    println!("served {requests} requests through the compiled plan:");
    let classes = plan.classes();
    for b in 0..requests {
        let row = &logits[b * classes..(b + 1) * classes];
        let pred = row
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap();
        println!("  image {b}: class {pred} (logit {})", row[pred]);
    }

    // --- Part 2: ImageNet-scale per-layer breakdown (Fig. 9) -------------
    let spec = GpuSpec::rtx3090();
    let vgg = vgg_variant();
    let report = simulate(&vgg, NetPrecision::w1a2(), &spec, 8);
    println!(
        "\nVGG-Variant w1a2 on simulated {}: {:.3} ms latency (batch 8), {:.0} fps (batch 8)",
        spec.name,
        report.latency_ms(),
        report.throughput_fps()
    );
    println!("per-layer shares (paper Fig. 9: first layer dominates):");
    for (name, share) in report.main_shares() {
        let bar = "#".repeat((share * 60.0).round() as usize);
        println!("  {name:<10} {:>5.1}% {bar}", share * 100.0);
    }
}
