//! Serving determinism: the same seed must produce the same bits — across
//! worker counts, across repeated runs, and across time (golden snapshots
//! checked into `tests/golden/`).

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::{CompiledNet, NetPrecision};
use apnn_tc::serve::{ModelKey, PlanRegistry, ServeConfig, Server};

const BATCH: usize = 3;
const SEED: u64 = 2021;
const REQUESTS: usize = 6;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// The fixed request set: `REQUESTS` packed 3×32×32 images.
fn fixed_input() -> BitTensor4 {
    let mut seed = 0xDECAF;
    let codes = Tensor4::<u32>::from_fn(REQUESTS, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 256
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

/// Stand up a fresh server, push the fixed request set through both
/// servable zoo models, and return every request's logits in submission
/// order.
/// Logits for a request batch wider than the compiled batch, sharded over
/// the Rayon pool.
fn batched(plan: &CompiledNet, input: &BitTensor4) -> Vec<i32> {
    let mut out = Vec::new();
    plan.infer_batched_into(input, &plan.workspace_pool(2), 0, &mut out);
    out
}

fn serve_once(workers: usize) -> Vec<Vec<i32>> {
    let server = Server::new(
        PlanRegistry::zoo(BATCH, SEED),
        ServeConfig {
            queue_capacity: 32,
            max_batch_delay: 2,
            workers,
            intra_batch_threads: 1,
        },
    );
    let input = fixed_input();
    let keys = [
        ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()),
        ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2()),
        ModelKey::new("ResNet18-Tiny", NetPrecision::w1a2()),
    ];
    let tickets: Vec<_> = (0..REQUESTS)
        .flat_map(|i| {
            let input = &input;
            let server = &server;
            keys.iter()
                .map(move |key| server.submit(key, input.batch_slice(i, 1)).unwrap())
        })
        .collect();
    tickets.iter().map(|t| t.wait().unwrap()).collect()
}

#[test]
fn logits_are_identical_across_worker_counts() {
    let one = serve_once(1);
    let two = serve_once(2);
    let eight = serve_once(8);
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, eight, "1 vs 8 workers");
}

#[test]
fn logits_are_identical_across_repeated_runs() {
    assert_eq!(serve_once(2), serve_once(2));
}

#[test]
fn independently_compiled_registries_host_bit_identical_plans() {
    let key = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
    let a = PlanRegistry::zoo(BATCH, SEED).get(&key).unwrap();
    let b = PlanRegistry::zoo(BATCH, SEED).get(&key).unwrap();
    let input = fixed_input();
    assert_eq!(batched(&a, &input), batched(&b, &input));
    // A different weight seed really does change the plan (the equality
    // above is not vacuous).
    let c = PlanRegistry::zoo(BATCH, SEED + 1).get(&key).unwrap();
    assert_ne!(batched(&a, &input), batched(&c, &input));
}

/// Golden snapshots: every servable zoo model (`vgg_variant_tiny`,
/// `alexnet_tiny`, `resnet18_tiny`) × {w1a2, w2a2} logits, pinned to
/// files. A mismatch means serving changed numerics — bump the files
/// deliberately (run with `REGEN_GOLDEN=1`) only when the change is
/// intended and understood.
#[test]
fn golden_logits_match_snapshots() {
    let input = fixed_input();
    for model in ["VGG-Variant-Tiny", "AlexNet-Tiny", "ResNet18-Tiny"] {
        for precision in [NetPrecision::w1a2(), NetPrecision::Apnn { w: 2, a: 2 }] {
            let key = ModelKey::new(model, precision);
            golden_check(&key, &input);
        }
    }
}

/// Mixed-precision golden: one pinned per-layer schedule for the residual
/// model (stage 4 widened to a3 activations — a Pareto-style operating
/// point from the precision autotuner) served through `ModelKey::scheduled`
/// and snapshotted like every uniform scheme. Pins the *mixed* lowering —
/// per-stage packing, corrections and the residual-join widths — against
/// numeric drift.
#[test]
fn golden_mixed_schedule_logits_match_snapshot() {
    use apnn_tc::nn::{LayerPrecision, PrecisionSchedule};
    let mut layers = vec![LayerPrecision::new(1, 2); 21];
    for l in &mut layers[15..20] {
        *l = LayerPrecision::new(1, 3);
    }
    let key = ModelKey::scheduled("ResNet18-Tiny", PrecisionSchedule::new(layers));
    golden_check(&key, &fixed_input());
}

fn golden_check(key: &ModelKey, input: &BitTensor4) {
    let plan = PlanRegistry::zoo(BATCH, SEED).get(key).unwrap();
    let logits = batched(&plan, input);
    let classes = plan.classes();
    let path = format!(
        "{}/tests/golden/{}_{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        key.model.to_lowercase().replace('-', "_"),
        key.scheme().to_lowercase().replace('-', "_")
    );
    let rows: Vec<String> = logits
        .chunks(classes)
        .map(|row| {
            row.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let header = format!(
            "# golden logits: {} @ {} — {} requests × {} classes,\n\
                 # registry (batch={}, seed={}), fixed input seed 0xDECAF.\n",
            key.model,
            key.scheme(),
            REQUESTS,
            classes,
            BATCH,
            SEED
        );
        std::fs::write(&path, header + &rows.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        rows, want,
        "{key}: serve logits drifted from {path} \
             (REGEN_GOLDEN=1 to re-pin intentionally)"
    );
}
