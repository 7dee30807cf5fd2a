//! Workspace-reuse differential property: interleaving **different
//! inputs, shard widths and plans** through long-lived per-plan
//! [`ExecWorkspace`]s produces logits bit-identical to fresh-workspace
//! inference — for every servable zoo model × scheme.
//!
//! This is the reuse analogue of `serve_differential.rs`: that harness
//! proves batching composition is sound; this one proves the in-place
//! buffer rebuilds (activation slots shrinking and growing between calls,
//! gather buffers switching request subsets) never leak state between
//! calls.
//!
//! [`ExecWorkspace`]: apnn_tc::nn::compile::ExecWorkspace

use std::sync::{Mutex, OnceLock};

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::compile::ExecWorkspace;
use apnn_tc::nn::models::servable_zoo;
use apnn_tc::nn::{CompileOptions, CompiledNet, NetPrecision};
use proptest::prelude::*;

/// Requests per round.
const N: usize = 7;
/// Compiled batch (shards are 1..=BATCH wide).
const BATCH: usize = 3;

struct Combo {
    label: String,
    plan: CompiledNet,
    /// N packed request images as one tensor (request i = image i).
    input: BitTensor4,
    /// Reference logits: fresh-workspace single-image inference.
    reference: Vec<Vec<i32>>,
    /// The long-lived reuse state: workspace, logits buffer, gather buffer.
    state: Mutex<(ExecWorkspace, Vec<i32>, BitTensor4)>,
}

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn combos() -> &'static [Combo] {
    static COMBOS: OnceLock<Vec<Combo>> = OnceLock::new();
    COMBOS.get_or_init(|| {
        let mut out = Vec::new();
        for net in servable_zoo() {
            for precision in [NetPrecision::w1a2(), NetPrecision::Apnn { w: 2, a: 2 }] {
                let plan = net.compile(precision, &CompileOptions::functional(BATCH, 2021));
                let mut seed = 0xBEEF ^ net.name.len() as u64 ^ precision.label().len() as u64;
                let codes = Tensor4::<u32>::from_fn(
                    N,
                    3,
                    net.input_h,
                    net.input_w,
                    Layout::Nhwc,
                    |_, _, _, _| (lcg(&mut seed) as u32) % 256,
                );
                let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
                let reference: Vec<Vec<i32>> = (0..N)
                    .map(|i| plan.infer(&input.batch_slice(i, 1)))
                    .collect();
                // Shallow nets must produce informative references; the
                // deep residual net's synthetic calibration may saturate a
                // whole request set to constant logits (see
                // `serve_differential.rs`) — its numerics are pinned by
                // the naive-oracle differential and the golden snapshots.
                if net.name != "ResNet18-Tiny" {
                    assert!(reference.iter().flatten().any(|&v| v != reference[0][0]));
                }
                let state = Mutex::new((
                    plan.workspace(),
                    Vec::new(),
                    BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne),
                ));
                out.push(Combo {
                    label: format!("{}@{}", net.name, precision.label()),
                    plan,
                    input,
                    reference,
                    state,
                });
            }
        }
        assert_eq!(out.len(), 6, "the harness must span the servable zoo");
        out
    })
}

/// Stable argsort of `ranks` — an arbitrary request interleaving.
fn permutation(ranks: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ranks.len()).collect();
    order.sort_by_key(|&i| (ranks[i], i));
    order
}

/// Cut the permuted request order into shards of the proposed sizes
/// (cycled, clamped to the compiled batch).
fn shard_plan(order: &[usize], sizes: &[usize], max: usize) -> Vec<Vec<usize>> {
    let mut shards = Vec::new();
    let mut at = 0;
    let mut s = 0;
    while at < order.len() {
        let len = sizes[s % sizes.len()].clamp(1, max).min(order.len() - at);
        shards.push(order[at..at + len].to_vec());
        at += len;
        s += 1;
    }
    shards
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random request interleavings, random shard widths, random
    /// plan-visitation order — every shard gathered into a reused buffer
    /// ([`BitTensor4::batch_gather_into`]) and executed through the
    /// combo's one long-lived workspace. Every request's logits must be
    /// bit-identical to the fresh-workspace reference, across cases (the
    /// workspaces survive the whole proptest run).
    #[test]
    fn interleaved_shards_through_one_workspace_match_fresh_inference(
        ranks in proptest::collection::vec(any::<u64>(), N),
        sizes in proptest::collection::vec(1usize..=BATCH, N),
        visit in proptest::collection::vec(0usize..6, 4),
    ) {
        let order = permutation(&ranks);
        for &ci in &visit {
            let combo = &combos()[ci];
            let shards = shard_plan(&order, &sizes, combo.plan.batch());
            let classes = combo.plan.classes();
            let mut state = combo.state.lock().unwrap_or_else(|e| e.into_inner());
            let (ws, out, gather) = &mut *state;
            for shard in &shards {
                combo.input.batch_gather_into(shard, gather);
                combo.plan.infer_into(&*gather, ws, out);
                prop_assert_eq!(out.len(), shard.len() * classes);
                for (j, &req) in shard.iter().enumerate() {
                    prop_assert_eq!(
                        &out[j * classes..(j + 1) * classes],
                        &combo.reference[req][..],
                        "{}: request {} differs (shard {:?})",
                        &combo.label,
                        req,
                        shard
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pool-reuse analogue of the workspace proptest: interleaving
    /// different request counts and thread counts through one long-lived
    /// [`apnn_tc::nn::WorkspacePool`] per combo must stay bit-identical to
    /// the fresh reference — pooled slots (workspace + staging tensor)
    /// must never leak state between the shards that borrow them.
    #[test]
    fn interleaved_batches_through_one_pool_match_fresh_inference(
        counts in proptest::collection::vec(1usize..=N, 6),
        threads in proptest::collection::vec(1usize..=4, 6),
        visit in proptest::collection::vec(0usize..6, 4),
    ) {
        for &ci in &visit {
            let combo = &combos()[ci];
            let classes = combo.plan.classes();
            let pool = combo.plan.workspace_pool(2);
            let mut out = Vec::new();
            for (&n, &t) in counts.iter().zip(&threads) {
                let slice = combo.input.batch_slice(0, n);
                combo.plan.infer_batched_into(&slice, &pool, t, &mut out);
                prop_assert_eq!(out.len(), n * classes);
                for req in 0..n {
                    prop_assert_eq!(
                        &out[req * classes..(req + 1) * classes],
                        &combo.reference[req][..],
                        "{}: request {} differs ({} requests, {} threads)",
                        &combo.label,
                        req,
                        n,
                        t
                    );
                }
            }
        }
    }
}

/// Deterministic spot check outside proptest: a reused workspace agrees
/// with a *fresh* workspace built mid-sequence — reuse adds nothing and
/// loses nothing.
#[test]
fn fresh_workspace_mid_sequence_agrees_with_reused() {
    let combo = &combos()[0];
    let mut reused = combo.plan.workspace();
    let mut out_reused = Vec::new();
    let mut out_fresh = Vec::new();
    for n in [3usize, 1, 2, 3] {
        let slice = combo.input.batch_slice(0, n);
        combo.plan.infer_into(&slice, &mut reused, &mut out_reused);
        let mut fresh = combo.plan.workspace();
        combo.plan.infer_into(&slice, &mut fresh, &mut out_fresh);
        assert_eq!(out_reused, out_fresh, "width {n}");
    }
}
