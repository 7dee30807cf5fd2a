//! `offline-resnet18`: one closed-loop caller pushing seeded image batches
//! through ResNet18-Tiny w1a2 with `infer_batched_into` over two shard
//! threads and a warmed workspace pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use apnn_bitpack::BitTensor4;
use apnn_kernels::stats as kstats;
use apnn_nn::{CompiledNet, NetPrecision, WorkspacePool};
use apnn_serve::{ModelKey, PlanRegistry};

use crate::common::{images, reference_sets, verify, Rng, Spans, PLAN_SEED, WINDOWS};
use crate::layers::{self, Weighted};
use crate::load::{self, Arrival, PhaseReport, RatePhase, Record, Status};
use crate::serving;
use crate::{Args, Outcome};

/// Compiled batch: a 64-image call cuts into two 32-wide shards.
const PLAN_BATCH: usize = 32;
const SHARD_THREADS: usize = 2;
/// Closed-loop phases: images per call and share of the run. `high` is the
/// headline batch of `throughput_rps`.
const PHASES: [(&str, usize, f64); 3] = [("low", 16, 0.25), ("mid", 32, 0.25), ("high", 64, 0.5)];
/// Latency limit of one call (ms), for `slo_met_share.high` and
/// `max_rate_under_slo_rps`.
pub const LIMIT_MS: f64 = 1000.0;
/// Distinct seeded images the batches are cut from.
const POOL_IMAGES: usize = 256;
/// Length of each serve-tier pass of the traced run's probe.
const PROBE_SECS: f64 = 3.0;

fn key() -> ModelKey {
    ModelKey::new("ResNet18-Tiny", NetPrecision::w1a2())
}

pub struct Ready {
    plan: Arc<CompiledNet>,
    pool: WorkspacePool,
    first_get_s: f64,
    setup_s: f64,
}

/// The plan compiled (through the registry, as a server would load it) and
/// the two-workspace pool warmed by one full-width call.
pub fn setup(start: Instant, seed: u64) -> Ready {
    let registry = PlanRegistry::zoo(PLAN_BATCH, PLAN_SEED);
    let t = Instant::now();
    let plan = registry
        .get(&key())
        .expect("ResNet18-Tiny w1a2 is servable");
    let first_get_s = t.elapsed().as_secs_f64();
    let pool = plan.workspace_pool(SHARD_THREADS);
    let warm = images(&plan, 64, &mut Rng::new(seed ^ 0x0005_E70B));
    let mut out = Vec::new();
    plan.infer_batched_into(&warm, &pool, SHARD_THREADS, &mut out);
    Ready {
        plan,
        pool,
        first_get_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

pub fn setup_only(start: Instant, seed: u64) -> f64 {
    setup(start, seed).setup_s
}

/// The three phases interleaved in [`WINDOWS`] blocks (low, mid, high,
/// low, …) for `secs` in total, every output row checked against its
/// reference. As in the serving workloads, a slow stretch of the host then
/// lands in a block or two of each phase, and the phase figures are
/// medians over blocks. Each row is one request of the phase report, timed
/// by the call that produced it; a traced pass logs every call.
fn pass(
    ready: &Ready,
    pool_images: &BitTensor4,
    refs: &[Vec<i32>],
    secs: f64,
    spans: &mut Spans,
) -> Vec<PhaseReport> {
    let classes = ready.plan.classes();
    let phases: Vec<RatePhase> = PHASES
        .iter()
        .map(|&(name, batch, share)| RatePhase {
            name,
            rate: 0.0,
            secs: secs * share,
            batch,
        })
        .collect();
    let inputs: Vec<Vec<(usize, BitTensor4)>> = phases
        .iter()
        .map(|p| {
            (0..POOL_IMAGES / p.batch)
                .map(|i| (i * p.batch, pool_images.batch_slice(i * p.batch, p.batch)))
                .collect()
        })
        .collect();
    let mut arrivals = Vec::new();
    let mut recs = Vec::new();
    let mut out = Vec::new();
    let mut next = [0usize; 3];
    let t0 = Instant::now();
    let since = |t: Instant| (t - t0).as_secs_f64();
    for block in 0..WINDOWS {
        for (pi, p) in phases.iter().enumerate() {
            let end = Instant::now() + Duration::from_secs_f64(p.secs / WINDOWS as f64);
            let mut calls = 0;
            while calls == 0 || Instant::now() < end {
                let (first, x) = &inputs[pi][next[pi] % inputs[pi].len()];
                next[pi] += 1;
                calls += 1;
                let t = Instant::now();
                spans.time("infer_batched_into", || {
                    ready
                        .plan
                        .infer_batched_into(x, &ready.pool, SHARD_THREADS, &mut out)
                });
                let done = Instant::now();
                for (row, logits) in out.chunks(classes).enumerate() {
                    arrivals.push(Arrival {
                        at: since(t),
                        phase: pi,
                        block,
                        block_start: 0.0,
                        key: 0,
                        image: first + row,
                        tenant: 0,
                    });
                    recs.push(Record {
                        late: f64::NAN,
                        sent: since(t),
                        answered: since(done),
                        latency: (done - t).as_secs_f64(),
                        status: Status::of(verify(logits, &refs[first + row])),
                    });
                }
            }
        }
    }
    load::summarize(&phases, &arrivals, &recs, LIMIT_MS)
}

pub fn run(args: &Args, start: Instant) -> Outcome {
    let ready = setup(start, args.seed);
    let setup_s = ready.setup_s;
    let micro = (kstats::micro_benches(), kstats::micro_tunes());
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let pool_images = images(&ready.plan, POOL_IMAGES, &mut rng.fork(1));
    let refs = reference_sets(&[(&*ready.plan, &pool_images)]).remove(0);

    if !args.trace {
        out.metrics.set(
            "setup_s",
            crate::setup_median(args, setup_s, &mut out.notes),
            "s",
        );
        let phases = pass(
            &ready,
            &pool_images,
            &refs,
            args.seconds,
            &mut Spans::new(false),
        );
        let m = &mut out.metrics;
        m.set("throughput_rps", phases[2].rate_at_median(), "1/s");
        m.set("slo_met_share.high", phases[2].slo_share(), "share");
        let best = load::best_under_slo(&phases).map_or(0.0, PhaseReport::rate_at_median);
        m.set("max_rate_under_slo_rps", best, "1/s");
        load::tally(&phases, "run", &mut out);
        return out;
    }

    // Traced run: an untraced and a traced pass of half the length each,
    // then the layer probes, then the serve-tier passes on a fresh server
    // hosting the same model.
    let half = args.seconds / 2.0;
    let plain = pass(&ready, &pool_images, &refs, half, &mut Spans::new(false));
    let traced = pass(&ready, &pool_images, &refs, half, &mut Spans::new(true));
    let m = &mut out.metrics;
    let (u, t) = (plain[2].rate_at_median(), traced[2].rate_at_median());
    m.set("trace.overhead_pct", (u - t) / u * 100.0, "%");
    m.set(
        "nn.pool_contended",
        ready.pool.stats().contended as f64,
        "count",
    );
    let weighted = [Weighted {
        plan: &ready.plan,
        weight: 1.0,
    }];
    let mut prng = rng.fork(4);
    layers::kernel_and_nn(&weighted, &pool_images, &mut prng, m);
    m.set(
        "bitpack.popcount_gbps",
        layers::popcount_gbps(&weighted, &mut prng),
        "GB/s",
    );
    m.set("kernels.micro_benches", micro.0 as f64, "count");
    m.set("kernels.micro_tunes", micro.1 as f64, "count");
    m.set(
        "nn.compile_s",
        serving::compile_s(&[key()], PLAN_BATCH),
        "s",
    );
    m.set("registry.first_get_s", ready.first_get_s, "s");
    load::tally(&plain, "untraced", &mut out);
    load::tally(&traced, "traced", &mut out);
    serving::serve_probe(
        &serving::OFFLINE_PROBE,
        PROBE_SECS,
        args.seed ^ 0x9B0BE,
        &mut out,
    );
    out
}
