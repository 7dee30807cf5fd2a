//! The two serving workloads: `serve-vgg-tcp` (one light model over the
//! wire, two tenants) and `serve-mixed-plans` (seven plans in-process, no
//! wire), each at three open-loop rates interleaved with closed-loop
//! saturation blocks.

use std::sync::Arc;
use std::time::Instant;

use apnn_bitpack::BitTensor4;
use apnn_kernels::stats as kstats;
use apnn_nn::{
    models, CompileOptions, CompiledNet, LayerPrecision, NetPrecision, Network, PrecisionSchedule,
};
use apnn_serve::{
    serve_tcp, ModelKey, PlanRegistry, PlanSpec, QueuePolicy, Request, ServeConfig, ServeStats,
    Server, TcpServeHandle,
};

use crate::common::{
    images, json_num, median, percentile, reference_sets, split_images, Metrics, Rng, Spans,
    PLAN_SEED, WINDOWS,
};
use crate::layers::{self, Weighted};
use crate::load::{self, Arrival, Mix, Pace, PhaseReport, RatePhase, Traffic, Transport};
use crate::{Args, Outcome};

/// Compiled batch of every served plan (the coalescing limit).
pub const SERVE_BATCH: usize = 8;
/// Requests in flight in a saturation block: a full batch for each of the
/// two workers.
const SAT_WINDOW: usize = 2 * SERVE_BATCH;
/// Share of a run's `--seconds` given to the saturation blocks; the open
/// loop takes the rest.
const SAT_SHARE: f64 = 0.3;

/// A serving workload's fixed definition.
pub struct ServeWorkload {
    /// Keys and their relative popularity.
    keys: fn() -> Vec<(ModelKey, f64)>,
    tenants: &'static [(&'static str, i32)],
    tenant_weights: &'static [f64],
    /// Per-request expiry in submission ticks.
    deadline: Option<u64>,
    /// `low`/`mid`/`high` arrival rates (requests/s).
    pub rates: [f64; 3],
    /// Latency limit of `slo_met_share` and `max_rate_under_slo_rps` (ms).
    pub limit_ms: f64,
    /// Sizing estimate of the requests/s the server sustains, which sets
    /// the saturation blocks' request count.
    capacity_rps: f64,
    over_tcp: bool,
    policy: fn() -> QueuePolicy,
    /// Distinct seeded images the requests draw from.
    pool_images: usize,
}

/// VGG-Variant-Tiny w1a2 over one TCP connection: gold and bronze tenants
/// at 3:1 arrivals and 3:1 fair-queueing weights, bounded shedding lanes,
/// per-request deadlines.
pub const VGG_TCP: ServeWorkload = ServeWorkload {
    keys: || vec![(ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()), 1.0)],
    tenants: &[("gold", 1), ("bronze", 0)],
    tenant_weights: &[3.0, 1.0],
    deadline: Some(256),
    rates: [60.0, 120.0, 180.0],
    limit_ms: 50.0,
    capacity_rps: 450.0,
    over_tcp: true,
    policy: || {
        QueuePolicy::shedding(32)
            .weight("gold", 3)
            .weight("bronze", 1)
    },
    pool_images: 256,
};

/// Seven plans in-process with a fixed skewed popularity (Zipf, s = 1, in
/// the order listed), including the mixed w1a3/w1a2 ResNet18-Tiny
/// schedule. The three light plans (~4.5 ms per image) take 71 % of the
/// requests, so the median answer falls inside their cluster rather than
/// on the gap to the ResNet plans (12–20 ms), where it would jump with the
/// seed's key draws.
pub const MIXED: ServeWorkload = ServeWorkload {
    keys: mixed_keys,
    tenants: &[("default", 0)],
    tenant_weights: &[1.0],
    deadline: None,
    rates: [40.0, 70.0, 100.0],
    limit_ms: 100.0,
    capacity_rps: 200.0,
    over_tcp: false,
    policy: || QueuePolicy::shedding(32),
    pool_images: 64,
};

fn mixed_keys() -> Vec<(ModelKey, f64)> {
    let w2a2 = NetPrecision::Apnn { w: 2, a: 2 };
    let mut mixed = vec![LayerPrecision::new(1, 3); 20];
    mixed.push(LayerPrecision::new(1, 2));
    let keys = vec![
        ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()),
        ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2()),
        ModelKey::new("VGG-Variant-Tiny", w2a2),
        ModelKey::new("ResNet18-Tiny", NetPrecision::w1a2()),
        ModelKey::scheduled("ResNet18-Tiny", PrecisionSchedule::new(mixed)),
        ModelKey::new("AlexNet-Tiny", w2a2),
        ModelKey::new("ResNet18-Tiny", w2a2),
    ];
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, 1.0 / (i + 1) as f64))
        .collect()
}

/// A running server, ready for traffic.
pub struct Ready {
    pub server: Arc<Server>,
    pub tcp: Option<TcpServeHandle>,
    pub keys: Vec<ModelKey>,
    pub weights: Vec<f64>,
    pub plans: Vec<Arc<CompiledNet>>,
    /// Summed wall time of each key's first (compiling) registry lookup.
    pub first_get_s: f64,
    /// Process start → ready.
    pub setup_s: f64,
}

impl Ready {
    /// Stop the listener (joining its connection threads, which hold the
    /// last other references to the server), then the server's workers.
    pub fn shutdown(self) {
        if let Some(h) = self.tcp {
            h.shutdown();
        }
    }
}

/// Every plan compiled, every plan's workspace pool warmed by a burst of
/// requests, the listener up (TCP workloads).
pub fn setup(w: &ServeWorkload, start: Instant, seed: u64) -> Ready {
    let (keys, weights): (Vec<ModelKey>, Vec<f64>) = (w.keys)().into_iter().unzip();
    let server = Arc::new(Server::with_policy(
        PlanRegistry::zoo(SERVE_BATCH, PLAN_SEED),
        ServeConfig::default(),
        (w.policy)(),
    ));
    let mut first_get_s = 0.0;
    let mut plans = Vec::with_capacity(keys.len());
    for key in &keys {
        let t = Instant::now();
        plans.push(
            server
                .registry()
                .get(key)
                .expect("every benchmark key is servable"),
        );
        first_get_s += t.elapsed().as_secs_f64();
    }
    let mut rng = Rng::new(seed ^ 0x0005_E70B);
    for (key, plan) in keys.iter().zip(&plans) {
        let warm = split_images(&images(plan, 2 * ServeConfig::default().workers, &mut rng));
        let tickets: Vec<_> = warm
            .into_iter()
            .map(|img| {
                server
                    .submit_request(Request::new(key.clone(), img).tenant(w.tenants[0].0))
                    .expect("warm-up request admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("warm-up request served");
        }
    }
    let tcp = w
        .over_tcp
        .then(|| serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind a loopback listener"));
    Ready {
        server,
        tcp,
        keys,
        weights,
        plans,
        first_get_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// The workload's own transport to its server.
fn transport(ready: &Ready) -> Transport<'_> {
    match &ready.tcp {
        Some(h) => Transport::Tcp(h.addr()),
        None => Transport::InProcess(&ready.server),
    }
}

/// Seeded requests and their reference logits.
struct Inputs {
    images: Vec<BitTensor4>,
    refs: Vec<Vec<Vec<i32>>>,
}

fn inputs(w: &ServeWorkload, ready: &Ready, rng: &mut Rng) -> Inputs {
    let batch = images(&ready.plans[0], w.pool_images, rng);
    let jobs: Vec<(&CompiledNet, &BitTensor4)> =
        ready.plans.iter().map(|p| (&**p, &batch)).collect();
    let refs = reference_sets(&jobs);
    Inputs {
        images: split_images(&batch),
        refs,
    }
}

fn traffic<'a>(w: &ServeWorkload, ready: &'a Ready, inp: &'a Inputs) -> Traffic<'a> {
    Traffic {
        keys: &ready.keys,
        images: &inp.images,
        refs: &inp.refs,
        tenants: w.tenants,
        deadline: w.deadline,
    }
}

fn mix<'a>(w: &ServeWorkload, ready: &'a Ready, inp: &Inputs) -> Mix<'a> {
    Mix {
        key_weights: &ready.weights,
        tenant_weights: w.tenant_weights,
        n_images: inp.images.len(),
    }
}

/// One pass over the workload's own transport: the three open-loop rate
/// phases, cycled block by block, and with `sat_secs` a closed-loop
/// saturation block after every cycle ([`SAT_WINDOW`] requests in flight,
/// a fixed count per block sized to take about `sat_secs` in all at the
/// workload's sizing capacity). Interleaving spreads the saturation
/// blocks over the whole run, like the rate phases, so a slow stretch of
/// the host moves one block's figure rather than the phase's median.
fn pass(
    w: &ServeWorkload,
    ready: &Ready,
    inp: &Inputs,
    secs: f64,
    sat_secs: Option<f64>,
    rng: &mut Rng,
    spans: &mut Spans,
) -> Pass {
    let phases = load::phases(w.rates, secs);
    let mix = mix(w, ready, inp);
    let arrivals = load::schedule(&phases, rng, &mix);
    let closed = sat_secs.map(|s| {
        let per_block = ((w.capacity_rps * s / WINDOWS as f64).round() as usize).max(SAT_WINDOW);
        load::closed(per_block, rng, &mix)
    });
    let tr = traffic(w, ready, inp);
    let to = transport(ready);
    let mut sat_recs = Vec::new();
    let mut sat_rates = Vec::new();
    let recs = load::drive_blocks(&tr, &arrivals, &to, spans, |block| {
        let Some(closed) = &closed else { return };
        let mine: Vec<Arrival> = closed
            .iter()
            .filter(|a| a.block == block)
            .copied()
            .collect();
        let recs = load::drive(
            &tr,
            &mine,
            &to,
            Pace::Window(SAT_WINDOW),
            &mut Spans::new(false),
        );
        sat_rates.push(load::steady_rate(&recs, SAT_WINDOW));
        sat_recs.extend(recs);
    });
    let reports = load::summarize(&phases, &arrivals, &recs, w.limit_ms);
    let saturation = closed.map(|closed| {
        let phase = [RatePhase {
            name: "saturation",
            rate: 0.0,
            secs: 0.0,
            batch: 1,
        }];
        let mut rep = load::summarize(&phase, &closed, &sat_recs, w.limit_ms).remove(0);
        rep.secs = rep.busy_s.iter().sum();
        (rep, sat_rates)
    });
    Pass {
        arrivals,
        phases: reports,
        saturation,
    }
}

/// What one [`pass`] measured.
struct Pass {
    arrivals: Vec<Arrival>,
    phases: Vec<PhaseReport>,
    /// The saturation blocks' accounting and each block's steady-state
    /// goodput.
    saturation: Option<(PhaseReport, Vec<f64>)>,
}

pub fn run(w: &ServeWorkload, args: &Args, start: Instant) -> Outcome {
    let ready = setup(w, start, args.seed);
    let setup_s = ready.setup_s;
    let micro = (kstats::micro_benches(), kstats::micro_tunes());
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let inp = inputs(w, &ready, &mut rng.fork(1));
    if !args.trace {
        out.metrics.set(
            "setup_s",
            crate::setup_median(args, setup_s, &mut out.notes),
            "s",
        );
        let sat_secs = args.seconds * SAT_SHARE;
        let Pass {
            phases: mut reports,
            saturation,
            ..
        } = pass(
            w,
            &ready,
            &inp,
            args.seconds - sat_secs,
            Some(sat_secs),
            &mut rng.fork(2),
            &mut Spans::new(false),
        );
        let (sat, sat_rates) = saturation.expect("the pass ran saturation blocks");
        let list: Vec<String> = sat_rates.iter().map(|&r| json_num(r)).collect();
        out.notes.push(format!(
            "saturation {{\"steady_rps\": [{}]}}",
            list.join(", ")
        ));
        let m = &mut out.metrics;
        m.set("throughput_rps", median(&sat_rates), "1/s");
        m.set("slo_met_share.high", reports[2].slo_share(), "share");
        let best = load::best_under_slo(&reports).map_or(0.0, PhaseReport::goodput_rps);
        m.set("max_rate_under_slo_rps", best, "1/s");
        reports.push(sat);
        load::tally(&reports, "run", &mut out);
        ready.shutdown();
        return out;
    }

    // Traced run: the serve-tier passes, then the layer probes.
    let (u, t) = serve_layers(w, &ready, &inp, args.seconds / 2.0, &mut rng, &mut out);
    let m = &mut out.metrics;
    m.set("trace.overhead_pct", (t - u) / u * 100.0, "%");
    probe_plans(&ready, micro, &mut rng.fork(4), m);
    m.set("registry.first_get_s", ready.first_get_s, "s");
    m.set(
        "nn.pool_contended",
        ready.server.stats().workspace_contended as f64,
        "count",
    );
    ready.shutdown();
    out
}

/// The serve-tier part of a traced run on a ready server: an untraced and
/// a traced pass of `secs` each, then the traced pass's `mid` arrivals
/// replayed over the other transport (in-process for a TCP workload, a
/// fresh listener otherwise). Sets the `serve.*`, `registry.*` and `wire.*`
/// metrics, counts the three passes into `out`, and returns the `mid` p50
/// of the untraced and the traced pass.
fn serve_layers(
    w: &ServeWorkload,
    ready: &Ready,
    inp: &Inputs,
    secs: f64,
    rng: &mut Rng,
    out: &mut Outcome,
) -> (f64, f64) {
    let plain = pass(
        w,
        ready,
        inp,
        secs,
        None,
        &mut rng.fork(2),
        &mut Spans::new(false),
    )
    .phases;
    let before = ready.server.stats();
    let mut spans = Spans::new(true);
    let Pass {
        arrivals,
        phases: traced,
        ..
    } = pass(w, ready, inp, secs, None, &mut rng.fork(3), &mut spans);
    serve_stats(&before, &ready.server.stats(), &mut out.metrics);

    let mid_phase = [RatePhase {
        name: "mid",
        rate: w.rates[1],
        secs: secs / 3.0,
        batch: 1,
    }];
    let mid = rebase(&arrivals, 1, mid_phase[0].secs);
    let listener = ready.tcp.is_none().then(|| {
        serve_tcp(Arc::clone(&ready.server), "127.0.0.1:0").expect("bind a loopback listener")
    });
    let other = match &listener {
        Some(h) => Transport::Tcp(h.addr()),
        None => Transport::InProcess(&ready.server),
    };
    let recs = load::drive(
        &traffic(w, ready, inp),
        &mid,
        &other,
        Pace::Schedule,
        &mut spans,
    );
    if let Some(h) = listener {
        h.shutdown();
    }
    let replay = load::summarize(&mid_phase, &mid, &recs, w.limit_ms);
    let (tcp, local) = if w.over_tcp {
        (&traced[1], &replay[0])
    } else {
        (&replay[0], &traced[1])
    };
    let m = &mut out.metrics;
    m.set("wire.overhead_ms_p50.mid", tcp.p50() - local.p50(), "ms");
    let submit = spans.us("submit_request");
    m.set("serve.submit_us_p50", percentile(&submit, 50.0), "us");
    m.set("serve.submit_us_p99", percentile(&submit, 99.0), "us");
    let reqs: Vec<Request> = mid
        .iter()
        .take(64)
        .map(|a| Request::new(ready.keys[a.key].clone(), inp.images[a.image].clone()))
        .collect();
    layers::wire_codec(&reqs, m);
    let reg = ready.server.registry();
    m.set("registry.compiles", reg.compiles() as f64, "count");
    m.set("registry.hits", reg.hits() as f64, "count");

    let medians = (plain[1].p50(), traced[1].p50());
    load::tally(&plain, "untraced", out);
    load::tally(&traced, "traced", out);
    load::tally(&replay, "replay", out);
    medians
}

/// The arrivals of one phase, its blocks moved back to back from zero
/// (`secs`: the phase's length).
fn rebase(arrivals: &[Arrival], phase: usize, secs: f64) -> Vec<Arrival> {
    let len = secs / WINDOWS as f64;
    arrivals
        .iter()
        .filter(|a| a.phase == phase)
        .map(|a| {
            let block_start = a.block as f64 * len;
            Arrival {
                at: block_start + (a.at - a.block_start),
                phase: 0,
                block_start,
                ..*a
            }
        })
        .collect()
}

/// `apnn-serve` counters over one pass (`after` − `before`).
fn serve_stats(before: &ServeStats, after: &ServeStats, m: &mut Metrics) {
    let fill = |s: &ServeStats| -> (f64, f64) {
        s.batch_fill.iter().fold((0.0, 0.0), |(req, b), &(f, c)| {
            (req + (f as u64 * c) as f64, b + c as f64)
        })
    };
    let (r0, b0) = fill(before);
    let (r1, b1) = fill(after);
    m.set(
        "serve.mean_fill",
        (r1 - r0) / (b1 - b0).max(1.0),
        "requests",
    );
    m.set(
        "serve.batches",
        (after.batches - before.batches) as f64,
        "count",
    );
    m.set(
        "serve.queue_p99_ticks",
        after.p99_latency_ticks as f64,
        "ticks",
    );
    m.set("serve.shed", (after.shed - before.shed) as f64, "count");
    m.set(
        "serve.expired",
        (after.expired - before.expired) as f64,
        "count",
    );
}

/// Kernel, `apnn-nn` and popcount probes over the served plans, weighted
/// by key popularity, plus a timed recompile of each plan.
fn probe_plans(ready: &Ready, micro: (u64, u64), rng: &mut Rng, m: &mut Metrics) {
    let weighted: Vec<Weighted<'_>> = ready
        .plans
        .iter()
        .zip(&ready.weights)
        .map(|(p, &weight)| Weighted { plan: p, weight })
        .collect();
    let batch = images(&ready.plans[0], 64, rng);
    layers::kernel_and_nn(&weighted, &batch, rng, m);
    m.set(
        "bitpack.popcount_gbps",
        layers::popcount_gbps(&weighted, rng),
        "GB/s",
    );
    m.set("kernels.micro_benches", micro.0 as f64, "count");
    m.set("kernels.micro_tunes", micro.1 as f64, "count");
    m.set("nn.compile_s", compile_s(&ready.keys, SERVE_BATCH), "s");
}

/// Summed time to compile each key's plan directly, after setup (so the
/// microkernel tile memo is warm: the one-off tile measurement is counted
/// by `kernels.micro_benches`, not timed here).
pub fn compile_s(keys: &[ModelKey], batch: usize) -> f64 {
    let opts = CompileOptions::functional(batch, PLAN_SEED);
    keys.iter()
        .map(|k| {
            let net = network(&k.model);
            let t = Instant::now();
            let plan = match &k.spec {
                PlanSpec::Uniform(p) => net.compile(*p, &opts),
                PlanSpec::Scheduled(s) => net.compile_scheduled(s, &opts),
            };
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(plan);
            dt
        })
        .sum()
}

fn network(model: &str) -> Network {
    models::servable_zoo()
        .into_iter()
        .find(|n| n.name == model)
        .unwrap_or_else(|| panic!("`{model}` is not in the servable zoo"))
}

/// Setup without traffic, for the extra `setup_s` samples.
pub fn setup_only(w: &ServeWorkload, start: Instant, seed: u64) -> f64 {
    let ready = setup(w, start, seed);
    let s = ready.setup_s;
    ready.shutdown();
    s
}

/// The serve and wire probe of `offline-resnet18`, which does not itself
/// use the serve tier: its model behind a default server, at 30 req/s.
pub const OFFLINE_PROBE: ServeWorkload = ServeWorkload {
    keys: || vec![(ModelKey::new("ResNet18-Tiny", NetPrecision::w1a2()), 1.0)],
    tenants: &[("default", 0)],
    tenant_weights: &[1.0],
    deadline: None,
    rates: [30.0; 3],
    limit_ms: 1000.0,
    capacity_rps: 100.0,
    over_tcp: true,
    policy: QueuePolicy::backpressure,
    pool_images: 64,
};

/// The serve-tier passes of a traced run ([`serve_layers`], `secs` each)
/// on a fresh server set up for `w`.
pub fn serve_probe(w: &ServeWorkload, secs: f64, seed: u64, out: &mut Outcome) {
    let ready = setup(w, Instant::now(), seed);
    let mut rng = Rng::new(seed);
    let inp = inputs(w, &ready, &mut rng.fork(1));
    serve_layers(w, &ready, &inp, secs, &mut rng, out);
    ready.shutdown();
}
