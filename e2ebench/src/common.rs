//! Seeded inputs, reference logits, percentiles and the result format
//! shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use apnn_bitpack::{BitTensor4, Encoding};
use apnn_nn::CompiledNet;

/// Weight seed of every compiled plan. Fixed, so the same model is under
/// test whatever `--seed` is; the seed only drives inputs and arrivals.
pub const PLAN_SEED: u64 = 2021;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (images, arrivals, …).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` seeded images shaped for the plan's first stage (32×32×3, 8-bit
/// codes for every servable model), packed as one batch tensor.
pub fn images(plan: &CompiledNet, n: usize, rng: &mut Rng) -> BitTensor4 {
    let (h, w, c, bits, enc) = plan
        .input_map_spec()
        .expect("servable plans take packed feature maps");
    let mut t = BitTensor4::zeros(n, h, w, c, bits, enc);
    fill_codes(&mut t, rng);
    t
}

/// Overwrite every code of `t` with a seeded value in its code range.
pub fn fill_codes(t: &mut BitTensor4, rng: &mut Rng) {
    let (n, h, w, c) = t.shape();
    let mask = if t.encoding() == Encoding::PlusMinusOne {
        1
    } else {
        (1u64 << t.bits()) - 1
    };
    for b in 0..n {
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    t.set_code(b, y, x, ch, (rng.next_u64() & mask) as u32);
                }
            }
        }
    }
}

/// Split a batch tensor into one-image request tensors.
pub fn split_images(batch: &BitTensor4) -> Vec<BitTensor4> {
    (0..batch.shape().0)
        .map(|i| batch.batch_slice(i, 1))
        .collect()
}

/// Reference logits of every image in `batch`, one row per image, from
/// the one-call [`CompiledNet::infer`] in compiled-batch chunks. Every
/// response the benchmark receives is compared bit-for-bit against these.
pub fn reference_logits(plan: &CompiledNet, batch: &BitTensor4) -> Vec<Vec<i32>> {
    let n = batch.shape().0;
    let classes = plan.classes();
    let width = plan.batch().max(1);
    let mut rows = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let len = (n - start).min(width);
        let logits = plan.infer(&batch.batch_slice(start, len));
        rows.extend(logits.chunks(classes).map(<[i32]>::to_vec));
        start += len;
    }
    rows
}

/// Reference logits for several plans at once, split over two threads.
pub fn reference_sets(jobs: &[(&CompiledNet, &BitTensor4)]) -> Vec<Vec<Vec<i32>>> {
    let mid = jobs.len().div_ceil(2);
    let (a, b) = jobs.split_at(mid);
    let run = |part: &[(&CompiledNet, &BitTensor4)]| -> Vec<Vec<Vec<i32>>> {
        part.iter().map(|(p, x)| reference_logits(p, x)).collect()
    };
    std::thread::scope(|s| {
        let hb = s.spawn(|| run(b));
        let mut out = run(a);
        out.extend(hb.join().expect("reference thread panicked"));
        out
    })
}

/// How one answered request compares with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct { collapsed: bool },
    Wrong,
}

pub fn verify(got: &[i32], want: &[i32]) -> Verdict {
    if got != want {
        Verdict::Wrong
    } else {
        Verdict::Correct {
            collapsed: got.iter().all(|&v| v == 0),
        }
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Blocks each phase is cut into (the run cycles through the phases block
/// by block) and its statistics reduced over by their median: the
/// reference host is a shared two-vCPU VM whose slow stretches last
/// seconds, and a stretch that lands in one or two blocks moves one or two
/// of the five values, not the median, while a change that affects the
/// whole phase moves all of them.
pub const WINDOWS: usize = 5;

/// Median over blocks of `f` of each non-empty block.
pub fn over_blocks(blocks: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| f(b))
        .collect();
    median(&per)
}

/// Share of `flags` (as 1.0 / 0.0) that are set.
pub fn share(flags: &[f64]) -> f64 {
    flags.iter().sum::<f64>() / flags.len().max(1) as f64
}

/// Median seconds of `f` over at least `min_reps` calls and `min_time`
/// of total work, after one untimed warm-up call.
pub fn time_median(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < min_time {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// The span log of a traced pass: the duration of every call the
/// benchmark makes into the stack, by the called function's name. A log
/// that is off only runs the calls.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    log: Vec<(&'static str, f64)>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            log: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, logging its duration under `name` when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.log.push((name, t.elapsed().as_secs_f64() * 1e6));
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        self.log.extend(other.log);
    }

    /// Durations logged under `name` (µs).
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.log
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, us)| us)
            .collect()
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Metrics of one run, by name: `(value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }
}

/// The last line of every run: the result object the benchmark contract
/// defines.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A flat JSON object from `(key, already-encoded value)` pairs.
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
