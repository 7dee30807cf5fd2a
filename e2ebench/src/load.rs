//! Request load and its accounting. Serving load is sent by one thread
//! and collected by another, over TCP or straight into
//! `Server::submit_request`, either open-loop (seeded Poisson arrivals at
//! fixed rates) or closed-loop (a fixed number of requests in flight). The
//! offline workload's calls are summarised by the same [`PhaseReport`].
//!
//! Open-loop requests are timed from their *scheduled* send time, so a
//! stall charges the wait it imposes on the requests behind it, and the
//! generator's own lateness is reported next to the latencies.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use apnn_bitpack::BitTensor4;
use apnn_serve::wire::{decode_response, encode_request, read_frame, write_frame};
use apnn_serve::{ModelKey, Request, ServeError, Server, Ticket};

use crate::common::{
    json_num, json_obj, json_str, median, over_blocks, percentile, share, sleep_until, verify, Rng,
    Spans, Verdict, WINDOWS,
};
use crate::Outcome;

/// One phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct RatePhase {
    pub name: &'static str,
    /// Offered requests/s (0 for a closed loop).
    pub rate: f64,
    pub secs: f64,
    /// Images per request.
    pub batch: usize,
}

/// Three equal-length one-image phases at the workload's `low`/`mid`/`high`
/// arrival rates.
pub fn phases(rates: [f64; 3], total_secs: f64) -> Vec<RatePhase> {
    ["low", "mid", "high"]
        .iter()
        .zip(rates)
        .map(|(&name, rate)| RatePhase {
            name,
            rate,
            secs: total_secs / 3.0,
            batch: 1,
        })
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Seconds after the start of the run (0 in a closed loop).
    pub at: f64,
    pub phase: usize,
    /// Which of the phase's [`WINDOWS`] blocks it belongs to.
    pub block: usize,
    /// When that block began (seconds after the start of the run).
    pub block_start: f64,
    pub key: usize,
    pub image: usize,
    pub tenant: usize,
}

/// Poisson arrivals with the phases interleaved: each phase is cut into
/// [`WINDOWS`] blocks and the run cycles low, mid, high, low, … so that a
/// slow stretch of the shared host lands in a block or two of every phase
/// rather than in the whole of one. Each block carries exactly its rate's
/// share of requests (at least one) at seeded uniform times — a Poisson
/// process conditioned on its count — so the offered load does not move
/// with the seed's luck. Keys and tenants come in their weights' exact
/// proportions in a seeded order, for the same reason; images are drawn
/// uniformly.
pub fn schedule(phases: &[RatePhase], rng: &mut Rng, mix: &Mix<'_>) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for block in 0..WINDOWS {
        for (phase, p) in phases.iter().enumerate() {
            let len = p.secs / WINDOWS as f64;
            let n = ((p.rate * len).round() as usize).max(1);
            let mut times: Vec<f64> = (0..n).map(|_| start + rng.unit() * len).collect();
            times.sort_by(f64::total_cmp);
            out.extend(mix.draw(&times, phase, block, start, rng));
            start += len;
        }
    }
    out
}

/// A closed loop's requests: [`WINDOWS`] blocks of `per_block` requests
/// each, keys and tenants in their weights' proportions as in
/// [`schedule`], all due at once (a [`Pace::Window`] releases them).
pub fn closed(per_block: usize, rng: &mut Rng, mix: &Mix<'_>) -> Vec<Arrival> {
    let times = vec![0.0; per_block];
    (0..WINDOWS)
        .flat_map(|block| mix.draw(&times, 0, block, 0.0, rng))
        .collect()
}

/// What a workload's requests are drawn from.
pub struct Mix<'a> {
    /// Relative popularity of each key.
    pub key_weights: &'a [f64],
    /// Relative arrival share of each tenant.
    pub tenant_weights: &'a [f64],
    /// Distinct images.
    pub n_images: usize,
}

impl Mix<'_> {
    /// Requests at `times` in one block of one phase.
    fn draw(
        &self,
        times: &[f64],
        phase: usize,
        block: usize,
        block_start: f64,
        rng: &mut Rng,
    ) -> Vec<Arrival> {
        let keys = deck(times.len(), self.key_weights, rng);
        let tenants = deck(times.len(), self.tenant_weights, rng);
        times
            .iter()
            .enumerate()
            .map(|(i, &at)| Arrival {
                at,
                phase,
                block,
                block_start,
                key: keys[i],
                image: rng.below(self.n_images),
                tenant: tenants[i],
            })
            .collect()
    }
}

/// `n` indices into `weights`, each appearing in proportion to its weight
/// (largest-remainder rounding), in a seeded random order.
fn deck(n: usize, weights: &[f64], rng: &mut Rng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut cards: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.below(i + 1));
    }
    cards
}

/// What the requests carry and what their answers must be.
pub struct Traffic<'a> {
    pub keys: &'a [ModelKey],
    pub images: &'a [BitTensor4],
    /// `refs[key][image]`: reference logits.
    pub refs: &'a [Vec<Vec<i32>>],
    /// `(tenant, priority)`.
    pub tenants: &'a [(&'static str, i32)],
    /// Per-request expiry in submission ticks.
    pub deadline: Option<u64>,
}

impl Traffic<'_> {
    fn request(&self, a: &Arrival) -> Request {
        let (tenant, priority) = self.tenants[a.tenant];
        let req = Request::new(self.keys[a.key].clone(), self.images[a.image].clone())
            .tenant(tenant)
            .priority(priority);
        match self.deadline {
            Some(d) => req.deadline(d),
            None => req,
        }
    }

    fn classify(&self, a: &Arrival, res: Result<Vec<i32>, ServeError>) -> Status {
        match res {
            Ok(logits) => Status::of(verify(&logits, &self.refs[a.key][a.image])),
            Err(ServeError::Shed { .. }) => Status::Shed,
            Err(ServeError::Expired { .. }) => Status::Expired,
            Err(_) => Status::Error,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok {
        collapsed: bool,
    },
    Wrong,
    Shed,
    Expired,
    Error,
    /// No answer arrived before the collector gave up.
    Missing,
}

impl Status {
    pub fn of(v: Verdict) -> Status {
        match v {
            Verdict::Correct { collapsed } => Status::Ok { collapsed },
            Verdict::Wrong => Status::Wrong,
        }
    }
}

/// The measured fate of one request. Times are seconds.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// How far behind schedule the sender sent it (NaN in a closed loop).
    pub late: f64,
    /// When it was sent, after the start of the run (NaN if never).
    pub sent: f64,
    /// When its answer arrived, after the start of the run.
    pub answered: f64,
    /// Scheduled send (open loop) or send (closed loop) → verified answer.
    pub latency: f64,
    pub status: Status,
}

/// Where requests go.
pub enum Transport<'a> {
    Tcp(SocketAddr),
    InProcess(&'a Server),
}

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each at its scheduled time (open loop).
    Schedule,
    /// As answers come back, with this many in flight (closed loop).
    Window(usize),
}

/// How long the collector waits for an answer after the last send, and
/// a closed-loop sender for a free slot, before giving up.
const COLLECT_GRACE: Duration = Duration::from_secs(10);

/// Send `arrivals` and collect every answer. A traced pass (`spans` on)
/// logs each call into the stack: `submit_request` and `try_get`
/// in-process, `encode_request` + `write_frame` and `decode_response` over
/// TCP.
pub fn drive(
    traffic: &Traffic<'_>,
    arrivals: &[Arrival],
    transport: &Transport<'_>,
    pace: Pace,
    spans: &mut Spans,
) -> Vec<Record> {
    let n = arrivals.len();
    let t0 = Instant::now() + Duration::from_millis(20);
    // Free in-flight slots of a closed loop: the collector returns one per
    // answer.
    let (slots, free) = mpsc::channel::<()>();
    let window = match pace {
        Pace::Schedule => false,
        Pace::Window(c) => {
            for _ in 0..c {
                slots.send(()).expect("the slot queue is open");
            }
            true
        }
    };
    // Wait for the scheduled time or a free slot; false: stop sending.
    let release = move |a: &Arrival| -> bool {
        if window && free.recv_timeout(COLLECT_GRACE).is_err() {
            return false;
        }
        sleep_until(t0 + Duration::from_secs_f64(a.at));
        true
    };
    let answered = move || {
        if window {
            let _ = slots.send(());
        }
    };
    let ((sent, s1), (done, s2)) = match transport {
        Transport::Tcp(addr) => drive_tcp(traffic, arrivals, *addr, release, answered, spans.on()),
        Transport::InProcess(server) => {
            drive_in_process(traffic, arrivals, server, release, answered, spans.on())
        }
    };
    spans.absorb(s1);
    spans.absorb(s2);
    (0..n)
        .map(|i| {
            let due = t0 + Duration::from_secs_f64(arrivals[i].at);
            let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
            let origin = if window { sent[i] } else { Some(due) };
            let late = match (window, sent[i]) {
                (false, Some(s)) => s.saturating_duration_since(due).as_secs_f64(),
                _ => f64::NAN,
            };
            match (done[i], origin) {
                (Some((at, status)), Some(o)) => Record {
                    late,
                    sent: sent[i].map_or(f64::NAN, since),
                    answered: since(at),
                    latency: at.saturating_duration_since(o).as_secs_f64(),
                    status,
                },
                _ => Record {
                    late,
                    sent: sent[i].map_or(f64::NAN, since),
                    answered: f64::INFINITY,
                    latency: f64::INFINITY,
                    status: Status::Missing,
                },
            }
        })
        .collect()
}

/// [`drive`] `arrivals` one block at a time — block 0 of every phase, then
/// block 1, … — each cycle its own call with its times moved to start at
/// zero, and `between(block)` after each cycle, so that other load can run
/// between cycles. The records come back in `arrivals` order; their times
/// count from the start of their own cycle.
pub fn drive_blocks(
    traffic: &Traffic<'_>,
    arrivals: &[Arrival],
    transport: &Transport<'_>,
    spans: &mut Spans,
    mut between: impl FnMut(usize),
) -> Vec<Record> {
    let mut recs = vec![None; arrivals.len()];
    for block in 0..WINDOWS {
        let idx: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].block == block)
            .collect();
        let start = idx
            .iter()
            .map(|&i| arrivals[i].block_start)
            .fold(f64::INFINITY, f64::min);
        let cycle: Vec<Arrival> = idx
            .iter()
            .map(|&i| Arrival {
                at: arrivals[i].at - start,
                ..arrivals[i]
            })
            .collect();
        for (r, &i) in drive(traffic, &cycle, transport, Pace::Schedule, spans)
            .into_iter()
            .zip(&idx)
        {
            recs[i] = Some(r);
        }
        between(block);
    }
    recs.into_iter()
        .map(|r| r.expect("every arrival belongs to a block"))
        .collect()
}

type Sent = (Vec<Option<Instant>>, Spans);
type Done = (Vec<Option<(Instant, Status)>>, Spans);

fn drive_tcp(
    traffic: &Traffic<'_>,
    arrivals: &[Arrival],
    addr: SocketAddr,
    release: impl FnMut(&Arrival) -> bool + Send,
    answered: impl Fn() + Send,
    traced: bool,
) -> (Sent, Done) {
    let n = arrivals.len();
    let stream = TcpStream::connect(addr).expect("connect to the benchmark's own listener");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_write_timeout(Some(COLLECT_GRACE))
        .expect("set write timeout");
    let mut reader = stream.try_clone().expect("clone the TCP stream");
    reader
        .set_read_timeout(Some(COLLECT_GRACE))
        .expect("set read timeout");
    let mut release = release;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut writer = &stream;
            let mut spans = Spans::new(traced);
            let mut sent = vec![None; n];
            for (i, a) in arrivals.iter().enumerate() {
                if !release(a) {
                    break;
                }
                let req = traffic.request(a);
                let payload = spans.time("encode_request", || encode_request(i as u64, &req));
                sent[i] = Some(Instant::now());
                if spans
                    .time("write_frame", || write_frame(&mut writer, &payload))
                    .is_err()
                {
                    break;
                }
            }
            (sent, spans)
        });
        let receiver = s.spawn(move || {
            let mut spans = Spans::new(traced);
            let mut done: Vec<Option<(Instant, Status)>> = vec![None; n];
            let mut got = 0;
            while got < n {
                let Ok(Some(payload)) = read_frame(&mut reader) else {
                    break;
                };
                let now = Instant::now();
                let Ok((id, res)) = spans.time("decode_response", || decode_response(&payload))
                else {
                    break;
                };
                let Some(slot) = done.get_mut(id as usize) else {
                    break;
                };
                if slot.is_none() {
                    *slot = Some((now, traffic.classify(&arrivals[id as usize], res)));
                    got += 1;
                    answered();
                }
            }
            (done, spans)
        });
        let sent = sender.join().expect("sender thread panicked");
        let done = receiver.join().expect("receiver thread panicked");
        (sent, done)
    })
}

enum Msg {
    Pending(usize, Ticket),
    Done(usize, Instant, Status),
}

fn drive_in_process(
    traffic: &Traffic<'_>,
    arrivals: &[Arrival],
    server: &Server,
    release: impl FnMut(&Arrival) -> bool + Send,
    answered: impl Fn() + Send,
    traced: bool,
) -> (Sent, Done) {
    let n = arrivals.len();
    let (tx, rx) = mpsc::channel::<Msg>();
    let mut release = release;
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut spans = Spans::new(traced);
            let mut sent = vec![None; n];
            for (i, a) in arrivals.iter().enumerate() {
                if !release(a) {
                    break;
                }
                let req = traffic.request(a);
                sent[i] = Some(Instant::now());
                let msg = match spans.time("submit_request", || server.submit_request(req)) {
                    Ok(ticket) => Msg::Pending(i, ticket),
                    Err(e) => Msg::Done(i, Instant::now(), traffic.classify(a, Err(e))),
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            (sent, spans)
        });
        let collector = s.spawn(move || {
            let mut spans = Spans::new(traced);
            let mut done: Vec<Option<(Instant, Status)>> = vec![None; n];
            let mut pending: Vec<(usize, Ticket)> = Vec::new();
            let mut open = true;
            let mut last_progress = Instant::now();
            loop {
                // Take everything the sender has handed over.
                loop {
                    let msg = if pending.is_empty() && open {
                        match rx.recv() {
                            Ok(m) => m,
                            Err(_) => {
                                open = false;
                                break;
                            }
                        }
                    } else {
                        match rx.try_recv() {
                            Ok(m) => m,
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                open = false;
                                break;
                            }
                        }
                    };
                    match msg {
                        Msg::Pending(i, t) => pending.push((i, t)),
                        Msg::Done(i, at, status) => {
                            done[i] = Some((at, status));
                            answered();
                        }
                    }
                }
                let before = pending.len();
                pending.retain(
                    |(i, ticket)| match spans.time("try_get", || ticket.try_get()) {
                        Some(res) => {
                            done[*i] = Some((Instant::now(), traffic.classify(&arrivals[*i], res)));
                            answered();
                            false
                        }
                        None => true,
                    },
                );
                if pending.len() < before {
                    last_progress = Instant::now();
                }
                if pending.is_empty() && !open {
                    break;
                }
                if !open && last_progress.elapsed() > COLLECT_GRACE {
                    break;
                }
                if pending.len() == before {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            (done, spans)
        });
        let sent = sender.join().expect("sender thread panicked");
        let done = collector.join().expect("collector thread panicked");
        (sent, done)
    })
}

/// The accounting of one phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub rate: f64,
    pub secs: f64,
    pub batch: usize,
    pub sent: usize,
    pub ok: usize,
    pub collapsed: usize,
    pub wrong: usize,
    pub shed: usize,
    pub expired: usize,
    pub errors: usize,
    pub missing: usize,
    /// Per block, in send order: latencies of correct answers (ms).
    pub lat_ms: Vec<Vec<f64>>,
    /// Per block, per request sent: 1.0 if answered correctly within the
    /// latency limit, else 0.0.
    pub met: Vec<Vec<f64>>,
    /// Per block: median latency of its last quarter minus its first
    /// quarter (ms).
    pub growth_ms: Vec<f64>,
    /// Per block: wall time from its first send to its last answer (s).
    pub busy_s: Vec<f64>,
    /// Sender lateness (ms).
    pub late_ms: Vec<f64>,
    pub limit_ms: f64,
}

impl PhaseReport {
    pub fn failed(&self) -> usize {
        self.wrong + self.shed + self.expired + self.errors + self.missing
    }

    /// Correct answers per second of the phase's wall time.
    pub fn goodput_rps(&self) -> f64 {
        self.ok as f64 / self.busy_s.iter().sum::<f64>().max(f64::MIN_POSITIVE)
    }

    /// Images per second of a request of [`Self::batch`] images at the
    /// median latency (the offline figure).
    pub fn rate_at_median(&self) -> f64 {
        self.batch as f64 / (self.p50() / 1e3)
    }

    /// Median over the phase's blocks of each block's p50.
    pub fn p50(&self) -> f64 {
        over_blocks(&self.lat_ms, |b| percentile(b, 50.0))
    }

    /// Median over the phase's blocks of each block's p99.
    pub fn p99(&self) -> f64 {
        over_blocks(&self.lat_ms, |b| percentile(b, 99.0))
    }

    /// Share of requests sent answered correctly within the limit.
    pub fn slo_share(&self) -> f64 {
        let met: f64 = self.met.iter().flatten().sum();
        met / self.sent.max(1) as f64
    }

    /// The queue was still growing: in the median block, the last
    /// quarter's median latency exceeds the first quarter's by more than
    /// half the limit.
    pub fn backlog_growing(&self) -> bool {
        median(&self.growth_ms) > self.limit_ms / 2.0
    }

    /// At least 99 % of requests meet the limit (median over blocks) and
    /// the backlog is not growing.
    pub fn meets_slo(&self) -> bool {
        over_blocks(&self.met, share) >= 0.99 && !self.backlog_growing()
    }

    /// The sender fell behind its schedule by more than a tenth of the
    /// latency limit at p99: the phase's latencies then include the
    /// generator's own delay and are not the system's alone.
    pub fn generator_behind(&self) -> bool {
        percentile(&self.late_ms, 99.0) > 0.1 * self.limit_ms
    }

    pub fn json(&self, label: &str) -> String {
        json_obj(&[
            ("phase", json_str(&format!("{label}.{}", self.name))),
            ("rate_rps", json_num(self.rate)),
            ("batch", self.batch.to_string()),
            ("offered_rps", json_num(self.sent as f64 / self.secs)),
            ("goodput_rps", json_num(self.goodput_rps())),
            ("sent", self.sent.to_string()),
            ("ok", self.ok.to_string()),
            ("collapsed", self.collapsed.to_string()),
            ("wrong", self.wrong.to_string()),
            ("shed", self.shed.to_string()),
            ("expired", self.expired.to_string()),
            ("errors", self.errors.to_string()),
            ("missing", self.missing.to_string()),
            ("p50_ms", json_num(self.p50())),
            ("p99_ms", json_num(self.p99())),
            ("slo_share", json_num(self.slo_share())),
            ("late_p99_ms", json_num(percentile(&self.late_ms, 99.0))),
            ("late_max_ms", json_num(percentile(&self.late_ms, 100.0))),
            ("generator_behind", self.generator_behind().to_string()),
            ("backlog_growing", self.backlog_growing().to_string()),
        ])
    }
}

pub fn summarize(
    phases: &[RatePhase],
    arrivals: &[Arrival],
    recs: &[Record],
    limit_ms: f64,
) -> Vec<PhaseReport> {
    phases
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let mut rep = PhaseReport {
                name: p.name,
                rate: p.rate,
                secs: p.secs,
                batch: p.batch,
                sent: 0,
                ok: 0,
                collapsed: 0,
                wrong: 0,
                shed: 0,
                expired: 0,
                errors: 0,
                missing: 0,
                lat_ms: vec![Vec::new(); WINDOWS],
                met: vec![Vec::new(); WINDOWS],
                growth_ms: Vec::with_capacity(WINDOWS),
                busy_s: vec![0.0; WINDOWS],
                late_ms: Vec::new(),
                limit_ms,
            };
            for block in 0..WINDOWS {
                let mine: Vec<&Record> = arrivals
                    .iter()
                    .zip(recs)
                    .filter(|(a, _)| a.phase == pi && a.block == block)
                    .map(|(_, r)| r)
                    .collect();
                let mut first_sent = f64::INFINITY;
                let mut last_answer = f64::NEG_INFINITY;
                for r in &mine {
                    rep.sent += 1;
                    if r.late.is_finite() {
                        rep.late_ms.push(r.late * 1e3);
                    }
                    if r.sent.is_finite() {
                        first_sent = first_sent.min(r.sent);
                    }
                    let ok = matches!(r.status, Status::Ok { .. });
                    rep.met[block].push(f64::from(u8::from(ok && r.latency * 1e3 <= limit_ms)));
                    match r.status {
                        Status::Ok { collapsed } => {
                            rep.ok += 1;
                            rep.collapsed += usize::from(collapsed);
                            rep.lat_ms[block].push(r.latency * 1e3);
                            last_answer = last_answer.max(r.answered);
                        }
                        Status::Wrong => rep.wrong += 1,
                        Status::Shed => rep.shed += 1,
                        Status::Expired => rep.expired += 1,
                        Status::Error => rep.errors += 1,
                        Status::Missing => rep.missing += 1,
                    }
                }
                rep.busy_s[block] = (last_answer - first_sent).max(0.0);
                let q = mine.len() / 4;
                if q >= 2 {
                    let lat = |rs: &[&Record]| -> Vec<f64> {
                        rs.iter().map(|r| (r.latency * 1e3).min(1e9)).collect()
                    };
                    let first = percentile(&lat(&mine[..q]), 50.0);
                    let last = percentile(&lat(&mine[mine.len() - q..]), 50.0);
                    rep.growth_ms.push(last - first);
                }
            }
            rep
        })
        .collect()
}

/// Count a pass's phases into the run's result and print their
/// accounting: one `phase` line each and a `health` line for the pass.
pub fn tally(reports: &[PhaseReport], label: &str, out: &mut Outcome) {
    for r in reports {
        out.attempted += r.sent as u64;
        out.failed += r.failed() as u64;
        out.correct &= r.wrong == 0 && r.missing == 0;
        out.notes.push(format!("phase {}", r.json(label)));
    }
    let sent: usize = reports.iter().map(|r| r.sent).sum();
    let collapsed: usize = reports.iter().map(|r| r.collapsed).sum();
    let failed: usize = reports.iter().map(PhaseReport::failed).sum();
    out.notes.push(format!(
        "health {{\"pass\": \"{label}\", \"failed_share\": {}, \"collapsed_share\": {}}}",
        json_num(failed as f64 / sent.max(1) as f64),
        json_num(collapsed as f64 / sent.max(1) as f64)
    ));
}

/// Correct answers per second of a closed-loop block in steady state:
/// over their arrival times, less the first and last `edge` (the loop
/// filling and draining).
pub fn steady_rate(recs: &[Record], edge: usize) -> f64 {
    let mut t: Vec<f64> = recs
        .iter()
        .filter(|r| matches!(r.status, Status::Ok { .. }))
        .map(|r| r.answered)
        .collect();
    t.sort_by(f64::total_cmp);
    let t = &t[edge.min(t.len())..t.len().saturating_sub(edge)];
    if t.len() < 2 {
        return 0.0;
    }
    (t.len() - 1) as f64 / (t[t.len() - 1] - t[0])
}

/// The highest phase that meets the latency limit, if any.
pub fn best_under_slo(reports: &[PhaseReport]) -> Option<&PhaseReport> {
    reports.iter().rev().find(|r| r.meets_slo())
}
