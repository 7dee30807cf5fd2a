//! The repository benchmark: end-to-end metrics of three workloads over the
//! APNN-TC CPU inference and serving stack, and a traced run that times
//! each layer. See `README.md` in this directory for the workloads, the
//! metrics and the layer → metric map.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline-resnet18 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it are the run's provenance, per-phase accounting and health.

mod common;
mod layers;
mod load;
mod offline;
mod serving;

use std::process::{Command, ExitCode};
use std::time::Instant;

use apnn_bitpack::PopcntArm;

use common::{json_num, json_obj, json_str, median, result_line, Metrics};

const WORKLOADS: [&str; 3] = ["offline-resnet18", "serve-vgg-tcp", "serve-mixed-plans"];

/// Fresh processes that set up the workload from scratch, so `setup_s` is
/// a median of fresh-process set-ups (process-wide caches such as the
/// microkernel tile memo would make an in-process repeat cheaper): at
/// least [`MIN_EXTRA_SETUPS`], more while their summed set-up time is under
/// [`SETUP_BUDGET_S`], at most [`MAX_EXTRA_SETUPS`].
const MIN_EXTRA_SETUPS: usize = 8;
const MAX_EXTRA_SETUPS: usize = 24;
const SETUP_BUDGET_S: f64 = 3.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Report lines printed before the result line.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
        }
    }
}

/// Median of this process's own set-up time and the fresh processes'
/// set-up times; the samples go to `notes`.
pub fn setup_median(args: &Args, own: f64, notes: &mut Vec<String>) -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut samples = vec![own];
    let mut spent = 0.0;
    while samples.len() <= MIN_EXTRA_SETUPS
        || (spent < SETUP_BUDGET_S && samples.len() <= MAX_EXTRA_SETUPS)
    {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", "1", "--trace", "0", "--setup-only"])
            .output()
            .expect("run a set-up process");
        assert!(
            out.status.success(),
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("set-up process prints `setup_s <seconds>`");
        spent += value;
        samples.push(value);
    }
    let list: Vec<String> = samples.iter().map(|&s| json_num(s)).collect();
    notes.push(format!("setup {{\"samples_s\": [{}]}}", list.join(", ")));
    median(&samples)
}

/// Where and how this result was produced.
fn provenance(args: &Args) -> String {
    let flags = env!("E2EBENCH_RUSTFLAGS");
    let target_cpu = flags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let popcount_features: Vec<&str> = env!("E2EBENCH_TARGET_FEATURES")
        .split(',')
        .filter(|f| {
            matches!(
                *f,
                "popcnt" | "avx2" | "avx512f" | "avx512vpopcntdq" | "neon"
            )
        })
        .collect();
    json_obj(&[
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("traced", args.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("popcount_arm", json_str(PopcntArm::detect().label())),
        ("target_cpu", json_str(target_cpu)),
        ("rustflags", json_str(flags)),
        ("target_features", json_str(&popcount_features.join(","))),
        ("rustc", json_str(env!("E2EBENCH_RUSTC"))),
        ("git_rev", json_str(&git_rev())),
    ])
}

/// The checked-out commit (`none` outside a git checkout).
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_string(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let s = match args.workload.as_str() {
            "offline-resnet18" => offline::setup_only(start, args.seed),
            "serve-vgg-tcp" => serving::setup_only(&serving::VGG_TCP, start, args.seed),
            _ => serving::setup_only(&serving::MIXED, start, args.seed),
        };
        println!("setup_s {}", json_num(s));
        return ExitCode::SUCCESS;
    }
    let out = match args.workload.as_str() {
        "offline-resnet18" => offline::run(&args, start),
        "serve-vgg-tcp" => serving::run(&serving::VGG_TCP, &args, start),
        _ => serving::run(&serving::MIXED, &args, start),
    };
    println!("provenance {}", provenance(&args));
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
