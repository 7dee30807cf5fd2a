//! The compilation layer: one executable plan for simulation *and* real
//! inference.
//!
//! [`CompiledNet::compile`] lowers a [`Network`] + [`NetPrecision`] through
//! the §5.2 fusion pass into a list of [`PlanStage`]s, materializing every
//! per-call invariant once:
//!
//! * emulation-plan selection (§3.2) and autotuned tiles (§4.3) per main
//!   stage;
//! * packed weights, padding patterns and correction vectors (via the
//!   prepared kernels of `apnn-kernels`);
//! * parameterized epilogues (BN/ReLU/quantize chains with concrete
//!   scales).
//!
//! The *same* plan then runs on either engine through the [`Engine`] trait:
//!
//! * [`SimEngine`] prices every stage on the `apnn-sim` cost model and
//!   returns the [`NetworkReport`] behind Tables 2/3 and Fig. 9 — this is
//!   what [`crate::exec::simulate`] now does under the hood;
//! * [`CpuEngine`] executes the plan functionally over bit-packed
//!   activations (the §5.1 minimal-traffic dataflow), producing real
//!   logits; repeated [`CompiledNet::infer`] calls reuse the compiled
//!   artifacts — no weight re-packing, no re-autotuning — and
//!   [`CompiledNet::infer_batched_into`] shards large request batches over
//!   the Rayon pool.

use apnn_bitpack::word::pad_to_bmma_k;
use apnn_bitpack::{BitPlanes, BitTensor4, Encoding, PopcntArm};
use apnn_kernels::apconv::cpu::{pool2_i32, ConvScratch};
use apnn_kernels::apconv::simmap::{estimate_with_efficiency as conv_estimate, ActLayout};
use apnn_kernels::apconv::{ApConv, ConvDesc, ConvWeights, Pool2, PreparedConv};
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::simmap::{estimate_with_efficiency as apmm_estimate, APMM_TC_EFFICIENCY};
use apnn_kernels::apmm::{Apmm, ApmmDesc, PreparedApmm, TileConfig};
use apnn_kernels::autotune::{autotune, autotune_micro, MicroTile};
use apnn_kernels::baselines::conv::{conv_report, ConvShape};
use apnn_kernels::baselines::gemm::gemm_report;
use apnn_kernels::baselines::BNN_KERNEL_EFFICIENCY;
use apnn_kernels::fusion::{Epilogue, EpilogueOp};
use apnn_kernels::stats as kstats;
use apnn_sim::GpuSpec;
use rayon::prelude::*;

use crate::exec::{price_elementwise, price_input_pack, tail_epilogue, NetworkReport, StageReport};
use crate::fuse::{fuse_network, EwKind, FusedTail, MainOp, ResidualSrc, Stage, StageSrc};
use crate::net::Network;
use crate::pool::WorkspacePool;
use crate::precision::{NetPrecision, PrecisionSchedule};

/// How much of the plan to materialize at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialize {
    /// Shapes, tiles and cost-shaped epilogues only — enough to price the
    /// plan on [`SimEngine`]. No weights are packed (an ImageNet-scale zoo
    /// model compiles in microseconds).
    SimOnly,
    /// Additionally synthesize, pack and prepare weights + epilogue
    /// parameters (seeded, reproducible), so the plan also runs on
    /// [`CpuEngine`].
    Functional {
        /// Seed for the synthetic weights/parameters.
        seed: u64,
    },
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Batch size baked into the plan (sharding granularity for serving).
    pub batch: usize,
    /// Apply the §5.2 semantic-aware fusion pass.
    pub fuse: bool,
    /// Materialization level.
    pub materialize: Materialize,
}

impl CompileOptions {
    /// Simulation-only plan at `batch` with the fusion pass applied.
    /// Fusion defaults belong to the caller that knows the precision —
    /// [`crate::exec::simulate`] derives them exactly as before the
    /// refactor (emulated APNN schemes fuse; baselines and BNN do not).
    pub fn sim(batch: usize) -> Self {
        CompileOptions {
            batch,
            fuse: true,
            materialize: Materialize::SimOnly,
        }
    }

    /// Functional plan at `batch` with seeded synthetic parameters.
    pub fn functional(batch: usize, seed: u64) -> Self {
        CompileOptions {
            batch,
            fuse: true,
            materialize: Materialize::Functional { seed },
        }
    }
}

/// Decoded synthetic initialization kept alongside a functional stage so
/// oracle tests can rebuild the layer-by-layer naive reference.
#[derive(Debug, Clone)]
pub struct MainInit {
    /// Decoded weight values in `(cout, kh·kw·cin)` / `(out, in)` order
    /// (±1 for sign-encoded weights, unsigned code values otherwise).
    pub w_vals: Vec<i32>,
}

/// The compiled kernel of a main stage.
#[derive(Debug, Clone)]
pub enum MainKernel {
    /// Emulated arbitrary-precision convolution.
    Conv {
        /// Shape + precision (batch = compiled batch).
        desc: ConvDesc,
        /// Tile chosen at compile time (§4.3.2).
        tile: TileConfig,
        /// CPU microkernel `(JB, KB)` tile chosen at compile time (the
        /// shape-keyed `select_micro` memo — measured on the selected
        /// popcount arm by default, heuristic under `APNN_MICRO_SELECT=
        /// heuristic`): output channels share each loaded window word in
        /// `micro.jb`-wide blocks, K walks in `micro.kb`-word rounds.
        /// Surfaced here (and in the plan's `Debug` output) so the
        /// per-layer choice is inspectable.
        micro: MicroTile,
        /// Popcount arm the microkernel dispatches to, detected once at
        /// compile time (`PopcntArm::detect`).
        arm: PopcntArm,
        /// Packed weights + padding plan (functional plans only).
        prepared: Option<PreparedConv>,
    },
    /// Emulated arbitrary-precision GEMM.
    Linear {
        /// Shape + precision (n = compiled batch).
        desc: ApmmDesc,
        /// Tile chosen at compile time.
        tile: TileConfig,
        /// CPU microkernel `(JB, KB)` tile chosen at compile time: batch
        /// columns share each loaded weight word in `micro.jb`-wide
        /// blocks.
        micro: MicroTile,
        /// Popcount arm the microkernel dispatches to, detected once at
        /// compile time (`PopcntArm::detect`).
        arm: PopcntArm,
        /// Packed weights + correction vectors (functional plans only).
        prepared: Option<PreparedApmm>,
    },
    /// Library baseline kernel (fp32/fp16/int8) — priced, never executed
    /// functionally.
    Baseline,
}

/// One compiled main (tensor-core) stage.
#[derive(Debug, Clone)]
pub struct MainStage {
    /// Display name (layer name).
    pub name: String,
    /// The op with resolved shapes.
    pub op: MainOp,
    /// Fused 2×2 pooling.
    pub pool: Option<Pool2>,
    /// Fused element-wise epilogue (parameterized when functional).
    pub epi: Epilogue,
    /// The compiled kernel.
    pub kernel: MainKernel,
    /// Synthetic init for oracle cross-checks (functional plans only).
    pub init: Option<MainInit>,
    /// Where the stage reads its input: the chain (previous stage's
    /// output) or the saved residual branch (skip-path projections).
    pub input: StageSrc,
    /// Capture this stage's packed output as the residual branch.
    pub save_branch: bool,
    /// Residual added into the raw i32 accumulators *before* the fused
    /// epilogue — the exact-i32 requantization contract
    /// (`quantize(bn_relu(acc + residual))`, no intermediate rounding).
    pub residual: Option<ResidualSrc>,
}

/// Why a compiled plan cannot run on [`CpuEngine`] — the typed form of
/// [`CompiledNet::is_executable`], naming the offending stage.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An element-wise stage survived lowering (big pools, bare residual
    /// adds, …); the functional engine only runs fully-fused plans.
    UnfusedStage {
        /// Offending stage (layer) name.
        name: String,
        /// The element-wise kind that failed to fuse.
        kind: EwKind,
    },
    /// The stage was lowered to a library-baseline kernel (fp32 / fp16 /
    /// int8) — priced by the simulator, never executed.
    BaselineStage {
        /// Offending stage name.
        name: String,
    },
    /// The stage carries no packed weights (sim-only materialization).
    MissingWeights {
        /// Offending stage name.
        name: String,
    },
    /// The plan has no main stage at all.
    NoMainStage,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnfusedStage { name, kind } => write!(
                f,
                "stage `{name}` ({kind:?}) did not fuse into a main stage"
            ),
            CompileError::BaselineStage { name } => write!(
                f,
                "stage `{name}` compiled to a library baseline kernel (priced, never executed)"
            ),
            CompileError::MissingWeights { name } => write!(
                f,
                "stage `{name}` has no materialized weights (sim-only plan)"
            ),
            CompileError::NoMainStage => write!(f, "the plan has no main stage"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One stage of a compiled plan.
// Plans hold a handful of stages; boxing `MainStage` would only add
// indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlanStage {
    /// Quantize + pack the 8-bit input image (emulated schemes; priced by
    /// the simulator, a no-op functionally since inputs arrive packed).
    InputPack {
        /// Elements per image.
        elements: usize,
    },
    /// A tensor-core stage.
    Main(MainStage),
    /// An element-wise stage that did not fuse (big pools, residual adds,
    /// …). Priced by the simulator; not executable on [`CpuEngine`].
    Elementwise {
        /// Display name.
        name: String,
        /// Kind.
        kind: EwKind,
        /// Elements per image in.
        in_elements: usize,
        /// Elements per image out.
        out_elements: usize,
    },
}

/// A network lowered into an executable plan: the tentpole artifact shared
/// by the simulator and the functional CPU engine.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    /// Model name (reports).
    pub model: String,
    /// Scheme label (reports).
    pub scheme: String,
    precision: Option<NetPrecision>,
    schedule: Option<PrecisionSchedule>,
    batch: usize,
    stages: Vec<PlanStage>,
}

impl CompiledNet {
    /// Lower `net` at `precision` into a plan.
    pub fn compile(net: &Network, precision: NetPrecision, opts: &CompileOptions) -> Self {
        Self::compile_impl(net, Some(precision), None, opts)
    }

    /// Lower `net` under a per-layer mixed-precision [`PrecisionSchedule`].
    ///
    /// Schedules require the §5.2 fusion pass and a fully-fused (no
    /// surviving element-wise stage) lowering; identity residual joins must
    /// agree on activation bits between the branch producer and the joining
    /// layer. A uniform schedule produces a plan bit-identical to the
    /// whole-network [`NetPrecision::Apnn`] compile.
    pub fn compile_scheduled(
        net: &Network,
        schedule: &PrecisionSchedule,
        opts: &CompileOptions,
    ) -> Self {
        Self::compile_impl(net, None, Some(schedule), opts)
    }

    /// Shared lowering core. Exactly one of `precision` / `schedule` is
    /// `Some`; the uniform path computes per-stage bit parameters through
    /// the same [`NetPrecision`] calls as before schedules existed, so its
    /// RNG draw order — and therefore every golden — is unchanged.
    fn compile_impl(
        net: &Network,
        precision: Option<NetPrecision>,
        schedule: Option<&PrecisionSchedule>,
        opts: &CompileOptions,
    ) -> Self {
        let fused = fuse_network(net, opts.fuse);
        if let Some(sched) = schedule {
            validate_schedule(net, &fused, sched, opts);
        }
        let emulated = precision.is_none_or(|p| p.is_emulated());
        let mut stages = Vec::with_capacity(fused.len() + 1);
        let mut rng = SynthRng::new(match opts.materialize {
            Materialize::Functional { seed } => seed,
            Materialize::SimOnly => 0,
        });

        if emulated {
            stages.push(PlanStage::InputPack {
                elements: net.input_c * net.input_h * net.input_w,
            });
        }

        // Functional plans over fully-fused emulated networks get their
        // quantization ranges *calibrated*: a seeded batch flows through
        // each stage as it is lowered, and the observed accumulator range
        // fixes the epilogue constants. This is per-call work (range
        // estimation) hoisted into compilation.
        let fully_fused = fused.iter().all(Stage::is_main);
        let mut calib: Option<CalibState> = match opts.materialize {
            Materialize::Functional { .. } if fully_fused && emulated => {
                // The first main layer always consumes the 8-bit quantized
                // input (§5.1) regardless of schedule.
                let bits = precision.map_or(8, |p| p.activation_bits(true));
                let enc = precision.map_or(Encoding::ZeroOne, |p| p.activation_encoding(true));
                let mut t =
                    BitTensor4::zeros(opts.batch, net.input_h, net.input_w, net.input_c, bits, enc);
                for b in 0..opts.batch {
                    for y in 0..net.input_h {
                        for x in 0..net.input_w {
                            for c in 0..net.input_c {
                                t.set_code(b, y, x, c, rng.next() as u32 & ((1 << bits) - 1));
                            }
                        }
                    }
                }
                Some(CalibState {
                    chain: Act::Map(t),
                    branch: None,
                    res: None,
                })
            }
            _ => None,
        };

        // Scheduled plans thread activation bits from producer to consumer:
        // a chain stage consumes the previous chain stage's output bits, a
        // skip-projection stage the saved branch producer's.
        let mut chain_bits = 8u32;
        let mut branch_bits = 8u32;

        for stage in &fused {
            match stage {
                Stage::Main {
                    name,
                    op,
                    main_index,
                    tail,
                    input,
                    save_branch,
                    residual,
                    ..
                } => {
                    let first = *main_index == 0;
                    let (stage_precision, prec) = match (precision, schedule) {
                        (Some(p), _) => (
                            p,
                            StagePrec {
                                w_bits: p.weight_bits(),
                                x_bits: p.activation_bits(first),
                                w_enc: p.weight_encoding(),
                                x_enc: p.activation_encoding(first),
                                out_bits: p.activation_bits(false),
                                next_enc: p.activation_encoding(false),
                            },
                        ),
                        (None, Some(sched)) => {
                            let lp = sched.layer(*main_index);
                            let x_bits = match input {
                                StageSrc::Branch => branch_bits,
                                StageSrc::Chain => chain_bits,
                            };
                            (
                                lp.as_uniform(),
                                StagePrec {
                                    w_bits: lp.w,
                                    x_bits,
                                    w_enc: lp.weight_encoding(),
                                    x_enc: Encoding::ZeroOne,
                                    out_bits: lp.a,
                                    next_enc: Encoding::ZeroOne,
                                },
                            )
                        }
                        (None, None) => unreachable!("compile_impl needs a precision or schedule"),
                    };
                    if schedule.is_some() && *input == StageSrc::Chain && tail.quantize {
                        chain_bits = prec.out_bits;
                        if *save_branch {
                            branch_bits = prec.out_bits;
                        }
                    }
                    stages.push(PlanStage::Main(compile_main(
                        name,
                        op,
                        tail,
                        *input,
                        *save_branch,
                        *residual,
                        stage_precision,
                        prec,
                        opts,
                        &mut rng,
                        &mut calib,
                    )));
                }
                Stage::Elementwise {
                    name,
                    kind,
                    in_elements,
                    out_elements,
                    ..
                } => stages.push(PlanStage::Elementwise {
                    name: name.clone(),
                    kind: *kind,
                    in_elements: *in_elements,
                    out_elements: *out_elements,
                }),
            }
        }

        CompiledNet {
            model: net.name.clone(),
            scheme: match schedule {
                Some(s) => s.label(),
                None => precision.unwrap().label(),
            },
            precision: match schedule {
                Some(s) => s.as_uniform(),
                None => precision,
            },
            schedule: schedule.cloned(),
            batch: opts.batch,
            stages,
        }
    }

    /// Empty plan for hand-built stage lists (the `QuantNet` front-end and
    /// `apnn-quant` model export).
    pub fn empty(model: &str, scheme: &str) -> Self {
        CompiledNet {
            model: model.to_string(),
            scheme: scheme.to_string(),
            precision: None,
            schedule: None,
            batch: 0,
            stages: Vec::new(),
        }
    }

    /// Append a stage to a hand-built plan. The first main stage fixes the
    /// plan batch.
    pub fn push_stage(&mut self, stage: PlanStage) {
        if self.batch == 0 {
            if let PlanStage::Main(m) = &stage {
                self.batch = match &m.kernel {
                    MainKernel::Conv { desc, .. } => desc.batch,
                    MainKernel::Linear { desc, .. } => desc.n,
                    MainKernel::Baseline => 0,
                };
            }
        }
        self.stages.push(stage);
    }

    /// Compiled batch size (sharding granularity).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The precision scheme this plan was lowered at (`None` for hand-built
    /// stage lists and genuinely mixed schedules — uniform schedules report
    /// their equivalent whole-network scheme).
    pub fn precision(&self) -> Option<NetPrecision> {
        self.precision
    }

    /// The per-layer schedule this plan was lowered with (`None` for
    /// uniform-scheme and hand-built plans).
    pub fn schedule(&self) -> Option<&PrecisionSchedule> {
        self.schedule.as_ref()
    }

    /// The packed feature map the first main stage consumes, as
    /// `(h, w, c, bits, encoding)` — `None` for linear-front plans, which
    /// take feature vectors. Servers validate request tensors against this
    /// before queueing them.
    pub fn input_map_spec(&self) -> Option<(usize, usize, usize, u32, Encoding)> {
        self.main_stages().next().and_then(|m| match &m.kernel {
            MainKernel::Conv { desc, .. } => {
                Some((desc.h, desc.w, desc.cin, desc.x_bits, desc.x_enc))
            }
            _ => None,
        })
    }

    /// Partition `n` requests into compiled-batch shards: every shard is
    /// `batch()` wide except the last, which carries the remainder (any
    /// size down to 1). This is the *widest-legal-shard* contract the
    /// differential tests exercise; [`CompiledNet::infer_batched_into`]
    /// may cut narrower shards (`⌈n/threads⌉`) to fill the thread pool —
    /// any such partition is bit-identical (partition invariance), which
    /// is exactly what the differential harness proves.
    pub fn shards(&self, n: usize) -> Vec<Shard> {
        let width = self.batch.max(1);
        let mut out = Vec::with_capacity(n.div_ceil(width));
        let mut start = 0;
        while start < n {
            let len = (n - start).min(width);
            out.push(Shard { start, len });
            start += len;
        }
        out
    }

    /// The compiled stages.
    pub fn stages(&self) -> &[PlanStage] {
        &self.stages
    }

    /// The main stages, in execution order.
    pub fn main_stages(&self) -> impl Iterator<Item = &MainStage> {
        self.stages.iter().filter_map(|s| match s {
            PlanStage::Main(m) => Some(m),
            _ => None,
        })
    }

    /// Output classes (from the last main stage).
    pub fn classes(&self) -> usize {
        self.main_stages()
            .last()
            .map(|m| m.op.out_channels())
            .expect("plan has no main stage")
    }

    /// Can this plan run functionally (fully fused + weights materialized)?
    pub fn is_executable(&self) -> bool {
        self.executable_error().is_ok()
    }

    /// [`CompiledNet::is_executable`] with the reason: `Err` names the
    /// first stage that blocks functional execution.
    pub fn executable_error(&self) -> Result<(), CompileError> {
        let mut any_main = false;
        for s in &self.stages {
            match s {
                PlanStage::InputPack { .. } => {}
                PlanStage::Elementwise { name, kind, .. } => {
                    return Err(CompileError::UnfusedStage {
                        name: name.clone(),
                        kind: *kind,
                    })
                }
                PlanStage::Main(m) => {
                    any_main = true;
                    let missing = match &m.kernel {
                        MainKernel::Conv { prepared, .. } => prepared.is_none(),
                        MainKernel::Linear { prepared, .. } => prepared.is_none(),
                        MainKernel::Baseline => {
                            return Err(CompileError::BaselineStage {
                                name: m.name.clone(),
                            })
                        }
                    };
                    if missing {
                        return Err(CompileError::MissingWeights {
                            name: m.name.clone(),
                        });
                    }
                }
            }
        }
        if any_main {
            Ok(())
        } else {
            Err(CompileError::NoMainStage)
        }
    }

    /// Run an engine over this plan with a transient workspace.
    pub fn run<'a, E: Engine>(&self, engine: &E, input: E::Input<'a>) -> E::Output {
        let mut ws = engine.workspace(self);
        engine.execute(self, input, &mut ws)
    }

    /// Price the plan on the simulated GPU (convenience for
    /// [`SimEngine`]).
    pub fn report(&self, spec: &GpuSpec) -> NetworkReport {
        SimEngine { spec }.execute(self, (), &mut ())
    }

    /// Build an execution workspace sized exactly for this plan (see
    /// [`CompiledNet::workspace_spec`]): keep one per serving thread and
    /// thread it through [`CompiledNet::infer_into`] for allocation-free
    /// steady-state inference. Requires an executable plan.
    pub fn workspace(&self) -> ExecWorkspace {
        ExecWorkspace::for_plan(self)
    }

    /// How much memory the functional engine needs to run this plan: one
    /// entry per main stage (packed activation slot, flatten slot,
    /// accumulator footprint) plus the shared kernel scratch. This is the
    /// sizing contract of [`CompiledNet::workspace`]: the workspace
    /// pre-allocates every buffer at these full-batch peaks, so inference
    /// — including *partial* shards, which only shrink shapes — performs
    /// zero heap allocations from the first call onward.
    pub fn workspace_spec(&self) -> WorkspaceSpec {
        WorkspaceSpec::for_plan(self)
    }

    /// Functional inference on a packed feature map ([`BitTensor4`], conv
    /// networks) or packed feature vectors ([`BitPlanes`], rows = batch,
    /// all-linear networks). Returns logits as `batch × classes`,
    /// row-major.
    ///
    /// Thin wrapper owning a transient [`ExecWorkspace`]; hot loops should
    /// hold a workspace and call [`CompiledNet::infer_into`], and large
    /// request batches go through [`CompiledNet::infer_batched_into`].
    pub fn infer<'a>(&self, input: impl Into<ActInput<'a>>) -> Vec<i32> {
        self.run(&CpuEngine, input.into())
    }

    /// Allocation-free steady-state inference: activations flow through
    /// `ws`'s plan-sized slots and logits land in `out` (resized in
    /// place). Once `ws` and `out` have reached capacity — `ws` is born at
    /// capacity, `out` after the first call — the call performs **zero
    /// heap allocations**, for full and partial shards alike. Results are
    /// bit-identical to [`CompiledNet::infer`].
    pub fn infer_into<'a>(
        &self,
        input: impl Into<ActInput<'a>>,
        ws: &mut ExecWorkspace,
        out: &mut Vec<i32>,
    ) {
        cpu_execute_into(self, input.into(), ws, out);
    }

    /// A [`WorkspacePool`] for this plan holding at most `max` workspaces
    /// (created lazily; see the pool docs for the checkout protocol).
    pub fn workspace_pool(&self, max: usize) -> WorkspacePool {
        WorkspacePool::new(self, max)
    }

    /// Parallel allocation-free batched inference — the tentpole
    /// composition of the workspace arenas and the Rayon pool:
    ///
    /// * the coalesced `input` (any number of images) is cut into
    ///   contiguous shards of width `⌈n/threads⌉`, clamped to the compiled
    ///   batch (`threads == 0` uses [`rayon::current_num_threads`]);
    /// * shards fan out over the Rayon pool; each participant checks a
    ///   plan-sized workspace out of `pool`, stages its shard with one
    ///   word-level memcpy ([`BitTensor4::fill_from_batch_range`]) and runs
    ///   the **same sequential [`CompiledNet::infer_into`] core**, so every
    ///   request's logits are bit-identical to one-image `infer` — the
    ///   per-element accumulation order never depends on the partition;
    /// * logits land directly in each shard's disjoint chunk of `out`
    ///   (resized in place, `n × classes` row-major).
    ///
    /// Once `pool` has warmed to its population and `out`/staging buffers
    /// to their peaks, the call performs **zero heap allocations** — for
    /// any interleaving of request counts, shard widths and thread counts
    /// (`tests/zero_alloc.rs` proves it under a counting global
    /// allocator).
    pub fn infer_batched_into(
        &self,
        input: &BitTensor4,
        pool: &WorkspacePool,
        threads: usize,
        out: &mut Vec<i32>,
    ) {
        let n = input.shape().0;
        let classes = self.classes();
        apnn_bitpack::resize_for_overwrite(out, n * classes);
        if n == 0 {
            return;
        }
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        }
        .max(1);
        let peak = self.batch.max(1);
        let width = peak.min(n.div_ceil(threads)).max(1);
        if n <= width {
            // Single shard: one checkout, no fan-out — and no staging
            // copy, since the whole input *is* the shard and the engine
            // only borrows it.
            let mut slot = pool.checkout(self);
            cpu_execute_to_slice(self, ActInput::Map(input), slot.workspace_mut(), out);
            return;
        }
        out.par_chunks_mut(width * classes)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let start = ci * width;
                let len = (n - start).min(width);
                let mut slot = pool.checkout(self);
                let (ws, staged) = slot.parts_mut();
                stage_shard(staged, input, start, len, peak);
                cpu_execute_to_slice(
                    self,
                    ActInput::Map(&*staged),
                    ws,
                    &mut chunk[..len * classes],
                );
            });
    }
}

/// Stage one contiguous shard into a pooled staging tensor: reserve the
/// backing store at the plan's full coalescing width once (so a remainder
/// shard arriving first cannot force a later reallocation), then copy the
/// shard in — one word-level memcpy, nothing zero-filled.
fn stage_shard(staged: &mut BitTensor4, input: &BitTensor4, start: usize, len: usize, peak: usize) {
    let (_, h, w, c) = input.shape();
    staged.reserve_images(peak.max(len), h, w, c, input.bits());
    staged.fill_from_batch_range(input, start, len);
}

/// One contiguous slice of a request batch, at most one compiled batch
/// wide — the unit a serving worker hands to [`CompiledNet::infer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First request index in the shard.
    pub start: usize,
    /// Number of requests (`1..=plan.batch()`).
    pub len: usize,
}

/// An execution backend for compiled plans.
///
/// Engines are *workspace-threaded*: every run borrows a mutable
/// [`Engine::Workspace`] holding all per-run mutable state, so a caller
/// that keeps one workspace per thread executes the plan repeatedly
/// without touching the allocator (see [`ExecWorkspace`]). Engines with no
/// per-run state (the simulator) use `()`.
pub trait Engine {
    /// Per-run input (activations for functional engines, nothing for the
    /// simulator).
    type Input<'a>;
    /// Run result.
    type Output;
    /// Reusable per-run mutable state.
    type Workspace;

    /// Build a workspace sized for `plan` (see
    /// [`CompiledNet::workspace_spec`] for the sizing contract of the
    /// functional engine).
    fn workspace(&self, plan: &CompiledNet) -> Self::Workspace;

    /// Execute `plan` on this engine, reusing `ws` for all per-run state.
    fn execute<'a>(
        &self,
        plan: &CompiledNet,
        input: Self::Input<'a>,
        ws: &mut Self::Workspace,
    ) -> Self::Output;
}

/// Prices a compiled plan on the `apnn-sim` cost model.
#[derive(Debug, Clone, Copy)]
pub struct SimEngine<'s> {
    /// Simulated GPU.
    pub spec: &'s GpuSpec,
}

impl Engine for SimEngine<'_> {
    type Input<'a> = ();
    type Output = NetworkReport;
    type Workspace = ();

    fn workspace(&self, _plan: &CompiledNet) {}

    fn execute<'a>(&self, plan: &CompiledNet, _input: (), _ws: &mut ()) -> NetworkReport {
        let spec = self.spec;
        let batch = plan.batch;
        let mut reports = Vec::with_capacity(plan.stages.len());
        for stage in &plan.stages {
            let rep = match stage {
                PlanStage::InputPack { elements } => {
                    price_input_pack(spec, (elements * batch) as u64)
                }
                PlanStage::Elementwise {
                    name,
                    kind,
                    in_elements,
                    out_elements,
                    ..
                } => {
                    let precision = plan
                        .precision
                        .expect("element-wise pricing needs a network precision");
                    price_elementwise(
                        precision,
                        spec,
                        batch,
                        name,
                        *kind,
                        *in_elements,
                        *out_elements,
                    )
                }
                PlanStage::Main(m) => price_compiled_main(plan, m, spec, batch),
            };
            reports.push(rep);
        }
        let total_s = reports.iter().map(|s| s.time_s).sum();
        NetworkReport {
            model: plan.model.clone(),
            scheme: plan.scheme.clone(),
            batch,
            stages: reports,
            total_s,
        }
    }
}

fn price_compiled_main(
    plan: &CompiledNet,
    m: &MainStage,
    spec: &GpuSpec,
    batch: usize,
) -> StageReport {
    let efficiency = match plan.precision {
        Some(NetPrecision::Bnn) => BNN_KERNEL_EFFICIENCY,
        _ => APMM_TC_EFFICIENCY,
    };
    let epi_opt = if m.epi.ops().is_empty() {
        None
    } else {
        Some(&m.epi)
    };
    let r = match &m.kernel {
        MainKernel::Baseline => {
            let kind = plan
                .precision
                .and_then(|p| p.baseline_kind())
                .expect("baseline stage without baseline precision");
            match m.op {
                MainOp::Conv {
                    cin,
                    h,
                    w,
                    cout,
                    k,
                    stride,
                    pad,
                } => {
                    assert_eq!(h, w, "baseline conv shapes are square");
                    conv_report(
                        kind,
                        &ConvShape {
                            batch,
                            cin,
                            hw: h,
                            cout,
                            k,
                            stride,
                            pad,
                        },
                        spec,
                    )
                }
                MainOp::Linear {
                    in_features,
                    out_features,
                } => gemm_report(kind, batch, out_features, in_features, spec),
            }
        }
        MainKernel::Conv { desc, tile, .. } => conv_estimate(
            desc,
            tile,
            spec,
            m.pool,
            epi_opt,
            ActLayout::Nphwc,
            efficiency,
        ),
        MainKernel::Linear { desc, tile, .. } => {
            apmm_estimate(desc, tile, spec, epi_opt, efficiency)
        }
    };
    StageReport {
        name: m.name.clone(),
        time_s: r.time_s(),
        is_main: true,
        macs: r.counters.tc_macs,
        global_bytes: r.counters.global_bytes(),
        bound: r.cost.bound,
    }
}

/// Activation input handed to [`CpuEngine`].
#[derive(Debug, Clone, Copy)]
pub enum ActInput<'a> {
    /// Packed feature map (conv networks).
    Map(&'a BitTensor4),
    /// Packed feature vectors (all-linear networks).
    Vec(&'a BitPlanes),
}

impl<'a> From<&'a BitTensor4> for ActInput<'a> {
    fn from(t: &'a BitTensor4) -> Self {
        ActInput::Map(t)
    }
}

impl<'a> From<&'a BitPlanes> for ActInput<'a> {
    fn from(v: &'a BitPlanes) -> Self {
        ActInput::Vec(v)
    }
}

/// Executes a compiled plan functionally on the CPU (real bit-packed
/// compute, §5.1 dataflow). Requires a fully-fused, materialized plan —
/// see [`CompiledNet::is_executable`].
///
/// Every run threads a mutable [`ExecWorkspace`] — the plan-sized arena
/// holding per-stage activation slots, flatten/quantize scratch and kernel
/// accumulators — so steady-state inference performs zero heap
/// allocations. Execution runs **sequentially on the calling thread**: the
/// serving tier parallelizes across worker threads (one workspace each),
/// not inside a single request, which is what makes the zero-allocation
/// property enforceable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuEngine;

/// Owned activations chained through compile-time calibration.
#[derive(Clone)]
enum Act {
    Map(BitTensor4),
    Vector(BitPlanes),
}

/// Calibration state threaded through compilation: the chain activation,
/// plus — inside an open residual block — the activation saved at the last
/// `BranchSave` and the raw accumulators parked by a skip-projection
/// stage for the consuming conv.
struct CalibState {
    chain: Act,
    branch: Option<Act>,
    res: Option<Vec<i32>>,
}

impl Engine for CpuEngine {
    type Input<'a> = ActInput<'a>;
    type Output = Vec<i32>;
    type Workspace = ExecWorkspace;

    fn workspace(&self, plan: &CompiledNet) -> ExecWorkspace {
        ExecWorkspace::for_plan(plan)
    }

    fn execute<'a>(
        &self,
        plan: &CompiledNet,
        input: ActInput<'a>,
        ws: &mut ExecWorkspace,
    ) -> Vec<i32> {
        let mut out = Vec::new();
        cpu_execute_into(plan, input, ws, &mut out);
        out
    }
}

/// The functional engine core: run `plan` over `input`, all mutable state
/// in `ws`, logits into `out` (`batch × classes`, row-major; resized in
/// place without re-zeroing — every element is overwritten). This is the
/// zero-allocation steady-state path behind [`CompiledNet::infer_into`].
fn cpu_execute_into(
    plan: &CompiledNet,
    input: ActInput<'_>,
    ws: &mut ExecWorkspace,
    out: &mut Vec<i32>,
) {
    let (shard_n, classes) = cpu_execute_stages(plan, input, ws);
    apnn_bitpack::resize_for_overwrite(out, shard_n * classes);
    scatter_logits(ws, shard_n, classes, out);
}

/// [`cpu_execute_into`] writing into a pre-sized slice — the shard form of
/// the parallel batched path, where each shard's logits land directly in
/// its disjoint chunk of the caller's output buffer (no copy, no per-shard
/// result vector).
fn cpu_execute_to_slice(
    plan: &CompiledNet,
    input: ActInput<'_>,
    ws: &mut ExecWorkspace,
    out: &mut [i32],
) {
    let (shard_n, classes) = cpu_execute_stages(plan, input, ws);
    assert_eq!(out.len(), shard_n * classes, "output slice mis-sized");
    scatter_logits(ws, shard_n, classes, out);
}

/// features×batch → batch×classes transpose out of the workspace's raw
/// logits buffer.
fn scatter_logits(ws: &ExecWorkspace, shard_n: usize, classes: usize, out: &mut [i32]) {
    for f in 0..classes {
        for b in 0..shard_n {
            out[b * classes + f] = ws.y[f * shard_n + b];
        }
    }
}

/// Run every stage of `plan`, leaving raw output-stage accumulators
/// (features × batch) in `ws.y`; returns `(shard batch, classes)`.
fn cpu_execute_stages(
    plan: &CompiledNet,
    input: ActInput<'_>,
    ws: &mut ExecWorkspace,
) -> (usize, usize) {
    ws.check(plan);
    if let Err(e) = plan.executable_error() {
        panic!(
            "plan `{}@{}` cannot execute functionally: {e}",
            plan.model, plan.scheme
        );
    }
    let ExecWorkspace {
        slots,
        conv,
        apmm,
        codes,
        y,
        res,
        ..
    } = ws;
    let n_mains = slots.len();
    let mut shard_n = 0;
    let mut classes = 0;

    /// This stage's input activation: the caller's tensor for stage 0, a
    /// finished stage's output slot afterwards.
    enum In<'x> {
        Map(&'x BitTensor4),
        Vector(&'x BitPlanes),
    }

    // Chain/branch cursors: skip-projection stages read the saved branch
    // slot and park raw accumulators in `res` without advancing the chain,
    // so the consuming conv still sees the main path as its input.
    let mut chain_idx: Option<usize> = None;
    let mut branch_idx: Option<usize> = None;

    for (mi, stage) in plan.main_stages().enumerate() {
        let last = mi + 1 == n_mains;
        let (done, rest) = slots.split_at_mut(mi);
        let slot = &mut rest[0];
        let is_skip = stage.input == StageSrc::Branch;
        let src_idx = if is_skip {
            Some(branch_idx.expect("skip stage before any saved branch"))
        } else {
            chain_idx
        };
        let cur = match src_idx {
            None => match input {
                ActInput::Map(t) => {
                    shard_n = t.shape().0;
                    In::Map(t)
                }
                ActInput::Vec(v) => {
                    shard_n = v.rows();
                    In::Vector(v)
                }
            },
            Some(i) => match &done[i].out {
                SlotOut::Map(t) => In::Map(t),
                SlotOut::Vector(v) => In::Vector(v),
                SlotOut::None => unreachable!("only the output stage has no slot"),
            },
        };
        match (&stage.kernel, cur) {
            (MainKernel::Conv { prepared, .. }, In::Map(map)) => {
                let prepared = prepared
                    .as_ref()
                    .unwrap_or_else(|| panic!("conv stage {mi} has no materialized weights"));
                if is_skip {
                    // Skip projection: raw i32 accumulators into the shared
                    // residual buffer — the consuming conv adds them before
                    // its fused tail. No packed output slot.
                    prepared.execute_into(map, conv, res);
                } else {
                    let SlotOut::Map(out_map) = &mut slot.out else {
                        unreachable!("conv slots hold packed maps")
                    };
                    match stage.residual {
                        None => {
                            prepared.execute_fused_into(map, stage.pool, &stage.epi, conv, out_map)
                        }
                        Some(ResidualSrc::Projection) => prepared.execute_fused_residual_into(
                            map, res, stage.pool, &stage.epi, conv, out_map,
                        ),
                        Some(ResidualSrc::Identity) => {
                            let bi = branch_idx.expect("identity residual before any saved branch");
                            let SlotOut::Map(bmap) = &done[bi].out else {
                                unreachable!("residual branches are packed maps")
                            };
                            decode_codes_into(bmap, res);
                            prepared.execute_fused_residual_into(
                                map, res, stage.pool, &stage.epi, conv, out_map,
                            )
                        }
                    }
                }
            }
            (MainKernel::Conv { .. }, In::Vector(_)) => {
                panic!("conv stage {mi} after flatten")
            }
            (MainKernel::Linear { prepared, .. }, cur) => {
                let prepared = prepared
                    .as_ref()
                    .unwrap_or_else(|| panic!("linear stage {mi} has no materialized weights"));
                let v: &BitPlanes = match cur {
                    In::Map(map) => {
                        let flat = slot
                            .flat
                            .as_mut()
                            .expect("linear-after-map stage has a flatten slot");
                        flatten_map_into(map, codes, flat);
                        flat
                    }
                    In::Vector(v) => v,
                };
                if last {
                    assert!(
                        stage.epi.output_bits().is_none(),
                        "output stage must not quantize (§5.1)"
                    );
                    // The output layer's affine is applied *outside* the
                    // engine (exact integer logits end to end — §5.1), so
                    // any non-quantizing epilogue ops are ignored here,
                    // matching the pre-refactor QuantNet contract.
                    prepared.execute_into(v, apmm, y);
                    classes = prepared.desc.m;
                } else {
                    let SlotOut::Vector(out_vec) = &mut slot.out else {
                        unreachable!("hidden linear slots hold packed vectors")
                    };
                    prepared.execute_fused_into(v, &stage.epi, apmm, codes, out_vec);
                }
            }
            (MainKernel::Baseline, _) => {
                unreachable!("executable_error rejected baseline stages")
            }
        }
        if !is_skip {
            chain_idx = Some(mi);
            if stage.save_branch {
                branch_idx = Some(mi);
            }
        }
    }
    (shard_n, classes)
}

/// Decode a packed map's activation codes into the shared residual buffer,
/// in the kernels' NHWC accumulator order — the identity-skip form of the
/// exact-i32 residual contract (quantized codes *are* the integer
/// activations the block adds back).
fn decode_codes_into(map: &BitTensor4, res: &mut Vec<i32>) {
    debug_assert_eq!(
        map.encoding(),
        Encoding::ZeroOne,
        "identity residuals read unsigned activation codes"
    );
    let (n, h, w, c) = map.shape();
    apnn_bitpack::resize_for_overwrite(res, n * h * w * c);
    for b in 0..n {
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    res[((b * h + y) * w + x) * c + ch] = map.get_code(b, y, x, ch) as i32;
                }
            }
        }
    }
}

/// Flatten a packed NHWC map into per-image feature rows, ordered `(h,w,c)`
/// — the layout linear weights are packed against.
pub fn flatten_map(map: &BitTensor4) -> BitPlanes {
    let (n, h, w, c) = map.shape();
    let mut codes = Vec::new();
    let mut out = BitPlanes::zeros(n, h * w * c, map.bits(), Encoding::ZeroOne);
    flatten_map_into(map, &mut codes, &mut out);
    out
}

/// [`flatten_map`] writing into caller-owned buffers (the workspace form):
/// `codes` is the dense-code scratch, `out` the packed per-image feature
/// rows, rebuilt in place. Allocation-free once both are at capacity.
pub fn flatten_map_into(map: &BitTensor4, codes: &mut Vec<u32>, out: &mut BitPlanes) {
    let (n, h, w, c) = map.shape();
    let features = h * w * c;
    // Every code is stored by the walk below — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(codes, n * features);
    for b in 0..n {
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    codes[b * features + (y * w + x) * c + ch] = map.get_code(b, y, x, ch);
                }
            }
        }
    }
    out.from_codes_into(codes, n, features, map.bits(), map.encoding());
}

// ---------------------------------------------------------------------------
// Execution workspaces.
// ---------------------------------------------------------------------------

/// The plan-sized execution arena of the functional engine — the
/// reproduction's form of the paper's batch-based double caching: every
/// buffer the hot loop touches is allocated **once**, sized by the plan at
/// workspace-construction time, and rebuilt in place on every call.
///
/// Contents:
/// * one packed activation slot per main stage (the stage's output — conv
///   stages write a [`BitTensor4`] map, hidden linear stages a
///   [`BitPlanes`] vector), plus a flatten slot where a linear stage
///   consumes a map;
/// * the kernel scratch ([`ConvScratch`] window gather /
///   [`ApmmScratch`] correction table), sized at the per-stage peaks;
/// * the shared dense-code scratch and the raw logits buffer.
///
/// Keep one workspace per serving thread and pass it to
/// [`CompiledNet::infer_into`]; partial shards only ever *shrink* shapes,
/// so any interleaving of shard sizes stays allocation-free. A workspace
/// is bound to the plan (model, scheme, batch) it was built for — using it
/// with a different plan panics.
#[derive(Debug, Clone)]
pub struct ExecWorkspace {
    model: String,
    scheme: String,
    batch: usize,
    slots: Vec<StageSlot>,
    conv: ConvScratch,
    apmm: ApmmScratch,
    /// Dense-code scratch shared by flattening and quantize-packing.
    codes: Vec<u32>,
    /// Raw output-stage accumulators (features × batch).
    y: Vec<i32>,
    /// Shared residual buffer: skip-projection stages park raw i32
    /// accumulators here (identity skips decode branch codes into it) for
    /// the consuming conv to add before its fused tail. One buffer
    /// suffices — every block's residual is consumed before the next
    /// block's skip runs.
    res: Vec<i32>,
}

#[derive(Debug, Clone)]
struct StageSlot {
    /// Flattened map input (linear stages that may consume a map).
    flat: Option<BitPlanes>,
    /// The stage's packed output.
    out: SlotOut,
}

#[derive(Debug, Clone)]
enum SlotOut {
    Map(BitTensor4),
    Vector(BitPlanes),
    /// The output stage writes raw logits, not a packed slot.
    None,
}

impl ExecWorkspace {
    /// Build a workspace for `plan`, pre-allocating every buffer at the
    /// full-batch peaks reported by [`CompiledNet::workspace_spec`].
    fn for_plan(plan: &CompiledNet) -> ExecWorkspace {
        let layouts = stage_layouts(plan);
        let peaks = ScratchPeaks::of(&layouts);
        let mut slots = Vec::with_capacity(layouts.len());
        for l in &layouts {
            slots.push(StageSlot {
                flat: l.flat.map(|(rows, cols, bits)| {
                    BitPlanes::zeros(rows, cols, bits, Encoding::ZeroOne)
                }),
                out: match l.out {
                    Some(SlotShape::Map { n, h, w, c, bits }) => {
                        SlotOut::Map(BitTensor4::zeros(n, h, w, c, bits, Encoding::ZeroOne))
                    }
                    Some(SlotShape::Vector { rows, cols, bits }) => {
                        SlotOut::Vector(BitPlanes::zeros(rows, cols, bits, Encoding::ZeroOne))
                    }
                    None => SlotOut::None,
                },
            });
        }
        let mut conv = ConvScratch::default();
        conv.reserve(
            peaks.win,
            peaks.taps,
            peaks.planes,
            peaks.conv_acc,
            peaks.pooled,
        );
        let mut apmm = ApmmScratch::default();
        apmm.reserve(peaks.col_sums, peaks.apmm_acc);
        kstats::record_workspace_create();
        ExecWorkspace {
            model: plan.model.clone(),
            scheme: plan.scheme.clone(),
            batch: plan.batch,
            slots,
            conv,
            apmm,
            codes: Vec::with_capacity(peaks.codes),
            y: Vec::with_capacity(peaks.y),
            res: Vec::with_capacity(peaks.res),
        }
    }

    /// Panic unless this workspace was built for `plan`.
    fn check(&self, plan: &CompiledNet) {
        assert!(
            self.model == plan.model
                && self.scheme == plan.scheme
                && self.batch == plan.batch
                && self.slots.len() == plan.main_stages().count(),
            "workspace was built for `{}@{}` (batch {}); got `{}@{}` (batch {})",
            self.model,
            self.scheme,
            self.batch,
            plan.model,
            plan.scheme,
            plan.batch,
        );
    }
}

/// Memory footprint of a plan's [`ExecWorkspace`] — the sizing contract of
/// [`CompiledNet::workspace`]: each stage's slot buffers are owned
/// per-stage; the kernel scratch is shared and sized at the per-stage
/// peaks.
#[derive(Debug, Clone)]
pub struct WorkspaceSpec {
    /// Per-main-stage buffer demands, in execution order.
    pub stages: Vec<StageWorkspace>,
    /// Shared scratch (window gather, correction tables, accumulators,
    /// dense codes, raw logits), sized at the per-stage peaks.
    pub scratch_bytes: usize,
    /// Total workspace footprint: per-stage slots + shared scratch.
    pub total_bytes: usize,
}

/// One main stage's contribution to the workspace (see [`WorkspaceSpec`]).
#[derive(Debug, Clone)]
pub struct StageWorkspace {
    /// Stage (layer) name.
    pub name: String,
    /// Packed output slot bytes (0 for the output stage).
    pub out_bytes: usize,
    /// Flatten-slot bytes (linear stages that may consume a map).
    pub flat_bytes: usize,
    /// Peak i32 accumulator bytes this stage demands of the shared scratch
    /// (pre-pool accumulators + pooled buffer for conv, raw product for
    /// linear).
    pub acc_bytes: usize,
}

impl WorkspaceSpec {
    fn for_plan(plan: &CompiledNet) -> WorkspaceSpec {
        let layouts = stage_layouts(plan);
        let peaks = ScratchPeaks::of(&layouts);
        let mut stages = Vec::with_capacity(layouts.len());
        for l in &layouts {
            let out_bytes = match l.out {
                Some(SlotShape::Map { n, h, w, c, bits }) => {
                    n * bits as usize * h * w * (pad_to_bmma_k(c) / 64) * 8
                }
                Some(SlotShape::Vector { rows, cols, bits }) => {
                    bits as usize * rows * (pad_to_bmma_k(cols) / 64) * 8
                }
                None => 0,
            };
            let flat_bytes = l
                .flat
                .map(|(rows, cols, bits)| bits as usize * rows * (pad_to_bmma_k(cols) / 64) * 8)
                .unwrap_or(0);
            stages.push(StageWorkspace {
                name: l.name.clone(),
                out_bytes,
                flat_bytes,
                acc_bytes: (l.acc_elems + l.pooled_elems + l.y_elems + l.res_elems) * 4,
            });
        }
        let scratch_bytes = peaks.bytes();
        let total_bytes = scratch_bytes
            + stages
                .iter()
                .map(|s| s.out_bytes + s.flat_bytes)
                .sum::<usize>();
        WorkspaceSpec {
            stages,
            scratch_bytes,
            total_bytes,
        }
    }
}

/// Peak shared-scratch demands over a plan's stages — computed once and
/// consumed by **both** [`ExecWorkspace::for_plan`] (what gets allocated)
/// and [`WorkspaceSpec::for_plan`] (what gets reported), so the two can
/// never disagree about a buffer.
#[derive(Debug, Clone, Copy, Default)]
struct ScratchPeaks {
    /// Conv window-gather words.
    win: usize,
    /// Conv out-of-frame tap slots (`usize` each).
    taps: usize,
    /// Conv per-plane popcount slots (`i32` each).
    planes: usize,
    /// Conv accumulator elements (`i32`).
    conv_acc: usize,
    /// Pooled accumulator elements (`i32`).
    pooled: usize,
    /// APMM activation column-sum elements (`i32`).
    col_sums: usize,
    /// APMM accumulator elements (`i32`).
    apmm_acc: usize,
    /// Dense-code scratch elements (`u32`).
    codes: usize,
    /// Raw logits elements (`i32`).
    y: usize,
    /// Residual buffer elements (`i32`) — skip-projection accumulators /
    /// decoded identity branches.
    res: usize,
}

impl ScratchPeaks {
    fn of(layouts: &[StageLayout]) -> ScratchPeaks {
        let mut p = ScratchPeaks::default();
        for l in layouts {
            p.win = p.win.max(l.conv_win_words);
            p.taps = p.taps.max(l.conv_taps);
            p.planes = p.planes.max(l.conv_planes);
            p.conv_acc = p.conv_acc.max(if l.is_conv { l.acc_elems } else { 0 });
            p.pooled = p.pooled.max(l.pooled_elems);
            p.col_sums = p.col_sums.max(l.apmm_col_sums);
            p.apmm_acc = p.apmm_acc.max(if l.is_conv { 0 } else { l.acc_elems });
            p.codes = p.codes.max(l.codes_elems);
            p.y = p.y.max(l.y_elems);
            p.res = p.res.max(l.res_elems);
        }
        p
    }

    /// Total bytes of every shared buffer listed above.
    fn bytes(&self) -> usize {
        (self.win + self.taps) * 8
            + (self.planes
                + self.conv_acc
                + self.pooled
                + self.col_sums
                + self.apmm_acc
                + self.y
                + self.res)
                * 4
            + self.codes * 4
    }
}

/// Packed shape of a stage's output slot.
#[derive(Debug, Clone, Copy)]
enum SlotShape {
    Map {
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
    },
    Vector {
        rows: usize,
        cols: usize,
        bits: u32,
    },
}

/// Per-stage buffer demands derived from the compiled descriptors — the
/// single walk shared by [`ExecWorkspace`] and [`WorkspaceSpec`] so the
/// two can never disagree.
struct StageLayout {
    name: String,
    out: Option<SlotShape>,
    flat: Option<(usize, usize, u32)>,
    acc_elems: usize,
    pooled_elems: usize,
    y_elems: usize,
    res_elems: usize,
    conv_win_words: usize,
    conv_taps: usize,
    conv_planes: usize,
    apmm_col_sums: usize,
    codes_elems: usize,
    is_conv: bool,
}

fn stage_layouts(plan: &CompiledNet) -> Vec<StageLayout> {
    assert!(plan.main_stages().next().is_some(), "empty network");
    if let Err(e) = plan.executable_error() {
        panic!(
            "cannot size a workspace for `{}@{}`: the plan is not executable ({e})",
            plan.model, plan.scheme,
        );
    }
    let n_mains = plan.main_stages().count();
    let mut prev_is_conv = false;
    plan.main_stages()
        .enumerate()
        .map(|(i, m)| {
            let last = i + 1 == n_mains;
            let layout = match &m.kernel {
                MainKernel::Conv { desc, .. } => {
                    assert!(!last, "plan did not end in an i32 linear output stage");
                    let (oh, ow) = (desc.out_h(), desc.out_w());
                    let acc_elems = desc.batch * oh * ow * desc.cout;
                    let conv_win_words =
                        desc.x_bits as usize * desc.kh * desc.kw * (desc.padded_c() / 64);
                    if m.input == StageSrc::Branch {
                        // Skip projection: raw accumulators land straight in
                        // the shared residual buffer — no packed output
                        // slot, no epilogue, no pool.
                        StageLayout {
                            name: m.name.clone(),
                            out: None,
                            flat: None,
                            acc_elems: 0,
                            pooled_elems: 0,
                            y_elems: 0,
                            res_elems: acc_elems,
                            conv_win_words,
                            conv_taps: desc.kh * desc.kw,
                            conv_planes: desc.x_bits as usize,
                            apmm_col_sums: 0,
                            codes_elems: 0,
                            is_conv: true,
                        }
                    } else {
                        let bits = m.epi.output_bits().unwrap_or_else(|| {
                            panic!(
                                "conv stage {i} must quantize (only the last linear may emit i32)"
                            )
                        });
                        let (ph, pw) = if m.pool.is_some() {
                            (oh / 2, ow / 2)
                        } else {
                            (oh, ow)
                        };
                        StageLayout {
                            name: m.name.clone(),
                            out: Some(SlotShape::Map {
                                n: desc.batch,
                                h: ph,
                                w: pw,
                                c: desc.cout,
                                bits,
                            }),
                            flat: None,
                            acc_elems,
                            pooled_elems: if m.pool.is_some() {
                                desc.batch * ph * pw * desc.cout
                            } else {
                                0
                            },
                            y_elems: 0,
                            // Residual consumers read a same-shaped i32
                            // buffer (decoded identity branch or the skip
                            // stage's parked accumulators).
                            res_elems: if m.residual.is_some() { acc_elems } else { 0 },
                            conv_win_words,
                            conv_taps: desc.kh * desc.kw,
                            conv_planes: desc.x_bits as usize,
                            apmm_col_sums: 0,
                            codes_elems: 0,
                            is_conv: true,
                        }
                    }
                }
                MainKernel::Linear { desc, .. } => {
                    // A flatten slot is needed whenever this stage may see a
                    // map: always for the first stage (the caller decides at
                    // call time), and after any conv stage.
                    let flat_needed = i == 0 || prev_is_conv;
                    let out_bits = if last {
                        assert!(
                            m.epi.output_bits().is_none(),
                            "output stage must not quantize (§5.1)"
                        );
                        None
                    } else {
                        Some(
                            m.epi
                                .output_bits()
                                .unwrap_or_else(|| panic!("hidden linear stage {i} must quantize")),
                        )
                    };
                    let flat_codes = if flat_needed { desc.n * desc.k } else { 0 };
                    let pack_codes = if last { 0 } else { desc.n * desc.m };
                    // The output stage writes its raw product straight
                    // into the shared logits buffer (`y_elems`); only
                    // hidden linear stages route through the apmm
                    // accumulator scratch.
                    let acc_elems = if last { 0 } else { desc.m * desc.n };
                    StageLayout {
                        name: m.name.clone(),
                        out: out_bits.map(|bits| SlotShape::Vector {
                            rows: desc.n,
                            cols: desc.m,
                            bits,
                        }),
                        flat: if flat_needed {
                            Some((desc.n, desc.k, desc.x_bits))
                        } else {
                            None
                        },
                        acc_elems,
                        pooled_elems: 0,
                        y_elems: if last { desc.m * desc.n } else { 0 },
                        res_elems: 0,
                        conv_win_words: 0,
                        conv_taps: 0,
                        conv_planes: 0,
                        apmm_col_sums: desc.x_bits as usize * desc.n,
                        codes_elems: flat_codes.max(pack_codes),
                        is_conv: false,
                    }
                }
                MainKernel::Baseline => {
                    unreachable!("is_executable rejected baseline stages")
                }
            };
            prev_is_conv = matches!(m.kernel, MainKernel::Conv { .. });
            layout
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Lowering of one main stage.
// ---------------------------------------------------------------------------

/// The resolved per-stage bit parameters of one main stage — computed by
/// the caller (from the whole-network scheme or a per-layer schedule entry)
/// and threaded through lowering, so `compile_main` itself is
/// schedule-agnostic.
#[derive(Debug, Clone, Copy)]
struct StagePrec {
    /// Weight bits.
    w_bits: u32,
    /// Input activation bits (what the producer emitted; 8 for the first
    /// main layer).
    x_bits: u32,
    /// Weight encoding.
    w_enc: Encoding,
    /// Input activation encoding.
    x_enc: Encoding,
    /// Output activation bits (the fused quantize width).
    out_bits: u32,
    /// Encoding the *next* stage consumes (calibrated packing).
    next_enc: Encoding,
}

/// Panic unless `sched` legally covers `net`'s fused form: fusion on,
/// fully fused, one entry per main layer, and identity residual joins
/// agreeing on activation bits between branch producer and joining layer.
fn validate_schedule(
    net: &Network,
    fused: &[Stage],
    sched: &PrecisionSchedule,
    opts: &CompileOptions,
) {
    assert!(
        opts.fuse,
        "mixed-precision schedules require the fusion pass (opts.fuse)"
    );
    if let Some(ew) = fused.iter().find(|s| !s.is_main()) {
        panic!(
            "mixed-precision schedules require a fully-fused plan; stage `{}` of `{}` did not fuse",
            ew.name(),
            net.name
        );
    }
    let n_mains = fused.len();
    assert_eq!(
        sched.len(),
        n_mains,
        "schedule covers {} layers but `{}` has {} main layers",
        sched.len(),
        net.name,
        n_mains
    );
    let mut branch_producer: Option<usize> = None;
    for stage in fused {
        let Stage::Main {
            main_index,
            save_branch,
            residual,
            ..
        } = stage
        else {
            unreachable!("fully-fused was just checked")
        };
        if matches!(residual, Some(ResidualSrc::Identity)) {
            let bp = branch_producer.expect("identity residual without a saved branch");
            assert_eq!(
                sched.layer(bp).a,
                sched.layer(*main_index).a,
                "identity residual join at main layer {main_index}: the branch producer \
                 (layer {bp}, a{}) and the joining layer (a{}) must agree on activation bits",
                sched.layer(bp).a,
                sched.layer(*main_index).a,
            );
        }
        if *save_branch {
            branch_producer = Some(*main_index);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_main(
    name: &str,
    op: &MainOp,
    tail: &FusedTail,
    src: StageSrc,
    save_branch: bool,
    residual: Option<ResidualSrc>,
    precision: NetPrecision,
    prec: StagePrec,
    opts: &CompileOptions,
    rng: &mut SynthRng,
    calib: &mut Option<CalibState>,
) -> MainStage {
    let channels = op.out_channels();

    if precision.baseline_kind().is_some() {
        return MainStage {
            name: name.to_string(),
            op: op.clone(),
            pool: None,
            epi: Epilogue::none(),
            kernel: MainKernel::Baseline,
            init: None,
            input: src,
            save_branch,
            residual,
        };
    }

    // Emulated schemes.
    let StagePrec {
        w_bits,
        x_bits,
        w_enc,
        x_enc,
        out_bits,
        next_enc,
    } = prec;
    let pool = if tail.pool2 { Some(Pool2::Max) } else { None };

    let fixed_tile = match precision {
        NetPrecision::Bnn => Some(TileConfig::new(32, 32)),
        _ => None,
    };

    let (kernel, init, k_valid) = match *op {
        MainOp::Conv {
            cin,
            h,
            w,
            cout,
            k,
            stride,
            pad,
        } => {
            let desc = ConvDesc {
                batch: opts.batch,
                cin,
                h,
                w,
                cout,
                kh: k,
                kw: k,
                stride,
                pad,
                w_bits,
                x_bits,
                w_enc,
                x_enc,
            };
            let g = desc.as_gemm();
            let tile = fixed_tile.unwrap_or_else(|| autotune(g.m, g.n, g.k, g.w_bits, g.x_bits));
            let (prepared, init) = match opts.materialize {
                Materialize::SimOnly => (None, None),
                Materialize::Functional { .. } => {
                    let n_w = cout * k * k * cin;
                    let (weights, w_vals) = if w_enc == Encoding::PlusMinusOne {
                        let vals = rng.signs(n_w);
                        (ConvWeights::from_signed(&desc, &vals), vals)
                    } else {
                        let codes = rng.codes(n_w, w_bits);
                        let vals = codes.iter().map(|&c| c as i32).collect();
                        (ConvWeights::from_codes(&desc, &codes), vals)
                    };
                    (
                        Some(ApConv::with_tile(desc, tile).prepare(weights)),
                        Some(MainInit { w_vals }),
                    )
                }
            };
            // One microkernel tile + popcount arm per layer, fixed at
            // compile time: read both back from the prepared kernel (whose
            // `prepare` selected them through the shape-keyed memo), or —
            // for simulation-only plans, which never execute — take the
            // free heuristic tile instead of paying for a measurement.
            let (micro, arm) = match &prepared {
                Some(p) => (p.micro(), p.arm()),
                None => (
                    autotune_micro(cout, desc.k_bits() / 64, x_bits, w_bits),
                    PopcntArm::detect(),
                ),
            };
            (
                MainKernel::Conv {
                    desc,
                    tile,
                    micro,
                    arm,
                    prepared,
                },
                init,
                k * k * cin,
            )
        }
        MainOp::Linear {
            in_features,
            out_features,
        } => {
            let desc = ApmmDesc {
                m: out_features,
                n: opts.batch,
                k: in_features,
                w_bits,
                x_bits,
                w_enc,
                x_enc,
            };
            let tile =
                fixed_tile.unwrap_or_else(|| autotune(desc.m, desc.n, desc.k, w_bits, x_bits));
            let (prepared, init) = match opts.materialize {
                Materialize::SimOnly => (None, None),
                Materialize::Functional { .. } => {
                    let n_w = out_features * in_features;
                    let (weights, w_vals) = if w_enc == Encoding::PlusMinusOne {
                        let vals = rng.signs(n_w);
                        (
                            BitPlanes::from_signed_binary(&vals, out_features, in_features),
                            vals,
                        )
                    } else {
                        let codes = rng.codes(n_w, w_bits);
                        let vals = codes.iter().map(|&c| c as i32).collect();
                        (
                            BitPlanes::from_codes(&codes, out_features, in_features, w_bits, w_enc),
                            vals,
                        )
                    };
                    (
                        Some(Apmm::with_tile(desc, tile).prepare(weights)),
                        Some(MainInit { w_vals }),
                    )
                }
            };
            let (micro, arm) = match &prepared {
                Some(p) => (p.micro(), p.arm()),
                None => (
                    autotune_micro(desc.n, pad_to_bmma_k(desc.k) / 64, w_bits, x_bits),
                    PopcntArm::detect(),
                ),
            };
            (
                MainKernel::Linear {
                    desc,
                    tile,
                    micro,
                    arm,
                    prepared,
                },
                init,
                in_features,
            )
        }
    };

    let epi = match opts.materialize {
        Materialize::SimOnly => tail_epilogue(tail, channels, out_bits),
        Materialize::Functional { .. } => match calib.take() {
            Some(mut st) => {
                if src == StageSrc::Branch {
                    // Skip projection: run the prepared conv over the saved
                    // branch activation and park the raw accumulators for
                    // the consuming conv. The chain activation is untouched
                    // and the stage carries no epilogue.
                    let MainKernel::Conv {
                        prepared: Some(p), ..
                    } = &kernel
                    else {
                        unreachable!("skip stages are materialized convs")
                    };
                    let Some(Act::Map(bmap)) = &st.branch else {
                        unreachable!("skip stage before any saved branch activation")
                    };
                    st.res = Some(p.execute(bmap));
                    *calib = Some(st);
                    Epilogue::none()
                } else {
                    let residual_accs: Option<Vec<i32>> = match residual {
                        None => None,
                        Some(ResidualSrc::Projection) => Some(
                            st.res
                                .take()
                                .expect("projection residual needs a preceding skip stage"),
                        ),
                        Some(ResidualSrc::Identity) => {
                            let Some(Act::Map(bmap)) = &st.branch else {
                                unreachable!("identity residual before any saved branch")
                            };
                            let mut v = Vec::new();
                            decode_codes_into(bmap, &mut v);
                            Some(v)
                        }
                    };
                    let (epi, next) = calibrate_stage(
                        &kernel,
                        pool,
                        tail,
                        channels,
                        out_bits,
                        next_enc,
                        st.chain,
                        residual_accs.as_deref(),
                        rng,
                    );
                    if let Some(next) = next {
                        if save_branch {
                            st.branch = Some(next.clone());
                        }
                        st.chain = next;
                        *calib = Some(st);
                    }
                    epi
                }
            }
            None => synth_epilogue(
                tail, channels, out_bits, k_valid, w_bits, x_bits, w_enc, rng,
            ),
        },
    };

    MainStage {
        name: name.to_string(),
        op: op.clone(),
        pool,
        epi,
        kernel,
        init,
        input: src,
        save_branch,
        residual,
    }
}

/// Flow the calibration batch through a freshly-prepared stage: observe the
/// accumulator range after the synthetic BN/ReLU prefix, fix the quantize
/// scale/zero-point from it, and hand the resulting packed activations to
/// the next stage's calibration. Returns `(finalized epilogue, next act)`.
/// `residual` is added into the raw accumulators before the prefix — the
/// same pre-epilogue ordering the kernels execute.
#[allow(clippy::too_many_arguments)]
fn calibrate_stage(
    kernel: &MainKernel,
    pool: Option<Pool2>,
    tail: &FusedTail,
    channels: usize,
    out_bits: u32,
    next_enc: Encoding,
    act: Act,
    residual: Option<&[i32]>,
    rng: &mut SynthRng,
) -> (Epilogue, Option<Act>) {
    // Raw i32 accumulators (+ pooled geometry) and a per-element channel
    // index function.
    enum OutShape {
        Map { n: usize, oh: usize, ow: usize },
        Vector { n: usize },
    }
    let (accs, shape): (Vec<i32>, OutShape) = match (kernel, act) {
        (
            MainKernel::Conv {
                desc,
                prepared: Some(p),
                ..
            },
            Act::Map(map),
        ) => {
            let n = map.shape().0;
            let mut y = p.execute(&map);
            if let Some(res) = residual {
                assert_eq!(res.len(), y.len(), "residual must match the accumulators");
                for (a, r) in y.iter_mut().zip(res) {
                    *a += r;
                }
            }
            let (mut oh, mut ow) = (desc.out_h(), desc.out_w());
            if let Some(kind) = pool {
                y = pool2_i32(&y, n, oh, ow, desc.cout, kind);
                oh /= 2;
                ow /= 2;
            }
            (y, OutShape::Map { n, oh, ow })
        }
        (
            MainKernel::Linear {
                prepared: Some(p), ..
            },
            act @ (Act::Map(_) | Act::Vector(_)),
        ) => {
            let v = match act {
                Act::Map(m) => flatten_map(&m),
                Act::Vector(v) => v,
            };
            let n = v.rows();
            (p.execute(&v), OutShape::Vector { n })
        }
        _ => unreachable!(
            "calibration reached an invalid kernel/activation combination \
             (calibration only runs on fully-fused, materialized plans)"
        ),
    };

    let channel_of = |idx: usize| -> usize {
        match shape {
            OutShape::Map { .. } => idx % channels,
            OutShape::Vector { n } => idx / n.max(1),
        }
    };

    // BN/ReLU prefix with synthetic parameters.
    let mut epi = bn_relu_prefix(tail, channels, rng);

    if !tail.quantize {
        // Output stage: raw i32 logits, calibration ends here.
        return (epi, None);
    }

    // Observe the post-prefix value range and fix the quantize constants so
    // codes spread across the full width.
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for (idx, &a) in accs.iter().enumerate() {
        let v = epi.apply(a, channel_of(idx));
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        (lo, hi) = (0.0, 1.0);
    }
    let levels = ((1u32 << out_bits) - 1) as f32;
    let scale = ((hi - lo) / (levels + 1.0)).max(1e-3);
    epi = epi.then(EpilogueOp::Quantize {
        scale,
        zero_point: lo,
        bits: out_bits,
    });

    // Pack the calibrated activations for the next stage.
    let next = match shape {
        OutShape::Map { n, oh, ow } => {
            let mut t = BitTensor4::zeros(n, oh, ow, channels, out_bits, next_enc);
            for b in 0..n {
                for y in 0..oh {
                    for x in 0..ow {
                        for co in 0..channels {
                            let acc = accs[((b * oh + y) * ow + x) * channels + co];
                            t.set_code(b, y, x, co, epi.apply_to_code(acc, co));
                        }
                    }
                }
            }
            Act::Map(t)
        }
        OutShape::Vector { n } => {
            // accs are features×batch; the next layer consumes rows=batch.
            let mut codes = vec![0u32; n * channels];
            for f in 0..channels {
                for b in 0..n {
                    codes[b * channels + f] = epi.apply_to_code(accs[f * n + b], f);
                }
            }
            Act::Vector(BitPlanes::from_codes(
                &codes, n, channels, out_bits, next_enc,
            ))
        }
    };
    (epi, Some(next))
}

/// The synthetic BatchNorm/ReLU prefix shared by calibration and the
/// formula-based fallback — one implementation so the same seed produces
/// the same parameters on either path.
fn bn_relu_prefix(tail: &FusedTail, channels: usize, rng: &mut SynthRng) -> Epilogue {
    let mut epi = Epilogue::none();
    if tail.bn {
        let gamma: Vec<f32> = (0..channels).map(|_| 0.75 + 0.5 * rng.unit()).collect();
        let beta: Vec<f32> = (0..channels).map(|_| 0.5 - rng.unit()).collect();
        epi = epi.then(EpilogueOp::BatchNorm {
            gamma,
            beta,
            mean: vec![0.0; channels],
            var: vec![1.0; channels],
            eps: 1e-5,
        });
    }
    if tail.relu {
        epi = epi.then(EpilogueOp::Relu);
    }
    epi
}

/// Build a *parameterized* epilogue with the same op mix the fusion tail
/// dictates, with quantization ranges derived from the layer's accumulator
/// statistics so packed activations keep information flowing.
#[allow(clippy::too_many_arguments)]
fn synth_epilogue(
    tail: &FusedTail,
    channels: usize,
    out_bits: u32,
    k_valid: usize,
    w_bits: u32,
    x_bits: u32,
    w_enc: Encoding,
    rng: &mut SynthRng,
) -> Epilogue {
    let mut epi = bn_relu_prefix(tail, channels, rng);
    if tail.quantize {
        let x_max = ((1u64 << x_bits) - 1) as f32;
        let levels = ((1u32 << out_bits) - 1) as f32;
        // Accumulator statistics over k_valid random products.
        let (center, spread) = if w_enc == Encoding::PlusMinusOne {
            // ±1 weights: zero mean, σ ≈ √k · rms(x).
            (0.0, (k_valid as f32).sqrt() * x_max / 3f32.sqrt())
        } else {
            let w_mean = ((1u64 << w_bits) - 1) as f32 / 2.0;
            let center = k_valid as f32 * w_mean * x_max / 2.0;
            (center, (k_valid as f32).sqrt() * w_mean * x_max / 2.0)
        };
        let lo = if tail.relu {
            0.0f32.max(center - 2.0 * spread)
        } else {
            center - 2.0 * spread
        };
        let hi = center + 2.0 * spread;
        let scale = ((hi - lo) / levels).max(1e-3);
        epi = epi.then(EpilogueOp::Quantize {
            scale,
            zero_point: lo,
            bits: out_bits,
        });
    }
    epi
}

/// Small deterministic generator for synthetic weights/parameters
/// (splitmix64; dependency-free).
struct SynthRng {
    state: u64,
}

impl SynthRng {
    fn new(seed: u64) -> Self {
        SynthRng {
            state: seed ^ 0x5851F42D4C957F2D,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn signs(&mut self, n: usize) -> Vec<i32> {
        (0..n)
            .map(|_| if self.next() & 1 == 0 { -1 } else { 1 })
            .collect()
    }

    fn codes(&mut self, n: usize, bits: u32) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next() as u32) & ((1 << bits) - 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec as L;

    fn tiny_net() -> Network {
        Network::new("tiny", 3, 8, 8)
            .push(L::conv("c1", 8, 3, 1, 1))
            .push(L::BatchNorm)
            .push(L::Relu)
            .push(L::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            })
            .push(L::QuantizeActs)
            .push(L::Flatten)
            .push(L::linear("fc", 5))
    }

    #[test]
    fn sim_only_plans_have_no_weights() {
        let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
        assert!(!plan.is_executable());
        assert_eq!(plan.classes(), 5);
        assert_eq!(plan.main_stages().count(), 2);
    }

    #[test]
    fn functional_plans_execute_end_to_end() {
        use apnn_bitpack::{Layout, Tensor4};
        let plan = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(2, 7),
        );
        assert!(plan.is_executable());
        let codes = Tensor4::<u32>::from_fn(2, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
            ((b + 3 * c + 5 * h + 7 * w) % 256) as u32
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        let logits = plan.infer(&input);
        assert_eq!(logits.len(), 2 * 5);
        // Deterministic: same plan, same input, same logits.
        assert_eq!(plan.infer(&input), logits);
    }

    #[test]
    fn sim_engine_matches_for_both_materializations() {
        let spec = GpuSpec::rtx3090();
        let net = tiny_net();
        let sim_only =
            CompiledNet::compile(&net, NetPrecision::w1a2(), &CompileOptions::sim(4)).report(&spec);
        let functional = CompiledNet::compile(
            &net,
            NetPrecision::w1a2(),
            &CompileOptions::functional(4, 1),
        )
        .report(&spec);
        assert_eq!(sim_only.total_s, functional.total_s);
        assert_eq!(sim_only.stages.len(), functional.stages.len());
    }

    #[test]
    fn shards_cover_the_batch_with_one_remainder() {
        let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
        assert_eq!(plan.shards(0), vec![]);
        assert_eq!(plan.shards(3), vec![Shard { start: 0, len: 3 }]);
        assert_eq!(
            plan.shards(9),
            vec![
                Shard { start: 0, len: 4 },
                Shard { start: 4, len: 4 },
                Shard { start: 8, len: 1 },
            ]
        );
        // Exact multiples have no remainder shard.
        assert!(plan.shards(8).iter().all(|s| s.len == 4));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_shard_sizes() {
        use apnn_bitpack::{Layout, Tensor4};
        let plan = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(4, 21),
        );
        let mut ws = plan.workspace();
        let mut out = Vec::new();
        // Interleave shard sizes (full, partial, single) through one
        // workspace; every call must match a fresh allocating infer.
        for n in [4usize, 1, 3, 4, 2] {
            let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
                ((13 * b + 3 * c + 5 * h + 7 * w + n) % 256) as u32
            });
            let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
            plan.infer_into(&input, &mut ws, &mut out);
            assert_eq!(out, plan.infer(&input), "shard of {n}");
            let mut again = Vec::new();
            plan.infer_into(&input, &mut ws, &mut again);
            assert_eq!(again, out, "second pass through the same workspace");
        }
    }

    #[test]
    fn workspace_spec_reports_plan_sized_buffers() {
        let plan = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(2, 5),
        );
        let spec = plan.workspace_spec();
        assert_eq!(spec.stages.len(), plan.main_stages().count());
        // Conv stage: packed map out, pre-pool accumulators.
        let conv = &spec.stages[0];
        assert_eq!(conv.name, "c1");
        // 2 images × 2 bits × 4×4 pooled pixels × 1 padded channel word.
        assert_eq!(conv.out_bytes, 2 * 2 * 4 * 4 * 2 * 8);
        assert_eq!(conv.flat_bytes, 0);
        // Pre-pool 8×8×8 accumulators + pooled 4×4×8, i32 each.
        assert_eq!(conv.acc_bytes, (2 * 8 * 8 * 8 + 2 * 4 * 4 * 8) * 4);
        // Output stage: no packed slot, flatten slot for the pooled map.
        let fc = &spec.stages[1];
        assert_eq!(fc.out_bytes, 0);
        assert!(fc.flat_bytes > 0);
        assert!(spec.scratch_bytes > 0);
        assert!(spec.total_bytes >= spec.scratch_bytes + conv.out_bytes);
    }

    #[test]
    #[should_panic(expected = "workspace was built for")]
    fn workspace_is_bound_to_its_plan() {
        use apnn_bitpack::{Layout, Tensor4};
        let a = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(2, 5),
        );
        let b = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(4, 5),
        );
        let mut ws = a.workspace();
        let codes = Tensor4::<u32>::from_fn(2, 3, 8, 8, Layout::Nhwc, |_, _, _, _| 1);
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        let mut out = Vec::new();
        b.infer_into(&input, &mut ws, &mut out);
    }

    #[test]
    #[should_panic(expected = "not executable")]
    fn sim_only_plans_have_no_workspace() {
        let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
        let _ = plan.workspace();
    }

    #[test]
    fn pooled_batched_inference_is_bit_identical_across_pools_and_threads() {
        use apnn_bitpack::{Layout, Tensor4};
        let plan = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(3, 17),
        );
        let n = 10;
        let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
            ((17 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        // Reference: image-by-image sequential inference.
        let mut want = Vec::new();
        for b in 0..n {
            want.extend(plan.infer(&input.batch_slice(b, 1)));
        }
        for pool_size in [1usize, 2, 8] {
            let pool = plan.workspace_pool(pool_size);
            let mut out = Vec::new();
            for threads in [1usize, 2, 4, 0] {
                // Repeat through the same pool: reuse must not leak state.
                for _ in 0..2 {
                    plan.infer_batched_into(&input, &pool, threads, &mut out);
                    assert_eq!(out, want, "pool {pool_size}, threads {threads}");
                }
            }
            let s = pool.stats();
            assert!(s.created <= pool_size, "pool overgrew: {s:?}");
            assert!(s.checkouts > 0);
        }
    }

    #[test]
    fn batched_inference_matches_unsharded() {
        use apnn_bitpack::{Layout, Tensor4};
        let plan = CompiledNet::compile(
            &tiny_net(),
            NetPrecision::w1a2(),
            &CompileOptions::functional(2, 9),
        );
        let n = 5; // not a multiple of the compiled batch
        let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
            ((11 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        let pool = plan.workspace_pool(rayon::current_num_threads());
        let mut sharded = Vec::new();
        plan.infer_batched_into(&input, &pool, 0, &mut sharded);
        // Reference: image-by-image.
        let mut want = Vec::new();
        for b in 0..n {
            want.extend(plan.infer(&input.batch_slice(b, 1)));
        }
        assert_eq!(sharded, want);
    }
}
