//! Kernel launch: occupancy computation and block execution.

use crate::block::BlockCtx;
use crate::cost::{price, CostBreakdown};
use crate::counters::Counters;
use crate::spec::{GpuSpec, Precision};

/// Launch configuration of a simulated kernel.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Thread blocks in the grid.
    pub grid_blocks: usize,
    /// Warps per block (the paper fixes 8 for its kernels, §4.3).
    pub warps_per_block: u32,
    /// Shared memory claimed per block, in bytes.
    pub shmem_per_block: usize,
    /// Registers per thread (occupancy limiter).
    pub regs_per_thread: u32,
    /// Matrix-pipeline precision the kernel computes in (prices `tc_macs`).
    pub precision: Precision,
    /// Implementation-quality factor in `(0, 1]`: fraction of the hardware
    /// peak a *fully occupied* SM reaches with this kernel. Calibrated per
    /// kernel family (see `DESIGN.md` §6); our APMM/APConv and the
    /// cutlass/cublas-like baselines carry different values taken from the
    /// paper's own measured ratios.
    pub efficiency: f64,
}

impl KernelConfig {
    /// Convenience constructor with the defaults shared by most kernels.
    pub fn new(grid_blocks: usize, precision: Precision) -> Self {
        KernelConfig {
            grid_blocks,
            warps_per_block: 8,
            shmem_per_block: 32 * 1024,
            regs_per_thread: 64,
            precision,
            efficiency: 1.0,
        }
    }
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Co-resident blocks per SM allowed by the resource limits.
    pub blocks_per_sm: u32,
    /// Blocks per SM actually resident given the grid size.
    pub resident_blocks_per_sm: u32,
    /// Resident warps per SM (`resident_blocks × warps_per_block`).
    pub active_warps_per_sm: u32,
    /// Full/partial waves needed to drain the grid.
    pub waves: u32,
    /// Latency-hiding efficiency `min(1, active_warps / warps_for_peak)`.
    pub hide_efficiency: f64,
}

/// Compute occupancy for a launch on `spec`.
pub fn occupancy_for(spec: &GpuSpec, cfg: &KernelConfig) -> Occupancy {
    let by_warps = spec.max_warps_per_sm / cfg.warps_per_block.max(1);
    let by_shmem = spec
        .shmem_per_sm
        .checked_div(cfg.shmem_per_block)
        .map(|b| b as u32)
        .unwrap_or(spec.max_blocks_per_sm);
    let regs_per_block = cfg.regs_per_thread * cfg.warps_per_block * 32;
    let by_regs = spec
        .regs_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(spec.max_blocks_per_sm);
    let blocks_per_sm = by_warps
        .min(by_shmem)
        .min(by_regs)
        .min(spec.max_blocks_per_sm)
        .max(1);

    let grid = cfg.grid_blocks.max(1) as u32;
    // Blocks spread across SMs before stacking on one SM.
    let resident = grid.div_ceil(spec.num_sms).min(blocks_per_sm);
    let active_warps = resident * cfg.warps_per_block;
    let concurrent = spec.num_sms * blocks_per_sm;
    let waves = grid.div_ceil(concurrent);
    let hide = (active_warps as f64 / spec.warps_for_peak_tc).min(1.0);

    Occupancy {
        blocks_per_sm,
        resident_blocks_per_sm: resident,
        active_warps_per_sm: active_warps,
        waves,
        hide_efficiency: hide,
    }
}

/// Full kernel execution report.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Aggregate counters over all blocks.
    pub counters: Counters,
    /// Occupancy used for pricing.
    pub occupancy: Occupancy,
    /// Itemized latency.
    pub cost: CostBreakdown,
}

impl KernelReport {
    /// Simulated wall-clock latency in seconds.
    #[inline]
    pub fn time_s(&self) -> f64 {
        self.cost.total_s
    }

    /// Simulated latency in microseconds (the paper's reporting unit).
    #[inline]
    pub fn time_us(&self) -> f64 {
        self.cost.total_s * 1e6
    }
}

/// Execute every block of the grid through `body`, then price the kernel.
///
/// `body(block_id, ctx)` performs the block's (real) computation and records
/// its events on `ctx`. Blocks run sequentially; the cost model accounts for
/// the parallel hardware schedule.
pub fn launch(
    spec: &GpuSpec,
    cfg: &KernelConfig,
    mut body: impl FnMut(usize, &mut BlockCtx),
) -> KernelReport {
    let mut totals = Counters::default();
    for b in 0..cfg.grid_blocks {
        let mut ctx = BlockCtx::new();
        body(b, &mut ctx);
        totals.add(ctx.counters());
    }
    finish(spec, cfg, totals)
}

/// Execute a single representative block and scale its counters across a
/// uniform grid — the fast path for latency estimation on large problems.
///
/// Tests in `apnn-kernels` assert that for uniform tilings this produces
/// exactly the same counters as [`launch`].
pub fn launch_scaled(
    spec: &GpuSpec,
    cfg: &KernelConfig,
    body: impl FnOnce(&mut BlockCtx),
) -> KernelReport {
    let mut ctx = BlockCtx::new();
    body(&mut ctx);
    let totals = ctx.into_counters().scaled(cfg.grid_blocks.max(1) as u64);
    finish(spec, cfg, totals)
}

/// Price pre-aggregated counters (used by closed-form estimators).
pub fn finish(spec: &GpuSpec, cfg: &KernelConfig, totals: Counters) -> KernelReport {
    let occupancy = occupancy_for(spec, cfg);
    let cost = price(spec, cfg, &occupancy, &totals);
    KernelReport {
        counters: totals,
        occupancy,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Coalescing;

    #[test]
    fn occupancy_limited_by_warps() {
        let spec = GpuSpec::rtx3090(); // 48 warps/SM
        let mut cfg = KernelConfig::new(10_000, Precision::Int1);
        cfg.warps_per_block = 16;
        cfg.shmem_per_block = 1024;
        cfg.regs_per_thread = 32;
        let occ = occupancy_for(&spec, &cfg);
        assert_eq!(occ.blocks_per_sm, 3); // 48/16
    }

    #[test]
    fn occupancy_limited_by_shmem() {
        let spec = GpuSpec::rtx3090(); // 128 KB/SM
        let mut cfg = KernelConfig::new(10_000, Precision::Int1);
        cfg.warps_per_block = 2;
        cfg.shmem_per_block = 64 * 1024;
        let occ = occupancy_for(&spec, &cfg);
        assert_eq!(occ.blocks_per_sm, 2);
    }

    #[test]
    fn small_grid_hurts_hide_efficiency() {
        let spec = GpuSpec::rtx3090();
        let mut cfg = KernelConfig::new(8, Precision::Int1);
        cfg.warps_per_block = 4;
        let occ = occupancy_for(&spec, &cfg);
        // 8 blocks over 82 SMs: 1 resident block/SM, 4 warps < 8 needed.
        assert_eq!(occ.resident_blocks_per_sm, 1);
        assert_eq!(occ.active_warps_per_sm, 4);
        assert!((occ.hide_efficiency - 0.5).abs() < 1e-12);
    }

    #[test]
    fn waves_count() {
        let spec = GpuSpec::rtx3090();
        let mut cfg = KernelConfig::new(82 * 4 * 2 + 1, Precision::Int1);
        cfg.warps_per_block = 8;
        cfg.shmem_per_block = 32 * 1024; // 4 blocks/SM by shmem
        cfg.regs_per_thread = 32;
        let occ = occupancy_for(&spec, &cfg);
        assert_eq!(occ.blocks_per_sm, 4);
        assert_eq!(occ.waves, 3);
    }

    #[test]
    fn launch_and_scaled_agree_for_uniform_blocks() {
        let spec = GpuSpec::rtx3090();
        let cfg = KernelConfig::new(64, Precision::Int1);
        let body = |_b: usize, ctx: &mut BlockCtx| {
            ctx.global_load(4096, Coalescing::Coalesced);
            ctx.bmma(16);
            ctx.global_store(256, Coalescing::Coalesced);
        };
        let full = launch(&spec, &cfg, body);
        let scaled = launch_scaled(&spec, &cfg, |ctx| {
            ctx.global_load(4096, Coalescing::Coalesced);
            ctx.bmma(16);
            ctx.global_store(256, Coalescing::Coalesced);
        });
        assert_eq!(full.counters, scaled.counters);
        assert_eq!(full.cost.total_s, scaled.cost.total_s);
    }

    #[test]
    fn report_time_units() {
        let spec = GpuSpec::rtx3090();
        let cfg = KernelConfig::new(1, Precision::Int1);
        let r = launch(&spec, &cfg, |_, ctx| ctx.bmma(1));
        assert!((r.time_us() - r.time_s() * 1e6).abs() < 1e-12);
        assert!(r.time_s() > 0.0);
    }
}
