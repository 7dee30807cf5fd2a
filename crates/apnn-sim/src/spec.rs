//! GPU hardware specifications and throughput tables.
//!
//! Every number that enters the cost model lives here, with its source.
//! The two presets mirror the paper's testbeds (§6): an RTX 3090 and an
//! A100. Peak tensor-core rates follow the NVIDIA GA102 and A100 whitepapers;
//! effective-efficiency calibration constants are documented inline and in
//! `DESIGN.md` §6.

/// Matrix-pipeline precisions relevant to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 1-bit tensor-core `bmma` (XOR or AND + popcount).
    Int1,
    /// 4-bit tensor-core IMMA.
    Int4,
    /// 8-bit tensor-core IMMA.
    Int8,
    /// FP16 tensor-core HMMA.
    Fp16,
    /// FP32 on CUDA cores (no tensor cores).
    Fp32,
}

impl Precision {
    /// Storage bits per element.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Int1 => 1,
            Precision::Int4 => 4,
            Precision::Int8 => 8,
            Precision::Fp16 => 16,
            Precision::Fp32 => 32,
        }
    }
}

/// A GPU model: everything the roofline/occupancy cost model consumes.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"RTX 3090"`.
    pub name: String,
    /// Streaming multiprocessor count.
    pub num_sms: u32,
    /// Sustained (boost) clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in bytes/second.
    pub dram_bytes_per_s: f64,
    /// Fraction of peak DRAM bandwidth achievable by well-coalesced kernels
    /// (µbenchmark literature consistently reports 75–85%).
    pub dram_efficiency: f64,
    /// L2 cache bandwidth in bytes/second. Tile re-loads of cached operands
    /// are served here rather than from DRAM (µbenchmarks: ≈2–2.5 TB/s on
    /// GA102, ≈4–5 TB/s on GA100).
    pub l2_bytes_per_s: f64,
    /// Shared memory per SM in bytes.
    pub shmem_per_sm: usize,
    /// Maximum shared memory a single block may claim (opt-in carveout).
    pub max_shmem_per_block: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Register file per SM (32-bit registers).
    pub regs_per_sm: u32,
    /// Shared-memory bandwidth per SM in bytes/cycle (128 B/clk on Ampere).
    pub shmem_bytes_per_cycle_sm: f64,
    /// Tensor-core MACs/cycle/SM at int1 (XOR/AND bmma).
    pub tc_int1_mac_per_cycle_sm: f64,
    /// Tensor-core MACs/cycle/SM at int4.
    pub tc_int4_mac_per_cycle_sm: f64,
    /// Tensor-core MACs/cycle/SM at int8.
    pub tc_int8_mac_per_cycle_sm: f64,
    /// Tensor-core MACs/cycle/SM at fp16.
    pub tc_fp16_mac_per_cycle_sm: f64,
    /// CUDA-core fp32 FMAs/cycle/SM.
    pub cuda_fp32_fma_per_cycle_sm: f64,
    /// CUDA-core int32 ALU ops/cycle/SM (shifts/adds of the bit
    /// decomposition/combination epilogues). Ampere SMs issue simple integer
    /// ops on both the dedicated INT32 lanes and the FP32/INT hybrid lanes,
    /// so this is 2× the FMA rate.
    pub cuda_int_op_per_cycle_sm: f64,
    /// Fixed kernel-launch overhead in seconds (driver + grid setup; µbench
    /// literature puts this at 2–5 µs; the paper's Table 4 FC latencies are
    /// consistent with ≈3 µs).
    pub kernel_launch_overhead_s: f64,
    /// Resident warps per SM needed to reach peak tensor-core issue rate.
    /// The paper empirically settles on 8 warps/block (§4.3); µarch studies
    /// show ≈8 warps saturate the TC pipe when data is staged in shmem.
    pub warps_for_peak_tc: f64,
    /// Whether the b1 `bmma` supports the AND op. Turing exposes only XOR;
    /// Ampere added AND (§2.3 of the paper). XOR-only devices run every
    /// emulation case through `apnn_kernels::select::plan_xor_only`.
    pub supports_and_bmma: bool,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 3090 (GA102).
    ///
    /// Sources: NVIDIA *GA102 whitepaper*: 82 SMs, 1.695 GHz boost,
    /// 936 GB/s GDDR6X, 128 KB L1/shmem per SM, 48 warps/SM.
    /// Tensor MAC rates per SM/cycle derived from whitepaper peak TOPS:
    /// INT8 284 TOPS ⇒ 284e12 / 2 / 82 / 1.695e9 ≈ 1024 MAC/cycle/SM;
    /// INT4 doubles that; INT1 bmma is 8× INT8 on GA10x.
    pub fn rtx3090() -> Self {
        GpuSpec {
            name: "RTX 3090".to_string(),
            num_sms: 82,
            clock_ghz: 1.695,
            dram_bytes_per_s: 936.0e9,
            dram_efficiency: 0.78,
            l2_bytes_per_s: 2.3e12,
            shmem_per_sm: 128 * 1024,
            max_shmem_per_block: 100 * 1024,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 16,
            regs_per_sm: 65536,
            shmem_bytes_per_cycle_sm: 128.0,
            tc_int1_mac_per_cycle_sm: 8192.0,
            tc_int4_mac_per_cycle_sm: 2048.0,
            tc_int8_mac_per_cycle_sm: 1024.0,
            tc_fp16_mac_per_cycle_sm: 512.0,
            cuda_fp32_fma_per_cycle_sm: 64.0,
            cuda_int_op_per_cycle_sm: 128.0,
            kernel_launch_overhead_s: 3.0e-6,
            warps_for_peak_tc: 8.0,
            supports_and_bmma: true,
        }
    }

    /// NVIDIA A100 (GA100, SXM4-40GB).
    ///
    /// Sources: NVIDIA *A100 whitepaper*: 108 SMs, 1.41 GHz, 1555 GB/s HBM2,
    /// 164 KB shmem/SM, 64 warps/SM. INT8 624 TOPS ⇒ 2048 MAC/cycle/SM;
    /// INT4 1248 TOPS; INT1 4992 TOPS ⇒ 16384 MAC/cycle/SM.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100".to_string(),
            num_sms: 108,
            clock_ghz: 1.41,
            dram_bytes_per_s: 1555.0e9,
            dram_efficiency: 0.80,
            l2_bytes_per_s: 4.5e12,
            shmem_per_sm: 164 * 1024,
            max_shmem_per_block: 160 * 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            regs_per_sm: 65536,
            shmem_bytes_per_cycle_sm: 128.0,
            tc_int1_mac_per_cycle_sm: 16384.0,
            tc_int4_mac_per_cycle_sm: 4096.0,
            tc_int8_mac_per_cycle_sm: 2048.0,
            tc_fp16_mac_per_cycle_sm: 1024.0,
            cuda_fp32_fma_per_cycle_sm: 64.0,
            cuda_int_op_per_cycle_sm: 128.0,
            kernel_launch_overhead_s: 3.0e-6,
            warps_for_peak_tc: 8.0,
            supports_and_bmma: true,
        }
    }

    /// NVIDIA Tesla T4 (TU104, Turing) — the XOR-only generation.
    ///
    /// Sources: NVIDIA *Turing whitepaper* / T4 datasheet: 40 SMs, 1.59 GHz
    /// boost, 320 GB/s GDDR6, 64 KB shmem/SM, 32 warps/SM. INT8 130 TOPS ⇒
    /// 1024 MAC/cycle/SM; INT4 260 TOPS; INT1 (XOR bmma only) 8× INT8.
    pub fn t4() -> Self {
        GpuSpec {
            name: "Tesla T4".to_string(),
            num_sms: 40,
            clock_ghz: 1.59,
            dram_bytes_per_s: 320.0e9,
            dram_efficiency: 0.78,
            l2_bytes_per_s: 1.3e12,
            shmem_per_sm: 64 * 1024,
            max_shmem_per_block: 64 * 1024,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 16,
            regs_per_sm: 65536,
            shmem_bytes_per_cycle_sm: 128.0,
            tc_int1_mac_per_cycle_sm: 8192.0,
            tc_int4_mac_per_cycle_sm: 2048.0,
            tc_int8_mac_per_cycle_sm: 1024.0,
            tc_fp16_mac_per_cycle_sm: 512.0,
            cuda_fp32_fma_per_cycle_sm: 64.0,
            cuda_int_op_per_cycle_sm: 128.0,
            kernel_launch_overhead_s: 3.0e-6,
            warps_for_peak_tc: 8.0,
            supports_and_bmma: false,
        }
    }

    /// Clock in Hz.
    #[inline]
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1.0e9
    }

    /// Peak tensor-core (or CUDA-core for fp32) MACs/cycle/SM at `prec`.
    pub fn mac_per_cycle_sm(&self, prec: Precision) -> f64 {
        match prec {
            Precision::Int1 => self.tc_int1_mac_per_cycle_sm,
            Precision::Int4 => self.tc_int4_mac_per_cycle_sm,
            Precision::Int8 => self.tc_int8_mac_per_cycle_sm,
            Precision::Fp16 => self.tc_fp16_mac_per_cycle_sm,
            Precision::Fp32 => self.cuda_fp32_fma_per_cycle_sm,
        }
    }

    /// Chip-wide peak MAC rate (MACs/second) at `prec`.
    pub fn peak_mac_rate(&self, prec: Precision) -> f64 {
        self.mac_per_cycle_sm(prec) * self.num_sms as f64 * self.clock_hz()
    }

    /// Effective DRAM bandwidth (bytes/second) after the coalesced-access
    /// efficiency factor.
    pub fn effective_dram_bw(&self) -> f64 {
        self.dram_bytes_per_s * self.dram_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_matches_whitepaper_peaks() {
        let g = GpuSpec::rtx3090();
        // INT8 peak TOPS = MACs * 2: ≈ 284 TOPS.
        let int8_tops = 2.0 * g.peak_mac_rate(Precision::Int8) / 1e12;
        assert!((int8_tops - 284.0).abs() < 10.0, "got {int8_tops}");
        // INT1 is 8x INT8.
        assert_eq!(g.tc_int1_mac_per_cycle_sm, 8.0 * g.tc_int8_mac_per_cycle_sm);
    }

    #[test]
    fn a100_matches_whitepaper_peaks() {
        let g = GpuSpec::a100();
        let int1_tops = 2.0 * g.peak_mac_rate(Precision::Int1) / 1e12;
        assert!((int1_tops - 4992.0).abs() < 100.0, "got {int1_tops}");
        let fp16_tflops = 2.0 * g.peak_mac_rate(Precision::Fp16) / 1e12;
        assert!((fp16_tflops - 312.0).abs() < 10.0, "got {fp16_tflops}");
    }

    #[test]
    fn precision_ladder_is_monotone() {
        for g in [GpuSpec::rtx3090(), GpuSpec::a100()] {
            assert!(g.mac_per_cycle_sm(Precision::Int1) > g.mac_per_cycle_sm(Precision::Int4));
            assert!(g.mac_per_cycle_sm(Precision::Int4) > g.mac_per_cycle_sm(Precision::Int8));
            assert!(g.mac_per_cycle_sm(Precision::Int8) > g.mac_per_cycle_sm(Precision::Fp16));
            assert!(g.mac_per_cycle_sm(Precision::Fp16) > g.mac_per_cycle_sm(Precision::Fp32));
        }
    }

    #[test]
    fn precision_bits() {
        assert_eq!(Precision::Int1.bits(), 1);
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Int8.bits(), 8);
        assert_eq!(Precision::Fp16.bits(), 16);
        assert_eq!(Precision::Fp32.bits(), 32);
    }

    #[test]
    fn turing_is_xor_only() {
        assert!(!GpuSpec::t4().supports_and_bmma);
        assert!(GpuSpec::rtx3090().supports_and_bmma);
        assert!(GpuSpec::a100().supports_and_bmma);
    }

    #[test]
    fn effective_bw_below_peak() {
        let g = GpuSpec::rtx3090();
        assert!(g.effective_dram_bw() < g.dram_bytes_per_s);
    }
}
