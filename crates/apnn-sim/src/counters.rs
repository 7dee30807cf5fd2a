//! Performance counters recorded by simulated kernels.

/// Aggregated event counts for one kernel (or one thread block).
///
/// These are the only quantities the cost model consumes, which keeps the
/// model auditable: a kernel's simulated latency is a pure function of
/// `(GpuSpec, KernelConfig, Counters)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Number of `bmma.8x8x128` instructions issued.
    pub bmma_ops: u64,
    /// Tensor-core MACs (usually `bmma_ops * 8192`, but IMMA baselines count
    /// their own MACs here directly).
    pub tc_macs: u64,
    /// Bytes read from global memory (DRAM/L2).
    pub global_load_bytes: u64,
    /// Bytes written to global memory.
    pub global_store_bytes: u64,
    /// 32-byte DRAM sectors touched, after the coalescing model. A perfectly
    /// coalesced access touches `bytes/32` sectors; strided access touches
    /// more (see [`crate::block::Coalescing`]).
    pub global_sectors: u64,
    /// Bytes moved through shared memory (loads + stores).
    pub shmem_bytes: u64,
    /// Integer ALU ops on CUDA cores (bit decomposition, combination
    /// shift-adds, quantization, pooling…).
    pub cuda_int_ops: u64,
    /// Floating-point ops on CUDA cores (BN epilogues, softmax…).
    pub cuda_flops: u64,
    /// `__syncthreads()` barriers executed.
    pub syncs: u64,
}

impl Counters {
    /// Element-wise sum.
    pub fn add(&mut self, other: &Counters) {
        self.bmma_ops += other.bmma_ops;
        self.tc_macs += other.tc_macs;
        self.global_load_bytes += other.global_load_bytes;
        self.global_store_bytes += other.global_store_bytes;
        self.global_sectors += other.global_sectors;
        self.shmem_bytes += other.shmem_bytes;
        self.cuda_int_ops += other.cuda_int_ops;
        self.cuda_flops += other.cuda_flops;
        self.syncs += other.syncs;
    }

    /// Scale every counter by an integer factor (used to replicate one
    /// representative block across a uniform grid).
    pub fn scaled(&self, factor: u64) -> Counters {
        Counters {
            bmma_ops: self.bmma_ops * factor,
            tc_macs: self.tc_macs * factor,
            global_load_bytes: self.global_load_bytes * factor,
            global_store_bytes: self.global_store_bytes * factor,
            global_sectors: self.global_sectors * factor,
            shmem_bytes: self.shmem_bytes * factor,
            cuda_int_ops: self.cuda_int_ops * factor,
            cuda_flops: self.cuda_flops * factor,
            syncs: self.syncs * factor,
        }
    }

    /// Total global-memory traffic in bytes.
    #[inline]
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Arithmetic intensity: tensor-core MACs per global byte. The CI knob of
    /// the paper's performance model (§4.3.1, Eq. 4) is the per-block tile
    /// version of this quantity.
    pub fn compute_intensity(&self) -> f64 {
        if self.global_bytes() == 0 {
            f64::INFINITY
        } else {
            self.tc_macs as f64 / self.global_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_scale() {
        let mut a = Counters {
            bmma_ops: 1,
            tc_macs: 8192,
            global_load_bytes: 100,
            ..Default::default()
        };
        let b = Counters {
            bmma_ops: 2,
            tc_macs: 16384,
            global_store_bytes: 50,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.bmma_ops, 3);
        assert_eq!(a.global_bytes(), 150);
        let s = a.scaled(4);
        assert_eq!(s.bmma_ops, 12);
        assert_eq!(s.tc_macs, 4 * (8192 + 16384));
    }

    #[test]
    fn compute_intensity_infinite_when_no_traffic() {
        let c = Counters {
            tc_macs: 10,
            ..Default::default()
        };
        assert!(c.compute_intensity().is_infinite());
        let c2 = Counters {
            tc_macs: 100,
            global_load_bytes: 50,
            ..Default::default()
        };
        assert_eq!(c2.compute_intensity(), 2.0);
    }
}
