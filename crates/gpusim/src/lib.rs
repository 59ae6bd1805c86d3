//! A CUDA-like simulated GPU runtime.
//!
//! Functionally, every operation (kernel, memcpy, zero-copy access)
//! really moves bytes between the host-backed buffers in [`memsim`].
//! Temporally, every operation is charged virtual time on a FIFO *stream*
//! from a cost model built on the same first-order mechanics that shaped
//! the paper's Figure 6–8 results:
//!
//! * global-memory access happens in 128-byte transactions issued per
//!   32-thread warp, 8 bytes per thread (one 256-byte warp chunk per
//!   iteration — exactly the access pattern of the paper's kernels);
//! * misaligned chunks touch an extra cache line, so packing a lower
//!   triangular matrix (whose columns start at arbitrary phases) costs
//!   ~1.5× the DRAM traffic of an aligned sub-matrix — that *is* the
//!   paper's 94%-vs-80% bandwidth gap, emerging mechanically;
//! * kernels additionally stream their CUDA-DEV descriptor array from
//!   global memory (32 bytes per work unit), which is what makes
//!   1-element-block datatypes (matrix transpose, Figure 12) expensive;
//! * `cudaMemcpy2D` falls off a bandwidth cliff when the row width is not
//!   a multiple of 64 bytes (Figure 8's published behaviour);
//! * PCIe transfers, kernel launches and memcpy calls pay fixed
//!   latencies, and SM occupancy can be throttled (the paper's "minimal
//!   GPU resources" experiment) or derated by a co-running application.

pub mod arch;
pub mod copy;
pub mod fault;
pub mod kernel;
pub mod spec;
pub mod stream_trigger;
pub mod system;

pub use arch::GpuArch;
pub use copy::{contiguous_copy_time, memcpy, memcpy_2d, CopyDirection};
pub use fault::{count_retry, fault_roll, fault_scaled};
pub use kernel::{
    kernel_shape, launch_transfer_kernel, KernelConfig, KernelRates, KernelShape, Placement,
};
pub use spec::{GpuSpec, Interconnect, NodeTopology};
pub use stream_trigger::{
    graph_kernel, op_issue_time, replay_cost, replay_issue, GraphCapture, StreamGraph,
};
pub use system::{
    ipc_export, ipc_open, stream_sync, GpuState, GpuSystem, GpuWorld, NodeWorld, StreamId,
};
