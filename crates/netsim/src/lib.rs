//! Interconnect simulation: the wires between MPI processes.
//!
//! Two channel kinds cover the paper's evaluation environments:
//!
//! * **Shared memory** (same node) — control messages ride a low-latency
//!   in-node queue; bulk data moves GPU-to-GPU over PCIe via CUDA IPC
//!   (which is `gpusim`'s job, not ours — the BTL calls both).
//! * **InfiniBand FDR** (across nodes) — control and data ride the HCA
//!   links (~6 GB/s, ~1.3 µs); bulk GPU data stages through pinned host
//!   memory, as the paper does for large messages.
//!
//! On top of the links sit **Active Messages** (each message carries the
//! reference of a receiver-side callback, exactly the BTL mechanism in
//! §4.1) and a small **RDMA engine** with one-time registration cost and
//! a registration cache — the cost structure that motivates the paper's
//! single-connection pipelined protocol.

pub mod am;
pub mod channel;
pub mod nic;
pub mod rdma;
pub mod topology;
pub mod wire;
pub mod world;

pub use am::send_am;
pub use channel::{Channel, ChannelKind, Link, NetError, NetSystem};
pub use nic::{compile_program, execute_program, program_time, NicCosts, NicProgram};
pub use rdma::{ensure_registered, rdma_get, rdma_put};
pub use topology::Topology;
pub use wire::wire_send;
pub use world::{ClusterWorld, NetWorld};
