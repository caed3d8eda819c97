//! # lnls-gpu-sim — a cycle-approximate functional GPU simulator
//!
//! The experiments of Luong, Melab & Talbi (LSPP @ IPDPS 2010) ran CUDA
//! kernels on an NVIDIA GTX 280. This crate substitutes that hardware with
//! a **functional simulator plus analytic timing model** so the paper's
//! system can be built, tested and measured anywhere:
//!
//! * **Functional**: kernels (implementors of [`Kernel`]) execute for real
//!   on host threads, producing bit-exact results — searches driven
//!   through the simulator make exactly the moves a CUDA implementation
//!   would make.
//! * **Cycle-approximate**: sampled blocks run under a counting context
//!   that records instruction mix, memory-address traces (for GT200
//!   coalescing analysis) and branch divergence; an analytic model
//!   ([`timing`]) converts the counts into predicted device seconds using
//!   a [`DeviceSpec`] (GTX 280 preset included) — and predicted *host*
//!   seconds using a [`HostSpec`], giving the paper's CPU/GPU columns.
//!
//! The execution model mirrors CUDA's: grids of blocks of threads
//! ([`Dim3`], [`LaunchConfig`]), warp-granular SIMT costing, global /
//! texture / constant memory spaces ([`MemSpace`]), per-block shared
//! memory with `__syncthreads` modeled as kernel *phases*, per-thread
//! local scratch, and PCIe transfer accounting. A data-race detector
//! ([`race`]) flags kernels that depend on intra-phase thread ordering.
//!
//! ## Example
//!
//! ```
//! use lnls_gpu_sim::{Device, DeviceSpec, ExecMode, Kernel, LaunchConfig, MemSpace, ThreadCtx};
//!
//! // out[i] = a*x[i] + y[i]. Blocks run once per launch but in no fixed
//! // order, so each thread overwrites its own output from inputs that no
//! // other block writes.
//! struct Saxpy {
//!     a: i32,
//!     x: lnls_gpu_sim::DeviceBuffer<i32>,
//!     y: lnls_gpu_sim::DeviceBuffer<i32>,
//!     out: lnls_gpu_sim::DeviceBuffer<i32>,
//!     n: u64,
//! }
//!
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
//!         let tid = ctx.id().global();
//!         if ctx.branch(tid < self.n) {
//!             let xv = ctx.ld(&self.x, tid as usize);
//!             let yv = ctx.ld(&self.y, tid as usize);
//!             ctx.alu(2);
//!             ctx.st(&self.out, tid as usize, self.a * xv + yv);
//!         }
//!     }
//! }
//!
//! let mut dev = Device::new(DeviceSpec::gtx280());
//! let x = dev.upload_new(&[1, 2, 3, 4], MemSpace::Global, "x");
//! let y = dev.upload_new(&[10, 20, 30, 40], MemSpace::Global, "y");
//! let out = dev.alloc_zeroed::<i32>(4, MemSpace::Global, "out");
//! let k = Saxpy { a: 2, x, y, out: out.clone(), n: 4 };
//! let report = dev.launch(&k, LaunchConfig::cover_1d(4, 128), ExecMode::Auto);
//! assert_eq!(dev.download(&out), vec![12, 24, 36, 48]);
//! assert!(report.timing.total_seconds > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counting;
pub mod dim;
pub mod exec;
pub mod kernel;
pub mod memory;
pub mod multigpu;
pub mod occupancy;
pub mod pipeline;
pub mod race;
pub mod reduce;
pub mod report;
pub mod spec;
pub mod stream;
pub mod timing;

mod device;

pub use device::Device;
pub use dim::{Dim3, LaunchConfig};
pub use exec::ExecMode;
pub use kernel::{Kernel, ThreadCtx, ThreadId};
pub use memory::{DeviceBuffer, DeviceWord, MemSpace};
pub use multigpu::MultiDevice;
pub use occupancy::{occupancy, Limit, Occupancy};
pub use pipeline::{price_multiwalk, IterationProfile, PipelineReport};
pub use race::{RaceEvent, RaceKind};
pub use reduce::{argmin_kernel_seconds, SelectionMode, ARGMIN_RECORD_BYTES};
pub use report::{LaunchReport, TimeBook};
pub use spec::{DeviceSpec, HostSpec};
pub use stream::{
    price_fused_span, EngineConfig, EventId, LaneIo, LaunchMode, Schedule, ScheduledOp, StreamOp,
    StreamSim,
};
pub use timing::{predict, predict_host_seconds, transfer_seconds, TimingBreakdown};
