//! The device executor: memory, kernel launch, and the SIMT warp engine.
//!
//! Blocks execute sequentially (deterministically); within a block, warps
//! run round-robin between barriers. Each warp executes in lock-step over
//! a reconvergence stack: a divergent branch pushes taken/not-taken
//! entries plus a continuation at the branch's immediate post-dominator,
//! and an entry pops when its pc reaches its reconvergence pc. This is the
//! classic IPDOM scheme GPUs implement in hardware, and it is what makes
//! the measured SIMD activity factors faithful.
//!
//! The engine executes the kernel's predecoded µop stream
//! ([`crate::decode`]) against raw-`u32` register banks: operand types
//! were resolved into the opcodes at decode time, so the lane loops do no
//! tag dispatch. Execution is generic over the observer type, so the
//! null-observer path ([`Device::launch`]) compiles with every observer
//! call inlined away; per-block scratch (shared/local memory, warp
//! states, register banks) is reused across the blocks of a launch.
//!
//! Warp stepping itself is pluggable ([`crate::backend`]): the scalar
//! reference loop lives here ([`LaunchCtx::run_warp_scalar`]), the
//! 32-lane SIMD engine in [`crate::simd`].
//!
//! Block dispatch is plan-driven ([`crate::sched`]): every launch —
//! solo or co-scheduled — passes one launch boundary that executes a
//! [`crate::sched::DispatchPlan`], a deterministic sequence of
//! `(member, block_range)` slices. A solo launch
//! ([`Device::launch_observed`]) is the one-member, one-slice plan;
//! [`Device::launch_pair`] runs a policy-generated interleaving of two
//! kernels' grids. The plan executor dispatches on the backend once per
//! launch, outside the slice loop, so both engines still monomorphize
//! fully.

use crate::backend::{BackendKind, ExecBackend, ScalarBackend, SimdBackend};
use crate::decode::{self, DecodedKernel, Src, Uop};
use crate::instr::{Space, SpecialReg, Value};
use crate::kernel::Kernel;
use crate::launch::LaunchConfig;
use crate::profile::ExecProfile;
use crate::sched::{DispatchPlan, SchedPolicy};
use crate::trace::{
    AccessKind, BranchEvent, InstrEvent, LaunchStats, MemEvent, NullObserver, TraceObserver,
};
use crate::{SimtError, WARP_SIZE};

use std::sync::Arc;

/// A handle to a buffer allocated in device global or constant memory.
///
/// Pass it to kernels via [`BufferHandle::arg`] (the base byte address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferHandle {
    addr: u32,
    len_bytes: u32,
}

impl BufferHandle {
    /// Base byte address of the buffer.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Length in bytes.
    pub fn len_bytes(&self) -> u32 {
        self.len_bytes
    }

    /// The buffer's base address as a kernel argument value.
    pub fn arg(&self) -> Value {
        Value::U32(self.addr)
    }

    /// Base address of the element at `index` assuming 4-byte elements.
    pub fn elem(&self, index: u32) -> Value {
        Value::U32(self.addr + index * 4)
    }
}

/// Execution limits for a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLimits {
    /// Maximum warp-level instructions per launch before aborting.
    pub instr_budget: u64,
}

impl Default for DeviceLimits {
    fn default() -> Self {
        Self {
            instr_budget: 400_000_000,
        }
    }
}

/// A simulated GPU device: global + constant memory and a kernel launcher.
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct Device {
    global: Vec<u8>,
    const_mem: Vec<u8>,
    limits: DeviceLimits,
    backend: BackendKind,
    /// `Some(_)` forces execution-cost profiling on/off; `None` profiles
    /// exactly when a recorder is installed.
    exec_profiling: Option<bool>,
    /// Exec profile of the most recent solo launch, if one was
    /// collected. Taken by [`Device::take_exec_profile`].
    last_exec: Option<ExecProfile>,
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

const ALLOC_ALIGN: usize = 256;

impl Device {
    /// Creates a device with empty memories, default limits, and the
    /// process-default execution backend
    /// ([`BackendKind::from_env`]: `--backend` override → `GWC_BACKEND`
    /// → SIMD).
    pub fn new() -> Self {
        Self::with_backend(BackendKind::from_env())
    }

    /// Creates a device pinned to a specific execution backend
    /// (ignoring the process default).
    pub fn with_backend(backend: BackendKind) -> Self {
        Self {
            global: Vec::new(),
            const_mem: Vec::new(),
            limits: DeviceLimits::default(),
            backend,
            exec_profiling: None,
            last_exec: None,
        }
    }

    /// Overrides execution limits (e.g. the instruction budget).
    pub fn set_limits(&mut self, limits: DeviceLimits) {
        self.limits = limits;
    }

    /// Selects the warp execution backend for subsequent launches.
    pub fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    /// The warp execution backend this device launches with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Overrides execution-cost profiling for subsequent launches:
    /// `Some(true)` always collects an [`ExecProfile`], `Some(false)`
    /// never does, and `None` (the default) collects exactly when an
    /// observability recorder is installed. The override lets tests
    /// compare profiles across backends without a process-global
    /// recorder.
    pub fn set_exec_profiling(&mut self, enable: Option<bool>) {
        self.exec_profiling = enable;
    }

    /// Takes the execution-cost profile of the most recent launch, if
    /// it was a solo launch and one was collected (see
    /// [`Device::set_exec_profiling`]). A co-scheduled launch reports its
    /// members' profiles to the recorder and leaves none here.
    pub fn take_exec_profile(&mut self) -> Option<ExecProfile> {
        self.last_exec.take()
    }

    fn exec_profiling_active(&self) -> bool {
        self.exec_profiling.unwrap_or_else(gwc_obs::enabled)
    }

    /// Allocates `len` zeroed bytes of global memory (256-byte aligned).
    pub fn alloc_bytes(&mut self, len: usize) -> BufferHandle {
        let base = self.global.len().div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.global.resize(base + len, 0);
        BufferHandle {
            addr: base as u32,
            len_bytes: len as u32,
        }
    }

    /// Allocates and initializes an `f32` buffer in global memory.
    pub fn alloc_f32(&mut self, data: &[f32]) -> BufferHandle {
        let h = self.alloc_bytes(data.len() * 4);
        self.write_f32(&h, data);
        h
    }

    /// Allocates and initializes a `u32` buffer in global memory.
    pub fn alloc_u32(&mut self, data: &[u32]) -> BufferHandle {
        let h = self.alloc_bytes(data.len() * 4);
        self.write_u32(&h, data);
        h
    }

    /// Allocates and initializes an `i32` buffer in global memory.
    pub fn alloc_i32(&mut self, data: &[i32]) -> BufferHandle {
        let h = self.alloc_bytes(data.len() * 4);
        self.write_i32(&h, data);
        h
    }

    /// Allocates a zeroed `f32` buffer of `n` elements.
    pub fn alloc_zeroed_f32(&mut self, n: usize) -> BufferHandle {
        self.alloc_bytes(n * 4)
    }

    /// Allocates a zeroed `u32` buffer of `n` elements.
    pub fn alloc_zeroed_u32(&mut self, n: usize) -> BufferHandle {
        self.alloc_bytes(n * 4)
    }

    /// Allocates and initializes an `f32` buffer in constant memory.
    pub fn alloc_const_f32(&mut self, data: &[f32]) -> BufferHandle {
        let base = self.const_mem.len().div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.const_mem.resize(base + data.len() * 4, 0);
        for (i, v) in data.iter().enumerate() {
            self.const_mem[base + i * 4..base + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        BufferHandle {
            addr: base as u32,
            len_bytes: (data.len() * 4) as u32,
        }
    }

    /// Copies host data into a global buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the buffer length.
    pub fn write_f32(&mut self, h: &BufferHandle, data: &[f32]) {
        assert!(data.len() * 4 <= h.len_bytes as usize, "write too large");
        for (i, v) in data.iter().enumerate() {
            let at = h.addr as usize + i * 4;
            self.global[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Copies host data into a global buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the buffer length.
    pub fn write_u32(&mut self, h: &BufferHandle, data: &[u32]) {
        assert!(data.len() * 4 <= h.len_bytes as usize, "write too large");
        for (i, v) in data.iter().enumerate() {
            let at = h.addr as usize + i * 4;
            self.global[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Copies host data into a global buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the buffer length.
    pub fn write_i32(&mut self, h: &BufferHandle, data: &[i32]) {
        assert!(data.len() * 4 <= h.len_bytes as usize, "write too large");
        for (i, v) in data.iter().enumerate() {
            let at = h.addr as usize + i * 4;
            self.global[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads a whole `f32` buffer back to the host.
    pub fn read_f32(&self, h: &BufferHandle) -> Vec<f32> {
        (0..h.len_bytes as usize / 4)
            .map(|i| {
                let at = h.addr as usize + i * 4;
                f32::from_le_bytes(self.global[at..at + 4].try_into().expect("4 bytes"))
            })
            .collect()
    }

    /// Reads a whole `u32` buffer back to the host.
    pub fn read_u32(&self, h: &BufferHandle) -> Vec<u32> {
        (0..h.len_bytes as usize / 4)
            .map(|i| {
                let at = h.addr as usize + i * 4;
                u32::from_le_bytes(self.global[at..at + 4].try_into().expect("4 bytes"))
            })
            .collect()
    }

    /// Reads a whole `i32` buffer back to the host.
    pub fn read_i32(&self, h: &BufferHandle) -> Vec<i32> {
        (0..h.len_bytes as usize / 4)
            .map(|i| {
                let at = h.addr as usize + i * 4;
                i32::from_le_bytes(self.global[at..at + 4].try_into().expect("4 bytes"))
            })
            .collect()
    }

    /// Launches a kernel without tracing.
    ///
    /// # Errors
    ///
    /// See [`Device::launch_observed`].
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        config: &LaunchConfig,
        args: &[Value],
    ) -> Result<LaunchStats, SimtError> {
        self.launch_observed(kernel, config, args, &mut NullObserver)
    }

    /// Launches a kernel, streaming events to `observer`.
    ///
    /// Generic over the observer so concrete observers (including
    /// [`NullObserver`]) monomorphize the whole warp engine; pass
    /// `&mut dyn TraceObserver` to keep a single dynamic instantiation at
    /// an API boundary.
    ///
    /// # Errors
    ///
    /// * [`SimtError::BadLaunchArgs`] / geometry errors before execution.
    /// * Memory, divide-by-zero, barrier and deadlock errors during
    ///   execution, each tagged with the offending pc or block.
    pub fn launch_observed<O: TraceObserver + ?Sized>(
        &mut self,
        kernel: &Kernel,
        config: &LaunchConfig,
        args: &[Value],
        observer: &mut O,
    ) -> Result<LaunchStats, SimtError> {
        let solo = PairLaunch {
            kernel,
            config,
            args,
        };
        let [stats] = self.launch_plan([solo], None, observer)?;
        Ok(stats)
    }

    /// Co-schedules two kernels on this device: their block dispatch is
    /// interleaved according to `policy`'s [`DispatchPlan`], so both
    /// kernels' memory traffic shares one timeline (the substrate the
    /// pairwise-interference characterization measures).
    ///
    /// Each kernel still executes its own blocks in ascending order with
    /// its own statistics, budget, execution profile and (via
    /// [`TraceObserver::on_member`] routing) its own observations —
    /// per-kernel results are bit-identical to solo launches of the same
    /// kernels on the same memory image. The plan is a pure function of
    /// `(policy, grid geometry)`, so a pair launch is as deterministic
    /// as a solo one, on either backend.
    ///
    /// # Errors
    ///
    /// Same as [`Device::launch_observed`], for either member; member 0
    /// is validated first. A member that faults ends the launch with the
    /// error its solo launch would have returned.
    pub fn launch_pair<O: TraceObserver + ?Sized>(
        &mut self,
        a: PairLaunch<'_>,
        b: PairLaunch<'_>,
        policy: SchedPolicy,
        observer: &mut O,
    ) -> Result<[LaunchStats; 2], SimtError> {
        self.launch_plan([a, b], Some(policy), observer)
    }

    /// The one launch boundary behind [`Device::launch_observed`] (one
    /// member, one slice; `policy` is `None`) and
    /// [`Device::launch_pair`]: validates every member, executes the
    /// dispatch plan, and books each member's launch exactly once —
    /// observer `on_launch`/`on_launch_end`, backend counter,
    /// [`crate::trace::record_launch`] and exec profile — under one
    /// `launch/<a>[+<b>]` span and one `launch.latency_ns` sample.
    fn launch_plan<O: TraceObserver + ?Sized, const N: usize>(
        &mut self,
        launches: [PairLaunch<'_>; N],
        policy: Option<SchedPolicy>,
        observer: &mut O,
    ) -> Result<[LaunchStats; N], SimtError> {
        for l in &launches {
            l.config.validate()?;
            l.kernel.check_args(l.args)?;
        }
        let grids = launches.map(|l| l.config.blocks() as u32);
        let plan = match policy {
            Some(policy) => policy.plan(&grids),
            None => DispatchPlan::single(0..grids[0]),
        };
        debug_assert!(plan.validate(&grids).is_ok(), "invalid dispatch plan");

        for (m, l) in launches.iter().enumerate() {
            if N > 1 {
                observer.on_member(m);
            }
            observer.on_launch(l.kernel, l.config);
        }
        // One relaxed load + branch per call when no recorder is installed.
        gwc_obs::count(self.backend.counter_name(), N as u64);
        if let Some(policy) = policy.filter(|_| gwc_obs::enabled()) {
            gwc_obs::count("pair.launches", 1);
            gwc_obs::count(&format!("pair.policy.{}", policy.name()), 1);
            gwc_obs::count("pair.slices", plan.slices().len() as u64);
        }
        let t0 = gwc_obs::enabled().then(std::time::Instant::now);
        let span = gwc_obs::span!("launch/{}", launches.map(|l| l.kernel.name()).join("+"));
        let profile_exec = self.exec_profiling_active();
        let mut members = launches.map(|l| PlanMember::new(l, profile_exec));
        match self.backend {
            BackendKind::Scalar => {
                self.run_plan::<ScalarBackend, O, N>(&mut members, &plan, observer)?
            }
            BackendKind::Simd => {
                self.run_plan::<SimdBackend, O, N>(&mut members, &plan, observer)?
            }
        }
        drop(span);
        let wall_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
        if let Some(ns) = wall_ns {
            gwc_obs::hist("launch.latency_ns", ns);
            if policy.is_some() {
                gwc_obs::hist("pair.latency_ns", ns);
            }
        }
        for (m, member) in members.iter().enumerate() {
            if N > 1 {
                observer.on_member(m);
            }
            observer.on_launch_end(&member.stats);
            // A co-scheduled member is booked with the co-run wall: that
            // is the wall the kernel experienced while co-resident.
            crate::trace::record_launch(member.kernel.name(), &member.stats, wall_ns.unwrap_or(0));
            if let Some(profile) = &member.exec {
                crate::trace::record_exec_profile(member.kernel, profile);
            }
        }
        // The device holds one profile: a solo launch's. Overwrite even
        // with `None`, so no profile outlives the launch it measured.
        self.last_exec = if N == 1 { members[0].exec.take() } else { None };
        Ok(members.map(|m| m.stats))
    }

    /// Runs every slice of `plan` against its member's launch context on
    /// backend `B`, routing observer events per member when there is
    /// more than one. Generic over the backend so each engine's
    /// block/warp loop monomorphizes fully.
    fn run_plan<B: ExecBackend, O: TraceObserver + ?Sized, const N: usize>(
        &mut self,
        members: &mut [PlanMember<'_>; N],
        plan: &DispatchPlan,
        observer: &mut O,
    ) -> Result<(), SimtError> {
        for slice in plan.slices() {
            if N > 1 {
                observer.on_member(slice.kernel);
            }
            let m = &mut members[slice.kernel];
            // The launch context borrows device memory, so it is rebuilt
            // per slice; everything kernel-specific (µop stream, params,
            // stats, scratch) persists in the member across slices, so a
            // member's execution is identical to running its slices
            // back-to-back — which is exactly the solo launch.
            let mut ctx = LaunchCtx {
                dec: &m.dec,
                kernel: m.kernel,
                config: m.config,
                params: &m.params,
                global: &mut self.global,
                const_mem: &self.const_mem,
                budget: self.limits.instr_budget,
                stats: &mut m.stats,
                exec: m.exec.as_mut(),
            };
            for block in slice.blocks.clone() {
                ctx.run_block::<B, O>(block, &mut m.scratch, observer)?;
            }
        }
        Ok(())
    }

    /// Clones the device — global and constant memory plus limits,
    /// backend and profiling settings — so the copy can run
    /// launches from the same memory image while this device stays
    /// untouched (e.g. to measure one set-up several ways).
    pub fn fork(&self) -> Device {
        Device {
            global: self.global.clone(),
            const_mem: self.const_mem.clone(),
            limits: self.limits,
            backend: self.backend,
            exec_profiling: self.exec_profiling,
            last_exec: None,
        }
    }

    /// The current global-memory image (e.g. to compare two devices'
    /// results byte for byte).
    pub fn global_image(&self) -> &[u8] {
        &self.global
    }
}

/// One reconvergence-stack entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackEntry {
    pub(crate) pc: usize,
    /// Reconvergence pc: pop when `pc == rpc`.
    pub(crate) rpc: usize,
    pub(crate) mask: u32,
}

/// Per-warp execution state. Register banks are raw `u32` lanes — the
/// decoded opcodes know their operand types statically, so no tags are
/// stored or checked at run time.
///
/// Public only so [`crate::backend::ExecBackend`] can name it; the
/// fields are crate-private (backends live in this crate).
#[derive(Debug, Default)]
pub struct Warp {
    /// Warp index within the block.
    pub(crate) id: u32,
    /// First thread (linear, within block) of this warp.
    pub(crate) base_thread: u32,
    /// Lanes that have not exited.
    pub(crate) live: u32,
    pub(crate) stack: Vec<StackEntry>,
    /// Per-register, per-lane raw bits: `regs[reg * 32 + lane]`.
    pub(crate) regs: Vec<u32>,
    pub(crate) at_barrier: bool,
}

impl Warp {
    fn done(&self) -> bool {
        self.stack.is_empty()
    }
}

/// Reusable per-launch allocations: shared/local memory
/// images and warp states are cleared and refilled per block instead of
/// reallocated, so a many-block launch allocates O(1) times.
#[derive(Default)]
struct LaunchScratch {
    shared: Vec<u8>,
    local: Vec<u8>,
    warps: Vec<Warp>,
}

/// One member of a launch: a kernel, its launch geometry, and its
/// arguments. [`Device::launch_pair`] takes two.
#[derive(Clone, Copy)]
pub struct PairLaunch<'a> {
    /// The kernel to launch.
    pub kernel: &'a Kernel,
    /// Its launch geometry.
    pub config: &'a LaunchConfig,
    /// Its arguments.
    pub args: &'a [Value],
}

/// Per-kernel state of a plan-driven launch: everything kernel-specific
/// that persists across the member's dispatch slices (device memory is
/// shared by all members and borrowed per slice by [`LaunchCtx`]).
struct PlanMember<'a> {
    dec: Arc<DecodedKernel>,
    kernel: &'a Kernel,
    config: &'a LaunchConfig,
    params: Vec<u32>,
    stats: LaunchStats,
    exec: Option<ExecProfile>,
    scratch: LaunchScratch,
}

impl<'a> PlanMember<'a> {
    fn new(launch: PairLaunch<'a>, profile_exec: bool) -> Self {
        // The µop stream and per-pc side tables: decoded on the kernel's
        // first launch, shared by every launch after that.
        let dec = launch.kernel.decoded().clone();
        // Parameters are uniform across the grid; resolve them to raw
        // bits once per launch.
        let params: Vec<u32> = launch.args.iter().map(|v| v.to_bits()).collect();
        let exec = profile_exec.then(|| ExecProfile::new(dec.len()));
        Self {
            dec,
            kernel: launch.kernel,
            config: launch.config,
            params,
            // Every plan covers each member's whole grid.
            stats: LaunchStats {
                blocks: launch.config.blocks() as u64,
                ..LaunchStats::default()
            },
            exec,
            scratch: LaunchScratch::default(),
        }
    }
}

/// Per-launch execution context shared by every backend: the decoded
/// stream, resolved parameters, memory images, budget and stats.
///
/// Public only so [`crate::backend::ExecBackend`] can name it; the
/// fields are crate-private (backends live in this crate).
pub struct LaunchCtx<'a> {
    pub(crate) dec: &'a DecodedKernel,
    pub(crate) kernel: &'a Kernel,
    pub(crate) config: &'a LaunchConfig,
    /// Launch arguments as raw bits (uniform across the grid).
    pub(crate) params: &'a [u32],
    pub(crate) global: &'a mut Vec<u8>,
    pub(crate) const_mem: &'a [u8],
    pub(crate) budget: u64,
    pub(crate) stats: &'a mut LaunchStats,
    /// Execution-cost profile to bump per retired µop, when collecting.
    pub(crate) exec: Option<&'a mut ExecProfile>,
}

impl LaunchCtx<'_> {
    fn run_block<B: ExecBackend, O: TraceObserver + ?Sized>(
        &mut self,
        block: u32,
        scratch: &mut LaunchScratch,
        observer: &mut O,
    ) -> Result<(), SimtError> {
        let threads = self.config.threads_per_block();
        let n_warps = self.config.warps_per_block();
        self.stats.warps += n_warps as u64;
        let exit_pc = self.dec.len();
        let reg_lanes = self.kernel.reg_count() * WARP_SIZE;

        // Reset the scratch arena for this block. `clear` + `resize`
        // zero-fills while keeping the allocations.
        let LaunchScratch {
            shared,
            local,
            warps,
        } = scratch;
        shared.clear();
        shared.resize(self.kernel.shared_bytes() as usize, 0);
        local.clear();
        local.resize(self.kernel.local_bytes() as usize * threads, 0);
        warps.truncate(n_warps);
        while warps.len() < n_warps {
            warps.push(Warp::default());
        }
        for (w, warp) in warps.iter_mut().enumerate() {
            let live = self.config.warp_live_mask(w);
            warp.id = w as u32;
            warp.base_thread = (w * WARP_SIZE) as u32;
            warp.live = live;
            warp.stack.clear();
            warp.stack.push(StackEntry {
                pc: 0,
                rpc: exit_pc,
                mask: live,
            });
            warp.regs.clear();
            warp.regs.resize(reg_lanes, 0);
            warp.at_barrier = false;
        }

        loop {
            let mut progressed = false;
            for warp in warps.iter_mut() {
                if warp.done() || warp.at_barrier {
                    continue;
                }
                progressed = true;
                B::run_warp(self, block, warp, shared, local, observer)?;
            }
            if warps.iter().all(Warp::done) {
                break;
            }
            let waiting = warps.iter().filter(|w| w.at_barrier).count();
            if waiting > 0 && warps.iter().all(|w| w.done() || w.at_barrier) {
                // Release the barrier.
                for w in warps.iter_mut() {
                    w.at_barrier = false;
                }
                self.stats.barriers += 1;
                observer.on_barrier(block);
                continue;
            }
            if !progressed {
                return Err(SimtError::Deadlock {
                    block: block as usize,
                });
            }
        }
        Ok(())
    }

    /// Runs one warp until it exits or reaches a barrier — the scalar
    /// reference loop, one lane at a time. This is the semantic baseline
    /// every other backend is differentially tested against; keep it
    /// simple and obviously correct.
    pub(crate) fn run_warp_scalar<O: TraceObserver + ?Sized>(
        &mut self,
        block: u32,
        warp: &mut Warp,
        shared: &mut [u8],
        local: &mut [u8],
        observer: &mut O,
    ) -> Result<(), SimtError> {
        let dec = self.dec;
        let exit_pc = dec.len();
        let uops = dec.uops();
        let mut addr_buf = [0u32; WARP_SIZE];

        loop {
            let Some(top) = warp.stack.last().copied() else {
                return Ok(());
            };
            if top.mask == 0 || top.pc == top.rpc || top.pc >= exit_pc {
                warp.stack.pop();
                continue;
            }

            self.stats.warp_instrs += 1;
            if self.stats.warp_instrs > self.budget {
                return Err(SimtError::InstructionBudgetExceeded {
                    budget: self.budget,
                });
            }
            let pc = top.pc;
            let mask = top.mask;
            self.stats.thread_instrs += mask.count_ones() as u64;
            if let Some(exec) = self.exec.as_deref_mut() {
                exec.bump(pc, dec.class(pc), mask);
            }

            observer.on_instr(&InstrEvent {
                block,
                warp: warp.id,
                pc,
                class: dec.class(pc),
                active: mask,
                live: warp.live,
                dst: dec.dst(pc),
                srcs: dec.srcs(pc),
            });

            match uops[pc] {
                Uop::Bin { kind, dst, a, b } => {
                    for lane in lanes(mask) {
                        let va = self.eval(warp, block, lane, a);
                        let vb = self.eval(warp, block, lane, b);
                        let r = kind.eval(va, vb).ok_or(SimtError::DivideByZero { pc })?;
                        write_reg(warp, dst, lane, r);
                    }
                    advance(warp);
                }
                Uop::Un { kind, dst, a } => {
                    for lane in lanes(mask) {
                        let va = self.eval(warp, block, lane, a);
                        write_reg(warp, dst, lane, kind.eval(va));
                    }
                    advance(warp);
                }
                Uop::Mad { ty, dst, a, b, c } => {
                    for lane in lanes(mask) {
                        let va = self.eval(warp, block, lane, a);
                        let vb = self.eval(warp, block, lane, b);
                        let vc = self.eval(warp, block, lane, c);
                        write_reg(warp, dst, lane, decode::eval_mad(ty, va, vb, vc));
                    }
                    advance(warp);
                }
                Uop::Cmp { op, ty, dst, a, b } => {
                    for lane in lanes(mask) {
                        let va = self.eval(warp, block, lane, a);
                        let vb = self.eval(warp, block, lane, b);
                        write_reg(warp, dst, lane, decode::eval_cmp(op, ty, va, vb) as u32);
                    }
                    advance(warp);
                }
                Uop::Sel { dst, pred, a, b } => {
                    for lane in lanes(mask) {
                        let v = if read_reg(warp, pred, lane) != 0 {
                            self.eval(warp, block, lane, a)
                        } else {
                            self.eval(warp, block, lane, b)
                        };
                        write_reg(warp, dst, lane, v);
                    }
                    advance(warp);
                }
                Uop::Mov { dst, src } => {
                    for lane in lanes(mask) {
                        let v = self.eval(warp, block, lane, src);
                        write_reg(warp, dst, lane, v);
                    }
                    advance(warp);
                }
                Uop::Cvt { from, to, dst, src } => {
                    for lane in lanes(mask) {
                        let v = self.eval(warp, block, lane, src);
                        write_reg(warp, dst, lane, decode::convert(v, from, to));
                    }
                    advance(warp);
                }
                Uop::Ld {
                    dst,
                    space,
                    base,
                    offset,
                } => {
                    self.gather_addrs(warp, block, mask, base, offset, &mut addr_buf);
                    observer.on_mem(&MemEvent {
                        block,
                        warp: warp.id,
                        pc,
                        space,
                        kind: AccessKind::Load,
                        bytes: 4,
                        active: mask,
                        addrs: &addr_buf,
                    });
                    let lb = self.kernel.local_bytes() as usize;
                    for lane in lanes(mask) {
                        let a = addr_buf[lane];
                        let raw = match space {
                            Space::Global => read4(self.global, a, pc, "global")?,
                            Space::Shared => read4(shared, a, pc, "shared")?,
                            Space::Const => read4(self.const_mem, a, pc, "const")?,
                            Space::Local => {
                                let t = (warp.base_thread as usize + lane) * lb;
                                read4(&local[t..t + lb], a, pc, "local")?
                            }
                        };
                        write_reg(warp, dst, lane, u32::from_le_bytes(raw));
                    }
                    advance(warp);
                }
                Uop::St {
                    space,
                    base,
                    offset,
                    src,
                } => {
                    self.gather_addrs(warp, block, mask, base, offset, &mut addr_buf);
                    observer.on_mem(&MemEvent {
                        block,
                        warp: warp.id,
                        pc,
                        space,
                        kind: AccessKind::Store,
                        bytes: 4,
                        active: mask,
                        addrs: &addr_buf,
                    });
                    let lb = self.kernel.local_bytes() as usize;
                    for lane in lanes(mask) {
                        let v = self.eval(warp, block, lane, src);
                        let a = addr_buf[lane];
                        let data = v.to_le_bytes();
                        match space {
                            Space::Global => write4(self.global, a, data, pc, "global")?,
                            Space::Shared => write4(shared, a, data, pc, "shared")?,
                            Space::Local => {
                                let t = (warp.base_thread as usize + lane) * lb;
                                write4(&mut local[t..t + lb], a, data, pc, "local")?
                            }
                            Space::Const => {
                                return Err(SimtError::OutOfBounds {
                                    pc,
                                    space: "const",
                                    addr: a as u64,
                                    size: 0,
                                })
                            }
                        }
                    }
                    advance(warp);
                }
                Uop::Atom {
                    kind,
                    dst,
                    space,
                    base,
                    offset,
                    src,
                    compare,
                } => {
                    self.gather_addrs(warp, block, mask, base, offset, &mut addr_buf);
                    observer.on_mem(&MemEvent {
                        block,
                        warp: warp.id,
                        pc,
                        space,
                        kind: AccessKind::Atomic,
                        bytes: 4,
                        active: mask,
                        addrs: &addr_buf,
                    });
                    for lane in lanes(mask) {
                        let a = addr_buf[lane];
                        let operand = self.eval(warp, block, lane, src);
                        let cmp_v = compare.map(|c| self.eval(warp, block, lane, c));
                        let old = match space {
                            Space::Global => {
                                u32::from_le_bytes(read4(self.global, a, pc, "global")?)
                            }
                            Space::Shared => u32::from_le_bytes(read4(shared, a, pc, "shared")?),
                            _ => unreachable!("atomics validated to global/shared"),
                        };
                        if let Some(new) = kind.apply(old, operand, cmp_v) {
                            let data = new.to_le_bytes();
                            match space {
                                Space::Global => write4(self.global, a, data, pc, "global")?,
                                Space::Shared => write4(shared, a, data, pc, "shared")?,
                                _ => unreachable!("atomics validated to global/shared"),
                            }
                        }
                        if let Some(d) = dst {
                            write_reg(warp, d, lane, old);
                        }
                    }
                    advance(warp);
                }
                Uop::Bar => {
                    if mask != warp.live || warp.stack.len() != 1 {
                        return Err(SimtError::BarrierDivergence { pc });
                    }
                    advance(warp);
                    warp.at_barrier = true;
                    return Ok(());
                }
                Uop::Jump { target } => {
                    warp.stack.last_mut().expect("non-empty").pc = target as usize;
                }
                Uop::Branch {
                    target,
                    reg,
                    negate,
                    rpc,
                } => {
                    let mut taken = 0u32;
                    for lane in lanes(mask) {
                        let p = read_reg(warp, reg, lane) != 0;
                        if p != negate {
                            taken |= 1 << lane;
                        }
                    }
                    observer.on_branch(&BranchEvent {
                        block,
                        warp: warp.id,
                        pc,
                        active: mask,
                        taken,
                    });
                    branch(warp, pc, mask, taken, target, rpc);
                }
                Uop::Ret => {
                    let exiting = mask;
                    warp.live &= !exiting;
                    for e in &mut warp.stack {
                        e.mask &= !exiting;
                    }
                }
            }
        }
    }

    pub(crate) fn gather_addrs(
        &self,
        warp: &Warp,
        block: u32,
        mask: u32,
        base: Src,
        offset: i32,
        out: &mut [u32; WARP_SIZE],
    ) {
        for lane in lanes(mask) {
            let b = self.eval(warp, block, lane, base);
            out[lane] = b.wrapping_add_signed(offset);
        }
    }

    #[inline]
    pub(crate) fn eval(&self, warp: &Warp, block: u32, lane: usize, s: Src) -> u32 {
        match s {
            Src::Reg(r) => read_reg(warp, r, lane),
            Src::Imm(bits) => bits,
            Src::Param(i) => self.params[i as usize],
            Src::Sreg(s) => {
                let thread = warp.base_thread + lane as u32;
                let bx = self.config.block_x;
                match s {
                    SpecialReg::TidX => thread % bx,
                    SpecialReg::TidY => thread / bx,
                    SpecialReg::NTidX => bx,
                    SpecialReg::NTidY => self.config.block_y,
                    SpecialReg::CtaIdX => block % self.config.grid_x,
                    SpecialReg::CtaIdY => block / self.config.grid_x,
                    SpecialReg::NCtaIdX => self.config.grid_x,
                    SpecialReg::NCtaIdY => self.config.grid_y,
                    SpecialReg::LaneId => lane as u32,
                }
            }
        }
    }
}

/// Iterates set lanes in ascending order.
#[inline]
pub(crate) fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(i)
        }
    })
}

pub(crate) fn advance(warp: &mut Warp) {
    warp.stack.last_mut().expect("non-empty").pc += 1;
}

/// Applies a resolved conditional branch at `pc` (`taken` ⊆ `mask`) to
/// the warp's reconvergence stack: both engines' `Branch` arm.
#[inline]
pub(crate) fn branch(warp: &mut Warp, pc: usize, mask: u32, taken: u32, target: u32, rpc: u32) {
    if taken == 0 {
        advance(warp);
    } else if taken == mask {
        warp.stack.last_mut().expect("non-empty").pc = target as usize;
    } else {
        let rpc = rpc as usize;
        let old = warp.stack.pop().expect("non-empty");
        // Continuation at the reconvergence point.
        warp.stack.push(StackEntry {
            pc: rpc,
            rpc: old.rpc,
            mask: old.mask,
        });
        // Not-taken path.
        warp.stack.push(StackEntry {
            pc: pc + 1,
            rpc,
            mask: mask & !taken,
        });
        // Taken path (runs first).
        warp.stack.push(StackEntry {
            pc: target as usize,
            rpc,
            mask: taken,
        });
    }
}

#[inline]
pub(crate) fn read_reg(warp: &Warp, r: u16, lane: usize) -> u32 {
    warp.regs[r as usize * WARP_SIZE + lane]
}

#[inline]
pub(crate) fn write_reg(warp: &mut Warp, r: u16, lane: usize, v: u32) {
    warp.regs[r as usize * WARP_SIZE + lane] = v;
}

pub(crate) fn read4(
    buf: &[u8],
    addr: u32,
    pc: usize,
    space: &'static str,
) -> Result<[u8; 4], SimtError> {
    let a = addr as usize;
    if a + 4 > buf.len() {
        return Err(SimtError::OutOfBounds {
            pc,
            space,
            addr: addr as u64,
            size: buf.len() as u64,
        });
    }
    Ok(buf[a..a + 4].try_into().expect("4 bytes"))
}

pub(crate) fn write4(
    buf: &mut [u8],
    addr: u32,
    data: [u8; 4],
    pc: usize,
    space: &'static str,
) -> Result<(), SimtError> {
    let a = addr as usize;
    if a + 4 > buf.len() {
        return Err(SimtError::OutOfBounds {
            pc,
            space,
            addr: addr as u64,
            size: buf.len() as u64,
        });
    }
    buf[a..a + 4].copy_from_slice(&data);
    Ok(())
}
