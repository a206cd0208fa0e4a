//! The MXS CPU model: a 2-way-issue dynamically scheduled superscalar.
//!
//! Reimplements the documented microarchitecture of the paper's detailed
//! simulator (Bennett's MXS): a decoupled fetch/execute/graduate pipeline
//! with a 32-entry centralized instruction window, a 32-entry reorder buffer
//! for precise state, register renaming over physical register files,
//! speculative execution past branches predicted by a 1024-entry BTB, and a
//! non-blocking data cache supporting four outstanding misses. Functional
//! units follow Table 1 with two copies of every unit except the single
//! memory data port.
//!
//! Speculation safety: instructions compute into *renamed physical
//! registers* at execute, so wrong-path results never touch architectural
//! state; stores buffer their data in the reorder buffer and only write
//! memory at graduation, in program order. Loads read memory speculatively
//! at execute (after disambiguating against older stores in the window, with
//! exact-match forwarding). `SYNC` is a full fence: younger memory
//! operations do not issue until it graduates and the write buffer drains —
//! the synchronization runtime relies on this, exactly as MIPS code relies
//! on `sync`.
//!
//! Scheduling is event-driven (DESIGN.md §6). Issue walks an age-ordered
//! wait list of unissued entries, each caching the cycle its operands
//! become ready, instead of scanning the window; loads disambiguate against
//! a queue of the window's stores and the fence test compares against a
//! queue of its `SYNC`s. A step that changes nothing returns the earliest
//! cycle at which any stage can act, skipping the quiet cycles between; their
//! per-cycle counters are added lazily (see [`CpuModel::settle`]). Stepping
//! every cycle instead gives identical results.

use crate::arch::ArchState;
use crate::btb::Btb;
use crate::counters::CpuCounters;
use crate::decode::DecodeCache;
use crate::func::{
    effective_addr, eval_alu, eval_alui, eval_branch, eval_cvt_fi, eval_cvt_if, eval_fcmp, eval_fp,
};
use crate::{CpuModel, FuLatencies, StepEvent};
use cmpsim_engine::Cycle;
use cmpsim_isa::{FuClass, Instr, Reg};
use cmpsim_mem::{AddrSpace, CpuId, MemRequest, MemorySystem, PhysMem, WriteBuffer};
use std::collections::VecDeque;

/// Configuration of the MXS core; defaults follow the paper (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MxsConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions graduated per cycle.
    pub graduate_width: usize,
    /// Reorder-buffer (= instruction window) entries.
    pub rob_entries: usize,
    /// Maximum outstanding load misses (non-blocking cache MSHRs).
    pub mshrs: usize,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Copies of each functional unit (except the single memory port).
    pub fu_per_class: usize,
    /// Physical registers per file.
    pub phys_regs: usize,
    /// Write-buffer entries.
    pub wbuf_entries: usize,
    /// Functional-unit latencies.
    pub fu: FuLatencies,
}

impl MxsConfig {
    /// Validates the configuration, returning a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TooFewPhysRegs`] when renaming could
    /// deadlock (`phys_regs < 32 + rob_entries`: every architectural
    /// register plus every in-flight instruction needs a physical
    /// register), [`ConfigError::TooManyPhysRegs`] when a physical register
    /// index would not fit the core's compact 16-bit register tags, and
    /// [`ConfigError::FetchWidthOutOfRange`] when the fetch width is zero or
    /// exceeds the fetch-buffer capacity.
    ///
    /// [`ConfigError::TooFewPhysRegs`]: cmpsim_mem::ConfigError::TooFewPhysRegs
    /// [`ConfigError::TooManyPhysRegs`]: cmpsim_mem::ConfigError::TooManyPhysRegs
    /// [`ConfigError::FetchWidthOutOfRange`]: cmpsim_mem::ConfigError::FetchWidthOutOfRange
    pub fn validate(&self) -> Result<(), cmpsim_mem::ConfigError> {
        if self.phys_regs < 32 + self.rob_entries {
            return Err(cmpsim_mem::ConfigError::TooFewPhysRegs {
                phys_regs: self.phys_regs,
                needed: 32 + self.rob_entries,
            });
        }
        if self.phys_regs > MAX_PHYS_REGS {
            return Err(cmpsim_mem::ConfigError::TooManyPhysRegs {
                phys_regs: self.phys_regs,
                max: MAX_PHYS_REGS,
            });
        }
        if self.fetch_width == 0 || self.fetch_width > FBUF_CAP {
            return Err(cmpsim_mem::ConfigError::FetchWidthOutOfRange {
                fetch_width: self.fetch_width,
                max: FBUF_CAP,
            });
        }
        Ok(())
    }
}

impl Default for MxsConfig {
    fn default() -> Self {
        MxsConfig {
            fetch_width: 2,
            issue_width: 2,
            graduate_width: 2,
            rob_entries: 32,
            mshrs: 4,
            btb_entries: 1024,
            fu_per_class: 2,
            phys_regs: 96,
            wbuf_entries: 4,
            fu: FuLatencies::table1(),
        }
    }
}

/// A physical register number.
type PReg = u16;

/// Largest physical register file a [`PReg`] can number.
const MAX_PHYS_REGS: usize = PReg::MAX as usize + 1;

/// Buffered store data awaiting graduation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreVal {
    W8(u8),
    W32(u32),
    F32(f32),
    F64(f64),
}

impl StoreVal {
    fn bytes(self) -> u32 {
        match self {
            StoreVal::W8(_) => 1,
            StoreVal::W32(_) | StoreVal::F32(_) => 4,
            StoreVal::F64(_) => 8,
        }
    }
}

/// A renamed destination: squash restores `old` into the front map,
/// graduation frees it.
#[derive(Debug, Clone, Copy)]
struct Def {
    arch: u8,
    new: PReg,
    old: PReg,
}

/// A fetched, renamed, in-flight instruction.
#[derive(Debug)]
struct RobEntry {
    pc: u32,
    /// The pc fetch assumed would follow this instruction.
    predicted_next: u32,
    instr: Instr,
    int_def: Option<Def>,
    fp_def: Option<Def>,
    int_srcs: [Option<PReg>; 2],
    fp_srcs: [Option<PReg>; 2],
    done_at: Cycle,
    mem_paddr: Option<u32>,
    store_val: Option<StoreVal>,
    issued: bool,
    mispredicted: bool,
    is_sc: bool,
    /// Load that missed the L1 (blame graduation stalls on the data cache).
    dcache_blame: bool,
}

/// A source operand's physical register.
#[derive(Debug, Clone, Copy)]
enum Src {
    Int(PReg),
    Fp(PReg),
}

/// An unissued window entry on the wait list, with what issue needs to
/// know without touching the window.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    /// Dispatch sequence number: the entry sits at window index
    /// `seq - head_seq`.
    seq: u64,
    /// Cycle by which every source operand is ready. Final once every
    /// producer has executed; `Cycle::MAX` means "recompute".
    wake: Cycle,
    /// Source operands, leading (no instruction reads more than two
    /// registers).
    srcs: [Option<Src>; 2],
    class: FuClass,
    /// The `hold_epoch` at which this entry was last found held: a memory
    /// operation behind a `SYNC`, or a load whose older stores are unissued
    /// or overlap it inexactly (0: never). The verdict stands until a store
    /// issues or a store or `SYNC` graduates.
    held_at: u64,
}

/// A fetched instruction waiting for rename (the fetch buffer).
#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    instr: Instr,
    predicted_next: u32,
    avail_at: Cycle,
    was_icache_miss: bool,
}

/// The counters every cycle adds to besides `mxs_cycles`: as totals in a
/// snapshot, or as one quiet cycle's increments.
#[derive(Debug, Clone, Copy)]
struct QuietTick {
    window_occupancy_sum: u64,
    slots_icache: u64,
    slots_dcache: u64,
    slots_pipeline: u64,
    dispatch_stall_rob: u64,
    dispatch_stall_preg: u64,
}

impl QuietTick {
    fn snapshot(c: &CpuCounters) -> QuietTick {
        QuietTick {
            window_occupancy_sum: c.window_occupancy_sum,
            slots_icache: c.slots_icache,
            slots_dcache: c.slots_dcache,
            slots_pipeline: c.slots_pipeline,
            dispatch_stall_rob: c.dispatch_stall_rob,
            dispatch_stall_preg: c.dispatch_stall_preg,
        }
    }

    /// The increments from snapshot `before` to this one.
    fn since(self, before: QuietTick) -> QuietTick {
        QuietTick {
            window_occupancy_sum: self.window_occupancy_sum - before.window_occupancy_sum,
            slots_icache: self.slots_icache - before.slots_icache,
            slots_dcache: self.slots_dcache - before.slots_dcache,
            slots_pipeline: self.slots_pipeline - before.slots_pipeline,
            dispatch_stall_rob: self.dispatch_stall_rob - before.dispatch_stall_rob,
            dispatch_stall_preg: self.dispatch_stall_preg - before.dispatch_stall_preg,
        }
    }

    /// Adds `n` quiet cycles' worth of increments to `c`.
    fn add_to(&self, c: &mut CpuCounters, n: u64) {
        c.mxs_cycles += n;
        c.window_occupancy_sum += self.window_occupancy_sum * n;
        c.slots_icache += self.slots_icache * n;
        c.slots_dcache += self.slots_dcache * n;
        c.slots_pipeline += self.slots_pipeline * n;
        c.dispatch_stall_rob += self.dispatch_stall_rob * n;
        c.dispatch_stall_preg += self.dispatch_stall_preg * n;
    }
}

/// Quiet cycles a step skipped, `from..until`, whose counters are owed.
#[derive(Debug, Clone, Copy)]
struct Skipped {
    from: Cycle,
    until: Cycle,
    tick: QuietTick,
}

/// The detailed dynamic superscalar CPU model.
#[derive(Debug)]
pub struct MxsCpu {
    cpu: CpuId,
    cfg: MxsConfig,
    space: AddrSpace,
    arch: ArchState,
    halted: bool,

    int_preg: Vec<u32>,
    int_ready: Vec<Cycle>,
    fp_preg: Vec<f64>,
    fp_ready: Vec<Cycle>,
    front_int: [PReg; 32],
    front_fp: [PReg; 32],
    retire_int: [PReg; 32],
    retire_fp: [PReg; 32],
    int_free: Vec<PReg>,
    fp_free: Vec<PReg>,

    rob: VecDeque<RobEntry>,
    /// Sequence number of the window head; squash keeps the numbering
    /// contiguous, so window index = seq − `head_seq`.
    head_seq: u64,
    /// Unissued window entries, oldest first.
    wait: Vec<Waiting>,
    /// Sequence numbers of the window's stores, oldest first.
    stores: VecDeque<u64>,
    /// Sequence numbers of the window's `SYNC`s, oldest first.
    syncs: VecDeque<u64>,
    /// Bumped whenever a store issues or a store or `SYNC` graduates: the
    /// only events that can release a held entry.
    hold_epoch: u64,
    /// No wait-list entry can issue before this cycle. Each issue walk
    /// recomputes it; a register write, a dispatch or a release of held
    /// entries lowers it.
    issue_at: Cycle,
    fetch_pc: u32,
    fetch_resume_at: Cycle,
    fetch_stopped: bool,
    fbuf: VecDeque<Fetched>,
    btb: Btb,
    decode: DecodeCache,
    wbuf: WriteBuffer,
    /// Outstanding load misses: (line address, completion).
    outstanding: Vec<(u32, Cycle)>,
    /// Fetch line buffer: the last I-cache line delivered. Consecutive
    /// fetch groups within one line are served from this buffer without
    /// re-accessing the cache (loop bodies and spin loops re-fetch the same
    /// line every cycle; a real fetch unit holds it in a line register).
    fetch_line: Option<u32>,
    counters: CpuCounters,
    /// Quiet cycles skipped by the last step and not yet counted.
    skipped: Option<Skipped>,
}

/// Fetch-buffer capacity in instructions (a few groups in flight keeps the
/// 3-cycle shared-L1 fetch path fully pipelined).
const FBUF_CAP: usize = 8;

impl MxsCpu {
    /// Creates an MXS CPU with id `cpu` starting at `pc` in `space`.
    pub fn new(cpu: CpuId, pc: u32, space: AddrSpace) -> MxsCpu {
        MxsCpu::with_config(cpu, pc, space, MxsConfig::default())
    }

    /// Creates an MXS CPU with a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs < 32 + rob_entries` (renaming could deadlock),
    /// `phys_regs` exceeds the register-tag range, or the fetch width is
    /// out of range. Use [`MxsCpu::try_with_config`] to reject bad
    /// configurations without unwinding.
    pub fn with_config(cpu: CpuId, pc: u32, space: AddrSpace, cfg: MxsConfig) -> MxsCpu {
        MxsCpu::try_with_config(cpu, pc, space, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: validates `cfg` (see [`MxsConfig::validate`])
    /// before building the core.
    pub fn try_with_config(
        cpu: CpuId,
        pc: u32,
        space: AddrSpace,
        cfg: MxsConfig,
    ) -> Result<MxsCpu, cmpsim_mem::ConfigError> {
        cfg.validate()?;
        let mut m = MxsCpu {
            cpu,
            cfg,
            space,
            arch: ArchState::new(pc),
            halted: false,
            int_preg: vec![0; cfg.phys_regs],
            int_ready: vec![Cycle::ZERO; cfg.phys_regs],
            fp_preg: vec![0.0; cfg.phys_regs],
            fp_ready: vec![Cycle::ZERO; cfg.phys_regs],
            front_int: [0; 32],
            front_fp: [0; 32],
            retire_int: [0; 32],
            retire_fp: [0; 32],
            int_free: Vec::new(),
            fp_free: Vec::new(),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            head_seq: 0,
            wait: Vec::with_capacity(cfg.rob_entries),
            stores: VecDeque::new(),
            syncs: VecDeque::new(),
            hold_epoch: 1,
            issue_at: Cycle::MAX,
            fetch_pc: pc,
            fetch_resume_at: Cycle::ZERO,
            fetch_stopped: false,
            fbuf: VecDeque::with_capacity(FBUF_CAP),
            btb: Btb::new(cfg.btb_entries),
            decode: DecodeCache::new(),
            wbuf: WriteBuffer::new(cfg.wbuf_entries),
            outstanding: Vec::new(),
            fetch_line: None,
            counters: CpuCounters::new(),
            skipped: None,
        };
        m.reset_pipeline();
        Ok(m)
    }

    /// Rebuilds all speculative state from the committed `arch` state.
    fn reset_pipeline(&mut self) {
        for r in 0..32 {
            self.front_int[r] = r as PReg;
            self.front_fp[r] = r as PReg;
            self.retire_int[r] = r as PReg;
            self.retire_fp[r] = r as PReg;
            self.int_preg[r] = self.arch.gpr(Reg::new(r as u8));
            self.fp_preg[r] = self.arch.fpr(cmpsim_isa::FReg::new(r as u8));
            self.int_ready[r] = Cycle::ZERO;
            self.fp_ready[r] = Cycle::ZERO;
        }
        // Refilled in place, in the same order, so no allocation per hcall.
        // `validate` bounds phys_regs by MAX_PHYS_REGS, so the casts are exact.
        let free = (32..self.cfg.phys_regs).map(|p| p as PReg);
        self.int_free.clear();
        self.int_free.extend(free.clone());
        self.fp_free.clear();
        self.fp_free.extend(free);
        self.rob.clear();
        self.wait.clear();
        self.issue_at = Cycle::MAX;
        self.stores.clear();
        self.syncs.clear();
        self.fbuf.clear();
        self.fetch_pc = self.arch.pc;
        self.fetch_stopped = false;
        self.outstanding.clear();
        self.fetch_line = None;
    }

    /// Copies the committed register state into `arch` (pc set by caller).
    fn sync_arch(&mut self) {
        for r in 1..32u8 {
            let p = self.retire_int[r as usize];
            self.arch
                .set_gpr(Reg::new(r), self.int_preg[usize::from(p)]);
        }
        for r in 0..32u8 {
            let p = self.retire_fp[r as usize];
            self.arch
                .set_fpr(cmpsim_isa::FReg::new(r), self.fp_preg[usize::from(p)]);
        }
    }

    /// Squashes every ROB entry younger than index `keep` (exclusive),
    /// restoring the front rename maps by walking the undo records in
    /// reverse order.
    fn squash_after(&mut self, keep: usize) {
        while self.rob.len() > keep + 1 {
            let e = self.rob.pop_back().expect("len checked");
            if let Some(d) = e.int_def {
                self.front_int[usize::from(d.arch)] = d.old;
                self.int_free.push(d.new);
            }
            if let Some(d) = e.fp_def {
                self.front_fp[usize::from(d.arch)] = d.old;
                self.fp_free.push(d.new);
            }
        }
        let last = self.head_seq + keep as u64;
        while self.wait.last().is_some_and(|w| w.seq > last) {
            self.wait.pop();
        }
        while self.stores.back().is_some_and(|&s| s > last) {
            self.stores.pop_back();
        }
        while self.syncs.back().is_some_and(|&s| s > last) {
            self.syncs.pop_back();
        }
        self.fbuf.clear();
    }

    /// Window index of the entry with sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        (seq - self.head_seq) as usize
    }

    fn ready_at(&self, src: Src) -> Cycle {
        match src {
            Src::Int(p) => self.int_ready[usize::from(p)],
            Src::Fp(p) => self.fp_ready[usize::from(p)],
        }
    }

    /// Wake cycle of wait-list entry `w`, recomputed from the source
    /// registers while any producer has yet to execute.
    fn wake_at(&mut self, w: usize) -> Cycle {
        let Waiting { wake, srcs, .. } = self.wait[w];
        if wake != Cycle::MAX {
            return wake;
        }
        let mut wake = Cycle::ZERO;
        for (i, &src) in srcs.iter().enumerate() {
            let Some(src) = src else { break };
            let at = self.ready_at(src);
            if at == Cycle::MAX {
                // Nothing changes until this producer writes: check it
                // first next time.
                self.wait[w].srcs.swap(0, i);
                return Cycle::MAX;
            }
            wake = wake.max(at);
        }
        self.wait[w].wake = wake;
        wake
    }

    /// Ends every hold: held entries are examined again next walk.
    fn release_held(&mut self) {
        self.hold_epoch += 1;
        self.issue_at = Cycle::ZERO;
    }

    fn write_int(&mut self, def: Option<Def>, value: u32, ready: Cycle) {
        if let Some(d) = def {
            self.int_preg[usize::from(d.new)] = value;
            self.int_ready[usize::from(d.new)] = ready;
            // A consumer can wake no earlier than its last producer.
            self.issue_at = self.issue_at.min(ready);
        }
    }

    fn write_fp(&mut self, def: Option<Def>, value: f64, ready: Cycle) {
        if let Some(d) = def {
            self.fp_preg[usize::from(d.new)] = value;
            self.fp_ready[usize::from(d.new)] = ready;
            self.issue_at = self.issue_at.min(ready);
        }
    }

    fn ival(&self, src: Option<PReg>) -> u32 {
        src.map_or(0, |p| self.int_preg[usize::from(p)])
    }

    fn fval(&self, src: Option<PReg>) -> f64 {
        src.map_or(0.0, |p| self.fp_preg[usize::from(p)])
    }

    // ------------------------------------------------------------------
    // Graduate stage
    // ------------------------------------------------------------------

    fn graduate(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        phys: &mut PhysMem,
    ) -> Option<StepEvent> {
        let width = self.cfg.graduate_width as u64;
        let mut grads: u64 = 0;
        let mut event = None;

        while grads < width {
            let Some(head) = self.rob.front() else {
                // Empty window: blame the front end.
                let icache = self
                    .fbuf
                    .front()
                    .is_some_and(|f| f.avail_at > now && f.was_icache_miss);
                if icache {
                    self.counters.slots_icache += width - grads;
                } else {
                    self.counters.slots_pipeline += width - grads;
                }
                return event;
            };
            if head.done_at > now {
                if head.instr.is_load() && head.dcache_blame {
                    self.counters.slots_dcache += width - grads;
                } else {
                    self.counters.slots_pipeline += width - grads;
                }
                return event;
            }

            // Effects that happen at graduation.
            if head.instr.is_store() {
                let paddr = head.mem_paddr.expect("store executed");
                if head.is_sc {
                    // The write-buffer check must precede *every* effect:
                    // consuming the link or publishing the success flag and
                    // then aborting graduation would let dependents observe
                    // a success whose store never happened (a lost update).
                    if self.wbuf.is_full(now) {
                        self.counters.slots_dcache += width - grads;
                        return event;
                    }
                    let ok = phys.check_and_clear_link(self.cpu, paddr);
                    let def = self.rob.front().expect("head exists").int_def;
                    self.write_int(def, u32::from(ok), now);
                    if ok {
                        let val = self.rob.front().expect("head").store_val.expect("sc value");
                        Self::apply_store(phys, self.cpu, paddr, val);
                        let res = mem.access(now, MemRequest::store(self.cpu, paddr));
                        self.wbuf.push(now, res.finish);
                    } else {
                        self.counters.sc_failures += 1;
                    }
                } else {
                    if self.wbuf.is_full(now) {
                        self.counters.slots_dcache += width - grads;
                        return event;
                    }
                    let val = head.store_val.expect("store executed");
                    Self::apply_store(phys, self.cpu, paddr, val);
                    let res = mem.access(now, MemRequest::store(self.cpu, paddr));
                    self.wbuf.push(now, res.finish);
                }
                self.counters.stores += 1;
            } else if matches!(head.instr, Instr::Sync) {
                if self.wbuf.drain_time(now) > now {
                    self.counters.slots_dcache += width - grads;
                    return event;
                }
            } else if head.instr.is_load() {
                if matches!(head.instr, Instr::Ll { .. }) {
                    // LL is architectural: read the value and arm the
                    // reservation atomically, in program order. Every older
                    // store (own or remote) has already reached memory.
                    let pa = head.mem_paddr.expect("LL executed");
                    phys.set_link(self.cpu, pa);
                    let value = phys.read_u32(pa);
                    let def = head.int_def;
                    self.write_int(def, value, now);
                }
                self.counters.loads += 1;
            }

            let head = self.rob.pop_front().expect("head exists");
            self.head_seq += 1;
            if head.instr.is_store() {
                self.stores.pop_front();
                self.release_held();
            } else if matches!(head.instr, Instr::Sync) {
                self.syncs.pop_front();
                self.release_held();
            }
            if head.instr.is_control() && !head.instr.is_direct_jump() {
                self.counters.branches += 1;
                if head.mispredicted {
                    self.counters.mispredicts += 1;
                }
            }
            if let Some(d) = head.int_def {
                self.retire_int[usize::from(d.arch)] = d.new;
                self.int_free.push(d.old);
            }
            if let Some(d) = head.fp_def {
                self.retire_fp[usize::from(d.arch)] = d.new;
                self.fp_free.push(d.old);
            }
            self.counters.instructions += 1;
            grads += 1;

            match head.instr {
                Instr::Halt => {
                    self.sync_arch();
                    self.arch.pc = head.pc;
                    self.halted = true;
                    self.counters.slots_pipeline += width - grads;
                    return Some(StepEvent::Halted);
                }
                Instr::Hcall { no } => {
                    self.sync_arch();
                    self.arch.pc = head.pc.wrapping_add(4);
                    self.reset_pipeline();
                    self.fetch_resume_at = now + 1;
                    self.counters.slots_pipeline += width - grads;
                    event = Some(StepEvent::Hcall(no));
                    return event;
                }
                _ => {}
            }
        }
        event
    }

    fn apply_store(phys: &mut PhysMem, _cpu: CpuId, paddr: u32, val: StoreVal) {
        phys.snoop_store(paddr);
        match val {
            StoreVal::W8(b) => phys.write_u8(paddr, b),
            StoreVal::W32(w) => phys.write_u32(paddr, w),
            StoreVal::F32(f) => phys.write_f32(paddr, f),
            StoreVal::F64(f) => phys.write_f64(paddr, f),
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute stage
    // ------------------------------------------------------------------

    /// Issues up to `issue_width` ready entries, oldest first, and
    /// recomputes `issue_at`. Returns how many issued.
    fn issue(&mut self, now: Cycle, mem: &mut dyn MemorySystem, phys: &mut PhysMem) -> usize {
        if now < self.issue_at {
            return 0;
        }
        self.issue_at = Cycle::MAX;
        if !self.outstanding.is_empty() {
            self.outstanding.retain(|&(_, f)| f > now);
        }
        let mut issued = 0usize;
        let mut mem_port_used = false;
        let mut class_counts = [0usize; 12];
        // The oldest un-graduated SYNC; younger memory operations must not
        // issue past it (full-fence semantics).
        let fence = self.syncs.front().copied();

        let mut w = 0;
        while w < self.wait.len() && issued < self.cfg.issue_width {
            let wake = self.wake_at(w);
            let Waiting {
                seq,
                class,
                held_at,
                ..
            } = self.wait[w];
            if wake > now {
                // A pending producer lowers `issue_at` when it writes.
                if wake != Cycle::MAX {
                    self.issue_at = self.issue_at.min(wake);
                }
                w += 1;
                continue;
            }
            if held_at == self.hold_epoch {
                w += 1;
                continue;
            }
            let idx = self.slot(seq);
            let is_mem = matches!(class, FuClass::Load | FuClass::Store);
            let busy = if is_mem {
                mem_port_used
            } else {
                class_counts[class_index(class)] >= self.cfg.fu_per_class
            };
            let exec = if is_mem && fence.is_some_and(|f| f < seq) {
                Exec::Held
            } else if busy {
                Exec::Busy
            } else {
                self.execute_at(idx, now, mem, phys)
            };
            match exec {
                Exec::Issued => {}
                Exec::Held => {
                    self.wait[w].held_at = self.hold_epoch;
                    w += 1;
                    continue;
                }
                Exec::Busy => {
                    self.issue_at = self.issue_at.min(now + 1);
                    w += 1;
                    continue;
                }
            }
            self.wait.remove(w);
            issued += 1;
            if is_mem {
                mem_port_used = true;
            } else {
                class_counts[class_index(class)] += 1;
            }
            if self.rob[idx].mispredicted {
                // Squash redirects fetch; nothing younger remains.
                break;
            }
        }
        if w < self.wait.len() {
            // Issue width ran out before the walk did.
            self.issue_at = self.issue_at.min(now + 1);
        }
        issued
    }

    /// Executes the instruction in ROB slot `idx`, unless a load finds it
    /// cannot issue after all.
    fn execute_at(
        &mut self,
        idx: usize,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        phys: &mut PhysMem,
    ) -> Exec {
        let instr = self.rob[idx].instr;
        let pc = self.rob[idx].pc;
        let next = pc.wrapping_add(4);
        let int_srcs = self.rob[idx].int_srcs;
        let fp_srcs = self.rob[idx].fp_srcs;
        let int_def = self.rob[idx].int_def;
        let fp_def = self.rob[idx].fp_def;
        let fu = self.cfg.fu;
        let mut done = now + fu.of(instr.fu_class());
        let mut actual_next = next;

        use Instr::*;
        match instr {
            Alu { op, .. } => {
                let v = eval_alu(op, self.ival(int_srcs[0]), self.ival(int_srcs[1]));
                self.write_int(int_def, v, done);
            }
            AluI { op, imm, .. } => {
                let v = eval_alui(op, self.ival(int_srcs[0]), imm);
                self.write_int(int_def, v, done);
            }
            Lui { imm, .. } => self.write_int(int_def, u32::from(imm) << 16, done),
            Mul { .. } => {
                let v = self.ival(int_srcs[0]).wrapping_mul(self.ival(int_srcs[1]));
                self.write_int(int_def, v, done);
            }
            Div { .. } => {
                let (a, b) = (self.ival(int_srcs[0]) as i32, self.ival(int_srcs[1]) as i32);
                let v = if b == 0 { 0 } else { a.wrapping_div(b) as u32 };
                self.write_int(int_def, v, done);
            }
            Rem { .. } => {
                let (a, b) = (self.ival(int_srcs[0]) as i32, self.ival(int_srcs[1]) as i32);
                let v = if b == 0 { 0 } else { a.wrapping_rem(b) as u32 };
                self.write_int(int_def, v, done);
            }
            Fp { op, .. } => {
                let v = eval_fp(op, self.fval(fp_srcs[0]), self.fval(fp_srcs[1]));
                self.write_fp(fp_def, v, done);
            }
            Fcmp { cmp, .. } => {
                let v = eval_fcmp(cmp, self.fval(fp_srcs[0]), self.fval(fp_srcs[1]));
                self.write_int(int_def, u32::from(v), done);
            }
            Fmov { .. } => {
                let v = self.fval(fp_srcs[0]);
                self.write_fp(fp_def, v, done);
            }
            CvtIf { .. } => {
                let v = eval_cvt_if(self.ival(int_srcs[0]));
                self.write_fp(fp_def, v, done);
            }
            CvtFi { .. } => {
                let v = eval_cvt_fi(self.fval(fp_srcs[0]));
                self.write_int(int_def, v, done);
            }
            Lb { off, .. }
            | Lbu { off, .. }
            | Lw { off, .. }
            | Ll { off, .. }
            | Fls { off, .. }
            | Fld { off, .. } => {
                let va = effective_addr(self.ival(int_srcs[0]), off);
                let pa = self.space.translate(va);
                let bytes = instr.mem_bytes().expect("load has a size");
                // Disambiguate against older stores in the window.
                match self.scan_older_stores(idx, pa, bytes) {
                    StoreScan::Unknown | StoreScan::Partial => return Exec::Held,
                    StoreScan::Forward(val) => {
                        done = now + 1;
                        self.finish_load(instr, int_def, fp_def, pa, Some(val), done, phys);
                        self.rob[idx].mem_paddr = Some(pa);
                    }
                    StoreScan::Clear => {
                        let line = pa & !(mem.line_bytes() - 1);
                        if let Some(&(_, fin)) = self.outstanding.iter().find(|&&(l, _)| l == line)
                        {
                            // Merge with the outstanding miss to this line.
                            done = fin.max(now + 1);
                            self.rob[idx].dcache_blame = true;
                        } else {
                            if !mem.load_would_hit_l1(self.cpu, pa)
                                && self.outstanding.len() >= self.cfg.mshrs
                            {
                                return Exec::Busy; // all MSHRs in use
                            }
                            let res = mem.access(now, MemRequest::load(self.cpu, pa));
                            done = res.finish;
                            if res.l1_miss {
                                self.outstanding.push((line, res.finish));
                                self.rob[idx].dcache_blame = true;
                            }
                        }
                        self.finish_load(instr, int_def, fp_def, pa, None, done, phys);
                        self.rob[idx].mem_paddr = Some(pa);
                    }
                }
            }
            Sb { off, .. }
            | Sw { off, .. }
            | Sc { off, .. }
            | Fss { off, .. }
            | Fsd { off, .. } => {
                let va = effective_addr(self.ival(int_srcs[0]), off);
                let pa = self.space.translate(va);
                let val = match instr {
                    Sb { .. } => StoreVal::W8(self.ival(int_srcs[1]) as u8),
                    Sw { .. } | Sc { .. } => StoreVal::W32(self.ival(int_srcs[1])),
                    Fss { .. } => StoreVal::F32(self.fval(fp_srcs[0]) as f32),
                    Fsd { .. } => StoreVal::F64(self.fval(fp_srcs[0])),
                    _ => unreachable!(),
                };
                done = now + fu.store;
                self.release_held();
                self.rob[idx].mem_paddr = Some(pa);
                self.rob[idx].store_val = Some(val);
                // An SC's destination becomes ready at graduation, when the
                // link is checked; leave it not-ready here.
            }
            Branch { cond, off, .. } => {
                let taken = eval_branch(cond, self.ival(int_srcs[0]), self.ival(int_srcs[1]));
                actual_next = if taken {
                    next.wrapping_add((off as i32 as u32).wrapping_mul(4))
                } else {
                    next
                };
                self.btb.update(pc, taken, actual_next);
            }
            J { target } => actual_next = target * 4,
            Jal { target } => {
                actual_next = target * 4;
                self.write_int(int_def, next, done);
            }
            Jr { .. } => {
                actual_next = self.ival(int_srcs[0]);
                self.btb.update(pc, true, actual_next);
            }
            Jalr { .. } => {
                actual_next = self.ival(int_srcs[0]);
                self.write_int(int_def, next, done);
                self.btb.update(pc, true, actual_next);
            }
            Cpuid { .. } => self.write_int(int_def, self.cpu as u32, done),
            Sync | Hcall { .. } | Halt | Nop => {}
        }

        let e = &mut self.rob[idx];
        e.issued = true;
        e.done_at = done;
        if instr.is_control() && actual_next != e.predicted_next {
            e.mispredicted = true;
            self.squash_after(idx);
            self.fetch_pc = actual_next;
            self.fetch_resume_at = now + self.cfg.fu.branch;
            self.fetch_stopped = false;
            self.fetch_line = None;
        }
        Exec::Issued
    }

    #[allow(clippy::too_many_arguments)] // mirrors the execute-stage operands
    fn finish_load(
        &mut self,
        instr: Instr,
        int_def: Option<Def>,
        fp_def: Option<Def>,
        pa: u32,
        forwarded: Option<StoreVal>,
        ready: Cycle,
        phys: &mut PhysMem,
    ) {
        use Instr::*;
        match instr {
            Lb { .. } => {
                let b = match forwarded {
                    Some(StoreVal::W8(b)) => b,
                    Some(StoreVal::W32(w)) => w as u8,
                    _ => phys.read_u8(pa),
                };
                self.write_int(int_def, b as i8 as i32 as u32, ready);
            }
            Lbu { .. } => {
                let b = match forwarded {
                    Some(StoreVal::W8(b)) => b,
                    Some(StoreVal::W32(w)) => w as u8,
                    _ => phys.read_u8(pa),
                };
                self.write_int(int_def, u32::from(b), ready);
            }
            Lw { .. } => {
                let w = match forwarded {
                    Some(StoreVal::W32(w)) => w,
                    Some(StoreVal::F32(f)) => f.to_bits(),
                    _ => phys.read_u32(pa),
                };
                self.write_int(int_def, w, ready);
            }
            Ll { .. } => {
                // Both the value read and the link establishment happen at
                // graduation: reading the value early while arming the link
                // late would open a lost-update window for remote stores
                // (all four CPUs' barrier counts collapsed that way), and
                // arming early lets older own stores spuriously clear it.
                // The destination stays not-ready until graduation.
                let _ = forwarded;
            }
            Fls { .. } => {
                let f = match forwarded {
                    Some(StoreVal::F32(f)) => f,
                    Some(StoreVal::W32(w)) => f32::from_bits(w),
                    _ => phys.read_f32(pa),
                };
                self.write_fp(fp_def, f64::from(f), ready);
            }
            Fld { .. } => {
                let f = match forwarded {
                    Some(StoreVal::F64(f)) => f,
                    _ => phys.read_f64(pa),
                };
                self.write_fp(fp_def, f, ready);
            }
            _ => unreachable!("finish_load on non-load"),
        }
    }

    /// Disambiguates the load in window slot `idx` against the stores
    /// older than it.
    fn scan_older_stores(&self, idx: usize, pa: u32, bytes: u32) -> StoreScan {
        let seq = self.head_seq + idx as u64;
        let mut result = StoreScan::Clear;
        for &s in self.stores.iter().take_while(|&&s| s < seq) {
            let e = &self.rob[self.slot(s)];
            if !e.issued {
                return StoreScan::Unknown;
            }
            let spa = e.mem_paddr.expect("issued store has an address");
            let sval = e.store_val.expect("issued store has a value");
            let sbytes = sval.bytes();
            let overlap = pa < spa + sbytes && spa < pa + bytes;
            if !overlap {
                continue;
            }
            if spa == pa && sbytes == bytes && !e.is_sc {
                // Youngest exact match wins (keep scanning).
                result = StoreScan::Forward(sval);
            } else {
                // Partial overlap (or an SC whose success is unknown):
                // wait for the store to graduate.
                result = StoreScan::Partial;
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // Rename / dispatch stage
    // ------------------------------------------------------------------

    /// Renames up to `fetch_width` fetched instructions into the window.
    /// Returns how many entered it.
    fn dispatch(&mut self, now: Cycle) -> usize {
        let mut n = 0;
        loop {
            if n >= self.cfg.fetch_width {
                break;
            }
            let Some(f) = self.fbuf.front() else { break };
            if f.avail_at > now {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                self.counters.dispatch_stall_rob += 1;
                break;
            }
            let ops = f.instr.reg_ops();
            if (ops.int_def.is_some() && self.int_free.is_empty())
                || (ops.fp_def.is_some() && self.fp_free.is_empty())
            {
                // No physical register: stall rename.
                self.counters.dispatch_stall_preg += 1;
                break;
            }
            let f = self.fbuf.pop_front().expect("peeked");
            let int_srcs = [
                ops.int_uses[0].map(|r| self.front_int[r.index()]),
                ops.int_uses[1].map(|r| self.front_int[r.index()]),
            ];
            let fp_srcs = [
                ops.fp_uses[0].map(|r| self.front_fp[r.index()]),
                ops.fp_uses[1].map(|r| self.front_fp[r.index()]),
            ];
            let int_def = ops.int_def.map(|r| {
                let new = self.int_free.pop().expect("checked non-empty");
                let old = self.front_int[r.index()];
                self.front_int[r.index()] = new;
                self.int_ready[usize::from(new)] = Cycle::MAX;
                Def {
                    arch: r.index() as u8,
                    new,
                    old,
                }
            });
            let fp_def = ops.fp_def.map(|r| {
                let new = self.fp_free.pop().expect("checked non-empty");
                let old = self.front_fp[r.index()];
                self.front_fp[r.index()] = new;
                self.fp_ready[usize::from(new)] = Cycle::MAX;
                Def {
                    arch: r.index() as u8,
                    new,
                    old,
                }
            });
            let seq = self.head_seq + self.rob.len() as u64;
            if f.instr.is_store() {
                self.stores.push_back(seq);
            } else if matches!(f.instr, Instr::Sync) {
                self.syncs.push_back(seq);
            }
            let mut reads = (int_srcs.into_iter().flatten().map(Src::Int))
                .chain(fp_srcs.into_iter().flatten().map(Src::Fp));
            let srcs = [reads.next(), reads.next()];
            debug_assert!(
                reads.next().is_none(),
                "{:?} reads three registers",
                f.instr
            );
            self.wait.push(Waiting {
                seq,
                wake: Cycle::MAX,
                srcs,
                class: f.instr.fu_class(),
                held_at: 0,
            });
            let wake = self.wake_at(self.wait.len() - 1);
            self.issue_at = self.issue_at.min(wake);
            self.rob.push_back(RobEntry {
                pc: f.pc,
                predicted_next: f.predicted_next,
                instr: f.instr,
                int_def,
                fp_def,
                int_srcs,
                fp_srcs,
                done_at: Cycle::MAX,
                mem_paddr: None,
                store_val: None,
                issued: false,
                mispredicted: false,
                is_sc: matches!(f.instr, Instr::Sc { .. }),
                dcache_blame: false,
            });
            n += 1;
        }
        n
    }

    // ------------------------------------------------------------------
    // Fetch stage
    // ------------------------------------------------------------------

    /// Fetches one group into the fetch buffer. Returns whether it did.
    fn fetch(&mut self, now: Cycle, mem: &mut dyn MemorySystem, phys: &PhysMem) -> bool {
        if self.fetch_stopped
            || now < self.fetch_resume_at
            || self.fbuf.len() + self.cfg.fetch_width > FBUF_CAP
        {
            return false;
        }
        let group_pa = self.space.translate(self.fetch_pc);
        let first = self.fbuf.len();
        for _ in 0..self.cfg.fetch_width {
            let pc = self.fetch_pc;
            let pa = self.space.translate(pc);
            let instr = self.decode.fetch(phys, pa);
            let predicted_next = match instr {
                Instr::J { target } | Instr::Jal { target } => target * 4,
                Instr::Branch { .. } => self.btb.predict_branch(pc).unwrap_or(pc.wrapping_add(4)),
                Instr::Jr { .. } | Instr::Jalr { .. } => {
                    self.btb.predict_indirect(pc).unwrap_or(pc.wrapping_add(4))
                }
                _ => pc.wrapping_add(4),
            };
            self.fbuf.push_back(Fetched {
                pc,
                instr,
                predicted_next,
                avail_at: Cycle::MAX, // patched below
                was_icache_miss: false,
            });
            self.fetch_pc = predicted_next;
            if matches!(instr, Instr::Halt | Instr::Hcall { .. }) {
                self.fetch_stopped = true;
                break;
            }
            if predicted_next != pc.wrapping_add(4) {
                break; // taken prediction ends the fetch group
            }
        }
        let line = group_pa & !(mem.line_bytes() - 1);
        let (avail_at, was_miss) = if self.fetch_line == Some(line) {
            // Same line as the previous group: served from the line buffer.
            (now + 1, false)
        } else {
            let res = mem.access(now, MemRequest::ifetch(self.cpu, group_pa));
            self.fetch_line = Some(line);
            (res.finish, res.l1_miss)
        };
        for f in self.fbuf.range_mut(first..) {
            f.avail_at = avail_at;
            f.was_icache_miss = was_miss;
        }
        true
    }

    // ------------------------------------------------------------------
    // Idle skipping
    // ------------------------------------------------------------------

    /// The earliest cycle after `now` at which any stage can act, called
    /// after a step at `now` that changed nothing. Until then every stage
    /// sees the same state, so each cycle in between would repeat that
    /// step's counter increments and nothing else.
    ///
    /// A cycle is a candidate when an unissued entry's operands become
    /// ready (`issue_at`), the head completes, the write buffer frees an
    /// entry or drains (a done head store or `SYNC`), the fetch buffer's
    /// front group arrives, or fetch resumes after a redirect. Held entries
    /// wait on events, which no quiet cycle has; an entry that is ready but
    /// busy keeps `issue_at` at `now + 1`, so an MSHR-blocked load, whose
    /// L1 hit depends on other CPUs, forbids skipping.
    fn next_wake(&mut self, now: Cycle) -> Cycle {
        let soon = now + 1;
        let mut wake = self.issue_at;
        if let Some(head) = self.rob.front() {
            if head.done_at > now {
                wake = wake.min(head.done_at);
            } else if head.instr.is_store() {
                wake = wake.min(self.wbuf.next_free(now));
            } else if matches!(head.instr, Instr::Sync) {
                wake = wake.min(self.wbuf.drain_time(now));
            } else {
                return soon;
            }
        }
        if let Some(f) = self.fbuf.front() {
            if f.avail_at > now {
                wake = wake.min(f.avail_at);
            }
        }
        if !self.fetch_stopped && self.fetch_resume_at > now {
            wake = wake.min(self.fetch_resume_at);
        }
        // A core with nothing scheduled at all is stuck; keep stepping it
        // cycle by cycle so the watchdog and the cycle budget see it.
        if wake == Cycle::MAX {
            soon
        } else {
            wake.max(soon)
        }
    }

    /// Counts the skipped quiet cycles before `end`.
    fn count_skipped(&mut self, end: Cycle) {
        if let Some(s) = &mut self.skipped {
            let end = end.min(s.until);
            if end > s.from {
                s.tick.add_to(&mut self.counters, end - s.from);
                s.from = end;
            }
        }
    }

    /// Number of in-flight instructions (fetch buffer + window), for tests.
    pub fn in_flight(&self) -> usize {
        self.fbuf.len() + self.rob.len()
    }

    /// The oldest un-graduated instruction's pc (or the fetch pc if the
    /// window is empty) — diagnostics only.
    pub fn head_pc(&self) -> u32 {
        self.rob.front().map_or(self.fetch_pc, |e| e.pc)
    }
}

/// The outcome of an issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    Issued,
    /// Cannot issue until a store issues or a store or `SYNC` graduates:
    /// a memory operation behind a `SYNC`, or a load whose older stores
    /// are unissued or overlap it inexactly.
    Held,
    /// Blocked for this cycle only: the memory port or functional units
    /// are taken, or a load would miss with every MSHR in use (whether it
    /// hits can change with other CPUs' accesses).
    Busy,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreScan {
    /// No older store overlaps.
    Clear,
    /// An older store has an unknown address.
    Unknown,
    /// Overlap without exact match; wait for graduation.
    Partial,
    /// Exact match: forward this value.
    Forward(StoreVal),
}

fn class_index(c: FuClass) -> usize {
    match c {
        FuClass::IntAlu => 0,
        FuClass::IntMul => 1,
        FuClass::IntDiv => 2,
        FuClass::Branch => 3,
        FuClass::Load => 4,
        FuClass::Store => 5,
        FuClass::FpAddSubSp => 6,
        FuClass::FpMulSp => 7,
        FuClass::FpDivSp => 8,
        FuClass::FpAddSubDp => 9,
        FuClass::FpMulDp => 10,
        FuClass::FpDivDp => 11,
    }
}

impl CpuModel for MxsCpu {
    fn step(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemorySystem,
        phys: &mut PhysMem,
    ) -> (Cycle, StepEvent) {
        debug_assert!(!self.halted, "stepping a halted CPU");
        // Cycles the last step skipped are quiet up to `now`; a caller
        // stepping before the returned cycle simply cuts the skip short.
        self.count_skipped(now);
        self.skipped = None;

        let before = QuietTick::snapshot(&self.counters);
        let graduated = self.counters.instructions;
        self.counters.mxs_cycles += 1;
        self.counters.window_occupancy_sum += self.rob.len() as u64;
        if let Some(ev) = self.graduate(now, mem, phys) {
            return (now + 1, ev);
        }
        let issued = self.issue(now, mem, phys);
        let dispatched = self.dispatch(now);
        let fetched = self.fetch(now, mem, phys);
        if self.counters.instructions != graduated || issued + dispatched > 0 || fetched {
            return (now + 1, StepEvent::None);
        }

        // Nothing changed: skip to the next cycle any stage can act,
        // owing each quiet cycle this step's counter increments.
        let wake = self.next_wake(now);
        if wake > now + 1 {
            self.skipped = Some(Skipped {
                from: now + 1,
                until: wake,
                tick: QuietTick::snapshot(&self.counters).since(before),
            });
        }
        (wake, StepEvent::None)
    }

    fn settle(&mut self, through: Cycle) {
        self.count_skipped(Cycle(through.0.saturating_add(1)));
    }

    fn arch(&self) -> &ArchState {
        &self.arch
    }

    fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }

    fn set_space(&mut self, space: AddrSpace) {
        self.space = space;
        // A new address space maps different code behind the same PCs.
        self.decode.clear();
    }

    fn space(&self) -> AddrSpace {
        self.space
    }

    fn flush(&mut self) {
        self.reset_pipeline();
        // Context switch: drop memoized decodes so a process image
        // overwritten in place can never serve stale instructions. (Not in
        // `reset_pipeline`, which also runs on every hcall graduation.)
        self.decode.clear();
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn counters(&self) -> &CpuCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut CpuCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_isa::{Asm, FReg};
    use cmpsim_mem::{SharedMemSystem, SystemConfig};

    fn build(asm: &Asm) -> (PhysMem, SharedMemSystem, MxsCpu) {
        let prog = asm.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        let mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let cpu = MxsCpu::new(0, prog.base, AddrSpace::identity());
        (phys, mem, cpu)
    }

    #[test]
    fn config_validation_rejects_each_bad_shape_with_a_typed_error() {
        use cmpsim_mem::ConfigError;
        assert!(MxsConfig::default().validate().is_ok());

        let starved = MxsConfig {
            phys_regs: 40,
            ..MxsConfig::default()
        };
        assert_eq!(
            starved.validate(),
            Err(ConfigError::TooFewPhysRegs {
                phys_regs: 40,
                needed: 32 + MxsConfig::default().rob_entries,
            })
        );

        let huge = MxsConfig {
            phys_regs: MAX_PHYS_REGS + 1,
            ..MxsConfig::default()
        };
        assert_eq!(
            huge.validate(),
            Err(ConfigError::TooManyPhysRegs {
                phys_regs: MAX_PHYS_REGS + 1,
                max: MAX_PHYS_REGS,
            })
        );
        let largest = MxsConfig {
            phys_regs: MAX_PHYS_REGS,
            ..MxsConfig::default()
        };
        assert!(largest.validate().is_ok());

        for fetch_width in [0, FBUF_CAP + 1] {
            let wide = MxsConfig {
                fetch_width,
                ..MxsConfig::default()
            };
            assert_eq!(
                wide.validate(),
                Err(ConfigError::FetchWidthOutOfRange {
                    fetch_width,
                    max: FBUF_CAP,
                })
            );
        }

        let err = MxsCpu::try_with_config(0, 0, AddrSpace::identity(), starved)
            .expect_err("starved register file must be rejected");
        assert!(err.to_string().contains("32 + rob_entries"));
        assert!(MxsCpu::try_with_config(0, 0, AddrSpace::identity(), MxsConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "32 + rob_entries")]
    fn with_config_still_panics_on_bad_configs() {
        let starved = MxsConfig {
            phys_regs: 40,
            ..MxsConfig::default()
        };
        let _ = MxsCpu::with_config(0, 0, AddrSpace::identity(), starved);
    }

    fn run_to_halt(phys: &mut PhysMem, mem: &mut SharedMemSystem, cpu: &mut MxsCpu) -> Cycle {
        let mut now = Cycle(0);
        for _ in 0..2_000_000 {
            if cpu.halted() {
                return now;
            }
            let (next, _) = cpu.step(now, mem, phys);
            now = next;
        }
        panic!("program did not halt; pc={:#x}", cpu.arch().pc);
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 5);
        a.li(Reg::T1, 7);
        a.add(Reg::T2, Reg::T0, Reg::T1);
        a.mul(Reg::T3, Reg::T2, Reg::T2);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T2), 12);
        assert_eq!(cpu.arch().gpr(Reg::T3), 144);
        assert_eq!(cpu.counters().instructions, 5);
    }

    #[test]
    fn loop_with_branches() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 50);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, 2);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T0), 100);
        let c = cpu.counters();
        assert_eq!(c.instructions, 2 + 150 + 1);
        assert_eq!(c.branches, 50);
        // BTB learns the loop: far fewer mispredicts than branches.
        assert!(c.mispredicts <= 4, "mispredicts = {}", c.mispredicts);
    }

    #[test]
    fn stores_commit_in_order_and_loads_forward() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T0, 0xaa);
        a.li(Reg::T1, 0xbb);
        a.sw(Reg::T0, Reg::A0, 0);
        a.sw(Reg::T1, Reg::A0, 0); // overwrite
        a.lw(Reg::T2, Reg::A0, 0); // must see 0xbb (forwarded)
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T2), 0xbb);
        assert_eq!(phys.read_u32(0x8000), 0xbb);
    }

    #[test]
    fn partial_overlap_waits_for_graduation() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T0, 0x11223344);
        a.sw(Reg::T0, Reg::A0, 0);
        a.lb(Reg::T1, Reg::A0, 1); // partial overlap: byte 1 of the word
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 0x33);
    }

    #[test]
    fn mispredicted_branch_recovers_precisely() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 1);
        a.li(Reg::T3, 7);
        // Taken branch over a poison section (cold BTB predicts fall-through
        // -> wrong path executes speculatively, then squashes).
        a.bnez(Reg::T0, "past");
        a.li(Reg::T3, 999); // wrong path
        a.li(Reg::T4, 888); // wrong path
        a.label("past");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T3), 7, "wrong path must not commit");
        assert_eq!(cpu.arch().gpr(Reg::T4), 0);
        assert_eq!(cpu.counters().mispredicts, 1);
    }

    #[test]
    fn wrong_path_stores_never_reach_memory() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x9000);
        a.li(Reg::T0, 1);
        a.bnez(Reg::T0, "past");
        a.sw(Reg::T0, Reg::A0, 0); // wrong path store
        a.label("past");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(
            phys.read_u32(0x9000),
            0,
            "speculative store must not commit"
        );
    }

    #[test]
    fn ll_sc_works_under_speculation() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xa000);
        a.label("retry");
        a.ll(Reg::T0, Reg::A0, 0);
        a.addi(Reg::T1, Reg::T0, 1);
        a.sc(Reg::T1, Reg::A0, 0);
        a.beqz(Reg::T1, "retry");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(phys.read_u32(0xa000), 1);
    }

    #[test]
    fn fp_pipeline_latencies_respected() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xb000);
        a.cvt_if(FReg::F1, Reg::A0); // f1 = 45056.0
        a.fmov(FReg::F2, FReg::F1);
        a.fdiv_d(FReg::F3, FReg::F1, FReg::F2); // 18-cycle divide
        a.fadd_d(FReg::F4, FReg::F3, FReg::F3);
        a.fsd(FReg::F4, Reg::A0, 0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(phys.read_f64(0xb000), 2.0);
        assert!(end.0 >= 18, "dp divide latency must show up");
    }

    #[test]
    fn nonblocking_loads_overlap_misses() {
        // Four independent cold loads to different lines: with 4 MSHRs they
        // overlap; total time must be far less than 4 * 50.
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x2_0000);
        a.lw(Reg::T0, Reg::A0, 0);
        a.lw(Reg::T1, Reg::A0, 0x40);
        a.lw(Reg::T2, Reg::A0, 0x80);
        a.lw(Reg::T3, Reg::A0, 0xc0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        // The cold I-fetch costs ~50 cycles; the four load misses then
        // overlap behind the 6-cycle bus occupancy. Blocking loads would
        // need ~50 + 4*50 = 250 cycles.
        assert!(
            end.0 < 140,
            "loads must overlap (took {} cycles; serial would be ~250)",
            end.0
        );
    }

    #[test]
    fn ipc_near_two_on_independent_alu_code() {
        let mut a = Asm::new(0x1000);
        // Warm loop: independent adds in pairs.
        a.li(Reg::T5, 200);
        a.label("loop");
        for _ in 0..4 {
            a.addi(Reg::T0, Reg::T0, 1);
            a.addi(Reg::T1, Reg::T1, 1);
        }
        a.addi(Reg::T5, Reg::T5, -1);
        a.bnez(Reg::T5, "loop");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        let ipc = cpu.counters().ipc();
        assert!(ipc > 1.2, "expected high IPC, got {ipc:.2}");
    }

    #[test]
    fn sync_fences_memory_operations() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xc000);
        a.li(Reg::T0, 77);
        a.sw(Reg::T0, Reg::A0, 0);
        a.sync();
        a.lw(Reg::T1, Reg::A0, 0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 77);
    }

    #[test]
    fn matches_mipsy_architectural_results() {
        // The same program must produce identical architectural state under
        // both CPU models.
        use crate::mipsy::MipsyCpu;
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xd000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 20);
        a.label("loop");
        a.mul(Reg::T2, Reg::T1, Reg::T1);
        a.add(Reg::T0, Reg::T0, Reg::T2);
        a.sw(Reg::T0, Reg::A0, 0);
        a.lw(Reg::T3, Reg::A0, 0);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.halt();

        let (mut phys_a, mut mem_a, mut mxs) = build(&a);
        run_to_halt(&mut phys_a, &mut mem_a, &mut mxs);

        let prog = a.assemble().expect("assembles");
        let mut phys_b = PhysMem::new(4);
        phys_b.load_words(prog.base, &prog.words);
        let mut mem_b = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let mut mipsy = MipsyCpu::new(0, prog.base, AddrSpace::identity());
        let mut now = Cycle(0);
        while !mipsy.halted() {
            let (next, _) = mipsy.step(now, &mut mem_b, &mut phys_b);
            now = next;
        }
        assert_eq!(mxs.arch().gpr(Reg::T0), mipsy.arch().gpr(Reg::T0));
        assert_eq!(mxs.arch().gpr(Reg::T3), mipsy.arch().gpr(Reg::T3));
        assert_eq!(phys_a.read_u32(0xd000), phys_b.read_u32(0xd000));
    }

    #[test]
    fn hcall_synchronizes_architectural_state() {
        use cmpsim_isa::HcallNo;
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 42);
        a.hcall(HcallNo::Phase(1));
        a.li(Reg::T1, 43);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let mut now = Cycle(0);
        let mut saw_hcall = false;
        for _ in 0..10_000 {
            if cpu.halted() {
                break;
            }
            let (next, ev) = cpu.step(now, &mut mem, &mut phys);
            if let StepEvent::Hcall(no) = ev {
                saw_hcall = true;
                assert_eq!(no, HcallNo::Phase(1));
                // At the hcall, T0 is committed but T1 is not yet.
                assert_eq!(cpu.arch().gpr(Reg::T0), 42);
                assert_eq!(cpu.arch().gpr(Reg::T1), 0);
            }
            now = next;
        }
        assert!(saw_hcall);
        assert_eq!(cpu.arch().gpr(Reg::T1), 43);
    }
}
