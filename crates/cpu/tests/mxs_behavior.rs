//! Microarchitectural behavior tests for the MXS core: structural limits
//! (window, MSHRs, memory port), fences, and multi-CPU atomicity.

use cmpsim_cpu::{CpuCounters, CpuModel, MipsyCpu, MxsConfig, MxsCpu, StepEvent};
use cmpsim_engine::Cycle;
use cmpsim_isa::{Asm, HcallNo, Reg};
use cmpsim_mem::{AddrSpace, MemorySystem, PhysMem, SharedL1System, SharedMemSystem, SystemConfig};

const CODE: u32 = 0x1_0000;
const DATA: u32 = 0x10_0000;

fn run_single(asm: &Asm) -> (MxsCpu, PhysMem, u64) {
    let prog = asm.assemble().expect("assembles");
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut cpu = MxsCpu::new(0, prog.base, AddrSpace::identity());
    let mut now = Cycle(0);
    while !cpu.halted() {
        assert!(now.0 < 50_000_000, "did not halt");
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    (cpu, phys, now.0)
}

#[test]
fn window_fills_but_never_deadlocks_on_long_dependency_chains() {
    // 64 chained divides (12 cycles each) overflow the 32-entry window;
    // dispatch must stall and resume cleanly.
    let mut a = Asm::new(CODE);
    a.li(Reg::T0, 1_000_000);
    a.li(Reg::T1, 3);
    for _ in 0..64 {
        a.div(Reg::T0, Reg::T0, Reg::T1);
    }
    a.halt();
    let (cpu, _, cycles) = run_single(&a);
    assert!(cpu.halted());
    // The chain serializes: at least 12 cycles per divide until the value
    // hits zero (about 13 divides), then 1-cycle zero-divides.
    assert!(cycles > 12 * 12, "divide latency must serialize ({cycles})");
}

#[test]
fn mshr_limit_caps_miss_overlap() {
    // 8 independent cold loads: with 4 MSHRs they complete in two memory
    // "waves"; with 8 MSHRs in about one.
    let build = || {
        let mut a = Asm::new(CODE);
        a.la_abs(Reg::A0, DATA);
        for k in 0..8 {
            a.lw(Reg::new(8 + k), Reg::A0, (k as i16) * 64);
        }
        a.halt();
        a
    };
    let run_with = |mshrs: usize| {
        let prog = build().assemble().expect("assembles");
        let mut phys = PhysMem::new(1);
        phys.load_words(prog.base, &prog.words);
        let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
        let cfg = MxsConfig {
            mshrs,
            ..MxsConfig::default()
        };
        let mut cpu = MxsCpu::with_config(0, prog.base, AddrSpace::identity(), cfg);
        let mut now = Cycle(0);
        while !cpu.halted() {
            let (next, _) = cpu.step(now, &mut mem, &mut phys);
            now = next;
        }
        now.0
    };
    let four = run_with(4);
    let eight = run_with(8);
    let one = run_with(1);
    assert!(eight < four, "more MSHRs, more overlap ({eight} vs {four})");
    assert!(
        four < one,
        "4 MSHRs beat a blocking cache ({four} vs {one})"
    );
}

#[test]
fn single_memory_port_limits_load_throughput() {
    // 32 independent warm loads: the single memory data port issues one
    // per cycle, so the run takes at least 32 cycles more than pure ALU.
    let mut a = Asm::new(CODE);
    a.la_abs(Reg::A0, DATA);
    // Warm the lines.
    for k in 0..4 {
        a.lw(Reg::T0, Reg::A0, (k as i16) * 32);
    }
    for i in 0..32 {
        a.lw(Reg::new(8 + (i % 8)), Reg::A0, ((i % 4) as i16) * 32);
    }
    a.halt();
    let (_, _, cycles) = run_single(&a);
    assert!(cycles >= 36, "one load per cycle max ({cycles})");
}

#[test]
fn sync_orders_store_before_following_loads() {
    // Classic message-passing litmus within one CPU: store data, sync,
    // "flag" read path must see it. Single-CPU version checks fence
    // plumbing end to end.
    let mut a = Asm::new(CODE);
    a.la_abs(Reg::A0, DATA);
    a.li(Reg::T0, 0xfeed);
    a.sw(Reg::T0, Reg::A0, 0);
    a.sync();
    a.lw(Reg::T1, Reg::A0, 0);
    a.la_abs(Reg::A1, DATA + 0x100);
    a.sw(Reg::T1, Reg::A1, 0);
    a.halt();
    let (_, phys, _) = run_single(&a);
    assert_eq!(phys.read_u32(DATA + 0x100), 0xfeed);
}

#[test]
fn four_mxs_cpus_keep_a_lock_mutually_exclusive() {
    // The acid test for MXS speculation + LL/SC + fences: four speculative
    // OoO cores hammer one lock-protected counter. Any window where two
    // cores hold the lock shows up as a lost increment.
    let mut a = Asm::new(CODE);
    a.cpuid(Reg::S7);
    a.la_abs(Reg::A0, DATA); // lock
    a.la_abs(Reg::A1, DATA + 0x40); // counter
    a.li(Reg::S0, 40);
    a.label("loop");
    a.label("acquire");
    a.lw(Reg::T8, Reg::A0, 0);
    a.bnez(Reg::T8, "acquire");
    a.ll(Reg::T8, Reg::A0, 0);
    a.bnez(Reg::T8, "acquire");
    a.li(Reg::T9, 1);
    a.sc(Reg::T9, Reg::A0, 0);
    a.beqz(Reg::T9, "acquire");
    a.sync();
    a.lw(Reg::T0, Reg::A1, 0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sw(Reg::T0, Reg::A1, 0);
    a.sync();
    a.sw(Reg::ZERO, Reg::A0, 0);
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.halt();
    let prog = a.assemble().expect("assembles");
    let mut phys = PhysMem::new(4);
    phys.load_words(prog.base, &prog.words);
    let mut mem = SharedL1System::new(&SystemConfig::paper_shared_l1(4));
    let mut cpus: Vec<MxsCpu> = (0..4)
        .map(|c| MxsCpu::new(c, prog.base, AddrSpace::identity()))
        .collect();
    let mut ready = [Cycle(0); 4];
    for _ in 0..40_000_000u64 {
        let Some(c) = (0..4)
            .filter(|&c| !cpus[c].halted())
            .min_by_key(|&c| ready[c])
        else {
            break;
        };
        let (next, _) = cpus[c].step(ready[c], &mut mem, &mut phys);
        ready[c] = next;
    }
    assert!(cpus.iter().all(|c| c.halted()), "all CPUs finish");
    assert_eq!(phys.read_u32(DATA + 0x40), 160, "4 CPUs x 40 increments");
}

/// Four CPUs run a lock-protected increment loop, each resetting the
/// statistics every fourth iteration. Four 12-cycle divides per iteration
/// leave every core quiet for long stretches, so resets land inside other
/// cores' skipped cycles. The CPUs step in `(cycle, cpu)` order —
/// every cycle, or only at the cycles they ask for — and each `ResetStats`
/// is serviced as the machine does it: every other CPU first settles the
/// cycles it skipped that this order places before the reset. Returns the
/// CPUs, memory, every CPU's counters as each reset found them, the memory
/// system's statistics and the step count.
fn run_lock_with_resets(
    every_cycle: bool,
) -> (Vec<MxsCpu>, PhysMem, Vec<Vec<CpuCounters>>, String, u64) {
    let mut a = Asm::new(CODE);
    a.la_abs(Reg::A0, DATA); // lock
    a.la_abs(Reg::A1, DATA + 0x40); // counter
    a.li(Reg::S0, 40);
    a.label("loop");
    a.andi(Reg::S1, Reg::S0, 3);
    a.bnez(Reg::S1, "work");
    a.hcall(HcallNo::ResetStats);
    a.label("work");
    a.li(Reg::T1, 3);
    for _ in 0..4 {
        a.div(Reg::T2, Reg::S0, Reg::T1);
    }
    a.label("acquire");
    a.lw(Reg::T8, Reg::A0, 0);
    a.bnez(Reg::T8, "acquire");
    a.ll(Reg::T8, Reg::A0, 0);
    a.bnez(Reg::T8, "acquire");
    a.li(Reg::T9, 1);
    a.sc(Reg::T9, Reg::A0, 0);
    a.beqz(Reg::T9, "acquire");
    a.sync();
    a.lw(Reg::T0, Reg::A1, 0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sw(Reg::T0, Reg::A1, 0);
    a.sync();
    a.sw(Reg::ZERO, Reg::A0, 0);
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.halt();
    let prog = a.assemble().expect("assembles");
    let mut phys = PhysMem::new(4);
    phys.load_words(prog.base, &prog.words);
    // Shared memory: the lock and counter lines bounce between the L1s,
    // so every CPU spends long quiet stretches waiting on misses.
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
    let mut cpus: Vec<MxsCpu> = (0..4)
        .map(|c| MxsCpu::new(c, prog.base, AddrSpace::identity()))
        .collect();
    let mut ready = [Cycle(0); 4];
    let mut steps = 0u64;
    let mut at_resets = Vec::new();
    while let Some(c) = (0..4)
        .filter(|&c| !cpus[c].halted())
        .min_by_key(|&c| ready[c])
    {
        assert!(steps < 40_000_000, "the lock loop must finish");
        steps += 1;
        let now = ready[c];
        let (next, ev) = cpus[c].step(now, &mut mem, &mut phys);
        ready[c] = if every_cycle { now + 1 } else { next };
        if ev == StepEvent::Hcall(HcallNo::ResetStats) {
            for (i, cpu) in cpus.iter_mut().enumerate() {
                if i < c {
                    cpu.settle(now);
                } else if i > c {
                    cpu.settle(Cycle(now.0 - 1));
                }
            }
            at_resets.push(cpus.iter().map(|c| c.counters().clone()).collect());
            cpus.iter_mut().for_each(|c| c.counters_mut().reset());
        }
    }
    let stats = format!("{:?} | {ready:?}", mem.stats());
    (cpus, phys, at_resets, stats, steps)
}

#[test]
fn idle_skipping_with_mid_run_resets_matches_stepping_every_cycle() {
    let (stepped, stepped_mem, stepped_resets, stepped_stats, every) = run_lock_with_resets(true);
    let (skipped, skipped_mem, skipped_resets, skipped_stats, fewer) = run_lock_with_resets(false);
    assert_eq!(stepped_resets.len(), 40, "every CPU resets ten times");
    for (k, (a, b)) in stepped_resets.iter().zip(&skipped_resets).enumerate() {
        assert_eq!(a, b, "counters differ at reset {k}");
    }
    assert_eq!(
        stepped_mem.read_u32(DATA + 0x40),
        160,
        "4 CPUs x 40 increments"
    );
    assert_eq!(
        skipped_mem.read_u32(DATA + 0x40),
        160,
        "4 CPUs x 40 increments"
    );
    for (a, b) in stepped.iter().zip(&skipped) {
        assert_eq!(a.counters(), b.counters(), "counters differ");
        assert_eq!(a.arch(), b.arch(), "architectural state differs");
    }
    assert_eq!(
        stepped_stats, skipped_stats,
        "memory statistics or halt cycles differ"
    );
    assert!(
        fewer < every,
        "quiet cycles must be skipped ({fewer} vs {every} steps)"
    );
}

#[test]
fn mxs_matches_mipsy_on_byte_granularity_stores() {
    // Sb/Lb interplay with the store queue's exact-match-only forwarding.
    let build = || {
        let mut a = Asm::new(CODE);
        a.la_abs(Reg::A0, DATA);
        a.li(Reg::T0, 0x11223344);
        a.sw(Reg::T0, Reg::A0, 0);
        a.li(Reg::T1, 0xaa);
        a.sb(Reg::T1, Reg::A0, 2); // overwrite byte 2
        a.lw(Reg::T2, Reg::A0, 0); // partial overlap: waits for graduation
        a.lb(Reg::T3, Reg::A0, 2);
        a.la_abs(Reg::A1, DATA + 0x100);
        a.sw(Reg::T2, Reg::A1, 0);
        a.sw(Reg::T3, Reg::A1, 4);
        a.halt();
        a
    };
    let (_, phys_mxs, _) = run_single(&build());
    // Mipsy reference.
    let prog = build().assemble().expect("assembles");
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut cpu = MipsyCpu::new(0, prog.base, AddrSpace::identity());
    let mut now = Cycle(0);
    while !cpu.halted() {
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    assert_eq!(phys_mxs.read_u32(DATA + 0x100), phys.read_u32(DATA + 0x100));
    assert_eq!(phys_mxs.read_u32(DATA + 0x104), phys.read_u32(DATA + 0x104));
    assert_eq!(phys_mxs.read_u32(DATA + 0x100), 0x11aa_3344);
}

#[test]
fn branch_storm_with_alternating_outcomes() {
    // A branch that alternates taken/not-taken defeats 2-bit counters;
    // the core must still be correct and count the mispredicts.
    let mut a = Asm::new(CODE);
    a.li(Reg::S0, 200);
    a.li(Reg::T1, 0);
    a.label("loop");
    a.andi(Reg::T0, Reg::S0, 1);
    a.beqz(Reg::T0, "even");
    a.addi(Reg::T1, Reg::T1, 1);
    a.label("even");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.la_abs(Reg::A0, DATA);
    a.sw(Reg::T1, Reg::A0, 0);
    a.halt();
    let (cpu, phys, _) = run_single(&a);
    assert_eq!(phys.read_u32(DATA), 100, "exactly the odd iterations");
    assert!(
        cpu.counters().mispredicts > 20,
        "alternation must defeat the BTB ({} mispredicts)",
        cpu.counters().mispredicts
    );
}

#[test]
fn pipeline_depth_counters_behave() {
    // A hot loop of chained divides: once the I-cache warms, fetch runs far
    // ahead of the 12-cycle serial chain, the window fills (rob-full
    // dispatch stalls) and average occupancy approaches the 32 entries.
    let mut a = Asm::new(CODE);
    a.li(Reg::S0, 50); // iterations
    a.li(Reg::T1, 3);
    a.li(Reg::T0, i32::MAX as i64);
    a.label("loop");
    for _ in 0..8 {
        a.div(Reg::T0, Reg::T0, Reg::T1);
        a.addi(Reg::T0, Reg::T0, 1000);
    }
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.halt();
    let (cpu, _, _) = run_single(&a);
    let c = cpu.counters();
    assert!(c.dispatch_stall_rob > 0, "the chain must fill the window");
    assert!(
        c.avg_window_occupancy() > 8.0,
        "occupancy avg {:.1} too low for a serialized chain",
        c.avg_window_occupancy()
    );
    assert!(c.avg_window_occupancy() <= 32.0, "cannot exceed capacity");
}
