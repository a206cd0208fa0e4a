//! Simulator-speed regression bench: simulated work per host second,
//! measured with the in-repo timing harness (`cmpsim_bench::timing`) and
//! emitted as JSON lines for `BENCH_*.json`. Not a paper figure — a
//! regression guard for the simulator itself.
//!
//! Records:
//! * one per CPU model (simulated instructions per host second on a real
//!   workload), with and without the decoded-instruction cache
//!   (`CMPSIM_NO_DECODE_CACHE`), so the memoization win is tracked;
//! * one per CPU model with the coherence sentinel pinned on and off, so
//!   the invariant checker's overhead is tracked next to the baselines;
//! * one per memory system (accesses per host second on a synthetic
//!   scatter stream);
//! * the trace subsystem: capture throughput and compression (bytes per
//!   reference), then the L2 datapath-width sweep driven execution-style
//!   versus trace-replay-style, with the replay-vs-execution speedup;
//! * the full summary matrix run serially and with the job pool
//!   (`CMPSIM_BENCH_JOBS`), so harness-level parallel speedup is tracked;
//! * the same case subset through the plain pool and the supervised
//!   execution layer, so supervision overhead (~1.0x expected) is
//!   pinned in `BENCH_*.json`.
//!
//! Setting `CMPSIM_BENCH_QUICK` (to anything but `0`) drops warmup and
//! repeat counts so `scripts/verify.sh` can append a cheap record.

use cmpsim_bench::matrix::{default_matrix, matrix_json_lines, matrix_json_lines_supervised};
use cmpsim_bench::n_jobs;
use cmpsim_bench::timing::{self, JsonVal};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{capture_run, ArchKind, CpuKind, MachineConfig};
use cmpsim_engine::supervise::SuperviseSpec;
use cmpsim_engine::Cycle;
use cmpsim_kernels::build_by_name;
use cmpsim_mem::{
    MemRequest, MemorySystem, SentinelSpec, SharedL1System, SharedL2System, SharedMemSystem,
    SystemConfig,
};

/// Repeat counts: (warmup, runs, mem accesses, matrix scale).
fn knobs() -> (u32, u32, u32, f64) {
    if timing::quick() {
        (0, 1, 200_000, 0.02)
    } else {
        (1, 5, 1_000_000, 0.05)
    }
}

/// Times one CPU model running eqntott small and reports simulated
/// instructions per host second. `decode_cache` toggles the decoded-
/// instruction memo via its environment knob (the bench main is
/// single-threaded, so mutating the environment between runs is safe).
fn cpu_model_throughput(label: &str, arch: ArchKind, cpu: CpuKind, decode_cache: bool) {
    let (warmup, runs, _, _) = knobs();
    if decode_cache {
        std::env::remove_var("CMPSIM_NO_DECODE_CACHE");
    } else {
        std::env::set_var("CMPSIM_NO_DECODE_CACHE", "1");
    }
    let mut sim_instructions = 0u64;
    let m = timing::measure(warmup, runs, || {
        let w = build_by_name("eqntott", 4, 0.05).expect("builds");
        let cfg = MachineConfig::new(arch, cpu);
        let summary = run_workload(&cfg, &w, 100_000_000).expect("runs");
        sim_instructions = summary.total.instructions;
        summary
    });
    std::env::remove_var("CMPSIM_NO_DECODE_CACHE");
    let cache_tag = if decode_cache { "" } else { "/nocache" };
    timing::emit_record(
        "sim_throughput",
        &format!("cpu/{label}/eqntott{cache_tag}"),
        &m,
        &[
            ("sim_instructions", sim_instructions.into()),
            (
                "sim_instr_per_host_sec",
                JsonVal::F64(m.per_sec(sim_instructions)),
            ),
        ],
    );
}

/// Times one CPU model with the coherence sentinel pinned on or off, so
/// `BENCH_*.json` records the invariant checker's overhead next to the
/// plain throughput baselines. Pinned through `MachineConfig::sentinel`
/// rather than the environment so both modes run identically configured.
fn sentinel_throughput(label: &str, arch: ArchKind, cpu: CpuKind, sentinel: bool) {
    let (warmup, runs, _, _) = knobs();
    let mut sim_instructions = 0u64;
    let m = timing::measure(warmup, runs, || {
        let w = build_by_name("eqntott", 4, 0.05).expect("builds");
        let mut cfg = MachineConfig::new(arch, cpu);
        cfg.sentinel = Some(if sentinel {
            SentinelSpec::on()
        } else {
            SentinelSpec::off()
        });
        let summary = run_workload(&cfg, &w, 100_000_000).expect("runs");
        assert!(summary.violations.is_empty(), "clean runs stay clean");
        sim_instructions = summary.total.instructions;
        summary
    });
    let tag = if sentinel {
        "sentinel-on"
    } else {
        "sentinel-off"
    };
    timing::emit_record(
        "sim_throughput",
        &format!("cpu/{label}/eqntott/{tag}"),
        &m,
        &[
            ("sim_instructions", sim_instructions.into()),
            (
                "sim_instr_per_host_sec",
                JsonVal::F64(m.per_sec(sim_instructions)),
            ),
        ],
    );
}

/// Times eqntott on a non-default machine geometry (8 CPUs, alternate
/// cluster shapes) so `BENCH_*.json` tracks the generic-geometry paths the
/// hierarchy core enables, in quick and full mode alike.
fn geometry_throughput(
    label: &str,
    arch: ArchKind,
    n_cpus: usize,
    cpus_per_cluster: Option<usize>,
) {
    let (warmup, runs, _, scale) = knobs();
    let mut sim_instructions = 0u64;
    let m = timing::measure(warmup, runs, || {
        let w = build_by_name("eqntott", n_cpus, scale).expect("builds");
        let mut cfg = MachineConfig::new(arch, CpuKind::Mipsy);
        cfg.n_cpus = n_cpus;
        cfg.cpus_per_cluster = cpus_per_cluster;
        let summary = run_workload(&cfg, &w, 100_000_000).expect("runs");
        sim_instructions = summary.total.instructions;
        summary
    });
    timing::emit_record(
        "sim_throughput",
        &format!("geometry/{label}/eqntott"),
        &m,
        &[
            ("n_cpus", (n_cpus as u64).into()),
            ("sim_instructions", sim_instructions.into()),
            (
                "sim_instr_per_host_sec",
                JsonVal::F64(m.per_sec(sim_instructions)),
            ),
        ],
    );
}

/// Times a synthetic 4-CPU scatter stream against one memory system and
/// reports accesses per host second.
fn memsys_throughput(label: &str, mut make: impl FnMut() -> Box<dyn MemorySystem>) {
    let (warmup, runs, accesses, _) = knobs();
    let m = timing::measure(warmup, runs, || {
        let mut sys = make();
        for i in 0..accesses {
            let addr = (i.wrapping_mul(2_654_435_761)) & 0x3f_ffff;
            sys.access(
                Cycle(u64::from(i)),
                MemRequest::load((i & 3) as usize, addr),
            );
        }
        sys.stats().l1d.accesses
    });
    timing::emit_record(
        "sim_throughput",
        &format!("mem/{label}"),
        &m,
        &[
            ("accesses", u64::from(accesses).into()),
            (
                "accesses_per_host_sec",
                JsonVal::F64(m.per_sec(u64::from(accesses))),
            ),
        ],
    );
}

/// The trace-subsystem records: captures eqntott/Mipsy once (timing the
/// capture and recording the codec's compression in bytes per reference)
/// and times one decode of the captured stream, then runs the paper's L2
/// datapath-width ablation — the power-of-two family from the 128-bit
/// study width down to an 8-bit path, i.e. bank occupancies 4 (the
/// 64-bit paper default), 8, 16, and 32 cycles per line at the default
/// shared-L2 geometry — twice: execution-driven (a full machine per
/// configuration, exactly like the ablation benches) and trace-driven (a
/// fresh concretely-typed memory system per configuration fed the
/// decoded stream). Reports references per host second for both and the
/// replay-vs-execution speedup. Both modes are normalized by the
/// captured stream's reference count; execution-driven counts drift a
/// little across configurations (slower configurations spin longer on
/// locks), but the work per configuration is the same stream to first
/// order.
///
/// Each side's record times the simulation only, with its input prepared
/// outside the clock: the execution sweep gets the workload pre-built
/// (`build_by_name` is not timed, matching the ablation benches) and the
/// replay sweep gets the trace pre-decoded — decode cost has its own
/// record, next to capture. Both sweeps are timed point by point and the
/// per-point statistics summed, so the two records carry whole-sweep
/// totals. The recorded `replay_vs_exec_ratio` compares the summed
/// per-point minima rather than medians: short per-point timings let
/// the minima dodge the noise bursts of a time-shared host that any
/// whole-sweep timing would integrate, and both paths get identical
/// treatment point for point.
///
/// Uses its own repeat/scale knobs: quick mode still needs a trace big
/// enough that per-configuration build costs don't swamp the
/// per-reference signal, and the sweep loops are cheap enough to afford
/// a best-of-7 even there.
fn replay_sweep_throughput() {
    let (warmup, runs, scale) = if timing::quick() {
        (1, 7, 0.1)
    } else {
        (1, 9, 0.3)
    };
    let base = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
    let sweep: Vec<MachineConfig> = [4u64, 8, 16, 32]
        .iter()
        .map(|&occ| {
            let mut cfg = base;
            cfg.l2_occupancy = Some(occ);
            cfg
        })
        .collect();
    let w = build_by_name("eqntott", 4, scale).expect("builds");

    let mut bytes = Vec::new();
    let mut refs = 0u64;
    let m_cap = timing::measure(warmup, runs, || {
        let (s, b) = capture_run(&base, &w, 100_000_000).expect("captures");
        refs = cmpsim_trace::count_accesses(&b).expect("counts");
        bytes = b;
        s
    });
    timing::emit_record(
        "sim_throughput",
        "replay/capture/eqntott",
        &m_cap,
        &[
            ("refs", refs.into()),
            ("trace_bytes", (bytes.len() as u64).into()),
            (
                "bytes_per_ref",
                JsonVal::F64(bytes.len() as f64 / refs.max(1) as f64),
            ),
            ("refs_per_host_sec", JsonVal::F64(m_cap.per_sec(refs))),
        ],
    );

    let m_dec = timing::measure(warmup, runs, || {
        cmpsim_trace::decode(&bytes).expect("decodes").len()
    });
    timing::emit_record(
        "sim_throughput",
        "replay/decode/eqntott",
        &m_dec,
        &[
            ("refs", refs.into()),
            ("refs_per_host_sec", JsonVal::F64(m_dec.per_sec(refs))),
        ],
    );

    let sweep_refs = refs * sweep.len() as u64;
    // Each sweep point is measured on its own, execution-driven then
    // trace-driven, and the per-point statistics are summed into the
    // sweep totals. Short per-point timings let the minima dodge host
    // noise bursts that a single whole-sweep timing would integrate, and
    // both sides get identical treatment point for point.
    let mut m_exec = timing::Measured::zero(warmup, runs);
    let mut m_replay = timing::Measured::zero(warmup, runs);
    let records = cmpsim_trace::decode(&bytes).expect("decodes");
    for cfg in &sweep {
        let e = timing::measure(warmup, runs, || {
            run_workload(cfg, &w, 100_000_000)
                .expect("runs")
                .wall_cycles
        });
        m_exec.add(&e);
        let r = timing::measure(warmup, runs, || {
            let mut sys = SharedL2System::new(&cfg.system_config());
            cmpsim_trace::replay_records(&records, &mut sys).accesses
        });
        m_replay.add(&r);
    }
    timing::emit_record(
        "sim_throughput",
        "replay/sweep_exec/eqntott",
        &m_exec,
        &[
            ("configs", (sweep.len() as u64).into()),
            ("refs", sweep_refs.into()),
            (
                "refs_per_host_sec",
                JsonVal::F64(m_exec.per_sec(sweep_refs)),
            ),
        ],
    );
    let ratio = m_exec.min_ns as f64 / (m_replay.min_ns as f64).max(f64::MIN_POSITIVE);
    timing::emit_record(
        "sim_throughput",
        "replay/sweep_replay/eqntott",
        &m_replay,
        &[
            ("configs", (sweep.len() as u64).into()),
            ("refs", sweep_refs.into()),
            (
                "refs_per_host_sec",
                JsonVal::F64(m_replay.per_sec(sweep_refs)),
            ),
            ("replay_vs_exec_ratio", JsonVal::F64(ratio)),
        ],
    );
}

/// Times the full arch x workload x cpu summary matrix with a given job
/// count — `jobs = 1` is the serial baseline, `n_jobs()` the pooled
/// run — so `BENCH_*.json` tracks the harness-level speedup.
fn matrix_throughput(jobs: usize) {
    let (warmup, runs, _, scale) = knobs();
    // One warmup at most: each run is 56 whole-machine simulations.
    let warmup = warmup.min(1);
    let mut cases = 0u64;
    let m = timing::measure(warmup, runs, || {
        let lines = matrix_json_lines(&default_matrix(scale), jobs);
        cases = lines.len() as u64;
        lines
    });
    timing::emit_record(
        "sim_throughput",
        &format!("matrix/jobs{jobs}"),
        &m,
        &[
            ("jobs", (jobs as u64).into()),
            ("cases", cases.into()),
            ("cases_per_host_sec", JsonVal::F64(m.per_sec(cases))),
        ],
    );
}

/// Times the same case subset through the plain pool and through the
/// supervised execution layer (panic isolation + retry bookkeeping, no
/// journal), so `BENCH_*.json` pins supervision's overhead — it wraps
/// every job in `catch_unwind` and an outcome merge, and the expectation
/// is ~1.0x on real simulation work.
fn supervision_throughput(jobs: usize) {
    let (warmup, runs, _, scale) = knobs();
    let warmup = warmup.min(1);
    let cases: Vec<_> = default_matrix(scale)
        .into_iter()
        .filter(|c| c.cpu == CpuKind::Mipsy && c.workload == "eqntott")
        .collect();
    let n = cases.len() as u64;
    let m_off = timing::measure(warmup, runs, || matrix_json_lines(&cases, jobs));
    let spec = SuperviseSpec::new().with_retries(2);
    let m_on = timing::measure(warmup, runs, || {
        let out = matrix_json_lines_supervised(&cases, jobs, &spec, None);
        assert!(out.quarantined.is_empty(), "clean cases stay clean");
        out.lines
    });
    let ratio = m_on.min_ns as f64 / (m_off.min_ns as f64).max(f64::MIN_POSITIVE);
    timing::emit_record(
        "sim_throughput",
        &format!("supervise/off/jobs{jobs}"),
        &m_off,
        &[
            ("cases", n.into()),
            ("cases_per_host_sec", JsonVal::F64(m_off.per_sec(n))),
        ],
    );
    timing::emit_record(
        "sim_throughput",
        &format!("supervise/on/jobs{jobs}"),
        &m_on,
        &[
            ("cases", n.into()),
            ("cases_per_host_sec", JsonVal::F64(m_on.per_sec(n))),
            ("supervise_vs_plain_ratio", JsonVal::F64(ratio)),
        ],
    );
}

fn main() {
    // The trace sweep goes first: its replay timings stream a decoded
    // record array through the host cache, and measuring before the
    // other phases grow and fragment the heap keeps those timings clean.
    replay_sweep_throughput();

    for decode_cache in [true, false] {
        cpu_model_throughput("mipsy", ArchKind::SharedMem, CpuKind::Mipsy, decode_cache);
        cpu_model_throughput("mxs", ArchKind::SharedL1, CpuKind::Mxs, decode_cache);
    }

    for sentinel in [false, true] {
        sentinel_throughput("mipsy", ArchKind::SharedMem, CpuKind::Mipsy, sentinel);
        sentinel_throughput("mxs", ArchKind::SharedL1, CpuKind::Mxs, sentinel);
    }

    memsys_throughput("shared_mem", || {
        Box::new(SharedMemSystem::new(&SystemConfig::paper_shared_mem(4)))
    });
    memsys_throughput("shared_l2", || {
        Box::new(SharedL2System::new(&SystemConfig::paper_shared_l2(4)))
    });
    memsys_throughput("shared_l1", || {
        Box::new(SharedL1System::new(&SystemConfig::paper_shared_l1(4)))
    });

    geometry_throughput("shared_l2_8cpu", ArchKind::SharedL2, 8, None);
    geometry_throughput("clustered_4x2", ArchKind::Clustered, 8, Some(2));
    geometry_throughput("clustered_2x4", ArchKind::Clustered, 8, Some(4));

    matrix_throughput(1);
    let pooled = n_jobs();
    if pooled > 1 {
        matrix_throughput(pooled);
    }

    supervision_throughput(pooled.max(1));
}
