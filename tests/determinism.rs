//! The simulator is exactly deterministic: same workload, same
//! configuration, same cycle counts and statistics — across repeated runs.

use cmpsim::core::machine::{run_workload, RunSummary};
use cmpsim::core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;

fn run_once(workload: &str, arch: ArchKind, cpu: CpuKind) -> RunSummary {
    let w = build_by_name(workload, 4, 0.06).expect("builds");
    let cfg = MachineConfig::new(arch, cpu);
    run_workload(&cfg, &w, 2_000_000_000).expect("validates")
}

/// Every simulated number of a run: wall cycles, every counter of every
/// CPU, memory statistics, port utilization, phases and violations.
fn everything(s: &RunSummary) -> String {
    format!("{s:?}")
}

#[test]
fn mipsy_runs_are_bit_identical() {
    for arch in ArchKind::ALL {
        let a = run_once("volpack", arch, CpuKind::Mipsy);
        let b = run_once("volpack", arch, CpuKind::Mipsy);
        assert_eq!(
            everything(&a),
            everything(&b),
            "{arch} must be deterministic"
        );
    }
}

#[test]
fn mxs_runs_are_bit_identical() {
    // The full summary, not a few headline numbers: MXS adds the counters
    // of the cycles it skips lazily, and only a whole-summary comparison
    // catches a cycle settled twice or not at all.
    for arch in ArchKind::ALL {
        let a = run_once("eqntott", arch, CpuKind::Mxs);
        let b = run_once("eqntott", arch, CpuKind::Mxs);
        assert_eq!(
            everything(&a),
            everything(&b),
            "{arch} must be deterministic under MXS"
        );
    }
}

#[test]
fn architectures_actually_differ() {
    // A meta-check: the three architectures must not accidentally share a
    // code path that makes them identical.
    let l1 = run_once("ear", ArchKind::SharedL1, CpuKind::Mipsy);
    let l2 = run_once("ear", ArchKind::SharedL2, CpuKind::Mipsy);
    let sm = run_once("ear", ArchKind::SharedMem, CpuKind::Mipsy);
    assert_ne!(l1.wall_cycles, l2.wall_cycles);
    assert_ne!(l2.wall_cycles, sm.wall_cycles);
}

#[test]
fn workload_builds_are_reproducible() {
    let a = build_by_name("multiprog", 4, 0.1).expect("builds");
    let b = build_by_name("multiprog", 4, 0.1).expect("builds");
    assert_eq!(a.image.len(), b.image.len());
    for ((ba, wa), (bb, wb)) in a.image.iter().zip(&b.image) {
        assert_eq!(ba, bb);
        assert_eq!(wa, wb, "generated code must be identical");
    }
}
