//! Golden-results lock for Figure 11: the nine paper-scale MXS runs
//! (eqntott, ear and multiprog on the three architectures, 4 CPUs, scale
//! 1.0), pinned by wall-cycle count and by a digest of every simulated
//! statistic.
//!
//! The digest is FNV-1a over the summary's per-CPU counters, merged
//! counters, memory statistics, port utilization and phase markers — the
//! digest matrix's `summary_fnv1a`. Any change to the MXS core that moves
//! a single counter of a single CPU shows up here. As with
//! `golden_figures.rs`, a deliberate results change re-derives the figure
//! and EXPERIMENTS.md before this table changes.

use cmpsim::core::machine::{run_workload, RunSummary};
use cmpsim::core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn summary_fnv1a(s: &RunSummary) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            s.per_cpu, s.total, s.mem, s.port_util, s.phases
        )
        .as_bytes(),
    )
}

#[test]
fn paper_scale_mxs_runs_match_figure_11() {
    let golden: [(&str, ArchKind, u64, u64); 9] = [
        ("eqntott", ArchKind::SharedL1, 293184, 0x10ea20fb4bd0ae28),
        ("eqntott", ArchKind::SharedL2, 259088, 0xc7cc2662281644a6),
        ("eqntott", ArchKind::SharedMem, 461086, 0x926e5773f211ca57),
        ("ear", ArchKind::SharedL1, 900746, 0x9a02ec96fcec3d42),
        ("ear", ArchKind::SharedL2, 650675, 0x75441959f12a0024),
        ("ear", ArchKind::SharedMem, 1466809, 0x9be5c575c7b5fdf4),
        ("multiprog", ArchKind::SharedL1, 474577, 0xb196003361f95837),
        ("multiprog", ArchKind::SharedL2, 407916, 0xe93d82747c91d003),
        ("multiprog", ArchKind::SharedMem, 397612, 0x85a05e3dd61d974b),
    ];
    let mut failures = Vec::new();
    for (workload, arch, want_wall, want_digest) in golden {
        let w = build_by_name(workload, 4, 1.0).expect("builds");
        let cfg = MachineConfig::new(arch, CpuKind::Mxs);
        let s = run_workload(&cfg, &w, 40_000_000_000).expect("validates");
        let digest = summary_fnv1a(&s);
        if (s.wall_cycles, digest) != (want_wall, want_digest) {
            failures.push(format!(
                "{workload} on {arch}: {} cycles, digest {digest:016x} \
                 (golden {want_wall}, {want_digest:016x})",
                s.wall_cycles
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "Figure 11 MXS results drifted:\n{}",
        failures.join("\n")
    );
}
