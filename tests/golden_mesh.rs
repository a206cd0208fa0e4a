//! Golden-results lock for the many-CPU run loop: eqntott on the tile mesh
//! at 64 CPUs (one word of CPU bits per scheduler bucket) and at 80 CPUs
//! (two words), small scale, Mipsy.
//!
//! With 64 lock-stepped CPUs nearly every step ties with other CPUs on the
//! same cycle, so these runs pin the run loop's `(cycle, lowest index)`
//! order far harder than the 4-CPU paper machines do. Each run is pinned
//! by wall-cycle count and by the FNV-1a digest of every simulated
//! statistic (the digest matrix's `summary_fnv1a`).

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
fn mesh_eqntott_runs_match_their_golden_digests() {
    let golden: [(usize, f64, u64, u64); 2] = [
        (64, 0.05, 246666, 0xec94d65e765ea37e),
        (80, 0.05, 383017, 0x274da13b666143d4),
    ];
    let mut failures = Vec::new();
    for (n_cpus, scale, want_wall, want_digest) in golden {
        let w = build_by_name("eqntott", n_cpus, scale).expect("builds");
        let mut cfg = MachineConfig::new(ArchKind::Mesh, CpuKind::Mipsy);
        cfg.n_cpus = n_cpus;
        let s = run_workload(&cfg, &w, 40_000_000_000).expect("validates");
        let digest = summary_fnv1a(&s);
        if (s.wall_cycles, digest) != (want_wall, want_digest) {
            failures.push(format!(
                "eqntott on a {n_cpus}-CPU mesh: {} cycles, digest {digest:016x} \
                 (golden {want_wall}, {want_digest:016x})",
                s.wall_cycles
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "mesh results drifted:\n{}",
        failures.join("\n")
    );
}
