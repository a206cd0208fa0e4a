//! Extension study: mesh/NoC scaling from 4 to 64 CPUs.
//!
//! The paper's crossbar shared-L2 machine stops at a handful of ports;
//! the mesh extension (PR 9) distributes the L2 across per-tile slices
//! behind XY-routed links, trading uniform 14-cycle access for
//! hop-proportional latency that *scales*. This study runs the three
//! generalized workloads (eqntott, fft, ocean) at 4, 16 and 64 CPUs on
//! both interconnects and emits one JSON record per point for
//! `BENCH_*.json`, reproducing the qualitative many-core result (cf.
//! MemPool): total throughput keeps growing out to 64 CPUs on the mesh
//! even though worst-case hop latency grows with the grid edge, and the
//! physically-routable mesh stays within a small factor of the
//! *idealized* fixed-latency crossbar it replaces.
//!
//! Setting `CMPSIM_BENCH_QUICK` (to anything but `0`) shrinks the
//! workload scale so `scripts/verify.sh` can append a cheap record.

use cmpsim_bench::timing::{self, JsonVal};
use cmpsim_bench::{bench_header, n_jobs, shape_check, BUDGET};
use cmpsim_core::machine::run_workload;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig};
use cmpsim_kernels::build_by_name;

const CPU_COUNTS: [usize; 3] = [4, 16, 64];
const ARCHES: [ArchKind; 2] = [ArchKind::SharedL2, ArchKind::Mesh];
const WORKLOADS: [&str; 3] = ["eqntott", "fft", "ocean"];

fn scale() -> f64 {
    if timing::quick() {
        0.05
    } else {
        0.2
    }
}

fn main() {
    bench_header(
        "Extension",
        "mesh vs crossbar shared-L2 scaling, 4 -> 16 -> 64 CPUs (Mipsy)",
    );
    let scale = scale();
    let points: Vec<(&str, ArchKind, usize)> = WORKLOADS
        .into_iter()
        .flat_map(|w| {
            ARCHES
                .into_iter()
                .flat_map(move |a| CPU_COUNTS.map(|n| (w, a, n)))
        })
        .collect();
    // Every (workload, arch, n) machine is independent; fan out, then
    // rebuild the rows in point order.
    let results = cmpsim_engine::pool::map_jobs(n_jobs(), &points, |&(workload, arch, n)| {
        let w = build_by_name(workload, n, scale).expect("builds");
        let mut cfg = MachineConfig::new(arch, CpuKind::Mipsy);
        cfg.n_cpus = n;
        let mut wall = 0u64;
        let mut instr = 0u64;
        let m = timing::measure(0, 1, || {
            let s = run_workload(&cfg, &w, BUDGET).expect("validates");
            wall = s.wall_cycles;
            instr = s.total.instructions;
            s
        });
        (m, wall, instr)
    });
    let at = |w: &str, a: ArchKind, n: usize| {
        let i = points
            .iter()
            .position(|&(pw, pa, pn)| pw == w && pa == a && pn == n)
            .expect("point exists");
        &results[i]
    };

    let mut mesh_near_ideal_at_64 = 0usize;
    let mut mesh_scales = 0usize;
    for workload in WORKLOADS {
        println!("\n{workload}: wall cycles (total instructions / wall cycle)");
        println!(
            "{:<12} {:>20} {:>20} {:>20}",
            "architecture", "4 cpus", "16 cpus", "64 cpus"
        );
        for arch in ARCHES {
            let mut row = format!("{:<12}", arch.name());
            for n in CPU_COUNTS {
                let &(ref m, wall, instr) = at(workload, arch, n);
                let ipc = instr as f64 / wall as f64;
                row += &format!(" {:>12} ({:>5.2})", wall, ipc);
                let mut extra = vec![
                    ("workload", JsonVal::from(workload)),
                    ("arch", arch.name().into()),
                    ("n_cpus", (n as u64).into()),
                    ("scale", scale.into()),
                    ("wall_cycles", wall.into()),
                    ("instructions", instr.into()),
                    ("sim_total_ipc", JsonVal::F64(ipc)),
                ];
                if arch == ArchKind::Mesh {
                    // How far the routable mesh sits from the idealized
                    // fixed-latency crossbar at the same point.
                    let &(_, xbar_wall, _) = at(workload, ArchKind::SharedL2, n);
                    extra.push(("xbar_ratio", JsonVal::F64(wall as f64 / xbar_wall as f64)));
                }
                timing::emit_record(
                    "mesh_scaling",
                    &format!("{workload}/{}/cpus{n}", arch.name()),
                    m,
                    &extra,
                );
            }
            println!("{row}");
        }
        // Total throughput (instructions per cycle across the machine)
        // must keep growing 4 -> 64 on the mesh even though the worst-case
        // hop count grows with the grid edge...
        let ipc_of = |a, n| {
            let &(_, wall, instr) = at(workload, a, n);
            instr as f64 / wall as f64
        };
        if ipc_of(ArchKind::Mesh, 64) > ipc_of(ArchKind::Mesh, 4) {
            mesh_scales += 1;
        }
        // ...and the physically-routable grid must stay within 25% of the
        // idealized constant-latency crossbar it replaces (which could not
        // actually be built with 64 ports).
        let wall_of = |a, n| at(workload, a, n).1 as f64;
        if wall_of(ArchKind::Mesh, 64) <= 1.25 * wall_of(ArchKind::SharedL2, 64) {
            mesh_near_ideal_at_64 += 1;
        }
    }
    println!("\nShape checks:");
    shape_check(
        "mesh total throughput keeps growing 4 -> 64 on every workload",
        mesh_scales == WORKLOADS.len(),
    );
    shape_check(
        "at 64 CPUs the mesh stays within 25% of the idealized crossbar",
        mesh_near_ideal_at_64 == WORKLOADS.len(),
    );
}
