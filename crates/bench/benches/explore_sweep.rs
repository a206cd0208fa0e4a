//! Design-space exploration throughput: points/second through the
//! replay fast path vs. the execution path, and the cache-hit speedup
//! of a fully warmed rerun. Not a paper figure — the regression guard
//! for the `cmpsim-explore` evaluator (DESIGN.md §15).
//!
//! Records carry `points_per_host_sec` (the fitness-evaluation rate a
//! search driver sees) and the warm run carries `speedup_vs_cold` —
//! the acceptance bar is cold/warm >= 10 on any host, since a cached
//! point costs two FNV digests and a hash probe instead of a replay.
//! Result *identity* across job counts and cache states is the test
//! suite's and verify.sh's job; this bench only tracks host time.
//!
//! Setting `CMPSIM_BENCH_QUICK` (to anything but `0`) drops repeat
//! counts and scale so `scripts/verify.sh` can append cheap records.

use cmpsim_bench::timing::{self, JsonVal};
use cmpsim_explore::{run_search, DesignSpace, Driver, EvalMode, EvalSpec};

/// Repeat counts: (warmup, runs, workload scale).
fn knobs() -> (u32, u32, f64) {
    if timing::quick() {
        (0, 3, 0.05)
    } else {
        (1, 5, 0.2)
    }
}

fn space() -> DesignSpace {
    let mut s = DesignSpace::paper();
    s.set_dim("arch", "shared-l2,shared-mem,mesh")
        .expect("arch");
    s.set_dim("l2-kb", "512,1024,2048,4096").expect("l2-kb");
    s.set_dim("l2-assoc", "1,2").expect("l2-assoc");
    s.set_dim("l2-width", "64,128").expect("l2-width");
    s
}

fn spec(mode: EvalMode, scale: f64) -> EvalSpec {
    EvalSpec {
        workload: "eqntott".to_string(),
        scale,
        budget: 10_000_000_000,
        mode,
        jobs: cmpsim_bench::n_jobs(),
    }
}

fn main() {
    let (warmup, runs, scale) = knobs();
    let s = space();
    let driver = Driver::Exhaustive; // 48 valid points, one CPU-side group
    let n_points = s.enumerate().len() as u64;

    // Replay fast path, cold: one capture + 48 hierarchy replays per
    // sample (no cache, so every sample pays the full cost).
    let m_replay = timing::measure(warmup, runs, || {
        run_search(&s, spec(EvalMode::Replay, scale), driver, 1, None)
            .expect("replay search")
            .points
            .len()
    });
    timing::emit_record(
        "explore_sweep",
        "replay_cold",
        &m_replay,
        &[
            ("points", n_points.into()),
            ("jobs", (cmpsim_bench::n_jobs() as u64).into()),
            (
                "points_per_host_sec",
                JsonVal::F64(m_replay.per_sec(n_points)),
            ),
        ],
    );

    // Execution path over the same space: every point runs the full
    // machine — the rate a CPU-side sweep (rob, cpu model) pays.
    let m_exec = timing::measure(warmup, runs, || {
        run_search(&s, spec(EvalMode::Exec, scale), driver, 1, None)
            .expect("exec search")
            .points
            .len()
    });
    timing::emit_record(
        "explore_sweep",
        "exec_cold",
        &m_exec,
        &[
            ("points", n_points.into()),
            ("jobs", (cmpsim_bench::n_jobs() as u64).into()),
            (
                "points_per_host_sec",
                JsonVal::F64(m_exec.per_sec(n_points)),
            ),
            (
                "replay_speedup_vs_exec",
                JsonVal::F64(
                    m_exec.min_ns as f64 / (m_replay.min_ns as f64).max(f64::MIN_POSITIVE),
                ),
            ),
        ],
    );

    // Cache-hit rerun: populate once, then every sample is 100% hits.
    let path =
        std::env::temp_dir().join(format!("cmpsim-explore-bench-{}.jrnl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cold = run_search(&s, spec(EvalMode::Replay, scale), driver, 1, Some(&path))
        .expect("cold populate");
    assert_eq!(cold.points.len() as u64, n_points);
    let m_warm = timing::measure(warmup, runs, || {
        let o = run_search(&s, spec(EvalMode::Replay, scale), driver, 1, Some(&path))
            .expect("warm search");
        assert_eq!(o.cache_hits, o.points.len(), "fully cached");
        o.points.len()
    });
    let _ = std::fs::remove_file(&path);
    timing::emit_record(
        "explore_sweep",
        "replay_warm_cached",
        &m_warm,
        &[
            ("points", n_points.into()),
            (
                "points_per_host_sec",
                JsonVal::F64(m_warm.per_sec(n_points)),
            ),
            (
                "speedup_vs_cold",
                JsonVal::F64(
                    m_replay.min_ns as f64 / (m_warm.min_ns as f64).max(f64::MIN_POSITIVE),
                ),
            ),
        ],
    );
}
