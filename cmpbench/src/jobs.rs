//! The reference jobs and their correctness checks.
//!
//! A *job* is one pass over a workload's operations. An operation is one
//! simulation run (`paper_suite`, `mesh64`) or one design point
//! (`explore_replay`); it fails if it errors, panics, fails its kernel's
//! own validation (`RunError::CheckFailed`), is quarantined, or misses the
//! benchmark's correctness check.

use crate::out::{peak_rss_mb, reset_peak_rss};
use crate::refclock::RefClock;
use cmpsim_bench::matrix::fnv1a;
use cmpsim_core::{ArchKind, CpuKind, Machine, MachineConfig, RunError, RunSummary};
use cmpsim_explore::{run_search, DesignSpace, Driver, EvalMode, EvalSpec, SearchOutcome};
use cmpsim_kernels::build_by_name;
use cmpsim_mem::SentinelSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Cycle budget of every execution-driven run (the bench harness's).
pub const BUDGET: u64 = cmpsim_bench::BUDGET;

/// The 21 published paper-scale Mipsy wall-cycle counts — the table
/// `tests/golden_figures.rs` locks (Figs 4–10, scale 1.0, 4 CPUs).
pub const GOLDEN: [(&str, ArchKind, u64); 21] = [
    ("eqntott", ArchKind::SharedL1, 435433),
    ("eqntott", ArchKind::SharedL2, 499727),
    ("eqntott", ArchKind::SharedMem, 736084),
    ("mp3d", ArchKind::SharedL1, 857886),
    ("mp3d", ArchKind::SharedL2, 806188),
    ("mp3d", ArchKind::SharedMem, 840046),
    ("ocean", ArchKind::SharedL1, 1071986),
    ("ocean", ArchKind::SharedL2, 1169167),
    ("ocean", ArchKind::SharedMem, 1227812),
    ("volpack", ArchKind::SharedL1, 166100),
    ("volpack", ArchKind::SharedL2, 177474),
    ("volpack", ArchKind::SharedMem, 209829),
    ("ear", ArchKind::SharedL1, 839423),
    ("ear", ArchKind::SharedL2, 1141056),
    ("ear", ArchKind::SharedMem, 2082194),
    ("fft", ArchKind::SharedL1, 196837),
    ("fft", ArchKind::SharedL2, 225520),
    ("fft", ArchKind::SharedMem, 277962),
    ("multiprog", ArchKind::SharedL1, 533251),
    ("multiprog", ArchKind::SharedL2, 573474),
    ("multiprog", ArchKind::SharedMem, 566048),
];

/// The Fig 11 MXS workloads.
pub const FIG11: [&str; 3] = ["eqntott", "ear", "multiprog"];

/// The `--dim`s of the EXPERIMENTS.md 240-point Pareto study.
pub const EXPLORE_DIMS: [(&str, &str); 6] = [
    ("arch", "shared-l2,shared-mem,mesh"),
    ("cpus", "2,4,8"),
    ("l1-kb", "8,16,32"),
    ("l2-kb", "512,1024,2048,4096"),
    ("l2-assoc", "1,2"),
    ("l2-width", "64,128"),
];

/// Design points the explore study samples.
pub const EXPLORE_POINTS: usize = 240;

/// Cycle budget of the explore study (the `cmpsim explore` default).
pub const EXPLORE_BUDGET: u64 = 10_000_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs 4–11 at scale 1.0: 21 Mipsy runs, then 9 MXS runs, serial.
    PaperSuite,
    /// The 240-point explore study at scale 0.5 on the replay path.
    ExploreReplay,
    /// eqntott on a 64-CPU mesh at scale 0.2, Mipsy, serial.
    Mesh64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSuite,
        Workload::ExploreReplay,
        Workload::Mesh64,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::ExploreReplay => "explore_replay",
            Workload::Mesh64 => "mesh64",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One execution-driven run of a reference job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Kernel name for `build_by_name`.
    pub kernel: &'static str,
    /// Memory-system architecture.
    pub arch: ArchKind,
    /// CPU timing model.
    pub cpu: CpuKind,
    /// Simulated CPUs.
    pub n_cpus: usize,
    /// Workload scale.
    pub scale: f64,
    /// Published wall-cycle count this run must reproduce, if any.
    pub golden: Option<u64>,
}

impl RunSpec {
    /// The machine, with every environment-resolved knob pinned.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::new(self.arch, self.cpu);
        cfg.n_cpus = self.n_cpus;
        cfg.sentinel = Some(SentinelSpec::off());
        cfg.shards = Some(1);
        cfg
    }

    /// Short label for diagnostics.
    pub fn label(&self) -> String {
        let cpu = if self.cpu == CpuKind::Mipsy {
            "mipsy"
        } else {
            "mxs"
        };
        format!("{}/{}/{}", self.kernel, self.arch.name(), cpu)
    }
}

/// The runs of a run-based workload. `scale_factor` shrinks every scale
/// (smoke tests); the published cycle counts only apply at 1.0.
pub fn run_specs(w: Workload, scale_factor: f64) -> Vec<RunSpec> {
    let paper = scale_factor == 1.0;
    match w {
        Workload::PaperSuite => {
            let mipsy = GOLDEN.iter().map(|&(kernel, arch, cycles)| RunSpec {
                kernel,
                arch,
                cpu: CpuKind::Mipsy,
                n_cpus: 4,
                scale: scale_factor,
                golden: paper.then_some(cycles),
            });
            let mxs = FIG11.iter().flat_map(|&kernel| {
                ArchKind::ALL.into_iter().map(move |arch| RunSpec {
                    kernel,
                    arch,
                    cpu: CpuKind::Mxs,
                    n_cpus: 4,
                    scale: scale_factor,
                    golden: None,
                })
            });
            mipsy.chain(mxs).collect()
        }
        Workload::Mesh64 => vec![RunSpec {
            kernel: "eqntott",
            arch: ArchKind::Mesh,
            cpu: CpuKind::Mipsy,
            n_cpus: 64,
            scale: 0.2 * scale_factor,
            golden: None,
        }],
        Workload::ExploreReplay => Vec::new(),
    }
}

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a digest of every simulated statistic of a run — the same
/// fingerprint as the digest matrix's `summary_fnv1a`.
pub fn summary_digest(s: &RunSummary) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            s.per_cpu, s.total, s.mem, s.port_util, s.phases
        )
        .as_bytes(),
    )
}

/// What one run produced, with host time split at the layer boundaries.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run.
    pub spec: RunSpec,
    /// `build_by_name` seconds.
    pub build_s: f64,
    /// `Machine::try_new` seconds.
    pub machine_new_s: f64,
    /// `Machine::run` seconds.
    pub run_s: f64,
    /// Kernel self-validation seconds.
    pub check_s: f64,
    /// Graduated instructions (0 when the run failed).
    pub instructions: u64,
    /// `summary_digest` of the run (0 when it failed).
    pub digest: u64,
    /// The summary, kept for the traced run's self-checks.
    pub summary: Option<RunSummary>,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

/// The message of a caught panic.
pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Builds, runs and validates one run, timing each layer call.
pub fn run_one(spec: &RunSpec) -> RunRecord {
    let mut rec = RunRecord {
        spec: *spec,
        build_s: 0.0,
        machine_new_s: 0.0,
        run_s: 0.0,
        check_s: 0.0,
        instructions: 0,
        digest: 0,
        summary: None,
        error: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<RunSummary, String> {
        let t = Instant::now();
        let w = build_by_name(spec.kernel, spec.n_cpus, spec.scale)?;
        rec.build_s = secs(t);
        let t = Instant::now();
        let mut m = Machine::try_new(&spec.config(), &w).map_err(|e| e.to_string())?;
        rec.machine_new_s = secs(t);
        let t = Instant::now();
        let s = m.run(BUDGET).map_err(|e| e.to_string())?;
        rec.run_s = secs(t);
        let t = Instant::now();
        (w.check)(m.phys()).map_err(|e| RunError::CheckFailed(e).to_string())?;
        rec.check_s = secs(t);
        Ok(s)
    }));
    match outcome {
        Ok(Ok(s)) => {
            rec.error = spec
                .golden
                .filter(|&want| want != s.wall_cycles)
                .map(|want| {
                    format!(
                        "{}: {} cycles, published {want}",
                        spec.label(),
                        s.wall_cycles
                    )
                });
            rec.instructions = s.total.instructions;
            rec.digest = summary_digest(&s);
            rec.summary = Some(s);
        }
        Ok(Err(e)) => rec.error = Some(format!("{}: {e}", spec.label())),
        Err(p) => rec.error = Some(format!("{}: panicked: {}", spec.label(), panic_text(p))),
    }
    rec
}

/// One untraced pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// Host seconds of the whole job, reference slices excluded.
    pub wall_s: f64,
    /// Host seconds of set-up before the first simulated cycle.
    pub setup_s: f64,
    /// Simulated instructions (graduated, or replayed instruction fetches
    /// on `explore_replay`).
    pub instructions: u64,
    /// Host seconds of simulation the instructions took.
    pub sim_s: f64,
    /// Mean host seconds of the reference slices timed between the job's
    /// operations (see [`crate::refclock`]).
    pub ref_slice_s: f64,
    /// Mean host seconds of the reference slices timed around the set-up.
    pub setup_slice_s: f64,
    /// Peak resident memory of the job in MB.
    pub peak_rss_mb: f64,
    /// Mipsy instructions and `Machine::run` seconds.
    pub mipsy: (u64, f64),
    /// MXS instructions and `Machine::run` seconds.
    pub mxs: (u64, f64),
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Published cycle counts checked and matched.
    pub golden: (usize, usize),
    /// FNV-1a fold of every operation's simulated statistics.
    pub digest: u64,
    /// Failure diagnostics.
    pub errors: Vec<String>,
}

impl JobSample {
    /// Operations per host second.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }
}

/// Folds per-operation digests into one workload digest.
fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Runs every spec serially and summarizes the pass, with reference
/// slices around the set-up and after every run.
pub fn run_job(specs: &[RunSpec]) -> (JobSample, Vec<RunRecord>) {
    let mut clock = RefClock::default();
    let (setup, setup_slice_s) = timed_setup(specs, &mut clock);
    let mut peak_mb = 0.0f64;
    let mut ref_s = 0.0;
    let t = Instant::now();
    let records: Vec<RunRecord> = specs
        .iter()
        .map(|spec| {
            // Each run's peak starts from a trimmed heap: how much free
            // memory the allocator keeps across runs varies by process.
            reset_peak_rss();
            let r = run_one(spec);
            peak_mb = peak_mb.max(peak_rss_mb().unwrap_or(f64::NAN));
            ref_s += clock.follow(r.build_s + r.machine_new_s + r.run_s + r.check_s);
            r
        })
        .collect();
    let mut s = JobSample {
        wall_s: secs(t) - ref_s,
        ref_slice_s: clock.mean_slice_s(),
        setup_slice_s,
        attempted: records.len() as u64,
        ..JobSample::default()
    };
    match setup {
        Ok(v) => s.setup_s = v,
        Err(e) => s.errors.push(format!("set-up: {e}")),
    }
    for r in &records {
        s.instructions += r.instructions;
        s.sim_s += r.run_s;
        let model = if r.spec.cpu == CpuKind::Mipsy {
            &mut s.mipsy
        } else {
            &mut s.mxs
        };
        model.0 += r.instructions;
        model.1 += r.run_s;
        if r.spec.golden.is_some() {
            s.golden.1 += 1;
            if r.error.is_none() {
                s.golden.0 += 1;
            }
        }
        if let Some(e) = &r.error {
            s.failed += 1;
            s.errors.push(e.clone());
        }
    }
    s.digest = fold_digests(records.iter().map(|r| r.digest));
    s.peak_rss_mb = peak_mb;
    (s, records)
}

/// The explore study's design space.
pub fn explore_space() -> DesignSpace {
    let mut space = DesignSpace::paper();
    for (dim, levels) in EXPLORE_DIMS {
        space
            .set_dim(dim, levels)
            .expect("the study's dimensions are valid");
    }
    space
}

/// The explore study's evaluation contract at `jobs` workers.
pub fn explore_spec(scale_factor: f64, jobs: usize) -> EvalSpec {
    EvalSpec {
        workload: "eqntott".into(),
        scale: 0.5 * scale_factor,
        budget: EXPLORE_BUDGET,
        mode: EvalMode::Replay,
        jobs,
    }
}

/// The capture machines the study's CPU-side signatures need: the
/// canonical bus-based shared-memory machine at each CPU count, as
/// `cmpsim_explore::eval` builds them.
pub fn explore_capture_specs(scale_factor: f64) -> Vec<RunSpec> {
    explore_space()
        .n_cpus
        .iter()
        .map(|&n_cpus| RunSpec {
            kernel: "eqntott",
            arch: ArchKind::SharedMem,
            cpu: CpuKind::Mipsy,
            n_cpus,
            scale: 0.5 * scale_factor,
            golden: None,
        })
        .collect()
}

/// Standalone set-ups timed per job: at least this many, and more until
/// they add up to [`SETUP_MIN_S`]. The job reports their median, so a
/// sub-millisecond set-up still yields a steady figure.
pub const SETUP_REPS: usize = 11;

/// Host seconds of standalone set-ups a job times at least.
pub const SETUP_MIN_S: f64 = 0.05;

/// Median host seconds of standalone set-ups of `specs`: every workload
/// built and every machine constructed, then dropped.
pub fn setup_s(specs: &[RunSpec]) -> Result<f64, String> {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut total = 0.0;
    while reps.len() < SETUP_REPS || (total < SETUP_MIN_S && reps.len() < 1000) {
        let t = Instant::now();
        for spec in specs {
            let w = build_by_name(spec.kernel, spec.n_cpus, spec.scale)?;
            Machine::try_new(&spec.config(), &w).map_err(|e| e.to_string())?;
        }
        let rep = secs(t);
        reps.push(rep);
        total += rep;
    }
    Ok(crate::out::median(&reps))
}

/// [`setup_s`] of `specs` between two reference slices before it and
/// two after it, and the mean of those four slices.
pub fn timed_setup(specs: &[RunSpec], clock: &mut RefClock) -> (Result<f64, String>, f64) {
    let before = clock.tick() + clock.tick();
    let setup = setup_s(specs);
    let after = clock.tick() + clock.tick();
    (setup, (before + after) / 4.0)
}

/// One untraced explore pass and the search it ran (`None` if it failed).
pub fn explore_job(
    seed: u64,
    scale_factor: f64,
    jobs: usize,
    cache: &Path,
) -> (JobSample, Option<SearchOutcome>) {
    let mut s = JobSample {
        attempted: EXPLORE_POINTS as u64,
        ..JobSample::default()
    };
    // `run_search` builds its workloads and capture machines inside its
    // pool jobs, where no public hook reaches; the same builds are timed
    // standalone instead.
    // The search's pool keeps every CPU busy.
    let mut clock = RefClock::across_cpus();
    let (setup, setup_slice_s) = timed_setup(&explore_capture_specs(scale_factor), &mut clock);
    s.setup_slice_s = setup_slice_s;
    let _ = std::fs::remove_file(cache);
    reset_peak_rss();
    let t = Instant::now();
    let outcome = run_search(
        &explore_space(),
        explore_spec(scale_factor, jobs),
        Driver::Random {
            points: EXPLORE_POINTS,
        },
        seed,
        Some(cache),
    );
    s.wall_s = secs(t);
    s.sim_s = s.wall_s;
    s.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    clock.follow(s.wall_s);
    s.ref_slice_s = clock.mean_slice_s();
    let _ = std::fs::remove_file(cache);
    match (setup, outcome) {
        (Ok(setup_s), Ok(o)) => {
            s.setup_s = setup_s;
            s.instructions = o.points.iter().map(|(_, m)| m.instructions).sum();
            s.digest = fnv1a(format!("{:?}", o.points).as_bytes());
            let short = EXPLORE_POINTS.saturating_sub(o.points.len());
            s.failed = (short + o.quarantined).min(EXPLORE_POINTS) as u64;
            if o.points.len() != EXPLORE_POINTS || o.quarantined != 0 {
                s.failed = s.failed.max(1);
                s.errors.push(format!(
                    "explore: {} points and {} quarantined, want {EXPLORE_POINTS} and 0",
                    o.points.len(),
                    o.quarantined
                ));
            }
            (s, Some(o))
        }
        (setup, outcome) => {
            s.failed = s.attempted;
            s.errors.extend(setup.err());
            s.errors
                .extend(outcome.err().map(|e| format!("explore: {e}")));
            (s, None)
        }
    }
}
