//! `cmpbench --workload <paper_suite|explore_replay|mesh64|all> --seed <n>
//! --seconds <s> --trace <0|1> [--scale <f>]`
//!
//! Runs one workload's reference job repeatedly for `--seconds`, checks
//! every output, and prints a report followed by one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--workload all` runs each workload in its own process.
//! `--scale` shrinks every workload (smoke tests; the published cycle
//! counts are checked only at 1.0).

use cmpbench::jobs::{explore_job, panic_text, run_job, run_specs, JobSample, Workload};
use cmpbench::layers::{traced_explore, traced_runs, LayerTotals};
use cmpbench::refclock::{pin_to_current_cpu, NOMINAL_SLICE_S};
use cmpbench::out::{
    git_rev, host_cpus, json_nums, json_str, median, result_line, scrub_cmpsim_env, MetricDef,
    END_TO_END,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Scratch space for result-cache files, inside the working directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{val}`: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--scale" => a.scale = val.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.scale > 0.0 && a.scale <= 1.0) {
        return Err(format!("--scale {} outside (0, 1]", a.scale));
    }
    Ok(a)
}

/// Runs every workload in a child process of its own, so peak memory
/// never carries over from one workload to the next.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cmpbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args = argv.to_vec();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = w.name().into();
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) => ok &= s.success(),
            Err(e) => {
                eprintln!("cmpbench: {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Raw per-job samples of one metric.
struct Series {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

fn series(
    name: &'static str,
    unit: &'static str,
    samples: &[JobSample],
    f: impl Fn(&JobSample) -> f64,
) -> Series {
    Series {
        name,
        unit,
        values: samples.iter().map(f).collect(),
    }
}

fn main() -> ExitCode {
    let cleared = scrub_cmpsim_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        // The children inherit the cleared environment; record it here.
        println!("hermetic: cleared CMPSIM_* [{}]", cleared.join(", "));
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "cmpbench: unknown workload `{}` (paper_suite, explore_replay, mesh64, all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let jobs = host_cpus();
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("cmpbench: {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // A single-threaded workload stays on one CPU with its reference
    // slices; the explore pool uses every CPU.
    let pinned = match workload {
        Workload::ExploreReplay => None,
        _ => pin_to_current_cpu(),
    };
    let cache = PathBuf::from(WORK_DIR).join(format!("explore-{}.jrnl", std::process::id()));
    let specs = run_specs(workload, args.scale);
    println!(
        "cmpbench: workload={} seed={} seconds={} trace={} scale={} host_cpus={jobs} git_rev={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        git_rev()
    );
    println!(
        "hermetic: cleared CMPSIM_* [{}]; pinned sentinel=off shards=1 explore_jobs={jobs} cpu={}",
        cleared.join(", "),
        pinned.map_or("any".into(), |c| c.to_string())
    );

    let one_job = |seed: u64| match workload {
        Workload::ExploreReplay => explore_job(seed, args.scale, jobs, &cache),
        _ => (run_job(&specs).0, None),
    };
    let start = Instant::now();
    let mut samples: Vec<JobSample> = Vec::new();
    let mut layers = LayerTotals::default();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let (job, outcome) = one_job(args.seed);
        attempted += job.attempted;
        failed += job.failed;
        errors.extend(job.errors.iter().cloned());
        layers.untraced_wall(job.wall_s);
        samples.push(job);
        if args.trace && errors.is_empty() {
            let pass = catch_unwind(AssertUnwindSafe(|| match (&outcome, workload) {
                (Some(o), Workload::ExploreReplay) => {
                    traced_explore(o, args.scale, jobs, &cache, &mut layers)
                }
                (None, Workload::ExploreReplay) => Err("no search to trace".into()),
                _ => traced_runs(&specs, &mut layers),
            }))
            .unwrap_or_else(|p| Err(format!("traced pass panicked: {}", panic_text(p))));
            let ops = samples[0].attempted;
            attempted += ops;
            if let Err(e) = pass {
                failed += ops;
                errors.push(format!("traced run: {e}"));
            }
        }
        // Stop before a pass that would overrun `--seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        let pass_s = elapsed / samples.len() as f64;
        if !errors.is_empty() || elapsed + pass_s > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_dir(WORK_DIR);

    let digest = samples[0].digest;
    if samples.iter().any(|s| s.digest != digest) {
        errors.push("simulated statistics differ between jobs of one run".into());
    }
    let (matched, total) = samples[0].golden;
    let mips = |(instr, secs): (u64, f64)| instr as f64 / 1e6 / secs;
    // Host timings are rescaled to the reference's nominal speed: a job
    // whose reference slices ran `slow` times the nominal time counts its
    // seconds `slow` times shorter (see `cmpbench::refclock`).
    let slow = |s: &JobSample| s.ref_slice_s / NOMINAL_SLICE_S;
    let mut report = vec![
        series("wall_s", "s", &samples, |s| s.wall_s / slow(s)),
        series("setup_s", "s", &samples, |s| {
            s.setup_s / (s.setup_slice_s / NOMINAL_SLICE_S)
        }),
        series("sim_mips", "Minstr/s", &samples, |s| {
            mips((s.instructions, s.sim_s)) * slow(s)
        }),
        // The first job's peak is what a fresh process sees; repeated
        // searches in one process keep growing the allocator's per-thread
        // arenas (73 MB for the first explore job, ~105 MB by the third).
        series("peak_rss_mb", "MB", &samples[..1], |s| s.peak_rss_mb),
    ];
    match workload {
        Workload::PaperSuite => {
            report.push(series("mipsy_mips", "Minstr/s", &samples, |s| {
                mips(s.mipsy) * slow(s)
            }));
            report.push(series("mxs_mips", "Minstr/s", &samples, |s| {
                mips(s.mxs) * slow(s)
            }));
        }
        Workload::ExploreReplay => {
            report.push(series("points_per_s", "1/s", &samples, |s| {
                s.ops_per_s() * slow(s)
            }));
        }
        Workload::Mesh64 => {}
    }
    report.push(series("raw_wall_s", "s", &samples, |s| s.wall_s));
    report.push(series("raw_setup_s", "s", &samples, |s| s.setup_s));
    report.push(series("raw_sim_mips", "Minstr/s", &samples, |s| {
        mips((s.instructions, s.sim_s))
    }));
    report.push(series("host_speed", "x", &samples, |s| 1.0 / slow(s)));
    let fail_frac = failed as f64 / attempted.max(1) as f64;

    println!(
        "golden: {matched}/{total} published Mipsy cycle counts matched{}",
        if total == 0 {
            " (none apply to this workload or scale)"
        } else {
            ""
        }
    );
    println!("sim_digest: {digest:016x}");
    for e in &errors {
        println!("FAIL: {e}");
    }
    for s in &report {
        println!(
            "metric {} = {} {} (median of {})",
            s.name,
            median(&s.values),
            s.unit,
            s.values.len()
        );
    }
    println!("metric fail_frac = {fail_frac} ({failed}/{attempted})");
    let samples_json: Vec<String> = report
        .iter()
        .map(|s| format!("{}: {}", json_str(s.name), json_nums(&s.values)))
        .collect();
    let cleared_json: Vec<String> = cleared.iter().map(|c| json_str(c)).collect();
    println!(
        "record: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \"host_cpus\": {jobs}, \"git_rev\": {}, \"cleared_env\": [{}], \"sim_digest\": \"{digest:016x}\", \"golden_matched\": {matched}, \"golden_total\": {total}, \"fail_frac\": {fail_frac}, \"samples\": {{{}}}}}",
        json_str(workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        json_str(&git_rev()),
        cleared_json.join(", "),
        samples_json.join(", ")
    );

    let metrics: Vec<(MetricDef, f64)> = if args.trace {
        let m = layers.metrics();
        for (d, v) in &m {
            println!("layer {} = {v} {}", d.name, d.unit);
        }
        m
    } else {
        END_TO_END
            .iter()
            .map(|&d| {
                let s = report.iter().find(|s| s.name == d.name).expect("reported");
                (d, median(&s.values))
            })
            .collect()
    };
    let correct = errors.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
