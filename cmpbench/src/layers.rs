//! The traced run: host time attributed to the workspace's crates.
//!
//! Spans wrap calls into each crate's public functions from here, outside
//! the program; nothing inside the crates changes. Run-based workloads
//! time `build_by_name` (kernels), `Machine::try_new` (core) and
//! `Machine::run` (cpu + mem), then split the run between cpu and mem by
//! capturing the same run and replaying its trace (`replay_records`) into
//! a fresh copy of its memory system: mem time is the replay time, cpu
//! time is the rest. `explore_replay` re-drives `run_search`'s replay
//! pipeline stage by stage through the explore, engine, trace and core
//! public APIs, and checks that it reproduces the untraced search.

use crate::jobs::{
    explore_space, explore_spec, run_job, secs, summary_digest, RunRecord, RunSpec, BUDGET,
};
use crate::out::{MetricDef, PER_LAYER};
use cmpsim_core::{capture_run, ArchKind, CpuKind, Machine, RunError};
use cmpsim_engine::pool::map_jobs;
use cmpsim_engine::supervise::{map_jobs_supervised, SuperviseSpec};
use cmpsim_engine::Cycle;
use cmpsim_explore::{frontier, Point, PointMetrics, ResultCache, SearchOutcome};
use cmpsim_kernels::build_by_name;
use cmpsim_mem::{
    Addr, CpuId, MemRequest, MemResult, MemStats, MemorySystem, PortUtil, SentinelSpec,
};
use cmpsim_trace::{decode_chunk, replay_matrix, replay_records, scan_chunks, SharedBuf};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw per-layer totals accumulated over traced passes.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    build_s: f64,
    machine_new_s: f64,
    /// `[mipsy, mxs]`: run seconds, replay seconds, instructions.
    cpu: [(f64, f64, u64); 2],
    /// `[shared_l1, shared_l2, shared_mem, mesh]`: replay seconds, accesses.
    mem: [(f64, u64); 4],
    capture_s: f64,
    plain_s: f64,
    trace_bytes: u64,
    trace_records: u64,
    decode_s: f64,
    replay_s: f64,
    replay_refs: u64,
    pool_job_s: f64,
    pool_capacity_s: f64,
    put_s: f64,
    puts: u64,
    retries: u64,
    quarantined: u64,
    points: u64,
    captures: u64,
    replayed: u64,
    cache_hits: u64,
    frontier_s: f64,
    /// Main-thread time inside a span.
    spanned_s: f64,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mem_slot(arch: ArchKind) -> Option<usize> {
    match arch {
        ArchKind::SharedL1 => Some(0),
        ArchKind::SharedL2 => Some(1),
        ArchKind::SharedMem => Some(2),
        ArchKind::Mesh => Some(3),
        ArchKind::Clustered => None,
    }
}

impl LayerTotals {
    /// Records an untraced pass's wall, the base of the tracing overhead.
    pub fn untraced_wall(&mut self, wall_s: f64) {
        self.untraced_walls.push(wall_s);
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<(MetricDef, f64)> {
        let traced = crate::out::median(&self.traced_walls);
        let untraced = crate::out::median(&self.untraced_walls);
        let walls: f64 = self.traced_walls.iter().sum();
        // Times and counts are per traced pass; ratios pool every pass.
        let passes = self.traced_walls.len().max(1) as f64;
        let per_pass = |v: f64| v / passes;
        let cpu_ns =
            |(run, replay, instr): (f64, f64, u64)| ratio((run - replay) * 1e9, instr as f64);
        let mem_ns = |(replay, acc): (f64, u64)| ratio(replay * 1e9, acc as f64);
        PER_LAYER
            .iter()
            .map(|&d| {
                let v = match d.name {
                    "kernels.build_s" => per_pass(self.build_s),
                    "core.machine_new_s" => per_pass(self.machine_new_s),
                    "cpu.mipsy.ns_per_instr" => cpu_ns(self.cpu[0]),
                    "cpu.mxs.ns_per_instr" => cpu_ns(self.cpu[1]),
                    "mem.shared_l1.ns_per_access" => mem_ns(self.mem[0]),
                    "mem.shared_l1.accesses" => per_pass(self.mem[0].1 as f64),
                    "mem.shared_l2.ns_per_access" => mem_ns(self.mem[1]),
                    "mem.shared_l2.accesses" => per_pass(self.mem[1].1 as f64),
                    "mem.shared_mem.ns_per_access" => mem_ns(self.mem[2]),
                    "mem.shared_mem.accesses" => per_pass(self.mem[2].1 as f64),
                    "mem.mesh.ns_per_access" => mem_ns(self.mem[3]),
                    "mem.mesh.accesses" => per_pass(self.mem[3].1 as f64),
                    "trace.capture_overhead_frac" => {
                        ratio(self.capture_s, self.plain_s) - f64::from(self.plain_s > 0.0)
                    }
                    "trace.bytes_per_ref" => {
                        ratio(self.trace_bytes as f64, self.trace_records as f64)
                    }
                    "trace.decode_ns_per_ref" => {
                        ratio(self.decode_s * 1e9, self.trace_records as f64)
                    }
                    "trace.replay_ns_per_ref" => {
                        ratio(self.replay_s * 1e9, self.replay_refs as f64)
                    }
                    "engine.pool.busy_frac" => ratio(self.pool_job_s, self.pool_capacity_s),
                    "engine.journal.put_us" => ratio(self.put_s * 1e6, self.puts as f64),
                    "engine.journal.puts" => per_pass(self.puts as f64),
                    "engine.supervise.retries" => per_pass(self.retries as f64),
                    "engine.supervise.quarantined" => per_pass(self.quarantined as f64),
                    "explore.points" => per_pass(self.points as f64),
                    "explore.captures" => per_pass(self.captures as f64),
                    "explore.replayed_frac" => ratio(self.replayed as f64, self.points as f64),
                    "explore.cache_hits" => per_pass(self.cache_hits as f64),
                    "explore.frontier_ms" => per_pass(self.frontier_s * 1e3),
                    "unattributed_frac" => 1.0 - ratio(self.spanned_s, walls),
                    "trace_overhead_frac" => ratio(traced, untraced) - 1.0,
                    "traced_wall_s" => traced,
                    "untraced_wall_s" => untraced,
                    other => unreachable!("per-layer metric {other} has no source"),
                };
                (d, v)
            })
            .collect()
    }
}

/// Bit-for-bit comparison of two `MemStats` (every field, histogram
/// included, through their exhaustive `Debug` form).
fn same_stats(a: &MemStats, b: &MemStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// One traced pass of a run-based workload. Fails when an operation
/// fails, when capture perturbs a run, or when a replayed trace does not
/// reproduce its capturing run's `MemStats`.
pub fn traced_runs(specs: &[RunSpec], acc: &mut LayerTotals) -> Result<(), String> {
    let (job, records) = run_job(specs);
    if let Some(e) = job.errors.first() {
        return Err(e.clone());
    }
    acc.traced_walls.push(job.wall_s);
    for r in &records {
        acc.build_s += r.build_s;
        acc.machine_new_s += r.machine_new_s;
        acc.spanned_s += r.build_s + r.machine_new_s + r.run_s + r.check_s;
    }
    for r in &records {
        attribute(r, acc)?;
    }
    Ok(())
}

/// Splits one run's `Machine::run` time into cpu and mem by capturing it
/// and replaying the trace chunk by chunk into a fresh memory system.
fn attribute(r: &RunRecord, acc: &mut LayerTotals) -> Result<(), String> {
    let spec = r.spec;
    let label = spec.label();
    let plain = r
        .summary
        .as_ref()
        .ok_or_else(|| format!("{label}: no summary"))?;
    let w = build_by_name(spec.kernel, spec.n_cpus, spec.scale)?;
    let t = Instant::now();
    let (captured, bytes) =
        capture_run(&spec.config(), &w, BUDGET).map_err(|e| format!("{label}: capture: {e}"))?;
    acc.capture_s += secs(t);
    acc.plain_s += r.machine_new_s + r.run_s + r.check_s;
    if summary_digest(&captured) != r.digest {
        return Err(format!(
            "{label}: the capturing run differs from the plain run"
        ));
    }
    let (_, frames) = scan_chunks(&bytes).map_err(|e| format!("{label}: {e}"))?;
    let mut sys = spec
        .arch
        .try_build(&spec.config().system_config())
        .map_err(|e| format!("{label}: {e}"))?;
    let (mut decode_s, mut replay_s, mut refs, mut accesses) = (0.0, 0.0, 0u64, 0u64);
    for f in &frames {
        let t = Instant::now();
        let recs = decode_chunk(&bytes, f).map_err(|e| format!("{label}: {e}"))?;
        decode_s += secs(t);
        let t = Instant::now();
        accesses += replay_records(&recs, &mut sys).accesses;
        replay_s += secs(t);
        refs += recs.len() as u64;
    }
    if !same_stats(sys.stats(), &plain.mem) {
        return Err(format!(
            "{label}: replayed MemStats differ from the capturing run's"
        ));
    }
    acc.trace_bytes += bytes.len() as u64;
    acc.trace_records += refs;
    acc.decode_s += decode_s;
    acc.replay_s += replay_s;
    acc.replay_refs += refs;
    let cpu = &mut acc.cpu[usize::from(spec.cpu != CpuKind::Mipsy)];
    cpu.0 += r.run_s;
    cpu.1 += replay_s;
    cpu.2 += r.instructions;
    if let Some(i) = mem_slot(spec.arch) {
        acc.mem[i].0 += replay_s;
        acc.mem[i].1 += accesses;
    }
    Ok(())
}

/// A memory system that reports how long its `replay_matrix` job lived:
/// built at the job's start, dropped at its end.
struct Clocked<'a> {
    inner: Box<dyn MemorySystem>,
    start: Instant,
    done: &'a Mutex<Vec<f64>>,
}

impl Drop for Clocked<'_> {
    fn drop(&mut self) {
        if let Ok(mut d) = self.done.lock() {
            d.push(secs(self.start));
        }
    }
}

impl MemorySystem for Clocked<'_> {
    fn access(&mut self, now: Cycle, req: MemRequest) -> MemResult {
        self.inner.access(now, req)
    }
    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        self.inner.load_would_hit_l1(cpu, addr)
    }
    fn line_bytes(&self) -> u32 {
        self.inner.line_bytes()
    }
    fn n_cpus(&self) -> usize {
        self.inner.n_cpus()
    }
    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn port_utilization(&self) -> Vec<PortUtil> {
        self.inner.port_utilization()
    }
}

/// The canonical capture machine of a CPU-side signature, as
/// `cmpsim_explore::eval` builds it.
fn capture_config(p: &Point) -> cmpsim_core::MachineConfig {
    let mut cfg = cmpsim_core::MachineConfig::new(ArchKind::SharedMem, p.cfg.cpu);
    cfg.n_cpus = p.cfg.n_cpus;
    cfg.sentinel = Some(SentinelSpec::off());
    cfg.shards = Some(1);
    cfg
}

/// One capture job of the explore pipeline, timed per layer.
struct Captured {
    records: Vec<cmpsim_trace::TraceRecord>,
    bytes: u64,
    mem: MemStats,
    build_s: f64,
    machine_new_s: f64,
    machine_s: f64,
    decode_s: f64,
    job_s: f64,
}

fn capture_job(p: &Point, workload: &str, scale: f64, budget: u64) -> Captured {
    let t0 = Instant::now();
    let w = build_by_name(workload, p.cfg.n_cpus, scale)
        .unwrap_or_else(|e| panic!("building {workload}: {e}"));
    let build_s = secs(t0);
    let t = Instant::now();
    let buf = SharedBuf::new();
    let mut m = Machine::try_new_capturing(&capture_config(p), &w, Box::new(buf.clone()))
        .unwrap_or_else(|e| panic!("capture machine: {e}"));
    let machine_new_s = secs(t);
    let s = m.run(budget).unwrap_or_else(|e| panic!("capture run: {e}"));
    (w.check)(m.phys()).unwrap_or_else(|e| panic!("{}", RunError::CheckFailed(e)));
    let machine_s = secs(t);
    drop(m);
    let bytes = buf.take();
    let t = Instant::now();
    let records = cmpsim_trace::decode(&bytes).unwrap_or_else(|e| panic!("decoding: {e}"));
    Captured {
        records,
        bytes: bytes.len() as u64,
        mem: s.mem,
        build_s,
        machine_new_s,
        machine_s,
        decode_s: secs(t),
        job_s: secs(t0),
    }
}

/// One traced pass of `explore_replay`: `run_search`'s replay pipeline
/// re-driven stage by stage over the points the untraced search
/// (`baseline`) evaluated, checked against that search point by point.
pub fn traced_explore(
    baseline: &SearchOutcome,
    scale_factor: f64,
    jobs: usize,
    cache: &Path,
    acc: &mut LayerTotals,
) -> Result<(), String> {
    let wall = Instant::now();
    let t = Instant::now();
    let space = explore_space();
    let spec = explore_spec(scale_factor, jobs);
    let tag = spec.workload_tag();
    let points: Vec<Point> = baseline
        .points
        .iter()
        .map(|&(code, _)| space.decode(code).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let want: BTreeMap<u64, PointMetrics> = baseline.points.iter().copied().collect();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        groups.entry(p.group_sig()).or_default().push(i);
    }
    let firsts: Vec<Point> = groups.values().map(|idxs| points[idxs[0]]).collect();
    acc.spanned_s += secs(t);

    // Stage A: one capture per CPU-side signature, on the supervised pool.
    let attempts = AtomicUsize::new(0);
    let t = Instant::now();
    let run = map_jobs_supervised(&SuperviseSpec::from_env(), jobs, &firsts, |p| {
        attempts.fetch_add(1, Ordering::Relaxed);
        capture_job(p, &spec.workload, spec.scale, spec.budget)
    });
    let stage_s = secs(t);
    acc.spanned_s += stage_s;
    acc.pool_capacity_s += jobs as f64 * stage_s;
    let (captured, quarantined) = run.into_parts();
    acc.quarantined += quarantined.len() as u64;
    acc.retries += attempts.into_inner().saturating_sub(firsts.len()) as u64;
    let captured: Vec<Captured> = captured
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| format!("explore capture quarantined: {quarantined:?}"))?;
    for c in &captured {
        acc.build_s += c.build_s;
        acc.machine_new_s += c.machine_new_s;
        acc.capture_s += c.machine_s;
        acc.trace_bytes += c.bytes;
        acc.trace_records += c.records.len() as u64;
        acc.decode_s += c.decode_s;
        acc.pool_job_s += c.job_s;
        acc.captures += 1;
    }

    // Stage B: batched replay of every group's hierarchies.
    for (idxs, c) in groups.values().zip(&captured) {
        let pts: Vec<&Point> = idxs.iter().map(|&i| &points[i]).collect();
        let job_s = Mutex::new(Vec::new());
        let t = Instant::now();
        let replayed = replay_matrix(&c.records, pts.len(), jobs, |i| Clocked {
            inner: pts[i]
                .cfg
                .arch
                .try_build(&pts[i].system_config())
                .unwrap_or_else(|e| panic!("point {} failed to build: {e}", pts[i].code)),
            start: Instant::now(),
            done: &job_s,
        });
        let stage_s = secs(t);
        acc.spanned_s += stage_s;
        acc.pool_capacity_s += jobs as f64 * stage_s;
        let job_s = job_s.into_inner().map_err(|e| e.to_string())?;
        acc.pool_job_s += job_s.iter().sum::<f64>();
        acc.replay_s += job_s.iter().sum::<f64>();
        acc.replay_refs += (c.records.len() * pts.len()) as u64;
        for (p, r) in pts.iter().zip(&replayed) {
            let m = &want[&p.code];
            if m.accesses != r.replay.accesses
                || m.instructions != r.stats.l1i.accesses
                || m.avg_lat.to_bits() != r.stats.latency.mean().to_bits()
            {
                return Err(format!(
                    "explore point {}: the traced replay differs from run_search",
                    p.code
                ));
            }
            acc.replayed += 1;
        }
    }

    // Every point's result into a fresh result cache.
    let _ = std::fs::remove_file(cache);
    let t = Instant::now();
    let mut rc = ResultCache::open(cache).map_err(|e| e.to_string())?;
    let mut put_s = 0.0;
    for p in &points {
        let key = ResultCache::key(&tag, &format!("{:?}", p.cfg));
        let t = Instant::now();
        rc.put(key, &want[&p.code]).map_err(|e| e.to_string())?;
        put_s += secs(t);
    }
    acc.spanned_s += secs(t);
    drop(rc);
    let _ = std::fs::remove_file(cache);
    acc.put_s += put_s;
    acc.puts += points.len() as u64;

    let t = Instant::now();
    let front = frontier(&baseline.points);
    acc.frontier_s += secs(t);
    acc.spanned_s += secs(t);
    if front != baseline.frontier {
        return Err("explore frontier differs from run_search's".into());
    }
    acc.traced_walls.push(secs(wall));
    acc.points += points.len() as u64;
    acc.cache_hits += baseline.cache_hits as u64;

    // Attribution extras, outside the traced wall: each capture's trace
    // must replay to its run's MemStats, and the same machines run plain
    // give the capture overhead's base.
    for (p, c) in firsts.iter().zip(&captured) {
        let mut sys = ArchKind::SharedMem
            .try_build(&capture_config(p).system_config())
            .map_err(|e| e.to_string())?;
        replay_records(&c.records, &mut sys);
        if !same_stats(sys.stats(), &c.mem) {
            return Err(format!(
                "explore capture {}: replayed MemStats differ from the capturing run's",
                p.group_sig()
            ));
        }
    }
    let plain = map_jobs(jobs, &firsts, |p| -> Result<f64, String> {
        let w = build_by_name(&spec.workload, p.cfg.n_cpus, spec.scale)?;
        let t = Instant::now();
        let mut m = Machine::try_new(&capture_config(p), &w).map_err(|e| e.to_string())?;
        m.run(spec.budget).map_err(|e| e.to_string())?;
        (w.check)(m.phys())?;
        Ok(secs(t))
    });
    for s in plain {
        acc.plain_s += s?;
    }
    Ok(())
}
