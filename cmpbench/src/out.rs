//! Metric names, run statistics, host metadata and output formatting.

/// One reported metric: name and unit, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: measured with tracing off, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("sim_mips", "Minstr/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, on every workload; a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 30] = [
    m("kernels.build_s", "s"),
    m("core.machine_new_s", "s"),
    m("cpu.mipsy.ns_per_instr", "ns"),
    m("cpu.mxs.ns_per_instr", "ns"),
    m("mem.shared_l1.ns_per_access", "ns"),
    m("mem.shared_l1.accesses", "count"),
    m("mem.shared_l2.ns_per_access", "ns"),
    m("mem.shared_l2.accesses", "count"),
    m("mem.shared_mem.ns_per_access", "ns"),
    m("mem.shared_mem.accesses", "count"),
    m("mem.mesh.ns_per_access", "ns"),
    m("mem.mesh.accesses", "count"),
    m("trace.capture_overhead_frac", "frac"),
    m("trace.bytes_per_ref", "B"),
    m("trace.decode_ns_per_ref", "ns"),
    m("trace.replay_ns_per_ref", "ns"),
    m("engine.pool.busy_frac", "frac"),
    m("engine.journal.put_us", "us"),
    m("engine.journal.puts", "count"),
    m("engine.supervise.retries", "count"),
    m("engine.supervise.quarantined", "count"),
    m("explore.points", "count"),
    m("explore.captures", "count"),
    m("explore.replayed_frac", "frac"),
    m("explore.cache_hits", "count"),
    m("explore.frontier_ms", "ms"),
    m("unattributed_frac", "frac"),
    m("trace_overhead_frac", "frac"),
    m("traced_wall_s", "s"),
    m("untraced_wall_s", "s"),
];

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Starts a fresh peak-memory window: hands free heap memory back to the
/// kernel, then resets the kernel's peak resident set size (`VmHWM`) to
/// the current one. Without the trim, free memory the allocator kept
/// from earlier work shows up in the next peak, and how much it keeps
/// varies from process to process.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers; glibc documents it as safe
    // to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`) since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit this tree was checked out at, read from `.git` in the
/// working directory only; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Clears every `CMPSIM_*` variable so a knob left set in the shell
/// cannot change the program being measured; returns the names cleared.
/// Call before any thread starts.
pub fn scrub_cmpsim_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CMPSIM_"))
        .collect();
    names.sort();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which JSON cannot hold) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// JSON array of numbers.
pub fn json_nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(", "))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// metrics in the order given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(d.name),
                json_num(*v),
                json_str(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_line(true, 3, 0, &[(END_TO_END[0], 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
