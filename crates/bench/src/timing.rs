//! In-repo timing harness: warmup + median-of-N wall-clock measurement
//! and machine-readable JSON-lines output.
//!
//! Replaces the external criterion dependency for the simulator-speed
//! regression bench (`sim_throughput`). Criterion's statistical machinery
//! is overkill there: the quantity tracked in `BENCH_*.json` is simulated
//! work per host second, and a median over a handful of runs after a
//! warmup is both stable enough to catch regressions and fully
//! dependency-free.

use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock statistics of repeated runs of one closure.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Median run time in nanoseconds.
    pub median_ns: u64,
    /// Fastest run in nanoseconds.
    pub min_ns: u64,
    /// Slowest run in nanoseconds.
    pub max_ns: u64,
    /// Timed runs (excluding warmup).
    pub runs: u32,
    /// Warmup runs whose timings were discarded.
    pub warmup: u32,
}

impl Measured {
    /// Median run time in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }

    /// Work units per host second at the median run time.
    pub fn per_sec(&self, units: u64) -> f64 {
        if self.median_ns == 0 {
            0.0
        } else {
            units as f64 / self.median_secs()
        }
    }

    /// An all-zero measurement to accumulate per-point sweep statistics
    /// into with [`Measured::add`].
    pub fn zero(warmup: u32, runs: u32) -> Measured {
        Measured {
            median_ns: 0,
            min_ns: 0,
            max_ns: 0,
            runs,
            warmup,
        }
    }

    /// Accumulates another measurement component-wise (sum of medians,
    /// of minima, of maxima). For sweeps timed point by point: the
    /// summed minima estimate the undisturbed whole-sweep cost on a
    /// noisy host far better than the minimum over whole-sweep runs,
    /// which must catch a noise-free window spanning every point at
    /// once.
    pub fn add(&mut self, other: &Measured) {
        self.median_ns += other.median_ns;
        self.min_ns += other.min_ns;
        self.max_ns += other.max_ns;
    }

    /// Builds the statistics from raw per-run wall times in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `times_ns` is empty.
    pub fn from_times_ns(warmup: u32, mut times_ns: Vec<u64>) -> Measured {
        assert!(!times_ns.is_empty(), "need at least one timed run");
        times_ns.sort_unstable();
        Measured {
            median_ns: times_ns[times_ns.len() / 2],
            min_ns: times_ns[0],
            max_ns: times_ns[times_ns.len() - 1],
            runs: times_ns.len() as u32,
            warmup,
        }
    }
}

/// Runs `f` `warmup` times untimed, then `runs` times timed, and reports
/// median/min/max. The closure's return value is kept alive through each
/// timing so the work cannot be optimized away.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn measure<T>(warmup: u32, runs: u32, mut f: impl FnMut() -> T) -> Measured {
    assert!(runs > 0, "need at least one timed run");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let times_ns: Vec<u64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    Measured::from_times_ns(warmup, times_ns)
}

/// Environment knob: set to anything but empty or `0` to run the
/// throughput benches in quick mode (fewer repeats, smaller inputs).
pub const ENV_BENCH_QUICK: &str = "CMPSIM_BENCH_QUICK";

/// Whether [`ENV_BENCH_QUICK`] asks for quick mode. Quick records are
/// smoke checks, not speed evidence; [`emit_record`] tags them
/// `"quick":true`.
pub fn quick() -> bool {
    std::env::var(ENV_BENCH_QUICK).is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

/// One value in a JSON line.
#[derive(Debug, Clone)]
pub enum JsonVal {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for JsonVal {
    fn from(s: &str) -> JsonVal {
        JsonVal::Str(s.to_string())
    }
}
impl From<u64> for JsonVal {
    fn from(v: u64) -> JsonVal {
        JsonVal::U64(v)
    }
}
impl From<f64> for JsonVal {
    fn from(v: f64) -> JsonVal {
        JsonVal::F64(v)
    }
}
impl From<bool> for JsonVal {
    fn from(v: bool) -> JsonVal {
        JsonVal::Bool(v)
    }
}

/// Formats one `{"k":v,...}` JSON object line from ordered pairs.
/// Strings are escaped; floats print with enough digits to round-trip.
pub fn json_line(pairs: &[(&str, JsonVal)]) -> String {
    let mut out = String::from("{");
    for (i, (key, val)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:", json_str(key));
        match val {
            JsonVal::Str(s) => out.push_str(&json_str(s)),
            JsonVal::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonVal::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            JsonVal::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
        }
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host core count as seen by this process (affinity-respecting), for
/// BENCH records: every host-time figure is meaningless without it — on
/// the 1-core CI container parallel "speedups" are overhead bounds, not
/// scaling.
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Emits one benchmark record as a JSON line on stdout: the standard
/// fields every BENCH record shares — including `host_cpus`, so perf
/// trajectories recorded on different hosts stay interpretable, and
/// `"quick":true` on quick-mode smoke records — plus `extra` pairs.
pub fn emit_record(bench: &str, case: &str, m: &Measured, extra: &[(&str, JsonVal)]) {
    let mut pairs: Vec<(&str, JsonVal)> = vec![
        ("bench", bench.into()),
        ("case", case.into()),
        ("median_host_ns", m.median_ns.into()),
        ("min_host_ns", m.min_ns.into()),
        ("max_host_ns", m.max_ns.into()),
        ("runs", u64::from(m.runs).into()),
        ("warmup", u64::from(m.warmup).into()),
        ("host_cpus", host_cpus().into()),
    ];
    if quick() {
        pairs.push(("quick", true.into()));
    }
    pairs.extend_from_slice(extra);
    println!("{}", json_line(&pairs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let mut n = 0u64;
        let m = measure(1, 5, || {
            n += 1;
            std::thread::sleep(std::time::Duration::from_micros(50));
            n
        });
        assert_eq!(m.runs, 5);
        assert_eq!(n, 6, "warmup + timed runs all executed");
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.min_ns > 0);
    }

    #[test]
    fn per_sec_scales_with_units() {
        let m = Measured {
            median_ns: 500_000_000, // 0.5 s
            min_ns: 1,
            max_ns: 1,
            runs: 1,
            warmup: 0,
        };
        assert!((m.per_sec(1000) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn json_line_formats_and_escapes() {
        let line = json_line(&[
            ("bench", "sim\"x\"".into()),
            ("count", 3u64.into()),
            ("rate", 1.5f64.into()),
            ("quick", true.into()),
        ]);
        assert_eq!(
            line,
            r#"{"bench":"sim\"x\"","count":3,"rate":1.5,"quick":true}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = json_line(&[("rate", f64::INFINITY.into())]);
        assert_eq!(line, r#"{"rate":null}"#);
    }
}
