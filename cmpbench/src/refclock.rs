//! The host-speed reference that the end-to-end timings are normalized by.
//!
//! A shared VM's throughput drifts: on a 2-vCPU Xeon VM the simulator's
//! 20-second medians ranged over 1.7× within five minutes, with guest
//! steal under 1%, so the drift is contention for the host's caches and
//! memory, not lost CPU time. A run's median cannot remove that. A fixed
//! loop that stresses the memory hierarchy the way the simulator does
//! (a set-associative cache simulation over 1 MB of tags) slows down with
//! it: over those five minutes the simulator-to-reference ratio spread
//! 3–5% where the raw times spread 20–24%. So each job times short
//! reference *slices* between its operations, and the end-to-end timings
//! are rescaled by the job's mean slice time against a nominal one.
//!
//! The CPUs of such a VM drift apart as well, so the slices must run
//! where the work runs: a single-threaded workload is pinned to one CPU
//! with its slices ([`pin_to_current_cpu`]), and a workload that keeps
//! every CPU busy times slices on every CPU ([`RefClock::across_cpus`]).
//!
//! The loop is the benchmark's own code, not the simulator's: a change to
//! the simulator moves the measured times and leaves the reference alone.

use std::hint::black_box;
use std::time::Instant;

/// Sets of the reference cache (8 ways each; 1 MB of `u64` tags).
const SETS: usize = 1 << 14;

/// Simulated references per slice.
const SLICE_REFS: u64 = 2_000_000;

/// Seconds one slice takes at nominal speed: the median slice on a quiet
/// 2-vCPU 2.1 GHz Xeon VM. Normalized timings are host seconds rescaled
/// to that speed.
pub const NOMINAL_SLICE_S: f64 = 0.0165;

/// Reference time a job spends per second of measured work, at least.
const SHARE: f64 = 0.05;

/// Times reference slices and keeps their mean.
#[derive(Debug, Clone)]
pub struct RefClock {
    /// One tag array per CPU in `cpus` (one in all when `cpus` is empty).
    tags: Vec<Vec<u64>>,
    /// CPUs a tick times slices on; empty: wherever the scheduler puts
    /// the calling thread.
    cpus: Vec<usize>,
    slices: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        RefClock {
            tags: vec![vec![0; SETS * 8]],
            cpus: Vec::new(),
            slices: Vec::new(),
        }
    }
}

impl RefClock {
    /// A clock for a thread pool over every CPU the process may use. Each
    /// tick times one slice on each CPU alone, in turn, and one on every
    /// CPU at once, and takes the geometric mean of the two means: the
    /// CPUs of a shared host drift apart, and a pool's threads run both
    /// alone and side by side. On the 2-vCPU VM, over ten 40-second
    /// `explore_replay` runs, normalized `wall_s` spread 3.9% with both
    /// kinds of slice, 8.6–9.0% with the lone ones only, and 13.7–18.2%
    /// unnormalized.
    pub fn across_cpus() -> Self {
        let cpus = affinity::allowed();
        RefClock {
            tags: vec![vec![0; SETS * 8]; cpus.len().max(1)],
            cpus,
            slices: Vec::new(),
        }
    }

    /// Runs one slice (always the same references from an empty cache)
    /// and returns its host seconds; on a clock [`across_cpus`], the
    /// geometric mean described there.
    ///
    /// [`across_cpus`]: RefClock::across_cpus
    pub fn tick(&mut self) -> f64 {
        let s = if self.cpus.is_empty() {
            timed_slice(&mut self.tags[0])
        } else {
            let n = self.cpus.len() as f64;
            let mut alone = 0.0;
            for (&cpu, tags) in self.cpus.iter().zip(&mut self.tags) {
                affinity::pin(&[cpu]);
                alone += timed_slice(tags);
            }
            affinity::pin(&self.cpus);
            let together: f64 = std::thread::scope(|scope| {
                let threads: Vec<_> = self
                    .cpus
                    .iter()
                    .zip(&mut self.tags)
                    .map(|(&cpu, tags)| {
                        scope.spawn(move || {
                            affinity::pin(&[cpu]);
                            timed_slice(tags)
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("a reference slice cannot panic"))
                    .sum()
            });
            (alone / n * (together / n)).sqrt()
        };
        self.slices.push(s);
        s
    }

    /// Runs enough slices to follow `work_s` seconds of measured work
    /// (at least one, and [`SHARE`] of the work at nominal speed) and
    /// returns their host seconds.
    pub fn follow(&mut self, work_s: f64) -> f64 {
        let n = ((SHARE * work_s / NOMINAL_SLICE_S).ceil() as usize).max(1);
        (0..n).map(|_| self.tick()).sum()
    }

    /// Mean host seconds of the slices so far (NaN before the first).
    pub fn mean_slice_s(&self) -> f64 {
        self.slices.iter().sum::<f64>() / self.slices.len() as f64
    }
}

/// Keeps the calling thread, and the threads it starts later, on the CPU
/// it is running on, so that single-threaded work and its reference
/// slices run on the same CPU. Returns that CPU, if known.
pub fn pin_to_current_cpu() -> Option<usize> {
    let cpu = affinity::current()?;
    affinity::pin(&[cpu]);
    (affinity::allowed() == [cpu]).then_some(cpu)
}

/// Host seconds of one slice on `tags`.
fn timed_slice(tags: &mut [u64]) -> f64 {
    let t = Instant::now();
    tags.fill(0);
    black_box(simulate(tags, black_box(SLICE_REFS)));
    t.elapsed().as_secs_f64()
}

/// The calling thread's CPU affinity. Where it cannot be read or set,
/// slices run wherever the scheduler puts them.
mod affinity {
    /// Bytes of the kernel's CPU mask (glibc's `cpu_set_t`: 1024 CPUs).
    const MASK_WORDS: usize = 16;

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on (empty if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes
        // into `mask`, which outlives the call.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0
        {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The CPU the calling thread is running on, if known.
    pub fn current() -> Option<usize> {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_getcpu() -> i32;
            }
            // SAFETY: `sched_getcpu` takes no arguments and only reads.
            usize::try_from(unsafe { sched_getcpu() }).ok()
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restricts the calling thread to `cpus`. Threads it starts later
    /// inherit the restriction.
    pub fn pin(cpus: &[usize]) {
        let mut mask = [0u64; MASK_WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        #[cfg(target_os = "linux")]
        // SAFETY: the kernel reads `size_of_val(&mask)` bytes of `mask`,
        // which outlives the call. A failure leaves the affinity as it was.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

/// An LRU cache simulation over a xorshift address stream that mostly
/// walks a 256 KB region and moves it every 4096 references, with one
/// reference in four anywhere in a 16 TB space. Returns the hits.
fn simulate(tags: &mut [u64], refs: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut base = 0u64;
    let mut hits = 0u64;
    for i in 0..refs {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if i % 4096 == 0 {
            base = x & 0xFFFF_FFC0;
        }
        let addr = if x & 3 != 0 {
            base + ((x >> 8) & 0x3_FFFF)
        } else {
            x >> 20
        };
        let line = addr >> 6;
        let set = (line as usize) & (SETS - 1);
        let ways = &mut tags[set * 8..set * 8 + 8];
        if let Some(p) = ways.iter().position(|&t| t == line) {
            hits += 1;
            ways[..=p].rotate_right(1);
        } else {
            ways.rotate_right(1);
            ways[0] = line;
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_always_does_the_same_work() {
        let mut tags = vec![0; SETS * 8];
        let a = simulate(&mut tags, 100_000);
        tags.fill(0);
        assert_eq!(a, simulate(&mut tags, 100_000));
        assert!(a > 0 && a < 100_000, "{a} hits");
    }

    #[test]
    fn follow_runs_at_least_one_slice_and_keeps_the_mean() {
        let mut c = RefClock::default();
        assert!(c.mean_slice_s().is_nan());
        let s = c.follow(0.0);
        assert_eq!(c.slices.len(), 1);
        assert_eq!(c.mean_slice_s(), s);
        c.follow(2.0 * NOMINAL_SLICE_S / SHARE);
        assert_eq!(c.slices.len(), 3);
    }

    #[test]
    fn a_clock_across_cpus_restores_the_affinity() {
        let before = affinity::allowed();
        let mut c = RefClock::across_cpus();
        assert!(c.tick() > 0.0);
        assert_eq!(affinity::allowed(), before);
    }
}
