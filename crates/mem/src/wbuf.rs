//! Per-CPU store (write) buffer.
//!
//! Both CPU models retire stores into a small write buffer that drains into
//! the memory system in the background; the CPU only stalls when the buffer
//! is full. This matches Table 1's 1-cycle store latency while still letting
//! write-through traffic contend for L2 ports (the effect the paper blames
//! for the shared-L2 architecture's losses on store-heavy workloads).

use cmpsim_engine::Cycle;

/// A bounded buffer of in-flight stores, tracked by their completion times.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::Cycle;
/// use cmpsim_mem::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2);
/// wb.push(Cycle(0), Cycle(10));
/// wb.push(Cycle(0), Cycle(20));
/// assert!(wb.is_full(Cycle(5)));
/// // At cycle 10 the first store has drained.
/// assert!(!wb.is_full(Cycle(10)));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cap: usize,
    finishes: Vec<Cycle>,
    total_stores: u64,
    full_stalls: u64,
}

impl WriteBuffer {
    /// Creates an empty buffer with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> WriteBuffer {
        assert!(cap > 0, "write buffer needs at least one entry");
        WriteBuffer {
            cap,
            finishes: Vec::with_capacity(cap),
            total_stores: 0,
            full_stalls: 0,
        }
    }

    fn retire(&mut self, now: Cycle) {
        self.finishes.retain(|&f| f > now);
    }

    /// Whether the buffer has no free entry at `now`.
    pub fn is_full(&mut self, now: Cycle) -> bool {
        self.retire(now);
        self.finishes.len() >= self.cap
    }

    /// First cycle at which an entry frees up (call when full). Returns
    /// `now` if already free.
    pub fn free_at(&mut self, now: Cycle) -> Cycle {
        self.retire(now);
        if self.finishes.len() < self.cap {
            now
        } else {
            let earliest = self
                .finishes
                .iter()
                .copied()
                .min()
                .expect("full buffer is non-empty");
            self.full_stalls += earliest - now;
            earliest
        }
    }

    /// First cycle at or after `now` with a free entry. Unlike
    /// [`WriteBuffer::free_at`] this is a pure query: it neither retires
    /// drained entries nor counts the wait as a stall.
    pub fn next_free(&self, now: Cycle) -> Cycle {
        let live = || self.finishes.iter().copied().filter(move |&f| f > now);
        if live().count() < self.cap {
            now
        } else {
            live().min().unwrap_or(now)
        }
    }

    /// Enqueues a store issued at `now` that completes at `finish`,
    /// retiring already-drained entries first.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the buffer is still full at `now` — callers must
    /// wait for [`WriteBuffer::free_at`] first.
    pub fn push(&mut self, now: Cycle, finish: Cycle) {
        self.retire(now);
        debug_assert!(self.finishes.len() < self.cap, "write buffer overflow");
        self.finishes.push(finish);
        self.total_stores += 1;
    }

    /// Cycle by which every buffered store has completed (`SYNC` fence
    /// semantics). Returns `now` if empty.
    pub fn drain_time(&mut self, now: Cycle) -> Cycle {
        self.retire(now);
        self.finishes.iter().copied().fold(now, Cycle::max)
    }

    /// Stores currently in flight at `now`.
    pub fn pending(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.finishes.len()
    }

    /// Total stores that passed through the buffer.
    pub fn total_stores(&self) -> u64 {
        self.total_stores
    }

    /// Total cycles callers were told to wait because the buffer was full.
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_drains() {
        let mut wb = WriteBuffer::new(2);
        assert!(!wb.is_full(Cycle(0)));
        wb.push(Cycle(0), Cycle(5));
        wb.push(Cycle(0), Cycle(9));
        assert!(wb.is_full(Cycle(0)));
        assert_eq!(wb.free_at(Cycle(0)), Cycle(5));
        assert!(!wb.is_full(Cycle(5)));
        assert_eq!(wb.pending(Cycle(5)), 1);
        assert_eq!(wb.pending(Cycle(9)), 0);
        assert_eq!(wb.total_stores(), 2);
    }

    #[test]
    fn drain_time_is_last_finish() {
        let mut wb = WriteBuffer::new(4);
        assert_eq!(wb.drain_time(Cycle(3)), Cycle(3));
        wb.push(Cycle(3), Cycle(10));
        wb.push(Cycle(3), Cycle(7));
        assert_eq!(wb.drain_time(Cycle(3)), Cycle(10));
    }

    #[test]
    fn full_stall_cycles_accumulate() {
        let mut wb = WriteBuffer::new(1);
        wb.push(Cycle(0), Cycle(8));
        assert_eq!(wb.free_at(Cycle(2)), Cycle(8));
        assert_eq!(wb.full_stall_cycles(), 6);
    }

    #[test]
    fn next_free_matches_free_at_without_counting_a_stall() {
        let mut wb = WriteBuffer::new(2);
        assert_eq!(wb.next_free(Cycle(0)), Cycle(0));
        wb.push(Cycle(0), Cycle(8));
        wb.push(Cycle(0), Cycle(5));
        for now in 0..10 {
            let mut probe = wb.clone();
            assert_eq!(wb.next_free(Cycle(now)), probe.free_at(Cycle(now)));
        }
        assert_eq!(wb.next_free(Cycle(2)), Cycle(5));
        assert_eq!(wb.full_stall_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
