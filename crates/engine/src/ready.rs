//! A monotone calendar queue over a fixed set of indexed actors.
//!
//! The simulator's run loop repeatedly asks "which CPU is ready earliest?"
//! with ties broken by the lowest CPU index — that tie-break is part of the
//! simulator's determinism contract. [`CalendarQueue`] answers in O(1) per
//! step: it keeps one CPU bitset per cycle for the next [`SPAN`] cycles, in
//! a ring, plus a bitmap of the occupied buckets. The earliest entry is the
//! first occupied bucket at or after the cursor; the lowest set bit of that
//! bucket is the lowest index, so ties fall out by construction. Keys at or
//! beyond `cursor + SPAN` wait in a small overflow list until the cursor
//! comes within reach.
//!
//! The queue is *monotone*: the cursor only moves forward, and a key below
//! it is rejected with a panic. The run loop meets this because every
//! `CpuModel::step` returns a cycle after the one it ran at. The cost per
//! step does not grow with the CPU count, which matters once 64
//! lock-stepped CPUs tie on nearly every cycle (DESIGN.md §12 has the
//! measurements).

use crate::Cycle;

/// Cycles covered by the ring of buckets (a power of two). Keys at or
/// beyond `cursor + SPAN` wait in the overflow list.
pub const SPAN: usize = 1024;

/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = SPAN / 64;

/// An indexed, monotone min-queue of `(Cycle, index)` keys.
///
/// Each index in `0..capacity` holds at most one entry; [`CalendarQueue::set`]
/// inserts or updates it, [`CalendarQueue::remove`] drops it, and
/// [`CalendarQueue::peek`] returns the entry with the earliest cycle, ties
/// broken by the lowest index — exactly the order of a linear
/// earliest-ready scan. `peek` also moves the cursor to that cycle; from
/// then on, `set` panics on a key below it.
///
/// # Examples
///
/// ```
/// use cmpsim_engine::{CalendarQueue, Cycle};
///
/// let mut q = CalendarQueue::new(4);
/// q.set(2, Cycle(10));
/// q.set(0, Cycle(10));
/// q.set(1, Cycle(5));
/// assert_eq!(q.peek(), Some((Cycle(5), 1)));
/// q.set(1, Cycle(20)); // update reorders
/// assert_eq!(q.peek(), Some((Cycle(10), 0))); // tie -> lowest index
/// q.remove(0);
/// assert_eq!(q.peek(), Some((Cycle(10), 2)));
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Words of index bits per bucket: `⌈capacity / 64⌉`.
    words: usize,
    /// `SPAN` buckets of `words` words; bucket `k % SPAN` holds the
    /// indices whose key is cycle `k`, for keys in `cursor..cursor + SPAN`.
    bits: Vec<u64>,
    /// Bit `b` set iff bucket `b` holds any index.
    occupied: [u64; OCC_WORDS],
    /// Each index's key, if it has an entry.
    keys: Vec<Option<Cycle>>,
    /// Indices whose key is at or beyond `cursor + SPAN`, unordered;
    /// nearly always empty.
    overflow: Vec<usize>,
    /// No key is below this cycle; it only moves forward.
    cursor: u64,
    len: usize,
}

impl CalendarQueue {
    /// Creates an empty queue for indices `0..capacity`, cursor at cycle 0.
    pub fn new(capacity: usize) -> CalendarQueue {
        let words = capacity.div_ceil(64).max(1);
        CalendarQueue {
            words,
            bits: vec![0; SPAN * words],
            occupied: [0; OCC_WORDS],
            keys: vec![None; capacity],
            overflow: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of entries currently in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `idx` with `key`, or updates its key if already present.
    ///
    /// # Panics
    ///
    /// If `key` is below the cursor (the cycle of the last
    /// [`CalendarQueue::peek`]): the queue never reorders such a key
    /// silently.
    pub fn set(&mut self, idx: usize, key: Cycle) {
        assert!(
            key.0 >= self.cursor,
            "CalendarQueue: key {key} for index {idx} is below the cursor {}",
            self.cursor
        );
        self.remove(idx);
        self.keys[idx] = Some(key);
        self.len += 1;
        if key.0 - self.cursor >= SPAN as u64 {
            self.overflow.push(idx);
        } else {
            self.link(idx, key.0);
        }
    }

    /// Removes `idx`'s entry if present.
    pub fn remove(&mut self, idx: usize) {
        let Some(key) = self.keys[idx].take() else {
            return;
        };
        self.len -= 1;
        if key.0 - self.cursor >= SPAN as u64 {
            let at = self.overflow.iter().position(|&i| i == idx);
            self.overflow
                .swap_remove(at.expect("overflow entry is listed"));
            return;
        }
        let b = key.0 as usize % SPAN;
        let words = &mut self.bits[b * self.words..(b + 1) * self.words];
        words[idx / 64] &= !(1 << (idx % 64));
        if words[idx / 64] == 0 && words.iter().all(|&w| w == 0) {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
    }

    /// The earliest `(key, index)` entry, ties broken by lowest index.
    /// Moves the cursor up to its key.
    pub fn peek(&mut self) -> Option<(Cycle, usize)> {
        if self.len == 0 {
            return None;
        }
        let at = match self.first_bucket() {
            Some(offset) => self.cursor + offset as u64,
            // Every entry waits in the overflow list: jump to the earliest.
            None => self
                .overflow
                .iter()
                .map(|&i| self.keys[i].expect("overflow entry has a key").0)
                .min()
                .expect("a non-empty queue with an empty ring has overflow"),
        };
        if at != self.cursor {
            self.cursor = at;
            if !self.overflow.is_empty() {
                self.migrate();
            }
        }
        let b = at as usize % SPAN;
        let words = &self.bits[b * self.words..(b + 1) * self.words];
        let (w, bits) = words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .expect("an occupied bucket has a set bit");
        Some((Cycle(at), w * 64 + bits.trailing_zeros() as usize))
    }

    /// Sets `idx`'s bit in the bucket of cycle `key` (within the ring).
    fn link(&mut self, idx: usize, key: u64) {
        let b = key as usize % SPAN;
        self.bits[b * self.words + idx / 64] |= 1 << (idx % 64);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Offset from the cursor of the first occupied bucket, scanning the
    /// ring in cycle order, or `None` if the ring is empty.
    fn first_bucket(&self) -> Option<usize> {
        let start = self.cursor as usize % SPAN;
        let (sw, sb) = (start / 64, start % 64);
        let head = self.occupied[sw] & (!0 << sb);
        if head != 0 {
            return Some(head.trailing_zeros() as usize - sb);
        }
        // The last probe revisits word `sw`, whose bits at and above `sb`
        // are known clear: it finds the buckets that wrapped around.
        (1..=OCC_WORDS).find_map(|i| {
            let wi = (sw + i) % OCC_WORDS;
            let w = self.occupied[wi];
            (w != 0).then(|| (wi * 64 + w.trailing_zeros() as usize + SPAN - start) % SPAN)
        })
    }

    /// Moves every overflow entry now within `cursor + SPAN` into the ring.
    fn migrate(&mut self) {
        let mut i = 0;
        while i < self.overflow.len() {
            let idx = self.overflow[i];
            let key = self.keys[idx].expect("overflow entry has a key").0;
            if key - self.cursor < SPAN as u64 {
                self.overflow.swap_remove(i);
                self.link(idx, key);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Reference implementation: the linear earliest-ready scan the queue
    /// replaces.
    fn scan_min(entries: &[Option<Cycle>]) -> Option<(Cycle, usize)> {
        let mut best: Option<(Cycle, usize)> = None;
        for (i, e) in entries.iter().enumerate() {
            if let Some(c) = e {
                if best.is_none_or(|(bc, _)| *c < bc) {
                    best = Some((*c, i));
                }
            }
        }
        best
    }

    #[test]
    fn basic_order_and_ties() {
        let mut q = CalendarQueue::new(4);
        q.set(3, Cycle(7));
        q.set(1, Cycle(7));
        q.set(2, Cycle(9));
        assert_eq!(q.peek(), Some((Cycle(7), 1)));
        q.remove(1);
        assert_eq!(q.peek(), Some((Cycle(7), 3)));
        q.set(0, Cycle(7));
        assert_eq!(q.peek(), Some((Cycle(7), 0)));
        assert_eq!(q.len(), 3);
        q.remove(0);
        q.remove(3);
        assert_eq!(q.peek(), Some((Cycle(9), 2)));
    }

    #[test]
    fn update_moves_both_directions() {
        let mut q = CalendarQueue::new(3);
        q.set(0, Cycle(10));
        q.set(1, Cycle(20));
        q.set(2, Cycle(30));
        q.set(2, Cycle(1)); // earlier, still at or above the cursor
        assert_eq!(q.peek(), Some((Cycle(1), 2)));
        q.set(2, Cycle(40)); // later
        assert_eq!(q.peek(), Some((Cycle(10), 0)));
    }

    #[test]
    fn remove_missing_is_a_noop() {
        let mut q = CalendarQueue::new(2);
        q.remove(1);
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.set(0, Cycle(5));
        q.remove(1);
        assert_eq!(q.peek(), Some((Cycle(5), 0)));
    }

    #[test]
    fn keys_past_the_span_come_back_in_order() {
        let far = SPAN as u64;
        let mut q = CalendarQueue::new(3);
        q.set(2, Cycle(3 * far + 5));
        q.set(1, Cycle(far));
        q.set(0, Cycle(3 * far + 5));
        // Only overflow entries: the cursor jumps to the earliest one.
        assert_eq!(q.peek(), Some((Cycle(far), 1)));
        q.set(1, Cycle(3 * far + 5));
        // Ties between a migrated key and a fresh ring key.
        assert_eq!(q.peek(), Some((Cycle(3 * far + 5), 0)));
        q.remove(0);
        assert_eq!(q.peek(), Some((Cycle(3 * far + 5), 1)));
        q.remove(1);
        q.remove(2);
        assert_eq!(q.peek(), None);
        // An overflow entry removed before it ever migrates.
        q.set(0, Cycle(5 * far));
        q.set(1, Cycle(3 * far + 6));
        q.remove(0);
        assert_eq!(q.peek(), Some((Cycle(3 * far + 6), 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "below the cursor")]
    fn key_below_the_cursor_panics() {
        let mut q = CalendarQueue::new(2);
        q.set(0, Cycle(10));
        q.set(1, Cycle(12));
        assert_eq!(q.peek(), Some((Cycle(10), 0)));
        q.set(0, Cycle(9));
    }

    /// Random operations under the monotone contract, checked against the
    /// linear scan after every one: many ties (small key offsets), keys
    /// past `SPAN`, updates, removals and run-loop style steps, at one-word
    /// and multi-word bucket widths.
    #[test]
    fn matches_linear_scan_under_random_ops() {
        for n in [1, 4, 64, 65, 1024] {
            let mut rng = Rng64::new(0x4ead_4eab ^ n as u64);
            let mut q = CalendarQueue::new(n);
            let mut model: Vec<Option<Cycle>> = vec![None; n];
            let mut cursor = 0u64;
            let offset = |rng: &mut Rng64| match rng.range(8) {
                0..=4 => rng.range(4),
                5 | 6 => rng.range(SPAN as u64),
                _ => SPAN as u64 - 2 + rng.range(3 * SPAN as u64),
            };
            for _ in 0..20_000 {
                match rng.range(6) {
                    0 => {
                        let idx = rng.range(n as u64) as usize;
                        q.remove(idx);
                        model[idx] = None;
                    }
                    1 | 2 => {
                        let idx = rng.range(n as u64) as usize;
                        let key = Cycle(cursor + offset(&mut rng));
                        q.set(idx, key);
                        model[idx] = Some(key);
                    }
                    _ => {
                        // A run-loop step: the earliest entry moves later.
                        let want = scan_min(&model);
                        assert_eq!(q.peek(), want, "capacity {n}");
                        if let Some((at, idx)) = want {
                            cursor = at.0;
                            let key = Cycle(cursor + 1 + offset(&mut rng));
                            q.set(idx, key);
                            model[idx] = Some(key);
                        }
                    }
                }
                assert_eq!(q.peek(), scan_min(&model), "capacity {n}");
                if let Some((at, _)) = scan_min(&model) {
                    cursor = at.0;
                }
                assert_eq!(q.len(), model.iter().flatten().count());
            }
        }
    }
}
