//! Set-associative, write-back, write-allocate cache model with LRU
//! replacement.
//!
//! The simulator keeps an inclusive three-level hierarchy (private L1d and
//! L2 per core, shared L3 per socket). Only tags are stored — data lives in
//! the `SimVec` backing buffers — so a cache access is a short scan of one
//! set.
//!
//! # Recency-ordered sets
//!
//! Each set is one run of `ways` `u64` entries kept in recency order: the
//! most recently used line first, invalid entries ([`INVALID`]) at the
//! tail. An entry is the line address with the dirty flag in bit 63, so a
//! set is `ways` contiguous words and holds all of its replacement state —
//! there are no LRU stamps, no dirty bitmask and no victim scan:
//!
//! * a hit moves its entry to the front;
//! * a miss insert shifts the run back by one and places the new line
//!   first; the entry shifted out of the last way is the victim (an
//!   [`INVALID`] one when the set still had room);
//! * [`Cache::invalidate`] closes the gap and appends an invalid entry.
//!
//! The evictions are exactly those of the historical stamp model
//! (tag match > first invalid way > least recently stamped valid way):
//! stamps were unique and grew with every touch, so the least recently
//! stamped line is the last valid entry of the run. The golden digests
//! and the lockstep tests in `tests/proptest_cache.rs`, which replay the
//! stamp model as the oracle, pin that down. Set selection is a mask when
//! the set count is a power of two (every shipped profile), with a plain
//! `%` fallback so arbitrary `scaled()` factors stay exact.

use crate::config::{CacheConfig, CACHE_LINE};

/// Entry marking an invalid way. Real entries are line addresses, which
/// stay far below `2^40` (region bases top out at `9 << 40` bytes), with at
/// most bit 63 set on top; so no real entry equals `INVALID`, and
/// `INVALID` with its dirty bit cleared matches no line.
const INVALID: u64 = u64::MAX;

/// Dirty flag of an entry.
const DIRTY: u64 = 1 << 63;

/// [`DIRTY`] when `dirty`, else 0.
#[inline]
fn dirty_flag(dirty: bool) -> u64 {
    (dirty as u64) << 63
}

/// One cache level.
#[derive(Debug)]
pub struct Cache {
    ways: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, else `usize::MAX` to
    /// select the modulo fallback in [`Cache::set_of`].
    set_mask: usize,
    /// Per-set recency runs of `ways` entries, most recent first.
    entries: Vec<u64>,
}

/// What happened to a line evicted by an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// No line was displaced.
    None,
    /// A clean line was dropped.
    Clean(u64),
    /// A dirty line must be written back (line address).
    Dirty(u64),
}

/// Position of `line` in a recency run. Invalid entries match no line, so
/// the scan needs no validity test.
#[inline]
fn position(set: &[u64], line: u64) -> Option<usize> {
    set.iter().position(|&e| e & !DIRTY == line)
}

/// Move entry `i` to the front of the run, OR-ing in `dirty`.
///
/// The runs are short (12-20 ways), and an element loop shifts them
/// faster than `copy_within`'s `memmove` call (`point` A/B, 8 of 10 pairs).
#[inline]
fn promote(set: &mut [u64], i: usize, dirty: bool) {
    let entry = set[i] | dirty_flag(dirty);
    for j in (0..i).rev() {
        set[j + 1] = set[j];
    }
    set[0] = entry;
}

/// Place `line` at the front of a run that does not hold it, shifting the
/// rest back by one; the entry shifted out of the last way is the victim.
#[inline]
fn push_front(set: &mut [u64], line: u64, dirty: bool) -> Evicted {
    let last = set.len() - 1;
    let victim = set[last];
    for j in (0..last).rev() {
        set[j + 1] = set[j];
    }
    set[0] = line | dirty_flag(dirty);
    if victim == INVALID {
        Evicted::None
    } else if victim & DIRTY != 0 {
        Evicted::Dirty(victim & !DIRTY)
    } else {
        Evicted::Clean(victim)
    }
}

impl Cache {
    /// Build a cache level from its configuration.
    pub fn new(cfg: &CacheConfig) -> Cache {
        let sets = cfg.sets();
        let ways = cfg.ways;
        let set_mask = if sets.is_power_of_two() { sets - 1 } else { usize::MAX };
        Cache { ways, sets, set_mask, entries: vec![INVALID; sets * ways] }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != usize::MAX {
            (line as usize) & self.set_mask
        } else {
            (line as usize) % self.sets
        }
    }

    /// The recency run of the set holding `line`.
    #[inline]
    fn set(&self, line: u64) -> &[u64] {
        let base = self.set_of(line) * self.ways;
        &self.entries[base..base + self.ways]
    }

    /// Mutable recency run of the set holding `line`.
    #[inline]
    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let base = self.set_of(line) * self.ways;
        &mut self.entries[base..base + self.ways]
    }

    /// Probe for `line`; on hit, make it most recent and optionally mark
    /// it dirty.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        let set = self.set_mut(line);
        match position(set, line) {
            Some(i) => {
                promote(set, i, write);
                true
            }
            None => false,
        }
    }

    /// Probe without updating replacement state (used by tests/inspection).
    pub fn contains(&self, line: u64) -> bool {
        position(self.set(line), line).is_some()
    }

    /// Insert `line` (after a miss), evicting the least recently used line
    /// if the set is full. Returns what was displaced.
    ///
    /// Refreshes the line in place if it is somehow present already
    /// (spilled victims can race their own earlier copies).
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Evicted {
        if self.access(line, dirty) {
            Evicted::None
        } else {
            push_front(self.set_mut(line), line, dirty)
        }
    }

    /// [`Cache::insert`] for a line the caller has just probed and missed,
    /// with no intervening operations on this cache: the line cannot be
    /// present, so the probe is skipped. The eviction is identical to
    /// `insert`'s.
    #[inline]
    pub fn insert_miss(&mut self, line: u64, dirty: bool) -> Evicted {
        debug_assert!(!self.contains(line), "insert_miss caller guarantees absence");
        push_front(self.set_mut(line), line, dirty)
    }

    /// Remove a line if present, reporting whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_mut(line);
        let Some(i) = position(set, line) else {
            return false;
        };
        let entry = set[i];
        let last = set.len() - 1;
        for j in i..last {
            set[j] = set[j + 1];
        }
        set[last] = INVALID;
        entry & DIRTY != 0
    }

    /// Number of currently valid lines (test helper).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e != INVALID).count()
    }

    /// Maximum number of lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Drop all contents (used between experiment repetitions).
    pub fn flush(&mut self) {
        self.entries.fill(INVALID);
    }
}
/// Per-core stream-prefetcher model: tracks up to `SLOTS` independent
/// sequential streams; a DRAM fill that continues a tracked stream is
/// considered prefetched (bandwidth-bound instead of latency-bound).
#[derive(Debug)]
pub struct StreamDetector {
    last_lines: [u64; Self::SLOTS],
    next: usize,
}

impl StreamDetector {
    /// Hardware prefetchers track a limited number of streams; 16 covers
    /// the per-core stream count of Ice Lake's L2 prefetcher.
    pub const SLOTS: usize = 16;

    /// Fresh detector with no streams.
    pub fn new() -> Self {
        StreamDetector { last_lines: [u64::MAX; Self::SLOTS], next: 0 }
    }

    /// Record a DRAM fill of `line`; returns true when the fill continues a
    /// tracked stream (i.e. would have been prefetched). Both ascending and
    /// descending streams are tracked — hardware prefetchers lock onto
    /// either direction (CrkJoin's two-pointer partitioning relies on the
    /// descending one).
    pub fn observe(&mut self, line: u64) -> bool {
        for l in &mut self.last_lines {
            // Accept strides of up to two lines in either direction:
            // prefetchers lock on even when the access skips a line.
            if *l != u64::MAX && line != *l && line.abs_diff(*l) <= 2 {
                *l = line;
                return true;
            }
        }
        self.last_lines[self.next] = line;
        self.next = (self.next + 1) % Self::SLOTS;
        false
    }

    /// Forget all streams (phase boundaries).
    pub fn reset(&mut self) {
        *self = StreamDetector::new();
    }
}

impl Default for StreamDetector {
    fn default() -> Self {
        Self::new()
    }
}

/// Convert a byte address to its cache-line address.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr / CACHE_LINE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(&CacheConfig { size: 4 * CACHE_LINE, ways: 2, latency: 1.0 })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.access(10, false));
        c.insert(10, false);
        assert!(c.access(10, false));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even lines).
        c.insert(0, false);
        c.insert(2, false);
        c.access(0, false); // 0 now MRU, 2 is LRU
        let ev = c.insert(4, false);
        assert_eq!(ev, Evicted::Clean(2));
        assert!(c.contains(0));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(2, false);
        c.access(2, false);
        let ev = c.insert(4, false);
        assert_eq!(ev, Evicted::Dirty(0));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.access(0, true));
        c.insert(2, false);
        c.access(2, false);
        assert_eq!(c.insert(4, false), Evicted::Dirty(0));
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for line in 0..100 {
            c.insert(line, line % 3 == 0);
            assert!(c.occupancy() <= c.capacity_lines());
        }
        assert_eq!(c.occupancy(), c.capacity_lines());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(1, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1));
        assert!(!c.invalidate(99));
        assert!(!c.contains(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(1, true);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn reinserting_present_line_does_not_evict() {
        let mut c = tiny();
        c.insert(0, false);
        c.insert(2, false);
        assert_eq!(c.insert(0, true), Evicted::None);
        assert!(c.contains(2));
    }

    #[test]
    fn stream_detector_tracks_sequential() {
        let mut d = StreamDetector::new();
        assert!(!d.observe(100));
        assert!(d.observe(101));
        assert!(d.observe(102));
        assert!(d.observe(104)); // stride-2 tolerated
        assert!(!d.observe(200)); // new stream
        assert!(d.observe(201));
        // Old stream still tracked.
        assert!(d.observe(105));
    }

    #[test]
    fn stream_detector_tracks_descending() {
        let mut d = StreamDetector::new();
        assert!(!d.observe(1000));
        assert!(d.observe(999));
        assert!(d.observe(998));
        assert!(d.observe(996)); // stride-2 down
    }

    #[test]
    fn stream_detector_capacity_bounded() {
        let mut d = StreamDetector::new();
        // Start more streams than slots; earliest stream gets evicted.
        for s in 0..(StreamDetector::SLOTS as u64 + 4) {
            assert!(!d.observe(s * 1000));
        }
        // Stream 0 was evicted, continuing it is a miss first.
        assert!(!d.observe(1));
    }

    #[test]
    fn random_accesses_not_streams() {
        let mut d = StreamDetector::new();
        let mut x: u64 = 12345;
        let mut hits = 0;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if d.observe(x >> 20) {
                hits += 1;
            }
        }
        assert!(hits < 20, "random pattern detected as stream too often: {hits}");
    }
}
