//! Randomized lockstep tests for the recency-ordered cache model
//! (`cache.rs`).
//!
//! `Cache` keeps each set as one run of entries in recency order (most
//! recent first, invalid entries at the tail, the dirty flag in bit 63 of
//! each entry) and picks the victim as the last entry of the run. The
//! oracle here is the historical stamp model, written out naively:
//! parallel `tags`/`lru`/`dirty` arrays, a stamp bumped on every probe and
//! insert, and the literal three-pass victim selection (tag match > first
//! invalid way > first minimal-stamp valid way). Both are driven through
//! randomized operation streams in lockstep, and every return value —
//! hits, evictions and their dirtiness, invalidation reports, occupancy —
//! must agree at every step. The geometries cover contended toy sets, the
//! shipped hot geometries (golden and /16-scaled L1/L2/L3), non-power-of-
//! two set counts, direct-mapped and wider-than-64-way sets, and line
//! addresses near the top region, where the dirty bit and the invalid
//! sentinel share a word with the line. Dependency-free: randomness comes
//! from a seeded LCG, so every run replays the same operation streams.

use sgx_sim::cache::{Cache, Evicted, StreamDetector};
use sgx_sim::config::{xeon_gold_6326, CacheConfig, CACHE_LINE};

/// Deterministic LCG (same constants as `sgx_microbench::random_write`).
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 16
}

/// Naive reference model: the historical cache implementation with
/// parallel `tags`/`lru`/`dirty` arrays and the literal three-pass victim
/// selection. Deliberately simple — correctness is obvious by inspection.
struct RefCache {
    ways: usize,
    sets: usize,
    tags: Vec<Option<u64>>,
    lru: Vec<u64>,
    dirty: Vec<bool>,
    stamp: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache {
            ways: cfg.ways,
            sets,
            tags: vec![None; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            dirty: vec![false; sets * cfg.ways],
            stamp: 0,
        }
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let s = (line as usize) % self.sets;
        s * self.ways..(s + 1) * self.ways
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        self.stamp += 1;
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.lru[i] = self.stamp;
                self.dirty[i] |= write;
                return true;
            }
        }
        false
    }

    fn contains(&self, line: u64) -> bool {
        self.set_range(line).any(|i| self.tags[i] == Some(line))
    }

    fn insert(&mut self, line: u64, dirty: bool) -> Evicted {
        self.stamp += 1;
        // Pass 1: refresh a present line.
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.lru[i] = self.stamp;
                self.dirty[i] |= dirty;
                return Evicted::None;
            }
        }
        // Pass 2: first invalid way.
        // Pass 3: first strict-minimum LRU among valid ways.
        let range = self.set_range(line);
        let victim = range
            .clone()
            .find(|&i| self.tags[i].is_none())
            .unwrap_or_else(|| range.clone().reduce(|a, b| if self.lru[b] < self.lru[a] { b } else { a }).unwrap());
        let evicted = match self.tags[victim] {
            None => Evicted::None,
            Some(old) if self.dirty[victim] => Evicted::Dirty(old),
            Some(old) => Evicted::Clean(old),
        };
        self.tags[victim] = Some(line);
        self.lru[victim] = self.stamp;
        self.dirty[victim] = dirty;
        evicted
    }

    fn invalidate(&mut self, line: u64) -> bool {
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.tags[i] = None;
                // The historical model did NOT reset the stale LRU word —
                // invalid ways were excluded by pass 2 instead. Keeping it
                // stale here is the point: the recency-ordered cache, which
                // closes the gap and moves an invalid entry to the tail,
                // must agree anyway.
                return std::mem::replace(&mut self.dirty[i], false);
            }
        }
        false
    }

    fn occupancy(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }

    fn flush(&mut self) {
        self.tags.fill(None);
        self.lru.fill(0);
        self.dirty.fill(false);
        self.stamp = 0;
    }
}

/// One randomized operation stream for [`lockstep`].
struct Stream {
    seed: u64,
    ops: usize,
    /// Lines are drawn from `base..base + line_space`.
    base: u64,
    line_space: u64,
    /// A drawn flush happens with probability `1 / flush_one_in` (else it
    /// is a `contains` probe), so large caches can fill between flushes.
    flush_one_in: u64,
}

impl Stream {
    fn new(seed: u64, ops: usize, line_space: u64) -> Stream {
        Stream { seed, ops, base: 0, line_space, flush_one_in: 1 }
    }
}

/// Drive the recency-ordered cache and the reference model through one
/// randomized operation stream, asserting observable agreement at every
/// step.
fn lockstep(cfg: &CacheConfig, st: &Stream) {
    let seed = st.seed;
    let mut cache = Cache::new(cfg);
    let mut model = RefCache::new(cfg);
    let mut x = seed | 1;
    for op in 0..st.ops {
        let line = st.base + lcg(&mut x) % st.line_space;
        let dirty = lcg(&mut x).is_multiple_of(2);
        match lcg(&mut x) % 100 {
            // Probes dominate, like the real resolve path.
            0..=44 => {
                assert_eq!(
                    cache.access(line, dirty),
                    model.access(line, dirty),
                    "op {op}: access({line}, write={dirty}) diverged (seed {seed})"
                );
            }
            45..=84 => {
                // insert_miss is insert with the caller-proven-absent
                // shortcut; exercising it against the reference's full
                // insert IS the equivalence claim from the module docs.
                let miss = !cache.contains(line) && lcg(&mut x).is_multiple_of(2);
                let got = if miss { cache.insert_miss(line, dirty) } else { cache.insert(line, dirty) };
                let want = model.insert(line, dirty);
                assert_eq!(got, want, "op {op}: insert({line}, dirty={dirty}) diverged (seed {seed}, miss-path {miss})");
            }
            85..=94 => {
                assert_eq!(
                    cache.invalidate(line),
                    model.invalidate(line),
                    "op {op}: invalidate({line}) diverged (seed {seed})"
                );
            }
            95..=97 => {
                assert_eq!(cache.contains(line), model.contains(line), "op {op}: contains({line}) diverged (seed {seed})");
            }
            _ if st.flush_one_in > 1 && !lcg(&mut x).is_multiple_of(st.flush_one_in) => {
                assert_eq!(cache.contains(line), model.contains(line), "op {op}: contains({line}) diverged (seed {seed})");
            }
            _ => {
                cache.flush();
                model.flush();
            }
        }
        if op % 64 == 0 {
            assert_eq!(cache.occupancy(), model.occupancy(), "op {op}: occupancy diverged (seed {seed})");
        }
    }
    // Final state sweep: membership must agree line-for-line.
    for line in st.base..st.base + st.line_space {
        assert_eq!(cache.contains(line), model.contains(line), "final contains({line}) diverged (seed {seed})");
    }
    assert_eq!(cache.occupancy(), model.occupancy(), "final occupancy diverged (seed {seed})");
}

/// Small geometry with heavy set contention: every victim-selection path
/// is hit constantly.
#[test]
fn packed_cache_matches_three_pass_reference_small() {
    let cfg = CacheConfig { size: 4 * 4 * CACHE_LINE, ways: 4, latency: 1.0 };
    for seed in [1, 0xBEEF, 0xC0FFEE, 0x5EED5EED] {
        lockstep(&cfg, &Stream::new(seed, 40_000, 64));
    }
}

/// Power-of-two set count at L2-like geometry (mask-based set selection).
#[test]
fn packed_cache_matches_three_pass_reference_pow2() {
    let cfg = CacheConfig { size: 64 * 20 * CACHE_LINE, ways: 20, latency: 1.0 };
    lockstep(&cfg, &Stream::new(0xDEAD_BEEF, 60_000, 64 * 20 * 3));
}

/// Non-power-of-two set count (modulo fallback, e.g. odd `scaled()`
/// factors), a ways=1 degenerate geometry, and sets wider than 64 ways.
#[test]
fn packed_cache_matches_three_pass_reference_odd_geometries() {
    let odd = CacheConfig { size: 3 * 5 * CACHE_LINE, ways: 5, latency: 1.0 };
    lockstep(&odd, &Stream::new(7, 40_000, 48));
    let direct = CacheConfig { size: 8 * CACHE_LINE, ways: 1, latency: 1.0 };
    lockstep(&direct, &Stream::new(11, 20_000, 32));
    let wide = CacheConfig { size: 2 * 80 * CACHE_LINE, ways: 80, latency: 1.0 };
    lockstep(&wide, &Stream::new(13, 40_000, 2 * 80 * 3 / 2));
}

/// The geometries the figures and the benchmark run on: the golden
/// profile's L1 (1 set x 12 ways), L2 (2 x 20) and L3 (64 x 12), and the
/// /16-scaled L3 (2048 x 12). Line spaces are ~1.5x capacity so sets fill
/// and evict; the large L3 flushes rarely so it can fill at all.
#[test]
fn packed_cache_matches_three_pass_reference_shipped_geometries() {
    let golden = xeon_gold_6326().scaled(512);
    let scaled = xeon_gold_6326().scaled(16);
    for (cfg, ops, flush_one_in) in [
        (&golden.l1d, 40_000, 1),
        (&golden.l2, 40_000, 1),
        (&golden.l3, 60_000, 8),
        (&scaled.l3, 200_000, 1_000),
    ] {
        let capacity = (cfg.sets() * cfg.ways) as u64;
        let st = Stream { flush_one_in, ..Stream::new(0x5E7 ^ capacity, ops, capacity * 3 / 2) };
        lockstep(cfg, &st);
    }
}

/// Line addresses near the top region (`9 << 40` bytes = line `9 << 34`):
/// the entry stores the dirty flag in bit 63 beside the line, and the
/// invalid sentinel is all ones; neither may alias a real line there.
#[test]
fn packed_cache_matches_three_pass_reference_top_region() {
    let top = 9u64 << 34;
    let small = CacheConfig { size: 4 * 4 * CACHE_LINE, ways: 4, latency: 1.0 };
    lockstep(&small, &Stream { base: top, ..Stream::new(0x709, 40_000, 64) });
    let l3 = xeon_gold_6326().scaled(512).l3;
    lockstep(&l3, &Stream { base: top - 64 * 6, flush_one_in: 8, ..Stream::new(0x70A, 60_000, 64 * 12 * 3 / 2) });
}

/// LRU ordering: after touching a full set in a known order, inserts must
/// evict in exactly that order (oldest stamp first).
#[test]
fn lru_evicts_in_recency_order() {
    let ways = 8u64;
    let cfg = CacheConfig { size: 2 * ways as usize * CACHE_LINE, ways: ways as usize, latency: 1.0 };
    let mut c = Cache::new(&cfg);
    let mut x = 0x1234u64;
    for round in 0..200 {
        c.flush();
        // Fill set 0 (even lines; sets = 2), then re-touch in a random order.
        let lines: Vec<u64> = (0..ways).map(|i| i * 2).collect();
        for &l in &lines {
            assert_eq!(c.insert(l, false), Evicted::None, "round {round}: filling an empty set evicts nothing");
        }
        let mut order = lines.clone();
        // Fisher-Yates with the LCG.
        for i in (1..order.len()).rev() {
            order.swap(i, (lcg(&mut x) % (i as u64 + 1)) as usize);
        }
        for &l in &order {
            assert!(c.access(l, false), "round {round}: touched line must hit");
        }
        // Fresh conflicting lines must now evict in exactly touch order.
        for (k, &expect) in order.iter().enumerate() {
            let fresh = 1000 + 2 * (round * ways + k as u64);
            assert_eq!(
                c.insert(fresh, false),
                Evicted::Clean(expect),
                "round {round}: eviction {k} must follow the recency order"
            );
        }
    }
}

/// Dirty bits survive spill cascades: chain two caches the way the
/// hierarchy spills L1 victims into L2 (`Evicted::Dirty` re-inserted
/// dirty, `Evicted::Clean` clean). Every `Dirty(line)` surfacing from the
/// bottom of the chain must correspond to a line whose last write is
/// still unflushed; cross-check against the reference-model chain.
#[test]
fn dirty_bits_propagate_through_eviction_cascades() {
    let l1cfg = CacheConfig { size: 2 * 2 * CACHE_LINE, ways: 2, latency: 1.0 };
    let l2cfg = CacheConfig { size: 4 * 4 * CACHE_LINE, ways: 4, latency: 1.0 };
    let (mut l1, mut l2) = (Cache::new(&l1cfg), Cache::new(&l2cfg));
    let (mut r1, mut r2) = (RefCache::new(&l1cfg), RefCache::new(&l2cfg));
    let mut x = 0xFEEDu64;
    let mut writebacks = 0u32;
    for op in 0..60_000 {
        let line = lcg(&mut x) % 96;
        let write = lcg(&mut x).is_multiple_of(3);
        let hit = l1.access(line, write);
        assert_eq!(hit, r1.access(line, write), "op {op}: L1 hit state diverged");
        if !hit {
            // Miss path: install into L1, spill its victim into L2, and
            // mirror the same cascade on the reference chain.
            let spill = |ev: Evicted, l2: &mut dyn FnMut(u64, bool) -> Evicted| match ev {
                Evicted::None => Evicted::None,
                Evicted::Clean(v) => l2(v, false),
                Evicted::Dirty(v) => l2(v, true),
            };
            let got = spill(l1.insert_miss(line, write), &mut |v, d| l2.insert(v, d));
            let want = spill(r1.insert(line, write), &mut |v, d| r2.insert(v, d));
            assert_eq!(got, want, "op {op}: cascade outcome diverged");
            if let Evicted::Dirty(_) = got {
                writebacks += 1;
            }
        }
    }
    assert!(writebacks > 100, "cascade test must actually produce write-backs, got {writebacks}");
}

/// `StreamDetector::observe` is a pure function of the observation
/// sequence: replaying any sequence on a fresh detector reproduces the
/// verdicts exactly, and `reset()` is indistinguishable from fresh.
#[test]
fn stream_detector_observe_is_replay_pure() {
    let mut x = 0xABCDu64;
    for trial in 0..50 {
        // Mix of sequential runs and random jumps.
        let mut seq = Vec::new();
        let mut cur = lcg(&mut x) % 10_000;
        for _ in 0..400 {
            match lcg(&mut x) % 4 {
                0 => cur = lcg(&mut x) % 10_000,
                1 => cur = cur.saturating_sub(1 + lcg(&mut x) % 2),
                _ => cur += 1 + lcg(&mut x) % 2,
            }
            seq.push(cur);
        }
        let mut a = StreamDetector::new();
        let va: Vec<bool> = seq.iter().map(|&l| a.observe(l)).collect();
        let mut b = StreamDetector::new();
        let vb: Vec<bool> = seq.iter().map(|&l| b.observe(l)).collect();
        assert_eq!(va, vb, "trial {trial}: fresh replay diverged");
        // A reset detector must behave exactly like a fresh one, however
        // polluted it was before.
        a.reset();
        let vc: Vec<bool> = seq.iter().map(|&l| a.observe(l)).collect();
        assert_eq!(va, vc, "trial {trial}: reset() is not equivalent to fresh");
    }
}
