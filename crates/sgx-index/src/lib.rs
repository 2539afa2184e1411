//! # sgx-index — cache-conscious B+-tree substrate
//!
//! The paper's INL join ("Index Nested Loop Join \[24\] uses an existing
//! B-Tree index to find matching tuples") needs an index structure. This
//! crate provides a static, bulk-loaded B+-tree whose nodes are exactly one
//! cache line (16 × u32 separators for inner nodes, 8 × 8-byte rows for
//! leaves), laid out level by level in [`SimVec`] storage so probes charge
//! the simulator realistically: upper levels become cache-resident, leaf
//! accesses are dependent DRAM loads — the access pattern that determines
//! INL's enclave behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sgx_sim::{Core, Machine, SimVec};

/// Keys per inner node: 16 × u32 = one 64-byte cache line.
pub const INNER_FANOUT: usize = 16;
/// Rows per leaf node: 8 × 8 bytes = one 64-byte cache line.
pub const LEAF_FANOUT: usize = 8;

/// An 8-byte `(key, payload)` row, the tuple format of all join inputs
/// (§4: "rows with a 32-bit key ... and a 32-bit value").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRow {
    /// Join key.
    pub key: u32,
    /// Tuple payload (row id).
    pub payload: u32,
}

/// Static B+-tree: a sorted leaf array plus a hierarchy of separator
/// levels (CSS-tree layout). `levels\[0\]` is the root level; each inner
/// node stores the *first key* of each child node.
pub struct BPlusTree {
    /// Sorted rows, grouped into `LEAF_FANOUT`-row leaf nodes.
    leaves: SimVec<IndexRow>,
    /// Separator levels, root (smallest) first. Separator slots beyond the
    /// real child count are padded with `u32::MAX`.
    levels: Vec<SimVec<u32>>,
    n_rows: usize,
}

impl BPlusTree {
    /// Bulk-load a tree from rows that the caller guarantees are sorted by
    /// key (duplicates allowed). Storage is allocated in the machine's
    /// current default data region; the load itself is uncharged (the
    /// paper treats the INL index as pre-existing).
    pub fn bulk_load(machine: &mut Machine, sorted: &[IndexRow]) -> BPlusTree {
        assert!(
            sorted.windows(2).all(|w| w[0].key <= w[1].key),
            "bulk_load requires key-sorted input"
        );
        assert!(
            sorted.last().is_none_or(|r| r.key < u32::MAX),
            "u32::MAX is reserved as the node padding sentinel"
        );
        let n = sorted.len();
        let n_leaves = n.div_ceil(LEAF_FANOUT).max(1);
        let mut leaves = machine.alloc::<IndexRow>(n_leaves * LEAF_FANOUT);
        for (i, row) in sorted.iter().enumerate() {
            leaves.poke(i, *row);
        }
        // Pad the final leaf with MAX keys so scans terminate.
        for i in n..n_leaves * LEAF_FANOUT {
            leaves.poke(i, IndexRow { key: u32::MAX, payload: 0 });
        }

        // Build separator levels bottom-up until one node remains.
        let mut levels_rev: Vec<SimVec<u32>> = Vec::new();
        // First keys of each leaf node.
        let mut child_firsts: Vec<u32> =
            (0..n_leaves).map(|l| leaves.peek(l * LEAF_FANOUT).key).collect();
        while child_firsts.len() > 1 {
            let n_nodes = child_firsts.len().div_ceil(INNER_FANOUT);
            let mut level = machine.alloc::<u32>(n_nodes * INNER_FANOUT);
            for i in 0..n_nodes * INNER_FANOUT {
                level.poke(i, *child_firsts.get(i).unwrap_or(&u32::MAX));
            }
            child_firsts = (0..n_nodes).map(|nd| level.peek(nd * INNER_FANOUT)).collect();
            levels_rev.push(level);
        }
        levels_rev.reverse();
        BPlusTree { leaves, levels: levels_rev, n_rows: n }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the tree indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Tree height in levels (inner levels + the leaf level).
    pub fn height(&self) -> usize {
        self.levels.len() + 1
    }

    /// Charged point lookup: returns the payload of the first row with
    /// `key`, descending the tree as a dependent load chain (each node read
    /// waits for the previous level's result).
    pub fn get(&self, core: &mut Core<'_>, key: u32) -> Option<u32> {
        let mut hit = None;
        self.for_each_match(core, key, |p| {
            if hit.is_none() {
                hit = Some(p);
            }
            // Stop after the first match by returning false.
            false
        });
        hit
    }

    /// Charged lookup invoking `f(payload)` for every row matching `key`
    /// (in key order); `f` returns whether to continue after a match.
    pub fn for_each_match(&self, core: &mut Core<'_>, key: u32, mut f: impl FnMut(u32) -> bool) {
        if self.n_rows == 0 || key == u32::MAX {
            return;
        }
        let mut node = 0usize;
        core.dependent(|c| {
            for level in &self.levels {
                // One cache-line node: a single charged load covers it, the
                // in-line separator comparisons are ALU work.
                let base = node * INNER_FANOUT;
                let _ = level.get(c, base);
                c.compute(6);
                // Strict `<` picks the first child that can contain `key`,
                // so duplicate runs straddling node boundaries start at
                // their first occurrence.
                let mut child = 0usize;
                for s in 1..INNER_FANOUT {
                    if level.peek(base + s) < key {
                        child = s;
                    } else {
                        break;
                    }
                }
                node = node * INNER_FANOUT + child;
            }
        });
        // Leaf scan: the first leaf line is part of the dependent chain;
        // duplicate runs continue into following lines (sequential).
        let n_leaves = self.leaves.len() / LEAF_FANOUT;
        let mut leaf = node.min(n_leaves.saturating_sub(1));
        'outer: loop {
            let base = leaf * LEAF_FANOUT;
            core.dependent(|c| {
                let _ = self.leaves.get(c, base);
            });
            core.compute(4);
            let mut saw_greater = false;
            for s in 0..LEAF_FANOUT {
                let row = self.leaves.peek(base + s);
                if row.key == key {
                    if !f(row.payload) {
                        break 'outer;
                    }
                } else if row.key > key {
                    saw_greater = true;
                    break;
                }
            }
            if saw_greater || leaf + 1 >= n_leaves {
                break;
            }
            leaf += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::{Machine, Setting};

    fn machine() -> Machine {
        Machine::new(scaled_profile(), Setting::PlainCpu)
    }

    fn rows(keys: &[u32]) -> Vec<IndexRow> {
        keys.iter().map(|&k| IndexRow { key: k, payload: k.wrapping_mul(7) }).collect()
    }

    #[test]
    fn lookup_finds_every_loaded_key() {
        let mut m = machine();
        let keys: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let tree = BPlusTree::bulk_load(&mut m, &rows(&keys));
        m.run(|c| {
            for &k in &keys {
                assert_eq!(tree.get(c, k), Some(k.wrapping_mul(7)), "key {k}");
            }
            assert_eq!(tree.get(c, 1), None);
            assert_eq!(tree.get(c, 29_998), None);
            // The padding sentinel never matches real rows.
            assert_eq!(tree.get(c, u32::MAX), None);
        });
        assert!(m.wall_cycles() > 0.0);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let mut m = machine();
        let empty = BPlusTree::bulk_load(&mut m, &[]);
        assert!(empty.is_empty());
        let one = BPlusTree::bulk_load(&mut m, &rows(&[42]));
        assert_eq!(one.height(), 1);
        m.run(|c| {
            assert_eq!(empty.get(c, 5), None);
            assert_eq!(one.get(c, 42), Some(42u32.wrapping_mul(7)));
            assert_eq!(one.get(c, 41), None);
        });
    }

    #[test]
    fn duplicates_are_all_visited_in_order() {
        let mut m = machine();
        let mut input = rows(&[1, 5, 5, 5, 9]);
        // Distinguish the duplicate payloads.
        for (i, r) in input.iter_mut().enumerate() {
            r.payload = i as u32;
        }
        let tree = BPlusTree::bulk_load(&mut m, &input);
        m.run(|c| {
            let mut seen = Vec::new();
            tree.for_each_match(c, 5, |p| {
                seen.push(p);
                true
            });
            assert_eq!(seen, vec![1, 2, 3]);
        });
    }

    #[test]
    fn duplicate_run_across_leaf_boundary() {
        let mut m = machine();
        // 20 copies of the same key span multiple 8-row leaves.
        let mut input: Vec<IndexRow> = Vec::new();
        input.extend((0..4).map(|i| IndexRow { key: 1, payload: i }));
        input.extend((0..20).map(|i| IndexRow { key: 7, payload: 100 + i }));
        input.push(IndexRow { key: 9, payload: 999 });
        let tree = BPlusTree::bulk_load(&mut m, &input);
        m.run(|c| {
            let mut n = 0;
            tree.for_each_match(c, 7, |p| {
                assert_eq!(p, 100 + n);
                n += 1;
                true
            });
            assert_eq!(n, 20);
        });
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut m = machine();
        let small = BPlusTree::bulk_load(&mut m, &rows(&(0..100).collect::<Vec<_>>()));
        let big = BPlusTree::bulk_load(&mut m, &rows(&(0..100_000).collect::<Vec<_>>()));
        assert!(big.height() > small.height());
        // 100k rows / 8 per leaf = 12.5k leaves; fanout 16 ⇒ 4 inner
        // levels (ceil log16 of 12.5k = 4) + leaf level.
        assert_eq!(big.height(), 5);
    }

    #[test]
    #[should_panic(expected = "key-sorted")]
    fn rejects_unsorted_input() {
        let mut m = machine();
        BPlusTree::bulk_load(&mut m, &rows(&[3, 1, 2]));
    }

    #[test]
    fn probes_charge_dependent_latency() {
        let mut m = machine();
        let keys: Vec<u32> = (0..200_000).collect(); // leaves >> scaled L3
        let tree = BPlusTree::bulk_load(&mut m, &rows(&keys));
        let cold = m.run(|c| {
            let mut x = 1u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                tree.get(c, (x >> 40) as u32 % 200_000);
            }
            c.busy_cycles()
        });
        // ≥ one DRAM latency per probe on average.
        assert!(cold / 1000.0 > 200.0, "per-probe cost too low: {}", cold / 1000.0);
    }
}
