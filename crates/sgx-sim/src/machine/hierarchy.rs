//! Hierarchy layer: the L1/L2/L3 walk, TLB, installs/spills/write-backs,
//! and the per-socket DRAM bandwidth cap.
//
// sgx-lint: fault-tick-module
// sgx-lint: charge-module

use crate::cache::Evicted;
use crate::config::{CACHE_LINE, PAGE_SIZE};
use crate::mem::{ExecMode, Region};
use crate::profile::CostCategory;

use super::core::{Charge, Tally};
use super::{
    AccessCost, AccessKind, Core, Machine, L1_STREAM_LINE, L2_STREAM_LINE, L3_STREAM_LINE,
    PREFETCHED_NEAR,
};

/// Cache level an access hit in (DRAM fills return early).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HitLevel {
    L1,
    L2,
    L3,
}

/// Accumulated outcome of a same-region stream run (the fast path of
/// `Core::stream_touch`): the per-line cost fold plus the per-category
/// partial sums the pooled charge's dominant-category pick is built from.
#[derive(Debug, Clone, Copy)]
pub(super) struct StreamRun {
    /// Sum of per-line costs, folded in line order.
    pub total: f64,
    /// Portion of `total` served by caches (folded in line order).
    pub cache_sum: f64,
    /// Portion of `total` served by DRAM (folded in line order).
    pub dram_sum: f64,
    /// Attribution category of DRAM-served lines (fixed per run: the
    /// region, execution mode, and socket are run invariants).
    pub dram_cat: CostCategory,
    /// True when at least one line came from DRAM.
    pub any_dram: bool,
}

impl Machine {
    /// Cycles the per-socket DRAM bus needs to move `bytes` — the
    /// shared-resource floor `finish_phase` regulates against.
    pub(super) fn dram_cap(&self, bytes: f64) -> f64 {
        bytes * self.cfg.mem.socket_bw_cycles_per_byte
    }
}

impl<'m> Core<'m> {
    /// Walk the cache hierarchy for one line; fills caches and accounts
    /// bandwidth. `stream` forces the prefetched-fill cost (explicit
    /// sequential APIs).
    pub(super) fn resolve_line(&mut self, line: u64, kind: AccessKind, stream: bool) -> AccessCost {
        let write = kind != AccessKind::Load;
        let addr = line * CACHE_LINE as u64;
        let region = Region::of_addr(addr);
        self.pre_touch(addr, region);
        let walk = self.tlb_walk(addr);

        let cfg = &self.m.cfg;
        let (l1_lat, l2_lat, l3_lat) = (cfg.l1d.latency, cfg.l2.latency, cfg.l3.latency);
        let hw = &mut self.m.cores[self.id];
        let level;
        if hw.l1.access(line, write) {
            self.m.counters.l1_hits += 1;
            level = HitLevel::L1;
        } else if hw.l2.access(line, write) {
            self.m.counters.l2_hits += 1;
            level = HitLevel::L2;
            self.install_l1(line, write);
        } else if self.m.l3[self.socket].access(line, write) {
            self.m.counters.l3_hits += 1;
            level = HitLevel::L3;
            self.install_l1(line, write);
        } else {
            // DRAM fill.
            self.m.counters.dram_fills += 1;
            let prefetched = stream || self.m.cores[self.id].streams.observe(line);
            if prefetched {
                self.m.counters.prefetched_fills += 1;
            }
            let remote = region.node() != self.socket;
            if remote {
                self.remote_fill();
            }
            let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
            if enc {
                self.m.counters.epc_fills += 1;
            }
            self.dram_bytes[region.node()] += self.line_bus_bytes(enc, false);
            // Install bottom-up so evictions cascade.
            self.install_l3(line, write);
            self.install_l1(line, write);
            // Attribution: the fill's dominant latency source — MEE
            // decryption beats the UPI hop (uce extras ride on the MEE
            // path), which beats plain DRAM.
            let cat = if enc {
                CostCategory::Mee
            } else if remote {
                CostCategory::Upi
            } else {
                CostCategory::Dram
            };
            let cfg = &self.m.cfg;
            let cost = if prefetched {
                let mut per_line = cfg.mem.stream_line_cycles;
                if remote {
                    per_line += cfg.upi.remote_stream_extra;
                    if enc {
                        per_line += cfg.upi.uce_stream_extra;
                    }
                }
                if enc {
                    per_line *= if write {
                        cfg.mem.mee_stream_write_factor
                    } else {
                        cfg.mem.mee_stream_factor
                    };
                }
                if write {
                    per_line += cfg.mem.writeback_line_cycles;
                    // Write-allocate: the eventual write-back consumes
                    // bandwidth too.
                    self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
                    if remote {
                        self.upi_line();
                    }
                }
                return AccessCost {
                    near: PREFETCHED_NEAR,
                    far: per_line + walk,
                    serial_load: false,
                    cat,
                };
            } else {
                let mut far = cfg.mem.dram_latency - cfg.l3.latency + walk;
                if remote {
                    far += cfg.upi.remote_latency;
                }
                if enc {
                    far += cfg.mem.mee_fill_latency;
                    if remote {
                        far += cfg.upi.uce_latency;
                    }
                    if write {
                        far += cfg.mem.mee_write_penalty;
                    }
                }
                AccessCost { near: cfg.l3.latency, far, serial_load: kind == AccessKind::Rmw, cat }
            };
            return cost;
        }
        let near = match level {
            HitLevel::L1 => l1_lat,
            HitLevel::L2 => l2_lat,
            HitLevel::L3 => l3_lat,
        };
        AccessCost {
            near,
            far: walk,
            serial_load: kind == AccessKind::Rmw,
            cat: CostCategory::Cache,
        }
    }

    /// Per-line cost of a stream access through the hierarchy; the flag
    /// reports whether the line came from DRAM, and the category names the
    /// level/region that served it (for profile attribution).
    pub(super) fn resolve_stream_line(
        &mut self,
        line: u64,
        kind: AccessKind,
    ) -> (f64, bool, CostCategory) {
        let write = kind != AccessKind::Load;
        let addr = line * CACHE_LINE as u64;
        let region = Region::of_addr(addr);
        self.pre_touch(addr, region);
        // Page walks on stream paths overlap well (one per 64 lines);
        // charge them pooled like the rest of the line cost.
        let walk = self.tlb_walk(addr) / self.m.cfg.mem.mlp_native;
        let hw = &mut self.m.cores[self.id];
        if hw.l1.access(line, write) {
            self.m.counters.l1_hits += 1;
            return (L1_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        if hw.l2.access(line, write) {
            self.m.counters.l2_hits += 1;
            self.install_l1(line, write);
            return (L2_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        if self.m.l3[self.socket].access(line, write) {
            self.m.counters.l3_hits += 1;
            self.install_l1(line, write);
            return (L3_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        self.m.counters.dram_fills += 1;
        self.m.counters.prefetched_fills += 1;
        let remote = region.node() != self.socket;
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        if enc {
            self.m.counters.epc_fills += 1;
        }
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, false);
        if remote {
            self.remote_fill();
        }
        self.install_l3(line, write);
        self.install_l1(line, write);
        let cfg = &self.m.cfg;
        let mut per_line = cfg.mem.stream_line_cycles;
        if remote {
            per_line += cfg.upi.remote_stream_extra;
            if enc {
                per_line += cfg.upi.uce_stream_extra;
            }
        }
        if enc {
            per_line *= if write {
                cfg.mem.mee_stream_write_factor
            } else {
                cfg.mem.mee_stream_factor
            };
        }
        if write {
            per_line += cfg.mem.writeback_line_cycles;
            self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
            if remote {
                self.upi_line();
            }
        }
        let cat = if enc {
            CostCategory::Mee
        } else if remote {
            CostCategory::Upi
        } else {
            CostCategory::Dram
        };
        (per_line + walk, true, cat)
    }

    /// Resolve a run of `lines` consecutive same-region cache lines — the
    /// stream fast path. One region classification and one set of hoisted
    /// per-line cost constants serve the whole run; the per-line float
    /// fold (`total += c`, plus the per-category partial sums the pooled
    /// charge's dominant-category pick needs) happens in exactly the order
    /// of the per-line slow path, [`Core::resolve_stream_line`], so the
    /// two produce bit-identical state. Selection (see
    /// [`Core::stream_touch`]) guarantees the hoists are invariant:
    /// no fault engine is installed (an AEX could flush the TLB/L1 or a
    /// balloon could install a pager mid-run) and the run never crosses a
    /// region boundary.
    ///
    /// The TLB is probed once per page instead of once per line: a probe
    /// of a just-filled page is a hit with zero cost and no state change,
    /// so skipping it is exact (nothing else touches the TLB mid-run).
    pub(super) fn resolve_stream_run(&mut self, first: u64, lines: u64, write: bool) -> StreamRun {
        let region = Region::of_addr(first * CACHE_LINE as u64);
        let node = region.node();
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        let remote = node != self.socket;
        // EDMM/pager checks only ever fire for enclave-mode EPC touches;
        // hoisting the arming test keeps `pre_touch`'s per-line order when
        // it can matter and skips the call entirely when it cannot.
        let armed = enc && (self.m.sealed || self.m.pager.is_some());
        let cfg = &self.m.cfg;
        let mlp = cfg.mem.mlp_native;
        let mut per_line = cfg.mem.stream_line_cycles;
        if remote {
            per_line += cfg.upi.remote_stream_extra;
            if enc {
                per_line += cfg.upi.uce_stream_extra;
            }
        }
        if enc {
            per_line *= if write {
                cfg.mem.mee_stream_write_factor
            } else {
                cfg.mem.mee_stream_factor
            };
        }
        if write {
            per_line += cfg.mem.writeback_line_cycles;
        }
        let dram_cat = if enc {
            CostCategory::Mee
        } else if remote {
            CostCategory::Upi
        } else {
            CostCategory::Dram
        };
        let fill_bytes = self.line_bus_bytes(enc, false);
        let wb_bytes = self.line_bus_bytes(enc, true);
        let mut run =
            StreamRun { total: 0.0, cache_sum: 0.0, dram_sum: 0.0, dram_cat, any_dram: false };
        let mut cur_page = u64::MAX;
        for line in first..first + lines {
            let addr = line * CACHE_LINE as u64;
            if armed {
                self.pre_touch(addr, region);
            }
            // First touch of a page pays the (possibly zero) walk; later
            // lines of the same page would probe the now-present entry.
            let page = addr / PAGE_SIZE as u64;
            let walk = if page != cur_page {
                cur_page = page;
                self.tlb_walk(addr) / mlp
            } else {
                0.0
            };
            let hw = &mut self.m.cores[self.id];
            let c;
            let mut dram = false;
            if hw.l1.access(line, write) {
                self.m.counters.l1_hits += 1;
                c = L1_STREAM_LINE + walk;
            } else if hw.l2.access(line, write) {
                self.m.counters.l2_hits += 1;
                self.install_l1(line, write);
                c = L2_STREAM_LINE + walk;
            } else if self.m.l3[self.socket].access(line, write) {
                self.m.counters.l3_hits += 1;
                self.install_l1(line, write);
                c = L3_STREAM_LINE + walk;
            } else {
                self.m.counters.dram_fills += 1;
                self.m.counters.prefetched_fills += 1;
                if enc {
                    self.m.counters.epc_fills += 1;
                }
                self.dram_bytes[node] += fill_bytes;
                if remote {
                    self.remote_fill();
                }
                self.install_l3(line, write);
                self.install_l1(line, write);
                if write {
                    self.dram_bytes[node] += wb_bytes;
                    if remote {
                        self.upi_line();
                    }
                }
                c = per_line + walk;
                dram = true;
            }
            run.total += c;
            if dram {
                run.dram_sum += c;
                run.any_dram = true;
            } else {
                run.cache_sum += c;
            }
        }
        run
    }

    /// Probe the per-core TLB for `addr`'s page; returns the page-walk
    /// cycles (0 on a hit). Walks are pooled with the far/DRAM portion of
    /// the access (they overlap with other outstanding misses).
    #[inline]
    pub(super) fn tlb_walk(&mut self, addr: u64) -> f64 {
        let page = addr / PAGE_SIZE as u64;
        let hw = &mut self.m.cores[self.id];
        let slot = hw.tlb_fm.rem(page) as usize;
        if hw.tlb[slot] == page {
            0.0
        } else {
            hw.tlb[slot] = page;
            // sgx-lint: allow(charge-escape) TLB-walk bookkeeping counted at the walk itself; its cycle cost is returned to the caller and committed there
            self.m.counters.tlb_misses += 1;
            self.m.cfg.mem.tlb_walk_cycles
        }
    }

    fn install_l1(&mut self, line: u64, dirty: bool) {
        // Every install follows this resolve's own L1 probe miss of the
        // same line, with only L2/L3 work in between — the rescan-free
        // insert applies.
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l1.insert_miss(line, dirty) {
            self.spill_l2(v);
        }
    }

    fn spill_l2(&mut self, victim: u64) {
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l2.insert(victim, true) {
            self.spill_l3(v);
        }
    }

    fn install_l3(&mut self, line: u64, dirty: bool) {
        // Only reached on the DRAM path: both the L2 and L3 probes of
        // `line` just missed, and the only same-cache op in between — the
        // L3 insert of the L2's dirty victim — inserts a *different* line,
        // so `line` is still absent from both and the rescan-free insert
        // applies (the victim is read off the set at call time).
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l2.insert_miss(line, dirty) {
            if let Evicted::Dirty(v2) = self.m.l3[self.socket].insert(v, true) {
                self.writeback(v2);
            }
        }
        if let Evicted::Dirty(v) = self.m.l3[self.socket].insert_miss(line, dirty) {
            self.writeback(v);
        }
    }

    fn spill_l3(&mut self, victim: u64) {
        if let Evicted::Dirty(v) = self.m.l3[self.socket].insert(victim, true) {
            self.writeback(v);
        }
    }

    /// Account a dirty L3 eviction: write-back bandwidth plus a small
    /// latency share folded into the evicting access.
    fn writeback(&mut self, line: u64) {
        self.m.counters.writebacks += 1;
        let region = Region::of_addr(line * CACHE_LINE as u64);
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        let remote = region.node() != self.socket;
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
        if remote {
            self.upi_line();
        }
        let cat = if enc {
            CostCategory::Mee
        } else if remote {
            CostCategory::Upi
        } else {
            CostCategory::Dram
        };
        self.commit(Charge {
            cycles: self.m.cfg.mem.writeback_line_cycles
                / self.m.cfg.mem.mlp_native.max(1.0),
            tally: Tally::Cycles(cat),
        });
    }
}
