//! Behavioural tests of the layered machine pipeline. `super` is the
//! `machine` facade, exactly as when these lived inline there.

use super::*;
use crate::config::{scaled_profile, xeon_gold_6326};
use crate::mem::{Region, SimVec};

fn machine(setting: Setting) -> Machine {
    Machine::new(scaled_profile(), setting)
}

#[test]
fn wall_advances_with_work() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1024);
    assert_eq!(m.wall_cycles(), 0.0);
    m.run(|c| {
        let mut s = 0u64;
        for i in 0..1024 {
            s = s.wrapping_add(v.get(c, i));
        }
        assert_eq!(s, 0);
    });
    assert!(m.wall_cycles() > 0.0);
}

#[test]
fn repeated_access_hits_cache_and_gets_cheaper() {
    let mut m = machine(Setting::PlainCpu);
    // 2 KB fits the scaled 3 KB L1d; access in a scrambled order so the
    // stream detector cannot kick in.
    let v = m.alloc::<u64>(256);
    let pass = |m: &mut Machine, v: &SimVec<u64>| {
        m.run(|c| {
            for k in 0..10_000usize {
                v.get(c, (k * 97) % v.len());
            }
            c.busy_cycles()
        })
    };
    let cold = pass(&mut m, &v);
    let warm = pass(&mut m, &v);
    assert!(warm < cold, "warm {warm} !< cold {cold}");
    assert!(m.counters().l1_hits > 0);
}

#[test]
fn enclave_epc_random_access_slower_than_native() {
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let mut v = m.alloc::<u64>(1 << 20); // 8 MB >> scaled L3 (1.5 MB)
        m.run(|c| {
            let mut x = 12345u64;
            for _ in 0..100_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i = (x >> 33) as usize % v.len();
                v.rmw(c, i, |e| *e += 1);
            }
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let enclave = run(Setting::SgxDataInEnclave);
    assert!(
        enclave > 1.5 * native,
        "EPC random access should be much slower: native {native}, enclave {enclave}"
    );
}

#[test]
fn streaming_is_much_cheaper_than_random_per_byte() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 20);
    let stream = m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    m.flush_caches();
    let random = m.run(|c| {
        let mut x = 9u64;
        for _ in 0..v.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.get(c, (x >> 33) as usize % v.len());
        }
        c.busy_cycles()
    });
    assert!(
        random > 3.0 * stream,
        "random {random} should dwarf stream {stream} for same element count"
    );
}

#[test]
fn groups_help_only_in_enclave_mode() {
    // The paper's Listing 1/2 pattern: scan a key array sequentially
    // and bump a cache-resident histogram per key. The naive loop
    // alternates objects every iteration and suffers the enclave
    // serialization penalty; the 8x-unrolled variant (issue groups)
    // recovers it.
    let run = |setting: Setting, grouped: bool| {
        let mut m = machine(setting);
        let mut keys = m.alloc::<u64>(16 * 1024);
        for i in 0..keys.len() {
            keys.poke(i, (i as u64).wrapping_mul(2654435761) % 512);
        }
        let mut hist = m.alloc::<u32>(512); // cache-resident
        m.run(|c| {
            if grouped {
                let mut batch = [0usize; 8];
                let mut fill = 0;
                keys.read_stream(c, 0..keys.len(), |c, _, k| {
                    batch[fill] = k as usize;
                    fill += 1;
                    if fill == 8 {
                        c.group(|c| {
                            for &i in &batch {
                                hist.rmw(c, i, |e| *e += 1);
                            }
                        });
                        fill = 0;
                    }
                });
            } else {
                keys.read_stream(c, 0..keys.len(), |c, _, k| {
                    hist.rmw(c, k as usize, |e| *e += 1);
                });
            }
        });
        m.wall_cycles()
    };
    let native_plain = run(Setting::PlainCpu, false);
    let native_grouped = run(Setting::PlainCpu, true);
    let enclave_plain = run(Setting::SgxDataInEnclave, false);
    let enclave_grouped = run(Setting::SgxDataInEnclave, true);
    // Native: grouping is irrelevant (the OOO engine already reorders).
    assert!((native_plain - native_grouped).abs() / native_plain < 0.05);
    // Enclave: ungrouped far slower; grouping recovers most of it.
    assert!(enclave_plain > 2.0 * native_plain);
    assert!(enclave_grouped < 0.6 * enclave_plain);
}

#[test]
fn same_object_increments_have_no_enclave_penalty() {
    // §4.2: "incrementing the values inside a cache-resident histogram
    // alone is not the cause of the slowdown" — an LCG-indexed
    // increment loop over one small array runs at native speed.
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let mut hist = m.alloc::<u32>(512);
        m.run(|c| {
            let mut x = 7u64;
            for _ in 0..8000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                c.compute(3);
                hist.rmw(c, (x >> 33) as usize % 512, |e| *e += 1);
            }
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let enclave = run(Setting::SgxDataInEnclave);
    assert!(
        enclave < 1.3 * native,
        "increment-only loop should be near-native: native {native}, enclave {enclave}"
    );
}

#[test]
fn data_outside_enclave_avoids_mee_but_keeps_execution_penalty() {
    // Histogram-like pattern over a large table: the execution penalty
    // (object-alternating loads) hits both SGX settings; the MEE fill
    // latency additionally hits only the data-in-enclave setting.
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let keys = m.alloc::<u64>(64 * 1024);
        let mut table = m.alloc::<u64>(1 << 20); // 8 MB >> scaled L3
        m.run(|c| {
            keys.read_stream(c, 0..keys.len(), |c, i, _| {
                let idx = (i as u64).wrapping_mul(2654435761) as usize % table.len();
                table.rmw(c, idx, |e| *e += 1);
            });
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let outside = run(Setting::SgxDataOutside);
    let inside = run(Setting::SgxDataInEnclave);
    assert!(outside > 1.2 * native, "enclave execution penalty missing");
    assert!(inside > 1.1 * outside, "MEE penalty missing");
}

#[test]
fn remote_access_slower_and_counts_upi() {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
    let local = m.alloc_on::<u64>(1 << 18, Region::Untrusted(0));
    let remote = m.alloc_on::<u64>(1 << 18, Region::Untrusted(1));
    let t_local = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            local.get(c, (x >> 33) as usize % local.len());
        }
        c.busy_cycles()
    });
    assert_eq!(m.counters().remote_fills, 0);
    let t_remote = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            remote.get(c, (x >> 33) as usize % remote.len());
        }
        c.busy_cycles()
    });
    assert!(m.counters().remote_fills > 0);
    assert!(t_remote > t_local, "remote {t_remote} !> local {t_local}");
}

#[test]
fn parallel_phase_wall_is_max_of_workers() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 16);
    let stats = m.parallel(&[0, 1, 2, 3], |c| {
        // Worker i does i+1 chunks of work.
        let n = (c.id() + 1) * 1000;
        for i in 0..n {
            v.get(c, i % v.len());
        }
    });
    assert_eq!(stats.core_cycles.len(), 4);
    let max = stats.core_cycles.iter().cloned().fold(0.0, f64::max);
    assert!(stats.wall_cycles >= max);
    assert!(stats.core_cycles[3] > stats.core_cycles[0]);
}

#[test]
fn bandwidth_regulation_caps_parallel_streams() {
    // 16 cores all streaming: aggregate demand exceeds the socket cap,
    // so wall time must exceed a single worker's busy time.
    let mut m = machine(Setting::PlainCpu);
    let vs: Vec<SimVec<u64>> = (0..16).map(|_| m.alloc::<u64>(1 << 18)).collect();
    let stats = m.parallel(&(0..16).collect::<Vec<_>>(), |c| {
        let v = &vs[c.id()];
        v.read_stream(c, 0..v.len(), |_, _, _| {});
    });
    assert!(stats.bandwidth_bound, "16 streaming cores should hit the BW cap");
}

#[test]
fn saturated_phase_wall_equals_bandwidth_bound() {
    let mut m = machine(Setting::PlainCpu);
    let vs: Vec<SimVec<u64>> = (0..16).map(|_| m.alloc::<u64>(1 << 18)).collect();
    let stats = m.parallel(&(0..16).collect::<Vec<_>>(), |c| {
        let v = &vs[c.id()];
        v.read_stream_vec(c, 0..v.len(), |_, _, _| {});
    });
    assert!(stats.bandwidth_bound);
    let bytes = 16.0 * (1u64 << 18) as f64 * 8.0;
    let bound = bytes * m.cfg().mem.socket_bw_cycles_per_byte;
    assert!(
        (stats.wall_cycles - bound).abs() / bound < 1e-9,
        "wall {} should equal the exact bandwidth bound {}",
        stats.wall_cycles,
        bound
    );
}

#[test]
fn edmm_commit_charged_once_per_page() {
    let mut m = machine(Setting::SgxDataInEnclave);
    let _static_heap = m.alloc::<u64>(1024);
    m.seal_enclave();
    let mut dyn_vec = m.alloc::<u64>(2048); // 16 KB = 4 pages
    m.run(|c| {
        for i in 0..dyn_vec.len() {
            dyn_vec.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 4);
    let w1 = m.wall_cycles();
    // Second pass: pages already committed, no further EDMM cost.
    m.run(|c| {
        for i in 0..dyn_vec.len() {
            dyn_vec.set(c, i, 2);
        }
    });
    assert_eq!(m.counters().edmm_pages, 4);
    assert!(m.wall_cycles() - w1 < w1);
}

#[test]
fn edmm_not_charged_without_seal_or_in_native() {
    let mut m = machine(Setting::SgxDataInEnclave);
    let mut v = m.alloc::<u64>(2048);
    m.run(|c| {
        for i in 0..v.len() {
            v.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 0);
    let mut m = machine(Setting::PlainCpu);
    m.seal_enclave();
    let mut v = m.alloc::<u64>(2048);
    m.run(|c| {
        for i in 0..v.len() {
            v.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 0);
}

#[test]
fn sgxv1_pager_charges_faults() {
    let cfg = xeon_gold_6326().scaled(16).sgxv1();
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    // Allocate far more than the scaled resident budget (92 MB/16 ≈ 5.75 MB).
    let v = m.alloc::<u64>(4 << 20); // 32 MB
    m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
    });
    assert!(m.counters().epc_page_faults > 0);
}

#[test]
fn tlb_misses_charged_for_page_spread_working_sets() {
    let mut m = machine(Setting::PlainCpu);
    // One value per page over far more pages than the scaled TLB (96
    // entries at 1/16 scale).
    let v = m.alloc::<u64>(512 * 512); // 2 MB = 512 pages
    let spread = m.run(|c| {
        for p in 0..512 {
            let _ = v.get(c, p * 512);
        }
        c.busy_cycles()
    });
    assert!(m.counters().tlb_misses >= 512);
    // Same number of accesses inside a few pages: no walks after the
    // first touches.
    m.flush_caches();
    let before = m.counters().tlb_misses;
    let dense = m.run(|c| {
        for k in 0..512 {
            let _ = v.get(c, (k * 7) % 512);
        }
        c.busy_cycles()
    });
    assert!(m.counters().tlb_misses - before <= 8);
    assert!(spread > dense, "page-spread accesses must cost more: {spread} vs {dense}");
}

#[test]
fn nt_store_bypasses_cache_and_halves_bus_traffic() {
    let mut m = machine(Setting::PlainCpu);
    let mut v = m.alloc::<u64>(8192);
    m.run(|c| {
        c.stream_store_line(v.addr(0));
        for k in 0..8 {
            v.poke(k, 7);
        }
    });
    // The line is not cached afterwards: the next read misses.
    let fills_before = m.counters().dram_fills;
    m.run(|c| {
        let _ = v.get(c, 0);
    });
    assert_eq!(m.counters().dram_fills, fills_before + 1, "NT store must not install");
}

#[test]
fn epc_capacity_is_enforced() {
    let mut cfg = scaled_profile();
    cfg.epc_per_socket = 1 << 20; // 1 MB EPC
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    assert!(m.try_alloc_on::<u64>(64 * 1024, Region::Epc(0)).is_some()); // 512 KB
    assert!(m.try_alloc_on::<u64>(128 * 1024, Region::Epc(0)).is_none()); // would exceed
    // The other socket's EPC and untrusted memory are unaffected.
    assert!(m.try_alloc_on::<u64>(64 * 1024, Region::Epc(1)).is_some());
    assert!(m.try_alloc_on::<u64>(10 << 20, Region::Untrusted(0)).is_some());
    assert!(m.region_used(Region::Epc(0)) <= 1 << 20);
}

#[test]
#[should_panic(expected = "EPC capacity exceeded")]
fn epc_overflow_panics_on_infallible_alloc() {
    let mut cfg = scaled_profile();
    cfg.epc_per_socket = 4096;
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    let _ = m.alloc_on::<u64>(1024, Region::Epc(0));
}

#[test]
fn transition_costs_only_in_enclave() {
    let mut m = machine(Setting::SgxDataInEnclave);
    m.ecall();
    assert!(m.wall_cycles() > 0.0);
    assert_eq!(m.counters().transitions, 2);
    let mut m = machine(Setting::PlainCpu);
    m.ecall();
    assert_eq!(m.wall_cycles(), 0.0);
    assert_eq!(m.counters().transitions, 0);
}

#[test]
fn stream_writer_charges_and_writes() {
    let mut m = machine(Setting::PlainCpu);
    let mut v = m.alloc::<u64>(4096);
    m.run(|c| {
        let mut w = v.stream_writer(0);
        for i in 0..4096u64 {
            w.push(c, i * 2);
        }
    });
    assert!(m.wall_cycles() > 0.0);
    assert_eq!(v.peek(17), 34);
    assert!(m.counters().stream_lines >= 4096 * 8 / 64);
}

#[test]
fn vec_stream_charges_fewer_issues_than_scalar() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u32>(1 << 16);
    let scalar = m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    m.flush_caches();
    let vector = m.run(|c| {
        v.read_stream_vec(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    assert!(vector < scalar, "vector {vector} !< scalar {scalar}");
}

#[test]
fn dependent_chains_serialize_natively_too() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 20);
    let pooled = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.get(c, (x >> 33) as usize % v.len());
        }
        c.busy_cycles()
    });
    m.flush_caches();
    let serial = m.run(|c| {
        c.dependent(|c| {
            let mut x = 5u64;
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                v.get(c, (x >> 33) as usize % v.len());
            }
        });
        c.busy_cycles()
    });
    assert!(serial > 2.0 * pooled, "serial {serial} !> 2x pooled {pooled}");
}

#[test]
fn run_on_pins_to_socket() {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
    let remote_core = m.cfg().cores_per_socket; // first core of socket 1
    m.run_on(remote_core, |c| {
        assert_eq!(c.socket(), 1);
    });
}

/// Drive one machine through a deterministic mixed workload — multi-line
/// stream touches of varying length and direction, random reads/writes,
/// and compute — and return its full observable state (every counter plus
/// the bit pattern of the wall clock).
fn stream_workload_state(mut m: Machine, oracle: bool) -> (String, u64) {
    m.force_stream_oracle(oracle);
    let mut v = m.alloc::<u64>(1 << 15); // 256 KB: 4096 lines, 64 pages
    m.run(|c| {
        let mut x = 0x5EED_CAFEu64 | 1;
        for i in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let lines = 1 + (x >> 7) % 24;
            let start_line = (x >> 33) % (4096 - 24);
            let addr = v.addr((start_line * 8) as usize);
            let write = x & 1 == 0;
            c.stream_touch(addr, lines, lines * 8, write, x & 2 == 0);
            v.set(c, ((x >> 13) as usize) % (1 << 15), i);
            let _ = v.get(c, ((x >> 21) as usize) % (1 << 15));
            c.compute(3);
        }
    });
    (format!("{:?}", m.counters()), m.wall_cycles().to_bits())
}

/// The stream fast path (hoisted same-region runs, `resolve_stream_run`)
/// must be bit-identical to the per-line slow loop it replaces, across
/// every enclave variant that arms per-line work: plain native, EPC data,
/// a sealed (EDMM) enclave, and an SGXv1 machine whose pager commits
/// page-fault charges mid-run.
#[test]
fn stream_fast_path_matches_per_line_oracle() {
    type Build = Box<dyn Fn() -> Machine>;
    let variants: Vec<(&str, Build)> = vec![
        ("native", Box::new(|| machine(Setting::PlainCpu))),
        ("epc", Box::new(|| machine(Setting::SgxDataInEnclave))),
        ("sealed", Box::new(|| {
            let mut m = machine(Setting::SgxDataInEnclave);
            m.seal_enclave();
            m
        })),
        ("sgxv1", Box::new(|| {
            Machine::new(xeon_gold_6326().scaled(16).sgxv1(), Setting::SgxDataInEnclave)
        })),
    ];
    for (name, build) in variants {
        let fast = stream_workload_state(build(), false);
        let slow = stream_workload_state(build(), true);
        assert_eq!(fast.0, slow.0, "{name}: counters diverge between fast path and oracle");
        assert_eq!(
            fast.1, slow.1,
            "{name}: wall clock diverges between fast path and oracle ({} vs {})",
            f64::from_bits(fast.1),
            f64::from_bits(slow.1)
        );
    }
}
