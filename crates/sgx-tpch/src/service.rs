//! Resumable service jobs: the §6 query plans broken into per-operator
//! steps, plus a deterministic cost estimate for admission control.
//!
//! A long-running enclave engine (the DuckDB-SGX2 / Polars-in-SGX2
//! endgame of the related work) cannot run a query as one opaque call:
//! the scheduler needs to interleave tenants, check deadlines between
//! operators, and abandon work that can no longer meet its SLO. A
//! [`ServiceJob`] is exactly the monolithic [`crate::run_query`] plan
//! re-expressed as an explicit state machine — one [`ServiceJob::step`]
//! call executes one operator (the same `ops` entries, the same profiler
//! phases, the same helpers) and hands control back. Stepped execution
//! is *cycle-identical* to the monolithic plan, which the tests pin
//! bit-for-bit: resumability costs nothing in the simulated world.
//!
//! [`cost_estimate`] gives admission control a deterministic, cheap
//! (never-executes-anything) prediction of a plan's work from table
//! cardinalities alone — coarse, but monotone in the real cost, which is
//! all load-shedding needs.

use crate::gen::{date, TpchDb, FLAG_R, SEG_BUILDING};
use crate::ops::{for_each_join_tuple, retuple, select_rows, Payload};
use crate::queries::{
    join, materialized_output, q10_agg_step, q10_order_step, q12_line_pred, q19_joint_pred,
    q19_line_pred, q19_part_pred, q3_agg_step, q3_sort_step, q3_topk_step, Query, QueryConfig,
    QueryStats,
};
use crate::sort::SortRow;
use sgx_joins::{JoinStats, Row};
use sgx_sim::{Machine, SimVec};

/// Report of one executed plan step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Operator name (matches the corresponding [`QueryStats::ops`] entry).
    pub op: &'static str,
    /// Simulated wall cycles the step took.
    pub cycles: f64,
    /// True when the plan finished with this step (stats are available).
    pub done: bool,
}

/// A query plan suspended between operators.
///
/// Create with [`ServiceJob::new`], then call [`ServiceJob::step`] until
/// it reports `done`; [`ServiceJob::stats`] then matches what the
/// monolithic [`crate::run_query`] would have returned on the same
/// machine.
pub struct ServiceJob {
    query: Query,
    cfg: QueryConfig,
    state: State,
    ops: Vec<(&'static str, f64)>,
    start: Option<f64>,
    done: Option<QueryStats>,
}

/// A finished query's `(count, grouped)` result.
type QueryResult = (u64, Vec<(u32, u64)>);

/// Explicit continuation of every plan: each variant holds exactly the
/// intermediates the remaining operators need.
enum State {
    // Q3: customer(BUILDING) ⋈ orders(early) ⋈ lineitem(late),
    // then sort → per-order revenue → top-k.
    Q3SelCustomer,
    Q3SelOrders { cust: SimVec<Row> },
    Q3JoinCO { cust: SimVec<Row>, orders: SimVec<Row> },
    Q3Reshape { j1: JoinStats },
    Q3SelLineitem { co: SimVec<Row> },
    Q3JoinCOL { co: SimVec<Row>, line: SimVec<Row> },
    Q3Sort { j2: JoinStats },
    Q3AggRevenue { matches: u64, sorted: SimVec<SortRow> },
    Q3TopK { matches: u64, groups: SimVec<SortRow>, glen: usize },
    // Q10: customer ⋈ orders(quarter) ⋈ lineitem(R) ⋈ nation.
    Q10ScanCustomer,
    Q10SelOrders { cust: SimVec<Row> },
    Q10JoinCO { cust: SimVec<Row>, orders: SimVec<Row> },
    Q10Reshape1 { j1: JoinStats },
    Q10SelLineitem { co: SimVec<Row> },
    Q10JoinCOL { co: SimVec<Row>, line: SimVec<Row> },
    Q10Reshape2 { j2: JoinStats },
    Q10ScanNation { col: SimVec<Row> },
    Q10JoinN { nation: SimVec<Row>, col: SimVec<Row> },
    Q10AggRevenue { j3: JoinStats },
    Q10OrderGroups { matches: u64, sums: Vec<u64> },
    // Q12: orders ⋈ lineitem(MAIL/SHIP, consistent dates).
    Q12ScanOrders,
    Q12SelLineitem { orders: SimVec<Row> },
    Q12JoinOL { orders: SimVec<Row>, line: SimVec<Row> },
    // Q19: part ⋈ lineitem with the joint disjunct evaluated post-join.
    Q19SelPart,
    Q19SelLineitem { part: SimVec<Row> },
    Q19JoinPL { part: SimVec<Row>, line: SimVec<Row> },
    Q19PostFilter { j: JoinStats },
    /// Terminal (and the placeholder while a step executes).
    Finished,
}

impl ServiceJob {
    /// A fresh suspended plan for `query`.
    pub fn new(query: Query, cfg: QueryConfig) -> ServiceJob {
        let state = match query {
            Query::Q3 => State::Q3SelCustomer,
            Query::Q10 => State::Q10ScanCustomer,
            Query::Q12 => State::Q12ScanOrders,
            Query::Q19 => State::Q19SelPart,
        };
        ServiceJob { query, cfg, state, ops: Vec::new(), start: None, done: None }
    }

    /// The query class this job executes.
    pub fn query(&self) -> Query {
        self.query
    }

    /// Number of operator steps in the full plan of `query`.
    pub fn steps_total(query: Query) -> usize {
        match query {
            Query::Q3 => 9,
            Query::Q10 => 11,
            Query::Q12 => 3,
            Query::Q19 => 4,
        }
    }

    /// Steps executed so far.
    pub fn steps_done(&self) -> usize {
        self.ops.len()
    }

    /// The finished plan's stats, once every step has run.
    pub fn stats(&self) -> Option<&QueryStats> {
        self.done.as_ref()
    }

    /// True once the plan has completed.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// Execute the next operator. The first step issues the plan's ECALL
    /// (exactly like the monolithic query entry); the last step fills in
    /// [`ServiceJob::stats`]. Stepping a finished job is a no-op that
    /// keeps reporting `done`.
    pub fn step(&mut self, machine: &mut Machine, db: &TpchDb) -> StepReport {
        if self.done.is_some() {
            return StepReport { op: "done", cycles: 0.0, done: true };
        }
        if self.start.is_none() {
            self.start = Some(machine.wall_cycles());
            machine.ecall();
        }
        let state = std::mem::replace(&mut self.state, State::Finished);
        let (next, op, cycles, result) = self.transition(machine, db, state);
        self.ops.push((op, cycles));
        self.state = next;
        if let Some((count, grouped)) = result {
            let start = self.start.unwrap_or(0.0);
            self.done = Some(QueryStats {
                count,
                grouped,
                wall_cycles: machine.wall_cycles() - start,
                ops: self.ops.clone(),
            });
        }
        StepReport { op, cycles, done: self.done.is_some() }
    }

    /// Drive the remaining steps to the end and return the final stats.
    pub fn run_to_completion(&mut self, machine: &mut Machine, db: &TpchDb) -> QueryStats {
        while !self.is_done() {
            self.step(machine, db);
        }
        self.done.clone().unwrap_or(QueryStats {
            count: 0,
            grouped: Vec::new(),
            wall_cycles: 0.0,
            ops: Vec::new(),
        })
    }

    /// Run one operator and produce the continuation: the next state, the
    /// operator label and its cycles, and on the final step the query
    /// result as `(count, grouped)`. Every arm is a
    /// verbatim transplant of the corresponding block in
    /// [`crate::queries`], so stepped and monolithic execution charge the
    /// same cycles in the same order.
    fn transition(
        &self,
        machine: &mut Machine,
        db: &TpchDb,
        state: State,
    ) -> (State, &'static str, f64, Option<QueryResult>) {
        let cfg = &self.cfg;
        let cores = &cfg.cores;
        match state {
            // --- Q3 ---
            State::Q3SelCustomer => {
                let scope = machine.phase("sel customer");
                let (cust, t) = select_rows(
                    machine,
                    cores,
                    &[&db.customer.mktsegment],
                    &db.customer.custkey,
                    Payload::RowIndex,
                    &|i| db.customer.mktsegment.peek(i) == SEG_BUILDING,
                );
                drop(scope);
                (State::Q3SelOrders { cust }, "sel customer", t, None)
            }
            State::Q3SelOrders { cust } => {
                let cutoff = date(1995, 3, 15);
                let scope = machine.phase("sel orders");
                let (orders, t) = select_rows(
                    machine,
                    cores,
                    &[&db.orders.orderdate],
                    &db.orders.custkey,
                    Payload::Col(&db.orders.orderkey),
                    &|i| db.orders.orderdate.peek(i) < cutoff,
                );
                drop(scope);
                (State::Q3JoinCO { cust, orders }, "sel orders", t, None)
            }
            State::Q3JoinCO { cust, orders } => {
                let scope = machine.phase("join c⋈o");
                let j1 = join(machine, &cust, &orders, cfg, false);
                drop(scope);
                let t = j1.wall_cycles;
                (State::Q3Reshape { j1 }, "join c⋈o", t, None)
            }
            State::Q3Reshape { j1 } => {
                let jt1 = materialized_output(&j1);
                let scope = machine.phase("reshape");
                let (co, t) = retuple(machine, cores, jt1, &j1.output_runs, &|t| Row {
                    key: t.s_payload,
                    payload: t.s_payload,
                });
                drop(scope);
                (State::Q3SelLineitem { co }, "reshape", t, None)
            }
            State::Q3SelLineitem { co } => {
                let cutoff = date(1995, 3, 15);
                let scope = machine.phase("sel lineitem");
                let (line, t) = select_rows(
                    machine,
                    cores,
                    &[&db.lineitem.shipdate],
                    &db.lineitem.orderkey,
                    Payload::RowIndex,
                    &|i| db.lineitem.shipdate.peek(i) > cutoff,
                );
                drop(scope);
                (State::Q3JoinCOL { co, line }, "sel lineitem", t, None)
            }
            State::Q3JoinCOL { co, line } => {
                let scope = machine.phase("join co⋈l");
                let j2 = join(machine, &co, &line, cfg, false);
                drop(scope);
                let t = j2.wall_cycles;
                (State::Q3Sort { j2 }, "join co⋈l", t, None)
            }
            State::Q3Sort { j2 } => {
                let (sorted, t) = q3_sort_step(machine, cfg, &j2);
                (State::Q3AggRevenue { matches: j2.matches, sorted }, "sort", t, None)
            }
            State::Q3AggRevenue { matches, sorted } => {
                let (groups, glen, t) = q3_agg_step(machine, db, &sorted);
                (State::Q3TopK { matches, groups, glen }, "agg revenue", t, None)
            }
            State::Q3TopK { matches, groups, glen } => {
                let (grouped, t) = q3_topk_step(machine, cfg, &groups, glen);
                (State::Finished, "top-k", t, Some((matches, grouped)))
            }

            // --- Q10 ---
            State::Q10ScanCustomer => {
                let scope = machine.phase("scan customer");
                let (cust, t) = select_rows(
                    machine,
                    cores,
                    &[&db.customer.custkey],
                    &db.customer.custkey,
                    Payload::Col(&db.customer.nationkey),
                    &|_| true,
                );
                drop(scope);
                (State::Q10SelOrders { cust }, "scan customer", t, None)
            }
            State::Q10SelOrders { cust } => {
                let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
                let scope = machine.phase("sel orders");
                let (orders, t) = select_rows(
                    machine,
                    cores,
                    &[&db.orders.orderdate],
                    &db.orders.custkey,
                    Payload::Col(&db.orders.orderkey),
                    &|i| {
                        let d = db.orders.orderdate.peek(i);
                        d >= lo && d < hi
                    },
                );
                drop(scope);
                (State::Q10JoinCO { cust, orders }, "sel orders", t, None)
            }
            State::Q10JoinCO { cust, orders } => {
                let scope = machine.phase("join c⋈o");
                let j1 = join(machine, &cust, &orders, cfg, false);
                drop(scope);
                let t = j1.wall_cycles;
                (State::Q10Reshape1 { j1 }, "join c⋈o", t, None)
            }
            State::Q10Reshape1 { j1 } => {
                let jt1 = materialized_output(&j1);
                // key: orderkey, payload: the customer's nationkey.
                let scope = machine.phase("reshape");
                let (co, t) = retuple(machine, cores, jt1, &j1.output_runs, &|t| Row {
                    key: t.s_payload,
                    payload: t.r_payload,
                });
                drop(scope);
                (State::Q10SelLineitem { co }, "reshape", t, None)
            }
            State::Q10SelLineitem { co } => {
                let scope = machine.phase("sel lineitem");
                let (line, t) = select_rows(
                    machine,
                    cores,
                    &[&db.lineitem.returnflag],
                    &db.lineitem.orderkey,
                    Payload::RowIndex,
                    &|i| db.lineitem.returnflag.peek(i) == FLAG_R,
                );
                drop(scope);
                (State::Q10JoinCOL { co, line }, "sel lineitem", t, None)
            }
            State::Q10JoinCOL { co, line } => {
                let scope = machine.phase("join co⋈l");
                let j2 = join(machine, &co, &line, cfg, false);
                drop(scope);
                let t = j2.wall_cycles;
                (State::Q10Reshape2 { j2 }, "join co⋈l", t, None)
            }
            State::Q10Reshape2 { j2 } => {
                let jt2 = materialized_output(&j2);
                // key: nationkey carried from the customer side.
                let scope = machine.phase("reshape");
                let (col, t) = retuple(machine, cores, jt2, &j2.output_runs, &|t| Row {
                    key: t.r_payload,
                    payload: t.s_payload,
                });
                drop(scope);
                (State::Q10ScanNation { col }, "reshape", t, None)
            }
            State::Q10ScanNation { col } => {
                let scope = machine.phase("scan nation");
                let (nation, t) = select_rows(
                    machine,
                    cores,
                    &[&db.nation.nationkey],
                    &db.nation.nationkey,
                    Payload::RowIndex,
                    &|_| true,
                );
                drop(scope);
                (State::Q10JoinN { nation, col }, "scan nation", t, None)
            }
            State::Q10JoinN { nation, col } => {
                let scope = machine.phase("join ⋈n");
                let j3 = join(machine, &nation, &col, cfg, false);
                drop(scope);
                let t = j3.wall_cycles;
                (State::Q10AggRevenue { j3 }, "join ⋈n", t, None)
            }
            State::Q10AggRevenue { j3 } => {
                let (sums, t) = q10_agg_step(machine, db, cfg, &j3);
                (State::Q10OrderGroups { matches: j3.matches, sums }, "agg revenue", t, None)
            }
            State::Q10OrderGroups { matches, sums } => {
                let (grouped, t) = q10_order_step(machine, cfg, &sums);
                (State::Finished, "order groups", t, Some((matches, grouped)))
            }

            // --- Q12 ---
            State::Q12ScanOrders => {
                let scope = machine.phase("scan orders");
                let (orders, t) = select_rows(
                    machine,
                    cores,
                    &[&db.orders.orderkey],
                    &db.orders.orderkey,
                    Payload::RowIndex,
                    &|_| true,
                );
                drop(scope);
                (State::Q12SelLineitem { orders }, "scan orders", t, None)
            }
            State::Q12SelLineitem { orders } => {
                let scope = machine.phase("sel lineitem");
                let (line, t) = select_rows(
                    machine,
                    cores,
                    &[
                        &db.lineitem.shipmode,
                        &db.lineitem.commitdate,
                        &db.lineitem.receiptdate,
                        &db.lineitem.shipdate,
                    ],
                    &db.lineitem.orderkey,
                    Payload::RowIndex,
                    &|i| q12_line_pred(db, i),
                );
                drop(scope);
                (State::Q12JoinOL { orders, line }, "sel lineitem", t, None)
            }
            State::Q12JoinOL { orders, line } => {
                let scope = machine.phase("join o⋈l");
                let j = join(machine, &orders, &line, cfg, true);
                drop(scope);
                (State::Finished, "join o⋈l", j.wall_cycles, Some((j.matches, Vec::new())))
            }

            // --- Q19 ---
            State::Q19SelPart => {
                let scope = machine.phase("sel part");
                let (part, t) = select_rows(
                    machine,
                    cores,
                    &[&db.part.brand, &db.part.container, &db.part.size],
                    &db.part.partkey,
                    Payload::RowIndex,
                    &|i| q19_part_pred(db, i),
                );
                drop(scope);
                (State::Q19SelLineitem { part }, "sel part", t, None)
            }
            State::Q19SelLineitem { part } => {
                let scope = machine.phase("sel lineitem");
                let (line, t) = select_rows(
                    machine,
                    cores,
                    &[&db.lineitem.shipmode, &db.lineitem.shipinstruct, &db.lineitem.quantity],
                    &db.lineitem.partkey,
                    Payload::RowIndex,
                    &|i| q19_line_pred(db, i),
                );
                drop(scope);
                (State::Q19JoinPL { part, line }, "sel lineitem", t, None)
            }
            State::Q19JoinPL { part, line } => {
                let scope = machine.phase("join p⋈l");
                let j = join(machine, &part, &line, cfg, false);
                drop(scope);
                let t = j.wall_cycles;
                (State::Q19PostFilter { j }, "join p⋈l", t, None)
            }
            State::Q19PostFilter { j } => {
                let jt = materialized_output(&j);
                let mut count = 0u64;
                let scope = machine.phase("post filter");
                let t = for_each_join_tuple(machine, cores, jt, &j.output_runs, |c, tup| {
                    let (pi, li) = (tup.r_payload as usize, tup.s_payload as usize);
                    let _ = db.part.brand.get(c, pi);
                    let _ = db.lineitem.quantity.get(c, li);
                    c.compute(8);
                    if q19_joint_pred(db, pi, li) {
                        count += 1;
                    }
                });
                drop(scope);
                (State::Finished, "post filter", t, Some((count, Vec::new())))
            }

            State::Finished => (State::Finished, "done", 0.0, None),
        }
    }
}

/// Deterministic admission-control cost estimate for one plan, in
/// abstract work units that are monotone in the plan's simulated cycles.
///
/// Derived from table cardinalities only — never executes anything, so
/// admission control can price a queue's backlog in O(1) per entry. Scan
/// operators cost one unit per input row; join operators cost
/// `per_join_row` units per row fed into a radix partition + build/probe
/// (the §4.2 optimized variant streams partitions more cheaply, which is
/// what makes it the degraded-mode plan of choice); the Q3/Q10 ordered
/// tails cost `per_sorted_row` units per join-output row driven through
/// the external sort + revenue aggregation.
pub fn cost_estimate(db: &TpchDb, q: Query, optimized: bool) -> f64 {
    let li = db.lineitem_len() as f64;
    let ord = db.orders.orderkey.len() as f64;
    let cust = db.customer.custkey.len() as f64;
    let part = db.part.partkey.len() as f64;
    let nation = db.nation.nationkey.len() as f64;
    // (rows scanned, rows through joins, rows through sort+aggregate);
    // selectivities are the paper's fixed predicates, hard-coded as
    // coarse fractions.
    let (scanned, joined, sorted) = match q {
        Query::Q3 => (cust + ord + li, 0.2 * cust + 0.5 * ord + 0.55 * li, 0.3 * li),
        Query::Q10 => (cust + ord + li + nation, cust + 0.05 * ord + 0.3 * li + nation, 0.25 * li),
        Query::Q12 => (ord + li, ord + 0.01 * li, 0.0),
        Query::Q19 => (part + li, 0.05 * part + 0.02 * li, 0.0),
    };
    let per_join_row = if optimized { 3.0 } else { 4.0 };
    let per_sorted_row = 3.0;
    scanned + joined * per_join_row + sorted * per_sorted_row
}

/// Largest estimate-vs-actual spread admission control tolerates: the
/// max/min ratio of `wall_cycles / cost_estimate` across every plan
/// variant must stay below this bound, because sgx-serve's calibration
/// derives ONE cycles-per-unit factor for the whole query table — a
/// plan whose ratio drifts outside the band is silently mis-priced.
/// The test below keeps the estimate honest as plans grow new steps.
pub const ESTIMATE_SPREAD_TOLERANCE: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::queries::{reference_count, run_query};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn fresh(sf: f64, setting: Setting) -> (Machine, TpchDb) {
        let mut m = Machine::new(scaled_profile(), setting);
        let db = generate(&mut m, sf, 42);
        (m, db)
    }

    #[test]
    fn stepped_execution_is_cycle_identical_to_monolithic() {
        for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
            for q in Query::all() {
                let (mut m1, db1) = fresh(0.005, setting);
                let mono = run_query(&mut m1, &db1, q, &QueryConfig::new(4));
                let (mut m2, db2) = fresh(0.005, setting);
                let mut job = ServiceJob::new(q, QueryConfig::new(4));
                let stepped = job.run_to_completion(&mut m2, &db2);
                assert_eq!(stepped.count, mono.count, "{}: counts must agree", q.label());
                assert_eq!(stepped.count, reference_count(&db2, q));
                assert_eq!(stepped.grouped, mono.grouped, "{}: ordered outputs", q.label());
                assert_eq!(
                    stepped.wall_cycles.to_bits(),
                    mono.wall_cycles.to_bits(),
                    "{}: stepped plan must charge the exact same cycles",
                    q.label()
                );
                let mono_ops: Vec<&str> = mono.ops.iter().map(|(n, _)| *n).collect();
                let step_ops: Vec<&str> = stepped.ops.iter().map(|(n, _)| *n).collect();
                assert_eq!(step_ops, mono_ops, "{}: same operators in order", q.label());
                for (a, b) in stepped.ops.iter().zip(mono.ops.iter()) {
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{}: op {} cycles", q.label(), a.0);
                }
            }
        }
    }

    #[test]
    fn step_reports_drive_the_plan_one_operator_at_a_time() {
        let (mut m, db) = fresh(0.003, Setting::PlainCpu);
        for q in Query::all() {
            let mut job = ServiceJob::new(q, QueryConfig::new(2));
            assert_eq!(job.steps_done(), 0);
            assert!(!job.is_done());
            let total = ServiceJob::steps_total(q);
            for i in 1..=total {
                let r = job.step(&mut m, &db);
                assert_eq!(job.steps_done(), i, "{}", q.label());
                assert_eq!(r.done, i == total, "{} step {i}", q.label());
                assert!(r.cycles >= 0.0);
            }
            assert!(job.is_done());
            let n_ops = job.stats().map(|s| s.ops.len()).unwrap_or(0);
            assert_eq!(n_ops, total);
            // Stepping past the end is inert.
            let extra = job.step(&mut m, &db);
            assert!(extra.done && extra.cycles == 0.0);
            assert_eq!(job.steps_done(), total);
        }
    }

    #[test]
    fn degraded_variant_is_result_identical_and_cheaper_in_enclave() {
        // The degradation policy swaps in the §4.2 optimized plan shape;
        // it must never change answers and must actually be cheaper where
        // it matters (in the enclave).
        for q in Query::all() {
            let (mut m, db) = fresh(0.005, Setting::SgxDataInEnclave);
            let mut normal = ServiceJob::new(q, QueryConfig::new(4));
            let a = normal.run_to_completion(&mut m, &db);
            let mut degraded = ServiceJob::new(q, QueryConfig::new(4).with_optimization(true));
            let b = degraded.run_to_completion(&mut m, &db);
            assert_eq!(a.count, b.count, "{}: degraded plan must not change results", q.label());
            assert_eq!(a.grouped, b.grouped, "{}: degraded plan must not reorder output", q.label());
        }
    }

    #[test]
    fn cost_estimate_is_deterministic_and_monotone() {
        let (mut m, _) = fresh(0.001, Setting::PlainCpu);
        let small = generate(&mut m, 0.004, 7);
        let large = generate(&mut m, 0.008, 7);
        for q in Query::all() {
            let c = cost_estimate(&small, q, false);
            assert!(c > 0.0);
            assert_eq!(c, cost_estimate(&small, q, false), "pure function");
            assert!(
                cost_estimate(&large, q, false) > c,
                "{}: estimate must grow with data",
                q.label()
            );
            assert!(
                cost_estimate(&small, q, true) < c,
                "{}: degraded plan must estimate cheaper",
                q.label()
            );
        }
        // The heaviest plan (Q10: three joins over the largest inputs)
        // must estimate above the lightest (Q19: two selective scans).
        assert!(cost_estimate(&small, Query::Q10, false) > cost_estimate(&small, Query::Q19, false));
    }

    #[test]
    fn cost_estimate_tracks_actual_cycles_within_admission_tolerance() {
        // Admission control calibrates one cycles-per-unit factor across
        // all plan variants; the estimate only works if the actual/estimate
        // ratio stays inside a bounded band for EVERY variant — including
        // the new Q3/Q10 sort + aggregation tails.
        let (mut m, db) = fresh(0.005, Setting::SgxDataInEnclave);
        let mut ratios: Vec<(String, f64)> = Vec::new();
        for q in Query::all() {
            for optimized in [false, true] {
                let cfg = QueryConfig::new(4).with_optimization(optimized);
                let stats = run_query(&mut m, &db, q, &cfg);
                let est = cost_estimate(&db, q, optimized);
                ratios.push((format!("{} optimized={optimized}", q.label()), stats.wall_cycles / est));
            }
        }
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &(_, r) in &ratios {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        assert!(
            hi / lo < ESTIMATE_SPREAD_TOLERANCE,
            "estimate-vs-actual spread {:.2} exceeds admission tolerance {ESTIMATE_SPREAD_TOLERANCE}: {ratios:?}",
            hi / lo
        );
    }
}
