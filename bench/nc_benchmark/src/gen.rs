//! Workload generators: inputs the benchmark derives from the generated fixture and the
//! `--seed`, before the program under test sees anything.
//!
//! * [`expand_plans`] turns each query into the burst an optimizer sends while planning
//!   it: one estimate request per connected sub-join.
//! * [`DeltaSource`] replays the row deltas between successive partition snapshots as
//!   the pipeline's update stream.
//! * [`shuffled`] is the seeded order in which requests are issued.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use nc_pipeline::UpdateBatch;
use nc_schema::{JoinSchema, Query};
use nc_storage::{Database, Value};

use crate::{layers, trace};

/// SplitMix64: the benchmark's own small generator, so request order depends on nothing
/// but `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The indices `0..n` in an order that is a pure function of `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Sub-plans kept per plan: a 5-table JOB-light star has 20 connected sub-joins, and the
/// reactor admits 32 in-flight requests per connection before pausing its reads.
pub const MAX_SUBPLANS: usize = 20;

/// One planning burst: every connected sub-join of `query`, filters restricted to the
/// joined tables.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Index of the originating query in the workload.
    pub query: usize,
    /// The sub-plans, smallest joins first; the last one is the query itself.
    pub subplans: Vec<Query>,
}

/// Expands every query into its connected sub-joins (at most [`MAX_SUBPLANS`], taken
/// smallest-first with the full query always kept).
pub fn expand_plans(schema: &JoinSchema, queries: &[Query]) -> Vec<Plan> {
    queries
        .iter()
        .enumerate()
        .map(|(query, q)| Plan {
            query,
            subplans: connected_subjoins(schema, q),
        })
        .collect()
}

fn connected_subjoins(schema: &JoinSchema, query: &Query) -> Vec<Query> {
    let n = query.tables.len();
    assert!(
        n <= 16,
        "sub-join enumeration is exponential in the joined tables"
    );
    let mut subsets: Vec<Vec<String>> = (1u32..1 << n)
        .map(|mask| {
            (0..n)
                .filter(|t| mask & (1 << t) != 0)
                .map(|t| query.tables[t].clone())
                .collect::<Vec<_>>()
        })
        .filter(|tables| layers::is_connected(schema, tables))
        .collect();
    // Smallest joins first; ties keep enumeration order, so the result is deterministic.
    subsets.sort_by_key(Vec::len);
    if subsets.len() > MAX_SUBPLANS {
        let full = subsets.pop().expect("the full query is a connected subset");
        subsets.truncate(MAX_SUBPLANS - 1);
        subsets.push(full);
    }
    subsets
        .into_iter()
        .map(|tables| {
            let joined: BTreeSet<&String> = tables.iter().collect();
            Query {
                filters: query
                    .filters
                    .iter()
                    .filter(|f| joined.contains(&f.table))
                    .cloned()
                    .collect(),
                tables,
            }
        })
        .collect()
}

/// The update stream of `update_serve`: batch `k` holds the rows snapshot `k+1` has and
/// snapshot `k` lacks.  Each hand-over is timestamped (trace clock), which is where an
/// update's latency starts.
pub struct DeltaSource {
    batches: std::vec::IntoIter<UpdateBatch>,
    handed_over: Arc<Mutex<Vec<u64>>>,
}

impl DeltaSource {
    /// Builds the stream from cumulative snapshots (each a row-subsequence of the next).
    pub fn new(snapshots: &[Arc<Database>]) -> Self {
        let batches: Vec<UpdateBatch> = snapshots
            .windows(2)
            .enumerate()
            .map(|(k, pair)| UpdateBatch {
                step: k as u64 + 1,
                rows: snapshot_delta(&pair[0], &pair[1]),
            })
            .collect();
        DeltaSource {
            batches: batches.into_iter(),
            handed_over: Arc::default(),
        }
    }

    /// The batches not yet handed over.
    pub fn remaining(&self) -> &[UpdateBatch] {
        self.batches.as_slice()
    }

    /// Shared log of hand-over times (nanoseconds on the trace clock), one per batch.
    pub fn hand_over_times(&self) -> Arc<Mutex<Vec<u64>>> {
        self.handed_over.clone()
    }

    /// Hands the next batch to the pipeline.
    pub fn hand_over(&mut self) -> Option<UpdateBatch> {
        let batch = self.batches.next()?;
        self.handed_over
            .lock()
            .expect("hand-over log is only pushed to")
            .push(trace::now());
        Some(batch)
    }
}

/// Rows of `next` missing from `prev`, per table in name order.  Both snapshots are
/// order-preserving selections of the same full table, so `prev` is a subsequence of
/// `next` and one greedy pass finds the difference.
fn snapshot_delta(prev: &Database, next: &Database) -> Vec<(String, Vec<Value>)> {
    let mut names = next.table_names();
    names.sort_unstable();
    let mut rows = Vec::new();
    for name in names {
        let new = next.expect_table(name);
        let old = prev.expect_table(name);
        let mut matched = 0;
        for r in 0..new.num_rows() {
            let row = new.row(r as u32);
            if matched < old.num_rows() && old.row(matched as u32) == row {
                matched += 1;
            } else {
                rows.push((name.to_string(), row));
            }
        }
        assert_eq!(
            matched,
            old.num_rows(),
            "snapshot of {name} is not a row-subsequence of its successor"
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Fixture, FIXTURE_SEED};
    use crate::layers::Dataset;

    #[test]
    fn job_light_expands_to_405_valid_subplans() {
        let fx = Fixture::new(Dataset::JobLight, 800, 40);
        let plans = expand_plans(&fx.schema, &fx.queries);
        assert_eq!(plans.len(), 40);
        let mut sizes: Vec<usize> = plans.iter().map(|p| p.subplans.len()).collect();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            405,
            "fixture seed {FIXTURE_SEED}"
        );
        sizes.sort_unstable();
        assert_eq!(
            (sizes[19], sizes[39]),
            (11, 20),
            "median and max burst size"
        );
        for plan in &plans {
            let full = plan.subplans.last().expect("non-empty plan");
            assert_eq!(
                full, &fx.queries[plan.query],
                "the query itself closes its plan"
            );
            for sub in &plan.subplans {
                assert!(layers::is_valid(&fx.schema, sub), "{sub}");
                assert!(sub.filters.iter().all(|f| sub.joins(&f.table)));
            }
            let distinct: BTreeSet<String> = plan.subplans.iter().map(Query::render).collect();
            assert_eq!(distinct.len(), plan.subplans.len());
        }
    }

    #[test]
    fn wide_joins_are_capped_and_keep_the_full_query() {
        let fx = Fixture::new(Dataset::JobM, 100, 12);
        for plan in expand_plans(&fx.schema, &fx.queries) {
            assert!(plan.subplans.len() <= MAX_SUBPLANS);
            assert_eq!(plan.subplans.last(), Some(&fx.queries[plan.query]));
        }
    }

    #[test]
    fn replaying_every_delta_reproduces_the_full_database() {
        let fx = Fixture::new(Dataset::JobLight, 150, 4);
        let snapshots = layers::snapshots(&fx.db, &fx.schema, 5);
        let mut source = DeltaSource::new(&snapshots);
        let again = DeltaSource::new(&snapshots);
        assert_eq!(source.remaining().len(), 4);
        for (a, b) in source.remaining().iter().zip(again.remaining()) {
            assert_eq!(
                (a.step, &a.rows),
                (b.step, &b.rows),
                "same fixture, same batches"
            );
            assert!(!a.rows.is_empty());
        }
        let times = source.hand_over_times();
        let mut db = snapshots[0].clone();
        let mut step = 0;
        while let Some(batch) = source.hand_over() {
            step += 1;
            db = Arc::new(layers::apply_batch(&db, &batch, step));
            for table in snapshots[step as usize].tables() {
                assert_eq!(
                    db.expect_table(table.name()).num_rows(),
                    table.num_rows(),
                    "{} after step {step}",
                    table.name()
                );
            }
        }
        assert_eq!(times.lock().expect("log").len(), 4);
        for table in fx.db.tables() {
            assert_eq!(db.expect_table(table.name()).num_rows(), table.num_rows());
        }
    }

    #[test]
    fn request_order_is_a_pure_function_of_the_seed() {
        let a = shuffled(405, 7);
        assert_eq!(a, shuffled(405, 7));
        assert_ne!(a, shuffled(405, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..405).collect::<Vec<_>>());
        assert_eq!(shuffled(0, 1), Vec::<usize>::new());
    }
}
