//! DeepDB-lite: per-table-pair densities combined under conditional independence.
//!
//! DeepDB (Hilprecht et al. 2020) learns one sum-product network per heuristically chosen
//! table subset (typically the fact table plus one dimension/child table) and combines the
//! subsets under conditional independence.  This reproduction keeps that *structure* —
//! which is what the paper's comparison is about — while simplifying the per-subset density
//! model:
//!
//! * for every join edge `(parent, child)` of the schema a **pair model** is built from `n`
//!   uniform samples of the pair's full outer join (drawn with the same Exact Weight
//!   sampler NeuroCard uses, which is *more* favourable than DeepDB's own IBJS/full-join
//!   ingestion),
//! * a query's selectivity is decomposed along its join tree:
//!   `P(all filters) ≈ P(root filters) · Π_edges P(child filters | parent filters)`,
//!   each conditional estimated from the corresponding pair sample,
//! * the unfiltered inner-join size of the query graph is computed exactly from the join
//!   counts (DeepDB likewise represents PK/FK join sizes essentially exactly via its fanout
//!   bookkeeping).
//!
//! What it cannot capture — and what the paper's Table 2/3 gaps come from — is correlation
//! between columns of *different* child tables, or any effect requiring more than two
//! tables to be modelled jointly.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_sampler::{JoinSampler, WideLayout};
use nc_schema::{subset_schema, JoinSchema, Query};
use nc_storage::{Database, Value};

use crate::estimator::CardinalityEstimator;

/// Samples of one (parent, child) pair's full outer join.
struct PairModel {
    parent: String,
    child: String,
    layout: WideLayout,
    rows: Vec<Vec<Value>>,
}

/// The DeepDB-lite estimator.
pub struct DeepDbLite {
    db: Arc<Database>,
    schema: Arc<JoinSchema>,
    pairs: Vec<PairModel>,
    /// Single-table sample of the root (for root-only conditioning).
    root_rows: Vec<Vec<Value>>,
    root_layout: WideLayout,
    /// Cache of unfiltered inner-join sizes per table subset.
    join_size_cache: Mutex<HashMap<Vec<String>, f64>>,
}

impl DeepDbLite {
    /// Builds the pair models with `samples_per_pair` samples each.
    pub fn build(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        samples_per_pair: usize,
        seed: u64,
    ) -> Self {
        let samples_per_pair = samples_per_pair.max(10);
        let mut pairs = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for table in schema.tables() {
            if let Some(parent) = schema.parent(table) {
                let sub = Arc::new(subset_schema(&schema, &[parent.to_string(), table.clone()]));
                let sampler = JoinSampler::new(db.clone(), sub.clone());
                let layout = WideLayout::new(&db, &sub);
                let samples = sampler.sample_many(&mut rng, samples_per_pair);
                let rows = layout.materialize_batch(&db, &samples);
                pairs.push(PairModel {
                    parent: parent.to_string(),
                    child: table.clone(),
                    layout,
                    rows,
                });
            }
        }
        // Root-only sample.
        let root = schema.root().to_string();
        let root_schema = Arc::new(subset_schema(&schema, std::slice::from_ref(&root)));
        let root_sampler = JoinSampler::new(db.clone(), root_schema.clone());
        let root_layout = WideLayout::new(&db, &root_schema);
        let samples = root_sampler.sample_many(&mut rng, samples_per_pair);
        let root_rows = root_layout.materialize_batch(&db, &samples);

        DeepDbLite {
            db,
            schema,
            pairs,
            root_rows,
            root_layout,
            join_size_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Fraction of `rows` satisfying the filters of `query` restricted to `tables`
    /// (conditioned on `condition_tables`' filters also holding), using only inner-join
    /// rows of the pair.
    fn conditional_fraction(
        layout: &WideLayout,
        rows: &[Vec<Value>],
        query: &Query,
        target_table: &str,
        condition_table: Option<&str>,
    ) -> f64 {
        let passes = |row: &Vec<Value>, table: &str| -> bool {
            query.filters_on(table).iter().all(|f| {
                let idx = layout
                    .index_of(&f.table, &f.column)
                    .unwrap_or_else(|| panic!("unknown filter column {}.{}", f.table, f.column));
                f.predicate.matches(&row[idx])
            })
        };
        let inner = |row: &Vec<Value>| -> bool {
            layout
                .table_order()
                .iter()
                .all(|t| row[layout.indicator_index(t).expect("indicator")] == Value::Int(1))
        };
        let mut denom = 0usize;
        let mut num = 0usize;
        for row in rows {
            if !inner(row) {
                continue;
            }
            let cond_ok = match condition_table {
                Some(c) => passes(row, c),
                None => true,
            };
            if !cond_ok {
                continue;
            }
            denom += 1;
            if passes(row, target_table) {
                num += 1;
            }
        }
        if denom == 0 {
            // No conditioning support in the sample: fall back to an uninformative guess.
            0.5
        } else {
            (num as f64 / denom as f64).max(1e-6)
        }
    }

    fn unfiltered_join_size(&self, tables: &[String]) -> f64 {
        let mut key = tables.to_vec();
        key.sort();
        if let Some(&v) = self.join_size_cache.lock().get(&key) {
            return v;
        }
        let refs: Vec<&str> = tables.iter().map(|s| s.as_str()).collect();
        let size = nc_exec::inner_join_count(&self.db, &self.schema, &refs) as f64;
        self.join_size_cache.lock().insert(key, size);
        size
    }
}

impl CardinalityEstimator for DeepDbLite {
    fn name(&self) -> &str {
        "DeepDB-lite"
    }

    fn estimate(&self, query: &Query) -> f64 {
        query
            .validate(&self.schema)
            .unwrap_or_else(|e| panic!("invalid query {query}: {e}"));
        let join_size = self.unfiltered_join_size(&query.tables);
        if join_size == 0.0 {
            return 1.0;
        }

        // Root-of-the-query selectivity.
        let query_root = nc_exec::cardinality::query_subtree_root(&self.schema, query);
        let mut selectivity = if query_root == self.schema.root() {
            Self::conditional_fraction(&self.root_layout, &self.root_rows, query, &query_root, None)
        } else {
            // The query does not include the schema root: condition the first pair on
            // nothing and use the child marginal from the pair containing it.
            let pair = self
                .pairs
                .iter()
                .find(|p| p.child == query_root)
                .expect("every non-root table appears as a child in exactly one pair");
            Self::conditional_fraction(&pair.layout, &pair.rows, query, &query_root, None)
        };
        if query.filters_on(&query_root).is_empty() {
            selectivity = 1.0;
        }

        // Conditional factors along the query tree edges.
        for table in &query.tables {
            if table == &query_root {
                continue;
            }
            let parent = match self.schema.parent(table) {
                Some(p) if query.joins(p) => p.to_string(),
                _ => continue,
            };
            if query.filters_on(table).is_empty() {
                continue;
            }
            let pair = self
                .pairs
                .iter()
                .find(|p| p.child == *table && p.parent == parent)
                .expect("pair model exists for every schema edge");
            let cond =
                Self::conditional_fraction(&pair.layout, &pair.rows, query, table, Some(&parent));
            selectivity *= cond;
        }

        (join_size * selectivity).max(1.0)
    }

    fn size_bytes(&self) -> usize {
        let pair_cells: usize = self
            .pairs
            .iter()
            .map(|p| p.rows.len() * p.layout.len())
            .sum();
        (pair_cells + self.root_rows.len() * self.root_layout.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::TableBuilder;

    /// Star with two children whose content columns are correlated *with each other*
    /// (through the parent id's parity) — exactly what pairwise models cannot see.
    fn star() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["id", "year"]);
        for i in 0..300i64 {
            a.push_row(vec![Value::Int(i), Value::Int(2000 + (i % 2) * 10)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["movie_id", "kind"]);
        for i in 0..300i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i % 2)]);
        }
        db.add_table(b.finish());
        let mut c = TableBuilder::new("C", &["movie_id", "tag"]);
        for i in 0..300i64 {
            c.push_row(vec![Value::Int(i), Value::Int(i % 2)]);
        }
        db.add_table(c.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                JoinEdge::parse("A.id", "B.movie_id"),
                JoinEdge::parse("A.id", "C.movie_id"),
            ],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn pairwise_queries_are_accurate_cross_child_queries_are_not() {
        let (db, schema) = star();
        let est = DeepDbLite::build(db.clone(), schema.clone(), 4_000, 3);
        assert_eq!(est.name(), "DeepDB-lite");
        assert!(est.size_bytes() > 0);

        // Parent/child-correlated query: the pair model captures it.
        let q = Query::join(&["A", "B"])
            .filter("A", "year", Predicate::eq(2000i64))
            .filter("B", "kind", Predicate::eq(0i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64; // 150
        let guess = est.estimate(&q);
        let qerr = (guess / truth).max(truth / guess);
        assert!(qerr < 2.0, "guess {guess} truth {truth}");

        // Cross-child correlation (B.kind = 0 AND C.tag = 1 never co-occur): conditional
        // independence predicts ~75 rows while the truth is 0.
        let q = Query::join(&["A", "B", "C"])
            .filter("B", "kind", Predicate::eq(0i64))
            .filter("C", "tag", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        assert_eq!(truth, 0.0);
        let guess = est.estimate(&q);
        assert!(
            guess > 20.0,
            "conditional independence should over-estimate, got {guess}"
        );
    }

    #[test]
    fn queries_without_root_still_work() {
        let (db, schema) = star();
        let est = DeepDbLite::build(db.clone(), schema.clone(), 2_000, 4);
        let q = Query::join(&["B"]).filter("B", "kind", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        let guess = est.estimate(&q);
        let qerr = (guess / truth).max(truth / guess);
        assert!(qerr < 2.0, "guess {guess} truth {truth}");
    }
}
