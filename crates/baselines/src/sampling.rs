//! Uniform join samples used directly as an estimator (ablation Table 5, row E: "No model;
//! uniform join samples only").
//!
//! For every distinct join template (set of joined tables) the estimator prepares an Exact
//! Weight sampler over just those tables and materialises `n` uniform samples of their full
//! outer join.  A query is then estimated as
//! `|J_template| · (fraction of samples that are inner-join rows and pass all filters)`.
//!
//! The paper's point, reproduced here, is that even *perfect* uniform sampling without a
//! density model collapses at the tail: low-selectivity queries get zero sample hits and
//! the estimate defaults to the minimum.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_sampler::{JoinSampler, WideLayout};
use nc_schema::{subset_schema, JoinSchema, Query};
use nc_storage::{Database, Value};

use crate::estimator::CardinalityEstimator;

/// Cached per-template state: the wide layout, the materialised samples and `|J|`.
struct TemplateSamples {
    layout: WideLayout,
    rows: Vec<Vec<Value>>,
    full_join_rows: f64,
}

/// The sampling-only estimator.
pub struct UniformJoinSampleEstimator {
    db: Arc<Database>,
    schema: Arc<JoinSchema>,
    samples_per_template: usize,
    seed: u64,
    cache: Mutex<HashMap<Vec<String>, Arc<TemplateSamples>>>,
}

impl UniformJoinSampleEstimator {
    /// Creates the estimator with a per-template sample budget (the paper uses 10⁴).
    pub fn new(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        samples_per_template: usize,
        seed: u64,
    ) -> Self {
        UniformJoinSampleEstimator {
            db,
            schema,
            samples_per_template: samples_per_template.max(1),
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn template(&self, tables: &[String]) -> Arc<TemplateSamples> {
        let mut key = tables.to_vec();
        key.sort();
        if let Some(t) = self.cache.lock().get(&key) {
            return t.clone();
        }
        let sub = subset_schema(&self.schema, tables);
        let sub = Arc::new(sub);
        let sampler = JoinSampler::new(self.db.clone(), sub.clone());
        let layout = WideLayout::new(&self.db, &sub);
        let mut rng = StdRng::seed_from_u64(self.seed ^ key.len() as u64);
        let samples = sampler.sample_many(&mut rng, self.samples_per_template);
        let rows = layout.materialize_batch(&self.db, &samples);
        let t = Arc::new(TemplateSamples {
            layout,
            rows,
            full_join_rows: sampler.full_join_rows() as f64,
        });
        self.cache.lock().insert(key, t.clone());
        t
    }
}

impl CardinalityEstimator for UniformJoinSampleEstimator {
    fn name(&self) -> &str {
        "UniformJoinSamples"
    }

    fn estimate(&self, query: &Query) -> f64 {
        query
            .validate(&self.schema)
            .unwrap_or_else(|e| panic!("invalid query {query}: {e}"));
        let template = self.template(&query.tables);
        let layout = &template.layout;
        let mut hits = 0usize;
        for row in &template.rows {
            // Inner-join rows only: every joined table's indicator must be 1.
            let inner = query
                .tables
                .iter()
                .all(|t| row[layout.indicator_index(t).expect("indicator")] == Value::Int(1));
            if !inner {
                continue;
            }
            let passes = query.filters.iter().all(|f| {
                let idx = layout
                    .index_of(&f.table, &f.column)
                    .unwrap_or_else(|| panic!("unknown filter column {}.{}", f.table, f.column));
                f.predicate.matches(&row[idx])
            });
            if passes {
                hits += 1;
            }
        }
        let fraction = hits as f64 / template.rows.len() as f64;
        (template.full_join_rows * fraction).max(1.0)
    }

    fn size_bytes(&self) -> usize {
        // Rough: 8 bytes per stored cell across all cached templates.
        let cache = self.cache.lock();
        cache
            .values()
            .map(|t| t.rows.len() * t.layout.len() * 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::TableBuilder;

    fn db_and_schema() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["id", "year"]);
        for i in 0..200i64 {
            a.push_row(vec![Value::Int(i), Value::Int(2000 + i % 10)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["movie_id", "kind"]);
        for i in 0..200i64 {
            for k in 0..3 {
                b.push_row(vec![Value::Int(i), Value::Int(k)]);
            }
        }
        db.add_table(b.finish());
        let mut c = TableBuilder::new("C", &["movie_id", "tag"]);
        for i in 0..200i64 {
            if i % 2 == 0 {
                c.push_row(vec![Value::Int(i), Value::Int(i % 7)]);
            }
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
    fn estimates_common_queries_well_but_not_rare_ones() {
        let (db, schema) = db_and_schema();
        let est = UniformJoinSampleEstimator::new(db.clone(), schema.clone(), 4_000, 7);
        assert_eq!(est.name(), "UniformJoinSamples");

        // A common query: half of A joins C.
        let q = Query::join(&["A", "C"]);
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        let guess = est.estimate(&q);
        let qerr = (guess / truth).max(truth / guess);
        assert!(qerr < 1.5, "guess {guess} truth {truth}");
        assert!(est.size_bytes() > 0);

        // A filtered join.
        let q = Query::join(&["A", "B"]).filter("B", "kind", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        let guess = est.estimate(&q);
        let qerr = (guess / truth).max(truth / guess);
        assert!(qerr < 2.0, "guess {guess} truth {truth}");

        // An impossible query gets the floor estimate of 1 (no sample hits).
        let q = Query::join(&["A"]).filter("A", "year", Predicate::eq(1i64));
        assert_eq!(est.estimate(&q), 1.0);
    }
}
