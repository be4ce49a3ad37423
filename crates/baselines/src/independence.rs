//! One autoregressive model per table, combined under independence (ablation Table 5,
//! row D: "one AR per table").
//!
//! Each base table gets its own single-table NeuroCard model (which is exactly Naru, the
//! single-table estimator NeuroCard builds on).  A join query is estimated as
//!
//! ```text
//! |T₁ ⋈ … ⋈ T_k|ₑₛₜ · Π_i  sel_i(filters on T_i)
//! ```
//!
//! where the per-table selectivities come from the per-table models and the unfiltered join
//! size is [`Query::join_uniformity_size`] over the tables' row and join-key distinct
//! counts.  The point of the ablation is that no amount of per-table modelling quality
//! recovers the *cross-table* correlations, which is where the error comes from.

use std::collections::HashMap;
use std::sync::Arc;

use nc_schema::{JoinSchema, Query};
use nc_storage::Database;

use neurocard::{EstimatorCore, NeuroCard, NeuroCardConfig};

use crate::estimator::CardinalityEstimator;

/// The per-table AR baseline.  It keeps only each table's estimation core; the trainers
/// (sampler pools, optimizer state) are dropped once built.
pub struct PerTableArEstimator {
    schema: Arc<JoinSchema>,
    models: HashMap<String, Arc<EstimatorCore>>,
    table_rows: HashMap<String, f64>,
    join_key_ndv: HashMap<(String, String), usize>,
}

impl PerTableArEstimator {
    /// Trains one single-table model per schema table.
    ///
    /// `per_table_tuples` is the training budget per table (the ablation keeps the total
    /// budget comparable to the single NeuroCard model).
    pub fn build(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        config: &NeuroCardConfig,
        per_table_tuples: usize,
    ) -> Self {
        let mut models = HashMap::new();
        let mut table_rows = HashMap::new();
        let mut join_key_ndv = HashMap::new();
        for table in schema.tables() {
            let single = Arc::new(
                JoinSchema::new(vec![table.clone()], vec![], table.clone())
                    .expect("single-table schemas are always valid"),
            );
            let mut cfg = config.clone();
            cfg.training_tuples = per_table_tuples;
            let model = NeuroCard::build(db.clone(), single, &cfg);
            models.insert(table.clone(), model.core());
            let t = db.expect_table(table);
            table_rows.insert(table.clone(), t.num_rows() as f64);
            for key_col in schema.join_key_columns(table) {
                let ndv = t
                    .column(&key_col)
                    .map(|c| c.distinct_count())
                    .unwrap_or(1)
                    .max(1);
                join_key_ndv.insert((table.clone(), key_col), ndv);
            }
        }
        PerTableArEstimator {
            schema,
            models,
            table_rows,
            join_key_ndv,
        }
    }

    fn ndv(&self, table: &str, column: &str) -> usize {
        self.join_key_ndv
            .get(&(table.to_string(), column.to_string()))
            .copied()
            .unwrap_or(1)
            .max(1)
    }
}

impl CardinalityEstimator for PerTableArEstimator {
    fn name(&self) -> &str {
        "PerTableAR"
    }

    fn estimate(&self, query: &Query) -> f64 {
        // Unfiltered join size via join uniformity.
        let size = query.join_uniformity_size(
            &self.schema,
            |t| self.table_rows.get(t).copied().unwrap_or(1.0).max(1.0),
            |t, column| self.ndv(t, column) as f64,
        );

        // Per-table selectivities from the single-table models, combined independently.
        let mut selectivity = 1.0f64;
        for table in &query.tables {
            let filters = query.filters_on(table);
            if filters.is_empty() {
                continue;
            }
            let model = self.models.get(table).expect("model per schema table");
            let mut single = Query::join(&[table.as_str()]);
            for f in filters {
                single = single.filter(f.table.clone(), f.column.clone(), f.predicate.clone());
            }
            let rows = self.table_rows.get(table).copied().unwrap_or(1.0).max(1.0);
            selectivity *= (model.estimate(&single) / rows).clamp(1e-12, 1.0);
        }

        (size * selectivity).max(1.0)
    }

    fn size_bytes(&self) -> usize {
        self.models.values().map(|m| m.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::{TableBuilder, Value};

    /// Cross-table correlation: B rows exist only for A.cls = 0 movies.
    fn correlated() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["id", "cls"]);
        for i in 0..200i64 {
            a.push_row(vec![Value::Int(i), Value::Int(i % 2)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["movie_id", "v"]);
        for i in 0..200i64 {
            if i % 2 == 0 {
                for k in 0..2 {
                    b.push_row(vec![Value::Int(i), Value::Int(k)]);
                }
            }
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.id", "B.movie_id")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn misses_cross_table_correlation_but_handles_single_tables() {
        let (db, schema) = correlated();
        let config = NeuroCardConfig::tiny();
        let est = PerTableArEstimator::build(db.clone(), schema.clone(), &config, 1_500);
        assert_eq!(est.name(), "PerTableAR");
        assert!(est.size_bytes() > 0);

        // Single-table query: the per-table model handles it fine.
        let q = Query::join(&["A"]).filter("A", "cls", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        let guess = est.estimate(&q);
        let qerr = (guess / truth).max(truth / guess);
        assert!(qerr < 4.0, "guess {guess} truth {truth}");

        // Join query whose filter is perfectly anti-correlated with join existence:
        // σ(cls=1)(A) ⋈ B is empty, but independence predicts ~half the join size.
        let q = Query::join(&["A", "B"]).filter("A", "cls", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64; // = 0
        assert_eq!(truth, 0.0);
        let guess = est.estimate(&q);
        assert!(
            guess > 20.0,
            "independence should grossly over-estimate here, got {guess}"
        );
    }
}
