//! A Postgres-style estimator: per-column statistics, attribute-value independence, and
//! textbook join-selectivity heuristics.
//!
//! This mirrors what the paper's "Postgres (v12)" baseline does conceptually: every column
//! gets an equi-depth histogram plus a most-common-values list and a distinct count; filter
//! selectivities are combined by multiplication (independence), and each equi-join edge
//! contributes the classic `1 / max(ndv(left), ndv(right))` factor over the cartesian
//! product of the joined tables (Selinger et al. 1979).

use std::collections::HashMap;

use nc_schema::{CompareOp, JoinSchema, Predicate, Query};
use nc_storage::{Column, Database, Value};

use crate::estimator::CardinalityEstimator;

/// Per-column statistics: row/NULL counts, distinct count, most-common values and an
/// equi-depth histogram over the remaining values.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    rows: usize,
    nulls: usize,
    distinct: usize,
    /// Most common values with their frequencies (fraction of non-NULL rows).
    mcv: Vec<(Value, f64)>,
    /// Equi-depth histogram bounds over non-MCV values (ascending).  Each bucket holds
    /// `bucket_fraction` of the non-NULL, non-MCV rows.
    bounds: Vec<Value>,
    bucket_fraction: f64,
}

impl ColumnStats {
    /// Builds statistics for one column.
    pub fn build(column: &Column, num_buckets: usize, num_mcv: usize) -> Self {
        let rows = column.len();
        let nulls = column.null_count();
        let mut counts: Vec<(Value, u64)> = column.value_counts().into_iter().collect();
        let distinct = counts.len();
        let non_null = (rows - nulls).max(1) as f64;
        // Most common values.
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mcv: Vec<(Value, f64)> = counts
            .iter()
            .take(num_mcv)
            .map(|(v, c)| (v.clone(), *c as f64 / non_null))
            .collect();
        // Equi-depth histogram over the remaining values.
        let mcv_set: Vec<&Value> = mcv.iter().map(|(v, _)| v).collect();
        let mut rest: Vec<Value> = Vec::new();
        for (v, c) in &counts {
            if !mcv_set.contains(&v) {
                for _ in 0..*c {
                    rest.push(v.clone());
                }
            }
        }
        rest.sort();
        let mut bounds = Vec::new();
        if !rest.is_empty() {
            let buckets = num_buckets.max(1).min(rest.len());
            for b in 0..=buckets {
                let idx = (b * (rest.len() - 1)) / buckets;
                bounds.push(rest[idx].clone());
            }
        }
        let bucket_fraction = if bounds.len() > 1 {
            (rest.len() as f64 / non_null) / (bounds.len() - 1) as f64
        } else {
            0.0
        };
        ColumnStats {
            rows,
            nulls,
            distinct,
            mcv,
            bounds,
            bucket_fraction,
        }
    }

    /// Number of distinct non-NULL values.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Estimated selectivity (fraction of the table's rows) of `pred` on this column,
    /// assuming independence from everything else.
    pub fn selectivity(&self, pred: &Predicate) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let non_null_frac = 1.0 - self.nulls as f64 / self.rows as f64;
        let sel = match pred.op {
            CompareOp::Eq => self.equality_selectivity(&pred.literals[0]),
            CompareOp::In => pred
                .literals
                .iter()
                .map(|v| self.equality_selectivity(v))
                .sum::<f64>()
                .min(1.0),
            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                self.range_selectivity(pred)
            }
        };
        (sel * non_null_frac).clamp(0.0, 1.0)
    }

    fn equality_selectivity(&self, literal: &Value) -> f64 {
        if literal.is_null() {
            return 0.0;
        }
        if let Some((_, f)) = self.mcv.iter().find(|(v, _)| v == literal) {
            return *f;
        }
        // Uniformity over the non-MCV distinct values.
        let mcv_frac: f64 = self.mcv.iter().map(|(_, f)| f).sum();
        let rest_distinct = self.distinct.saturating_sub(self.mcv.len()).max(1);
        ((1.0 - mcv_frac) / rest_distinct as f64).max(0.0)
    }

    fn range_selectivity(&self, pred: &Predicate) -> f64 {
        let matches = |v: &Value| pred.matches(v);
        // Fraction of MCVs matching.
        let mcv_part: f64 = self
            .mcv
            .iter()
            .filter(|(v, _)| matches(v))
            .map(|(_, f)| f)
            .sum();
        // Histogram part: fraction of buckets whose bounds fall inside the range, with
        // linear interpolation at the boundary buckets for integer columns.
        let mut hist_part = 0.0;
        if self.bounds.len() > 1 {
            for w in self.bounds.windows(2) {
                let (lo, hi) = (&w[0], &w[1]);
                let lo_in = matches(lo);
                let hi_in = matches(hi);
                hist_part += if lo_in && hi_in {
                    self.bucket_fraction
                } else if lo_in || hi_in {
                    self.bucket_fraction * 0.5
                } else {
                    0.0
                };
            }
        }
        (mcv_part + hist_part).clamp(0.0, 1.0)
    }
}

/// The Postgres-like estimator.
pub struct PostgresLikeEstimator {
    schema: JoinSchema,
    /// Row count per table.
    table_rows: HashMap<String, f64>,
    /// Statistics per `table.column` that has them.
    stats: HashMap<(String, String), ColumnStats>,
    size_bytes: usize,
}

impl PostgresLikeEstimator {
    /// Builds statistics for every column of every table (ANALYZE).
    pub fn build(db: &Database, schema: &JoinSchema) -> Self {
        Self::build_with(db, schema, 100, 20)
    }

    /// Builds with explicit histogram/MCV sizes.
    pub fn build_with(
        db: &Database,
        schema: &JoinSchema,
        num_buckets: usize,
        num_mcv: usize,
    ) -> Self {
        let mut table_rows = HashMap::new();
        let mut stats = HashMap::new();
        for tname in schema.tables() {
            let table = db.expect_table(tname);
            table_rows.insert(tname.clone(), table.num_rows() as f64);
            for col in table.columns() {
                stats.insert(
                    (tname.clone(), col.name().to_string()),
                    ColumnStats::build(col, num_buckets, num_mcv),
                );
            }
        }
        // Rough size: each MCV/bound counts as 16 bytes, plus fixed per-column overhead.
        let size_bytes = stats
            .values()
            .map(|s| 32 + 16 * (s.mcv.len() + s.bounds.len()))
            .sum();
        PostgresLikeEstimator {
            schema: schema.clone(),
            table_rows,
            stats,
            size_bytes,
        }
    }

    fn column_stats(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.stats.get(&(table.to_string(), column.to_string()))
    }
}

impl CardinalityEstimator for PostgresLikeEstimator {
    fn name(&self) -> &str {
        "Postgres-like"
    }

    fn estimate(&self, query: &Query) -> f64 {
        // 1–2. Cartesian product of the joined tables, times the join-uniformity factor
        // of every join edge inside the query.
        let mut estimate = query.join_uniformity_size(
            &self.schema,
            |t| self.table_rows.get(t).copied().unwrap_or(1.0).max(1.0),
            |t, column| {
                self.column_stats(t, column)
                    .map_or(1, |s| s.distinct())
                    .max(1) as f64
            },
        );

        // 3. Filter selectivities under attribute-value independence.
        for f in &query.filters {
            let sel = self
                .column_stats(&f.table, &f.column)
                .map(|s| s.selectivity(&f.predicate))
                .unwrap_or(0.1);
            estimate *= sel.max(1e-9);
        }

        estimate.max(1.0)
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::JoinEdge;
    use nc_storage::TableBuilder;

    fn db_and_schema() -> (Database, JoinSchema) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "year"]);
        for i in 0..1000i64 {
            a.push_row(vec![Value::Int(i % 100), Value::Int(1990 + i % 30)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "kind"]);
        for i in 0..2000i64 {
            b.push_row(vec![Value::Int(i % 100), Value::Int(i % 5)]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        (db, schema)
    }

    #[test]
    fn column_stats_selectivities_are_reasonable() {
        let (db, _) = db_and_schema();
        let col = db.expect_table("B").column("kind").unwrap();
        let stats = ColumnStats::build(col, 10, 3);
        assert_eq!(stats.distinct(), 5);
        // Equality on a uniform 5-value column ≈ 0.2.
        let sel = stats.selectivity(&Predicate::eq(2i64));
        assert!((sel - 0.2).abs() < 0.05, "sel {sel}");
        // IN over two values ≈ 0.4.
        let sel = stats.selectivity(&Predicate::isin(vec![Value::Int(0), Value::Int(1)]));
        assert!((sel - 0.4).abs() < 0.1, "sel {sel}");
        // A range covering everything ≈ 1.
        let sel = stats.selectivity(&Predicate::ge(0i64));
        assert!(sel > 0.8, "sel {sel}");
        // Impossible equality ≈ small.
        let sel = stats.selectivity(&Predicate::eq(99i64));
        assert!(sel < 0.25);
        // NULL literal matches nothing.
        assert_eq!(
            stats.selectivity(&Predicate::new(CompareOp::Eq, vec![Value::Null])),
            0.0
        );
    }

    #[test]
    fn join_estimate_close_on_uniform_keys() {
        let (db, schema) = db_and_schema();
        let est = PostgresLikeEstimator::build(&db, &schema);
        assert_eq!(est.name(), "Postgres-like");
        assert!(est.size_bytes() > 0);
        // Uniform keys: true join size = 1000 * 2000 / 100 = 20000; the estimator should be
        // within a small factor.
        let guess = est.estimate(&Query::join(&["A", "B"]));
        let truth = 20_000.0;
        let q = (guess / truth).max(truth / guess);
        assert!(q < 2.0, "guess {guess} truth {truth}");
        // Single-table filter estimate.
        let guess = est.estimate(&Query::join(&["A"]).filter("A", "year", Predicate::lt(1995i64)));
        assert!(guess > 50.0 && guess < 500.0, "guess {guess}");
        // Estimates never drop below 1.
        let guess =
            est.estimate(&Query::join(&["A"]).filter("A", "year", Predicate::eq(1_000_000i64)));
        assert!(guess >= 1.0);
    }

    #[test]
    fn histogram_on_skewed_data_uses_mcv() {
        let mut b = TableBuilder::new("t", &["v"]);
        for _ in 0..900 {
            b.push_row(vec![Value::Int(7)]);
        }
        for i in 0..100i64 {
            b.push_row(vec![Value::Int(i + 100)]);
        }
        let t = b.finish();
        let stats = ColumnStats::build(t.column("v").unwrap(), 10, 5);
        let sel = stats.selectivity(&Predicate::eq(7i64));
        assert!((sel - 0.9).abs() < 0.02, "sel {sel}");
    }
}
