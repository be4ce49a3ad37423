//! The graceful-degradation estimator: cheap per-table statistics under the
//! independence assumption.
//!
//! When a selector matches no live model, the registry can answer from a
//! [`StatsFallback`] instead of failing the request — the benchmark-evaluation
//! literature (Han et al., PAPERS.md) finds coarse statistics-based estimates an
//! acceptable stopgap exactly when a learned model is unavailable, and ByteCard's
//! serving rule is that an estimate must never stall the planner.  Replies produced
//! this way are flagged `degraded` on the wire (see
//! [`ServeReply::degraded`](crate::ServeReply)) so the planner can weigh them.
//!
//! The estimate is the textbook System-R shape: unfiltered join size under join
//! uniformity (`Π rows / Π max(ndv_left, ndv_right)` over the joined edges), times
//! one selectivity factor per filter — `1/ndv` for equality, `k/ndv` for `IN`,
//! linear interpolation over the `[min, max]` integer range for range predicates,
//! `1/3` when nothing better is known — all scaled by the column's non-NULL
//! fraction (NULL never matches a predicate).  Everything it needs is captured at
//! build time from the [`Database`]; serving touches no table data.

use std::collections::HashMap;
use std::sync::Arc;

use nc_schema::{CompareOp, JoinSchema, Query};
use nc_storage::{Database, Value};
use neurocard::infer::SamplerScratch;
use neurocard::EstimateError;

use crate::model::ServingEstimator;

/// Selectivity assumed for a range predicate with no usable range statistics
/// (string columns, unbounded ranges) — the classic System-R default.
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

#[derive(Debug, Clone)]
struct ColumnSummary {
    ndv: f64,
    non_null_fraction: f64,
    /// Present only for columns whose non-NULL values are all integers.
    int_range: Option<(i64, i64)>,
}

#[derive(Debug, Clone)]
struct TableSummary {
    rows: f64,
    columns: HashMap<String, ColumnSummary>,
}

/// Per-table row counts + per-column summaries, served under independence.
pub struct StatsFallback {
    schema: Arc<JoinSchema>,
    tables: HashMap<String, TableSummary>,
}

impl StatsFallback {
    /// Captures the statistics for every schema table present in `db`.
    pub fn from_database(db: &Database, schema: Arc<JoinSchema>) -> Self {
        let mut tables = HashMap::new();
        for name in schema.tables() {
            let Some(table) = db.table(name) else {
                continue;
            };
            let rows = (table.num_rows() as f64).max(1.0);
            let mut columns = HashMap::new();
            for col in table.columns() {
                let nulls = col.null_count() as f64;
                let non_null_fraction = if table.num_rows() == 0 {
                    1.0
                } else {
                    1.0 - nulls / table.num_rows() as f64
                };
                let int_range = match col.min_max() {
                    Some((Value::Int(lo), Value::Int(hi))) => Some((lo, hi)),
                    _ => None,
                };
                columns.insert(
                    col.name().to_string(),
                    ColumnSummary {
                        ndv: (col.distinct_count() as f64).max(1.0),
                        non_null_fraction,
                        int_range,
                    },
                );
            }
            tables.insert(name.clone(), TableSummary { rows, columns });
        }
        StatsFallback { schema, tables }
    }

    fn table(&self, name: &str) -> Result<&TableSummary, EstimateError> {
        self.tables
            .get(name)
            .ok_or_else(|| EstimateError::InvalidQuery(format!("unknown table {name:?}")))
    }

    fn column(&self, table: &str, column: &str) -> Result<&ColumnSummary, EstimateError> {
        self.table(table)?
            .columns
            .get(column)
            .ok_or_else(|| EstimateError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Join-key ndv for one edge endpoint (`1` when the table/column was never
    /// captured — degrades towards the plain row-count product).
    fn ndv(&self, table: &str, column: &str) -> f64 {
        self.tables
            .get(table)
            .and_then(|t| t.columns.get(column))
            .map(|c| c.ndv)
            .unwrap_or(1.0)
    }

    /// Fraction of an integer range `[lo, hi]` selected by `op lit`, assuming a
    /// uniform value distribution.
    fn range_fraction(range: (i64, i64), op: &CompareOp, lit: i64) -> f64 {
        let (lo, hi) = (range.0 as f64, range.1 as f64);
        let width = (hi - lo).max(1.0);
        let lit = lit as f64;
        let frac = match op {
            CompareOp::Lt | CompareOp::Le => (lit - lo) / width,
            CompareOp::Gt | CompareOp::Ge => (hi - lit) / width,
            _ => DEFAULT_RANGE_SELECTIVITY,
        };
        frac.clamp(0.0, 1.0)
    }
}

impl ServingEstimator for StatsFallback {
    fn name(&self) -> &str {
        "stats-fallback"
    }

    fn default_samples(&self) -> usize {
        1
    }

    fn serve(
        &self,
        query: &Query,
        _samples: usize,
        _scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        if query.tables.is_empty() {
            return Err(EstimateError::InvalidQuery("query joins no tables".into()));
        }
        // Unfiltered join size under join uniformity; a table without captured
        // statistics is a typed error, not a guess.
        for t in &query.tables {
            self.table(t)?;
        }
        let size = query.join_uniformity_size(
            &self.schema,
            |t| self.tables[t].rows,
            |t, column| self.ndv(t, column),
        );

        // One independent selectivity factor per filter.
        let mut selectivity = 1.0f64;
        for f in &query.filters {
            let col = self.column(&f.table, &f.column)?;
            let sel = match &f.predicate.op {
                CompareOp::Eq => 1.0 / col.ndv,
                CompareOp::In => (f.predicate.literals.len() as f64 / col.ndv).min(1.0),
                op => match (col.int_range, f.predicate.literals[0].as_int()) {
                    (Some(range), Some(lit)) => Self::range_fraction(range, op, lit),
                    _ => DEFAULT_RANGE_SELECTIVITY,
                },
            };
            selectivity *= sel * col.non_null_fraction;
        }

        Ok((size * selectivity).max(1.0))
    }

    fn size_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| std::mem::size_of::<TableSummary>() + t.columns.len() * 64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::TableBuilder;

    fn fixture() -> (Database, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["id", "year", "tag"]);
        for i in 0..100i64 {
            let tag = if i % 10 == 0 {
                Value::Null
            } else {
                Value::from(format!("t{}", i % 4))
            };
            a.push_row(vec![Value::Int(i % 20), Value::Int(1990 + i % 10), tag]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["a_id", "v"]);
        for i in 0..50i64 {
            b.push_row(vec![Value::Int(i % 20), Value::Int(i)]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.id", "B.a_id")],
            "A",
        )
        .unwrap();
        (db, Arc::new(schema))
    }

    /// Serves `query` with a fresh scratch.
    fn estimate(fb: &StatsFallback, query: &Query) -> Result<f64, EstimateError> {
        fb.serve(query, 1, &mut SamplerScratch::new())
    }

    #[test]
    fn independence_estimates_are_sane_and_floored() {
        let (db, schema) = fixture();
        let fb = StatsFallback::from_database(&db, schema);
        assert_eq!(fb.name(), "stats-fallback");
        assert_eq!(fb.default_samples(), 1);
        assert!(fb.size_bytes() > 0);

        // Unfiltered single table: the exact row count.
        let est = estimate(&fb, &Query::join(&["A"])).unwrap();
        assert_eq!(est, 100.0);

        // Unfiltered join: 100 * 50 / max(ndv 20, ndv 20) = 250.
        let est = estimate(&fb, &Query::join(&["A", "B"])).unwrap();
        assert_eq!(est, 250.0);

        // Equality on year (ndv 10): 100/10 = 10.
        let q = Query::join(&["A"]).filter("A", "year", Predicate::eq(1995i64));
        assert_eq!(estimate(&fb, &q).unwrap(), 10.0);

        // IN over the 4 tags scaled by the 90% non-null fraction.
        let q = Query::join(&["A"]).filter(
            "A",
            "tag",
            Predicate::isin(vec![Value::from("t0"), Value::from("t1")]),
        );
        let est = estimate(&fb, &q).unwrap();
        assert!((est - 100.0 * (2.0 / 4.0) * 0.9).abs() < 1e-9, "got {est}");

        // Range on year interpolates within [1990, 1999].
        let q = Query::join(&["A"]).filter("A", "year", Predicate::le(1994i64));
        let est = estimate(&fb, &q).unwrap();
        assert!((20.0..60.0).contains(&est), "got {est}");

        // Estimates never go below one row.
        let q = Query::join(&["A"])
            .filter("A", "year", Predicate::eq(1990i64))
            .filter("A", "id", Predicate::eq(0i64))
            .filter("A", "tag", Predicate::eq("t0"));
        assert_eq!(estimate(&fb, &q).unwrap(), 1.0);
    }

    #[test]
    fn unknown_tables_and_columns_are_typed_errors() {
        let (db, schema) = fixture();
        let fb = StatsFallback::from_database(&db, schema);
        assert!(matches!(
            estimate(&fb, &Query::join(&["nope"])),
            Err(EstimateError::InvalidQuery(_))
        ));
        let q = Query::join(&["A"]).filter("A", "nope", Predicate::eq(1i64));
        assert!(matches!(
            estimate(&fb, &q),
            Err(EstimateError::UnknownColumn { .. })
        ));
        assert!(matches!(
            estimate(
                &fb,
                &Query {
                    tables: vec![],
                    filters: vec![]
                }
            ),
            Err(EstimateError::InvalidQuery(_))
        ));
        // Registrable as a trait object.
        let _obj: Arc<dyn ServingEstimator> =
            Arc::new(StatsFallback::from_database(&Database::new(), {
                let (_, schema) = fixture();
                schema
            }));
    }
}
