//! Join queries: a connected subset of the schema's tables plus single-table filters.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::join_schema::JoinSchema;
use crate::predicate::Predicate;

/// A filter on one column of one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableFilter {
    /// Table the filter applies to (must be one of the query's joined tables).
    pub table: String,
    /// Column within the table.
    pub column: String,
    /// The predicate.
    pub predicate: Predicate,
}

impl TableFilter {
    /// Creates a filter.
    pub fn new(table: impl Into<String>, column: impl Into<String>, predicate: Predicate) -> Self {
        TableFilter {
            table: table.into(),
            column: column.into(),
            predicate,
        }
    }
}

impl fmt::Display for TableFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            self.predicate
                .render(&format!("{}.{}", self.table, self.column))
        )
    }
}

/// Errors from query validation against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query references a table the schema does not declare.
    UnknownTable(String),
    /// The query's joined tables do not form a connected subtree of the schema.
    NotConnected,
    /// A filter references a table the query does not join.
    FilterOnUnjoinedTable(String),
    /// The query joins no tables.
    Empty,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTable(t) => write!(f, "query joins unknown table {t:?}"),
            QueryError::NotConnected => {
                write!(f, "query tables do not form a connected join subgraph")
            }
            QueryError::FilterOnUnjoinedTable(t) => {
                write!(
                    f,
                    "filter references table {t:?} which the query does not join"
                )
            }
            QueryError::Empty => write!(f, "query must join at least one table"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A cardinality-estimation query: an inner join over `tables` (a connected subtree of the
/// schema) with a conjunction of single-table `filters`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Joined tables (order irrelevant, duplicates removed).
    pub tables: Vec<String>,
    /// Conjunctive single-table filters.
    pub filters: Vec<TableFilter>,
}

impl Query {
    /// Creates a query over the given tables with no filters.
    pub fn join(tables: &[&str]) -> Self {
        let mut seen = BTreeSet::new();
        let tables = tables
            .iter()
            .filter(|t| seen.insert(t.to_string()))
            .map(|t| t.to_string())
            .collect();
        Query {
            tables,
            filters: Vec::new(),
        }
    }

    /// Adds a filter (builder style).
    pub fn filter(
        mut self,
        table: impl Into<String>,
        column: impl Into<String>,
        predicate: Predicate,
    ) -> Self {
        self.filters
            .push(TableFilter::new(table, column, predicate));
        self
    }

    /// Whether `table` is joined by this query.
    pub fn joins(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t == table)
    }

    /// Filters applying to `table`.
    pub fn filters_on(&self, table: &str) -> Vec<&TableFilter> {
        self.filters.iter().filter(|f| f.table == table).collect()
    }

    /// Number of joined tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Validates the query against a schema.
    pub fn validate(&self, schema: &JoinSchema) -> Result<(), QueryError> {
        if self.tables.is_empty() {
            return Err(QueryError::Empty);
        }
        for t in &self.tables {
            if !schema.contains(t) {
                return Err(QueryError::UnknownTable(t.clone()));
            }
        }
        if !schema.is_connected_subset(&self.tables) {
            return Err(QueryError::NotConnected);
        }
        for f in &self.filters {
            if !self.joins(&f.table) {
                return Err(QueryError::FilterOnUnjoinedTable(f.table.clone()));
            }
        }
        Ok(())
    }

    /// Unfiltered size of this query's join under **join uniformity** (Selinger et al.
    /// 1979): the product of the joined tables' `rows`, divided — for every joined table
    /// whose schema parent is joined too, for every key pair between them — by the larger
    /// of the two keys' distinct counts `ndv(table, column)`.  The statistics-only
    /// estimators (the serving fallback, the Postgres-like and per-table-AR baselines)
    /// share this walk and differ in where their statistics come from.
    ///
    /// Multiplies, then divides, one factor at a time in table order: callers compare the
    /// result bit for bit.
    pub fn join_uniformity_size(
        &self,
        schema: &JoinSchema,
        rows: impl Fn(&str) -> f64,
        ndv: impl Fn(&str, &str) -> f64,
    ) -> f64 {
        let mut size = 1.0f64;
        for t in &self.tables {
            size *= rows(t);
        }
        for t in &self.tables {
            let Some(parent) = schema.parent(t).filter(|p| self.joins(p)) else {
                continue;
            };
            for edge in schema.edges_between(parent, t) {
                let left = ndv(&edge.left.table, &edge.left.column);
                let right = ndv(&edge.right.table, &edge.right.column);
                size /= left.max(right);
            }
        }
        size
    }

    /// A compact SQL-ish rendering for logs and reports.
    pub fn render(&self) -> String {
        let mut s = format!("SELECT COUNT(*) FROM {}", self.tables.join(" ⋈ "));
        if !self.filters.is_empty() {
            let parts: Vec<String> = self.filters.iter().map(|f| f.to_string()).collect();
            s.push_str(" WHERE ");
            s.push_str(&parts.join(" AND "));
        }
        s
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_schema::JoinEdge;
    use crate::predicate::Predicate;

    fn schema() -> JoinSchema {
        JoinSchema::new(
            vec!["t".into(), "ci".into(), "mc".into()],
            vec![
                JoinEdge::parse("t.id", "ci.movie_id"),
                JoinEdge::parse("t.id", "mc.movie_id"),
            ],
            "t",
        )
        .unwrap()
    }

    #[test]
    fn join_uniformity_divides_by_the_larger_key_ndv_of_joined_pairs() {
        let rows = |t: &str| match t {
            "t" => 100.0,
            "ci" => 50.0,
            _ => 8.0,
        };
        let ndv = |t: &str, _: &str| if t == "t" { 20.0 } else { 25.0 };
        let size = |tables: &[&str]| Query::join(tables).join_uniformity_size(&schema(), rows, ndv);
        assert_eq!(size(&["t"]), 100.0);
        assert_eq!(size(&["t", "ci"]), 100.0 * 50.0 / 25.0);
        assert_eq!(size(&["ci", "t", "mc"]), 50.0 * 100.0 * 8.0 / 25.0 / 25.0);
        // A table whose parent is not joined contributes its rows and no edge.
        assert_eq!(size(&["ci", "mc"]), 50.0 * 8.0);
    }

    #[test]
    fn build_and_validate() {
        let q = Query::join(&["t", "ci"]).filter("t", "year", Predicate::ge(2000i64));
        assert!(q.validate(&schema()).is_ok());
        assert_eq!(q.num_tables(), 2);
        assert!(q.joins("t"));
        assert!(!q.joins("mc"));
        assert_eq!(q.filters_on("t").len(), 1);
        assert!(q.filters_on("ci").is_empty());
        assert!(q.render().contains("WHERE"));
        assert!(q.to_string().contains("t.year >= 2000"));
    }

    #[test]
    fn duplicate_tables_removed() {
        let q = Query::join(&["t", "t", "ci"]);
        assert_eq!(q.num_tables(), 2);
    }

    #[test]
    fn validation_errors() {
        let s = schema();
        assert_eq!(Query::join(&[]).validate(&s), Err(QueryError::Empty));
        assert!(matches!(
            Query::join(&["nope"]).validate(&s),
            Err(QueryError::UnknownTable(_))
        ));
        assert_eq!(
            Query::join(&["ci", "mc"]).validate(&s),
            Err(QueryError::NotConnected)
        );
        let q = Query::join(&["t"]).filter("ci", "role", Predicate::eq(1i64));
        assert!(matches!(
            q.validate(&s),
            Err(QueryError::FilterOnUnjoinedTable(_))
        ));
        for e in [
            QueryError::Empty,
            QueryError::NotConnected,
            QueryError::UnknownTable("x".into()),
            QueryError::FilterOnUnjoinedTable("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
