//! Exact cardinality of acyclic inner-join queries.
//!
//! Because the join schema (and therefore every query) is a tree, COUNT(*) of
//! `σ(T_a) ⋈ σ(T_b) ⋈ ...` can be computed without materialising any intermediate join:
//! process the query's subtree bottom-up and, for every table, aggregate the *number of
//! join partners in the subtree below it* grouped by its parent-side join key.  This is the
//! same dynamic program the Exact Weight sampler uses (paper §4.1), restricted to the
//! queried tables and to rows passing the filters.

use std::collections::HashMap;

use nc_schema::{JoinSchema, Query};
use nc_storage::{Database, Table, Value};

use crate::filter::query_filter_mask;

/// A composite join-key value (one entry per edge column in a multi-key join condition).
type Key = Vec<Value>;

/// Exact COUNT(*) of the query (inner join over its tables, conjunctive filters applied).
///
/// Panics if the query does not validate against the schema.
pub fn true_cardinality(db: &Database, schema: &JoinSchema, query: &Query) -> u128 {
    query
        .validate(schema)
        .unwrap_or_else(|e| panic!("invalid query {query}: {e}"));
    let root = query_subtree_root(schema, query);
    count_at(db, schema, query, &root, None).into_values().sum()
}

/// Exact row count of the unfiltered inner join over `tables` (used for the selectivity
/// denominator of Figure 6).
pub fn inner_join_count(db: &Database, schema: &JoinSchema, tables: &[&str]) -> u128 {
    let query = Query::join(tables);
    true_cardinality(db, schema, &query)
}

/// The query table that is highest in the schema tree (its schema parent is not part of the
/// query).  A validated connected query has exactly one such table.
pub fn query_subtree_root(schema: &JoinSchema, query: &Query) -> String {
    let mut roots: Vec<&String> = query
        .tables
        .iter()
        .filter(|t| match schema.parent(t) {
            None => true,
            Some(p) => !query.joins(p),
        })
        .collect();
    roots.sort();
    assert_eq!(
        roots.len(),
        1,
        "a connected query subtree has exactly one root; got {roots:?}"
    );
    roots[0].clone()
}

/// Recursively computes, for `table`, a map from its parent-side composite key (projected
/// on `parent_edge_cols`, if given) to the total number of join combinations contributed by
/// the subtree rooted at `table` for rows carrying that key.  When `parent_edge_cols` is
/// `None` (the query root), the map has a single empty-key entry holding the final count.
fn count_at(
    db: &Database,
    schema: &JoinSchema,
    query: &Query,
    table: &str,
    parent_edge_cols: Option<&[String]>,
) -> HashMap<Key, u128> {
    let t: &Table = db.expect_table(table);
    let mask = query_filter_mask(t, query);

    // Child tables of `table` that are part of the query, with this table's edge columns
    // towards each child.
    let mut child_maps: Vec<(Vec<String>, HashMap<Key, u128>)> = Vec::new();
    for child in schema.children(table) {
        if !query.joins(child) {
            continue;
        }
        let edges = schema.edges_between(table, child);
        let my_cols: Vec<String> = edges
            .iter()
            .map(|e| {
                e.endpoint(table)
                    .expect("edge touches table")
                    .column
                    .clone()
            })
            .collect();
        let child_cols: Vec<String> = edges
            .iter()
            .map(|e| {
                e.endpoint(child)
                    .expect("edge touches child")
                    .column
                    .clone()
            })
            .collect();
        let map = count_at(db, schema, query, child, Some(&child_cols));
        child_maps.push((my_cols, map));
    }

    let parent_cols: Option<Vec<&nc_storage::Column>> = parent_edge_cols.map(|cols| {
        cols.iter()
            .map(|c| {
                t.column(c)
                    .unwrap_or_else(|| panic!("missing join column {table}.{c}"))
            })
            .collect()
    });
    let child_key_cols: Vec<Vec<&nc_storage::Column>> = child_maps
        .iter()
        .map(|(cols, _)| {
            cols.iter()
                .map(|c| {
                    t.column(c)
                        .unwrap_or_else(|| panic!("missing join column {table}.{c}"))
                })
                .collect()
        })
        .collect();

    let mut out: HashMap<Key, u128> = HashMap::new();
    'rows: for (row, &selected) in mask.iter().enumerate() {
        if !selected {
            continue;
        }
        // Weight of this row = product over query children of the partner count below.
        let mut weight: u128 = 1;
        for ((_, map), cols) in child_maps.iter().zip(&child_key_cols) {
            let key: Key = cols.iter().map(|c| c.value(row)).collect();
            if key.iter().any(Value::is_null) {
                continue 'rows; // NULL keys never match in an inner join
            }
            match map.get(&key) {
                Some(&w) if w > 0 => weight = weight.saturating_mul(w),
                _ => continue 'rows,
            }
        }
        let key: Key = match &parent_cols {
            None => Vec::new(),
            Some(cols) => {
                let key: Key = cols.iter().map(|c| c.value(row)).collect();
                if key.iter().any(Value::is_null) {
                    continue; // cannot join upward with a NULL key
                }
                key
            }
        };
        *out.entry(key).or_insert(0) += weight;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::TableBuilder;

    /// The paper's Figure 4 data: A(x)=[1,2]; B(x,y)=[(1,a),(2,b),(2,c)]; C(y)=[c,c,d].
    fn figure4_db() -> (Database, JoinSchema) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x"]);
        a.push_row(vec![Value::Int(1)]);
        a.push_row(vec![Value::Int(2)]);
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "y"]);
        b.push_row(vec![Value::Int(1), Value::from("a")]);
        b.push_row(vec![Value::Int(2), Value::from("b")]);
        b.push_row(vec![Value::Int(2), Value::from("c")]);
        db.add_table(b.finish());
        let mut c = TableBuilder::new("C", &["y"]);
        c.push_row(vec![Value::from("c")]);
        c.push_row(vec![Value::from("c")]);
        c.push_row(vec![Value::from("d")]);
        db.add_table(c.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("B.y", "C.y")],
            "A",
        )
        .unwrap();
        (db, schema)
    }

    #[test]
    fn figure4_q1_and_q2() {
        let (db, schema) = figure4_db();
        // Q1: A ⋈ B ⋈ C WHERE A.x = 2  → 2 rows (paper Figure 4d).
        let q1 = Query::join(&["A", "B", "C"]).filter("A", "x", Predicate::eq(2i64));
        assert_eq!(true_cardinality(&db, &schema, &q1), 2);
        // Q2: A WHERE A.x = 2 → 1 row.
        let q2 = Query::join(&["A"]).filter("A", "x", Predicate::eq(2i64));
        assert_eq!(true_cardinality(&db, &schema, &q2), 1);
        // Unfiltered inner join: only B(2,c) has partners on both sides, with 2 C matches.
        assert_eq!(inner_join_count(&db, &schema, &["A", "B", "C"]), 2);
    }

    #[test]
    fn figure4_intermediate_joins() {
        let (db, schema) = figure4_db();
        // A ⋈ B: every B row has an A partner → 3.
        assert_eq!(inner_join_count(&db, &schema, &["A", "B"]), 3);
        // B ⋈ C: only (2,c) matches, twice → 2.
        assert_eq!(inner_join_count(&db, &schema, &["B", "C"]), 2);
        // Single tables.
        assert_eq!(inner_join_count(&db, &schema, &["A"]), 2);
        assert_eq!(inner_join_count(&db, &schema, &["B"]), 3);
        assert_eq!(inner_join_count(&db, &schema, &["C"]), 3);
    }

    #[test]
    fn filters_on_leaf_tables() {
        let (db, schema) = figure4_db();
        let q = Query::join(&["B", "C"]).filter("C", "y", Predicate::eq("c"));
        assert_eq!(true_cardinality(&db, &schema, &q), 2);
        let q = Query::join(&["B", "C"]).filter("C", "y", Predicate::eq("d"));
        assert_eq!(true_cardinality(&db, &schema, &q), 0);
    }

    #[test]
    fn multi_key_composite_join() {
        // A(x, y) joins B on both x and y.
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "y"]);
        a.push_row(vec![Value::Int(1), Value::Int(10)]);
        a.push_row(vec![Value::Int(1), Value::Int(20)]);
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "y", "v"]);
        b.push_row(vec![Value::Int(1), Value::Int(10), Value::Int(7)]);
        b.push_row(vec![Value::Int(1), Value::Int(10), Value::Int(8)]);
        b.push_row(vec![Value::Int(1), Value::Int(30), Value::Int(9)]);
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("A.y", "B.y")],
            "A",
        )
        .unwrap();
        // Only (1,10) matches, with 2 B rows.
        assert_eq!(inner_join_count(&db, &schema, &["A", "B"]), 2);
        let q = Query::join(&["A", "B"]).filter("B", "v", Predicate::eq(8i64));
        assert_eq!(true_cardinality(&db, &schema, &q), 1);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x"]);
        a.push_row(vec![Value::Null]);
        a.push_row(vec![Value::Int(1)]);
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x"]);
        b.push_row(vec![Value::Null]);
        b.push_row(vec![Value::Int(1)]);
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        assert_eq!(inner_join_count(&db, &schema, &["A", "B"]), 1);
    }

    #[test]
    fn query_root_detection() {
        let (_, schema) = figure4_db();
        assert_eq!(
            query_subtree_root(&schema, &Query::join(&["B", "C"])),
            "B".to_string()
        );
        assert_eq!(
            query_subtree_root(&schema, &Query::join(&["A", "B", "C"])),
            "A".to_string()
        );
        assert_eq!(
            query_subtree_root(&schema, &Query::join(&["C"])),
            "C".to_string()
        );
    }

    #[test]
    #[should_panic(expected = "invalid query")]
    fn invalid_query_panics() {
        let (db, schema) = figure4_db();
        // A and C are not adjacent → not connected without B.
        let q = Query::join(&["A", "C"]);
        true_cardinality(&db, &schema, &q);
    }
}
