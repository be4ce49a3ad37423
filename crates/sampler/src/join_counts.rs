//! Exact Weight join counts (paper §4.1).
//!
//! For a join tree `T₁..T_N` rooted at `T₁`, the join count of tuple `t ∈ Tᵢ` is
//!
//! ```text
//! wᵢ(t) = Π_{Tⱼ ∈ children(Tᵢ)}  Σ_{t' ∈ t ⋉ Tⱼ} wⱼ(t')
//! ```
//!
//! i.e. the number of rows of the full join of `Tᵢ`'s subtree that contain `t`.  Full-outer
//! semantics add a virtual `⊥` tuple per table: a parent tuple with no match in a child
//! joins the child's `⊥`; the parent's `⊥` joins every child tuple whose key is unmatched in
//! the parent (plus the child's `⊥`), and the all-`⊥` assignment is excluded.
//!
//! Everything is computed bottom-up in one pass over each table (`O(Σ|Tᵢ|)`), which is the
//! "13 seconds for JOB-light / 4 minutes for JOB-M" preparation step of the paper.

use std::collections::HashMap;
use std::sync::Arc;

use nc_schema::JoinSchema;
use nc_storage::{Database, RowId, Value};

/// A composite join-key value (one [`Value`] per column of a multi-key join condition).
pub type CompositeKey = Vec<Value>;

/// Join-count bookkeeping for one table.
#[derive(Debug, Clone)]
pub struct TableCounts {
    /// Table name.
    pub table: String,
    /// `w(t)` for every base row.
    pub row_weights: Vec<u128>,
    /// `w(⊥)` for this table's virtual NULL tuple.
    pub null_weight: u128,
    /// Rows grouped by the composite key on the edge towards the *parent* (empty for the
    /// root table).  Keys containing NULL are excluded (they can never match a parent).
    pub key_index: HashMap<CompositeKey, Vec<RowId>>,
    /// Total weight per parent-edge key: `Σ row_weights` over `key_index[key]`.
    pub key_weight: HashMap<CompositeKey, u128>,
    /// Rows whose parent-edge key has no match in the parent table (or contains NULL);
    /// these are the candidates when the parent slot is `⊥`.
    pub unmatched_rows: Vec<RowId>,
    /// Total weight of `unmatched_rows`.
    pub unmatched_weight: u128,
}

/// Join counts for every table of a schema.
#[derive(Debug, Clone)]
pub struct JoinCounts {
    tables: HashMap<String, TableCounts>,
    total_full_join_rows: u128,
    order: Vec<String>,
}

impl JoinCounts {
    /// Computes the join counts for `schema` over `db` by bottom-up dynamic programming.
    pub fn compute(db: &Database, schema: &JoinSchema) -> Self {
        let order: Vec<String> = schema.bfs_order().to_vec();
        let mut computed: HashMap<String, TableCounts> = HashMap::new();

        // Bottom-up: reverse BFS order guarantees children are computed before parents.
        for table_name in order.iter().rev() {
            let table = db.expect_table(table_name);
            let n = table.num_rows();

            // --- 1. row weights: product over children of matched (or ⊥) weights -------
            let mut row_weights = vec![1u128; n];
            let mut null_weight = 1u128;
            for child_name in schema.children(table_name) {
                let child = computed
                    .get(child_name)
                    .expect("children computed before parents");
                let edges = schema.edges_between(table_name, child_name);
                let my_cols: Vec<&nc_storage::Column> = edges
                    .iter()
                    .map(|e| {
                        let col = &e.endpoint(table_name).expect("edge touches table").column;
                        table
                            .column(col)
                            .unwrap_or_else(|| panic!("missing join column {table_name}.{col}"))
                    })
                    .collect();
                for (row, w) in row_weights.iter_mut().enumerate() {
                    let key: CompositeKey = my_cols.iter().map(|c| c.value(row)).collect();
                    let factor = if key.iter().any(Value::is_null) {
                        child.null_weight
                    } else {
                        match child.key_weight.get(&key) {
                            Some(&kw) if kw > 0 => kw,
                            _ => child.null_weight,
                        }
                    };
                    *w = w.saturating_mul(factor);
                }
                null_weight = null_weight
                    .saturating_mul(child.unmatched_weight.saturating_add(child.null_weight));
            }

            // --- 2. parent-edge grouping (for the later top-down sampling pass) --------
            let mut key_index: HashMap<CompositeKey, Vec<RowId>> = HashMap::new();
            let mut key_weight: HashMap<CompositeKey, u128> = HashMap::new();
            let mut unmatched_rows = Vec::new();
            let mut unmatched_weight = 0u128;
            if let Some(parent_name) = schema.parent(table_name) {
                let parent = db.expect_table(parent_name);
                let edges = schema.edges_between(parent_name, table_name);
                let my_cols: Vec<&nc_storage::Column> = edges
                    .iter()
                    .map(|e| {
                        let col = &e.endpoint(table_name).expect("edge touches table").column;
                        table
                            .column(col)
                            .unwrap_or_else(|| panic!("missing join column {table_name}.{col}"))
                    })
                    .collect();
                let parent_cols: Vec<&nc_storage::Column> = edges
                    .iter()
                    .map(|e| {
                        let col = &e.endpoint(parent_name).expect("edge touches parent").column;
                        parent
                            .column(col)
                            .unwrap_or_else(|| panic!("missing join column {parent_name}.{col}"))
                    })
                    .collect();
                // Set of parent keys, to classify unmatched child rows.
                let mut parent_keys: std::collections::HashSet<CompositeKey> =
                    std::collections::HashSet::new();
                for prow in 0..parent.num_rows() {
                    let key: CompositeKey = parent_cols.iter().map(|c| c.value(prow)).collect();
                    if !key.iter().any(Value::is_null) {
                        parent_keys.insert(key);
                    }
                }
                #[expect(
                    clippy::needless_range_loop,
                    reason = "`row` indexes the key columns and the weights, and is pushed as a `RowId`"
                )]
                for row in 0..n {
                    let key: CompositeKey = my_cols.iter().map(|c| c.value(row)).collect();
                    let w = row_weights[row];
                    if key.iter().any(Value::is_null) {
                        unmatched_rows.push(row as RowId);
                        unmatched_weight = unmatched_weight.saturating_add(w);
                        continue;
                    }
                    if !parent_keys.contains(&key) {
                        unmatched_rows.push(row as RowId);
                        unmatched_weight = unmatched_weight.saturating_add(w);
                    }
                    key_index.entry(key.clone()).or_default().push(row as RowId);
                    *key_weight.entry(key).or_insert(0) += w;
                }
            }

            computed.insert(
                table_name.clone(),
                TableCounts {
                    table: table_name.clone(),
                    row_weights,
                    null_weight,
                    key_index,
                    key_weight,
                    unmatched_rows,
                    unmatched_weight,
                },
            );
        }

        // Total size of the augmented full join: all root assignments minus the excluded
        // all-⊥ combination.
        let root = computed.get(schema.root()).expect("root computed");
        let total = root
            .row_weights
            .iter()
            .fold(0u128, |acc, w| acc.saturating_add(*w))
            .saturating_add(root.null_weight)
            .saturating_sub(1);

        JoinCounts {
            tables: computed,
            total_full_join_rows: total,
            order,
        }
    }

    /// Join-count bookkeeping for one table.
    pub fn table(&self, name: &str) -> &TableCounts {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no join counts for table {name:?}"))
    }

    /// `|J|`: the number of rows of the augmented full outer join (the normalising constant
    /// that converts selectivities into cardinalities, paper §4.1).
    pub fn full_join_rows(&self) -> u128 {
        self.total_full_join_rows
    }

    /// Tables in the BFS order used during sampling.
    pub fn order(&self) -> &[String] {
        &self.order
    }

    /// Convenience: computes the counts and wraps them in an [`Arc`].
    pub fn compute_shared(db: &Database, schema: &JoinSchema) -> Arc<Self> {
        Arc::new(Self::compute(db, schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::JoinEdge;
    use nc_storage::TableBuilder;

    /// The paper's Figure 4 data.
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
    fn figure4_join_counts_match_paper() {
        let (db, schema) = figure4_db();
        let counts = JoinCounts::compute(&db, &schema);
        // Figure 4b: A.x = 1 → 1, A.x = 2 → 3.
        let a = counts.table("A");
        assert_eq!(a.row_weights, vec![1, 3]);
        // A.⊥ covers the chains reachable once A is NULL: (⊥,⊥,d) and the excluded all-⊥.
        assert_eq!(a.null_weight, 2);
        // B: (1,a) → 1, (2,b) → 1, (2,c) → 2; B.⊥ covers (…,⊥,d) and (…,⊥,⊥).
        let b = counts.table("B");
        assert_eq!(b.row_weights, vec![1, 1, 2]);
        assert_eq!(b.null_weight, 2);
        // C: every row → 1; C.⊥ → 1 (a leaf's ⊥ is a single assignment).
        let c = counts.table("C");
        assert_eq!(c.row_weights, vec![1, 1, 1]);
        assert_eq!(c.null_weight, 1);
        // |J| = (1 + 3) + (2 − 1 for the excluded all-⊥ assignment) = 5, matching the five
        // rows of Figure 4c.
        assert_eq!(counts.full_join_rows(), 5);
    }

    #[test]
    fn figure4_matches_bruteforce_enumeration() {
        let (db, schema) = figure4_db();
        let counts = JoinCounts::compute(&db, &schema);
        let rows = nc_exec::enumerate_full_join(&db, &schema);
        assert_eq!(counts.full_join_rows(), rows.len() as u128);
        // Per-root-row counts agree with the enumeration.
        let a = counts.table("A");
        for (row, w) in a.row_weights.iter().enumerate() {
            let observed = rows
                .iter()
                .filter(|r| r.row_of("A").flatten() == Some(row as u32))
                .count() as u128;
            assert_eq!(*w, observed, "root row {row}");
        }
    }

    #[test]
    fn unmatched_bookkeeping() {
        let (db, schema) = figure4_db();
        let counts = JoinCounts::compute(&db, &schema);
        // C's row 'd' (row id 2) has no partner in B.
        let c = counts.table("C");
        assert_eq!(c.unmatched_rows, vec![2]);
        assert_eq!(c.unmatched_weight, 1);
        // B has no unmatched rows w.r.t. A.
        let b = counts.table("B");
        assert!(b.unmatched_rows.is_empty());
        assert_eq!(b.unmatched_weight, 0);
        // Key groupings on the parent edge.
        assert_eq!(b.key_index[&vec![Value::Int(2)]].len(), 2);
        assert_eq!(b.key_weight[&vec![Value::Int(2)]], 3);
        assert_eq!(b.key_weight[&vec![Value::Int(1)]], 1);
    }

    #[test]
    fn star_schema_counts_match_enumeration() {
        // A star: R(k) with two children S(k), T(k); exercises the multi-child ⊥ product.
        let mut db = Database::new();
        let mut r = TableBuilder::new("R", &["k"]);
        for k in [1, 2] {
            r.push_row(vec![Value::Int(k)]);
        }
        db.add_table(r.finish());
        let mut s = TableBuilder::new("S", &["k"]);
        for k in [1, 1, 3] {
            s.push_row(vec![Value::Int(k)]);
        }
        db.add_table(s.finish());
        let mut t = TableBuilder::new("T", &["k"]);
        for k in [2, 4, 4] {
            t.push_row(vec![Value::Int(k)]);
        }
        db.add_table(t.finish());
        let schema = JoinSchema::new(
            vec!["R".into(), "S".into(), "T".into()],
            vec![JoinEdge::parse("R.k", "S.k"), JoinEdge::parse("R.k", "T.k")],
            "R",
        )
        .unwrap();
        let counts = JoinCounts::compute(&db, &schema);
        let rows = nc_exec::enumerate_full_join(&db, &schema);
        assert_eq!(counts.full_join_rows(), rows.len() as u128);
    }

    #[test]
    fn composite_key_counts() {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "y"]);
        a.push_row(vec![Value::Int(1), Value::Int(10)]);
        a.push_row(vec![Value::Int(1), Value::Int(20)]);
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "y"]);
        b.push_row(vec![Value::Int(1), Value::Int(10)]);
        b.push_row(vec![Value::Int(1), Value::Int(10)]);
        b.push_row(vec![Value::Int(1), Value::Int(30)]);
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("A.y", "B.y")],
            "A",
        )
        .unwrap();
        let counts = JoinCounts::compute(&db, &schema);
        assert_eq!(counts.table("A").row_weights, vec![2, 1]); // (1,20) joins B.⊥
        let rows = nc_exec::enumerate_full_join(&db, &schema);
        assert_eq!(counts.full_join_rows(), rows.len() as u128);
    }

    #[test]
    fn null_keys_go_to_null_branch() {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x"]);
        a.push_row(vec![Value::Null]);
        a.push_row(vec![Value::Int(1)]);
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x"]);
        b.push_row(vec![Value::Int(1)]);
        b.push_row(vec![Value::Null]);
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        let counts = JoinCounts::compute(&db, &schema);
        let rows = nc_exec::enumerate_full_join(&db, &schema);
        assert_eq!(counts.full_join_rows(), rows.len() as u128);
        // The NULL-keyed B row is "unmatched" and reachable only under A.⊥.
        assert!(counts.table("B").unmatched_rows.contains(&1));
    }

    #[test]
    fn order_and_accessors() {
        let (db, schema) = figure4_db();
        let counts = JoinCounts::compute_shared(&db, &schema);
        assert_eq!(counts.order(), &["A", "B", "C"]);
        assert_eq!(counts.table("A").table, "A");
    }

    #[test]
    #[should_panic(expected = "no join counts")]
    fn unknown_table_panics() {
        let (db, schema) = figure4_db();
        JoinCounts::compute(&db, &schema).table("Z");
    }
}
