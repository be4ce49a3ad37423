//! Schema subsetting (paper §6).
//!
//! NeuroCard learns the distribution of the *full outer join* of all tables.  When a query
//! touches only a subset `Q` of the tables, the estimate must be corrected:
//!
//! * every joined table `T ∈ Q` contributes an **indicator constraint** `1_T = 1`
//!   (restricting the probability space to rows that actually have a partner in `T`), and
//! * every omitted table `R ∉ Q` contributes a **fanout downscale** by `F_{R.key}` where
//!   `R.key` is the *unique* join key of `R` lying on the tree path from `R` to `Q`
//!   (uniqueness follows from the schema being a tree).
//!
//! [`SubsetPlan`] precomputes both sets for a query.

use serde::{Deserialize, Serialize};

use crate::join_schema::{ColumnRef, JoinSchema};
use crate::query::Query;

/// The schema-subsetting plan of a query: which indicator constraints to add and which
/// fanout columns to divide by.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsetPlan {
    /// Tables joined by the query (indicator constraint `1_T = 1` for each).
    pub joined_tables: Vec<String>,
    /// Tables omitted by the query.
    pub omitted_tables: Vec<String>,
    /// For every omitted table, the unique fanout key used to downscale (paper Eq. 9).
    pub fanout_keys: Vec<ColumnRef>,
}

impl SubsetPlan {
    /// Builds the plan for `query` against `schema`.
    ///
    /// The query should already have been validated ([`Query::validate`]); this function
    /// panics on inconsistencies rather than reporting them a second time.
    pub fn build(schema: &JoinSchema, query: &Query) -> SubsetPlan {
        let joined: Vec<String> = schema
            .tables()
            .iter()
            .filter(|t| query.joins(t))
            .cloned()
            .collect();
        assert!(
            !joined.is_empty(),
            "query must join at least one schema table"
        );
        let omitted: Vec<String> = schema
            .tables()
            .iter()
            .filter(|t| !query.joins(t))
            .cloned()
            .collect();

        let mut fanout_keys = Vec::with_capacity(omitted.len());
        for r in &omitted {
            fanout_keys.push(fanout_key_for_omitted(schema, r, &joined));
        }

        SubsetPlan {
            joined_tables: joined,
            omitted_tables: omitted,
            fanout_keys,
        }
    }

    /// `(omitted table, fanout key)` pairs.
    pub fn downscales(&self) -> impl Iterator<Item = (&String, &ColumnRef)> {
        self.omitted_tables.iter().zip(self.fanout_keys.iter())
    }

    /// Whether the query touches every table of the schema (no downscaling needed).
    pub fn is_full_schema(&self) -> bool {
        self.omitted_tables.is_empty()
    }
}

/// Finds the unique join key of omitted table `omitted` that lies on the edge incident to
/// `omitted` along the tree path towards the queried tables (paper §6, "Handling fanout
/// scaling for multi-key joins").
fn fanout_key_for_omitted(schema: &JoinSchema, omitted: &str, joined: &[String]) -> ColumnRef {
    // Pick any queried table and walk the unique tree path from `omitted` towards it.  The
    // first edge on that path is incident to `omitted`; its endpoint on the `omitted` side
    // is the downscale key.
    let target = joined
        .first()
        .expect("at least one joined table is required");
    let path = schema.path(omitted, target);
    assert!(
        path.len() >= 2,
        "omitted table must differ from joined tables"
    );
    let next = &path[1];
    let edges = schema.edges_between(omitted, next);
    assert!(
        !edges.is_empty(),
        "adjacent tables on a tree path must share a join edge"
    );
    // With a composite (multi-column) join condition between the two tables, any of the
    // key columns gives the same fanout count by construction of the virtual fanout
    // columns (they are defined per join *edge endpoint*).  We deterministically pick the
    // first in edge order.
    edges[0]
        .endpoint(omitted)
        .expect("edge touches the omitted table")
        .clone()
}

/// Builds the join sub-schema induced by a connected subset of tables — what the baselines
/// and the workload generators sample a join template over.  Its root is the subset table
/// closest to the schema root.
pub fn subset_schema(schema: &JoinSchema, tables: &[String]) -> JoinSchema {
    let edges = schema
        .edges()
        .iter()
        .filter(|e| tables.contains(&e.left.table) && tables.contains(&e.right.table))
        .cloned()
        .collect();
    let root = schema
        .bfs_order()
        .iter()
        .find(|t| tables.contains(t))
        .expect("subset is non-empty")
        .clone();
    JoinSchema::new(tables.to_vec(), edges, root)
        .expect("connected query subsets form valid schemas")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_schema::JoinEdge;

    #[test]
    fn subset_schema_is_valid() {
        // A star: A.id — B.movie_id, A.id — C.movie_id.
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                JoinEdge::parse("A.id", "B.movie_id"),
                JoinEdge::parse("A.id", "C.movie_id"),
            ],
            "A",
        )
        .unwrap();
        let sub = subset_schema(&schema, &["A".to_string(), "C".to_string()]);
        assert_eq!(sub.num_tables(), 2);
        assert_eq!(sub.root(), "A");
        assert_eq!(sub.edges().len(), 1);
        let single = subset_schema(&schema, &["B".to_string()]);
        assert_eq!(single.num_tables(), 1);
        assert_eq!(single.root(), "B");
    }

    /// Figure 4 schema: A(x) — B(x, y) — C(y).
    fn abc() -> JoinSchema {
        JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("B.y", "C.y")],
            "A",
        )
        .unwrap()
    }

    #[test]
    fn full_schema_query_has_no_downscale() {
        let s = abc();
        let q = Query::join(&["A", "B", "C"]);
        let plan = SubsetPlan::build(&s, &q);
        assert!(plan.is_full_schema());
        assert_eq!(plan.joined_tables.len(), 3);
        assert_eq!(plan.downscales().count(), 0);
    }

    #[test]
    fn paper_q2_downscales_by_bx_and_cy() {
        // Q2 in Figure 4d: SELECT COUNT(*) FROM A WHERE A.x = 2.  Omitted: B, C.
        // B's unique key towards A is B.x; C's unique key towards A is C.y (path C→B→A,
        // edge incident to C is B.y = C.y, endpoint on C's side is C.y).
        let s = abc();
        let q = Query::join(&["A"]);
        let plan = SubsetPlan::build(&s, &q);
        assert_eq!(plan.omitted_tables, vec!["B".to_string(), "C".to_string()]);
        assert_eq!(
            plan.fanout_keys,
            vec![ColumnRef::parse("B.x"), ColumnRef::parse("C.y")]
        );
        assert!(!plan.is_full_schema());
    }

    #[test]
    fn middle_table_omitted() {
        // Query on A ⋈ B: C omitted, downscale by C.y.
        let s = abc();
        let plan = SubsetPlan::build(&s, &Query::join(&["A", "B"]));
        assert_eq!(plan.omitted_tables, vec!["C".to_string()]);
        assert_eq!(plan.fanout_keys, vec![ColumnRef::parse("C.y")]);

        // Query on B ⋈ C: A omitted, downscale by A.x.
        let plan = SubsetPlan::build(&s, &Query::join(&["B", "C"]));
        assert_eq!(plan.omitted_tables, vec!["A".to_string()]);
        assert_eq!(plan.fanout_keys, vec![ColumnRef::parse("A.x")]);
    }

    #[test]
    fn star_schema_downscale_keys() {
        let s = JoinSchema::new(
            vec!["t".into(), "ci".into(), "mc".into()],
            vec![
                JoinEdge::parse("t.id", "ci.movie_id"),
                JoinEdge::parse("t.id", "mc.movie_id"),
            ],
            "t",
        )
        .unwrap();
        let plan = SubsetPlan::build(&s, &Query::join(&["t", "ci"]));
        assert_eq!(plan.omitted_tables, vec!["mc".to_string()]);
        assert_eq!(plan.fanout_keys, vec![ColumnRef::parse("mc.movie_id")]);
    }
}
