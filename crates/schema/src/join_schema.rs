//! The join schema: a tree of tables connected by equi-join edges.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

/// A `table.column` reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Table name.
    pub table: String,
    /// Column name within the table.
    pub column: String,
}

impl ColumnRef {
    /// Creates a reference from table and column names.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: table.into(),
            column: column.into(),
        }
    }

    /// Parses a `"table.column"` string.  Panics if there is no dot.
    pub fn parse(s: &str) -> Self {
        let (t, c) = s
            .split_once('.')
            .unwrap_or_else(|| panic!("column reference {s:?} must look like table.column"));
        ColumnRef::new(t, c)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// An equi-join edge between two tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinEdge {
    /// One endpoint.
    pub left: ColumnRef,
    /// The other endpoint.
    pub right: ColumnRef,
}

impl JoinEdge {
    /// Creates an edge `left.table.left.column = right.table.right.column`.
    pub fn new(left: ColumnRef, right: ColumnRef) -> Self {
        assert_ne!(
            left.table, right.table,
            "self-joins must duplicate the table first"
        );
        JoinEdge { left, right }
    }

    /// Convenience constructor from `"t1.c1"`, `"t2.c2"` strings.
    pub fn parse(left: &str, right: &str) -> Self {
        JoinEdge::new(ColumnRef::parse(left), ColumnRef::parse(right))
    }

    /// Whether this edge touches `table`.
    pub fn touches(&self, table: &str) -> bool {
        self.left.table == table || self.right.table == table
    }

    /// The endpoint belonging to `table`, if any.
    pub fn endpoint(&self, table: &str) -> Option<&ColumnRef> {
        if self.left.table == table {
            Some(&self.left)
        } else if self.right.table == table {
            Some(&self.right)
        } else {
            None
        }
    }

    /// The endpoint *not* belonging to `table`, if the edge touches it.
    pub fn other_endpoint(&self, table: &str) -> Option<&ColumnRef> {
        if self.left.table == table {
            Some(&self.right)
        } else if self.right.table == table {
            Some(&self.left)
        } else {
            None
        }
    }
}

impl fmt::Display for JoinEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// Errors from schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// An edge references a table that was not declared.
    UnknownTable(String),
    /// The same table was declared twice.
    DuplicateTable(String),
    /// The join graph is not connected.
    Disconnected {
        /// Tables unreachable from the root.
        unreachable: Vec<String>,
    },
    /// The join graph contains a cycle (NeuroCard assumes acyclic schemas; see §4.2).
    Cyclic,
    /// The designated root table was not declared.
    UnknownRoot(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownTable(t) => write!(f, "edge references unknown table {t:?}"),
            SchemaError::DuplicateTable(t) => write!(f, "table {t:?} declared more than once"),
            SchemaError::Disconnected { unreachable } => {
                write!(
                    f,
                    "join schema is not connected; unreachable: {unreachable:?}"
                )
            }
            SchemaError::Cyclic => write!(f, "join schema contains a cycle"),
            SchemaError::UnknownRoot(t) => write!(f, "root table {t:?} was not declared"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A validated acyclic join schema (a tree rooted at [`JoinSchema::root`]).
///
/// Multi-key joins: several edges may connect the same pair of tables (they then form one
/// *composite* join condition and are treated as a single tree edge), and a table may join
/// different neighbours on different columns (the JOB-M situation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinSchema {
    tables: Vec<String>,
    edges: Vec<JoinEdge>,
    root: String,
    /// parent[table] = (parent table, indexes into `edges` forming the composite condition)
    parent: BTreeMap<String, (String, Vec<usize>)>,
    /// children[table] = child tables in BFS discovery order
    children: BTreeMap<String, Vec<String>>,
    bfs_order: Vec<String>,
}

impl JoinSchema {
    /// Builds and validates a join schema.
    ///
    /// `root` should normally be the fact table (e.g. `title` for the IMDB schemas); the
    /// estimator's results do not depend on the choice, but sampling starts at the root.
    pub fn new(
        tables: Vec<String>,
        edges: Vec<JoinEdge>,
        root: impl Into<String>,
    ) -> Result<Self, SchemaError> {
        let root = root.into();
        let mut seen = BTreeSet::new();
        for t in &tables {
            if !seen.insert(t.clone()) {
                return Err(SchemaError::DuplicateTable(t.clone()));
            }
        }
        if !seen.contains(&root) {
            return Err(SchemaError::UnknownRoot(root));
        }
        for e in &edges {
            for t in [&e.left.table, &e.right.table] {
                if !seen.contains(t) {
                    return Err(SchemaError::UnknownTable(t.clone()));
                }
            }
        }

        // Group edges by unordered table pair; each pair is one tree edge.
        let mut pair_edges: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, e) in edges.iter().enumerate() {
            let mut key = [e.left.table.clone(), e.right.table.clone()];
            key.sort();
            pair_edges
                .entry((key[0].clone(), key[1].clone()))
                .or_default()
                .push(i);
        }

        // Adjacency over table pairs.
        let mut adj: HashMap<&str, Vec<(&str, &Vec<usize>)>> = HashMap::new();
        for ((a, b), idxs) in &pair_edges {
            adj.entry(a.as_str()).or_default().push((b.as_str(), idxs));
            adj.entry(b.as_str()).or_default().push((a.as_str(), idxs));
        }

        // BFS from the root, detecting cycles and disconnection.
        let mut parent: BTreeMap<String, (String, Vec<usize>)> = BTreeMap::new();
        let mut children: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for t in &tables {
            children.insert(t.clone(), Vec::new());
        }
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        visited.insert(root.clone());
        queue.push_back(root.clone());
        while let Some(t) = queue.pop_front() {
            order.push(t.clone());
            if let Some(neighbours) = adj.get(t.as_str()) {
                for (n, idxs) in neighbours {
                    if visited.contains(*n) {
                        // Seeing a visited neighbour that is not our parent means a cycle
                        // among table pairs.
                        let is_parent = parent.get(&t).map(|(p, _)| p == n).unwrap_or(false);
                        if !is_parent {
                            return Err(SchemaError::Cyclic);
                        }
                        continue;
                    }
                    visited.insert((*n).to_string());
                    parent.insert((*n).to_string(), (t.clone(), (*idxs).clone()));
                    children
                        .get_mut(&t)
                        .expect("known table")
                        .push((*n).to_string());
                    queue.push_back((*n).to_string());
                }
            }
        }
        if visited.len() != tables.len() {
            let unreachable = tables
                .iter()
                .filter(|t| !visited.contains(*t))
                .cloned()
                .collect();
            return Err(SchemaError::Disconnected { unreachable });
        }

        Ok(JoinSchema {
            tables,
            edges,
            root,
            parent,
            children,
            bfs_order: order,
        })
    }

    /// All table names in declaration order.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// All join edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// The root table.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Whether the schema declares `table`.
    pub fn contains(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t == table)
    }

    /// Tables in breadth-first order starting at the root.
    pub fn bfs_order(&self) -> &[String] {
        &self.bfs_order
    }

    /// Children of `table` in the rooted tree.
    pub fn children(&self, table: &str) -> &[String] {
        self.children
            .get(table)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Parent of `table` in the rooted tree (`None` for the root).
    pub fn parent(&self, table: &str) -> Option<&str> {
        self.parent.get(table).map(|(p, _)| p.as_str())
    }

    /// The composite join condition between `table` and its parent (empty for the root).
    pub fn parent_edges(&self, table: &str) -> Vec<&JoinEdge> {
        self.parent
            .get(table)
            .map(|(_, idxs)| idxs.iter().map(|&i| &self.edges[i]).collect())
            .unwrap_or_default()
    }

    /// All edges of the composite join condition between two adjacent tables, in either
    /// orientation.  Empty if the tables are not adjacent in the tree.
    pub fn edges_between(&self, a: &str, b: &str) -> Vec<&JoinEdge> {
        if self.parent(a) == Some(b) {
            self.parent_edges(a)
        } else if self.parent(b) == Some(a) {
            self.parent_edges(b)
        } else {
            Vec::new()
        }
    }

    /// All join-key columns of `table` (columns that appear in any edge touching it),
    /// sorted and de-duplicated.
    pub fn join_key_columns(&self, table: &str) -> Vec<String> {
        let mut cols: Vec<String> = self
            .edges
            .iter()
            .filter_map(|e| e.endpoint(table).map(|c| c.column.clone()))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }

    /// All join-key column references in the schema (each table.column appearing in an
    /// edge), sorted.
    pub fn all_join_keys(&self) -> Vec<ColumnRef> {
        let mut keys: Vec<ColumnRef> = self
            .edges
            .iter()
            .flat_map(|e| [e.left.clone(), e.right.clone()])
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// The unique tree path between two tables (inclusive of both endpoints).
    pub fn path(&self, from: &str, to: &str) -> Vec<String> {
        // Collect ancestors of both, then splice at the lowest common ancestor.
        let anc = |mut t: String| -> Vec<String> {
            let mut v = vec![t.clone()];
            while let Some(p) = self.parent(&t) {
                v.push(p.to_string());
                t = p.to_string();
            }
            v
        };
        let a = anc(from.to_string());
        let b = anc(to.to_string());
        let b_set: BTreeMap<&String, usize> = b.iter().enumerate().map(|(i, t)| (t, i)).collect();
        let mut path = Vec::new();
        for (ai, t) in a.iter().enumerate() {
            path.push(t.clone());
            if let Some(&bi) = b_set.get(t) {
                // t is the LCA; append the b-side in reverse.
                for j in (0..bi).rev() {
                    path.push(b[j].clone());
                }
                let _ = ai;
                return path;
            }
        }
        // Tables in a validated tree always share the root as an ancestor.
        unreachable!("both tables must share an ancestor in a connected schema")
    }

    /// Whether the given table subset induces a connected subtree.
    pub fn is_connected_subset(&self, tables: &[String]) -> bool {
        if tables.is_empty() {
            return false;
        }
        let set: BTreeSet<&String> = tables.iter().collect();
        if !set.iter().all(|t| self.contains(t)) {
            return false;
        }
        // BFS within the subset.
        let mut visited = BTreeSet::new();
        let mut queue = VecDeque::new();
        visited.insert(tables[0].clone());
        queue.push_back(tables[0].clone());
        while let Some(t) = queue.pop_front() {
            let mut neighbours: Vec<String> = self.children(&t).to_vec();
            if let Some(p) = self.parent(&t) {
                neighbours.push(p.to_string());
            }
            for n in neighbours {
                if set.contains(&n) && visited.insert(n.clone()) {
                    queue.push_back(n);
                }
            }
        }
        visited.len() == set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 4 schema: A(x) — B(x, y) — C(y).
    pub fn abc_schema() -> JoinSchema {
        JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("B.y", "C.y")],
            "A",
        )
        .unwrap()
    }

    fn star_schema() -> JoinSchema {
        JoinSchema::new(
            vec!["t".into(), "ci".into(), "mc".into(), "mk".into()],
            vec![
                JoinEdge::parse("t.id", "ci.movie_id"),
                JoinEdge::parse("t.id", "mc.movie_id"),
                JoinEdge::parse("t.id", "mk.movie_id"),
            ],
            "t",
        )
        .unwrap()
    }

    #[test]
    fn column_ref_parse_display() {
        let c = ColumnRef::parse("title.id");
        assert_eq!(c.table, "title");
        assert_eq!(c.column, "id");
        assert_eq!(c.to_string(), "title.id");
    }

    #[test]
    fn chain_schema_structure() {
        let s = abc_schema();
        assert_eq!(s.root(), "A");
        assert_eq!(s.bfs_order(), &["A", "B", "C"]);
        assert_eq!(s.children("A"), &["B"]);
        assert_eq!(s.children("B"), &["C"]);
        assert_eq!(s.parent("C"), Some("B"));
        assert_eq!(s.parent("A"), None);
        assert_eq!(s.parent_edges("B").len(), 1);
        assert_eq!(s.parent_edges("A").len(), 0);
        assert_eq!(
            s.join_key_columns("B"),
            vec!["x".to_string(), "y".to_string()]
        );
        assert_eq!(s.all_join_keys().len(), 4);
        assert!(s.contains("B"));
        assert!(!s.contains("D"));
    }

    #[test]
    fn star_schema_structure() {
        let s = star_schema();
        assert_eq!(s.children("t").len(), 3);
        assert_eq!(s.bfs_order()[0], "t");
        assert_eq!(s.edges_between("t", "ci").len(), 1);
        assert_eq!(s.edges_between("ci", "t").len(), 1);
        assert!(s.edges_between("ci", "mc").is_empty());
    }

    #[test]
    fn multi_key_edges_grouped() {
        let s = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x"), JoinEdge::parse("A.y", "B.y")],
            "A",
        )
        .unwrap();
        assert_eq!(s.parent_edges("B").len(), 2);
        assert_eq!(s.children("A"), &["B"]);
    }

    #[test]
    fn path_queries() {
        let s = star_schema();
        assert_eq!(s.path("ci", "mk"), vec!["ci", "t", "mk"]);
        assert_eq!(s.path("t", "mc"), vec!["t", "mc"]);
        assert_eq!(s.path("t", "t"), vec!["t"]);
        let chain = abc_schema();
        assert_eq!(chain.path("A", "C"), vec!["A", "B", "C"]);
        assert_eq!(chain.path("C", "A"), vec!["C", "B", "A"]);
    }

    #[test]
    fn connected_subsets() {
        let s = star_schema();
        assert!(s.is_connected_subset(&["t".into(), "ci".into()]));
        assert!(s.is_connected_subset(&["t".into()]));
        assert!(!s.is_connected_subset(&["ci".into(), "mc".into()]));
        assert!(!s.is_connected_subset(&[]));
        assert!(!s.is_connected_subset(&["nope".into()]));
    }

    #[test]
    fn validation_errors() {
        let err = JoinSchema::new(vec!["A".into()], vec![JoinEdge::parse("A.x", "B.x")], "A")
            .unwrap_err();
        assert!(matches!(err, SchemaError::UnknownTable(_)));

        let err = JoinSchema::new(vec!["A".into(), "A".into()], vec![], "A").unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateTable(_)));

        let err = JoinSchema::new(vec!["A".into(), "B".into()], vec![], "A").unwrap_err();
        assert!(matches!(err, SchemaError::Disconnected { .. }));

        let err = JoinSchema::new(vec!["A".into()], vec![], "Z").unwrap_err();
        assert!(matches!(err, SchemaError::UnknownRoot(_)));

        let err = JoinSchema::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                JoinEdge::parse("A.x", "B.x"),
                JoinEdge::parse("B.y", "C.y"),
                JoinEdge::parse("C.z", "A.z"),
            ],
            "A",
        )
        .unwrap_err();
        assert_eq!(err, SchemaError::Cyclic);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "self-joins")]
    fn self_join_edge_panics() {
        JoinEdge::parse("A.x", "A.y");
    }
}
