//! The "wide tuple" layout of the full outer join, including virtual columns.
//!
//! NeuroCard's autoregressive model is trained over a flat tuple containing every column of
//! every table in the schema, plus two kinds of *virtual columns* the sampler appends
//! on-the-fly (paper §6):
//!
//! * an **indicator** `1_T` per table — 1 when the sampled full-join row has a real partner
//!   in `T`, 0 when it holds `T`'s `⊥` tuple,
//! * a **fanout** `F_{T.k}` per join-key column — the number of times the row's key value
//!   occurs in `T.k` in the base table (1 for `⊥` rows and NULL keys, so downscaling by it
//!   is a no-op).
//!
//! The virtual columns are placed after all base columns, indicators before fanouts, which
//! the paper found to behave better than interleaving them (§6, "Ordering virtual columns").

use std::collections::HashMap;

use nc_schema::{ColumnRef, JoinSchema};
use nc_storage::{Database, Value};

use crate::sampler::JoinSample;

/// The role a wide-layout column plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// A base-table column that is not a join key.
    Content,
    /// A base-table column used as a join key by some edge.
    JoinKey,
    /// Virtual indicator column `1_T`.
    Indicator,
    /// Virtual fanout column `F_{T.k}`.
    Fanout,
}

/// One column of the wide layout.
#[derive(Debug, Clone)]
pub struct WideColumn {
    /// Owning table (for virtual columns, the table they describe).
    pub table: String,
    /// Base column name; for indicators this is `"__in"`, for fanouts the key column name.
    pub column: String,
    /// Display name, unique across the layout (e.g. `title.id`, `1(title)`, `F(cast_info.movie_id)`).
    pub name: String,
    /// Role of the column.
    pub kind: ColumnKind,
}

/// The full-join column layout shared by the sampler, the estimator and the baselines.
#[derive(Debug, Clone)]
pub struct WideLayout {
    columns: Vec<WideColumn>,
    /// Table order matching [`JoinSample::slots`].
    table_order: Vec<String>,
    /// `(table order index, base column name)` for each base column, parallel to `columns`.
    base_source: Vec<Option<(usize, String)>>,
    /// For indicator columns: the table order index they describe.
    indicator_source: Vec<Option<usize>>,
    /// For fanout columns: (table order index, key column, value -> occurrence count).
    #[expect(
        clippy::type_complexity,
        reason = "one private field, destructured where it is read: an alias would name it twice"
    )]
    fanout_source: Vec<Option<(usize, String, HashMap<Value, u64>)>>,
    by_name: HashMap<String, usize>,
    /// Whether [`WideLayout::materialize`] is available.  Layouts rebuilt from artifact
    /// metadata ([`WideLayout::from_metadata`]) lack the per-key fanout maps (a training
    /// concern); they serve inference, which only reads column metadata.
    materializable: bool,
}

impl WideLayout {
    /// Builds the layout for `schema` over `db` (precomputes the per-key fanout maps).
    pub fn new(db: &Database, schema: &JoinSchema) -> Self {
        Self::with_options(db, schema, true)
    }

    /// Builds the layout without the base join-key columns.
    ///
    /// The original NeuroCard configuration excludes raw join-key columns from the learned
    /// tuple: queries never filter them, the join semantics are fully carried by the
    /// indicator and fanout virtual columns, and the keys are the highest-cardinality —
    /// i.e. hardest to learn and most expensive to embed — columns of the schema.
    pub fn without_join_keys(db: &Database, schema: &JoinSchema) -> Self {
        Self::with_options(db, schema, false)
    }

    /// Builds the layout, optionally including the base join-key columns.
    pub fn with_options(db: &Database, schema: &JoinSchema, include_join_keys: bool) -> Self {
        let table_order: Vec<String> = schema.bfs_order().to_vec();
        let mut columns = Vec::new();
        let mut base_source = Vec::new();
        let mut indicator_source = Vec::new();
        let mut fanout_source = Vec::new();

        // 1. Base columns of every table, BFS order, declaration order within a table.
        for (ti, tname) in table_order.iter().enumerate() {
            let table = db.expect_table(tname);
            let join_keys = schema.join_key_columns(tname);
            for col in table.columns() {
                let kind = if join_keys.iter().any(|k| k == col.name()) {
                    ColumnKind::JoinKey
                } else {
                    ColumnKind::Content
                };
                if kind == ColumnKind::JoinKey && !include_join_keys {
                    continue;
                }
                columns.push(WideColumn {
                    table: tname.clone(),
                    column: col.name().to_string(),
                    name: format!("{tname}.{}", col.name()),
                    kind,
                });
                base_source.push(Some((ti, col.name().to_string())));
                indicator_source.push(None);
                fanout_source.push(None);
            }
        }

        // 2. Indicator columns, one per table.
        for (ti, tname) in table_order.iter().enumerate() {
            columns.push(WideColumn {
                table: tname.clone(),
                column: "__in".to_string(),
                name: format!("1({tname})"),
                kind: ColumnKind::Indicator,
            });
            base_source.push(None);
            indicator_source.push(Some(ti));
            fanout_source.push(None);
        }

        // 3. Fanout columns, one per join-key column reference.
        for key in schema.all_join_keys() {
            let ti = table_order
                .iter()
                .position(|t| *t == key.table)
                .expect("join key table is in the schema");
            let counts = db
                .expect_table(&key.table)
                .column(&key.column)
                .unwrap_or_else(|| panic!("missing join key column {key}"))
                .value_counts();
            columns.push(WideColumn {
                table: key.table.clone(),
                column: key.column.clone(),
                name: format!("F({key})"),
                kind: ColumnKind::Fanout,
            });
            base_source.push(None);
            indicator_source.push(None);
            fanout_source.push(Some((ti, key.column.clone(), counts)));
        }

        let by_name = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();

        WideLayout {
            columns,
            table_order,
            base_source,
            indicator_source,
            fanout_source,
            by_name,
            materializable: true,
        }
    }

    /// Rebuilds a layout from persisted column metadata alone (no [`Database`]).
    ///
    /// This is the model-artifact load path: inference needs the column list, name index
    /// and table order, but not the per-key fanout maps (those exist only to materialise
    /// *training* rows).  The returned layout therefore reports
    /// [`WideLayout::is_materializable`]` == false` and panics if asked to materialise.
    pub fn from_metadata(
        columns: Vec<WideColumn>,
        table_order: Vec<String>,
    ) -> Result<Self, String> {
        let mut by_name = HashMap::with_capacity(columns.len());
        let mut base_source = Vec::with_capacity(columns.len());
        let mut indicator_source = Vec::with_capacity(columns.len());
        let mut fanout_source = Vec::with_capacity(columns.len());
        let table_index = |t: &str| {
            table_order
                .iter()
                .position(|name| name == t)
                .ok_or_else(|| format!("column table {t:?} is not in the table order"))
        };
        for (i, col) in columns.iter().enumerate() {
            if by_name.insert(col.name.clone(), i).is_some() {
                return Err(format!("duplicate column name {:?}", col.name));
            }
            let ti = table_index(&col.table)?;
            match col.kind {
                ColumnKind::Content | ColumnKind::JoinKey => {
                    base_source.push(Some((ti, col.column.clone())));
                    indicator_source.push(None);
                    fanout_source.push(None);
                }
                ColumnKind::Indicator => {
                    base_source.push(None);
                    indicator_source.push(Some(ti));
                    fanout_source.push(None);
                }
                ColumnKind::Fanout => {
                    base_source.push(None);
                    indicator_source.push(None);
                    fanout_source.push(None);
                }
            }
        }
        Ok(WideLayout {
            columns,
            table_order,
            base_source,
            indicator_source,
            fanout_source,
            by_name,
            materializable: false,
        })
    }

    /// Whether this layout can materialise sampled rows (false for layouts rebuilt from
    /// artifact metadata, which drop the training-only fanout maps).
    pub fn is_materializable(&self) -> bool {
        self.materializable
    }

    /// All columns in layout order.
    pub fn columns(&self) -> &[WideColumn] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the layout is empty (never for a valid schema).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Table order matching [`JoinSample::slots`].
    pub fn table_order(&self) -> &[String] {
        &self.table_order
    }

    /// Index of the base column `table.column`, if present.
    pub fn index_of(&self, table: &str, column: &str) -> Option<usize> {
        self.by_name.get(&format!("{table}.{column}")).copied()
    }

    /// Index of the indicator column of `table`, if present.
    pub fn indicator_index(&self, table: &str) -> Option<usize> {
        self.by_name.get(&format!("1({table})")).copied()
    }

    /// Index of the fanout column of join key `key`, if present.
    pub fn fanout_index(&self, key: &ColumnRef) -> Option<usize> {
        self.by_name.get(&format!("F({key})")).copied()
    }

    /// Materialises a sampled full-join row into the wide layout.
    ///
    /// Panics on metadata-only layouts (see [`WideLayout::from_metadata`]): they have no
    /// fanout maps, and materialisation is a training-path operation anyway.
    pub fn materialize(&self, db: &Database, sample: &JoinSample) -> Vec<Value> {
        assert!(
            self.materializable,
            "this layout was rebuilt from artifact metadata and cannot materialise rows \
             (train against a live database instead)"
        );
        assert_eq!(
            sample.slots.len(),
            self.table_order.len(),
            "sample arity must match the layout's table order"
        );
        let tables: Vec<&std::sync::Arc<nc_storage::Table>> = self
            .table_order
            .iter()
            .map(|t| db.expect_table(t))
            .collect();
        let mut out = Vec::with_capacity(self.columns.len());
        for i in 0..self.columns.len() {
            if let Some((ti, col)) = &self.base_source[i] {
                let v = match sample.slots[*ti] {
                    Some(row) => tables[*ti].value(col, row),
                    None => Value::Null,
                };
                out.push(v);
            } else if let Some(ti) = self.indicator_source[i] {
                out.push(Value::Int(if sample.slots[ti].is_some() { 1 } else { 0 }));
            } else if let Some((ti, col, counts)) = &self.fanout_source[i] {
                let fanout = match sample.slots[*ti] {
                    Some(row) => {
                        let key = tables[*ti].value(col, row);
                        if key.is_null() {
                            1
                        } else {
                            counts.get(&key).copied().unwrap_or(1).max(1)
                        }
                    }
                    None => 1,
                };
                out.push(Value::Int(fanout as i64));
            } else {
                unreachable!("every layout column has exactly one source");
            }
        }
        out
    }

    /// Materialises many samples.
    pub fn materialize_batch(&self, db: &Database, samples: &[JoinSample]) -> Vec<Vec<Value>> {
        samples.iter().map(|s| self.materialize(db, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::JoinSampler;
    use nc_schema::JoinEdge;
    use nc_storage::TableBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn figure4() -> (Arc<Database>, Arc<JoinSchema>) {
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
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn layout_structure_matches_figure4c() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        // Base columns: A.x, B.x, B.y, C.y → 4; indicators → 3; fanouts (A.x, B.x, B.y,
        // C.y) → 4.  Total 11.
        assert_eq!(layout.len(), 11);
        assert!(!layout.is_empty());
        assert_eq!(layout.table_order(), &["A", "B", "C"]);
        assert_eq!(layout.index_of("A", "x"), Some(0));
        assert!(layout.indicator_index("A").is_some());
        assert!(layout.fanout_index(&ColumnRef::parse("B.x")).is_some());
        assert!(layout.fanout_index(&ColumnRef::parse("Z.z")).is_none());
        let kinds: Vec<ColumnKind> = layout.columns().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == ColumnKind::Indicator)
                .count(),
            3
        );
        assert_eq!(
            kinds.iter().filter(|k| **k == ColumnKind::Fanout).count(),
            4
        );
        // All base columns of this schema happen to be join keys.
        assert_eq!(
            kinds.iter().filter(|k| **k == ColumnKind::JoinKey).count(),
            4
        );
    }

    #[test]
    fn materialized_rows_match_figure4c() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        // Row (A.x=2, B=(2,c), C=row 0 'c') from Figure 4c:
        // fanouts F(B.x)=2 (value 2 appears twice in B.x), F(C.y)=2 ('c' appears twice).
        let sample = JoinSample {
            slots: vec![Some(1), Some(2), Some(0)],
        };
        let row = layout.materialize(&db, &sample);
        assert_eq!(row[layout.index_of("A", "x").unwrap()], Value::Int(2));
        assert_eq!(row[layout.index_of("B", "y").unwrap()], Value::from("c"));
        assert_eq!(row[layout.indicator_index("A").unwrap()], Value::Int(1));
        assert_eq!(row[layout.indicator_index("C").unwrap()], Value::Int(1));
        assert_eq!(
            row[layout.fanout_index(&ColumnRef::parse("B.x")).unwrap()],
            Value::Int(2)
        );
        assert_eq!(
            row[layout.fanout_index(&ColumnRef::parse("C.y")).unwrap()],
            Value::Int(2)
        );
        assert_eq!(
            row[layout.fanout_index(&ColumnRef::parse("A.x")).unwrap()],
            Value::Int(1)
        );

        // The unmatched-C row (⊥, ⊥, 'd'): indicators 0,0,1; all fanouts 1; base values NULL.
        let sample = JoinSample {
            slots: vec![None, None, Some(2)],
        };
        let row = layout.materialize(&db, &sample);
        assert_eq!(row[layout.index_of("A", "x").unwrap()], Value::Null);
        assert_eq!(row[layout.index_of("B", "y").unwrap()], Value::Null);
        assert_eq!(row[layout.index_of("C", "y").unwrap()], Value::from("d"));
        assert_eq!(row[layout.indicator_index("A").unwrap()], Value::Int(0));
        assert_eq!(row[layout.indicator_index("B").unwrap()], Value::Int(0));
        assert_eq!(row[layout.indicator_index("C").unwrap()], Value::Int(1));
        assert_eq!(
            row[layout.fanout_index(&ColumnRef::parse("B.x")).unwrap()],
            Value::Int(1)
        );
    }

    #[test]
    fn batch_materialization_from_sampler() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let samples = sampler.sample_many(&mut rng, 64);
        let rows = layout.materialize_batch(&db, &samples);
        assert_eq!(rows.len(), 64);
        for r in &rows {
            assert_eq!(r.len(), layout.len());
            // Indicators are always 0/1 and at least one is 1.
            let mut any = false;
            for t in ["A", "B", "C"] {
                let v = &r[layout.indicator_index(t).unwrap()];
                assert!(*v == Value::Int(0) || *v == Value::Int(1));
                any |= *v == Value::Int(1);
            }
            assert!(any);
        }
    }

    #[test]
    fn metadata_round_trip_preserves_lookup_structure() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        assert!(layout.is_materializable());
        let rebuilt =
            WideLayout::from_metadata(layout.columns().to_vec(), layout.table_order().to_vec())
                .unwrap();
        assert!(!rebuilt.is_materializable());
        assert_eq!(rebuilt.len(), layout.len());
        assert_eq!(rebuilt.table_order(), layout.table_order());
        for c in layout.columns() {
            assert_eq!(
                rebuilt.by_name.get(&c.name),
                layout.by_name.get(&c.name),
                "index of {} must survive the round trip",
                c.name
            );
        }
        assert_eq!(rebuilt.index_of("A", "x"), layout.index_of("A", "x"));
        assert_eq!(rebuilt.indicator_index("B"), layout.indicator_index("B"));
        assert_eq!(
            rebuilt.fanout_index(&ColumnRef::parse("C.y")),
            layout.fanout_index(&ColumnRef::parse("C.y"))
        );
        // Inconsistent metadata is reported, not panicked on.
        assert!(WideLayout::from_metadata(layout.columns().to_vec(), vec!["A".into()]).is_err());
        let mut dup = layout.columns().to_vec();
        let clone = dup[0].clone();
        dup.push(clone);
        assert!(WideLayout::from_metadata(dup, layout.table_order().to_vec()).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot materialise")]
    fn metadata_layout_refuses_to_materialize() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        let rebuilt =
            WideLayout::from_metadata(layout.columns().to_vec(), layout.table_order().to_vec())
                .unwrap();
        rebuilt.materialize(
            &db,
            &JoinSample {
                slots: vec![Some(0), Some(0), Some(0)],
            },
        );
    }

    #[test]
    #[should_panic(expected = "arity must match")]
    fn wrong_arity_sample_panics() {
        let (db, schema) = figure4();
        let layout = WideLayout::new(&db, &schema);
        layout.materialize(
            &db,
            &JoinSample {
                slots: vec![Some(0)],
            },
        );
    }
}
