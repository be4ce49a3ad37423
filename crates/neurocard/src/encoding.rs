//! Dictionary encoding of the wide full-join layout into the model's token space.
//!
//! The autoregressive model consumes dense integer tokens.  [`EncodedLayout`] owns, for
//! every column of the sampler's [`WideLayout`]:
//!
//! * an order-preserving [`ColumnDictionary`] (code 0 = NULL, real values from 1), built
//!   from the **base tables** (plus `{0, 1}` for indicators and the observed fanout values
//!   for fanout columns), so it covers every value the full join can produce,
//! * a [`Factorization`] describing how that dictionary code is split into model
//!   sub-columns (paper §5).
//!
//! The concatenation of all sub-columns, in wide-layout order, is the model's column space;
//! the wide layout already places virtual columns last (indicators then fanouts), matching
//! the ordering recommendation of §6.

use nc_sampler::{ColumnKind, WideLayout};
use nc_storage::{ColumnDictionary, Database, Value};

use crate::factorization::Factorization;

/// Mapping of one model sub-column back to its originating wide column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubColumn {
    /// Index into the wide layout.
    pub wide_index: usize,
    /// Which sub-column of the factorization this is (0 = most significant).
    pub sub_index: usize,
    /// Token domain of this sub-column (excluding the MASK token).
    pub domain: usize,
}

/// The encoded full-join layout: dictionaries + factorizations + the flattened sub-column
/// space of the model.
#[derive(Debug, Clone)]
pub struct EncodedLayout {
    layout: WideLayout,
    dicts: Vec<ColumnDictionary>,
    facts: Vec<Factorization>,
    subcolumns: Vec<SubColumn>,
    /// For each wide column, the indices of its sub-columns in `subcolumns`.
    wide_to_sub: Vec<Vec<usize>>,
}

impl EncodedLayout {
    /// Builds the encoded layout.
    ///
    /// * `dict_db` — the database used to build dictionaries.  Usually the same database
    ///   that is sampled, but the update experiments pass the *full* (all-partition)
    ///   database here so that token domains stay fixed across snapshots.
    /// * `fact_bits` — factorization width; `None` disables factorization.
    pub fn build(dict_db: &Database, layout: WideLayout, fact_bits: Option<u32>) -> Self {
        let mut dicts = Vec::with_capacity(layout.len());
        for col in layout.columns() {
            let dict = match col.kind {
                ColumnKind::Content | ColumnKind::JoinKey => {
                    let table = dict_db.expect_table(&col.table);
                    let column = table
                        .column(&col.column)
                        .unwrap_or_else(|| panic!("missing column {}.{}", col.table, col.column));
                    ColumnDictionary::from_column(column)
                }
                ColumnKind::Indicator => {
                    ColumnDictionary::from_sorted_values(vec![Value::Int(0), Value::Int(1)])
                }
                ColumnKind::Fanout => {
                    let table = dict_db.expect_table(&col.table);
                    let column = table
                        .column(&col.column)
                        .unwrap_or_else(|| panic!("missing column {}.{}", col.table, col.column));
                    let mut fanouts: Vec<i64> =
                        column.value_counts().values().map(|&c| c as i64).collect();
                    fanouts.push(1); // ⊥ rows and NULL keys report fanout 1
                    fanouts.sort_unstable();
                    fanouts.dedup();
                    ColumnDictionary::from_sorted_values(
                        fanouts.into_iter().map(Value::Int).collect(),
                    )
                }
            };
            dicts.push(dict);
        }

        let facts: Vec<Factorization> = dicts
            .iter()
            .zip(layout.columns())
            .map(|(d, col)| {
                let domain = d.domain_size() as u32;
                match fact_bits {
                    // Never factorize the virtual columns: their domains are tiny and the
                    // inference code reads them as whole values.
                    Some(bits) if matches!(col.kind, ColumnKind::Content | ColumnKind::JoinKey) => {
                        Factorization::new(domain, bits)
                    }
                    _ => Factorization::identity(domain),
                }
            })
            .collect();

        let mut subcolumns = Vec::new();
        let mut wide_to_sub = Vec::with_capacity(layout.len());
        for (wide_index, fact) in facts.iter().enumerate() {
            let mut subs = Vec::with_capacity(fact.num_subcolumns());
            for (sub_index, &domain) in fact.subdomains.iter().enumerate() {
                subs.push(subcolumns.len());
                subcolumns.push(SubColumn {
                    wide_index,
                    sub_index,
                    domain: domain as usize,
                });
            }
            wide_to_sub.push(subs);
        }

        EncodedLayout {
            layout,
            dicts,
            facts,
            subcolumns,
            wide_to_sub,
        }
    }

    /// Reassembles an encoded layout from persisted parts (the model-artifact load path).
    ///
    /// The sub-column space is rederived from the factorizations — it is a pure function
    /// of them, so a layout built here is indistinguishable from the original at
    /// inference time.  Inconsistent parts (arity mismatches, factorization domains that
    /// disagree with their dictionary) are reported as errors rather than panics: this
    /// input comes from disk.
    pub fn from_parts(
        layout: WideLayout,
        dicts: Vec<ColumnDictionary>,
        facts: Vec<Factorization>,
    ) -> Result<Self, String> {
        if dicts.len() != layout.len() || facts.len() != layout.len() {
            return Err(format!(
                "layout has {} columns but {} dictionaries and {} factorizations",
                layout.len(),
                dicts.len(),
                facts.len()
            ));
        }
        for (i, (dict, fact)) in dicts.iter().zip(&facts).enumerate() {
            if fact.domain as usize != dict.domain_size() {
                return Err(format!(
                    "column {} ({}): factorization domain {} != dictionary domain {}",
                    i,
                    layout.columns()[i].name,
                    fact.domain,
                    dict.domain_size()
                ));
            }
            if fact.subdomains.is_empty() {
                return Err(format!("column {i}: factorization has no sub-columns"));
            }
        }
        let mut subcolumns = Vec::new();
        let mut wide_to_sub = Vec::with_capacity(layout.len());
        for (wide_index, fact) in facts.iter().enumerate() {
            let mut subs = Vec::with_capacity(fact.num_subcolumns());
            for (sub_index, &domain) in fact.subdomains.iter().enumerate() {
                subs.push(subcolumns.len());
                subcolumns.push(SubColumn {
                    wide_index,
                    sub_index,
                    domain: domain as usize,
                });
            }
            wide_to_sub.push(subs);
        }
        Ok(EncodedLayout {
            layout,
            dicts,
            facts,
            subcolumns,
            wide_to_sub,
        })
    }

    /// The underlying wide layout.
    pub fn layout(&self) -> &WideLayout {
        &self.layout
    }

    /// Dictionary of wide column `i`.
    pub fn dictionary(&self, i: usize) -> &ColumnDictionary {
        &self.dicts[i]
    }

    /// Factorization of wide column `i`.
    pub fn factorization(&self, i: usize) -> &Factorization {
        &self.facts[i]
    }

    /// All model sub-columns, in model order.
    pub fn subcolumns(&self) -> &[SubColumn] {
        &self.subcolumns
    }

    /// Sub-column indices (model order) of wide column `i`.
    pub fn subcolumns_of(&self, i: usize) -> &[usize] {
        &self.wide_to_sub[i]
    }

    /// Token domain sizes of all model sub-columns (the [`nc_nn::MadeConfig::domains`]).
    pub fn model_domains(&self) -> Vec<usize> {
        self.subcolumns.iter().map(|s| s.domain).collect()
    }

    /// Number of model sub-columns.
    pub fn num_model_columns(&self) -> usize {
        self.subcolumns.len()
    }

    /// Appends the model tokens of one materialised wide row to `out`.
    ///
    /// Panics if a value is absent from its dictionary (cannot happen for rows produced by
    /// the join sampler over the dictionary database).
    pub fn encode_row_into(&self, row: &[Value], out: &mut Vec<u32>) {
        assert_eq!(row.len(), self.layout.len(), "row arity mismatch");
        for (i, value) in row.iter().enumerate() {
            let code = self.dicts[i].encode(value).unwrap_or_else(|| {
                panic!(
                    "value {value:?} of column {} is not in the dictionary",
                    self.layout.columns()[i].name
                )
            });
            out.extend(self.facts[i].split(code));
        }
    }

    /// Encodes a batch of wide rows into one flat row-major
    /// `rows.len() × num_model_columns` token buffer.
    pub fn encode_batch(&self, rows: &[Vec<Value>]) -> Vec<u32> {
        let mut out = Vec::with_capacity(rows.len() * self.subcolumns.len());
        for row in rows {
            self.encode_row_into(row, &mut out);
        }
        out
    }

    /// Decodes the sub-column digits of wide column `wide_index` back into its [`Value`].
    pub fn decode_wide(&self, wide_index: usize, digits: &[u32]) -> Value {
        let code = self.facts[wide_index].combine(digits);
        self.dicts[wide_index].decode(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sampler::{JoinSampler, WideLayout};
    use nc_schema::{JoinEdge, JoinSchema};
    use nc_storage::TableBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_db() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "name"]);
        for i in 0..50i64 {
            a.push_row(vec![Value::Int(i % 7), Value::from(format!("n{}", i % 5))]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "v"]);
        for i in 0..80i64 {
            b.push_row(vec![Value::Int(i % 9), Value::Int(i * 3 % 11)]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn layout_structure() {
        let (db, schema) = tiny_db();
        let layout = WideLayout::new(&db, &schema);
        let enc = EncodedLayout::build(&db, layout, Some(2));
        // Base columns: A.x, A.name, B.x, B.v = 4; indicators 2; fanouts 2 → 8 wide cols.
        assert_eq!(enc.layout().len(), 8);
        assert_eq!(enc.num_model_columns(), enc.model_domains().len());
        // With 2-bit factorization, content columns with domains > 4 split into several
        // sub-columns; virtual columns never split.
        assert!(enc.num_model_columns() > 8);
        for (wide, subs) in (0..enc.layout().len()).map(|i| (i, enc.subcolumns_of(i))) {
            assert!(!subs.is_empty());
            for (k, &s) in subs.iter().enumerate() {
                assert_eq!(enc.subcolumns()[s].wide_index, wide);
                assert_eq!(enc.subcolumns()[s].sub_index, k);
            }
        }
        // Indicator dictionaries are {NULL, 0, 1}.
        let ind_idx = enc.layout().indicator_index("A").unwrap();
        assert_eq!(enc.dictionary(ind_idx).domain_size(), 3);
        assert_eq!(enc.factorization(ind_idx).num_subcolumns(), 1);
    }

    #[test]
    fn encode_decode_sampled_rows() {
        let (db, schema) = tiny_db();
        let layout = WideLayout::new(&db, &schema);
        let enc = EncodedLayout::build(&db, layout, Some(3));
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let samples = sampler.sample_many(&mut rng, 32);
        let rows = enc.layout().materialize_batch(&db, &samples);
        let encoded = enc.encode_batch(&rows);
        assert_eq!(encoded.len(), 32 * enc.num_model_columns());
        for (row, tokens) in rows.iter().zip(encoded.chunks(enc.num_model_columns())) {
            // Every token is inside its sub-column domain.
            for (t, sub) in tokens.iter().zip(enc.subcolumns()) {
                assert!((*t as usize) < sub.domain);
            }
            // Round-trip every wide column through decode_wide.
            for (wide_idx, value) in row.iter().enumerate() {
                let subs = enc.subcolumns_of(wide_idx);
                let digits: Vec<u32> = subs.iter().map(|&s| tokens[s]).collect();
                assert_eq!(&enc.decode_wide(wide_idx, &digits), value);
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_an_identical_subcolumn_space() {
        let (db, schema) = tiny_db();
        let layout = WideLayout::new(&db, &schema);
        let enc = EncodedLayout::build(&db, layout, Some(2));
        let n = enc.layout().len();
        let dicts: Vec<ColumnDictionary> = (0..n).map(|i| enc.dictionary(i).clone()).collect();
        let facts: Vec<Factorization> = (0..n).map(|i| enc.factorization(i).clone()).collect();
        let rebuilt =
            EncodedLayout::from_parts(enc.layout().clone(), dicts.clone(), facts.clone()).unwrap();
        assert_eq!(rebuilt.subcolumns(), enc.subcolumns());
        assert_eq!(rebuilt.model_domains(), enc.model_domains());
        for i in 0..n {
            assert_eq!(rebuilt.subcolumns_of(i), enc.subcolumns_of(i));
        }

        // Arity and domain mismatches are reported.
        assert!(EncodedLayout::from_parts(
            enc.layout().clone(),
            dicts[1..].to_vec(),
            facts.clone()
        )
        .is_err());
        let mut bad_facts = facts.clone();
        bad_facts[0] = Factorization::identity(9999);
        assert!(EncodedLayout::from_parts(enc.layout().clone(), dicts, bad_facts).is_err());
    }

    #[test]
    fn no_factorization_when_disabled() {
        let (db, schema) = tiny_db();
        let layout = WideLayout::new(&db, &schema);
        let enc = EncodedLayout::build(&db, layout, None);
        assert_eq!(enc.num_model_columns(), enc.layout().len());
        assert!(enc.subcolumns().iter().all(|s| s.sub_index == 0));
    }

    #[test]
    #[should_panic(expected = "not in the dictionary")]
    fn encoding_unknown_value_panics() {
        let (db, schema) = tiny_db();
        let layout = WideLayout::new(&db, &schema);
        let enc = EncodedLayout::build(&db, layout, None);
        let mut row: Vec<Value> = vec![Value::Null; enc.layout().len()];
        row[0] = Value::Int(987_654);
        enc.encode_row_into(&row, &mut Vec::new());
    }
}
