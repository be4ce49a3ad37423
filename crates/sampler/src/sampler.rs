//! Top-down weighted sampling from the full outer join (paper §4.1).

use std::sync::Arc;

use rand::Rng;

use nc_schema::JoinSchema;
use nc_storage::{Database, RowId, Value};

use crate::join_counts::{CompositeKey, JoinCounts};

/// One simple random sample from the augmented full outer join: for every schema table (in
/// BFS order) either a base-table row id or `None` (the table's virtual `⊥` tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSample {
    /// Per-table slot, aligned with [`JoinSampler::table_order`].
    pub slots: Vec<Option<RowId>>,
}

impl JoinSample {
    /// Whether the sample has a real partner in the table at position `idx`.
    pub fn has_partner(&self, idx: usize) -> bool {
        self.slots[idx].is_some()
    }
}

/// The Exact Weight join sampler: draws i.i.d. uniform samples of the full outer join
/// without materialising it.
#[derive(Debug, Clone)]
pub struct JoinSampler {
    db: Arc<Database>,
    schema: Arc<JoinSchema>,
    counts: Arc<JoinCounts>,
    order: Vec<String>,
}

impl JoinSampler {
    /// Prepares a sampler: computes the join count tables for `schema` over `db`.
    pub fn new(db: Arc<Database>, schema: Arc<JoinSchema>) -> Self {
        let counts = JoinCounts::compute_shared(&db, &schema);
        Self::with_counts(db, schema, counts)
    }

    /// Builds a sampler reusing previously computed join counts.
    pub fn with_counts(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        counts: Arc<JoinCounts>,
    ) -> Self {
        let order = schema.bfs_order().to_vec();
        JoinSampler {
            db,
            schema,
            counts,
            order,
        }
    }

    /// The table order used by [`JoinSample::slots`].
    pub fn table_order(&self) -> &[String] {
        &self.order
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The join schema.
    pub fn schema(&self) -> &Arc<JoinSchema> {
        &self.schema
    }

    /// The join counts (shared, reusable across sampler clones and threads).
    pub fn counts(&self) -> &Arc<JoinCounts> {
        &self.counts
    }

    /// `|J|`, the number of rows of the augmented full outer join.
    pub fn full_join_rows(&self) -> u128 {
        self.counts.full_join_rows()
    }

    /// Draws one simple random sample (probability exactly `1/|J|` per full-join row).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> JoinSample {
        loop {
            let slots = self.sample_once(rng);
            // The all-⊥ assignment is not part of the full join; reject and redraw (its
            // unnormalised weight is exactly 1, so rejections are vanishingly rare).
            if slots.iter().any(|s| s.is_some()) {
                return JoinSample { slots };
            }
        }
    }

    /// Draws `n` samples.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<JoinSample> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    fn sample_once<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Option<RowId>> {
        let mut slots: Vec<Option<RowId>> = Vec::with_capacity(self.order.len());

        // Root: weighted choice among real rows and the ⊥ tuple.
        let root_name = &self.order[0];
        let root_counts = self.counts.table(root_name);
        let total: u128 = root_counts
            .row_weights
            .iter()
            .fold(0u128, |a, w| a.saturating_add(*w))
            .saturating_add(root_counts.null_weight);
        let slot = weighted_choice(rng, total, root_counts.null_weight, |i| {
            root_counts.row_weights[i]
        });
        slots.push(slot.map(|i| i as RowId));

        // Children in BFS order: the parent slot is always already sampled.
        for table_name in self.order.iter().skip(1) {
            let parent_name = self
                .schema
                .parent(table_name)
                .expect("non-root table has a parent");
            let parent_idx = self
                .order
                .iter()
                .position(|t| t == parent_name)
                .expect("parent sampled before child");
            let parent_slot = slots[parent_idx];
            let tc = self.counts.table(table_name);

            let slot = match parent_slot {
                Some(parent_row) => {
                    let key = self.parent_edge_key(parent_name, table_name, parent_row);
                    if key.iter().any(Value::is_null) {
                        None
                    } else {
                        match tc.key_index.get(&key) {
                            Some(rows) if !rows.is_empty() => {
                                let total = tc.key_weight[&key];
                                let pick = weighted_choice(rng, total, 0, |i| {
                                    tc.row_weights[rows[i] as usize]
                                });
                                pick.map(|i| rows[i])
                            }
                            _ => None,
                        }
                    }
                }
                None => {
                    // Parent is ⊥: choose among unmatched child rows and the child's ⊥.
                    let total = tc.unmatched_weight.saturating_add(tc.null_weight);
                    let pick = weighted_choice(rng, total, tc.null_weight, |i| {
                        tc.row_weights[tc.unmatched_rows[i] as usize]
                    });
                    pick.map(|i| tc.unmatched_rows[i])
                }
            };
            slots.push(slot);
        }
        slots
    }

    /// The composite key of `parent_row` on the edge(s) between `parent` and `child`.
    fn parent_edge_key(&self, parent: &str, child: &str, parent_row: RowId) -> CompositeKey {
        let table = self.db.expect_table(parent);
        self.schema
            .edges_between(parent, child)
            .iter()
            .map(|e| {
                let col = &e.endpoint(parent).expect("edge touches parent").column;
                table.value(col, parent_row)
            })
            .collect()
    }
}

/// Weighted choice among `⊥` (weight `null_weight`, returned as `None`) and indexed items
/// `0..` whose weights are given by `weight_of` and sum to `total - null_weight`.
///
/// Returns `Some(index)` or `None` for the ⊥ option.  `total` must be positive.
fn weighted_choice<R: Rng + ?Sized>(
    rng: &mut R,
    total: u128,
    null_weight: u128,
    weight_of: impl Fn(usize) -> u128,
) -> Option<usize> {
    debug_assert!(total > 0, "cannot sample from an empty weight set");
    let mut ticket = rng.random_range(0..total);
    if ticket < null_weight {
        return None;
    }
    ticket -= null_weight;
    let mut i = 0usize;
    loop {
        let w = weight_of(i);
        if ticket < w {
            return Some(i);
        }
        ticket -= w;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::JoinEdge;
    use nc_storage::TableBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

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
    fn samples_are_uniform_over_the_full_join() {
        let (db, schema) = figure4();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        assert_eq!(sampler.full_join_rows(), 5);
        assert_eq!(sampler.table_order(), &["A", "B", "C"]);

        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000usize;
        let mut hist: HashMap<Vec<Option<RowId>>, usize> = HashMap::new();
        for _ in 0..n {
            let s = sampler.sample(&mut rng);
            *hist.entry(s.slots).or_insert(0) += 1;
        }
        // Exactly the 5 valid full-join rows appear.
        assert_eq!(hist.len(), 5);
        // Each appears with frequency ≈ 1/5 (uniform i.i.d.).
        for (slots, count) in &hist {
            let freq = *count as f64 / n as f64;
            assert!(
                (freq - 0.2).abs() < 0.02,
                "row {slots:?} frequency {freq} deviates from uniform"
            );
        }
        // The all-⊥ assignment never appears.
        assert!(!hist.contains_key(&vec![None, None, None]));
    }

    #[test]
    fn never_samples_nonexistent_pairings() {
        let (db, schema) = figure4();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2_000 {
            let s = sampler.sample(&mut rng);
            // If A and B are both real, their x keys must agree.
            if let (Some(a), Some(b)) = (s.slots[0], s.slots[1]) {
                assert_eq!(
                    db.expect_table("A").value("x", a),
                    db.expect_table("B").value("x", b)
                );
            }
            // If B and C are both real, their y keys must agree.
            if let (Some(b), Some(c)) = (s.slots[1], s.slots[2]) {
                assert_eq!(
                    db.expect_table("B").value("y", b),
                    db.expect_table("C").value("y", c)
                );
            }
            assert!(s.slots.iter().any(|x| x.is_some()));
        }
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let (db, schema) = figure4();
        let sampler = JoinSampler::new(db, schema);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sampler.sample_many(&mut rng, 17).len(), 17);
        let s = sampler.sample(&mut rng);
        assert!(s.has_partner(0) || s.has_partner(1) || s.has_partner(2));
    }

    #[test]
    fn weighted_choice_distribution() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights = [3u128, 1, 6];
        let total: u128 = 10 + 2; // 2 = null weight
        let mut counts = [0usize; 4]; // [null, w0, w1, w2]
        for _ in 0..24_000 {
            match weighted_choice(&mut rng, total, 2, |i| weights[i]) {
                None => counts[0] += 1,
                Some(i) => counts[i + 1] += 1,
            }
        }
        let freq: Vec<f64> = counts.iter().map(|c| *c as f64 / 24_000.0).collect();
        assert!((freq[0] - 2.0 / 12.0).abs() < 0.02);
        assert!((freq[1] - 3.0 / 12.0).abs() < 0.02);
        assert!((freq[2] - 1.0 / 12.0).abs() < 0.02);
        assert!((freq[3] - 6.0 / 12.0).abs() < 0.02);
    }
}
