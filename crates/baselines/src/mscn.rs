//! MSCN-style supervised, query-driven estimator (Kipf et al. 2019).
//!
//! The original MSCN is a multi-set convolutional network over (table, join, predicate)
//! sets plus per-table sample bitmaps.  This reproduction keeps the paradigm — featurise
//! the query, regress the (log) cardinality, train on a workload of labelled queries — with
//! a simplified featurisation:
//!
//! * one-hot of the joined tables,
//! * per content column: `[has filter, op one-hot(5), normalised literal]`,
//! * the number of joins,
//!
//! and a small fully-connected network trained with Adam on mean-squared error of
//! `log2(card)`.  Like the original, it is fast to evaluate and reasonable on queries
//! similar to its training distribution, but has no mechanism to be *consistent* with the
//! data and degrades on out-of-distribution queries — the behaviour the paper reports.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nc_nn::{relu, relu_backward, Adam, AdamConfig, Linear, Matrix};
use nc_schema::{CompareOp, JoinSchema, Query};
use nc_storage::{ColumnDictionary, Database};

use crate::estimator::CardinalityEstimator;

/// Scale used to normalise `log2(card)` into roughly `[0, 1]`.
const LOG_SCALE: f64 = 40.0;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Hidden width of the two-layer MLP.
    pub hidden: usize,
    /// Training epochs over the labelled query set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig {
            hidden: 64,
            epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 11,
        }
    }
}

/// The supervised estimator.
pub struct MscnEstimator {
    schema: Arc<JoinSchema>,
    /// Featurisation metadata: content columns in a fixed order with their dictionaries.
    columns: Vec<(String, String)>,
    dicts: HashMap<(String, String), ColumnDictionary>,
    layer1: Linear,
    layer2: Linear,
    layer3: Linear,
    input_dim: usize,
}

impl MscnEstimator {
    /// Trains the estimator on labelled queries (`(query, true cardinality)` pairs).
    pub fn train(
        db: &Database,
        schema: Arc<JoinSchema>,
        labelled: &[(Query, f64)],
        config: &MscnConfig,
    ) -> Self {
        assert!(
            !labelled.is_empty(),
            "MSCN needs at least one training query"
        );
        // Featurisation metadata.
        let mut columns = Vec::new();
        let mut dicts = HashMap::new();
        for table in schema.tables() {
            let t = db.expect_table(table);
            let join_keys = schema.join_key_columns(table);
            for col in t.columns() {
                if join_keys.iter().any(|k| k == col.name()) {
                    continue;
                }
                let key = (table.clone(), col.name().to_string());
                dicts.insert(key.clone(), ColumnDictionary::from_column(col));
                columns.push(key);
            }
        }
        columns.sort();
        let input_dim = schema.num_tables() + columns.len() * 7 + 1;

        let mut rng = StdRng::seed_from_u64(config.seed);
        let layer1 = Linear::new(input_dim, config.hidden, &mut rng);
        let layer2 = Linear::new(config.hidden, config.hidden / 2, &mut rng);
        let layer3 = Linear::new(config.hidden / 2, 1, &mut rng);
        let mut adam = Adam::for_params(
            AdamConfig {
                lr: config.learning_rate,
                ..Default::default()
            },
            &[
                &layer1.weight,
                &layer1.bias,
                &layer2.weight,
                &layer2.bias,
                &layer3.weight,
                &layer3.bias,
            ],
        );

        let mut this = MscnEstimator {
            schema,
            columns,
            dicts,
            layer1,
            layer2,
            layer3,
            input_dim,
        };

        // Pre-featurise the training set.
        let features: Vec<Vec<f32>> = labelled.iter().map(|(q, _)| this.featurize(q)).collect();
        let labels: Vec<f32> = labelled
            .iter()
            .map(|(_, card)| ((card.max(1.0)).log2() / LOG_SCALE) as f32)
            .collect();

        let mut order: Vec<usize> = (0..labelled.len()).collect();
        // The transposed weight `Linear::backward` multiplies by, reused across steps.
        let mut wt = Matrix::zeros(0, 0);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                let x = Matrix::from_vec(
                    chunk.len(),
                    this.input_dim,
                    chunk.iter().flat_map(|&i| features[i].clone()).collect(),
                );
                let y: Vec<f32> = chunk.iter().map(|&i| labels[i]).collect();
                let (h1, h2, out) = this.forward(&x);
                // MSE loss gradient.
                let mut dout = Matrix::zeros(out.rows(), 1);
                for (b, &label) in y.iter().enumerate() {
                    dout.set(b, 0, 2.0 * (out.get(b, 0) - label) / out.rows() as f32);
                }
                // Backward through the three layers.
                let mut dh2 = Matrix::zeros(h2.rows(), h2.cols());
                this.layer3.backward(&h2, &dout, &mut dh2, &mut wt);
                relu_backward(&h2, &mut dh2);
                let mut dh1 = Matrix::zeros(h1.rows(), h1.cols());
                this.layer2.backward(&h1, &dh2, &mut dh1, &mut wt);
                relu_backward(&h1, &mut dh1);
                let mut dx = Matrix::zeros(x.rows(), x.cols());
                this.layer1.backward(&x, &dh1, &mut dx, &mut wt);
                adam.step(&mut [
                    &mut this.layer1.weight,
                    &mut this.layer1.bias,
                    &mut this.layer2.weight,
                    &mut this.layer2.bias,
                    &mut this.layer3.weight,
                    &mut this.layer3.bias,
                ]);
            }
        }
        this
    }

    fn forward(&self, x: &Matrix) -> (Matrix, Matrix, Matrix) {
        let mut h1 = Matrix::zeros(x.rows(), self.layer1.weight.value.cols());
        self.layer1.forward(x, &mut h1);
        relu(&mut h1);
        let mut h2 = Matrix::zeros(x.rows(), self.layer2.weight.value.cols());
        self.layer2.forward(&h1, &mut h2);
        relu(&mut h2);
        let mut out = Matrix::zeros(x.rows(), 1);
        self.layer3.forward(&h2, &mut out);
        (h1, h2, out)
    }

    /// Featurises a query into a fixed-length vector.
    pub fn featurize(&self, query: &Query) -> Vec<f32> {
        let mut v = vec![0.0f32; self.input_dim];
        // Table one-hot.
        for (i, t) in self.schema.tables().iter().enumerate() {
            if query.joins(t) {
                v[i] = 1.0;
            }
        }
        let base = self.schema.num_tables();
        // Per-column filter slots.
        for f in &query.filters {
            let key = (f.table.clone(), f.column.clone());
            let Some(pos) = self.columns.iter().position(|c| *c == key) else {
                continue;
            };
            let slot = base + pos * 7;
            v[slot] = 1.0;
            let op_idx = match f.predicate.op {
                CompareOp::Eq => 0,
                CompareOp::Lt => 1,
                CompareOp::Le => 2,
                CompareOp::Gt => 3,
                CompareOp::Ge => 4,
                CompareOp::In => 0,
            };
            v[slot + 1 + op_idx] = 1.0;
            let dict = &self.dicts[&key];
            let literal = &f.predicate.literals[0];
            let code = dict
                .encode(literal)
                .or_else(|| dict.floor_code(literal))
                .unwrap_or(0);
            v[slot + 6] = code as f32 / dict.domain_size().max(1) as f32;
        }
        // Number of joins, normalised by schema size.
        v[self.input_dim - 1] = (query.num_tables() as f32 - 1.0) / self.schema.num_tables() as f32;
        v
    }
}

impl CardinalityEstimator for MscnEstimator {
    fn name(&self) -> &str {
        "MSCN"
    }

    fn estimate(&self, query: &Query) -> f64 {
        let features = self.featurize(query);
        let x = Matrix::from_vec(1, self.input_dim, features);
        let (_, _, out) = self.forward(&x);
        let log2 = f64::from(out.get(0, 0)) * LOG_SCALE;
        2f64.powf(log2.clamp(0.0, 60.0)).max(1.0)
    }

    fn size_bytes(&self) -> usize {
        (self.layer1.num_params() + self.layer2.num_params() + self.layer3.num_params()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::{TableBuilder, Value};

    fn setup() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["id", "year"]);
        for i in 0..400i64 {
            a.push_row(vec![Value::Int(i), Value::Int(2000 + i % 20)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["movie_id", "kind"]);
        for i in 0..400i64 {
            for k in 0..2 {
                b.push_row(vec![Value::Int(i), Value::Int((i + k) % 5)]);
            }
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.id", "B.movie_id")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    fn training_queries(db: &Database, schema: &JoinSchema, n: usize) -> Vec<(Query, f64)> {
        let mut out = Vec::new();
        for i in 0..n {
            let year = 2000 + (i % 20) as i64;
            let q = if i % 2 == 0 {
                Query::join(&["A"]).filter("A", "year", Predicate::le(year))
            } else {
                Query::join(&["A", "B"])
                    .filter("A", "year", Predicate::le(year))
                    .filter("B", "kind", Predicate::eq((i % 5) as i64))
            };
            let card = nc_exec::true_cardinality(db, schema, &q) as f64;
            out.push((q, card.max(1.0)));
        }
        out
    }

    #[test]
    fn learns_the_training_distribution() {
        let (db, schema) = setup();
        let train = training_queries(&db, &schema, 200);
        let mscn = MscnEstimator::train(&db, schema.clone(), &train, &MscnConfig::default());
        assert_eq!(mscn.name(), "MSCN");
        assert!(mscn.size_bytes() > 0);
        // In-distribution queries should land within a modest factor of the truth.
        let mut ok = 0;
        let eval = training_queries(&db, &schema, 40);
        for (q, truth) in &eval {
            let guess = mscn.estimate(q);
            let qerr = (guess / truth).max(truth / guess);
            if qerr < 5.0 {
                ok += 1;
            }
        }
        assert!(ok >= 30, "only {ok}/40 in-distribution queries within 5x");
    }

    #[test]
    fn featurization_shape_is_stable() {
        let (db, schema) = setup();
        let train = training_queries(&db, &schema, 20);
        let mscn = MscnEstimator::train(
            &db,
            schema.clone(),
            &train,
            &MscnConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let q = Query::join(&["A", "B"]).filter("B", "kind", Predicate::eq(1i64));
        let f1 = mscn.featurize(&q);
        let f2 = mscn.featurize(&q);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), mscn.input_dim);
        // Different queries featurise differently.
        let f3 = mscn.featurize(&Query::join(&["A"]));
        assert_ne!(f1, f3);
        // Estimates are at least 1.
        assert!(mscn.estimate(&q) >= 1.0);
    }
}
