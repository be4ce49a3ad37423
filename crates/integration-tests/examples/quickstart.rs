//! Quickstart: build a NeuroCard estimator over a small synthetic database and ask it a few
//! cardinality questions.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::{NeuroCard, NeuroCardConfig};

fn main() {
    // 1. Build a tiny two-table database: orders and their line items.
    let mut db = Database::new();
    let mut orders = TableBuilder::new("orders", &["id", "status", "year"]);
    let mut items = TableBuilder::new("items", &["order_id", "category", "qty"]);
    for i in 0..500i64 {
        let status = i % 3; // 0 = open, 1 = shipped, 2 = returned
        orders.push_row(vec![
            Value::Int(i),
            Value::Int(status),
            Value::Int(2015 + i % 10),
        ]);
        // Shipped orders have more line items, and their categories depend on the year.
        let n_items = if status == 1 { 4 } else { 1 };
        for k in 0..n_items {
            items.push_row(vec![
                Value::Int(i),
                Value::Int((i % 10 + k) % 6),
                Value::Int(1 + (i + k) % 5),
            ]);
        }
    }
    db.add_table(orders.finish());
    db.add_table(items.finish());
    let db = Arc::new(db);

    // 2. Describe the join schema: orders.id = items.order_id, rooted at orders.
    let schema = Arc::new(
        JoinSchema::new(
            vec!["orders".into(), "items".into()],
            vec![JoinEdge::parse("orders.id", "items.order_id")],
            "orders",
        )
        .expect("valid schema"),
    );

    // 3. Train a single estimator over the full outer join of both tables.
    let config = NeuroCardConfig::default().with_training_tuples(20_000);
    println!(
        "training NeuroCard on {} tuples sampled from the full join...",
        config.training_tuples
    );
    let model = NeuroCard::build(db.clone(), schema.clone(), &config);
    let stats = model.stats();
    println!(
        "model: {} parameters ({} KB), |full join| = {} rows\n",
        stats.num_params,
        stats.model_bytes / 1024,
        stats.full_join_rows
    );

    // 4. Ask it cardinality questions on any subset of the tables, through its estimation
    //    core (a snapshot of the trained model).
    let core = model.core();
    let queries = vec![
        Query::join(&["orders"]).filter("orders", "status", Predicate::eq(1i64)),
        Query::join(&["orders", "items"]).filter("orders", "status", Predicate::eq(1i64)),
        Query::join(&["orders", "items"])
            .filter("orders", "year", Predicate::ge(2020i64))
            .filter("items", "category", Predicate::eq(3i64)),
        Query::join(&["items"]).filter("items", "qty", Predicate::ge(4i64)),
    ];
    for q in &queries {
        let estimate = core.estimate(q);
        let truth = nc_exec::true_cardinality(&db, &schema, q) as f64;
        println!("{q}");
        println!(
            "  estimate = {estimate:.1}   truth = {truth}   q-error = {:.2}\n",
            (estimate.max(1.0) / truth.max(1.0)).max(truth.max(1.0) / estimate.max(1.0))
        );
    }
}
