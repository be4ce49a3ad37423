//! Shared query-generation machinery.
//!
//! The JOB-light-ranges methodology of the paper (§7.1) is used for all generated
//! workloads: for a chosen join graph, draw a tuple from the *inner join* result and use
//! its non-NULL column values as filter literals.  Literals drawn this way (a) follow the
//! data distribution and (b) guarantee a non-empty answer for `=`, `<=` and `>=` filters.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use nc_sampler::JoinSampler;
use nc_schema::{subset_schema, CompareOp, JoinSchema, Predicate, Query};
use nc_storage::{Database, Value};

/// Draws one tuple from the inner join of `tables`, as a map `(table, column) → value`.
///
/// Returns `None` if the inner join appears to be empty (no success within the attempt
/// budget).
pub fn draw_inner_join_tuple(
    db: &Arc<Database>,
    schema: &JoinSchema,
    tables: &[String],
    rng: &mut StdRng,
    max_attempts: usize,
) -> Option<HashMap<(String, String), Value>> {
    let sub = Arc::new(subset_schema(schema, tables));
    let sampler = JoinSampler::new(db.clone(), sub.clone());
    for _ in 0..max_attempts {
        let sample = sampler.sample(rng);
        if sample.slots.iter().any(|s| s.is_none()) {
            continue; // not an inner-join row
        }
        let mut out = HashMap::new();
        for (slot, table) in sample.slots.iter().zip(sampler.table_order()) {
            let t = db.expect_table(table);
            let row = slot.expect("checked all slots are real");
            for col in t.columns() {
                out.insert(
                    (table.clone(), col.name().to_string()),
                    col.value(row as usize),
                );
            }
        }
        return Some(out);
    }
    None
}

/// A filterable column: `(table, column, supports_range)`.
pub type FilterColumn = (&'static str, &'static str, bool);

/// Adds a filter on `(table, column)` using `literal`, choosing the operator according to
/// whether the column supports ranges.  Returns the query unchanged if the literal is NULL.
pub fn add_filter_from_literal(
    query: Query,
    table: &str,
    column: &str,
    supports_range: bool,
    literal: &Value,
    rng: &mut StdRng,
) -> Query {
    if literal.is_null() {
        return query;
    }
    let op = if supports_range {
        match rng.random_range(0..3) {
            0 => CompareOp::Le,
            1 => CompareOp::Ge,
            _ => CompareOp::Eq,
        }
    } else {
        CompareOp::Eq
    };
    let predicate = Predicate::new(op, vec![literal.clone()]);
    query.filter(table, column, predicate)
}

/// Chooses a connected subtree of `schema` with `size` tables that always contains the
/// schema root, by repeatedly attaching a random table adjacent to the current frontier.
pub fn random_connected_subtree(schema: &JoinSchema, size: usize, rng: &mut StdRng) -> Vec<String> {
    let size = size.clamp(1, schema.num_tables());
    let mut chosen = vec![schema.root().to_string()];
    while chosen.len() < size {
        // All tables adjacent to the chosen set but not yet in it.
        let mut frontier: Vec<String> = Vec::new();
        for t in &chosen {
            for c in schema.children(t) {
                if !chosen.contains(c) && !frontier.contains(c) {
                    frontier.push(c.clone());
                }
            }
            if let Some(p) = schema.parent(t) {
                if !chosen.contains(&p.to_string()) && !frontier.contains(&p.to_string()) {
                    frontier.push(p.to_string());
                }
            }
        }
        if frontier.is_empty() {
            break;
        }
        let next = frontier[rng.random_range(0..frontier.len())].clone();
        chosen.push(next);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
    use rand::SeedableRng;

    #[test]
    fn drawn_tuples_come_from_the_inner_join() {
        let db = Arc::new(job_light_database(&DataGenConfig::tiny()));
        let schema = job_light_schema();
        let mut rng = StdRng::seed_from_u64(3);
        let tables = vec!["title".to_string(), "cast_info".to_string()];
        let tuple = draw_inner_join_tuple(&db, &schema, &tables, &mut rng, 200)
            .expect("JOB-light inner join is non-empty");
        // The joined keys must agree.
        assert_eq!(
            tuple[&("title".to_string(), "id".to_string())],
            tuple[&("cast_info".to_string(), "movie_id".to_string())]
        );
    }

    #[test]
    fn random_subtrees_are_connected_and_contain_root() {
        let schema = job_light_schema();
        let mut rng = StdRng::seed_from_u64(5);
        for size in 1..=6 {
            let t = random_connected_subtree(&schema, size, &mut rng);
            assert_eq!(t.len(), size);
            assert!(t.contains(&"title".to_string()));
            assert!(schema.is_connected_subset(&t));
        }
    }

    #[test]
    fn filters_from_literals_respect_nulls_and_ops() {
        let mut rng = StdRng::seed_from_u64(9);
        let q = Query::join(&["title"]);
        let q = add_filter_from_literal(
            q,
            "title",
            "production_year",
            true,
            &Value::Int(2001),
            &mut rng,
        );
        assert_eq!(q.filters.len(), 1);
        let q2 = add_filter_from_literal(
            q.clone(),
            "title",
            "episode_nr",
            true,
            &Value::Null,
            &mut rng,
        );
        assert_eq!(q2.filters.len(), 1, "NULL literals must not create filters");
        let q3 = add_filter_from_literal(q, "title", "kind_id", false, &Value::Int(2), &mut rng);
        assert_eq!(q3.filters[1].predicate.op, CompareOp::Eq);
    }
}
