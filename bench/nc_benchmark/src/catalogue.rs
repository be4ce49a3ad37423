//! The metric catalogue: every name the benchmark prints, with its unit, its direction,
//! its bound (end-to-end) or the end-to-end metric it should move (per layer).
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test keeps the
//! two in step.  `bench/README.md` is the prose version.

/// The four workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "plan_burst",
        "optimizer access pattern: every connected sub-join of a query pipelined over TCP; wire, codec, lease and queue wait are a visible share",
    ),
    (
        "direct_m",
        "compute-bound JOB-M inference called directly on one thread; nc-serve is bypassed, so only kernel/forward/sampling changes move it",
    ),
    (
        "build_light",
        "Database to serving-ready artifact bytes: join counts, sampler pool, forward+backward+Adam; the nn layer used the other way",
    ),
    (
        "update_serve",
        "reads beside writes: TCP readers while the pipeline ingests, retrains, shadows and promotes four partitions on the same cores",
    ),
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, in printing order.  `failed_share` is the sixteenth: it must
/// be 0, so it travels as the `failed`/`attempted` pair rather than as a bounded metric.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("plan_p50_ms", "ms", "lower", 0.25),
    e2e("plan_p95_ms", "ms", "lower", 0.25),
    e2e("plans_per_s", "1/s", "higher", 0.25),
    e2e("estimate_p50_ms", "ms", "lower", 0.25),
    e2e("estimate_p95_ms", "ms", "lower", 0.25),
    e2e("estimates_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_estimate", "ms", "lower", 0.25),
    e2e("qerror_p50", "ratio", "lower", 0.01),
    e2e("qerror_p95", "ratio", "lower", 0.01),
    e2e("build_s", "s", "lower", 0.25),
    e2e("train_tuples_per_s", "1/s", "higher", 0.25),
    e2e("model_bytes", "B", "lower", 0.01),
    e2e("update_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// A per-layer metric, measured in the traced run.
pub struct Layer {
    /// `crate.module.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metrics it should move, as `metric@workload`; elsewhere the
    /// prediction is no change.
    pub moves: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const INFER_M: &[&str] = &["estimate_p50_ms@direct_m", "cpu_ms_per_estimate@direct_m"];
const INFER_SMALL: &[&str] = &["estimate_p50_ms@plan_burst", "plan_p50_ms@plan_burst"];
const TRAIN: &[&str] = &[
    "train_tuples_per_s@build_light",
    "build_s@build_light",
    "update_s@update_serve",
];
const BUILD_UPDATE: &[&str] = &["build_s@build_light", "update_s@update_serve"];
const BURST: &[&str] = &[
    "plan_p50_ms@plan_burst",
    "estimate_p50_ms@plan_burst",
    "plans_per_s@plan_burst",
];
const UPDATE: &[&str] = &["update_s@update_serve"];
const SETUP: &[&str] = &[
    "setup_s@plan_burst",
    "setup_s@direct_m",
    "setup_s@build_light",
    "setup_s@update_serve",
];

/// The per-layer metrics, in printing order.
pub const LAYERS: [Layer; 39] = [
    layer(
        "nn.tensor.matmul_blocked_gflops",
        "GFLOP/s",
        "higher",
        INFER_M,
    ),
    layer("nn.tensor.gemm_nt_gflops", "GFLOP/s", "higher", INFER_M),
    layer(
        "nn.tensor.matmul_col_range_gflops",
        "GFLOP/s",
        "higher",
        INFER_M,
    ),
    layer(
        "nn.tensor.matmul_blocked_small_gflops",
        "GFLOP/s",
        "higher",
        INFER_SMALL,
    ),
    layer("nn.kernel.matmul_blocked_gflops", "GFLOP/s", "higher", &[]),
    layer("nn.kernel.gemm_nt_gflops", "GFLOP/s", "higher", &[]),
    layer("nn.kernel.softmax_rows_per_s", "1/s", "higher", &[]),
    layer("nn.made.forward_us", "us", "lower", INFER_M),
    layer("nn.made.forward_small_us", "us", "lower", INFER_SMALL),
    layer("nn.made.train_step_ms", "ms", "lower", TRAIN),
    layer("sampler.join_counts_ms", "ms", "lower", BUILD_UPDATE),
    layer(
        "sampler.pool_tuples_per_s",
        "1/s",
        "higher",
        &["train_tuples_per_s@build_light"],
    ),
    layer(
        "sampler.stall_share",
        "ratio",
        "lower",
        &["train_tuples_per_s@build_light"],
    ),
    layer("neurocard.infer.estimate_us", "us", "lower", BURST),
    layer("neurocard.infer.samples_per_s", "1/s", "higher", BURST),
    layer("neurocard.infer.fast_vs_exact", "ratio", "lower", &[]),
    layer("neurocard.artifact.encode_ms", "ms", "lower", BUILD_UPDATE),
    layer(
        "neurocard.artifact.load_ms",
        "ms",
        "lower",
        &[
            "update_s@update_serve",
            "setup_s@plan_burst",
            "setup_s@direct_m",
        ],
    ),
    layer("serve.protocol.codec_us", "us", "lower", BURST),
    layer("serve.registry.lease_us", "us", "lower", BURST),
    layer("serve.service.overhead_us", "us", "lower", &[]),
    layer("serve.reactor.wire_overhead_us", "us", "lower", BURST),
    layer("serve.registry.execute_p50_us", "us", "lower", BURST),
    layer("serve.reactor.queue_wait_us", "us", "lower", BURST),
    layer("serve.reactor.max_queue_depth", "count", "lower", BURST),
    layer("serve.reactor.overloaded", "count", "lower", BURST),
    layer("serve.pool.scratch_created", "count", "lower", &[]),
    layer("serve.registry.swap_us", "us", "lower", UPDATE),
    layer("serve.registry.drain_ms", "ms", "lower", UPDATE),
    layer("serve.journal.append_us", "us", "lower", UPDATE),
    layer("pipeline.ingest_ms", "ms", "lower", UPDATE),
    layer("pipeline.drift_ms", "ms", "lower", UPDATE),
    layer("pipeline.retrain_s", "s", "lower", UPDATE),
    layer("pipeline.shadow_ms", "ms", "lower", UPDATE),
    layer("pipeline.promote_ms", "ms", "lower", UPDATE),
    layer(
        "pipeline.read_slowdown",
        "ratio",
        "lower",
        &[
            "estimate_p95_ms@update_serve",
            "estimate_p50_ms@update_serve",
        ],
    ),
    layer("exec.true_cardinality_ms", "ms", "lower", SETUP),
    layer("datagen.database_ms", "ms", "lower", SETUP),
    layer("trace_overhead", "ratio", "higher", &[]),
];

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    fn field<'a>(object: &'a Json, name: &str) -> &'a Json {
        match object {
            Json::Object(fields) => fields
                .iter()
                .find_map(|(k, v)| (k == name).then_some(v))
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name:?}")),
            other => panic!("expected an object, found {}", other.kind()),
        }
    }

    fn items(array: &Json) -> &[Json] {
        match array {
            Json::Array(items) => items,
            other => panic!("expected an array, found {}", other.kind()),
        }
    }

    fn text(value: &Json) -> &str {
        match value {
            Json::Str(s) => s,
            other => panic!("expected a string, found {}", other.kind()),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let manifest =
            serde_json::parse(include_str!("../../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            items(field(&manifest, key))
                .iter()
                .map(|m| text(field(m, "name")).to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n));
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            LAYERS.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (listed, ours) in items(field(&manifest, "workloads")).iter().zip(&WORKLOADS) {
            assert_eq!(text(field(listed, "why")), ours.1);
            assert!(ours.1.len() <= 200);
        }
        for (listed, ours) in items(field(&manifest, "end_to_end"))
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(text(field(listed, "unit")), ours.unit, "{}", ours.name);
            assert_eq!(text(field(listed, "better")), ours.better, "{}", ours.name);
            assert_eq!(
                field(listed, "bound"),
                &Json::Float(ours.bound),
                "{}",
                ours.name
            );
            assert!(ours.bound > 0.0 && ours.bound <= 0.25);
        }
        for (listed, ours) in items(field(&manifest, "per_layer")).iter().zip(&LAYERS) {
            assert_eq!(text(field(listed, "unit")), ours.unit, "{}", ours.name);
            assert_eq!(text(field(listed, "better")), ours.better, "{}", ours.name);
        }
    }

    #[test]
    fn every_moved_metric_names_a_real_pairing() {
        for l in &LAYERS {
            for target in l.moves {
                let (metric, workload) = target.split_once('@').expect("metric@workload");
                assert!(END_TO_END.iter().any(|m| m.name == metric), "{target}");
                assert!(WORKLOADS.iter().any(|(w, _)| *w == workload), "{target}");
            }
            assert!(l.name.len() <= 64 && l.unit.len() <= 16);
        }
        assert_eq!(unit_of("plan_p50_ms"), Some("ms"));
        assert_eq!(unit_of("trace_overhead"), Some("ratio"));
        assert_eq!(unit_of("nope"), None);
    }
}
