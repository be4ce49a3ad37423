//! Shared plumbing for the per-experiment binaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_baselines::CardinalityEstimator;
use nc_datagen::{
    job_light_database, job_light_schema, job_m_database, job_m_schema, DataGenConfig,
};
use nc_schema::{JoinSchema, Query};
use nc_storage::Database;
use nc_workloads::{q_error, ErrorSummary};
use neurocard::{NeuroCard, NeuroCardConfig};

/// Scale knobs of a harness run, read from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Rows of the synthetic `title` table.
    pub title_rows: usize,
    /// Queries per workload.
    pub queries: usize,
    /// NeuroCard training tuples.
    pub train_tuples: usize,
    /// Progressive samples per query.
    pub psamples: usize,
    /// Sample budget for the sampling-based baselines.
    pub baseline_samples: usize,
    /// NeuroCard sampler pool threads.
    pub sampler_threads: usize,
    /// NeuroCard training prefetch depth (batches sampled ahead of training).
    pub prefetch_depth: usize,
    /// Global seed.
    pub seed: u64,
    /// Whether this is a `--smoke` run (tiny budgets; used by CI to execute, not just
    /// compile, the experiment binaries).
    pub smoke: bool,
    /// Where [`build_neurocard`] writes the trained model's artifact
    /// (`NC_SAVE_ARTIFACT`) — a file `neurocard-serve` can load.
    pub save_artifact_path: Option<String>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl HarnessConfig {
    /// Reads the configuration from the `NC_*` environment variables.
    pub fn from_env() -> Self {
        HarnessConfig {
            title_rows: env_usize("NC_TITLE_ROWS", 800),
            queries: env_usize("NC_QUERIES", 40),
            train_tuples: env_usize("NC_TRAIN_TUPLES", 30_000),
            psamples: env_usize("NC_PSAMPLES", 64),
            baseline_samples: env_usize("NC_SAMPLES_BASELINE", 4_000),
            sampler_threads: env_usize("NC_SAMPLER_THREADS", 2),
            prefetch_depth: env_usize("NC_PREFETCH", 1),
            seed: env_usize("NC_SEED", 42) as u64,
            smoke: false,
            save_artifact_path: std::env::var("NC_SAVE_ARTIFACT").ok(),
        }
    }

    /// Reads the environment configuration; `--smoke` on the command line switches to the
    /// [`HarnessConfig::tiny`] budgets so the binary finishes in seconds (the artifact
    /// path still comes from the environment).  This is the entry point every
    /// experiment binary uses, and what CI invokes to *run* (not merely compile) them.
    pub fn from_cli() -> Self {
        let env = Self::from_env();
        if std::env::args().skip(1).any(|a| a == "--smoke") {
            HarnessConfig {
                smoke: true,
                save_artifact_path: env.save_artifact_path,
                ..Self::tiny()
            }
        } else {
            env
        }
    }

    /// A deliberately tiny configuration for integration tests of the harness itself.
    pub fn tiny() -> Self {
        HarnessConfig {
            title_rows: 150,
            queries: 8,
            train_tuples: 3_000,
            psamples: 32,
            baseline_samples: 800,
            sampler_threads: 2,
            prefetch_depth: 1,
            seed: 42,
            smoke: false,
            save_artifact_path: None,
        }
    }

    /// The data-generation config corresponding to this harness configuration.
    pub fn datagen(&self) -> DataGenConfig {
        DataGenConfig {
            seed: self.seed,
            title_rows: self.title_rows,
            ..DataGenConfig::default()
        }
    }

    /// The NeuroCard configuration corresponding to this harness configuration.
    pub fn neurocard(&self) -> NeuroCardConfig {
        NeuroCardConfig {
            training_tuples: self.train_tuples,
            progressive_samples: self.psamples,
            sampler_threads: self.sampler_threads,
            prefetch_depth: self.prefetch_depth,
            seed: self.seed,
            ..NeuroCardConfig::default()
        }
    }
}

/// A generated benchmark environment: database, schema and the name of the workload.
pub struct BenchEnv {
    /// The synthetic database.
    pub db: Arc<Database>,
    /// Its join schema.
    pub schema: Arc<JoinSchema>,
    /// Display name (e.g. `"JOB-light (synthetic)"`).
    pub name: String,
}

impl BenchEnv {
    /// Builds the synthetic JOB-light environment.
    pub fn job_light(config: &HarnessConfig) -> Self {
        BenchEnv {
            db: Arc::new(job_light_database(&config.datagen())),
            schema: Arc::new(job_light_schema()),
            name: "JOB-light (synthetic)".to_string(),
        }
    }

    /// Builds the synthetic JOB-M environment (smaller fact table by default: the full
    /// join is much wider).
    pub fn job_m(config: &HarnessConfig) -> Self {
        let mut dg = config.datagen();
        dg.title_rows = (config.title_rows / 2).max(100);
        BenchEnv {
            db: Arc::new(job_m_database(&dg)),
            schema: Arc::new(job_m_schema()),
            name: "JOB-M (synthetic)".to_string(),
        }
    }
}

/// Evaluation result of one estimator over one workload.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Estimator name.
    pub name: String,
    /// Estimator size in bytes.
    pub size_bytes: usize,
    /// Q-error summary.
    pub summary: ErrorSummary,
    /// Per-query estimation latencies.
    pub latencies: Vec<Duration>,
}

/// Trains the NeuroCard estimator for `env`; when `config.save_artifact_path` is set,
/// also writes the trained model's artifact there.
pub fn build_neurocard(env: &BenchEnv, config: &HarnessConfig) -> NeuroCard {
    let nc_config = config.neurocard();
    println!(
        "training NeuroCard ({} tuples)...",
        nc_config.training_tuples
    );
    let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &nc_config);
    if let Some(path) = &config.save_artifact_path {
        let bytes = model.to_artifact().to_bytes();
        match std::fs::write(path, &bytes) {
            Ok(()) => println!("saved model artifact to {path} ({} bytes)", bytes.len()),
            Err(e) => eprintln!("could not save artifact to {path}: {e}"),
        }
    }
    model
}

/// True cardinalities of a workload (floor 1, matching the Q-error convention).
pub fn true_cardinalities(env: &BenchEnv, queries: &[Query]) -> Vec<f64> {
    queries
        .iter()
        .map(|q| (nc_exec::true_cardinality(&env.db, &env.schema, q) as f64).max(1.0))
        .collect()
}

/// Runs an estimator over a workload and summarises its Q-errors and latencies.
pub fn evaluate(
    estimator: &dyn CardinalityEstimator,
    queries: &[Query],
    truths: &[f64],
) -> EvalResult {
    assert_eq!(queries.len(), truths.len());
    let mut errors = Vec::with_capacity(queries.len());
    let mut latencies = Vec::with_capacity(queries.len());
    for (query, truth) in queries.iter().zip(truths) {
        let start = Instant::now();
        let estimate = estimator.estimate(query);
        latencies.push(start.elapsed());
        errors.push(q_error(estimate, *truth));
    }
    EvalResult {
        name: estimator.name().to_string(),
        size_bytes: estimator.size_bytes(),
        summary: ErrorSummary::from_errors(&errors),
        latencies,
    }
}

/// Pretty-prints a duration in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Prints the standard harness preamble (workload, scale, substitution disclaimer).
pub fn print_preamble(experiment: &str, env_name: &str, config: &HarnessConfig) {
    println!("=== {experiment} ===");
    println!("workload: {env_name}");
    println!(
        "scale: title_rows={} queries={} train_tuples={} psamples={} sampler_threads={} \
         prefetch={} seed={}{}",
        config.title_rows,
        config.queries,
        config.train_tuples,
        config.psamples,
        config.sampler_threads,
        config.prefetch_depth,
        config.seed,
        if config.smoke { " (smoke run)" } else { "" }
    );
    println!(
        "note: data is the synthetic IMDB substitute (see README.md); absolute numbers \
         differ from the paper, the method ordering / error shape is what is reproduced.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_baselines::PostgresLikeEstimator;
    use nc_workloads::job_light_queries;

    #[test]
    fn harness_end_to_end_with_postgres_baseline() {
        let config = HarnessConfig::tiny();
        let env = BenchEnv::job_light(&config);
        let queries = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
        assert!(!queries.is_empty());
        let truths = true_cardinalities(&env, &queries);
        let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
        let result = evaluate(&postgres, &queries, &truths);
        assert_eq!(result.name, "Postgres-like");
        assert_eq!(result.latencies.len(), queries.len());
        assert!(result.summary.median >= 1.0);
        print_preamble("smoke", &env.name, &config);
        assert!(!secs(Duration::from_millis(1500)).is_empty());
    }

    #[test]
    fn artifact_cache_round_trip() {
        let mut config = HarnessConfig::tiny();
        config.train_tuples = 600;
        config.title_rows = 80;
        let env = BenchEnv::job_light(&config);
        let path = std::env::temp_dir().join("nc_harness_artifact_test.ncar");
        config.save_artifact_path = Some(path.to_string_lossy().to_string());

        // The build trains and saves; the saved file loads and estimates identically.
        let trained = build_neurocard(&env, &config);
        let loaded = neurocard::ModelArtifact::from_bytes(&std::fs::read(&path).unwrap())
            .unwrap()
            .to_core()
            .unwrap();
        for query in &job_light_queries(&env.db, &env.schema, 4, config.seed) {
            assert_eq!(
                trained.estimate(query).to_bits(),
                loaded.estimate(query).to_bits()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn env_parsing_defaults() {
        let c = HarnessConfig::from_env();
        assert!(c.title_rows > 0 && c.queries > 0);
        assert!(c.sampler_threads > 0);
        assert!(!c.smoke);
        let dg = c.datagen();
        assert_eq!(dg.title_rows, c.title_rows);
        let nc = c.neurocard();
        assert_eq!(nc.training_tuples, c.train_tuples);
        assert_eq!(nc.sampler_threads, c.sampler_threads);
        assert_eq!(nc.prefetch_depth, c.prefetch_depth);
        // The test harness is not a smoke run, so from_cli falls back to the env path.
        let cli = HarnessConfig::from_cli();
        assert_eq!(cli.train_tuples, c.train_tuples);
    }
}
