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
    /// Global seed.
    pub seed: u64,
    /// Whether this is a `--smoke` run (tiny budgets; used by CI to execute, not just
    /// compile, the experiment binaries).
    pub smoke: bool,
    /// Where [`build_neurocard`] writes the trained model's artifact
    /// (`NC_SAVE_ARTIFACT`) — a file `neurocard-serve` can load.
    pub save_artifact_path: Option<String>,
}

/// Parses one scale knob's value: unset is `default`, anything but a whole number is an
/// error naming the variable.
fn parse_knob(name: &str, value: Option<String>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a whole number")),
    }
}

fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value, default)
}

/// Whether the command line asks for a `--smoke` run; any other argument is an error
/// naming it.
fn parse_smoke_flag(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut smoke = false;
    for arg in args {
        if arg != "--smoke" {
            return Err(format!(
                "unknown argument {arg:?} (the only flag is --smoke)"
            ));
        }
        smoke = true;
    }
    Ok(smoke)
}

impl HarnessConfig {
    /// Reads the configuration from the `NC_*` environment variables; a set variable that
    /// is not a whole number is an error naming it.
    pub fn from_env() -> Result<Self, String> {
        Ok(HarnessConfig {
            title_rows: env_usize("NC_TITLE_ROWS", 800)?,
            queries: env_usize("NC_QUERIES", 40)?,
            train_tuples: env_usize("NC_TRAIN_TUPLES", 30_000)?,
            psamples: env_usize("NC_PSAMPLES", 64)?,
            baseline_samples: env_usize("NC_SAMPLES_BASELINE", 4_000)?,
            sampler_threads: env_usize("NC_SAMPLER_THREADS", 2)?,
            seed: env_usize("NC_SEED", 42)? as u64,
            smoke: false,
            save_artifact_path: std::env::var("NC_SAVE_ARTIFACT").ok(),
        })
    }

    /// Reads the environment configuration; `--smoke` on the command line switches to the
    /// [`HarnessConfig::tiny`] budgets so the binary finishes in seconds (the artifact
    /// path still comes from the environment).  This is the entry point every
    /// experiment binary uses, and what CI invokes to *run* (not merely compile) them.
    /// An unknown argument or an unparsable knob prints an error naming it and exits
    /// with status 2.
    pub fn from_cli() -> Self {
        let parsed = parse_smoke_flag(std::env::args().skip(1))
            .and_then(|smoke| Ok((smoke, Self::from_env()?)));
        let (smoke, env) = parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        if smoke {
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
/// also writes the trained model's artifact there, and exits with status 1 naming the
/// path if that write fails.
pub fn build_neurocard(env: &BenchEnv, config: &HarnessConfig) -> NeuroCard {
    let nc_config = config.neurocard();
    println!(
        "training NeuroCard ({} tuples)...",
        nc_config.training_tuples
    );
    let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &nc_config);
    if let Some(path) = &config.save_artifact_path {
        match save_artifact(&model, path) {
            Ok(len) => println!("saved model artifact to {path} ({len} bytes)"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1)
            }
        }
    }
    model
}

/// Writes `model`'s artifact to `path` and returns its size; the error names the path.
fn save_artifact(model: &NeuroCard, path: &str) -> Result<usize, String> {
    let bytes = model.to_artifact().to_bytes();
    std::fs::write(path, &bytes)
        .map_err(|e| format!("could not save the artifact to {path}: {e}"))?;
    Ok(bytes.len())
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
         seed={}{}",
        config.title_rows,
        config.queries,
        config.train_tuples,
        config.psamples,
        config.sampler_threads,
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
    fn saved_artifact_loads_bit_identically() {
        let mut config = HarnessConfig::tiny();
        config.train_tuples = 600;
        config.title_rows = 80;
        let env = BenchEnv::job_light(&config);
        let path = std::env::temp_dir().join(format!(
            "nc_harness_artifact_test_{}.ncar",
            std::process::id()
        ));
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
        let c = HarnessConfig::from_env().unwrap();
        assert!(c.title_rows > 0 && c.queries > 0);
        assert!(c.sampler_threads > 0);
        assert!(!c.smoke);
        let dg = c.datagen();
        assert_eq!(dg.title_rows, c.title_rows);
        let nc = c.neurocard();
        assert_eq!(nc.training_tuples, c.train_tuples);
        assert_eq!(nc.sampler_threads, c.sampler_threads);
        assert_eq!(nc.prefetch_depth, NeuroCardConfig::default().prefetch_depth);
    }

    #[test]
    fn knobs_that_are_not_whole_numbers_are_errors() {
        assert_eq!(parse_knob("NC_QUERIES", None, 40), Ok(40));
        assert_eq!(parse_knob("NC_QUERIES", Some("12".into()), 40), Ok(12));
        let err = parse_knob("NC_QUERIES", Some("12x".into()), 40).unwrap_err();
        assert!(err.contains("NC_QUERIES") && err.contains("12x"), "{err}");
        assert!(parse_knob("NC_TRAIN_TUPLES", Some("300k".into()), 30_000).is_err());
    }

    #[test]
    fn arguments_other_than_smoke_are_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_smoke_flag(args(&[])), Ok(false));
        assert_eq!(parse_smoke_flag(args(&["--smoke"])), Ok(true));
        let err = parse_smoke_flag(args(&["--smok"])).unwrap_err();
        assert!(err.contains("--smok"), "{err}");
    }

    #[test]
    fn an_unwritable_artifact_path_is_an_error_naming_it() {
        let mut config = HarnessConfig::tiny();
        config.train_tuples = 600;
        config.title_rows = 80;
        let env = BenchEnv::job_light(&config);
        let model = build_neurocard(&env, &config);
        let path = std::env::temp_dir()
            .join(format!("nc_harness_missing_dir_{}", std::process::id()))
            .join("m.ncar");
        let path = path.to_string_lossy();
        let err = save_artifact(&model, &path).unwrap_err();
        assert!(err.contains(&*path), "{err}");
    }
}
