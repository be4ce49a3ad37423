//! The set-up every experiment shares: command line, scale knobs, environments,
//! training, ground truth and evaluation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_baselines::{CardinalityEstimator, DeepDbLite, MscnConfig, MscnEstimator};
use nc_datagen::{
    job_light_database, job_light_schema, job_m_database, job_m_schema, DataGenConfig,
};
use nc_schema::{JoinSchema, Query};
use nc_storage::Database;
use nc_workloads::{job_light_ranges_queries, q_error, ErrorSummary, ErrorTableRow};
use neurocard::{EstimatorCore, NeuroCard, NeuroCardConfig};

use crate::EXPERIMENTS;

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
    /// compile, every experiment).
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

/// One experiment of the paper's evaluation: its name on `reproduce`'s command line and
/// the function that runs it, printing its section of the report.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name (`table2`, `figure7b`, …).
    pub name: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(&HarnessConfig),
}

impl Experiment {
    /// Names `run`.
    pub(crate) const fn new(name: &'static str, run: fn(&HarnessConfig)) -> Self {
        Experiment { name, run }
    }
}

/// Parses `reproduce`'s arguments: `--smoke` and experiment names, in any order.  Returns
/// whether `--smoke` was given and the experiments named, in the order named (all of
/// [`EXPERIMENTS`] when none is); any other argument is an error naming it and listing
/// the valid names.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(bool, Vec<Experiment>), String> {
    let mut smoke = false;
    let mut named = Vec::new();
    for arg in args {
        if arg == "--smoke" {
            smoke = true;
        } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == arg) {
            named.push(*experiment);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            return Err(format!(
                "unknown argument {arg:?} (expected --smoke or an experiment: {})",
                names.join(" ")
            ));
        }
    }
    if named.is_empty() {
        named = EXPERIMENTS.to_vec();
    }
    Ok((smoke, named))
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

    /// `reproduce`'s entry point: the experiments its command line names and the
    /// environment configuration they run at.  `--smoke` switches to the
    /// [`HarnessConfig::tiny`] budgets so every experiment finishes in seconds (the
    /// artifact path still comes from the environment).  An unknown argument, an
    /// unparsable knob, or `NC_SAVE_ARTIFACT` with other than exactly one experiment
    /// named prints an error and exits with status 2.
    pub fn from_cli() -> (Self, Vec<Experiment>) {
        let parsed = parse_args(std::env::args().skip(1)).and_then(|(smoke, experiments)| {
            let env = Self::from_env()?;
            if env.save_artifact_path.is_some() && experiments.len() != 1 {
                return Err("NC_SAVE_ARTIFACT needs exactly one experiment named".into());
            }
            Ok((smoke, env, experiments))
        });
        let (smoke, env, experiments) = parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        let config = if smoke {
            HarnessConfig {
                smoke: true,
                save_artifact_path: env.save_artifact_path,
                ..Self::tiny()
            }
        } else {
            env
        };
        (config, experiments)
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

    /// The `NeuroCard-large` configuration: the model sizes of [`NeuroCardConfig::large`]
    /// and twice the training tuples, everything else as in [`HarnessConfig::neurocard`].
    pub fn neurocard_large(&self) -> NeuroCardConfig {
        let large = NeuroCardConfig::large();
        NeuroCardConfig {
            d_emb: large.d_emb,
            d_hidden: large.d_hidden,
            num_blocks: large.num_blocks,
            training_tuples: self.train_tuples * 2,
            ..self.neurocard()
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

/// Trains the NeuroCard estimator for `env` and returns its estimation core; when
/// `config.save_artifact_path` is set, also writes the trained model's artifact there, and
/// exits with status 1 naming the path if that write fails.
pub fn build_neurocard(env: &BenchEnv, config: &HarnessConfig) -> Arc<EstimatorCore> {
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
    model.core()
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

/// Runs an estimator over a workload into a row of an error table, under the
/// estimator's own name.
pub(crate) fn error_row(
    estimator: &dyn CardinalityEstimator,
    queries: &[Query],
    truths: &[f64],
) -> ErrorTableRow {
    let r = evaluate(estimator, queries, truths);
    ErrorTableRow::new(r.name, r.size_bytes, r.summary)
}

/// The labelled JOB-light-ranges training set MSCN learns from: at least `at_least`
/// queries (or the workload size, when larger), generated at `seed + seed_offset` so they
/// are disjoint from the evaluated workload, each paired with its true cardinality (the
/// paper uses the authors' published training set; the generator plays that role here).
pub(crate) fn labelled_training_set(
    env: &BenchEnv,
    config: &HarnessConfig,
    at_least: usize,
    seed_offset: u64,
) -> Vec<(Query, f64)> {
    let queries = job_light_ranges_queries(
        &env.db,
        &env.schema,
        config.queries.max(at_least),
        config.seed + seed_offset,
    );
    let truths = true_cardinalities(env, &queries);
    queries.into_iter().zip(truths).collect()
}

/// DeepDB-lite built from `samples` samples.
pub(crate) fn build_deepdb(env: &BenchEnv, config: &HarnessConfig, samples: usize) -> DeepDbLite {
    DeepDbLite::build(env.db.clone(), env.schema.clone(), samples, config.seed)
}

/// Trains MSCN at its default configuration on `labelled`.
pub(crate) fn train_mscn(env: &BenchEnv, labelled: &[(Query, f64)]) -> MscnEstimator {
    MscnEstimator::train(
        &env.db,
        env.schema.clone(),
        labelled,
        &MscnConfig::default(),
    )
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
        // The large row differs from the base row only in model size and budget.
        let large = c.neurocard_large();
        let sizes = NeuroCardConfig::large();
        assert_eq!(
            (large.d_emb, large.d_hidden, large.num_blocks),
            (sizes.d_emb, sizes.d_hidden, sizes.num_blocks)
        );
        assert_eq!(large.training_tuples, 2 * c.train_tuples);
        assert_eq!(large.sampler_threads, c.sampler_threads);
        assert_eq!(large.progressive_samples, nc.progressive_samples);
        assert_eq!(large.seed, nc.seed);
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
    fn arguments_other_than_smoke_and_experiment_names_are_errors() {
        let parse = |a: &[&str]| {
            parse_args(a.iter().map(|s| s.to_string()))
                .map(|(smoke, named)| (smoke, named.iter().map(|e| e.name).collect::<Vec<_>>()))
        };
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(parse(&[]), Ok((false, all.clone())));
        assert_eq!(parse(&["--smoke"]), Ok((true, all)));
        assert_eq!(
            parse(&["table5", "--smoke", "table2"]),
            Ok((true, vec!["table5", "table2"]))
        );
        for bad in ["--smok", "table7", "all"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(bad) && err.contains("figure7d"), "{err}");
        }
    }

    #[test]
    fn an_unwritable_artifact_path_is_an_error_naming_it() {
        let mut config = HarnessConfig::tiny();
        config.train_tuples = 600;
        config.title_rows = 80;
        let env = BenchEnv::job_light(&config);
        let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &config.neurocard());
        let path = std::env::temp_dir()
            .join(format!("nc_harness_missing_dir_{}", std::process::id()))
            .join("m.ncar");
        let path = path.to_string_lossy();
        let err = save_artifact(&model, &path).unwrap_err();
        assert!(err.contains(&*path), "{err}");
    }
}
