//! Determinism contract of the serving layer (PR 4): a [`RegistryService`] over an
//! artifact-loaded model returns **bit-identical** estimates to sequential
//! [`EstimatorCore::estimate`] calls, at every worker count and under concurrent
//! clients — concurrency must be invisible to results.

use std::sync::Arc;

use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_serve::{
    ModelRegistry, ModelSelector, RegistryService, ServeError, ServeRequest, ServiceConfig,
};
use nc_workloads::job_light_queries;
use neurocard::{EstimateError, EstimatorCore, NeuroCard, NeuroCardConfig};

/// A service over a registry holding exactly `core`, and the selector pinned to it.
fn single_model_service(
    core: Arc<EstimatorCore>,
    config: ServiceConfig,
) -> (RegistryService, ModelSelector) {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register_core("default", core).unwrap();
    (
        RegistryService::new(registry, config),
        ModelSelector::Exact(key),
    )
}

#[test]
fn service_matches_sequential_estimates_under_concurrency() {
    let datagen = DataGenConfig {
        title_rows: 100,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 1_500;
    config.progressive_samples = 24;

    // Train once, serve from the persisted bytes — the production shape.
    let artifact_bytes = NeuroCard::train(db.clone(), schema.clone(), &config).to_bytes();
    let core = neurocard::ModelArtifact::from_bytes(&artifact_bytes)
        .unwrap()
        .to_core()
        .map(Arc::new)
        .unwrap();

    let queries = job_light_queries(&db, &schema, 12, 5);
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

    for workers in [1usize, 3] {
        let (service, selector) = single_model_service(
            core.clone(),
            ServiceConfig {
                workers,
                queue_depth: 2, // force queueing and handoffs
            },
        );
        std::thread::scope(|scope| {
            for client in 0..4usize {
                let handle = service.handle();
                let queries = &queries;
                let sequential = &sequential;
                let selector = &selector;
                scope.spawn(move || {
                    for round in 0..2 {
                        for i in 0..queries.len() {
                            let idx = (i + client * 3 + round) % queries.len();
                            let est = handle.estimate(selector, &queries[idx]).unwrap().estimate;
                            assert_eq!(
                                est.to_bits(),
                                sequential[idx].to_bits(),
                                "client {client} (workers {workers}) diverged on query {idx}"
                            );
                        }
                    }
                });
            }
        });
        let stats = service.shutdown();
        assert_eq!(stats.served, 4 * 2 * queries.len());
        assert!(stats.p50_us <= stats.p99_us);
    }

    // The error surface crosses the service boundary intact.
    let (service, selector) = single_model_service(core, ServiceConfig::with_workers(2));
    assert_eq!(
        service
            .handle()
            .request(ServeRequest::new(selector, queries[0].clone()).with_samples(0)),
        Err(ServeError::Estimate(EstimateError::InvalidSampleCount))
    );
}
