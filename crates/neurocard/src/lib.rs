//! # neurocard
//!
//! NeuroCard (Yang et al., VLDB 2020): **one cardinality estimator for all tables**.
//!
//! NeuroCard learns the joint distribution of the *full outer join* of every table in a
//! schema inside a single deep autoregressive model and answers cardinality queries over
//! any subset of those tables.  No independence assumption is made anywhere — neither
//! across columns nor across tables.  The three ingredients (paper §2.1):
//!
//! 1. **Unbiased join sampling** (crate `nc-sampler`): training tuples are i.i.d. uniform
//!    samples of the full join obtained via Exact Weight join counts, so the join is never
//!    materialised.
//! 2. **Lossless column factorization** ([`factorization`], §5): high-cardinality columns
//!    are split into sub-columns of a few bits each, shrinking the embedding tables by
//!    orders of magnitude while losing no information (the AR model learns the dependence
//!    between sub-columns).
//! 3. **Schema-subsetting inference** ([`infer`], §6): progressive sampling over the model,
//!    with indicator-column constraints for joined tables and fanout downscaling for
//!    omitted tables.
//!
//! An estimator has three life-stages, each its own type.  [`NeuroCard`] **trains**: build
//! it from a database + join schema with [`NeuroCard::build`], call
//! [`NeuroCard::estimate`] for any [`nc_schema::Query`], keep training it as the data
//! changes.  [`ModelArtifact`] is the model **at rest** — self-contained bytes, no
//! database.  [`EstimatorCore`] **estimates**: the `Send + Sync` engine a serving layer
//! loads from an artifact, bit-identical to the `NeuroCard` that wrote it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
//! use nc_schema::{Predicate, Query};
//! use neurocard::{ModelArtifact, NeuroCard, NeuroCardConfig};
//!
//! let db = Arc::new(job_light_database(&DataGenConfig::default()));
//! let schema = Arc::new(job_light_schema());
//! let model = NeuroCard::build(db, schema, &NeuroCardConfig::default());
//! let q = Query::join(&["title", "cast_info"])
//!     .filter("title", "production_year", Predicate::ge(2000i64));
//! let cardinality = model.estimate(&q);
//! println!("estimated rows: {cardinality}");
//!
//! // Elsewhere, with nothing but the bytes:
//! let bytes = model.to_artifact().to_bytes();
//! let core = ModelArtifact::from_bytes(&bytes)?.to_core()?;
//! assert_eq!(core.estimate(&q), cardinality);
//! # Ok::<(), neurocard::ArtifactLoadError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod artifact;
pub mod config;
pub mod core;
pub mod encoding;
pub mod estimator;
pub mod factorization;
pub mod infer;
pub mod train;

pub use artifact::{
    schema_fingerprint, ArtifactLoadError, ArtifactManifest, ModelArtifact, PromotionRecord,
    MODEL_ARTIFACT_VERSION,
};
pub use config::NeuroCardConfig;
pub use core::{EstimatorCore, Precision};
pub use encoding::EncodedLayout;
pub use estimator::{EstimatorStats, NeuroCard};
pub use factorization::Factorization;
pub use infer::{EstimateError, ForwardCounters, ProgressiveSampler, SamplerScratch};
pub use train::{TrainProgress, Trainer, TrainingSource};
