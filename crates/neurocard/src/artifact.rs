//! The self-contained, versioned model artifact: everything needed to serve estimates,
//! nothing that needs the training database.
//!
//! A [`ModelArtifact`] is a checksummed container of named sections.  The container is
//! (all integers little-endian):
//!
//! ```text
//! magic      u32   "NCAR" (0x4E43_4152)
//! version    u32   container format version (currently 1)
//! sections   u32   number of sections
//! checksum   u64   FNV-1a 64 over everything after this field
//! per section:
//!   name_len u32, name bytes (UTF-8), payload_len u64, payload bytes
//! ```
//!
//! and its sections are:
//!
//! | section    | encoding | contents |
//! |---|---|---|
//! | `manifest` | JSON     | format name, artifact version, column/parameter counts, training stats, `|J|` |
//! | `config`   | JSON     | the full [`NeuroCardConfig`] |
//! | `schema`   | JSON     | tables, join edges and root — [`JoinSchema`] is revalidated on load |
//! | `layout`   | binary   | wide-layout column metadata + table order |
//! | `dicts`    | binary   | one order-preserving [`ColumnDictionary`] per wide column |
//! | `facts`    | JSON     | one [`Factorization`] per wide column |
//! | `weights`  | binary   | model parameters in the [`nc_nn::serialize`] flat format |
//!
//! The JSON sections round-trip through the serde shim's new `Deserialize`/`from_json`
//! path; the container and the other binary sections use the checked reader of
//! [`nc_storage::binio`].  Loading validates the container header (magic, version,
//! checksum), that the sections fill the container exactly under unique UTF-8 names,
//! every section's presence and internal consistency, and finally the weight shapes
//! against the freshly built model and that every MADE-masked weight is exactly zero and
//! every weight of a masked layer finite (the autoregressive property and the terms the
//! inference forward skips rest on it) — every failure is a typed [`ArtifactLoadError`],
//! never a panic.  Sections are only ever asked for by name, so one this build does not
//! know (older builds wrote a half-width copy of the weights as an eighth) is checksummed
//! with the rest and never read — pinned by `legacy_bf16_section_is_ignored`.  A weight
//! blob with bytes after its last parameter is rejected like any other damaged section.
//!
//! **Losslessness contract:** `ModelArtifact::from_bytes(&artifact.to_bytes())?.to_core()?`
//! produces bit-identical estimates to the estimator that wrote the artifact, for any
//! fixed `(query, seed)` — pinned by the `artifact_roundtrip` integration test.

use std::sync::Arc;

use nc_nn::serialize::{fnv1a64, load_params_from_bytes, model_to_bytes, LoadError};
use nc_nn::{MadeConfig, ResMade};
use nc_sampler::{ColumnKind, WideColumn, WideLayout};
use nc_schema::{JoinEdge, JoinSchema};
use nc_storage::binio::{put_string, BinError, BinReader};
use nc_storage::ColumnDictionary;
use serde::{Deserialize, Serialize};

use crate::config::NeuroCardConfig;
use crate::core::EstimatorCore;
use crate::encoding::EncodedLayout;
use crate::factorization::Factorization;

/// Version of the NeuroCard artifact *contents* (the container has its own format
/// version; this one tracks the section set and their encodings).
pub const MODEL_ARTIFACT_VERSION: u32 = 1;

/// `"NCAR"` — NeuroCard ARtifact.
const CONTAINER_MAGIC: u32 = 0x4E43_4152;

/// Container format version written and read by this build.
const CONTAINER_VERSION: u32 = 1;

/// Bytes of the container header: magic, version, section count, checksum.
const HEADER_LEN: usize = 20;

/// Deterministic fingerprint of a join schema: FNV-1a 64 over an unambiguous
/// (length-prefixed) rendering of the tables in declared order, every join edge, and the
/// root table.
///
/// This is the **routing identity** of a schema in the multi-model serving layer: two
/// artifacts trained for the same `(tables, edges, root)` fingerprint identically, no
/// matter what data or config they were trained with, so a registry can group model
/// versions per schema and a request can say "latest model for this schema" without
/// shipping the schema itself.  It is stamped into every [`ArtifactManifest`] at export
/// time and revalidated against the decoded schema on load.
pub fn schema_fingerprint(schema: &JoinSchema) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(schema.tables().len() as u64).to_le_bytes());
    for t in schema.tables() {
        put_string(&mut buf, t);
    }
    buf.extend_from_slice(&(schema.edges().len() as u64).to_le_bytes());
    for e in schema.edges() {
        put_string(&mut buf, &e.left.table);
        put_string(&mut buf, &e.left.column);
        put_string(&mut buf, &e.right.table);
        put_string(&mut buf, &e.right.column);
    }
    put_string(&mut buf, schema.root());
    fnv1a64(&buf)
}

/// Why a model artifact failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactLoadError {
    /// The byte stream does not start with the artifact magic number.
    BadMagic,
    /// The container was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The stored checksum does not match the payload (torn write / corruption).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the loaded bytes.
        computed: u64,
    },
    /// The byte stream ended before the declared sections were read.
    Truncated,
    /// A section name is not valid UTF-8, or bytes follow the last section.
    Malformed(String),
    /// The same section name appears twice.
    DuplicateSection(String),
    /// A required section is absent.
    MissingSection(String),
    /// A section parsed but its contents are inconsistent or undecodable.
    Section {
        /// Section name.
        name: &'static str,
        /// What went wrong.
        message: String,
    },
    /// The weight blob does not match the model architecture the config describes.
    Weights(LoadError),
}

impl std::fmt::Display for ArtifactLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactLoadError::BadMagic => write!(f, "not a model artifact (bad magic number)"),
            ArtifactLoadError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads {supported})"
            ),
            ArtifactLoadError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header says {stored:#018x}, payload hashes to \
                 {computed:#018x}"
            ),
            ArtifactLoadError::Truncated => write!(f, "artifact byte stream ended early"),
            ArtifactLoadError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactLoadError::DuplicateSection(name) => {
                write!(f, "artifact contains section {name:?} twice")
            }
            ArtifactLoadError::MissingSection(name) => {
                write!(f, "artifact is missing required section {name:?}")
            }
            ArtifactLoadError::Section { name, message } => {
                write!(f, "artifact section {name:?}: {message}")
            }
            ArtifactLoadError::Weights(e) => write!(f, "artifact weights: {e}"),
        }
    }
}

impl std::error::Error for ArtifactLoadError {}

fn section_err(name: &'static str, message: impl std::fmt::Display) -> ArtifactLoadError {
    ArtifactLoadError::Section {
        name,
        message: message.to_string(),
    }
}

/// The durable record of a shadow-deploy promotion decision, stamped into the
/// promoted artifact's manifest by the retraining pipeline.
///
/// Everything in here is a pure function of the pipeline's seeded run — metrics are
/// deterministic q-error medians, never wall-clock latencies — so a promoted
/// artifact's bytes replay bit-identically under the same seed.  64-bit identifiers
/// travel as 16-digit hex strings, like [`ArtifactManifest::schema_fingerprint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromotionRecord {
    /// Root seed of the pipeline run that made the decision (hex).
    pub pipeline_seed: String,
    /// Pipeline step index at which the promotion happened.
    pub step: u64,
    /// Registry version of the incumbent the candidate displaced.
    pub incumbent_version: u64,
    /// Mirrored queries both sides answered during the shadow comparison.
    pub shadow_samples: u64,
    /// Incumbent's median q-error over the mirrored traffic.
    pub incumbent_median_qerr: f64,
    /// Candidate's median q-error over the mirrored traffic.
    pub candidate_median_qerr: f64,
    /// Win margin the candidate had to clear (incumbent ≥ margin × candidate).
    pub promote_margin: f64,
    /// Drift-detector q-error regression threshold that triggered the retrain.
    pub qerr_regression_threshold: f64,
    /// Always `"promoted"` — an artifact only carries the record after winning.
    pub verdict: String,
}

/// The JSON manifest section: quick-look metadata about the artifact, readable without
/// decoding any binary section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactManifest {
    /// Always `"neurocard-artifact"`.
    pub format: String,
    /// [`MODEL_ARTIFACT_VERSION`] at write time.
    pub artifact_version: u32,
    /// Number of wide-layout columns.
    pub wide_columns: usize,
    /// Number of model sub-columns.
    pub model_columns: usize,
    /// Number of scalar model parameters.
    pub num_params: usize,
    /// Training tuples consumed when the artifact was exported.
    pub tuples_trained: usize,
    /// Training loss of the last mini-batch (nats/tuple; 0.0 if never trained).
    pub final_loss: f32,
    /// `|J|` as a decimal string (u128 exceeds JSON's integer range).
    pub full_join_rows: String,
    /// [`schema_fingerprint`] of the `schema` section, as a 16-digit lower-case hex
    /// string.  Empty in artifacts written before multi-model serving existed
    /// (`#[serde(default)]` keeps those loadable); the loader recomputes and, when the
    /// field is present, cross-checks it.
    #[serde(default)]
    pub schema_fingerprint: String,
    /// The shadow-deploy decision that installed this artifact, when it was
    /// published by the retraining pipeline's promotion controller.  `None` for
    /// directly-trained or manually-published artifacts (and for every artifact
    /// written before the pipeline existed — `#[serde(default)]` keeps them
    /// loadable).
    #[serde(default)]
    pub promotion: Option<PromotionRecord>,
}

/// A self-contained trained estimator: config + schema + encodings + weights.
///
/// Obtained from [`crate::NeuroCard::train`] / [`crate::NeuroCard::to_artifact`] or
/// parsed from disk with [`ModelArtifact::from_bytes`]; turned back into an estimator
/// with [`ModelArtifact::to_core`].
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    manifest: ArtifactManifest,
    config: NeuroCardConfig,
    schema: Arc<JoinSchema>,
    encoded: Arc<EncodedLayout>,
    full_join_rows: u128,
    weights: Vec<u8>,
}

/// JSON shape of the `schema` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SchemaSection {
    tables: Vec<String>,
    edges: Vec<JoinEdge>,
    root: String,
}

impl ModelArtifact {
    /// Assembles an artifact from live estimator state (the export path).
    pub(crate) fn from_parts(
        config: NeuroCardConfig,
        schema: Arc<JoinSchema>,
        encoded: Arc<EncodedLayout>,
        full_join_rows: u128,
        model: &ResMade,
        tuples_trained: usize,
        final_loss: f32,
    ) -> Self {
        let manifest = ArtifactManifest {
            format: "neurocard-artifact".to_string(),
            artifact_version: MODEL_ARTIFACT_VERSION,
            wide_columns: encoded.layout().len(),
            model_columns: encoded.num_model_columns(),
            num_params: model.num_params(),
            tuples_trained,
            // JSON cannot carry non-finite floats (the writer emits `null`, which the
            // typed load path rejects) — a diverged training loss must not make the
            // artifact unloadable, so it is recorded as the "never trained" sentinel.
            final_loss: if final_loss.is_finite() {
                final_loss
            } else {
                0.0
            },
            full_join_rows: full_join_rows.to_string(),
            schema_fingerprint: format!("{:016x}", schema_fingerprint(&schema)),
            promotion: None,
        };
        ModelArtifact {
            manifest,
            config,
            schema,
            encoded,
            full_join_rows,
            weights: model_to_bytes(model),
        }
    }

    /// Serialises the artifact into the framed, checksummed container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let manifest =
            serde_json::to_string_pretty(&self.manifest).expect("manifest serialisation");
        let config = serde_json::to_string_pretty(&self.config).expect("config serialisation");
        let schema = SchemaSection {
            tables: self.schema.tables().to_vec(),
            edges: self.schema.edges().to_vec(),
            root: self.schema.root().to_string(),
        };
        let schema = serde_json::to_string_pretty(&schema).expect("schema serialisation");

        let layout = self.encoded.layout();
        let mut layout_bytes = Vec::new();
        layout_bytes.extend_from_slice(&(layout.len() as u32).to_le_bytes());
        for col in layout.columns() {
            layout_bytes.push(match col.kind {
                ColumnKind::Content => 0,
                ColumnKind::JoinKey => 1,
                ColumnKind::Indicator => 2,
                ColumnKind::Fanout => 3,
            });
            put_string(&mut layout_bytes, &col.table);
            put_string(&mut layout_bytes, &col.column);
            put_string(&mut layout_bytes, &col.name);
        }
        layout_bytes.extend_from_slice(&(layout.table_order().len() as u32).to_le_bytes());
        for t in layout.table_order() {
            put_string(&mut layout_bytes, t);
        }

        let mut dict_bytes = Vec::new();
        dict_bytes.extend_from_slice(&(layout.len() as u32).to_le_bytes());
        for i in 0..layout.len() {
            dict_bytes.extend_from_slice(&self.encoded.dictionary(i).to_binary());
        }

        let facts: Vec<Factorization> = (0..layout.len())
            .map(|i| self.encoded.factorization(i).clone())
            .collect();
        let facts = serde_json::to_string(&facts).expect("factorization serialisation");

        write_container(&[
            ("manifest", manifest.as_bytes()),
            ("config", config.as_bytes()),
            ("schema", schema.as_bytes()),
            ("layout", &layout_bytes),
            ("dicts", &dict_bytes),
            ("facts", facts.as_bytes()),
            ("weights", &self.weights),
        ])
    }

    /// Parses and fully validates an artifact produced by [`ModelArtifact::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactLoadError> {
        let sections = read_container(bytes)?;

        let manifest: ArtifactManifest = read_json_section(&sections, "manifest")?;
        if manifest.format != "neurocard-artifact" {
            return Err(section_err(
                "manifest",
                format!("unknown artifact format {:?}", manifest.format),
            ));
        }
        if manifest.artifact_version != MODEL_ARTIFACT_VERSION {
            return Err(section_err(
                "manifest",
                format!(
                    "artifact version {} is not supported (this build reads {})",
                    manifest.artifact_version, MODEL_ARTIFACT_VERSION
                ),
            ));
        }
        let full_join_rows: u128 = manifest
            .full_join_rows
            .parse()
            .map_err(|_| section_err("manifest", "full_join_rows is not a u128"))?;

        let config: NeuroCardConfig = read_json_section(&sections, "config")?;

        let schema: SchemaSection = read_json_section(&sections, "schema")?;
        let schema = JoinSchema::new(schema.tables, schema.edges, &schema.root)
            .map_err(|e| section_err("schema", e))?;

        // The fingerprint is derived state: recompute it from the decoded schema, and if
        // the manifest carries one (it is absent in pre-serving artifacts, where
        // `#[serde(default)]` leaves it empty) insist that it matches — a mismatch means
        // the schema section was swapped out from under the manifest.  Old artifacts get
        // the recomputed value filled in, so `manifest().schema_fingerprint` is reliable
        // either way.
        let computed_fingerprint = schema_fingerprint(&schema);
        let mut manifest = manifest;
        if manifest.schema_fingerprint.is_empty() {
            manifest.schema_fingerprint = format!("{computed_fingerprint:016x}");
        } else {
            let stored = u64::from_str_radix(&manifest.schema_fingerprint, 16)
                .map_err(|_| section_err("manifest", "schema_fingerprint is not a hex u64"))?;
            if stored != computed_fingerprint {
                return Err(section_err(
                    "manifest",
                    format!(
                        "schema fingerprint mismatch: manifest says {stored:016x}, the schema \
                         section hashes to {computed_fingerprint:016x}"
                    ),
                ));
            }
        }

        // Layout (binary).
        let payload = section(&sections, "layout")?;
        let mut r = BinReader::new(payload);
        let layout = (|| -> Result<WideLayout, String> {
            let n = r.u32().map_err(|e| e.to_string())? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let kind = match r.u8().map_err(|e| e.to_string())? {
                    0 => ColumnKind::Content,
                    1 => ColumnKind::JoinKey,
                    2 => ColumnKind::Indicator,
                    3 => ColumnKind::Fanout,
                    k => return Err(format!("unknown column kind tag {k}")),
                };
                columns.push(WideColumn {
                    table: r.string().map_err(|e| e.to_string())?,
                    column: r.string().map_err(|e| e.to_string())?,
                    name: r.string().map_err(|e| e.to_string())?,
                    kind,
                });
            }
            let t = r.u32().map_err(|e| e.to_string())? as usize;
            let mut table_order = Vec::with_capacity(t.min(1 << 20));
            for _ in 0..t {
                table_order.push(r.string().map_err(|e| e.to_string())?);
            }
            if !r.is_empty() {
                return Err(format!("{} unread bytes", r.remaining()));
            }
            WideLayout::from_metadata(columns, table_order)
        })()
        .map_err(|m| section_err("layout", m))?;

        // Dictionaries (binary).
        let payload = section(&sections, "dicts")?;
        let mut r = BinReader::new(payload);
        let dicts = (|| -> Result<Vec<ColumnDictionary>, String> {
            let n = r.u32().map_err(|e| e.to_string())? as usize;
            let mut dicts = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                dicts.push(ColumnDictionary::read_binary(&mut r).map_err(|e| e.to_string())?);
            }
            if !r.is_empty() {
                return Err(format!("{} unread bytes", r.remaining()));
            }
            Ok(dicts)
        })()
        .map_err(|m| section_err("dicts", m))?;

        let facts: Vec<Factorization> = read_json_section(&sections, "facts")?;

        let encoded =
            EncodedLayout::from_parts(layout, dicts, facts).map_err(|m| section_err("facts", m))?;
        if encoded.layout().len() != manifest.wide_columns
            || encoded.num_model_columns() != manifest.model_columns
        {
            return Err(section_err(
                "manifest",
                format!(
                    "column counts disagree with the decoded layout: manifest says {}/{} \
                     (wide/model), sections decode to {}/{}",
                    manifest.wide_columns,
                    manifest.model_columns,
                    encoded.layout().len(),
                    encoded.num_model_columns()
                ),
            ));
        }
        // Every schema table must appear in the layout's table order and vice versa.
        for t in schema.tables() {
            if !encoded.layout().table_order().contains(t) {
                return Err(section_err(
                    "layout",
                    format!("schema table {t:?} is missing from the layout"),
                ));
            }
        }
        for t in encoded.layout().table_order() {
            if !schema.contains(t) {
                return Err(section_err(
                    "layout",
                    format!("layout table {t:?} is not in the schema"),
                ));
            }
        }

        // The only section copied out of the input: the others are decoded in place.
        let weights = section(&sections, "weights")?.to_vec();

        Ok(ModelArtifact {
            manifest,
            config,
            schema: Arc::new(schema),
            encoded: Arc::new(encoded),
            full_join_rows,
            weights,
        })
    }

    /// Builds the estimation engine: a fresh model of the configured architecture with
    /// the persisted weights loaded into it (shape- and mask-validated), its gradient
    /// buffers released.
    pub fn to_core(&self) -> Result<EstimatorCore, ArtifactLoadError> {
        let mut model = ResMade::new(MadeConfig {
            domains: self.encoded.model_domains(),
            d_emb: self.config.d_emb,
            d_hidden: self.config.d_hidden,
            num_blocks: self.config.num_blocks,
            seed: self.config.seed,
        });
        load_params_from_bytes(&mut model, &self.weights).map_err(ArtifactLoadError::Weights)?;
        model
            .check_masked_weights()
            .map_err(|m| section_err("weights", m))?;
        EstimatorCore::new(
            model,
            self.encoded.clone(),
            self.schema.clone(),
            self.config.clone(),
            self.full_join_rows,
        )
        .map_err(|m| section_err("weights", m))
    }

    /// The quick-look manifest.
    pub fn manifest(&self) -> &ArtifactManifest {
        &self.manifest
    }

    /// Stamps a shadow-deploy [`PromotionRecord`] into the manifest (builder style).
    /// Called by the pipeline's promotion controller on the winning candidate just
    /// before the promoted artifact is written out; the record then travels inside
    /// the artifact bytes wherever they are copied.
    pub fn with_promotion(mut self, record: PromotionRecord) -> Self {
        self.manifest.promotion = Some(record);
        self
    }

    /// The estimator configuration stored in the artifact.
    pub fn config(&self) -> &NeuroCardConfig {
        &self.config
    }

    /// The join schema stored in the artifact.
    pub fn schema(&self) -> &Arc<JoinSchema> {
        &self.schema
    }

    /// The [`schema_fingerprint`] of this artifact's schema — the identity a model
    /// registry routes requests by.
    pub fn schema_fingerprint(&self) -> u64 {
        schema_fingerprint(&self.schema)
    }

    /// `|J|` recorded at export time.
    pub fn full_join_rows(&self) -> u128 {
        self.full_join_rows
    }

    /// The raw weight blob (the [`nc_nn::serialize`] flat format).
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }
}

/// Frames `sections` in the container the module doc lays out.  Names must be unique;
/// order is preserved.
fn write_container(sections: &[(&str, &[u8])]) -> Vec<u8> {
    let body_len: usize = sections.iter().map(|(n, p)| 12 + n.len() + p.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    out.extend_from_slice(&CONTAINER_MAGIC.to_le_bytes());
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0; 8]); // the checksum, patched in below
    for (i, (name, payload)) in sections.iter().enumerate() {
        assert!(
            sections[..i].iter().all(|(n, _)| n != name),
            "section {name:?} already written"
        );
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let checksum = fnv1a64(&out[HEADER_LEN..]);
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses and validates a container written by [`write_container`], returning its
/// sections in file order, borrowed from `bytes`.
fn read_container(bytes: &[u8]) -> Result<Vec<(&str, &[u8])>, ArtifactLoadError> {
    if bytes
        .get(..4)
        .is_some_and(|magic| magic != CONTAINER_MAGIC.to_le_bytes())
    {
        return Err(ArtifactLoadError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactLoadError::Truncated);
    }
    let truncated = |_: BinError| ArtifactLoadError::Truncated;
    let mut r = BinReader::new(&bytes[4..]);
    let version = r.u32().map_err(truncated)?;
    if version != CONTAINER_VERSION {
        return Err(ArtifactLoadError::UnsupportedVersion {
            found: version,
            supported: CONTAINER_VERSION,
        });
    }
    let count = r.u32().map_err(truncated)? as usize;
    let stored = r.u64().map_err(truncated)?;
    let computed = fnv1a64(&bytes[HEADER_LEN..]);
    if stored != computed {
        return Err(ArtifactLoadError::ChecksumMismatch { stored, computed });
    }
    // The count is untrusted input (the checksum only guards against *accidental*
    // damage): cap the pre-allocation like the other binary readers do.
    let mut sections: Vec<(&str, &[u8])> = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        let name_len = r.u32().map_err(truncated)? as usize;
        let name = std::str::from_utf8(r.bytes(name_len).map_err(truncated)?)
            .map_err(|_| ArtifactLoadError::Malformed("section name is not UTF-8".into()))?;
        // A length past the address space cannot fit in the input either.
        let payload_len = usize::try_from(r.u64().map_err(truncated)?)
            .map_err(|_| ArtifactLoadError::Truncated)?;
        let payload = r.bytes(payload_len).map_err(truncated)?;
        if sections.iter().any(|(n, _)| *n == name) {
            return Err(ArtifactLoadError::DuplicateSection(name.to_string()));
        }
        sections.push((name, payload));
    }
    if !r.is_empty() {
        return Err(ArtifactLoadError::Malformed(format!(
            "{} unread bytes after the last section",
            r.remaining()
        )));
    }
    Ok(sections)
}

/// The payload of the required section `name`.
fn section<'a>(sections: &[(&str, &'a [u8])], name: &str) -> Result<&'a [u8], ArtifactLoadError> {
    sections
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, payload)| payload)
        .ok_or_else(|| ArtifactLoadError::MissingSection(name.to_string()))
}

fn read_json_section<T: for<'de> Deserialize<'de>>(
    sections: &[(&str, &[u8])],
    name: &'static str,
) -> Result<T, ArtifactLoadError> {
    let payload = section(sections, name)?;
    let text =
        std::str::from_utf8(payload).map_err(|_| section_err(name, "payload is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| section_err(name, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::NeuroCard;
    use crate::infer::SamplerScratch;
    use nc_schema::{JoinEdge as Edge, Predicate, Query};
    use nc_storage::{Database, TableBuilder, Value};

    fn tiny() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "c"]);
        for i in 0..40i64 {
            a.push_row(vec![Value::Int(i % 5), Value::Int(i % 3)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "tag"]);
        for i in 0..60i64 {
            b.push_row(vec![Value::Int(i % 5), Value::from(format!("t{}", i % 4))]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![Edge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    fn trained() -> (NeuroCard, Arc<Database>, Arc<JoinSchema>) {
        let (db, schema) = tiny();
        let config = NeuroCardConfig::tiny().with_training_tuples(800);
        let model = NeuroCard::build(db.clone(), schema.clone(), &config);
        (model, db, schema)
    }

    #[test]
    fn byte_round_trip_preserves_every_piece() {
        let (model, _, schema) = trained();
        let artifact = model.to_artifact();
        let bytes = artifact.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();

        assert_eq!(back.manifest(), artifact.manifest());
        assert_eq!(back.config(), artifact.config());
        assert_eq!(back.full_join_rows(), model.stats().full_join_rows);
        assert_eq!(back.schema().tables(), schema.tables());
        assert_eq!(back.schema().root(), schema.root());
        assert_eq!(back.weights(), artifact.weights());
        // Serialisation is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn loaded_core_estimates_bit_identically() {
        let (model, _, _) = trained();
        let bytes = model.to_artifact().to_bytes();
        let core = ModelArtifact::from_bytes(&bytes)
            .unwrap()
            .to_core()
            .unwrap();
        let queries = [
            Query::join(&["A", "B"]),
            Query::join(&["A"]).filter("A", "c", Predicate::eq(1i64)),
            Query::join(&["A", "B"]).filter("B", "tag", Predicate::eq("t2")),
        ];
        let snapshot = model.core();
        for q in &queries {
            assert_eq!(snapshot.estimate(q).to_bits(), core.estimate(q).to_bits());
            assert_eq!(snapshot.query_seed(q), core.query_seed(q));
        }
        // A core never carries gradients, whichever constructor built it.
        for m in [core.model(), snapshot.model()] {
            assert!(m.params().iter().all(|p| p.grad.rows() == 0));
        }
        // And the zero-sample contract carries over.
        assert_eq!(
            core.try_estimate(&queries[0], 0, &mut SamplerScratch::new()),
            Err(crate::infer::EstimateError::InvalidSampleCount)
        );
    }

    #[test]
    fn corrupt_artifacts_report_typed_errors() {
        let (model, _, _) = trained();
        let bytes = model.to_artifact().to_bytes();

        // Container-level damage.
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes[..10]),
            Err(ArtifactLoadError::Truncated)
        ));
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            ModelArtifact::from_bytes(&bad),
            Err(ArtifactLoadError::ChecksumMismatch { .. })
        ));

        // Section-level damage: a syntactically valid container whose weights belong to a
        // different architecture.
        let (other_db, other_schema) = tiny();
        let mut cfg = NeuroCardConfig::tiny().with_training_tuples(300);
        cfg.d_hidden = 16; // different architecture
        let other = NeuroCard::build(other_db, other_schema, &cfg);
        let mut mixed = model.to_artifact();
        mixed.weights = other.to_artifact().weights().to_vec();
        assert!(matches!(
            ModelArtifact::from_bytes(&mixed.to_bytes())
                .unwrap()
                .to_core(),
            Err(ArtifactLoadError::Weights(_))
        ));

        for e in [
            ArtifactLoadError::BadMagic,
            ArtifactLoadError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            ArtifactLoadError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            ArtifactLoadError::Truncated,
            ArtifactLoadError::Malformed("x".into()),
            ArtifactLoadError::DuplicateSection("s".into()),
            ArtifactLoadError::MissingSection("s".into()),
            section_err("manifest", "boom"),
            ArtifactLoadError::Weights(LoadError::Truncated),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn schema_fingerprint_distinguishes_schemas_and_survives_round_trips() {
        let (model, _, schema) = trained();
        let fp = schema_fingerprint(&schema);
        let artifact = model.to_artifact();
        assert_eq!(artifact.schema_fingerprint(), fp);
        assert_eq!(artifact.manifest().schema_fingerprint, format!("{fp:016x}"));
        let back = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back.schema_fingerprint(), fp);

        // Every structural ingredient moves the fingerprint.
        let renamed = JoinSchema::new(
            vec!["A".into(), "C".into()],
            vec![Edge::parse("A.x", "C.x")],
            "A",
        )
        .unwrap();
        assert_ne!(schema_fingerprint(&renamed), fp);
        let other_root = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![Edge::parse("A.x", "B.x")],
            "B",
        )
        .unwrap();
        assert_ne!(schema_fingerprint(&other_root), fp);
        let other_edge = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![Edge::parse("A.c", "B.x")],
            "A",
        )
        .unwrap();
        assert_ne!(schema_fingerprint(&other_edge), fp);
        // ...and identical structure reproduces it exactly.
        let same = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![Edge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        assert_eq!(schema_fingerprint(&same), fp);
    }

    /// Rewrites the artifact's manifest section through `edit`, preserving the other
    /// sections — simulates artifacts written by older builds.
    fn rewrite_manifest(bytes: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
        let mut sections = read_container(bytes).unwrap();
        assert_eq!(sections[0].0, "manifest");
        let manifest = edit(std::str::from_utf8(sections[0].1).unwrap());
        sections[0].1 = manifest.as_bytes();
        write_container(&sections)
    }

    #[test]
    fn pre_fingerprint_artifacts_still_load() {
        let (model, _, schema) = trained();
        let bytes = model.to_artifact().to_bytes();

        // A PR-4 era manifest has no schema_fingerprint entry at all.
        let old = rewrite_manifest(&bytes, |text| {
            let stripped: Vec<&str> = text
                .lines()
                .filter(|l| !l.contains("schema_fingerprint"))
                .collect();
            let stripped = stripped.join("\n");
            // Removing the last entry leaves a trailing comma on the previous line.
            stripped.replace(",\n}", "\n}")
        });
        let loaded = ModelArtifact::from_bytes(&old).expect("old artifacts must load");
        // The loader fills the fingerprint in from the schema section...
        assert_eq!(
            loaded.manifest().schema_fingerprint,
            format!("{:016x}", schema_fingerprint(&schema))
        );
        // ...and the loaded model still estimates bit-identically.
        let q = Query::join(&["A", "B"]);
        assert_eq!(
            loaded.to_core().unwrap().estimate(&q).to_bits(),
            model.core().estimate(&q).to_bits()
        );

        // A *wrong* fingerprint is rejected, as is a malformed one.
        let lying = rewrite_manifest(&bytes, |text| {
            text.replace(
                &format!("{:016x}", schema_fingerprint(&schema)),
                "00000000deadbeef",
            )
        });
        assert!(matches!(
            ModelArtifact::from_bytes(&lying),
            Err(ArtifactLoadError::Section {
                name: "manifest",
                ..
            })
        ));
        let garbled = rewrite_manifest(&bytes, |text| {
            text.replace(
                &format!("{:016x}", schema_fingerprint(&schema)),
                "not-hex-at-all",
            )
        });
        assert!(ModelArtifact::from_bytes(&garbled).is_err());
    }

    /// Older builds wrote a half-width rounding of the weights as an eighth section.  The
    /// loader asks the container for sections by name only, so such an artifact loads with
    /// no compatibility code: the section is checksummed, never decoded (garbage in it is
    /// harmless), and dropped on re-export.
    #[test]
    fn legacy_bf16_section_is_ignored() {
        let (model, _, _) = trained();
        let bytes = model.to_artifact().to_bytes();
        let mut sections = read_container(&bytes).unwrap();
        sections.push(("weights_bf16", &[0xA5; 37]));
        let legacy = write_container(&sections);
        assert_ne!(legacy, bytes);

        let loaded = ModelArtifact::from_bytes(&legacy).expect("legacy artifacts must load");
        assert_eq!(loaded.to_bytes(), bytes);
        let legacy_core = loaded.to_core().expect("the legacy section is never read");
        let core = ModelArtifact::from_bytes(&bytes)
            .unwrap()
            .to_core()
            .unwrap();
        let mut scratch = SamplerScratch::new();
        for q in [
            Query::join(&["A", "B"]),
            Query::join(&["A"]).filter("A", "c", Predicate::eq(1i64)),
        ] {
            let [legacy, fresh] = [&legacy_core, &core]
                .map(|c| c.try_estimate(&q, 64, &mut scratch).unwrap().to_bits());
            assert_eq!(legacy, fresh, "{q} diverged on the legacy artifact");
        }
    }

    #[test]
    fn nonzero_masked_weights_report_typed_errors() {
        let (model, _, _) = trained();
        let good = model.core().model().clone();
        // The input layer follows the per-column embedding tables in parameter order.
        // The last column's input units are masked from every hidden unit.
        let tensor = good.num_columns();
        let row = (good.num_columns() - 1) * good.config().d_emb;
        let mut bad = good.clone();
        bad.params_mut()[tensor].value.set(row, 0, 0.25);

        let mut flipped = model.to_artifact();
        flipped.weights = model_to_bytes(&bad);
        let loaded = ModelArtifact::from_bytes(&flipped.to_bytes())
            .expect("the container and every section still parse");
        match loaded.to_core() {
            Err(ArtifactLoadError::Section { name, message }) => {
                assert_eq!(name, "weights");
                assert!(message.contains("input layer"), "{message}");
            }
            Err(other) => panic!("expected a weights section error, got {other:?}"),
            Ok(_) => panic!("expected a weights section error, got a working core"),
        }
        // A zero of either sign is still a zero.
        let mut negative_zero = good;
        negative_zero.params_mut()[tensor].value.set(row, 0, -0.0);
        let mut artifact = model.to_artifact();
        artifact.weights = model_to_bytes(&negative_zero);
        ModelArtifact::from_bytes(&artifact.to_bytes())
            .unwrap()
            .to_core()
            .expect("-0.0 passes the mask check");
    }

    /// Loads an otherwise good artifact after making one unmasked weight of each masked
    /// layer non-finite, and expects a typed `weights` error naming the layer.  Skipped
    /// terms of the inference forward are `a · ±0.0`, which is only a zero while `a` — a
    /// sum of weight products — is finite.
    #[test]
    fn non_finite_f32_weights_report_typed_errors() {
        let (model, _, _) = trained();
        let good = model.core().model().clone();
        // Parameter order: one embedding table per column, then (weight, bias) of the
        // input layer, of each block layer, and of the output layer.  Hidden unit 0 hears
        // from input unit 0 and from itself, and the last column's context from it.
        let input = good.num_columns();
        let blocks = 2 * good.config().num_blocks;
        let out_col = good.num_columns() * good.config().d_emb - 1;
        for (tensor, col, layer, value) in [
            (input, 0, "input layer", f32::NAN),
            (input + 2, 0, "first layer of block 0", f32::INFINITY),
            (
                input + 2 + 2 * blocks,
                out_col,
                "output layer",
                f32::NEG_INFINITY,
            ),
        ] {
            let mut bad = good.clone();
            bad.params_mut()[tensor].value.set(0, col, value);
            let mut artifact = model.to_artifact();
            artifact.weights = model_to_bytes(&bad);
            let loaded = ModelArtifact::from_bytes(&artifact.to_bytes())
                .expect("the container and every section still parse");
            match loaded.to_core() {
                Err(ArtifactLoadError::Section { name, message }) => {
                    assert_eq!(name, "weights");
                    assert!(
                        message.contains(layer) && message.contains("not finite"),
                        "{message}"
                    );
                }
                Err(other) => panic!("expected a weights section error, got {other:?}"),
                Ok(_) => panic!("expected a weights section error, got a working core"),
            }
        }
    }

    fn sample_container() -> Vec<u8> {
        write_container(&[
            ("manifest", b"{\"v\":1}"),
            ("weights", &[1, 2, 3, 4, 5]),
            ("empty", &[]),
        ])
    }

    #[test]
    fn container_round_trip_preserves_sections_and_order() {
        let bytes = sample_container();
        let sections = read_container(&bytes).unwrap();
        assert_eq!(
            sections,
            [
                ("manifest", &b"{\"v\":1}"[..]),
                ("weights", &[1, 2, 3, 4, 5][..]),
                ("empty", &[][..]),
            ]
        );
        assert_eq!(section(&sections, "weights"), Ok(&[1, 2, 3, 4, 5][..]));
        assert_eq!(
            section(&sections, "nope"),
            Err(ArtifactLoadError::MissingSection("nope".into()))
        );
    }

    #[test]
    fn container_header_validation() {
        let bytes = sample_container();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(read_container(&bad), Err(ArtifactLoadError::BadMagic));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            read_container(&bad),
            Err(ArtifactLoadError::UnsupportedVersion { found: 99, .. })
        ));
        // Flipping any payload bit trips the checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            read_container(&bad),
            Err(ArtifactLoadError::ChecksumMismatch { .. })
        ));
        // Truncation anywhere fails cleanly (checksum covers the body, so most cuts trip
        // it; header cuts report Truncated).
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(read_container(&bytes[..cut]).is_err());
        }
        assert_eq!(read_container(&[]), Err(ArtifactLoadError::Truncated));
    }

    /// Rewrites the body of `container` and recomputes its checksum, so the damage reaches
    /// the section table.
    fn with_body(container: &[u8], edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = container.to_vec();
        let mut body = out.split_off(HEADER_LEN);
        edit(&mut body);
        out[HEADER_LEN - 8..].copy_from_slice(&fnv1a64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn duplicate_sections_rejected_at_write_and_read() {
        // The writer asserts on duplicates...
        let result = std::panic::catch_unwind(|| write_container(&[("a", &[1]), ("a", &[2])]));
        assert!(result.is_err());
        // ...and the reader reports them: rename the second section "w" to "a".
        let duplicate = with_body(&PINNED_CONTAINER, |body| body[19] = b'a');
        assert_eq!(
            read_container(&duplicate),
            Err(ArtifactLoadError::DuplicateSection("a".into()))
        );
        // A name that is not UTF-8, and bytes after the last section, are malformed.
        let not_utf8 = with_body(&PINNED_CONTAINER, |body| body[4] = 0xFF);
        assert!(matches!(
            read_container(&not_utf8),
            Err(ArtifactLoadError::Malformed(_))
        ));
        let trailing = with_body(&PINNED_CONTAINER, |body| body.push(0));
        assert_eq!(
            read_container(&trailing),
            Err(ArtifactLoadError::Malformed(
                "1 unread bytes after the last section".into()
            ))
        );
    }

    /// The framing of a two-section container, byte for byte: every artifact ever written
    /// must keep loading, so the layout may not move.
    #[rustfmt::skip]
    const PINNED_CONTAINER: [u8; 51] = [
        0x52, 0x41, 0x43, 0x4e, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // magic, version 1, 2 sections
        0xf1, 0xa7, 0x0f, 0x9e, 0x41, 0xf2, 0x83, 0x32,                         // checksum
        0x01, 0x00, 0x00, 0x00, 0x61, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // "a", 2 bytes
        0x78, 0x79,
        0x01, 0x00, 0x00, 0x00, 0x77, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // "w", 3 bytes
        0x01, 0x02, 0x03,
    ];

    #[test]
    fn container_bytes_are_pinned() {
        let bytes = write_container(&[("a", b"xy"), ("w", &[1, 2, 3])]);
        assert_eq!(bytes, PINNED_CONTAINER);
        assert_eq!(fnv1a64(&PINNED_CONTAINER), 0xfc30_4cb4_3342_ba81);
        let sections = read_container(&PINNED_CONTAINER).unwrap();
        assert_eq!(sections, [("a", &b"xy"[..]), ("w", &[1, 2, 3][..])]);
    }

    #[test]
    fn manifest_carries_training_stats() {
        let (model, _, _) = trained();
        let artifact = model.to_artifact();
        let m = artifact.manifest();
        assert_eq!(m.format, "neurocard-artifact");
        assert_eq!(m.artifact_version, MODEL_ARTIFACT_VERSION);
        assert_eq!(m.tuples_trained, 800);
        assert!(m.num_params > 0);
        assert_eq!(
            m.full_join_rows.parse::<u128>().unwrap(),
            model.stats().full_join_rows
        );
        assert!(m.model_columns >= m.wide_columns);
    }
}
