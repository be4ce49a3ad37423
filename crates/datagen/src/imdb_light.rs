//! Synthetic JOB-light database: the 6-table IMDB star schema.
//!
//! Schema (star around the fact table `title`; every child joins `title.id = child.movie_id`):
//!
//! ```text
//!                       title(id, kind_id, production_year, episode_nr, season_nr, phonetic_code)
//!   cast_info(movie_id, person_id, role_id, nr_order)
//!   movie_companies(movie_id, company_id, company_type_id)
//!   movie_info(movie_id, info_type_id, info_length)
//!   movie_keyword(movie_id, keyword_id)
//!   movie_info_idx(movie_id, info_type_id, rating)
//! ```
//!
//! Injected correlations (all tunable through [`DataGenConfig`]):
//!
//! * `production_year` depends on `kind_id` (older kinds skew older),
//! * child fanout depends on `production_year` (newer movies have more credits/keywords),
//! * `role_id`, `company_type_id`, `info_type_id` and `keyword_id` depend on the parent
//!   movie's `kind_id`/year bucket,
//! * `rating` in `movie_info_idx` depends on `production_year`,
//! * `episode_nr`/`season_nr` are NULL except for episodic kinds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nc_schema::{JoinEdge, JoinSchema};
use nc_storage::{Database, TableBuilder, Value};

use crate::config::DataGenConfig;
use crate::distributions::{correlated_category, sample_fanout, Zipf};

/// The six JOB-light table names.
pub const JOB_LIGHT_TABLES: [&str; 6] = [
    "title",
    "cast_info",
    "movie_companies",
    "movie_info",
    "movie_keyword",
    "movie_info_idx",
];

/// Number of movie kinds (`kind_id` domain).
pub const NUM_KINDS: usize = 6;
/// Number of cast roles (`role_id` domain).
pub const NUM_ROLES: usize = 11;
/// Number of company types.
pub const NUM_COMPANY_TYPES: usize = 4;
/// Number of `movie_info` info types.
pub const NUM_INFO_TYPES: usize = 20;
/// Number of `movie_info_idx` info types.
pub const NUM_INFO_IDX_TYPES: usize = 10;

/// The JOB-light join schema: a star rooted at `title`.
pub fn job_light_schema() -> JoinSchema {
    let edges = vec![
        JoinEdge::parse("title.id", "cast_info.movie_id"),
        JoinEdge::parse("title.id", "movie_companies.movie_id"),
        JoinEdge::parse("title.id", "movie_info.movie_id"),
        JoinEdge::parse("title.id", "movie_keyword.movie_id"),
        JoinEdge::parse("title.id", "movie_info_idx.movie_id"),
    ];
    JoinSchema::new(
        JOB_LIGHT_TABLES.iter().map(|s| s.to_string()).collect(),
        edges,
        "title",
    )
    .expect("static schema is valid")
}

/// Content columns (non-join-key) usable for filter generation, with a flag telling whether
/// range predicates are natural for the column (`true`) or only equality/IN (`false`).
pub fn job_light_filter_columns() -> Vec<(&'static str, &'static str, bool)> {
    vec![
        ("title", "kind_id", false),
        ("title", "production_year", true),
        ("title", "episode_nr", true),
        ("title", "season_nr", true),
        ("title", "phonetic_code", true),
        ("cast_info", "role_id", false),
        ("cast_info", "nr_order", true),
        ("movie_companies", "company_type_id", false),
        ("movie_info", "info_type_id", false),
        ("movie_info", "info_length", true),
        ("movie_keyword", "keyword_id", false),
        ("movie_info_idx", "info_type_id", false),
        ("movie_info_idx", "rating", true),
    ]
}

/// Attributes of one generated movie, shared by all child generators so that the injected
/// correlations are consistent.
struct Movie {
    id: i64,
    kind: usize,
    year: i64,
    year_bucket: usize,
}

/// Generates the JOB-light database.
pub fn job_light_database(config: &DataGenConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_title = config.effective_title_rows();
    let movies = generate_movies(config, &mut rng, n_title);

    let mut db = Database::new();
    db.add_table(build_title(&movies, config, &mut rng));
    db.add_table(build_cast_info(&movies, config, &mut rng));
    db.add_table(build_movie_companies(&movies, config, &mut rng));
    db.add_table(build_movie_info(&movies, config, &mut rng));
    db.add_table(build_movie_keyword(&movies, config, &mut rng));
    db.add_table(build_movie_info_idx(&movies, config, &mut rng));
    db
}

fn generate_movies(config: &DataGenConfig, rng: &mut StdRng, n: usize) -> Vec<Movie> {
    let kind_dist = Zipf::new(NUM_KINDS, config.skew);
    let (y_lo, y_hi) = config.year_range;
    let span = (y_hi - y_lo).max(1);
    (0..n)
        .map(|i| {
            let kind = kind_dist.sample(rng);
            // Year correlated with kind: kind k concentrates in a kind-specific band, with
            // some spread so the marginal covers the whole range.
            let band_center = y_lo + (span * (kind as i64 + 1)) / (NUM_KINDS as i64 + 1);
            let spread = span / 4;
            let noise = rng.random_range(-spread..=spread);
            let year = (band_center + noise).clamp(y_lo, y_hi);
            let year_bucket = ((year - y_lo) * 8 / (span + 1)).clamp(0, 7) as usize;
            Movie {
                id: (i + 1) as i64,
                kind,
                year,
                year_bucket,
            }
        })
        .collect()
}

fn build_title(movies: &[Movie], config: &DataGenConfig, rng: &mut StdRng) -> nc_storage::Table {
    let mut b = TableBuilder::with_capacity(
        "title",
        &[
            "id",
            "kind_id",
            "production_year",
            "episode_nr",
            "season_nr",
            "phonetic_code",
        ],
        movies.len(),
    );
    for m in movies {
        // Episodic kinds (0 and 1) have episode/season numbers; the rest are NULL.
        let episodic = m.kind <= 1;
        let episode_nr = if episodic {
            Value::Int(rng.random_range(1..=40))
        } else {
            Value::Null
        };
        let season_nr = if episodic {
            Value::Int(rng.random_range(1..=12))
        } else {
            Value::Null
        };
        // Phonetic code: a letter correlated with the year bucket plus digits.
        let letter = (b'A' + ((m.year_bucket * 3 + m.kind) % 26) as u8) as char;
        let code = format!("{letter}{:03}", rng.random_range(0..1000));
        b.push_row(vec![
            Value::Int(m.id),
            Value::Int(m.kind as i64 + 1),
            Value::Int(m.year),
            episode_nr,
            season_nr,
            Value::from(code),
        ]);
    }
    let _ = config;
    b.finish()
}

/// Mean child fanout for a movie: newer movies get proportionally more children.
fn fanout_mean(base: f64, m: &Movie) -> f64 {
    base * (0.5 + 0.2 * m.year_bucket as f64)
}

/// Occasionally emits rows referencing a movie id that does not exist in `title`, so the
/// full outer join has child rows without a parent.
fn maybe_dangling_movie_id(
    rng: &mut StdRng,
    config: &DataGenConfig,
    n_title: usize,
) -> Option<i64> {
    if rng.random::<f64>() < config.dangling_fraction {
        Some((n_title + 1 + rng.random_range(0..n_title.max(1))) as i64)
    } else {
        None
    }
}

fn build_cast_info(
    movies: &[Movie],
    config: &DataGenConfig,
    rng: &mut StdRng,
) -> nc_storage::Table {
    let mut b = TableBuilder::new(
        "cast_info",
        &["movie_id", "person_id", "role_id", "nr_order"],
    );
    let n_persons = (movies.len() * 3).max(50);
    let person_dist = Zipf::new(n_persons, config.skew);
    let role_zipf = Zipf::new(NUM_ROLES, config.skew);
    for m in movies {
        let fanout = sample_fanout(
            rng,
            fanout_mean(config.heavy_fanout, m),
            config.skew,
            config.childless_fraction,
            60,
        );
        for order in 0..fanout {
            let movie_id = maybe_dangling_movie_id(rng, config, movies.len()).unwrap_or(m.id);
            let person = person_dist.sample(rng) as i64 + 1;
            let role =
                correlated_category(rng, m.kind, NUM_ROLES, config.correlation, 1, &role_zipf);
            b.push_row(vec![
                Value::Int(movie_id),
                Value::Int(person),
                Value::Int(role as i64 + 1),
                Value::Int(order as i64 + 1),
            ]);
        }
    }
    b.finish()
}

fn build_movie_companies(
    movies: &[Movie],
    config: &DataGenConfig,
    rng: &mut StdRng,
) -> nc_storage::Table {
    let mut b = TableBuilder::new(
        "movie_companies",
        &["movie_id", "company_id", "company_type_id"],
    );
    let n_companies = (movies.len() / 2).max(20);
    let company_dist = Zipf::new(n_companies, config.skew);
    let ctype_zipf = Zipf::new(NUM_COMPANY_TYPES, config.skew);
    for m in movies {
        let fanout = sample_fanout(
            rng,
            fanout_mean(config.light_fanout, m),
            config.skew,
            config.childless_fraction,
            20,
        );
        for _ in 0..fanout {
            let movie_id = maybe_dangling_movie_id(rng, config, movies.len()).unwrap_or(m.id);
            let company = company_dist.sample(rng) as i64 + 1;
            let ctype = correlated_category(
                rng,
                m.year_bucket,
                NUM_COMPANY_TYPES,
                config.correlation,
                2,
                &ctype_zipf,
            );
            b.push_row(vec![
                Value::Int(movie_id),
                Value::Int(company),
                Value::Int(ctype as i64 + 1),
            ]);
        }
    }
    b.finish()
}

fn build_movie_info(
    movies: &[Movie],
    config: &DataGenConfig,
    rng: &mut StdRng,
) -> nc_storage::Table {
    let mut b = TableBuilder::new("movie_info", &["movie_id", "info_type_id", "info_length"]);
    let itype_zipf = Zipf::new(NUM_INFO_TYPES, config.skew);
    for m in movies {
        let fanout = sample_fanout(
            rng,
            fanout_mean(config.heavy_fanout, m),
            config.skew,
            config.childless_fraction,
            40,
        );
        for _ in 0..fanout {
            let movie_id = maybe_dangling_movie_id(rng, config, movies.len()).unwrap_or(m.id);
            let itype = correlated_category(
                rng,
                m.kind * 3 + m.year_bucket,
                NUM_INFO_TYPES,
                config.correlation,
                5,
                &itype_zipf,
            );
            // info_length correlated with info type.
            let info_length = (itype as i64 + 1) * 10 + rng.random_range(0..10);
            b.push_row(vec![
                Value::Int(movie_id),
                Value::Int(itype as i64 + 1),
                Value::Int(info_length),
            ]);
        }
    }
    b.finish()
}

fn build_movie_keyword(
    movies: &[Movie],
    config: &DataGenConfig,
    rng: &mut StdRng,
) -> nc_storage::Table {
    let mut b = TableBuilder::new("movie_keyword", &["movie_id", "keyword_id"]);
    let n_keywords = (movies.len() * 2).max(40);
    let keyword_zipf = Zipf::new(n_keywords, config.skew);
    for m in movies {
        let fanout = sample_fanout(
            rng,
            fanout_mean(config.light_fanout, m),
            config.skew,
            config.childless_fraction,
            25,
        );
        for _ in 0..fanout {
            let movie_id = maybe_dangling_movie_id(rng, config, movies.len()).unwrap_or(m.id);
            let keyword = correlated_category(
                rng,
                m.kind * 13 + m.year_bucket * 3,
                n_keywords,
                config.correlation * 0.6,
                11,
                &keyword_zipf,
            );
            b.push_row(vec![Value::Int(movie_id), Value::Int(keyword as i64 + 1)]);
        }
    }
    b.finish()
}

fn build_movie_info_idx(
    movies: &[Movie],
    config: &DataGenConfig,
    rng: &mut StdRng,
) -> nc_storage::Table {
    let mut b = TableBuilder::new("movie_info_idx", &["movie_id", "info_type_id", "rating"]);
    let itype_zipf = Zipf::new(NUM_INFO_IDX_TYPES, config.skew);
    for m in movies {
        let fanout = sample_fanout(
            rng,
            fanout_mean(config.light_fanout, m),
            config.skew,
            config.childless_fraction,
            12,
        );
        for _ in 0..fanout {
            let movie_id = maybe_dangling_movie_id(rng, config, movies.len()).unwrap_or(m.id);
            let itype = correlated_category(
                rng,
                m.kind,
                NUM_INFO_IDX_TYPES,
                config.correlation,
                7,
                &itype_zipf,
            );
            // Ratings in [10, 100], higher for newer movies on average.
            let rating = 10 + (m.year_bucket as i64 * 8) + rng.random_range(0..30);
            b.push_row(vec![
                Value::Int(movie_id),
                Value::Int(itype as i64 + 1),
                Value::Int(rating.min(100)),
            ]);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_valid_star() {
        let s = job_light_schema();
        assert_eq!(s.num_tables(), 6);
        assert_eq!(s.root(), "title");
        assert_eq!(s.children("title").len(), 5);
        for t in JOB_LIGHT_TABLES.iter().skip(1) {
            assert_eq!(s.parent(t), Some("title"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = DataGenConfig::tiny();
        let a = job_light_database(&cfg);
        let b = job_light_database(&cfg);
        for t in JOB_LIGHT_TABLES {
            let ta = a.expect_table(t);
            let tb = b.expect_table(t);
            assert_eq!(ta.num_rows(), tb.num_rows(), "table {t}");
            if ta.num_rows() > 0 {
                assert_eq!(ta.row(0), tb.row(0));
                assert_eq!(
                    ta.row((ta.num_rows() - 1) as u32),
                    tb.row((tb.num_rows() - 1) as u32)
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = job_light_database(&DataGenConfig::with_seed(1));
        let b = job_light_database(&DataGenConfig::with_seed(2));
        let ca = a.expect_table("cast_info").num_rows();
        let cb = b.expect_table("cast_info").num_rows();
        assert_ne!(
            (ca, a.expect_table("cast_info").row(0)),
            (cb, b.expect_table("cast_info").row(0))
        );
    }

    #[test]
    fn tables_have_expected_shape() {
        let cfg = DataGenConfig::tiny();
        let db = job_light_database(&cfg);
        let title = db.expect_table("title");
        assert_eq!(title.num_rows(), cfg.effective_title_rows());
        assert_eq!(title.num_columns(), 6);
        // ids are unique.
        assert_eq!(
            title.column("id").unwrap().distinct_count(),
            title.num_rows()
        );
        // children are larger than the fact table on average (fanout > 1).
        assert!(db.expect_table("cast_info").num_rows() > title.num_rows());
        // some episode numbers are NULL (non-episodic kinds).
        assert!(title.column("episode_nr").unwrap().null_count() > 0);
    }

    #[test]
    fn correlations_present_between_kind_and_year() {
        let db = job_light_database(&DataGenConfig::default());
        let title = db.expect_table("title");
        let kind = title.column("kind_id").unwrap();
        let year = title.column("production_year").unwrap();
        // Average year of kind 1 should differ noticeably from kind 6 given the banding.
        let mut sums = [(0i64, 0i64); NUM_KINDS + 1];
        for r in 0..title.num_rows() {
            let k = kind.value(r).as_int().unwrap() as usize;
            let y = year.value(r).as_int().unwrap();
            sums[k].0 += y;
            sums[k].1 += 1;
        }
        let avg = |k: usize| sums[k].0 as f64 / sums[k].1.max(1) as f64;
        if sums[1].1 > 10 && sums[NUM_KINDS].1 > 10 {
            assert!(
                avg(NUM_KINDS) - avg(1) > 5.0,
                "expected year/kind correlation"
            );
        }
    }

    #[test]
    fn some_children_dangle() {
        let cfg = DataGenConfig {
            dangling_fraction: 0.2,
            ..DataGenConfig::tiny()
        };
        let db = job_light_database(&cfg);
        let n_title = db.expect_table("title").num_rows() as i64;
        let ci = db.expect_table("cast_info");
        let dangling = ci
            .column("movie_id")
            .unwrap()
            .iter()
            .filter(|v| v.as_int().map(|i| i > n_title).unwrap_or(false))
            .count();
        assert!(dangling > 0, "expected dangling child rows");
    }

    #[test]
    fn filter_columns_exist() {
        let db = job_light_database(&DataGenConfig::tiny());
        for (t, c, _) in job_light_filter_columns() {
            assert!(
                db.expect_table(t).column(c).is_some(),
                "missing filter column {t}.{c}"
            );
        }
    }
}
