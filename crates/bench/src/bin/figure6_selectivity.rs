//! Reproduces **Figure 6**: the query-selectivity distribution (CDF) of JOB-light,
//! JOB-light-ranges and JOB-M.
//!
//! The paper's observation: the two new benchmarks have a much wider selectivity spectrum
//! than JOB-light — medians more than 100× lower and minima about 1000× lower.

use nc_bench::{BenchEnv, HarnessConfig};
use nc_serve::nearest_rank;
use nc_workloads::selectivity::selectivity_spectrum;
use nc_workloads::{job_light_queries, job_light_ranges_queries, job_m_queries};

fn print_cdf(name: &str, spectrum: &[f64]) {
    if spectrum.is_empty() {
        println!("{name}: no queries generated");
        return;
    }
    println!(
        "{:<22} min {:>9.2e}  p25 {:>9.2e}  median {:>9.2e}  p75 {:>9.2e}  max {:>9.2e}",
        name,
        nearest_rank(spectrum, 0.0),
        nearest_rank(spectrum, 0.25),
        nearest_rank(spectrum, 0.5),
        nearest_rank(spectrum, 0.75),
        nearest_rank(spectrum, 1.0)
    );
}

fn main() {
    let config = HarnessConfig::from_cli();
    let light = BenchEnv::job_light(&config);
    nc_bench::harness::print_preamble(
        "Figure 6: query selectivity distribution",
        &light.name,
        &config,
    );

    let job_light = job_light_queries(&light.db, &light.schema, config.queries, config.seed);
    let ranges =
        job_light_ranges_queries(&light.db, &light.schema, config.queries, config.seed + 1);
    let light_spec = selectivity_spectrum(&light.db, &light.schema, &job_light);
    let ranges_spec = selectivity_spectrum(&light.db, &light.schema, &ranges);

    let m_env = BenchEnv::job_m(&config);
    let job_m = job_m_queries(&m_env.db, &m_env.schema, config.queries, config.seed + 2);
    let m_spec = selectivity_spectrum(&m_env.db, &m_env.schema, &job_m);

    println!("selectivity = true cardinality / unfiltered inner-join cardinality\n");
    print_cdf("JOB-light", &light_spec);
    print_cdf("JOB-light-ranges", &ranges_spec);
    print_cdf("JOB-M", &m_spec);

    let median = |s: &[f64]| {
        if s.is_empty() {
            1.0
        } else {
            nearest_rank(s, 0.5).max(1e-12)
        }
    };
    println!();
    println!(
        "shape check (paper: ranges/JOB-M medians >100x lower than JOB-light): \
         median ratio JOB-light / JOB-light-ranges = {:.1}x, JOB-light / JOB-M = {:.1}x",
        median(&light_spec) / median(&ranges_spec),
        median(&light_spec) / median(&m_spec)
    );
}
