//! Runs the paper's evaluation: `reproduce [--smoke] [experiment …]`, every experiment of
//! [`nc_bench::EXPERIMENTS`] when none is named (see the crate documentation).

use nc_bench::HarnessConfig;

fn main() {
    let (config, experiments) = HarnessConfig::from_cli();
    for (i, experiment) in experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        (experiment.run)(&config);
    }
}
