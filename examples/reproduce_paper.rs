//! Regenerate every table and figure of the paper in one run.
//!
//! This is the example-sized entry point; the `repro` binary in the
//! `experiments` crate does the same with CLI selection and CSV output.
//!
//! ```sh
//! cargo run --release --example reproduce_paper
//! ```

use experiments::runner::RunOptions;
use experiments::{
    fig1_remote_ratio, fig3_bounds, fig4_spec, fig5_npb, fig6_memcached, fig7_redis, fig8_period,
    table3_overhead,
};
use sim_core::SimDuration;

fn main() {
    // Shorter windows than the `repro` binary so the example finishes in
    // about a minute; shapes are already stable at this scale.
    let opts = RunOptions {
        duration: SimDuration::from_secs(15),
        warmup: SimDuration::from_secs(5),
        ..RunOptions::default()
    };

    println!(
        "{}",
        fig1_remote_ratio::render(&fig1_remote_ratio::run(&opts).unwrap()).to_text()
    );
    println!(
        "{}",
        fig3_bounds::render(&fig3_bounds::run(&opts).unwrap()).to_text()
    );
    println!(
        "{}",
        fig4_spec::render(&fig4_spec::run(&opts).unwrap(), "Fig. 4").to_text()
    );
    println!(
        "{}",
        fig5_npb::render(&fig5_npb::run(&opts).unwrap()).to_text()
    );
    println!(
        "{}",
        fig6_memcached::render(&fig6_memcached::run_levels(&[16, 64, 112], &opts).unwrap())
            .to_text()
    );
    println!(
        "{}",
        fig7_redis::render(&fig7_redis::run_levels(&[2_000, 6_000, 10_000], &opts).unwrap())
            .to_text()
    );
    println!(
        "{}",
        table3_overhead::render(&table3_overhead::run(&opts).unwrap()).to_text()
    );
    println!(
        "{}",
        fig8_period::render(&fig8_period::run_periods(&[0.1, 0.5, 1.0, 2.0, 10.0], &opts).unwrap())
            .to_text()
    );
}
