//! Measures the discrete-event core's wall-clock scale: the queue hold
//! model on both backends, full-run throughput (backends asserted
//! bit-identical) and phase shares. `--large` runs the million-job size
//! and adds the per-event flatness table.

use cmags_bench::args::{Args, Ctx};
use cmags_bench::experiments::sim_scale::sim_scale;
use cmags_bench::report::emit;

fn main() {
    let args = Args::from_env();
    let ctx = Ctx::from_args(&args);
    emit(&ctx, &sim_scale(&ctx, args.flag("--large")));
}
