//! Races the eight-engine portfolio against the best single engine at
//! equal total children over the four consistency classes. `--large`
//! adds the generated 4096×64 scenario.

use cmags_bench::args::{Args, Ctx};
use cmags_bench::experiments::portfolio::portfolio;
use cmags_bench::report::emit;

fn main() {
    let args = Args::from_env();
    let ctx = Ctx::from_args(&args);
    emit(&ctx, &[portfolio(&ctx, args.flag("--large"))]);
}
