//! Re-stages Braun et al.'s classic mapper line-up (one-shot
//! heuristics, SA, Tabu, GAs) with the paper's cMA added, over the
//! twelve benchmark classes under equal budgets. `--large` additionally
//! runs the line-up on the generated 4096×64 scenario shared with the
//! portfolio experiment and the scaling sweep (size the budget with
//! `--budget-ms`/`--budget-children` accordingly).

use cmags_bench::args::{Args, Ctx};
use cmags_bench::experiments::baselines::{baselines, baselines_on};
use cmags_bench::experiments::large_scenario;
use cmags_bench::report::emit;

fn main() {
    let args = Args::from_env();
    let ctx = Ctx::from_args(&args);
    let (detail, aggregate) = baselines(&ctx);
    let mut tables = vec![detail, aggregate];
    if args.flag("--large") {
        let (mut detail, mut aggregate) = baselines_on(&ctx, &[large_scenario()]);
        detail.title = "Baseline lineup best makespan (4096x64 scenario)".to_owned();
        aggregate.title = "Baseline lineup aggregate (4096x64 scenario)".to_owned();
        tables.push(detail);
        tables.push(aggregate);
    }
    emit(&ctx, &tables);
}
