//! The fleet engine, timed: one full monitoring/scheme tick of a
//! 1000-process serverless fleet (and a 100-process fleet for the
//! sub-linearity context), the whole 1000-process × 50-epoch run `daos
//! fleet` makes by default, and (ungated) building its shard images
//! alone and its first tick, which stamps every shard, written to
//! `BENCH_fleet.json` at the repo root as the regression baseline.
//!
//! `fleet_bench --quick` shrinks samples/iterations for CI smoke runs;
//! `DAOS_BENCH_OUT` overrides the output path;
//! `--check FILE [--baseline BASE --margin PCT]` gates the committed
//! baseline exactly like `pipeline --check` (exit 65 on a regression).

use daos::{FleetEngine, FleetSpec, RunConfig, Session};
use daos_bench::artifact;
use daos_mm::clock::sec;
use daos_mm::{MachineProfile, SwapConfig};
use daos_util::bench::Harness;
use daos_util::json::Json;
use daos_workloads::FleetConfig;
use std::hint::black_box;

/// The timings gated against the committed baseline: the per-tick cost
/// and the end-to-end cost of the acceptance-scale fleet.
const GATED: [&str; 2] = ["fleet/tick_1000_procs", "fleet/run_1000_procs_50_epochs"];

/// The `daos fleet` production configuration on the default zram.
fn fleet_config() -> RunConfig {
    RunConfig::fleet_prcl(sec(30), SwapConfig::paper_zram())
}

/// Time `engine.tick()` for a fleet of `nr_procs` small workers. The
/// engine is built once and ticked once, which stamps its shards (setup
/// cost excluded); every iteration advances the whole fleet by one
/// epoch, shard after shard on this thread: a pooled tick is a barrier
/// over however many cores the neighbours leave free, and read 2x slow
/// often enough to flake at the gate's margin.
fn bench_fleet_tick(h: &mut Harness, iters: u64, nr_procs: usize) {
    let machine = MachineProfile::i3_metal();
    let config = fleet_config();
    let workers = FleetConfig { worker_footprint: 2 << 20, ..FleetConfig::default() };
    // More epochs than any harness run will tick through.
    let spec = workers.worker_spec(1 << 20);
    let fleet = FleetSpec::new(nr_procs).shard_size(32).workers(1);
    let mut engine =
        FleetEngine::new(&machine, &config, &spec, fleet, 42).expect("fleet setup");
    engine.tick().expect("fleet tick");
    h.bench_iters(&format!("fleet/tick_{nr_procs}_procs"), iters, || {
        engine.tick().expect("fleet tick");
        black_box(engine.nr_ticks())
    });
}

/// `daos fleet`'s default fleet, end to end, its image builds alone, and
/// its first tick — all 32 shards stamped, then ticked once — on an
/// engine built untimed:
/// 1000 default-footprint workers in shards of 32, which overcommit each
/// shard's DRAM so set-up itself reclaims. The run is a whole
/// `Session::execute()` — build, run, finish, drop — on this thread, for
/// the reason the tick lanes are.
fn bench_fleet_run(h: &mut Harness) {
    let machine = MachineProfile::i3_metal();
    let config = fleet_config();
    let spec = FleetConfig::default().worker_spec(50);
    let fleet = || FleetSpec::new(1000).shard_size(32).tenants(4).workers(1);
    h.bench_iters("fleet/run_1000_procs_50_epochs", 1, || {
        let session = Session::new(&machine, &config, &spec).seed(42).fleet(fleet());
        black_box(session.execute().expect("fleet run").runs.len())
    });
    let build = || FleetEngine::new(&machine, &config, &spec, fleet(), 42).expect("fleet setup");
    h.bench_iters("fleet/images_1000_procs", 1, || black_box(build().nr_ticks()));
    h.bench_with_setup("fleet/first_tick_1000_procs", build, |mut engine| {
        engine.tick().expect("fleet tick");
        engine
    });
}

/// Time every bench and return the artifact.
fn measure(quick: bool) -> Json {
    let samples = if quick { 3 } else { 10 };
    let iters = if quick { 2 } else { 5 };
    let mut h = Harness::new("fleet", samples).progress_to(Box::new(std::io::stdout()));

    bench_fleet_tick(&mut h, iters, 100);
    bench_fleet_tick(&mut h, iters, 1000);
    bench_fleet_run(&mut h);

    artifact::artifact_doc("fleet", quick, samples, h.results())
}

fn main() {
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    std::process::exit(artifact::bench_main("fleet_bench", &GATED, &mut out, &mut err, measure));
}
