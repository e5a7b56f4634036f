//! The fleet engine's hot path, timed: one full monitoring/scheme tick
//! of a 1000-process serverless fleet (and a 100-process fleet for the
//! sub-linearity context), written to `BENCH_fleet.json` at the repo
//! root as the regression baseline.
//!
//! `fleet_bench --quick` shrinks samples/iterations for CI smoke runs;
//! `DAOS_BENCH_OUT` overrides the output path;
//! `--check FILE [--baseline BASE --margin PCT]` gates the committed
//! baseline exactly like `pipeline --check` (exit 65 on a regression).

use daos::{FleetEngine, FleetSpec, MonitorKind, RunConfig};
use daos_bench::artifact;
use daos_mm::MachineProfile;
use daos_schemes::parse_scheme_line;
use daos_util::bench::Harness;
use daos_util::json::Json;
use daos_workloads::FleetConfig;
use std::hint::black_box;

/// The timing gated against the committed baseline: the per-tick cost
/// of the acceptance-scale fleet.
const GATED: [&str; 1] = ["fleet/tick_1000_procs"];

/// The `daos fleet` production configuration at bench scale:
/// physical-address monitoring feeding the pageout scheme.
fn fleet_config() -> RunConfig {
    RunConfig::builder("fleet-prcl")
        .monitor(MonitorKind::Paddr)
        .scheme(parse_scheme_line("min max min min 30s max pageout").expect("static scheme"))
        .build()
        .expect("static config is valid")
}

/// Time `engine.tick()` for a fleet of `nr_procs` small workers. The
/// engine is built once (setup cost excluded); every iteration advances
/// the whole fleet by one epoch over the work-stealing pool.
fn bench_fleet_tick(h: &mut Harness, iters: u64, nr_procs: usize) {
    let machine = MachineProfile::i3_metal();
    let config = fleet_config();
    let workers = FleetConfig { worker_footprint: 2 << 20, ..FleetConfig::default() };
    // More epochs than any harness run will tick through.
    let spec = workers.worker_spec(1 << 20);
    let fleet = FleetSpec::new(nr_procs).shard_size(32);
    let mut engine =
        FleetEngine::new(&machine, &config, &spec, fleet, 42).expect("fleet setup");
    h.bench_iters(&format!("fleet/tick_{nr_procs}_procs"), iters, || {
        engine.tick().expect("fleet tick");
        black_box(engine.nr_ticks())
    });
}

/// Time every bench and return the artifact.
fn measure(quick: bool) -> Json {
    let samples = if quick { 3 } else { 10 };
    let iters = if quick { 2 } else { 5 };
    let mut h = Harness::new("fleet", samples).progress_to(Box::new(std::io::stdout()));

    bench_fleet_tick(&mut h, iters, 100);
    bench_fleet_tick(&mut h, iters, 1000);

    artifact::artifact_doc("fleet", quick, samples, h.results())
}

fn main() {
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    std::process::exit(artifact::bench_main("fleet_bench", &GATED, &mut out, &mut err, measure));
}
