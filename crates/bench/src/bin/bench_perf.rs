//! Perf baseline: measures how fast the toolchain itself runs and
//! writes machine-readable artifacts for CI trend tracking.
//!
//! * `results/BENCH_sim.json` — raw simulator throughput
//!   (simulated-cycles per wall-clock second) for one CNN (CifarNet)
//!   and one RNN (GRU), measured over direct `simulate_run` calls.
//!   Every pass builds the network and simulates every launch; the
//!   *cold* leg reports the fastest of the timed passes.
//! * `results/BENCH_serve.json` — serve-engine throughput: requests per
//!   wall-clock second and per simulated megacycle for an open-loop
//!   trace at offered load 1.0, with batch costs precomputed through
//!   the store so the timed region is the engine itself.
//! * `results/BENCH_fleet.json` — fleet-engine throughput: requests per
//!   wall-clock second for each routing policy over a diurnal trace
//!   against three table-costed heterogeneous pools with autoscaling on,
//!   so the timed region is pure engine (no store, no simulator).
//! * `results/bench_history.jsonl` — one appended line per run with the
//!   headline rates, so the perf trajectory of the codebase is
//!   recorded over time instead of overwritten.
//!
//! Wall-clock numbers vary run to run (this is the one binary in the
//! suite whose output is *meant* to measure the host); the simulated
//! quantities embedded alongside them (total cycles, completed
//! requests) stay deterministic, so a regression in either axis is
//! attributable.
//!
//! `TANGO_BENCH_SAMPLES` overrides the timed pass count (default 2);
//! like `TANGO_JOBS`, a set-but-unusable value exits with status 2.

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tango::{simulate_run, RunSpec};
use tango_bench::{append_line, emit_file, preset_from_env, samples_from_env, store_handle, JsonObject, SEED};
use tango_harness::workers_from_env;
use tango_nets::NetworkKind;
use tango_serve::{run_trace, ArrivalTrace, BatchPolicy, CostModel, ServeConfig, SimCostModel};
use tango_sim::{GpuConfig, SimOptions};

/// Default timed simulator passes per network.
const DEFAULT_TIMED_RUNS: u32 = 2;
const DEVICES: usize = 2;
const DISTINCT_INPUTS: u64 = 4;
const REQUESTS: usize = 200;
const MAX_BATCH: u32 = 8;

fn sim_leg(kinds: &[NetworkKind], timed_runs: u32) -> tango::Result<JsonObject> {
    let preset = preset_from_env();
    let mut obj = JsonObject::new()
        .str("bench", "sim")
        .str("preset", &preset.to_string())
        .str("seed", &format!("{SEED:#x}"))
        .int("timed_runs", timed_runs as u64);
    for &kind in kinds {
        let spec = RunSpec {
            config: GpuConfig::gp102(),
            preset,
            seed: SEED,
            kind,
            options: SimOptions::new(),
        };
        let mut cycles = None;
        let mut cold_wall_s = f64::INFINITY;
        for _ in 0..timed_runs {
            let start = Instant::now();
            let run = simulate_run(&spec)?;
            cold_wall_s = cold_wall_s.min(start.elapsed().as_secs_f64());
            let total = run.report.total_cycles();
            assert_eq!(*cycles.get_or_insert(total), total, "simulator must be deterministic");
        }
        let cycles = cycles.expect("at least one timed pass");
        let key = kind.name().to_ascii_lowercase();
        obj = obj
            .int(&format!("{key}_total_cycles"), cycles)
            .num(&format!("{key}_cold_wall_s"), cold_wall_s)
            .num(&format!("{key}_cold_sim_cycles_per_sec"), cycles as f64 / cold_wall_s);
    }
    Ok(obj)
}

fn serve_leg(kinds: &[NetworkKind], workers: usize) -> tango_serve::Result<JsonObject> {
    let preset = preset_from_env();
    let cost = SimCostModel::new(store_handle(), GpuConfig::gp102(), preset, SEED, SimOptions::new());
    cost.precompute(kinds, MAX_BATCH, workers)?;

    let mut obj = JsonObject::new()
        .str("bench", "serve")
        .str("preset", &preset.to_string())
        .str("seed", &format!("{SEED:#x}"))
        .int("devices", DEVICES as u64)
        .int("requests", REQUESTS as u64)
        .int("max_batch", MAX_BATCH as u64);
    for &kind in kinds {
        let service_1 = cost.batch_cycles(kind, 1)?;
        let interarrival = (service_1 / DEVICES as u64).max(1);
        let trace = ArrivalTrace::open_loop(&[kind], REQUESTS, interarrival, DISTINCT_INPUTS, SEED);
        let config = ServeConfig {
            devices: DEVICES,
            queue_bound: 256,
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                max_delay_cycles: service_1 / 2,
            },
        };
        let start = Instant::now();
        let report = run_trace(&trace, &config, &cost)?;
        let wall_s = start.elapsed().as_secs_f64();
        let key = kind.name().to_ascii_lowercase();
        obj = obj
            .int(&format!("{key}_completed"), report.completed() as u64)
            .int(&format!("{key}_shed"), report.shed() as u64)
            .num(&format!("{key}_wall_s"), wall_s)
            .num(&format!("{key}_requests_per_sec"), report.completed() as f64 / wall_s)
            .num(&format!("{key}_req_per_mcycle"), report.throughput_per_mcycle());
    }
    Ok(obj)
}

/// Fleet-engine throughput: the heterogeneous DES itself, timed over
/// table cost models so no store or simulator wall time leaks into the
/// measurement. Every policy replays the same diurnal trace; the
/// simulated quantities (completed/shed counts) stay deterministic
/// while the wall-clock rates measure the host.
fn fleet_leg() -> tango_serve::Result<JsonObject> {
    use tango_fleet::{
        run_fleet, AutoscaleConfig, ClassSpec, FleetConfig, FleetCost, FleetTrace, PoolSpec, RoutePolicy,
        TableFleetCost,
    };
    const FLEET_REQUESTS: usize = 2000;
    let kinds = [NetworkKind::Gru, NetworkKind::CifarNet];
    // Three synthetic device generations: a fast server part, a mid
    // part that can scale to zero, and a slow always-on edge part.
    let curve = |c: TableFleetCost| {
        c.with_kind(NetworkKind::Gru, 8_000, 400)
            .with_kind(NetworkKind::CifarNet, 20_000, 1_000)
    };
    let fast = curve(TableFleetCost::new(2.0));
    let mid = curve(TableFleetCost::new(1.0));
    let slow = curve(TableFleetCost::new(0.25));
    let costs: Vec<&dyn FleetCost> = vec![&fast, &mid, &slow];
    let classes = vec![ClassSpec::with_slo("interactive", 400_000), ClassSpec::best_effort("batch")];
    let trace = FleetTrace::diurnal(&kinds, &classes, FLEET_REQUESTS, 700, 200_000, 0.2, SEED);

    let mut obj = JsonObject::new()
        .str("bench", "fleet")
        .str("seed", &format!("{SEED:#x}"))
        .int("requests", FLEET_REQUESTS as u64)
        .int("pools", costs.len() as u64);
    let (mut total_completed, mut total_wall_s) = (0u64, 0.0f64);
    for policy in RoutePolicy::ALL {
        let config = FleetConfig {
            pools: vec![
                PoolSpec::elastic("fast", 2, 1, 4),
                PoolSpec::elastic("mid", 1, 0, 2),
                PoolSpec::fixed("slow", 1),
            ],
            classes: classes.clone(),
            queue_bound: 128,
            max_batch: 8,
            max_delay_ns: 2_000,
            policy,
            autoscale: Some(AutoscaleConfig {
                interval_ns: 4_000,
                high_queue_per_device: 3,
                low_queue_per_device: 1,
            }),
        };
        let start = Instant::now();
        let report = run_fleet(&trace, &config, &costs)?;
        let wall_s = start.elapsed().as_secs_f64();
        total_completed += report.completed() as u64;
        total_wall_s += wall_s;
        let key = policy.name();
        obj = obj
            .int(&format!("{key}_completed"), report.completed() as u64)
            .int(&format!("{key}_shed"), report.shed() as u64)
            .num(&format!("{key}_wall_s"), wall_s)
            .num(&format!("{key}_requests_per_sec"), report.completed() as f64 / wall_s);
    }
    Ok(obj.num("fleet_requests_per_sec", total_completed as f64 / total_wall_s))
}

/// One `bench_history.jsonl` record: headline rates copied from the
/// per-leg objects plus enough context to interpret them later.
fn history_line(sim: &JsonObject, serve: &JsonObject, fleet: &JsonObject, timed_runs: u32) -> String {
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let mut hist = JsonObject::new()
        .int("ts_unix", ts)
        .str("preset", &preset_from_env().to_string())
        .str("seed", &format!("{SEED:#x}"))
        .int("timed_runs", timed_runs as u64);
    for key in ["cifarnet_cold_sim_cycles_per_sec", "gru_cold_sim_cycles_per_sec"] {
        if let Some(v) = sim.get(key) {
            hist = hist.raw(key, v);
        }
    }
    for key in ["cifarnet_requests_per_sec", "gru_requests_per_sec"] {
        if let Some(v) = serve.get(key) {
            hist = hist.raw(key, v);
        }
    }
    if let Some(v) = fleet.get("fleet_requests_per_sec") {
        hist = hist.raw("fleet_requests_per_sec", v);
    }
    hist.render()
}

fn run() -> ExitCode {
    let workers = match workers_from_env("TANGO_JOBS") {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let timed_runs = match samples_from_env(DEFAULT_TIMED_RUNS) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let kinds = [NetworkKind::CifarNet, NetworkKind::Gru];

    eprintln!("[perf] sim leg: {timed_runs} timed simulate_run passes per network");
    let sim = match sim_leg(&kinds, timed_runs) {
        Ok(obj) => obj,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    emit_file("BENCH_sim.json", &sim.render());

    eprintln!("[perf] serve leg: {REQUESTS} requests per network ({workers} precompute workers)");
    let serve = match serve_leg(&kinds, workers) {
        Ok(obj) => obj,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    emit_file("BENCH_serve.json", &serve.render());

    eprintln!("[perf] fleet leg: 3 policies over one diurnal trace (table costs, engine only)");
    let fleet = match fleet_leg() {
        Ok(obj) => obj,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    emit_file("BENCH_fleet.json", &fleet.render());

    append_line("bench_history.jsonl", &history_line(&sim, &serve, &fleet, timed_runs));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    run()
}
