//! Harness CLI: store maintenance, single-run tracing, and fleet runs.
//!
//! ```text
//! harness store stats [--dir PATH]   # classify and count records
//! harness store gc    [--dir PATH]   # drop stale-schema records
//! harness trace <net>                # simulate one network, optionally traced
//! harness backends <net>             # per-layer GPU vs systolic vs FPGA table
//! harness lint <net>|--all           # static kernel verification report
//! harness fleet [--smoke]            # routing policies over heterogeneous pools
//! harness metrics <net>              # windowed metrics from one simulated run
//! harness perfdiff <old> <new>       # attribute deltas between two baselines
//! ```
//!
//! (The binary is still called `harness`, but it lives in the
//! `tango-cli` crate: `fleet` needs `tango-fleet`, whose dependency
//! chain passes through `tango-harness` itself.)
//!
//! The store defaults to `results/store/` at the workspace root
//! (`TANGO_RESULTS_DIR` respected); `--dir` points at any other store
//! directory.
//!
//! `trace` simulates one inference directly (no store, so the run is
//! fully deterministic) and prints a per-layer cycle table plus an
//! output digest on stdout. With `TANGO_TRACE=<path>` set, the run is
//! recorded and the flight-recorder contents are written to `<path>` as
//! Chrome trace-event JSON (load it in Perfetto) after being validated:
//! the span tree must nest, the launch spans must sum to the reported
//! total cycles, and the JSON must parse. stdout is byte-identical
//! whether or not tracing is enabled — that is the observability
//! contract, and `ci.sh` asserts it.
//!
//! Exit code 0 on success, 1 on validation/simulation failure, 2 on
//! usage or environment errors.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use tango::{simulate_run, RunSpec};
use tango_backend::{BackendJob, BackendKind, BackendRun, BackendRunSpec, BackendSpec, Precision, SystolicConfig};
use tango_fleet::{
    render_comparison, run_fleet, run_fleet_metered, AutoscaleConfig, ClassSpec, FleetConfig, FleetCost,
    FleetMetricsConfig, FleetReport, FleetTrace, PoolSpec, RoutePolicy,
};
use tango_fpga::PynqConfig;
use tango_harness::{preset_from_env, workers_from_env, RunStore, StableHasher, Suite, STORE_SCHEMA_VERSION};
use tango_nets::{NetworkKind, Preset};
use tango_serve::SimCostModel;
use tango_sim::{GpuConfig, SimOptions};

/// The deterministic seed every reproduction binary uses
/// (`tango_bench::SEED`; the harness cannot depend on the bench crate).
const SEED: u64 = 0x7A16_0201_9151;

fn usage() -> ExitCode {
    eprintln!("usage: harness store <stats|gc> [--dir PATH]");
    eprintln!("       harness trace <net>");
    eprintln!("       harness backends <net>");
    eprintln!("       harness lint <net>|--all");
    eprintln!("       harness fleet [--smoke]");
    eprintln!("       harness metrics <net>");
    eprintln!("       harness perfdiff <old.json|old.jsonl[@N]> <new.json|new.jsonl[@N]>");
    eprintln!(
        "nets: {}",
        NetworkKind::EXTENDED
            .iter()
            .map(|k| k.name().to_lowercase())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn open_store(mut args: std::env::Args) -> Result<RunStore, ExitCode> {
    match args.next() {
        None => Ok(RunStore::open_default()),
        Some(flag) if flag == "--dir" => match args.next() {
            Some(dir) if args.next().is_none() => Ok(RunStore::at(dir)),
            _ => Err(usage()),
        },
        Some(_) => Err(usage()),
    }
}

fn store_cmd(sub: Option<String>, args: std::env::Args) -> ExitCode {
    let store = match open_store(args) {
        Ok(store) => store,
        Err(code) => return code,
    };
    match sub.as_deref() {
        Some("stats") => match store.disk_stats() {
            Ok(s) => {
                println!("store: {}", store.root().display());
                println!("schema version: {STORE_SCHEMA_VERSION}");
                println!("run records: {}", s.run_records);
                println!("build records: {}", s.build_records);
                for backend in BackendKind::ALL {
                    println!("backend records ({backend}): {}", s.backend_records_for(backend));
                }
                println!("stale records: {}", s.stale_records);
                println!("other files: {}", s.other_files);
                println!("total bytes: {}", s.total_bytes);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot scan {}: {e}", store.root().display());
                ExitCode::FAILURE
            }
        },
        Some("gc") => match store.gc() {
            Ok(r) => {
                println!(
                    "removed {} stale record(s) ({} bytes); kept {} at schema version {STORE_SCHEMA_VERSION}",
                    r.removed_records, r.removed_bytes, r.kept_records
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: gc failed in {}: {e}", store.root().display());
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

/// Case-insensitive network lookup over the extended suite.
fn parse_kind(raw: &str) -> Option<NetworkKind> {
    let want = raw.to_lowercase();
    NetworkKind::EXTENDED.into_iter().find(|k| k.name().to_lowercase() == want)
}

/// Order-stable digest of the network output, so two runs can be
/// compared from their printed reports alone.
fn output_digest(values: &[f32]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(values.len() as u64);
    for v in values {
        h.write_u32(v.to_bits());
    }
    h.finish()
}

fn trace_cmd(net: &str) -> ExitCode {
    // Validate the trace environment before doing any work: a typo'd
    // TANGO_TRACE_CAP must stop the run, traced or not.
    let trace_path = match tango_obs::init_from_env() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = parse_kind(net) else {
        eprintln!("error: unknown network {net:?}");
        return usage();
    };
    let spec = RunSpec {
        config: GpuConfig::gp102(),
        preset: preset_from_env(),
        seed: SEED,
        kind,
        options: SimOptions::new(),
    };
    let run = match simulate_run(&spec) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The deterministic report: byte-identical traced or untraced.
    println!("network: {}", kind.name());
    println!("preset: {}", spec.preset.name());
    println!("device: {}", spec.config.name);
    println!("seed: {SEED:#x}");
    println!();
    println!("{:<24} {:<12} {:>14}", "layer", "type", "cycles");
    for record in &run.report.records {
        println!(
            "{:<24} {:<12} {:>14}",
            record.name,
            record.layer_type.to_string(),
            record.stats.cycles
        );
    }
    let total = run.report.total_cycles();
    println!();
    println!("total cycles: {total}");
    println!("footprint bytes: {}", run.footprint_bytes);
    println!("output digest: {:016x}", output_digest(run.report.output.as_slice()));

    let Some(path) = trace_path else {
        return ExitCode::SUCCESS;
    };
    let trace = tango_obs::drain();
    if let Err(e) = trace.check_nesting() {
        eprintln!("error: trace spans do not nest: {e}");
        return ExitCode::FAILURE;
    }
    let launch_cycles = trace.span_cycles("sim.launch");
    if launch_cycles != total {
        eprintln!("error: launch spans sum to {launch_cycles} cycles but the run reports {total}");
        return ExitCode::FAILURE;
    }
    let json = trace.chrome_json();
    if let Err(e) = tango_obs::json::validate(&json) {
        eprintln!("error: exported trace is not valid JSON: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = tango_obs::write_chrome_file(&path, &trace) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "trace: wrote {} events to {} ({} dropped); launch spans cover {launch_cycles} cycles",
        trace.len(),
        path.display(),
        trace.dropped
    );
    eprint!("{}", trace.text_summary());
    ExitCode::SUCCESS
}

/// Simulates one network with the flight recorder armed, then folds
/// the trace into a windowed metrics registry over the virtual-cycle
/// clock and prints it. The simulation itself is the same
/// deterministic run as `harness trace`, so the registry is
/// byte-identical across reruns, hosts, and worker counts. The window
/// defaults to 1/32 of the run's total cycles; `TANGO_METRICS_WINDOW`
/// overrides it.
fn metrics_cmd(net: &str) -> ExitCode {
    // Strict env validation before any work: both metrics knobs must
    // parse even though this subcommand implies metrics collection.
    if let Err(e) = tango_obs::metrics_enabled_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let window_override = match tango_obs::metrics_window_from_env() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = parse_kind(net) else {
        eprintln!("error: unknown network {net:?}");
        return usage();
    };
    let spec = RunSpec {
        config: GpuConfig::gp102(),
        preset: preset_from_env(),
        seed: SEED,
        kind,
        options: SimOptions::new(),
    };
    tango_obs::enable(tango_obs::DEFAULT_EVENT_CAP);
    let run = match simulate_run(&spec) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = tango_obs::drain();
    let total = run.report.total_cycles();
    let window = window_override.unwrap_or((total / 32).max(1));
    let registry = tango_obs::metrics::aggregate_trace(&trace, tango_obs::Domain::Virtual, window);
    let prom = registry.prometheus_text();
    if let Err(e) = tango_obs::metrics::validate_exposition(&prom) {
        eprintln!("error: exposition self-check failed: {e}");
        return ExitCode::FAILURE;
    }
    let title = format!(
        "{}@{} seed {SEED:#x} total {total} cycles",
        kind.name(),
        spec.preset.name()
    );
    print!("{}", registry.render_text(&title));
    eprintln!("[metrics] {} series over {} events; exposition valid", registry.len(), trace.len());
    ExitCode::SUCCESS
}

/// Diffs two benchmark baselines (`BENCH_*.json` files or
/// `bench_history.jsonl` lines selected with `@N`) and prints the
/// per-leg attribution table. Exit 0 even when regressions are found —
/// wall-clock rates are host-dependent, so the table is a diagnosis
/// aid, not a gate; `ci.sh` decides what to do with the WARN lines.
fn perfdiff_cmd(old_spec: &str, new_spec: &str) -> ExitCode {
    use tango_harness::perfdiff;
    let (old_label, old) = match perfdiff::load_source(old_spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (new_label, new) = match perfdiff::load_source(new_spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diff = perfdiff::diff(&old, &new);
    print!("{}", diff.render(&old_label, &new_label));
    ExitCode::SUCCESS
}

/// Backend selection from `TANGO_BACKENDS`: unset or `all` means every
/// backend; otherwise a comma list of `gpu`/`systolic`/`fpga`
/// (case-insensitive). The result preserves the fixed comparison-table
/// order regardless of how the user ordered the list. A present but
/// unusable value is an error naming the variable, like `TANGO_JOBS`.
fn backends_from_env() -> Result<Vec<BackendKind>, String> {
    let raw = match std::env::var("TANGO_BACKENDS") {
        Ok(v) => v,
        Err(std::env::VarError::NotPresent) => return Ok(BackendKind::ALL.to_vec()),
        Err(std::env::VarError::NotUnicode(_)) => return Err("TANGO_BACKENDS is set to a non-UTF-8 value".into()),
    };
    if raw.trim().eq_ignore_ascii_case("all") {
        return Ok(BackendKind::ALL.to_vec());
    }
    let mut wanted = Vec::new();
    for part in raw.split(',') {
        match BackendKind::parse(part) {
            Some(kind) => {
                if !wanted.contains(&kind) {
                    wanted.push(kind);
                }
            }
            None => {
                return Err(format!(
                    "TANGO_BACKENDS must be `all` or a comma list of gpu/systolic/fpga, got {part:?}"
                ))
            }
        }
    }
    if wanted.is_empty() {
        return Err("TANGO_BACKENDS is set but names no backends".into());
    }
    Ok(BackendKind::ALL.into_iter().filter(|k| wanted.contains(k)).collect())
}

/// The fixed device roster the comparison runs against.
fn spec_for(backend: BackendKind) -> BackendSpec {
    match backend {
        BackendKind::Gpu => BackendSpec::Gpu(GpuConfig::gp102()),
        BackendKind::Systolic => BackendSpec::Systolic(SystolicConfig::edge()),
        BackendKind::Fpga => BackendSpec::Fpga(PynqConfig::pynq_z1()),
    }
}

/// Renders the deterministic comparison table (the exact bytes that go
/// to stdout and to `results/backends_<net>.txt`).
fn backends_report(kind: NetworkKind, preset: Preset, runs: &[(BackendKind, BackendRun)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "backend comparison: {}@{}", kind.name(), preset.name());
    let _ = writeln!(out, "seed: {SEED:#x}  batch: 1  precision: fp32");
    let _ = writeln!(out);
    for (backend, _) in runs {
        let _ = writeln!(out, "{:<9} {}", format!("{backend}:"), spec_for(*backend).device_name());
    }
    let _ = writeln!(out);

    let _ = write!(out, "{:<24} {:<14}", "layer", "type");
    for (backend, _) in runs {
        let _ = write!(out, " {:>16}", format!("{backend}_cycles"));
    }
    let _ = writeln!(out, " {:>9}", "sys_util%");
    let first = &runs[0].1;
    for (i, layer) in first.layers.iter().enumerate() {
        let _ = write!(out, "{:<24} {:<14}", layer.name, layer.label);
        for (_, run) in runs {
            let _ = write!(out, " {:>16}", run.layers[i].cycles);
        }
        let util = runs
            .iter()
            .find(|(b, _)| *b == BackendKind::Systolic)
            .map(|(_, run)| run.layers[i].utilization * 100.0);
        match util {
            Some(u) => {
                let _ = writeln!(out, " {:>8.1}%", u);
            }
            None => {
                let _ = writeln!(out, " {:>9}", "-");
            }
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<9} {:>16} {:>12} {:>12} {:>10} {:>12}",
        "backend", "total_cycles", "time_ms", "energy_j", "util%", "stall%"
    );
    for (backend, run) in runs {
        let cycles = run.total_cycles();
        let stall_pct = if cycles == 0 {
            0.0
        } else {
            run.total_stall_cycles() as f64 / cycles as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:<9} {:>16} {:>12.3} {:>12.6} {:>9.1}% {:>11.1}%",
            backend.name(),
            cycles,
            run.time_s() * 1e3,
            run.total_energy_j(),
            run.utilization() * 100.0,
            stall_pct
        );
    }
    out
}

fn backends_cmd(net: &str) -> ExitCode {
    // Strict environment validation before any work, like `trace`.
    let workers = match workers_from_env("TANGO_JOBS") {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let selected = match backends_from_env() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = parse_kind(net) else {
        eprintln!("error: unknown network {net:?}");
        return usage();
    };
    let preset = preset_from_env();
    let job = BackendJob {
        kind,
        preset,
        seed: SEED,
        batch: 1,
        precision: Precision::Fp32,
    };
    let specs: Vec<BackendRunSpec> = selected
        .iter()
        .map(|&backend| BackendRunSpec {
            spec: spec_for(backend),
            job,
        })
        .collect();

    let store = RunStore::open_default();
    let mut suite = Suite::new();
    for spec in &specs {
        suite.add_backend(spec.clone());
    }
    if let Err(e) = suite.execute(&store, workers) {
        eprintln!("error: backend execution failed: {e}");
        return ExitCode::FAILURE;
    }
    // Everything is now a memory hit; read the results back in table order.
    let mut runs = Vec::with_capacity(specs.len());
    for (backend, spec) in selected.iter().zip(&specs) {
        match store.fetch_backend(spec) {
            Ok((run, _)) => runs.push((*backend, run)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = backends_report(kind, preset, &runs);
    print!("{report}");
    let out_path = tango_harness::results_root().join(format!("backends_{}.txt", kind.name().to_lowercase()));
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    // Cache accounting goes to stderr so stdout stays byte-identical
    // across cold and warm runs.
    eprintln!("[backends] store hits={} misses={}", store.hits(), store.misses());
    eprintln!("[backends] wrote {}", out_path.display());
    ExitCode::SUCCESS
}

/// Statically verifies every kernel of one network and appends the
/// per-kernel table (plus any diagnostics) to `out`. Returns the
/// severity totals `(errors, warnings, lints)`.
fn lint_network(kind: NetworkKind, preset: Preset, out: &mut String) -> Result<(u64, u64, u64), String> {
    use tango_isa::verify::{verify_launch, LaunchSpec};

    let mut gpu = tango_sim::Gpu::new(GpuConfig::gp102());
    let net = tango_nets::build_network(&mut gpu, kind, preset, SEED)
        .map_err(|e| format!("cannot build {}: {e}", kind.name()))?;

    let _ = writeln!(out, "== {}@{} ==", kind.name().to_lowercase(), preset.name());
    let _ = writeln!(
        out,
        "{:<26} {:<14} {:<12} {:>6} {:>4} {:>5} {:>5}  aligned",
        "kernel", "grid", "block", "insts", "err", "warn", "lint"
    );

    let mut seen = std::collections::HashSet::new();
    let mut totals = (0u64, 0u64, 0u64);
    let mut diags = String::new();
    for layer in net.layers() {
        let k = layer.kernel();
        let program = k.program();
        if !seen.insert(program.name().to_string()) {
            continue; // shared kernel already verified and listed
        }
        // Parameter words are verified as 256-byte aligned: that is the
        // device allocator's guarantee for every buffer pointer, and
        // scalar parameters only reach addresses through multiplications
        // the affine domain treats as opaque anyway.
        let spec = LaunchSpec {
            grid: k.grid(),
            block: k.block(),
            params: None,
            param_align: 256,
            mem_bytes: None,
        };
        let report = verify_launch(program, &spec);
        let fmt_dim = |d: tango_isa::Dim3| format!("({},{},{})", d.x, d.y, d.z);
        let _ = writeln!(
            out,
            "{:<26} {:<14} {:<12} {:>6} {:>4} {:>5} {:>5}  {}",
            program.name(),
            fmt_dim(k.grid()),
            fmt_dim(k.block()),
            program.instructions().len(),
            report.error_count(),
            report.warning_count(),
            report.lint_count(),
            if report.aligned_certified { "yes" } else { "no" },
        );
        totals.0 += report.error_count() as u64;
        totals.1 += report.warning_count() as u64;
        totals.2 += report.lint_count() as u64;
        for d in &report.diagnostics {
            let _ = writeln!(diags, "{}: {d}", program.name());
        }
    }
    if !diags.is_empty() {
        let _ = writeln!(out);
        let _ = write!(out, "{diags}");
    }
    let _ = writeln!(out);
    Ok(totals)
}

fn lint_cmd(net: &str) -> ExitCode {
    let preset = preset_from_env();
    let kinds: Vec<NetworkKind> = if net == "--all" {
        NetworkKind::EXTENDED.to_vec()
    } else {
        match parse_kind(net) {
            Some(kind) => vec![kind],
            None => {
                eprintln!("error: unknown network {net:?}");
                return usage();
            }
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "kernel lint: static verification of generated kernels");
    let _ = writeln!(out, "preset: {}  seed: {SEED:#x}", preset.name());
    let _ = writeln!(out);
    let mut totals = (0u64, 0u64, 0u64);
    for kind in kinds {
        match lint_network(kind, preset, &mut out) {
            Ok((e, w, l)) => {
                totals.0 += e;
                totals.1 += w;
                totals.2 += l;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = writeln!(
        out,
        "total: {} error(s), {} warning(s), {} lint(s)",
        totals.0, totals.1, totals.2
    );

    print!("{out}");
    let out_path = tango_harness::results_root().join("lint_report.txt");
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[lint] wrote {}", out_path.display());
    if totals.0 > 0 {
        eprintln!("error: {} error-severity diagnostic(s)", totals.0);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Strict environment lookup for fleet knobs: absent means `default`,
/// present-but-garbage is a usage error naming the variable (exit 2),
/// exactly like `TANGO_JOBS` / `TANGO_BACKENDS`.
fn fleet_env_u64(name: &str, default: u64) -> Result<u64, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is set to a non-UTF-8 value")),
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("{name} must be an unsigned integer, got {raw:?}")),
    }
}

/// The fixed heterogeneous roster a fleet run schedules across: three
/// GPU generations spanning the paper's device spectrum plus the
/// PYNQ-Z1 FPGA, every one costed by the store-backed simulator.
fn fleet_pools(store: &Arc<RunStore>, preset: Preset) -> Vec<(PoolSpec, SimCostModel)> {
    let model = |spec: BackendSpec| {
        SimCostModel::new(store.clone(), GpuConfig::gp102(), preset, SEED, SimOptions::new()).with_backend(spec)
    };
    vec![
        // The server part: elastic, carries the peaks.
        (
            PoolSpec::elastic("gp102", 1, 1, 3),
            model(BackendSpec::Gpu(GpuConfig::gp102())),
        ),
        // The old server part: spun up only when load demands it, and
        // allowed to scale all the way to zero.
        (
            PoolSpec::elastic("gk210", 1, 0, 2),
            model(BackendSpec::Gpu(GpuConfig::gk210())),
        ),
        // The mobile part: one of it, always on.
        (PoolSpec::fixed("tx1", 1), model(BackendSpec::Gpu(GpuConfig::tx1()))),
        // The FPGA: one of it, always on.
        (
            PoolSpec::fixed("pynq-z1", 1),
            model(BackendSpec::Fpga(PynqConfig::pynq_z1())),
        ),
    ]
}

fn fleet_cmd(smoke: bool) -> ExitCode {
    // Strict environment validation before any work.
    let trace_path = match tango_obs::init_from_env() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = match workers_from_env("TANGO_JOBS") {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let requests = match fleet_env_u64("TANGO_FLEET_REQUESTS", if smoke { 120 } else { 400 }) {
        Ok(0) => {
            eprintln!("error: TANGO_FLEET_REQUESTS must be positive");
            return ExitCode::from(2);
        }
        Ok(n) => n as usize,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = match fleet_env_u64("TANGO_FLEET_SEED", SEED) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Opt-in windowed metrics + SLO burn-rate monitoring. Collection is
    // pure observation (the engine asserts the metered report equals
    // the plain one), so fleet_bench.txt is byte-identical either way.
    let metrics_window = match tango_obs::metrics_from_env() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // Smoke pins the tiny preset so CI stays bounded.
    let preset = if smoke { Preset::Tiny } else { preset_from_env() };
    let store = Arc::new(RunStore::open_default());
    let pools = fleet_pools(&store, preset);
    let kinds = [NetworkKind::Gru, NetworkKind::CifarNet];
    let max_batch: u32 = if smoke { 2 } else { 4 };

    eprintln!("[fleet] precomputing batch costs ({workers} workers)");
    for (_, cost) in &pools {
        if let Err(e) = cost.precompute(&kinds, max_batch, workers) {
            eprintln!("error: cost precompute failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Anchor every timescale on measured service times: `svc_fast` (the
    // fastest kind on its best pool) paces the load so the same ρ
    // stresses the same operating points at every preset, and the
    // interactive SLO budgets 8x the *slowest* kind's best-pool service
    // time — every kind can meet it on an idle fast pool, so
    // slo_infeasible sheds mean real backlog, not a structurally
    // impossible deadline.
    let mut best_ns_per_kind = vec![u64::MAX; kinds.len()];
    for (_, cost) in &pools {
        for (ki, &kind) in kinds.iter().enumerate() {
            match cost.batch_cost(kind, 1) {
                Ok(c) => best_ns_per_kind[ki] = best_ns_per_kind[ki].min(c.ns),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let svc_fast = best_ns_per_kind.iter().copied().min().unwrap_or(1).max(1);
    let slo_anchor = best_ns_per_kind.iter().copied().max().unwrap_or(1).max(1);

    let classes = vec![
        ClassSpec::with_slo("interactive", slo_anchor.saturating_mul(8)),
        ClassSpec::best_effort("batch"),
    ];
    let devices_at_start: u64 = pools.iter().map(|(p, _)| p.devices as u64).sum();
    let config_for = |policy: RoutePolicy| FleetConfig {
        pools: pools.iter().map(|(p, _)| p.clone()).collect(),
        classes: classes.clone(),
        queue_bound: if smoke { 16 } else { 64 },
        max_batch,
        max_delay_ns: svc_fast / 2,
        policy,
        autoscale: Some(AutoscaleConfig {
            interval_ns: svc_fast.max(1),
            high_queue_per_device: 3,
            low_queue_per_device: 1,
        }),
    };
    let costs: Vec<&dyn FleetCost> = pools.iter().map(|(_, c)| c as &dyn FleetCost).collect();

    // One diurnal day and one bursty stretch, each replayed against
    // every routing policy so the sections are directly comparable.
    // Peak load runs hot relative to the starting fleet (ρ ≈ 1.5
    // against the fastest device class) so routing and scaling choices
    // actually show up as sheds and tail latency.
    let peak_gap = (svc_fast / (devices_at_start * 3 / 2).max(1)).max(1);
    let diurnal = FleetTrace::diurnal(&kinds, &classes, requests, peak_gap, svc_fast * 50, 0.2, seed);
    let bursty = FleetTrace::bursty(&kinds, &classes, requests, peak_gap * 4, svc_fast * 40, svc_fast * 8, 6, seed ^ 1);

    // Metric windows cover 4 fast service times; the default SLO policy
    // (99% target, short 1 / long 8 windows) then spans ~1 burst gap,
    // so the bursty trace's slo_infeasible shed storms must trip the
    // multi-window burn-rate alert.
    let mcfg = metrics_window.map(|w| FleetMetricsConfig::with_window(w.unwrap_or(svc_fast.saturating_mul(4))));
    let mut metrics_txt = String::new();
    let mut metrics_jsonl = String::new();
    let mut metrics_prom = None;
    let mut metrics_alerts = 0usize;

    let mut out = String::new();
    for (label, trace) in [("diurnal", &diurnal), ("bursty", &bursty)] {
        let mut runs: Vec<(FleetConfig, FleetReport)> = Vec::new();
        for policy in RoutePolicy::ALL {
            let config = config_for(policy);
            let report = if let Some(mcfg) = &mcfg {
                match run_fleet_metered(trace, &config, &costs, mcfg) {
                    Ok((report, metrics)) => {
                        let tag = format!("fleet/{label}/{}", policy.name());
                        metrics_txt.push_str(&metrics.render_text(&tag));
                        metrics_txt.push('\n');
                        metrics_jsonl.push_str(&metrics.snapshot_jsonl(&tag));
                        metrics_alerts += metrics.alerts().len();
                        // One representative exposition: the bursty
                        // trace under the headline cost-aware policy.
                        if (label, policy) == ("bursty", RoutePolicy::CostAware) {
                            metrics_prom = Some(metrics.prometheus_text());
                        }
                        Ok(report)
                    }
                    Err(e) => Err(e),
                }
            } else {
                run_fleet(trace, &config, &costs)
            };
            match report {
                Ok(report) => runs.push((config, report)),
                Err(e) => {
                    eprintln!("error: fleet run failed ({label}, {}): {e}", policy.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        if smoke {
            // Exact accounting: every request either completed or shed
            // with an explicit reason, under every policy.
            for (config, report) in &runs {
                let by_reason: usize = tango_fleet::ShedReason::ALL.iter().map(|&r| report.shed_by(r)).sum();
                if report.completed() + report.shed() != trace.len() || by_reason != report.shed() {
                    eprintln!(
                        "error: [smoke] {label}/{}: {} completed + {} shed != {} requests (reasons {})",
                        config.policy.name(),
                        report.completed(),
                        report.shed(),
                        trace.len(),
                        by_reason
                    );
                    return ExitCode::FAILURE;
                }
            }
            // Replays must be byte-identical.
            let config = config_for(RoutePolicy::CostAware);
            match run_fleet(trace, &config, &costs) {
                Ok(again) if again == runs[2].1 => {}
                Ok(_) => {
                    eprintln!("error: [smoke] {label}: replay diverged");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: [smoke] {label}: replay failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let _ = writeln!(out, "=== trace: {label} ===");
        let refs: Vec<(&FleetConfig, &FleetReport)> = runs.iter().map(|(c, r)| (c, r)).collect();
        out.push_str(&render_comparison(trace, &refs));
        let _ = writeln!(out);
    }

    print!("{out}");
    let out_path = tango_harness::results_root().join("fleet_bench.txt");
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    // Cache accounting goes to stderr so stdout stays byte-identical
    // across cold and warm stores and across worker counts.
    eprintln!("[fleet] store hits={} misses={}", store.hits(), store.misses());
    eprintln!("[fleet] wrote {}", out_path.display());

    if mcfg.is_some() {
        let dir = tango_harness::results_root();
        let prom = metrics_prom.unwrap_or_default();
        if let Err(e) = tango_obs::metrics::validate_exposition(&prom) {
            eprintln!("error: metrics_fleet.prom failed exposition self-check: {e}");
            return ExitCode::FAILURE;
        }
        for (name, content) in [
            ("metrics_fleet.txt", &metrics_txt),
            ("metrics_fleet.jsonl", &metrics_jsonl),
            ("metrics_fleet.prom", &prom),
        ] {
            if let Err(e) = std::fs::write(dir.join(name), content) {
                eprintln!("error: cannot write results/{name}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[fleet] metrics: wrote results/metrics_fleet.{{txt,jsonl,prom}} ({metrics_alerts} burn alert(s))");
    }

    if let Some(path) = trace_path {
        let trace = tango_obs::drain();
        if let Err(e) = tango_obs::write_chrome_file(&path, &trace) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[fleet] trace: wrote {} events to {} ({} dropped)",
            trace.len(),
            path.display(),
            trace.dropped
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    match args.next().as_deref() {
        Some("store") => {
            let sub = args.next();
            store_cmd(sub, args)
        }
        Some("trace") => match (args.next(), args.next()) {
            (Some(net), None) => trace_cmd(&net),
            _ => usage(),
        },
        Some("backends") => match (args.next(), args.next()) {
            (Some(net), None) => backends_cmd(&net),
            _ => usage(),
        },
        Some("lint") => match (args.next(), args.next()) {
            (Some(net), None) => lint_cmd(&net),
            _ => usage(),
        },
        Some("fleet") => match (args.next().as_deref(), args.next()) {
            (None, _) => fleet_cmd(false),
            (Some("--smoke"), None) => fleet_cmd(true),
            _ => usage(),
        },
        Some("metrics") => match (args.next(), args.next()) {
            (Some(net), None) => metrics_cmd(&net),
            _ => usage(),
        },
        Some("perfdiff") => match (args.next(), args.next(), args.next()) {
            (Some(old), Some(new), None) => perfdiff_cmd(&old, &new),
            _ => usage(),
        },
        _ => usage(),
    }
}
