//! The three phases every workload is assembled from.
//!
//! * **cold** — the cold suite's jobs against an empty store with one
//!   worker: network construction and simulation do the work.
//! * **warm** — one pass of a process that finds its store already full:
//!   a fresh `RunStore` handle, every job a disk hit, then the consumer of
//!   the results (the figure and table producers, or the serve cost
//!   models).
//! * **replay** — trace replays through the fleet and serve engines,
//!   priced by store-backed cost models whose records are all present.
//!
//! Each phase has an untraced form, built from the same public calls a
//! user's program makes, and a traced form that records a span around
//! every public call it makes into a workspace crate.

use crate::check::{fold_build, fold_run, text_digest};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tango::{
    figures, measure_build, tables, BuildSpec, BuildStats, Characterizer, NetworkRun, RunSource, RunSpec, TangoError,
};
use tango_backend::BackendSpec;
use tango_fleet::{
    run_fleet, AutoscaleConfig, ClassSpec, FleetConfig, FleetCost, FleetReport, FleetTrace, PoolSpec, RoutePolicy,
    ShedReason,
};
use tango_fpga::PynqConfig;
use tango_harness::{
    decode_build, decode_run, encode_build, encode_run, repro_plan, Job, RunKey, RunStore, StableHasher, Suite,
};
use tango_nets::{build_network, synthetic_input, NetworkKind, Preset};
use tango_serve::{
    run_trace, ArrivalTrace, BatchCost, BatchPolicy, CostModel, LatencySummary, Outcome, ServeConfig, ServeReport,
    SimCostModel,
};
use tango_sim::{Gpu, GpuConfig, SimOptions};

/// Phase failures are reported as text and counted as failed ops.
pub type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The cold suite: every job of `repro_plan(Preset::Tiny, seed)` except
/// its paper-preset simulations (Figure 6's two TX1 runs, one of which
/// alone would take most of the suite's time).
pub fn cold_jobs(seed: u64) -> Suite {
    let mut suite = Suite::new();
    for job in repro_plan(Preset::Tiny, seed).jobs() {
        match job {
            Job::Run(spec) if spec.preset == Preset::Paper => false,
            Job::Run(spec) => suite.add_run(spec.clone()),
            Job::Build(spec) => suite.add_build(*spec),
            Job::Backend(spec) => suite.add_backend(spec.clone()),
        };
    }
    suite
}

/// Simulator counts summed over the cold suite's runs. They depend only
/// on the simulated programs, so they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub warp_insts: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub launches: u64,
}

impl SimCounts {
    fn add(&mut self, run: &NetworkRun) {
        for r in &run.report.records {
            self.cycles += r.stats.cycles;
            self.warp_insts += r.stats.warp_instructions;
            self.l1d_misses += r.stats.l1d.misses;
            self.l2_misses += r.stats.l2.misses;
            self.dram_accesses += r.stats.dram_accesses;
            self.launches += 1;
        }
    }
}

/// What a cold pass produced.
#[derive(Debug, Clone, Default)]
pub struct Cold {
    pub secs: f64,
    pub digest: u64,
    pub sim: SimCounts,
    pub misses: u64,
    pub writes: u64,
    pub record_bytes: u64,
}

/// The cold pass as `repro_all` runs it: `Suite::execute` with one
/// worker against the (empty) store at `root`. Outputs are read back
/// from the store after the clock stops.
pub fn cold_pass(suite: &Suite, root: &Path) -> Result<Cold> {
    let store = RunStore::at(root);
    let start = Instant::now();
    let report = suite.execute(&store, 1).map_err(err)?;
    let secs = start.elapsed().as_secs_f64();
    let mut out = Cold {
        secs,
        misses: report.misses,
        writes: store.writes(),
        ..Cold::default()
    };
    let mut h = StableHasher::new();
    for job in suite.jobs() {
        h.write_u64(job.key().digest);
        match job {
            Job::Run(spec) => {
                let (run, _) = store.fetch_run(spec).map_err(err)?;
                fold_run(&mut h, &job.label(), &run);
                out.sim.add(&run);
            }
            Job::Build(spec) => {
                let (build, _) = store.fetch_build(spec).map_err(err)?;
                fold_build(&mut h, &job.label(), &build);
            }
            Job::Backend(_) => return Err("the cold suite holds no backend jobs".into()),
        }
    }
    out.digest = h.finish();
    Ok(out)
}

/// Writes a record the way `RunStore` does: a temp file, then a rename.
fn persist(root: &Path, key: &RunKey, bytes: &[u8]) -> Result<()> {
    std::fs::create_dir_all(root).map_err(err)?;
    let path = root.join(key.file_name());
    let tmp = root.join(format!(".{}.tmp.{}", key.file_name(), std::process::id()));
    std::fs::write(&tmp, bytes).map_err(err)?;
    std::fs::rename(&tmp, &path).map_err(err)
}

fn infer_span(kind: NetworkKind) -> &'static str {
    match kind {
        NetworkKind::CifarNet => "sim.infer.CifarNet",
        NetworkKind::AlexNet => "sim.infer.AlexNet",
        NetworkKind::SqueezeNet => "sim.infer.SqueezeNet",
        NetworkKind::ResNet50 => "sim.infer.ResNet",
        NetworkKind::VggNet16 => "sim.infer.VGGNet",
        NetworkKind::Gru => "sim.infer.GRU",
        NetworkKind::Lstm => "sim.infer.LSTM",
        NetworkKind::MobileNet => "sim.infer.MobileNet",
    }
}

/// The cold pass composed from the public calls `RunStore::fetch_run`
/// and `tango::simulate_run` make on a miss, each inside a span:
/// `RunKey::for_run`, the store read that misses, `Gpu::new`,
/// `build_network` plus `synthetic_input`, `Network::infer`,
/// `encode_run` and the record write (`measure_build` and
/// `encode_build` for build jobs). Its digest must equal
/// [`cold_pass`]'s.
pub fn cold_pass_traced(suite: &Suite, root: &Path, tr: &Tracer) -> Result<Cold> {
    let mut out = Cold::default();
    let mut h = StableHasher::new();
    let start = Instant::now();
    tr.span("bench.cold", || -> Result<()> {
        for job in suite.jobs() {
            let key = tr.span("harness.key", || job.key());
            h.write_u64(key.digest);
            if tr.span("harness.read", || std::fs::read(root.join(key.file_name())).is_ok()) {
                return Err(format!("cold store already holds {}", key.file_name()));
            }
            out.misses += 1;
            let bytes = match job {
                Job::Run(spec) => {
                    let run = composed_simulate_run(spec, tr)?;
                    out.sim.add(&run);
                    fold_run(&mut h, &job.label(), &run);
                    tr.span("harness.encode", || encode_run(&run))
                }
                Job::Build(spec) => {
                    let build = tr.span("nets.paper_build", || measure_build(spec)).map_err(err)?;
                    fold_build(&mut h, &job.label(), &build);
                    tr.span("harness.encode", || encode_build(&build))
                }
                Job::Backend(_) => return Err("the cold suite holds no backend jobs".into()),
            };
            out.record_bytes += bytes.len() as u64;
            tr.span("harness.write", || persist(root, &key, &bytes))?;
            out.writes += 1;
        }
        Ok(())
    })?;
    out.secs = start.elapsed().as_secs_f64();
    out.digest = h.finish();
    Ok(out)
}

/// `tango::simulate_run`, one span per public call.
fn composed_simulate_run(spec: &RunSpec, tr: &Tracer) -> Result<NetworkRun> {
    let mut gpu = tr.span("sim.device", || Gpu::new(spec.config.clone()));
    let (net, input) = tr
        .span("nets.build", || {
            let net = build_network(&mut gpu, spec.kind, spec.preset, spec.seed)?;
            let input = synthetic_input(net.input_spec(), spec.seed ^ 0x1234_5678);
            Ok::<_, tango_nets::NetError>((net, input))
        })
        .map_err(err)?;
    let report = tr
        .span(infer_span(spec.kind), || net.infer(&mut gpu, &input, &spec.options))
        .map_err(err)?;
    Ok(NetworkRun {
        kind: spec.kind,
        report,
        footprint_bytes: gpu.memory_footprint_bytes(),
    })
}

/// Every figure and table producer except Figure 6 (whose TX1 runs are
/// not in the cold suite), rendered as `repro_all` renders them.
pub fn render_producers(ch: &Characterizer) -> tango::Result<String> {
    let mut parts = vec![
        tables::table1_models(),
        tables::table2_gpus(),
        tables::table3_all(ch)?,
        tables::table4_fpga(),
    ];
    let runs = figures::run_default_suite(ch)?;
    for m in [
        figures::fig1_time_breakdown(&runs),
        figures::fig3_peak_power(&runs),
        figures::fig4_power_per_layer_type(&runs),
        figures::fig5_power_components(&runs),
        figures::fig8_op_breakdown(&runs),
        figures::fig9_top_ops(&runs),
        figures::fig10_dtype_over_layers(&runs),
        figures::fig2_l1d_sensitivity(ch)?,
        figures::fig7_stall_breakdown(ch)?,
        figures::fig11_memory_footprint(ch)?,
        figures::fig12_register_usage(ch)?,
    ] {
        parts.push(m.to_string());
    }
    let no_l1 = figures::run_cnns_no_l1(ch)?;
    for m in [
        figures::fig13_l2_misses(&no_l1),
        figures::fig14_l2_miss_ratio(&no_l1),
        figures::fig15_scheduler_sensitivity(ch)?,
        figures::fig16_alexnet_per_layer_scheduler(ch)?,
    ] {
        parts.push(m.to_string());
    }
    Ok(parts.join("\n"))
}

fn characterizer(seed: u64, source: Arc<dyn RunSource>) -> Characterizer {
    Characterizer::new(GpuConfig::gp102(), Preset::Tiny, seed).with_source(source)
}

/// One warm pass over a full suite store.
#[derive(Debug, Clone, Copy)]
pub struct WarmPass {
    pub secs: f64,
    pub digest: u64,
    pub hits: u64,
}

/// The warm pass as a fresh `repro_all` process runs it: open the store,
/// `Suite::execute` (every job a disk hit), then every producer.
pub fn suite_warm_pass(suite: &Suite, root: &Path, seed: u64) -> Result<WarmPass> {
    let start = Instant::now();
    let store = Arc::new(RunStore::at(root));
    let report = suite.execute(&store, 1).map_err(err)?;
    let text = render_producers(&characterizer(seed, store.clone())).map_err(err)?;
    let secs = start.elapsed().as_secs_f64();
    if report.misses != 0 || store.misses() != 0 {
        return Err(format!("warm pass simulated {} job(s)", store.misses()));
    }
    Ok(WarmPass {
        secs,
        digest: text_digest(&text),
        hits: report.hits,
    })
}

/// A `RunSource` over records fetched by the composed warm pass. A
/// request it does not hold is an error: a warm pass never simulates.
struct FetchedRecords {
    runs: HashMap<u64, NetworkRun>,
    builds: HashMap<u64, BuildStats>,
    tracer: Arc<Tracer>,
}

fn warm_miss(what: &str) -> TangoError {
    TangoError::Backend(format!("warm pass requested {what}, which the store does not hold"))
}

impl RunSource for FetchedRecords {
    fn network_run(&self, spec: &RunSpec) -> tango::Result<NetworkRun> {
        self.tracer
            .leaf("harness.lookup", || {
                self.runs.get(&RunKey::for_run(spec).digest).cloned()
            })
            .ok_or_else(|| warm_miss(&format!("run {}@{}", spec.kind.name(), spec.preset.name())))
    }

    fn build_stats(&self, spec: &BuildSpec) -> tango::Result<BuildStats> {
        self.tracer
            .leaf("harness.lookup", || {
                self.builds.get(&RunKey::for_build(spec).digest).cloned()
            })
            .ok_or_else(|| warm_miss(&format!("build {}@{}", spec.kind.name(), spec.preset.name())))
    }
}

/// [`suite_warm_pass`] composed from the calls a disk hit makes, each in
/// a span: `RunKey::for_run`/`for_build`, the record read, and
/// `decode_run`/`decode_build`; then the producers, served from the
/// decoded records.
pub fn suite_warm_pass_traced(suite: &Suite, root: &Path, seed: u64, tr: &Arc<Tracer>) -> Result<WarmPass> {
    let start = Instant::now();
    let text = tr.span("bench.warm_pass", || -> Result<String> {
        let mut fetched = FetchedRecords {
            runs: HashMap::new(),
            builds: HashMap::new(),
            tracer: tr.clone(),
        };
        for job in suite.jobs() {
            tr.span("harness.fetch", || -> Result<()> {
                let key = tr.span("harness.key", || job.key());
                let bytes = tr
                    .span("harness.read", || std::fs::read(root.join(key.file_name())))
                    .map_err(|e| format!("warm pass cannot read {}: {e}", key.file_name()))?;
                match job {
                    Job::Run(_) => {
                        let run = tr.span("harness.decode", || decode_run(&bytes)).map_err(err)?;
                        fetched.runs.insert(key.digest, run);
                    }
                    Job::Build(_) => {
                        let build = tr.span("harness.decode", || decode_build(&bytes)).map_err(err)?;
                        fetched.builds.insert(key.digest, build);
                    }
                    Job::Backend(_) => return Err("the cold suite holds no backend jobs".into()),
                }
                Ok(())
            })?;
        }
        let ch = characterizer(seed, Arc::new(fetched));
        tr.span("core.producers", || render_producers(&ch)).map_err(err)
    })?;
    Ok(WarmPass {
        secs: start.elapsed().as_secs_f64(),
        digest: text_digest(&text),
        hits: suite.len() as u64,
    })
}

/// Where a replay's costs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Read from the cold suite's own records: GP102 and GK210 default
    /// runs at batch 1, so two GPU pools and no batching.
    Suite,
    /// Precomputed for `harness fleet`'s four pools (batches up to 4) and
    /// a GP102 serve model (batches up to 8).
    Serving,
}

const KINDS: [NetworkKind; 2] = [NetworkKind::CifarNet, NetworkKind::Gru];
const SERVE_DEVICES: usize = 2;
const QUEUE_BOUND: usize = 64;

/// The cost models one replay prices with, over one store handle.
pub struct Costs {
    pools: Vec<(PoolSpec, SimCostModel)>,
    fleet_max_batch: u32,
    serve: SimCostModel,
    serve_max_batch: u32,
}

impl Costs {
    pub fn new(pricing: Pricing, store: Arc<RunStore>, seed: u64) -> Self {
        let model = |config: GpuConfig| SimCostModel::new(store.clone(), config, Preset::Tiny, seed, SimOptions::new());
        match pricing {
            Pricing::Suite => Costs {
                pools: vec![
                    (PoolSpec::elastic("gp102", 1, 1, 3), model(GpuConfig::gp102())),
                    (PoolSpec::elastic("gk210", 1, 0, 2), model(GpuConfig::gk210())),
                ],
                fleet_max_batch: 1,
                serve: model(GpuConfig::gp102()),
                serve_max_batch: 1,
            },
            Pricing::Serving => {
                let on = |spec: BackendSpec| model(GpuConfig::gp102()).with_backend(spec);
                Costs {
                    pools: vec![
                        (
                            PoolSpec::elastic("gp102", 1, 1, 3),
                            on(BackendSpec::Gpu(GpuConfig::gp102())),
                        ),
                        (
                            PoolSpec::elastic("gk210", 1, 0, 2),
                            on(BackendSpec::Gpu(GpuConfig::gk210())),
                        ),
                        (PoolSpec::fixed("tx1", 1), on(BackendSpec::Gpu(GpuConfig::tx1()))),
                        (
                            PoolSpec::fixed("pynq-z1", 1),
                            on(BackendSpec::Fpga(PynqConfig::pynq_z1())),
                        ),
                    ],
                    fleet_max_batch: 4,
                    serve: model(GpuConfig::gp102()),
                    serve_max_batch: 8,
                }
            }
        }
    }

    /// Simulates every cost the replays can ask for, with one worker:
    /// `(fleet seconds, serve seconds)`.
    pub fn precompute(&self) -> Result<(f64, f64)> {
        let start = Instant::now();
        for (_, cost) in &self.pools {
            cost.precompute(&KINDS, self.fleet_max_batch, 1).map_err(err)?;
        }
        let fleet_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        self.serve.precompute(&KINDS, self.serve_max_batch, 1).map_err(err)?;
        Ok((fleet_s, start.elapsed().as_secs_f64()))
    }

    /// Asks every model for every cost a replay can ask for, returning
    /// their digest. On a fresh store handle every answer is a disk hit.
    pub fn price_all(&self, tr: Option<&Tracer>) -> Result<u64> {
        let timed = |f: &mut dyn FnMut() -> tango_serve::Result<u64>| match tr {
            Some(tr) => tr.span("serve.cost_fetch", f),
            None => f(),
        };
        let mut h = StableHasher::new();
        for (pool, cost) in &self.pools {
            for kind in KINDS {
                for batch in 1..=self.fleet_max_batch {
                    let mut ask = || cost.batch_cost(kind, batch).map(|c| c.ns ^ c.cycles.rotate_left(32));
                    h.write_str(&pool.name);
                    h.write_u64(timed(&mut ask).map_err(err)?);
                }
            }
        }
        for kind in KINDS {
            for batch in 1..=self.serve_max_batch {
                let mut ask = || self.serve.batch_cycles(kind, batch);
                h.write_u64(timed(&mut ask).map_err(err)?);
            }
        }
        Ok(h.finish())
    }
}

/// A cost model whose every lookup is folded into a tracer aggregate.
struct TimedCost<'a> {
    model: &'a SimCostModel,
    tracer: &'a Tracer,
    name: &'static str,
}

impl CostModel for TimedCost<'_> {
    fn batch_cycles(&self, kind: NetworkKind, batch: u32) -> tango_serve::Result<u64> {
        self.tracer.leaf(self.name, || self.model.batch_cycles(kind, batch))
    }
}

impl FleetCost for TimedCost<'_> {
    fn batch_cost(&self, kind: NetworkKind, batch: u32) -> tango_serve::Result<BatchCost> {
        self.tracer.leaf(self.name, || self.model.batch_cost(kind, batch))
    }
}

/// The replay inputs: two fleet traces shaped as `harness fleet` shapes
/// them, a fleet config per routing policy, and one open-loop serve
/// trace. Arrival times are simulated time, so the replays run as fast
/// as the host allows (a closed loop of one client).
pub struct Replay {
    traces: Vec<(&'static str, FleetTrace)>,
    configs: Vec<(RoutePolicy, FleetConfig)>,
    /// Span name per (trace, policy), in replay order.
    run_spans: Vec<&'static str>,
    serve_trace: ArrivalTrace,
    serve_config: ServeConfig,
}

/// What one replay episode (six fleet replays and one serve replay)
/// produced.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    pub fleet_secs: f64,
    /// Each fleet replay's time, in replay order.
    pub fleet_replay_secs: Vec<f64>,
    pub fleet_requests: u64,
    pub serve_secs: f64,
    pub serve_requests: u64,
    pub digest: u64,
    pub fleet_completed: u64,
    pub fleet_shed: [u64; 3],
    pub serve_completed: u64,
    pub serve_shed: u64,
    pub serve_mean_batch: f64,
}

impl Replay {
    /// Builds traces of `requests` requests each, paced from the costs'
    /// batch-1 service times (peak load ρ≈1.5 on the fleet against its
    /// fastest device class, ρ=0.8 on the serve pool against the mean
    /// service time), seeded from `seed`.
    pub fn new(costs: &Costs, requests: usize, seed: u64) -> Result<Self> {
        let mut best = [u64::MAX; KINDS.len()];
        for (_, cost) in &costs.pools {
            for (i, &kind) in KINDS.iter().enumerate() {
                best[i] = best[i].min(cost.batch_cost(kind, 1).map_err(err)?.ns);
            }
        }
        let svc_fast = best.iter().copied().min().unwrap_or(1).max(1);
        let slo_anchor = best.iter().copied().max().unwrap_or(1).max(1);
        let classes = vec![
            ClassSpec::with_slo("interactive", slo_anchor.saturating_mul(8)),
            ClassSpec::best_effort("batch"),
        ];
        let devices: u64 = costs.pools.iter().map(|(p, _)| p.devices as u64).sum();
        let peak_gap = (svc_fast / (devices * 3 / 2).max(1)).max(1);
        let traces = vec![
            (
                "diurnal",
                FleetTrace::diurnal(&KINDS, &classes, requests, peak_gap, svc_fast * 50, 0.2, seed),
            ),
            (
                "bursty",
                FleetTrace::bursty(
                    &KINDS,
                    &classes,
                    requests,
                    peak_gap * 4,
                    svc_fast * 40,
                    svc_fast * 8,
                    6,
                    seed ^ 1,
                ),
            ),
        ];
        let configs: Vec<(RoutePolicy, FleetConfig)> = RoutePolicy::ALL
            .into_iter()
            .map(|policy| {
                let config = FleetConfig {
                    pools: costs.pools.iter().map(|(p, _)| p.clone()).collect(),
                    classes: classes.clone(),
                    queue_bound: QUEUE_BOUND,
                    max_batch: costs.fleet_max_batch,
                    max_delay_ns: svc_fast / 2,
                    policy,
                    autoscale: Some(AutoscaleConfig {
                        interval_ns: svc_fast,
                        high_queue_per_device: 3,
                        low_queue_per_device: 1,
                    }),
                };
                (policy, config)
            })
            .collect();
        // Span names live as long as the process: six short strings.
        let run_spans = traces
            .iter()
            .flat_map(|(t, _)| {
                configs
                    .iter()
                    .map(move |(p, _)| format!("fleet.run_ms.{t}.{}", p.name()))
            })
            .map(|name| &*Box::leak(name.into_boxed_str()))
            .collect();

        let mut serve_1 = 0;
        for kind in KINDS {
            serve_1 += costs.serve.batch_cycles(kind, 1).map_err(err)? / KINDS.len() as u64;
        }
        let gap = ((serve_1 as f64 / (0.8 * SERVE_DEVICES as f64)).round() as u64).max(1);
        Ok(Replay {
            traces,
            configs,
            run_spans,
            serve_trace: ArrivalTrace::open_loop(&KINDS, requests, gap, 4, seed ^ 2),
            serve_config: ServeConfig {
                devices: SERVE_DEVICES,
                queue_bound: QUEUE_BOUND,
                policy: BatchPolicy {
                    max_batch: costs.serve_max_batch,
                    max_delay_cycles: serve_1 / 2,
                },
            },
        })
    }

    /// The `(trace, policy)` span names, which are also the per-layer
    /// metric names of the fleet replays.
    pub fn run_spans(&self) -> &[&'static str] {
        &self.run_spans
    }

    /// Runs the six fleet replays and the serve replay once. With a
    /// tracer, each replay is a span and every cost lookup a leaf.
    pub fn episode(&self, costs: &Costs, tr: Option<&Tracer>) -> Result<Episode> {
        let mut ep = Episode::default();
        let mut h = StableHasher::new();
        let mut spans = self.run_spans.iter();
        for (_, trace) in &self.traces {
            for (_, config) in &self.configs {
                let span = spans.next().copied().unwrap_or("fleet.run_ms");
                let start = Instant::now();
                let report = match tr {
                    None => {
                        let models: Vec<&dyn FleetCost> =
                            costs.pools.iter().map(|(_, c)| c as &dyn FleetCost).collect();
                        run_fleet(trace, config, &models)
                    }
                    Some(tr) => {
                        let timed: Vec<TimedCost> = costs
                            .pools
                            .iter()
                            .map(|(_, c)| TimedCost {
                                model: c,
                                tracer: tr,
                                name: "fleet.cost",
                            })
                            .collect();
                        let models: Vec<&dyn FleetCost> = timed.iter().map(|c| c as &dyn FleetCost).collect();
                        tr.span(span, || run_fleet(trace, config, &models))
                    }
                }
                .map_err(err)?;
                let secs = start.elapsed().as_secs_f64();
                ep.fleet_secs += secs;
                ep.fleet_replay_secs.push(secs);
                ep.fleet_requests += trace.len() as u64;
                fold_fleet(&mut h, &report, config.classes.len());
                ep.fleet_completed += report.completed() as u64;
                for (slot, reason) in ep.fleet_shed.iter_mut().zip(ShedReason::ALL) {
                    *slot += report.shed_by(reason) as u64;
                }
            }
        }
        let start = Instant::now();
        let report = match tr {
            None => run_trace(&self.serve_trace, &self.serve_config, &costs.serve),
            Some(tr) => {
                let timed = TimedCost {
                    model: &costs.serve,
                    tracer: tr,
                    name: "serve.cost",
                };
                tr.span("serve.run_trace", || {
                    run_trace(&self.serve_trace, &self.serve_config, &timed)
                })
            }
        }
        .map_err(err)?;
        ep.serve_secs = start.elapsed().as_secs_f64();
        ep.serve_requests = self.serve_trace.len() as u64;
        fold_serve(&mut h, &report);
        ep.serve_completed = report.completed() as u64;
        ep.serve_shed = report.shed() as u64;
        ep.serve_mean_batch = report.mean_batch_size();
        ep.digest = h.finish();
        Ok(ep)
    }
}

fn fold_latency(h: &mut StableHasher, latencies: &[u64]) {
    let summary = LatencySummary::from_latencies(latencies);
    h.write_u64(latencies.len() as u64);
    h.write_u64(summary.map_or(0, |s| s.p50));
    h.write_u64(summary.map_or(0, |s| s.p99));
}

/// Per class: p50 and p99 latency and completed count; then the shed
/// count per reason.
fn fold_fleet(h: &mut StableHasher, report: &FleetReport, classes: usize) {
    for class in 0..classes {
        let lat: Vec<u64> = report
            .records
            .iter()
            .filter(|r| r.class == class)
            .filter_map(|r| r.latency_ns())
            .collect();
        fold_latency(h, &lat);
    }
    for reason in ShedReason::ALL {
        h.write_u64(report.shed_by(reason) as u64);
    }
}

/// Per network (the serve engine's request class): p50 and p99 latency,
/// completed count and shed count.
fn fold_serve(h: &mut StableHasher, report: &ServeReport) {
    for kind in KINDS {
        let of_kind = || report.records.iter().filter(move |r| r.kind == kind);
        let lat: Vec<u64> = of_kind().filter_map(|r| r.latency()).collect();
        fold_latency(h, &lat);
        h.write_u64(of_kind().filter(|r| matches!(r.outcome, Outcome::Shed { .. })).count() as u64);
    }
}
