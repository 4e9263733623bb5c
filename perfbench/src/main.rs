//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <warm_suite|serving> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in this process against a store directory of its
//! own, checks its outputs, and prints one JSON line as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Untraced simulation runs in a
//! fresh child process (`perfbench fill` / `perfbench precompute`): the
//! launch memo a cold pass leaves behind would otherwise change what the
//! process does next, and the workload's peak resident set is its own.
//!
//! Repeated phases report a low percentile of many short samples, not
//! their median: on a shared host the share of time a neighbour slows
//! this one down moves from run to run, and that share sets the median
//! while the low percentiles hardly move (`README.md`, "Noise").

mod check;
mod host;
mod phases;
mod stats;
mod trace;

use check::{verify, Digests, DEFAULT_SEED};
use phases::{
    cold_jobs, cold_pass, cold_pass_traced, suite_warm_pass, suite_warm_pass_traced, Cold, Costs, Episode, Pricing,
    Replay,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;
use tango_fleet::{RoutePolicy, ShedReason};
use tango_harness::{RunStore, Suite};
use tango_nets::NetworkKind;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <warm_suite|serving> [--seed <n>] [--seconds <n>] [--trace <0|1>]
       perfbench fill|precompute --seed <n> --store <dir>";

/// The percentile of a repeated phase's samples that its end-to-end
/// metric reports.
const LOW_PERCENTILE: f64 = 5.0;
/// Timed warm passes per run at least: p90 needs ten samples beyond it.
const MIN_PASSES: usize = 100;
/// Untimed warm passes first, while the allocator and caches settle.
const WARMUP_PASSES: usize = 10;
/// Timed replay episodes per run at least: p5 needs ten samples beyond
/// it.
const MIN_EPISODES: usize = 12;
/// Requests per trace. Short replays give many samples per run, and the
/// low percentile needs many samples.
const REPLAY_REQUESTS: usize = 50_000;
/// Set-ups per `warm_suite` run; each is a whole cold pass.
const FILL_SETUPS: usize = 2;
/// Set-ups per `serving` run; each simulates its costs afresh.
const SERVING_SETUPS: usize = 3;
/// Timed warm-pass pairs per traced run at least.
const MIN_TRACED: usize = 20;
/// How far the per-layer self times plus the unattributed remainder may
/// stray from the traced wall time.
const SELF_TIME_TOLERANCE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WarmSuite,
    Serving,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "warm_suite" => Some(Workload::WarmSuite),
            "serving" => Some(Workload::Serving),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmSuite => "warm_suite",
            Workload::Serving => "serving",
        }
    }

    /// Where this workload's replays get their costs.
    fn pricing(self) -> Pricing {
        match self {
            Workload::WarmSuite => Pricing::Suite,
            Workload::Serving => Pricing::Serving,
        }
    }
}

/// The end-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("warm_pass_ms_p5", "ms"),
    ("fleet_mreq_per_s", "Mreq/s"),
    ("serve_mreq_per_s", "Mreq/s"),
];

const FLEET_TRACES: [&str; 2] = ["diurnal", "bursty"];
const LAYERS: [&str; 7] = ["bench", "nets", "sim", "harness", "core", "serve", "fleet"];

/// Every per-layer metric with its unit, in report order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("nets.build_ms".into(), "ms");
    add("nets.paper_build_ms".into(), "ms");
    add("sim.infer_ms".into(), "ms");
    for kind in NetworkKind::ALL {
        add(format!("sim.infer_ms.{}", kind.name()), "ms");
    }
    add("sim.host_ns_per_kcycle".into(), "ns/kcycle");
    add("sim.memo_table_mib".into(), "MiB");
    for name in [
        "cycles",
        "warp_insts",
        "l1d_misses",
        "l2_misses",
        "dram_accesses",
        "launches",
    ] {
        add(format!("sim.{name}"), "count");
    }
    for name in ["key_us", "fetch_hit_us", "decode_us", "encode_us"] {
        add(format!("harness.{name}"), "us");
    }
    add("harness.record_kib".into(), "KiB");
    for name in ["hits", "misses", "writes"] {
        add(format!("harness.{name}"), "count");
    }
    add("core.producers_ms".into(), "ms");
    add("warm.pass_ms_p50".into(), "ms");
    add("warm.pass_ms_p90".into(), "ms");
    for name in ["run_ms", "cost_ms", "self_ms"] {
        add(format!("serve.{name}"), "ms");
    }
    for name in ["cost_calls", "completed", "shed"] {
        add(format!("serve.{name}"), "count");
    }
    add("serve.mean_batch".into(), "req/batch");
    add("serve.precompute_s".into(), "s");
    for t in FLEET_TRACES {
        for p in RoutePolicy::ALL {
            add(format!("fleet.run_ms.{t}.{}", p.name()), "ms");
        }
    }
    add("fleet.cost_ms".into(), "ms");
    for name in ["cost_calls", "completed"] {
        add(format!("fleet.{name}"), "count");
    }
    for reason in ShedReason::ALL {
        add(format!("fleet.shed.{}", reason.name()), "count");
    }
    add("fleet.precompute_s".into(), "s");
    for layer in LAYERS {
        add(format!("self_ms.{layer}"), "ms");
    }
    add("trace.wall_ms".into(), "ms");
    add("trace.overhead_ms".into(), "ms");
    out
}

/// Ops attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ops {
    fn run<T>(&mut self, what: &str, result: phases::Result<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Holds each digest a phase reports to the first one of its name.
fn same_digest(digests: &mut Digests, name: &str, value: u64) -> phases::Result<()> {
    match *digests.entry(name.to_string()).or_insert(value) {
        first if first == value => Ok(()),
        first => Err(format!(
            "{name} digest {value:016x} differs from this run's first, {first:016x}"
        )),
    }
}

/// How long a phase repeats: `warmup` untimed repetitions (checked like
/// the rest), then at least `min` timed ones for at least `seconds`.
#[derive(Debug, Clone, Copy)]
struct Budget {
    warmup: usize,
    min: usize,
    seconds: f64,
}

impl Budget {
    fn warm(seconds: f64) -> Self {
        Budget {
            warmup: WARMUP_PASSES,
            min: MIN_PASSES,
            seconds,
        }
    }

    fn replay(seconds: f64) -> Self {
        Budget {
            warmup: 1,
            min: MIN_EPISODES,
            seconds,
        }
    }
}

/// One workload run in progress.
struct Run {
    workload: Workload,
    seed: u64,
    seconds: f64,
    store: PathBuf,
    ops: Ops,
    digests: Digests,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Raises `peak_rss_mib` to `mib`, the peak of one of the workload's
    /// processes.
    fn peak_rss(&mut self, mib: f64) {
        let peak = self.metrics.entry("peak_rss_mib".into()).or_insert(0.0);
        *peak = peak.max(mib);
    }

    /// Runs `pass` as `budget` says, holding every digest to the first;
    /// returns the timed passes' times.
    fn repeat(&mut self, what: &str, budget: Budget, mut pass: impl FnMut() -> phases::Result<(f64, u64)>) -> Vec<f64> {
        let (mut start, mut done) = (Instant::now(), 0);
        let mut secs = Vec::new();
        while done < budget.warmup || secs.len() < budget.min || start.elapsed().as_secs_f64() < budget.seconds {
            let Some(s) = self.checked(what, pass()) else { break };
            done += 1;
            if done <= budget.warmup {
                start = Instant::now();
            } else {
                secs.push(s);
            }
        }
        secs
    }

    /// Holds a pass's digest to the first of its name; its time, or
    /// `None` after counting the failure.
    fn checked(&mut self, what: &str, result: phases::Result<(f64, u64)>) -> Option<f64> {
        let result = result.and_then(|(s, d)| same_digest(&mut self.digests, what, d).map(|()| s));
        self.ops.run(what, result)
    }

    /// Runs warm passes and replay episodes in turns, each turn of warm
    /// passes lasting about as long as the episode before it, so that
    /// the samples of both spread over the same `seconds` and the same
    /// spells of host noise. Untimed warm-ups come first; every digest is
    /// held to the first of its name. Appends the timed warm pass times
    /// and the timed episodes, going on past `seconds` until there are
    /// enough of each; returns false after a failed op.
    fn interleave(
        &mut self,
        seconds: f64,
        passes: &mut Vec<f64>,
        episodes: &mut Vec<Episode>,
        mut warm: impl FnMut() -> phases::Result<(f64, u64)>,
        mut episode: impl FnMut() -> phases::Result<Episode>,
    ) -> bool {
        let pricing = self.workload.pricing();
        let (warm_name, replay_name) = (warm_digest_name(pricing), replay_digest_name(pricing));
        let mut run_episode = |this: &mut Self| {
            let ep = episode().and_then(|e| same_digest(&mut this.digests, replay_name, e.digest).map(|()| e));
            this.ops.run(replay_name, ep)
        };
        for _ in 0..WARMUP_PASSES {
            if self.checked(warm_name, warm()).is_none() {
                return false;
            }
        }
        if run_episode(self).is_none() {
            return false;
        }
        let start = Instant::now();
        while passes.len() < MIN_PASSES || episodes.len() < MIN_EPISODES || start.elapsed().as_secs_f64() < seconds {
            let Some(ep) = run_episode(self) else { return false };
            let turn = ep.fleet_secs + ep.serve_secs;
            episodes.push(ep);
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < turn {
                let Some(s) = self.checked(warm_name, warm()) else {
                    return false;
                };
                passes.push(s);
            }
        }
        true
    }

    /// Runs `budget.warmup` untraced passes, then alternates untraced
    /// and traced ones as `budget` says, holding every digest to the
    /// first. Every span the tracer holds therefore comes from a timed
    /// traced pass. Returns the timed (untraced, traced) times.
    fn paired(
        &mut self,
        what: &str,
        budget: Budget,
        mut untraced: impl FnMut() -> phases::Result<(f64, u64)>,
        mut traced: impl FnMut() -> phases::Result<(f64, u64)>,
    ) -> (Vec<f64>, Vec<f64>) {
        let warmup = Budget {
            min: 0,
            seconds: 0.0,
            ..budget
        };
        self.repeat(what, warmup, &mut untraced);
        let start = Instant::now();
        let (mut plain, mut seen) = (Vec::new(), Vec::new());
        while seen.len() < budget.min || start.elapsed().as_secs_f64() < budget.seconds {
            let a = self.checked(what, untraced());
            let b = self.checked(what, traced());
            let (Some(a), Some(b)) = (a, b) else { break };
            plain.push(a);
            seen.push(b);
        }
        (plain, seen)
    }
}

/// A directory removed when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target dir>/perfbench`: stores, traces and the results log. The
/// binary lives in `<target dir>/<profile>/`.
fn work_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

/// Runs `perfbench <mode> --seed <seed> --store <dir>` and parses its
/// `name value` stdout lines.
fn child(mode: &str, seed: u64, store: &Path) -> phases::Result<BTreeMap<String, String>> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([mode, "--seed", &seed.to_string(), "--store"])
        .arg(store)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `perfbench {mode}`: {e}"))?;
    if !out.status.success() {
        return Err(format!("`perfbench {mode}` failed: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect())
}

fn field<T: std::str::FromStr>(fields: &BTreeMap<String, String>, name: &str) -> phases::Result<T> {
    fields
        .get(name)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child reported no usable {name}"))
}

/// What the `fill` child reports.
struct Filled {
    secs: f64,
    digest: u64,
    peak_rss_mib: f64,
}

/// The `fill` child: the cold pass in a fresh process, as `warm_suite`'s
/// set-up or as the untraced reference of a traced cold pass.
fn fill_in_child(seed: u64, store: &Path) -> phases::Result<Filled> {
    let fields = child("fill", seed, store)?;
    let digest = fields
        .get("digest")
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or("fill reported no digest")?;
    Ok(Filled {
        secs: field(&fields, "secs")?,
        digest,
        peak_rss_mib: field(&fields, "peak_rss_mib")?,
    })
}

/// One set-up of the workload, into a fresh store: `warm_suite` runs the
/// cold suite into it in a fresh process; `serving` simulates its costs
/// into it in a fresh process and builds its replay inputs over them.
/// Returns the set-up time and, for `serving`, the replay inputs.
fn set_up(run: &mut Run) -> Option<(f64, Option<(Costs, Replay)>)> {
    let _ = std::fs::remove_dir_all(&run.store);
    let start = Instant::now();
    match run.workload {
        Workload::WarmSuite => {
            let filled = run.ops.run("fill", fill_in_child(run.seed, &run.store))?;
            let secs = start.elapsed().as_secs_f64();
            let checked = same_digest(&mut run.digests, "cold.jobs", filled.digest);
            run.ops.run("fill output", checked)?;
            run.peak_rss(filled.peak_rss_mib);
            Some((secs, None))
        }
        Workload::Serving => {
            let fields = run.ops.run("precompute", child("precompute", run.seed, &run.store))?;
            let (fleet_s, serve_s, rss) = run.ops.run(
                "precompute",
                field(&fields, "fleet_s").and_then(|f| {
                    Ok((
                        f,
                        field::<f64>(&fields, "serve_s")?,
                        field::<f64>(&fields, "peak_rss_mib")?,
                    ))
                }),
            )?;
            let inputs = replay_inputs(run)?;
            let secs = start.elapsed().as_secs_f64();
            run.set("fleet.precompute_s", fleet_s);
            run.set("serve.precompute_s", serve_s);
            run.peak_rss(rss);
            Some((secs, Some(inputs)))
        }
    }
}

/// The replay inputs over one store handle whose cost models have
/// answered every query once, so the replays see only memory hits.
fn replay_inputs(run: &mut Run) -> Option<(Costs, Replay)> {
    let costs = Costs::new(run.workload.pricing(), Arc::new(RunStore::at(&run.store)), run.seed);
    let price = costs.price_all(None);
    run.ops.run("cost models", price)?;
    let replay = run
        .ops
        .run("replay set-up", Replay::new(&costs, REPLAY_REQUESTS, run.seed))?;
    Some((costs, replay))
}

fn episode_digest(ep: phases::Result<Episode>) -> phases::Result<(f64, u64, Episode)> {
    ep.map(|e| (e.fleet_secs + e.serve_secs, e.digest, e))
}

/// One warm pass: `warm_suite` re-opens its filled store and renders
/// every producer; `serving` re-opens its store and prices every cost.
fn warm_pass(pricing: Pricing, suite: &Suite, store: &Path, seed: u64) -> phases::Result<(f64, u64)> {
    match pricing {
        Pricing::Suite => suite_warm_pass(suite, store, seed).map(|p| (p.secs, p.digest)),
        Pricing::Serving => {
            let start = Instant::now();
            let digest = Costs::new(Pricing::Serving, Arc::new(RunStore::at(store)), seed).price_all(None)?;
            Ok((start.elapsed().as_secs_f64(), digest))
        }
    }
}

/// The run with tracing off: the end-to-end metrics.
fn untraced(run: &mut Run) {
    // The timed phase comes in one chunk after each set-up, so its
    // samples spread over the whole run: a spell of host noise that
    // covers one chunk leaves the others.
    let rounds = match run.workload {
        Workload::WarmSuite => FILL_SETUPS,
        Workload::Serving => SERVING_SETUPS,
    };
    let chunk = run.seconds / rounds as f64;
    let (seed, store, pricing) = (run.seed, run.store.clone(), run.workload.pricing());
    let suite = cold_jobs(seed);
    let (mut setups, mut passes, mut episodes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let Some((secs, inputs)) = set_up(run) else { return };
        setups.push(secs);
        let Some((costs, replay)) = inputs.or_else(|| replay_inputs(run)) else {
            return;
        };
        let done = run.interleave(
            chunk,
            &mut passes,
            &mut episodes,
            || warm_pass(pricing, &suite, &store, seed),
            || replay.episode(&costs, None),
        );
        if !done {
            return;
        }
    }
    run.set("setup_s", stats::median(&setups));

    let ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    match stats::percentile(&ms, LOW_PERCENTILE) {
        Some(v) => run.set("warm_pass_ms_p5", v),
        None => {
            run.ops.run::<()>(
                "warm_pass_ms_p5",
                Err(format!("{} passes leave fewer than ten beyond p5", ms.len())),
            );
        }
    }
    if let Some((p, v)) = stats::tail(&ms) {
        eprintln!(
            "[perfbench] warm pass: {} passes, p5 {:.3} ms, p50 {:.3} ms, p{p} {v:.3} ms",
            ms.len(),
            run.metrics.get("warm_pass_ms_p5").copied().unwrap_or(0.0),
            stats::median(&ms)
        );
    }
    let Some((fleet, serve)) = replay_rates(&episodes) else {
        run.ops.run::<()>(
            "replay rates",
            Err(format!("{} episodes leave fewer than ten beyond p5", episodes.len())),
        );
        return;
    };
    run.set("fleet_mreq_per_s", fleet);
    run.set("serve_mreq_per_s", serve);
}

/// Requests per host second, in millions, of the fleet replays and of
/// the serve replay, each replay timed at its p5 over `episodes`.
fn replay_rates(episodes: &[Episode]) -> Option<(f64, f64)> {
    let first = episodes.first()?;
    let low_of = |secs: &dyn Fn(&Episode) -> f64| {
        stats::percentile(&episodes.iter().map(secs).collect::<Vec<_>>(), LOW_PERCENTILE)
    };
    let mut fleet_secs = 0.0;
    for i in 0..first.fleet_replay_secs.len() {
        fleet_secs += low_of(&|e| e.fleet_replay_secs[i])?;
    }
    let serve_secs = low_of(&|e| e.serve_secs)?;
    Some((
        first.fleet_requests as f64 / fleet_secs / 1e6,
        first.serve_requests as f64 / serve_secs / 1e6,
    ))
}

fn warm_digest_name(pricing: Pricing) -> &'static str {
    match pricing {
        Pricing::Suite => "warm.producers",
        Pricing::Serving => "warm.costs",
    }
}

fn replay_digest_name(pricing: Pricing) -> &'static str {
    match pricing {
        Pricing::Suite => "replay.suite",
        Pricing::Serving => "replay.serving",
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run: the per-layer metrics. Every traced unit of work is
/// paired with an untraced one, so the difference is the tracing
/// overhead and the outputs of the two can be held to each other.
fn traced(run: &mut Run) {
    let tr = Arc::new(Tracer::default());
    let mut wall = 0.0;
    let mut overhead = 0.0;
    let suite = cold_jobs(run.seed);
    let mut hits_per_pass = 0;

    let mut inputs = None;
    if run.workload == Workload::Serving {
        let Some((_, serving_inputs)) = set_up(run) else { return };
        inputs = serving_inputs;
    } else {
        // `warm_suite`'s set-up, traced: the cold pass fills the store in
        // this process. Its untraced reference runs in a fresh process of
        // its own: a second cold pass in this one would replay from the
        // launch memo.
        let reference = TempDir(run.store.with_extension("reference"));
        let Some(plain) = run
            .ops
            .run("reference cold pass", fill_in_child(run.seed, &reference.0))
        else {
            return;
        };
        drop(reference);
        let _ = same_digest(&mut run.digests, "cold.jobs", plain.digest);
        let Some(cold) = run
            .ops
            .run("traced cold pass", cold_pass_traced(&suite, &run.store, &tr))
        else {
            return;
        };
        if let Err(e) = same_digest(&mut run.digests, "cold.jobs", cold.digest) {
            run.ops.run::<()>("traced cold output", Err(e));
        }
        wall += cold.secs;
        overhead += cold.secs - plain.secs;
        cold_layer_metrics(run, &cold, &tr);
    }

    let (seconds, seed, store) = (run.seconds, run.seed, run.store.clone());
    let pricing = run.workload.pricing();
    let traced_warm = Budget {
        min: MIN_TRACED,
        ..Budget::warm(seconds)
    };
    let (plain, seen) = match pricing {
        Pricing::Suite => run.paired(
            warm_digest_name(pricing),
            traced_warm,
            || warm_pass(pricing, &suite, &store, seed),
            || {
                let p = suite_warm_pass_traced(&suite, &store, seed, &tr)?;
                hits_per_pass = p.hits;
                Ok((p.secs, p.digest))
            },
        ),
        Pricing::Serving => run.paired(
            warm_digest_name(pricing),
            traced_warm,
            || warm_pass(pricing, &suite, &store, seed),
            || {
                let start = Instant::now();
                let digest = tr.span("bench.cost_pass", || {
                    Costs::new(Pricing::Serving, Arc::new(RunStore::at(&store)), seed).price_all(Some(&tr))
                })?;
                Ok((start.elapsed().as_secs_f64(), digest))
            },
        ),
    };
    wall += seen.iter().sum::<f64>();
    overhead += (stats::median(&seen) - stats::median(&plain)) * seen.len() as f64;
    run.set("harness.hits", hits_per_pass as f64);
    // The untraced passes' middle and tail, which the end-to-end p5
    // leaves out.
    let plain_ms: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
    run.set("warm.pass_ms_p50", stats::median(&plain_ms));
    if let Some(v) = stats::percentile(&plain_ms, 90.0) {
        run.set("warm.pass_ms_p90", v);
    }

    let inputs = match inputs {
        Some(inputs) => Some(inputs),
        None => replay_inputs(run),
    };
    if let Some((costs, replay)) = inputs {
        let mut last = Episode::default();
        let (plain, seen) = run.paired(
            replay_digest_name(pricing),
            Budget::replay(seconds),
            || episode_digest(replay.episode(&costs, None)).map(|(s, d, _)| (s, d)),
            || {
                let (s, d, ep) = episode_digest(replay.episode(&costs, Some(&tr)))?;
                last = ep;
                Ok((s, d))
            },
        );
        wall += seen.iter().sum::<f64>();
        overhead += (stats::median(&seen) - stats::median(&plain)) * seen.len() as f64;
        replay_layer_metrics(run, &replay, &last, seen.len(), &tr);
    }

    let totals = tr.totals();
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean(1e3));
    run.set("harness.key_us", mean_us("harness.key"));
    run.set("harness.fetch_hit_us", mean_us("harness.fetch"));
    run.set("harness.decode_us", mean_us("harness.decode"));
    run.set("harness.encode_us", mean_us("harness.encode"));
    run.set("core.producers_ms", mean_us("core.producers") / 1e3);

    let by_layer = tr.self_ns_by_layer();
    let mut attributed = 0;
    for (layer, ns) in &by_layer {
        if !LAYERS.contains(layer) {
            run.ops
                .run::<()>("trace", Err(format!("span layer {layer} is not a benchmark layer")));
        }
        attributed += ns;
    }
    for layer in LAYERS {
        run.set(
            format!("self_ms.{layer}"),
            ms(by_layer.get(layer).copied().unwrap_or(0)),
        );
    }
    run.set("trace.wall_ms", wall * 1e3);
    run.set("trace.overhead_ms", overhead * 1e3);
    let gap = (ms(attributed) - wall * 1e3).abs() / (wall * 1e3).max(f64::MIN_POSITIVE);
    if gap > SELF_TIME_TOLERANCE {
        run.ops.run::<()>(
            "trace",
            Err(format!(
                "self times sum to {:.3} ms against a wall of {:.3} ms",
                ms(attributed),
                wall * 1e3
            )),
        );
    }
    let dir = work_root().join("traces");
    let path = dir.join(format!("{}-seed{}.json", run.workload.name(), run.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => eprintln!("[perfbench] trace written to {}", path.display()),
        Err(e) => eprintln!("[perfbench] warning: cannot write {}: {e}", path.display()),
    }
}

fn cold_layer_metrics(run: &mut Run, cold: &Cold, tr: &Tracer) {
    let totals = tr.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.total_ns));
    let mut infer_ns = 0;
    for kind in NetworkKind::ALL {
        let name = format!("sim.infer.{}", kind.name());
        infer_ns += totals.get(name.as_str()).map_or(0, |t| t.total_ns);
        run.set(format!("sim.infer_ms.{}", kind.name()), total_ms(&name));
    }
    run.set("sim.infer_ms", ms(infer_ns));
    run.set("nets.build_ms", total_ms("nets.build"));
    run.set("nets.paper_build_ms", total_ms("nets.paper_build"));
    let kcycles = cold.sim.cycles as f64 / 1e3;
    run.set(
        "sim.host_ns_per_kcycle",
        if kcycles > 0.0 { infer_ns as f64 / kcycles } else { 0.0 },
    );
    run.set(
        "sim.memo_table_mib",
        tango_sim::memo_table_stats().2 as f64 / (1u64 << 20) as f64,
    );
    let s = cold.sim;
    for (name, v) in [
        ("cycles", s.cycles),
        ("warp_insts", s.warp_insts),
        ("l1d_misses", s.l1d_misses),
        ("l2_misses", s.l2_misses),
        ("dram_accesses", s.dram_accesses),
        ("launches", s.launches),
    ] {
        run.set(format!("sim.{name}"), v as f64);
    }
    run.set("harness.misses", cold.misses as f64);
    run.set("harness.writes", cold.writes as f64);
    run.set("harness.record_kib", cold.record_bytes as f64 / 1024.0);
}

fn replay_layer_metrics(run: &mut Run, replay: &Replay, ep: &Episode, episodes: usize, tr: &Tracer) {
    let totals = tr.totals();
    let per_episode = |name: &str| {
        let t = totals.get(name).copied().unwrap_or_default();
        (
            t.count as f64 / episodes.max(1) as f64,
            ms(t.total_ns) / episodes.max(1) as f64,
        )
    };
    for &span in replay.run_spans() {
        run.set(span, totals.get(span).map_or(0.0, |t| t.mean(1e6)));
    }
    let (calls, cost_ms) = per_episode("fleet.cost");
    run.set("fleet.cost_calls", calls);
    run.set("fleet.cost_ms", cost_ms);
    let (_, run_ms) = per_episode("serve.run_trace");
    let (calls, cost_ms) = per_episode("serve.cost");
    run.set("serve.run_ms", run_ms);
    run.set("serve.cost_calls", calls);
    run.set("serve.cost_ms", cost_ms);
    run.set("serve.self_ms", run_ms - cost_ms);
    run.set("fleet.completed", ep.fleet_completed as f64);
    for (reason, &n) in ShedReason::ALL.iter().zip(&ep.fleet_shed) {
        run.set(format!("fleet.shed.{}", reason.name()), n as f64);
    }
    run.set("serve.completed", ep.serve_completed as f64);
    run.set("serve.shed", ep.serve_shed as f64);
    run.set("serve.mean_batch", ep.serve_mean_batch);
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` for `defs`, in order.
fn metrics_json(run: &Run, defs: &[(String, &str)]) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let value = run.metrics.get(name).copied().unwrap_or(0.0);
            assert!(stats::valid_metric_name(name), "bad metric name {name:?}");
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::WarmSuite,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse::<u32>().map_err(|_| bad())?.into();
                if out.seconds < 1.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// `perfbench fill|precompute --seed <n> --store <dir>`: the workloads'
/// child processes. `fill` runs the cold pass into the store;
/// `precompute` simulates `serving`'s costs into it.
fn child_main(mode: &str, args: &[String]) -> ExitCode {
    let (Some(seed), Some(store)) = (
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1)?.parse::<u64>().ok()),
        args.iter().position(|a| a == "--store").and_then(|i| args.get(i + 1)),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match mode {
        "fill" => cold_pass(&cold_jobs(seed), Path::new(store)).map(|c| {
            let rss = host::peak_rss_mib().unwrap_or(0.0);
            format!("secs {}\ndigest {:016x}\npeak_rss_mib {rss}\n", c.secs, c.digest)
        }),
        _ => Costs::new(Pricing::Serving, Arc::new(RunStore::at(store)), seed)
            .precompute()
            .map(|(f, s)| {
                let rss = host::peak_rss_mib().unwrap_or(0.0);
                format!("fleet_s {f}\nserve_s {s}\npeak_rss_mib {rss}\n")
            }),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: perfbench {mode}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode @ ("fill" | "precompute")) = argv.first().map(String::as_str) {
        return child_main(mode, &argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Taken before pinning, which narrows what the process may see.
    let fingerprint = host::fingerprint();
    match host::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("[perfbench] pinned to CPU {cpu}, children included"),
        Err(e) => eprintln!("[perfbench] warning: cannot pin to one CPU: {e}"),
    }
    let stores = work_root().join("stores");
    let store = TempDir(stores.join(format!("{}-{}", args.workload.name(), std::process::id())));
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        store: store.0.clone(),
        ops: Ops::default(),
        digests: Digests::new(),
        metrics: BTreeMap::new(),
    };
    eprintln!(
        "[perfbench] {} seed {} for {}s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced(&mut run);
    } else {
        untraced(&mut run);
        if let Some(mib) = host::peak_rss_mib() {
            run.peak_rss(mib);
        }
    }
    drop(store);

    for problem in verify(run.seed, &run.digests) {
        run.ops.run::<()>("output check", Err(problem));
    }
    let defs: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let missing: Vec<&String> = defs
        .iter()
        .map(|(n, _)| n)
        .filter(|n| !run.metrics.contains_key(*n))
        .collect();
    if !args.trace && !missing.is_empty() {
        run.ops.run::<()>("metrics", Err(format!("not measured: {missing:?}")));
    }
    let correct = run.ops.failed == 0;
    for p in &run.ops.problems {
        eprintln!("[perfbench] FAILED {p}");
    }
    let metrics = metrics_json(&run, &defs);
    let digests: Vec<String> = run
        .digests
        .iter()
        .map(|(k, v)| format!("{}: \"{v:016x}\"", json_str(k)))
        .collect();
    let fingerprint: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {{{}}}, \"digests\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.join(", "),
        digests.join(", "),
        run.ops.attempted,
        run.ops.failed,
    );
    eprintln!("[perfbench] {record}");
    let log = work_root().join("results.jsonl");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()))
    {
        eprintln!("[perfbench] warning: cannot append to {}: {e}", log.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.ops.attempted, run.ops.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let mut defs: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        defs.extend(per_layer_metrics());
        for (name, unit) in &defs {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = BENCHMARK_JSON.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            defs.len(),
            "BENCHMARK.json lists metrics the binary does not print"
        );
    }

    #[test]
    fn args_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload serving --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Serving, 3, 10.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload serving --trace 2",
            "--workload serving --seconds 0",
            "--workload serving --seed -1",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
