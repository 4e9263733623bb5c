//! Shared plumbing for the reproduction binaries (`fig01`..`fig16`,
//! `table1`..`table4`, `repro_all`) and the in-tree microbenches.
//!
//! Each binary regenerates one table or figure of the paper and prints
//! the paper-style rows; `repro_all` schedules every experiment through
//! the `tango-harness` suite scheduler. All binaries share one
//! process-wide [`RunStore`] (persisted under `results/store/`), so any
//! simulation one binary performs is a cache hit for every later one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;

use std::fs;
use std::sync::{Arc, OnceLock};
use tango::Characterizer;
pub use tango_harness::preset_from_env;
use tango_harness::{results_root, RunStore};
use tango_sim::GpuConfig;

/// The deterministic seed every reproduction binary uses.
pub const SEED: u64 = 0x7A16_0201_9151;

/// Timed sample count from `TANGO_BENCH_SAMPLES`: unset means
/// `default`; a set value must parse as a positive integer. Same
/// strictness as `TANGO_JOBS` ([`tango_harness::workers_from_env`]): a
/// value that is present but unusable (`0`, `-1`, `lots`, an empty
/// string) is an error naming the variable, not a silent default.
///
/// # Errors
///
/// Returns a human-readable message when the variable is set to `0`,
/// garbage, or a non-UTF-8 value.
pub fn samples_from_env(default: u32) -> std::result::Result<u32, String> {
    match std::env::var("TANGO_BENCH_SAMPLES") {
        Ok(v) => match v.trim().parse::<u32>() {
            Ok(0) => Err("TANGO_BENCH_SAMPLES must be a positive sample count, got 0 (unset it for the default)".into()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("TANGO_BENCH_SAMPLES must be a positive sample count, got {v:?}")),
        },
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(std::env::VarError::NotUnicode(_)) => Err("TANGO_BENCH_SAMPLES is set to a non-UTF-8 value".into()),
    }
}

/// The process-wide persistent run store at the default location
/// (`results/store/`, or under `TANGO_RESULTS_DIR`).
pub fn store_handle() -> Arc<RunStore> {
    static STORE: OnceLock<Arc<RunStore>> = OnceLock::new();
    STORE.get_or_init(|| Arc::new(RunStore::open_default())).clone()
}

/// The characterizer the simulated figures use: GP102 at the environment
/// preset, backed by the shared [`store_handle`] so repeated runs are
/// served from the store.
pub fn characterizer() -> Characterizer {
    Characterizer::new(GpuConfig::gp102(), preset_from_env(), SEED).with_source(store_handle())
}

/// Prints `content` and also writes it to `results/<name>.txt` at the
/// workspace root (best effort — printing is the contract, the file is
/// a convenience). The directory is resolved via
/// [`tango_harness::results_root`], so it does not depend on the
/// process working directory.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_root();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// Like [`emit`] but for machine-readable artifacts: writes `content`
/// verbatim to `results/<name>` (full file name, e.g. `BENCH_sim.json`)
/// and prints it, so CI can consume either the file or stdout.
pub fn emit_file(name: &str, content: &str) {
    println!("{content}");
    let dir = results_root();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(name), content);
    }
}

/// Writes `content` verbatim to `results/<name>` *without* printing —
/// for opt-in sidecar artifacts (the `TANGO_METRICS=1` exports) that
/// must not alter a binary's stdout contract.
pub fn write_result_file(name: &str, content: &str) {
    let dir = results_root();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(name), content);
    }
}

/// Appends one line to `results/<name>`, creating the file if needed —
/// for append-only trajectory logs (`bench_history.jsonl`) that
/// accumulate one record per run instead of being overwritten.
pub fn append_line(name: &str, line: &str) {
    use std::io::Write;
    let dir = results_root();
    if fs::create_dir_all(&dir).is_ok() {
        if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(dir.join(name)) {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// A minimal flat JSON-object builder for the `BENCH_*.json` perf
/// baselines — insertion-ordered, strings escaped, and every number
/// guaranteed finite (non-finite values are clamped to `0`, so a
/// degenerate measurement can never produce `NaN`/`inf`, which are not
/// JSON).
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn push(&mut self, key: &str, rendered: String) {
        self.fields.push((key.to_string(), rendered));
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect();
        self.push(key, format!("\"{escaped}\""));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string());
        self
    }

    /// Adds a float field; non-finite values render as `0` so the output
    /// is always valid JSON.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let safe = if value.is_finite() { value } else { 0.0 };
        self.push(key, format!("{safe:.6}"));
        self
    }

    /// Returns the rendered value of `key`, if present — for composing
    /// derived records (the bench history line copies fields out of the
    /// per-leg objects).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Adds an already-rendered field verbatim. Only pass values
    /// obtained from [`get`](Self::get) on another builder; arbitrary
    /// strings would break the valid-JSON guarantee.
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.push(key, rendered.to_string());
        self
    }

    /// Renders the object as a single-line JSON string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_nets::Preset;

    #[test]
    fn default_preset_is_bench() {
        // The env var is unset in tests unless a caller set it.
        if std::env::var_os("TANGO_PRESET").is_none() {
            assert_eq!(preset_from_env(), Preset::Bench);
        }
    }

    #[test]
    fn characterizer_uses_gp102_with_the_shared_store() {
        let ch = characterizer();
        assert!(ch.config().name.contains("GP102"));
        assert!(ch.source().is_some(), "figures must route through the store");
    }

    #[test]
    fn store_handle_is_shared() {
        assert!(Arc::ptr_eq(&store_handle(), &store_handle()));
    }

    #[test]
    fn json_builder_emits_valid_escaped_json() {
        let obj = JsonObject::new()
            .str("bench", "sim")
            .str("tricky", "a\"b\\c\nd")
            .int("cycles", 123456)
            .num("wall_s", 0.25)
            .num("rate", f64::NAN)
            .render();
        tango_obs::json::validate(&obj).expect("builder output must be valid JSON");
        assert!(obj.starts_with("{\"bench\":\"sim\""), "insertion order preserved: {obj}");
        assert!(obj.contains("\"rate\":0.000000"), "non-finite must clamp to 0: {obj}");
    }
}
