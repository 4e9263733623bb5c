//! Output checks: digests of each workload's deterministic outputs and
//! the committed digests they are held to.
//!
//! Every digest is a [`StableHasher`] value, so it is the same in every
//! process and on every host. `expected_digests.txt` holds the digests of
//! the default seed; a run at that seed must reproduce every one of them,
//! and a run at any other seed is held to whatever lines the file has for
//! it.

use std::collections::BTreeMap;
use tango::{BuildStats, NetworkRun};
use tango_harness::StableHasher;

/// The seed whose digests are committed in full.
pub const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected_digests.txt");

/// Order-stable digest of a network output, bit for bit (the digest
/// `harness trace` prints as `output digest`).
pub fn output_digest(values: &[f32]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(values.len() as u64);
    for v in values {
        h.write_u32(v.to_bits());
    }
    h.finish()
}

/// Folds one simulated job into `h`: its label, total cycles, footprint
/// and output digest.
pub fn fold_run(h: &mut StableHasher, label: &str, run: &NetworkRun) {
    h.write_str(label);
    h.write_u64(run.report.total_cycles());
    h.write_u64(run.footprint_bytes);
    h.write_u64(output_digest(run.report.output.as_slice()));
}

/// Folds one build-only job into `h`: its label and every static fact.
pub fn fold_build(h: &mut StableHasher, label: &str, build: &BuildStats) {
    h.write_str(label);
    h.write_str(&format!("{build:?}"));
}

/// Digest of a rendered text.
pub fn text_digest(text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(text);
    h.finish()
}

/// Named digests one run produced, in name order.
pub type Digests = BTreeMap<String, u64>;

/// Parses `seed name hex` lines; `#` starts a comment.
fn parse_expected(text: &str) -> Result<BTreeMap<(u64, String), u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("expected_digests.txt:{}: want `seed name hex`, got {line:?}", i + 1);
        let [seed, name, hex] = fields[..] else {
            return Err(bad());
        };
        let seed = seed.parse::<u64>().map_err(|_| bad())?;
        let hex = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
        out.insert((seed, name.to_string()), hex);
    }
    Ok(out)
}

/// Holds `got` (digests of a run at `seed`) to the expected table `text`.
/// Returns one message per mismatch; at [`DEFAULT_SEED`] a digest the
/// table lacks is a mismatch too.
pub fn verify_against(text: &str, seed: u64, got: &Digests) -> Vec<String> {
    let expected = match parse_expected(text) {
        Ok(e) => e,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for (name, &value) in got {
        match expected.get(&(seed, name.clone())) {
            Some(&want) if want != value => problems.push(format!(
                "{name}: digest {value:016x} differs from committed {want:016x}"
            )),
            None if seed == DEFAULT_SEED => problems.push(format!("{name}: no committed digest for the default seed")),
            _ => {}
        }
    }
    problems
}

/// [`verify_against`] the committed table.
pub fn verify(seed: u64, got: &Digests) -> Vec<String> {
    verify_against(EXPECTED, seed, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_flipped_output_bit_fails_the_check() {
        let output: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut good = Digests::new();
        good.insert("cold.jobs".into(), output_digest(&output));
        let table = format!("{DEFAULT_SEED} cold.jobs {:016x}\n", good["cold.jobs"]);
        assert!(verify_against(&table, DEFAULT_SEED, &good).is_empty());
        for i in [0, 17, 63] {
            for bit in 0..32 {
                let mut flipped = output.clone();
                flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
                let mut got = Digests::new();
                got.insert("cold.jobs".into(), output_digest(&flipped));
                assert_eq!(
                    verify_against(&table, DEFAULT_SEED, &got).len(),
                    1,
                    "flipping bit {bit} of value {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn a_single_flipped_text_bit_fails_the_check() {
        let text = "Fig 1: Time Breakdown\nCifarNet 0.61 0.39\n";
        let table = format!("{DEFAULT_SEED} warm.producers {:016x}\n", text_digest(text));
        for (i, _) in text.bytes().enumerate() {
            for bit in 0..7 {
                let mut bytes = text.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue;
                };
                let mut got = Digests::new();
                got.insert("warm.producers".into(), text_digest(&flipped));
                assert_eq!(verify_against(&table, DEFAULT_SEED, &got).len(), 1);
            }
        }
    }

    #[test]
    fn default_seed_must_be_fully_covered_other_seeds_need_not() {
        let mut got = Digests::new();
        got.insert("serving.replay".into(), 7);
        assert_eq!(verify_against("", DEFAULT_SEED, &got).len(), 1);
        assert!(verify_against("", DEFAULT_SEED + 1, &got).is_empty());
        assert_eq!(verify_against("not a table", 3, &got).len(), 1);
    }

    #[test]
    fn committed_table_parses() {
        let table = parse_expected(EXPECTED).expect("committed digests parse");
        assert!(table.keys().any(|(seed, _)| *seed == DEFAULT_SEED));
    }
}
