use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Gate, GateKind, Netlist};

/// The size profile of a generated benchmark circuit.
///
/// The published ISCAS85 profiles are available through
/// [`BenchmarkProfile::iscas85`]; real netlists are not redistributable in
/// this offline environment, so the workspace regenerates circuits with the
/// same scale (PI / PO / gate counts), a NAND-dominated gate mix, and a
/// locality-biased connectivity that yields realistic logic depth. The
/// timing methodology's results depend only on these statistics (see
/// DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Circuit name (e.g. `c432`).
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Gate count.
    pub gates: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

/// The ISCAS85 benchmark profiles: `(name, PIs, POs, gates)` as published
/// by Brglez & Fujiwara (1985).
pub const ISCAS85_PROFILES: [(&str, usize, usize, usize); 10] = [
    ("c432", 36, 7, 160),
    ("c499", 41, 32, 202),
    ("c880", 60, 26, 383),
    ("c1355", 41, 32, 546),
    ("c1908", 33, 25, 880),
    ("c2670", 233, 140, 1193),
    ("c3540", 50, 22, 1669),
    ("c5315", 178, 123, 2307),
    ("c6288", 32, 32, 2416),
    ("c7552", 207, 108, 3512),
];

/// Seeded scaling profiles past the ISCAS85 suite: `(name, PIs, POs,
/// gates)`. The PI/PO counts extrapolate the suite's boundary-to-gate
/// ratios so mapped depth and fanout statistics stay in the realistic
/// band; the benchmark's large design takes `s100k`'s shape through
/// [`BenchmarkProfile::custom`].
pub const SCALING_PROFILES: [(&str, usize, usize, usize); 3] = [
    ("s10k", 512, 256, 10_000),
    ("s100k", 1536, 768, 100_000),
    ("s1m", 4096, 2048, 1_000_000),
];

impl BenchmarkProfile {
    /// The profile of a published ISCAS85 circuit, by name.
    #[must_use]
    pub fn iscas85(name: &str) -> Option<BenchmarkProfile> {
        ISCAS85_PROFILES
            .iter()
            .find(|(n, _, _, _)| *n == name)
            .map(|&(n, pi, po, gates)| BenchmarkProfile {
                name: n.to_string(),
                inputs: pi,
                outputs: po,
                gates,
                seed: seed_of(n),
            })
    }

    /// A custom profile.
    ///
    /// # Panics
    ///
    /// Panics unless `inputs ≥ 1`, `outputs ≥ 1`, and `gates ≥ outputs`.
    #[must_use]
    pub fn custom(
        name: &str,
        inputs: usize,
        outputs: usize,
        gates: usize,
        seed: u64,
    ) -> BenchmarkProfile {
        assert!(inputs >= 1 && outputs >= 1, "need at least one PI and PO");
        assert!(gates >= outputs, "need at least one gate per output");
        BenchmarkProfile {
            name: name.to_string(),
            inputs,
            outputs,
            gates,
            seed,
        }
    }
}

/// A stable seed derived from a benchmark name (FNV-1a).
fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Generates a benchmark circuit from a profile. The same profile always
/// yields the same netlist.
///
/// Structure: gates are created in order; each picks a NAND-heavy kind and
/// draws inputs preferentially from recently created signals (a sliding
/// locality window), which produces the deep, narrow cones typical of the
/// ISCAS85 suite. Primary outputs are the last `outputs` signals with no
/// fanout, topped up with random gates.
///
/// # Panics
///
/// Never panics for profiles built through the [`BenchmarkProfile`]
/// constructors.
#[must_use]
pub fn generate_benchmark(profile: &BenchmarkProfile) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(profile.seed);
    let mut signals: Vec<String> = (0..profile.inputs).map(|i| format!("I{i}")).collect();
    let inputs = signals.clone();

    // NAND-dominated base mix; the XOR/XNOR share varies per benchmark
    // (seeded) the way real suites do — c6288-class arithmetic circuits
    // are XOR-rich, control logic is not. The share shifts the mapped
    // cell mixture (XORs map onto AOI21/OAI21 complex gates).
    let mut kind_pool = vec![
        GateKind::Nand,
        GateKind::Nand,
        GateKind::Nand,
        GateKind::Nand,
        GateKind::And,
        GateKind::Nor,
        GateKind::Or,
        GateKind::Not,
        GateKind::Buff,
        GateKind::Xor,
    ];
    for _ in 0..(profile.seed % 4) {
        kind_pool.push(GateKind::Xor);
        kind_pool.push(GateKind::Xnor);
    }

    let mut gates: Vec<Gate> = Vec::with_capacity(profile.gates);
    let mut has_fanout = vec![false; profile.inputs + profile.gates];

    for g in 0..profile.gates {
        // A gate can only draw as many distinct inputs as signals exist;
        // single-signal circuits fall back to unary gates.
        let kind = if signals.len() < 2 {
            GateKind::Not
        } else {
            kind_pool[rng.gen_range(0..kind_pool.len())]
        };
        let arity = if kind.is_unary() {
            1
        } else {
            // 2–4 inputs; 2 dominates, matching ISCAS statistics.
            let wanted = *[2usize, 2, 2, 3, 3, 4]
                .get(rng.gen_range(0usize..6))
                .expect("index in range");
            wanted.min(signals.len())
        };
        let mut ins: Vec<usize> = Vec::with_capacity(arity);
        while ins.len() < arity {
            // Locality window: 75% of inputs come from the most recent
            // quarter of the signal list, which builds depth.
            let n = signals.len();
            let idx = if rng.gen_bool(0.75) && n > 4 {
                rng.gen_range(3 * n / 4..n)
            } else {
                rng.gen_range(0..n)
            };
            if !ins.contains(&idx) {
                ins.push(idx);
            }
        }
        let output = format!("N{g}");
        for &i in &ins {
            has_fanout[i] = true;
        }
        let gate = Gate::new(
            output.clone(),
            kind,
            ins.iter().map(|&i| signals[i].clone()).collect(),
        )
        .expect("arity chosen to match the kind");
        gates.push(gate);
        signals.push(output);
    }

    // Primary outputs: dangling gate outputs first (they would otherwise be
    // dead logic), newest first; top up with random gate outputs. The
    // taken set is a bool vector, not a linear scan over the chosen
    // names — the scan made PO selection O(outputs²) and dominated
    // generation at the 100k–1M-gate scaling profiles.
    let mut outputs: Vec<String> = Vec::with_capacity(profile.outputs);
    let mut is_output = vec![false; profile.gates];
    for g in (0..profile.gates).rev() {
        if outputs.len() == profile.outputs {
            break;
        }
        let sig_index = profile.inputs + g;
        if !has_fanout[sig_index] {
            outputs.push(format!("N{g}"));
            is_output[g] = true;
        }
    }
    let mut probe = 0usize;
    while outputs.len() < profile.outputs && probe < profile.gates {
        let g = profile.gates - 1 - probe;
        if !is_output[g] {
            outputs.push(format!("N{g}"));
            is_output[g] = true;
        }
        probe += 1;
    }
    outputs.reverse();

    Netlist::new(profile.name.clone(), inputs, outputs, gates)
        .expect("generator produces valid netlists by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_iscas85_profiles_exist() {
        for (name, pi, po, gates) in ISCAS85_PROFILES {
            let p = BenchmarkProfile::iscas85(name).unwrap();
            assert_eq!((p.inputs, p.outputs, p.gates), (pi, po, gates));
        }
        assert!(BenchmarkProfile::iscas85("c9999").is_none());
    }

    #[test]
    fn generated_counts_match_the_profile() {
        for name in ["c432", "c880", "c3540"] {
            let p = BenchmarkProfile::iscas85(name).unwrap();
            let n = generate_benchmark(&p);
            assert_eq!(n.gates().len(), p.gates, "{name} gates");
            assert_eq!(n.inputs().len(), p.inputs, "{name} PIs");
            assert_eq!(n.outputs().len(), p.outputs, "{name} POs");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = BenchmarkProfile::iscas85("c432").unwrap();
        assert_eq!(generate_benchmark(&p), generate_benchmark(&p));
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let b = generate_benchmark(&BenchmarkProfile::iscas85("c499").unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn depth_is_realistic() {
        // ISCAS85 circuits have logic depths in the tens of levels.
        let p = BenchmarkProfile::iscas85("c1908").unwrap();
        let n = generate_benchmark(&p);
        let depth = n.stats().depth;
        assert!(depth >= 10, "depth {depth} too shallow");
        assert!(depth <= 400, "depth {depth} implausible");
    }

    #[test]
    fn nand_dominates_the_mix() {
        let p = BenchmarkProfile::iscas85("c3540").unwrap();
        let stats = generate_benchmark(&p).stats();
        let nands = stats.by_kind.get("NAND").copied().unwrap_or(0);
        for (kind, count) in &stats.by_kind {
            if kind != "NAND" {
                assert!(
                    nands >= *count,
                    "NAND ({nands}) must dominate {kind} ({count})"
                );
            }
        }
    }

    #[test]
    fn custom_profiles_validate() {
        let p = BenchmarkProfile::custom("tiny", 4, 2, 10, 42);
        let n = generate_benchmark(&p);
        assert_eq!(n.gates().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one gate per output")]
    fn custom_rejects_more_outputs_than_gates() {
        let _ = BenchmarkProfile::custom("bad", 4, 5, 3, 0);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;

    #[test]
    fn tiny_input_counts_terminate() {
        // Regression: with 2 PIs, an early gate could demand 3–4 distinct
        // inputs and spin forever.
        for inputs in 1..4 {
            let p = BenchmarkProfile::custom("tiny", inputs, 1, 12, 99);
            let n = generate_benchmark(&p);
            assert_eq!(n.gates().len(), 12);
        }
    }
}
