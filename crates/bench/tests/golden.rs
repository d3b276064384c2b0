//! Golden-snapshot tests for the figure and table binaries.
//!
//! Each data builder is flattened to ordered `(key, value)`
//! scalars and compared against a JSON fixture under `tests/golden/` at
//! 1e-9 absolute tolerance — tight enough to pin the physics bit-for-bit
//! in practice while tolerating a future change of summation order.
//!
//! Regenerate fixtures after an intentional model change with
//!
//! ```text
//! BLESS=1 cargo test -p svt-bench --test golden
//! ```
//!
//! and review the diff like any other golden update.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use svt_bench::figures;

const TOLERANCE: f64 = 1e-9;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Serializes scalars as a flat JSON object, one key per line, with
/// Rust's shortest-roundtrip float formatting (`{:?}`), so fixtures diff
/// cleanly and parse exactly.
fn to_json(scalars: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in scalars.iter().enumerate() {
        let comma = if i + 1 == scalars.len() { "" } else { "," };
        writeln!(out, "  \"{k}\": {v:?}{comma}").expect("string write");
    }
    out.push_str("}\n");
    out
}

/// Parses the flat JSON written by [`to_json`]. Deliberately minimal (no
/// serde in this workspace): one `"key": value` entry per line.
fn from_json(text: &str, name: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (key, value) = line
            .split_once("\":")
            .unwrap_or_else(|| panic!("{name}:{}: malformed fixture line `{line}`", lineno + 1));
        let key = key.trim().trim_start_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{name}:{}: bad number `{value}`: {e}", lineno + 1));
        out.push((key, value));
    }
    out
}

fn check_golden(name: &str, scalars: &[(String, f64)]) {
    let path = fixture_path(name);
    assert!(!scalars.is_empty(), "{name}: builder produced no scalars");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create tests/golden/");
        std::fs::write(&path, to_json(scalars)).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run with BLESS=1 to generate the fixture)",
            path.display()
        )
    });
    let expected = from_json(&text, name);
    let got_keys: Vec<&String> = scalars.iter().map(|(k, _)| k).collect();
    let want_keys: Vec<&String> = expected.iter().map(|(k, _)| k).collect();
    assert_eq!(
        got_keys, want_keys,
        "{name}: key set / order drifted from the fixture"
    );
    for ((k, got), (_, want)) in scalars.iter().zip(&expected) {
        assert!(
            (got - want).abs() <= TOLERANCE,
            "{name}: `{k}` = {got:?}, fixture has {want:?} (|Δ| = {:e} > {TOLERANCE:e})",
            (got - want).abs()
        );
    }
}

#[test]
fn fig1_matches_golden() {
    let data = figures::fig1().expect("fig1 builds");
    check_golden("fig1.json", &data.scalars());
}

#[test]
fn fig2_matches_golden() {
    let data = figures::fig2().expect("fig2 builds");
    check_golden("fig2.json", &data.scalars());
}

/// Fig. 3 pins library OPC of both NAND2X1 rows: the corrected mask
/// widths, what they print, and how the correction converged.
#[test]
fn fig3_matches_golden() {
    let data = figures::fig3().expect("fig3 builds");
    assert_eq!(data.rows.len(), 2);
    check_golden("fig3.json", &data.scalars());
}

#[test]
fn fig5_matches_golden() {
    let data = figures::fig5("c432").expect("fig5 builds");
    check_golden("fig5.json", &data.scalars());
}

/// Table 1 on c432, one full-chip run: the device count, the N-1/N-3/N-6
/// counts, and the same run's Fig. 7 mean and worst % error.
#[test]
fn tab1_matches_golden() {
    let data = figures::tab1("c432").expect("tab1 builds");
    check_golden("tab1.json", &data.scalars());
}

#[test]
fn fig6_matches_golden() {
    let data = figures::fig6().expect("fig6 builds");
    check_golden("fig6.json", &data.scalars());
}

/// Table 2 pins the six corner delays and the reduction of every paper
/// testcase, and the paper's claims about them: a 28–40 % narrower BC→WC
/// spread, a faster aware nominal, and aware corners inside the
/// traditional ones.
#[test]
fn tab2_matches_golden_and_the_paper_claims() {
    let data = figures::tab2().expect("tab2 builds");
    assert_eq!(data.rows.len(), 5);
    for row in &data.rows {
        let (case, trad, aware) = (&row.testcase, &row.traditional, &row.aware);
        let reduction = row.uncertainty_reduction_pct();
        assert!(
            (28.0..=40.0).contains(&reduction),
            "{case}: reduction {reduction}% outside the paper's 28-40 %"
        );
        assert!(
            aware.nom_ns < trad.nom_ns,
            "{case}: aware nominal {} not below traditional {}",
            aware.nom_ns,
            trad.nom_ns
        );
        assert!(
            aware.bc_ns >= trad.bc_ns,
            "{case}: aware BC {} below traditional BC {}",
            aware.bc_ns,
            trad.bc_ns
        );
        assert!(
            aware.wc_ns <= trad.wc_ns,
            "{case}: aware WC {} above traditional WC {}",
            aware.wc_ns,
            trad.wc_ns
        );
    }
    check_golden("tab2.json", &data.scalars());
}

#[test]
fn fixture_roundtrip_is_exact() {
    let scalars = vec![
        ("a".to_string(), 1.25),
        ("b[pitch=300.0]".to_string(), -7.3e-10),
        ("c.dose=1.00.smiling".to_string(), 1.0),
    ];
    let parsed = from_json(&to_json(&scalars), "roundtrip");
    assert_eq!(scalars.len(), parsed.len());
    for ((k1, v1), (k2, v2)) in scalars.iter().zip(&parsed) {
        assert_eq!(k1, k2);
        assert_eq!(v1.to_bits(), v2.to_bits(), "float roundtrip must be exact");
    }
}
