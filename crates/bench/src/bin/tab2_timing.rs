//! Paper Table 2: traditional worst-case timing vs the systematic-variation
//! aware timing methodology — nominal / best-case / worst-case circuit
//! delay and the % reduction in BC→WC uncertainty per testcase.
//!
//! ```text
//! cargo run --release -p svt-bench --bin tab2_timing [--simplified] [--audit [dir]] [benchmark ...]
//! ```
//!
//! `--simplified` runs the paper's §5 flow without the context library.
//! Each remaining argument names an ISCAS85 testcase (default: the
//! paper's five); anything else is rejected before the library expands.
//!
//! `--audit [dir]` additionally writes the sign-off audit trail per
//! testcase (`audit_<case>.txt` + `audit_<case>.json`, default directory
//! `.`) and prints a per-case excerpt: every corner-trim decision with
//! before/after gate lengths, reconciling with the reported reduction.

use svt_bench::{build_design, signoff_simulator, PAPER_TESTCASES};
use svt_core::{SignoffFlow, SignoffOptions};
use svt_netlist::BenchmarkProfile;
use svt_stdcell::{expand_library, ExpandOptions, Library};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    svt_obs::reinit_from_env();
    let mut testcases: Vec<String> = Vec::new();
    let mut simplified = false;
    let mut audit_dir: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--simplified" => simplified = true,
            "--audit" => {
                // Optional directory operand; flags and testcases are never
                // directories here, so a path-ish next arg is the operand.
                let dir = match args.peek() {
                    Some(next) if next.contains('/') || next == "." => args.next().unwrap(),
                    _ => ".".to_string(),
                };
                audit_dir = Some(dir);
            }
            other => testcases.push(other.to_string()),
        }
    }
    if testcases.is_empty() {
        testcases = PAPER_TESTCASES.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = testcases
        .iter()
        .find(|name| BenchmarkProfile::iscas85(name).is_none())
    {
        return Err(
            format!("unknown argument `{bad}`: expected an ISCAS85 testcase such as c432").into(),
        );
    }

    let library = Library::svt90();
    let sim = signoff_simulator();
    eprintln!(
        "expanding library (81 contexts x {} cells)…",
        library.cells().len()
    );
    let expanded = expand_library(&library, &sim, &ExpandOptions::default())?;

    let flow = SignoffFlow::new(
        &library,
        &expanded,
        SignoffOptions {
            use_context_library: !simplified,
            ..SignoffOptions::default()
        },
    );

    println!("# Table 2 — traditional vs systematic-variation aware timing");
    println!(
        "{:<8} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>10}",
        "case", "#gates", "nom", "BC", "WC", "nom", "BC", "WC", "reduction"
    );
    println!(
        "{:<8} {:>7} | {:^26} | {:^26} |",
        "", "", "traditional (ns)", "aware (ns)"
    );
    for name in &testcases {
        let design = build_design(&library, name);
        let cmp = if let Some(dir) = &audit_dir {
            let (cmp, audit) = flow.run_audited(&design.mapped, &design.placement)?;
            let rendered = svt_obs::audit::render_audit(&audit);
            std::fs::create_dir_all(dir)?;
            std::fs::write(format!("{dir}/audit_{name}.txt"), &rendered.text)?;
            std::fs::write(format!("{dir}/audit_{name}.json"), &rendered.json)?;
            // Excerpt: header + circuit spread + the first few trim rows.
            for line in rendered.text.lines().take(14) {
                eprintln!("{line}");
            }
            eprintln!(
                "… {} arcs, {} endpoints audited -> {dir}/audit_{name}.{{txt,json}}",
                audit.instances.len(),
                audit.paths.len()
            );
            cmp
        } else {
            flow.run(&design.mapped, &design.placement)?
        };
        println!(
            "{:<8} {:>7} | {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} | {:>9.1}%",
            cmp.testcase,
            design.source_gates,
            cmp.traditional.nom_ns,
            cmp.traditional.bc_ns,
            cmp.traditional.wc_ns,
            cmp.aware.nom_ns,
            cmp.aware.bc_ns,
            cmp.aware.wc_ns,
            cmp.uncertainty_reduction_pct(),
        );
    }
    println!("\n# Paper shape: 28–40% reduction in BC→WC timing spread.");
    svt_obs::emit_if_enabled();
    Ok(())
}
