//! Paper Fig. 7: distribution of CD error (simulated post full-chip
//! model-based OPC vs nominal drawn CD) for the c3540 benchmark.
//!
//! ```text
//! cargo run --release -p svt-bench --bin fig7_opc_error_hist [benchmark]
//! ```

use svt_bench::{build_design, figures, hbar, signoff_simulator};
use svt_core::FullChipOpc;
use svt_opc::{error_histogram, OpcOptions};
use svt_stdcell::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    svt_obs::reinit_from_env();
    let name = std::env::args().nth(1).unwrap_or_else(|| "c3540".into());
    let library = Library::svt90();
    let sim = signoff_simulator();
    let design = build_design(&library, &name);
    eprintln!(
        "running full-chip OPC on {name} ({} instances, {} rows)…",
        design.mapped.instances().len(),
        design.placement.rows().len()
    );

    let flow = FullChipOpc::new(&sim, OpcOptions::default());
    let result = flow.run(&design.mapped, &design.placement, &library)?;
    let errors = result.percent_errors(90.0);

    println!(
        "# Fig. 7 — % CD error after full-chip model-based OPC, {name} ({} devices, {} printed)",
        result.devices.len(),
        errors.len()
    );
    println!(
        "# OPC runtime {:.1} s; {}/{} row cutlines converged",
        result.runtime.as_secs_f64(),
        result.converged_rows,
        result.total_rows
    );

    let bins = error_histogram(&errors, 1.0);
    let max_count = bins.iter().map(|b| b.count).max().unwrap_or(0);
    println!("\n{:>8} {:>8}  histogram", "err(%)", "devices");
    for b in &bins {
        println!(
            "{:>8.1} {:>8}  {}",
            b.center_pct,
            b.count,
            hbar(b.count, max_count, 50)
        );
    }

    let (mean, worst) = figures::error_summary(&errors);
    println!("\n# mean error {mean:+.2}%, worst |{worst:.2}|% (paper observed up to ~20%)");
    svt_obs::emit_if_enabled();
    Ok(())
}
