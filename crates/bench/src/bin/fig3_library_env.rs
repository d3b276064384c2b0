//! Paper Fig. 3: the library-based OPC environment — a cell master
//! corrected inside dummy poly that emulates its future placement
//! neighbors. Prints the environment geometry and the corrected masks.
//!
//! ```text
//! cargo run --release -p svt-bench --bin fig3_library_env
//! ```

use svt_bench::figures;
use svt_stdcell::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    svt_obs::reinit_from_env();
    let library = Library::svt90();
    let cell = library.cell("NAND2X1").expect("NAND2X1 exists");
    let layout = cell.layout();

    println!(
        "# Fig. 3 — library-based OPC environment for {}",
        cell.name()
    );
    println!(
        "cell outline: {:.0} x {:.0} nm; boundary spacings s_LT={:.0} s_LB={:.0} s_RT={:.0} s_RB={:.0}",
        layout.width_nm(),
        layout.height_nm(),
        layout.boundary_spacings().s_lt,
        layout.boundary_spacings().s_lb,
        layout.boundary_spacings().s_rt,
        layout.boundary_spacings().s_rb,
    );

    for (region, corrected) in figures::fig3()?.rows {
        println!("\n{region:?}-row cutline (dummy poly at 150 nm outside the outline):");
        for (g, cd) in corrected.gates.iter().zip(&corrected.printed_cd_nm) {
            println!(
                "  gate @ x={:>6.1} nm: drawn {:.0} nm -> mask {:>6.2} nm -> prints {:>6.2} nm",
                g.center, g.target_cd, g.mask_width, cd
            );
        }
        println!(
            "  OPC: {} sweeps, residual {:.2} nm, converged: {}",
            corrected.report.sweeps, corrected.report.max_error_nm, corrected.report.converged
        );
    }
    svt_obs::emit_if_enabled();
    Ok(())
}
