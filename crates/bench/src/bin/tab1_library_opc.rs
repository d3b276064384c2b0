//! Paper Table 1: comparison of library-based OPC and full-chip OPC —
//! the percentage of devices whose library-OPC CD prediction falls within
//! 1 % / 3 % / 6 % of the full-chip OPC sign-off CD, with runtimes.
//!
//! ```text
//! cargo run --release -p svt-bench --bin tab1_library_opc [benchmark ...]
//! ```

use svt_bench::{figures, PAPER_TESTCASES};
use svt_stdcell::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    svt_obs::reinit_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let testcases: Vec<String> = if args.is_empty() {
        PAPER_TESTCASES.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    println!("# Table 1 — library-based vs full-chip OPC");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "testcase", "devices", "N-1%", "N-3%", "N-6%", "fullchip(s)", "library(s)"
    );

    let mut library_runtime_reported = false;
    for name in &testcases {
        // The expensive flow (per-instance correction in real context)
        // against the cheap one (correct each master once, assemble, audit).
        let row = figures::tab1(name)?;
        if !library_runtime_reported {
            println!(
                "# one-time library-OPC master correction: {:.2} s for {} masters",
                row.master_time.as_secs_f64(),
                Library::svt90().cells().len()
            );
            library_runtime_reported = true;
        }
        let cmp = row.comparison;
        println!(
            "{:<10} {:>8} {:>7.1}% {:>7.1}% {:>7.1}% {:>12.1} {:>12.2}",
            name,
            cmp.total,
            cmp.pct_within(cmp.within_1pct),
            cmp.pct_within(cmp.within_3pct),
            cmp.pct_within(cmp.within_6pct),
            row.full.runtime.as_secs_f64(),
            row.library.runtime.as_secs_f64(),
        );
    }
    println!(
        "\n# Paper shape: ~50% of devices within 1%, nearly all within 6%, and the\n# full-chip runtime grows with design size while library OPC cost is one-time\n# (its per-design column above is assembly + sign-off audit only)."
    );
    svt_obs::emit_if_enabled();
    Ok(())
}
