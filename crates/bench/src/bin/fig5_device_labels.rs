//! Paper Fig. 5: device labeling of a placed design — every device
//! classified isolated / dense / self-compensated from its neighbor
//! spacings, plus the resulting arc-label population.
//!
//! ```text
//! cargo run --release -p svt-bench --bin fig5_device_labels [benchmark]
//! ```

use svt_bench::figures;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    svt_obs::reinit_from_env();
    let name = std::env::args().nth(1).unwrap_or_else(|| "c432".into());
    let data = figures::fig5(&name)?;

    let total: usize = data.devices.iter().sum();
    println!("# Fig. 5 — device classification of placed {name} ({total} devices)");
    for (label, n) in ["isolated", "dense", "self-compensated"]
        .iter()
        .zip(data.devices)
    {
        println!(
            "{label:<18} {n:>6} ({:.1}%)",
            100.0 * n as f64 / total as f64
        );
    }

    // Arc labels: per instance, per arc, with the paper's majority policy.
    let arcs: usize = data.arcs.iter().sum();
    println!("\n# timing-arc labels (majority policy, {arcs} arcs)");
    for (label, n) in ["smile (dense)", "frown (isolated)", "self-compensated"]
        .iter()
        .zip(data.arcs)
    {
        println!(
            "{label:<18} {n:>6} ({:.1}%)",
            100.0 * n as f64 / arcs as f64
        );
    }
    svt_obs::emit_if_enabled();
    Ok(())
}
