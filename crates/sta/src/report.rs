use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::incremental::Topology;
use crate::AnalysisMode;

/// Sentinel instance id marking "no driving arc" (primary inputs).
pub(crate) const NO_FROM: u32 = u32::MAX;

/// The winning arc of a net's arrival: the driving instance and the index
/// of the `connections` entry the path came through. `inst == NO_FROM`
/// marks a primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FromRef {
    /// Driving instance index (`NO_FROM` for primary inputs).
    pub inst: u32,
    /// Index into that instance's `connections` for the input pin.
    pub conn: u32,
}

impl FromRef {
    /// The primary-input marker.
    pub(crate) const NONE: FromRef = FromRef {
        inst: NO_FROM,
        conn: NO_FROM,
    };

    /// Whether this is the primary-input marker.
    pub(crate) fn is_none(self) -> bool {
        self.inst == NO_FROM
    }
}

/// One step of a reported timing path, ending on `net`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Net the step arrives on.
    pub net: String,
    /// Driving instance index (`None` for the primary-input step).
    pub instance: Option<usize>,
    /// Input pin of the driving instance the path came through.
    pub through_pin: Option<String>,
    /// Arrival time at the net.
    pub arrival_ns: f64,
}

/// The result of one timing analysis.
///
/// Timing state is stored as flat structure-of-arrays vectors indexed by
/// the interned net ids of the shared `Topology` — one cache-friendly
/// `f64` lane per quantity instead of a per-net hash map. The public
/// accessors translate names to ids at the boundary, so callers are
/// unaffected by the layout.
///
/// # Examples
///
/// ```
/// use svt_netlist::{bench, technology_map};
/// use svt_sta::{analyze, CellBinding, TimingOptions};
/// use svt_stdcell::Library;
///
/// let lib = Library::svt90();
/// let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
/// let mapped = technology_map(&n, &lib)?;
/// let binding = CellBinding::nominal(&mapped, &lib)?;
/// let report = analyze(&mapped, &binding, &TimingOptions::default())?;
/// let slack = report.worst_slack_ns(1.0);
/// assert!(slack > 0.0, "an inverter easily makes a 1 ns clock");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Interned connectivity the id-indexed lanes below refer to.
    pub(crate) topo: Arc<Topology>,
    pub(crate) mode: AnalysisMode,
    /// Arrival time (ns) per net id.
    pub(crate) arrival: Vec<f64>,
    /// Transition time (ns) per net id.
    pub(crate) slew: Vec<f64>,
    /// Winning arc per net id ([`FromRef::NONE`] for primary inputs).
    pub(crate) from: Vec<FromRef>,
    /// Required time (ns) per net id; empty when the analysis ran without
    /// a clock period. Meaningful only where `has_required` is set.
    pub(crate) required: Vec<f64>,
    /// Whether a net has a required time; empty when no clock was given.
    pub(crate) has_required: Vec<bool>,
}

impl TimingReport {
    pub(crate) fn from_soa(
        topo: Arc<Topology>,
        mode: AnalysisMode,
        arrival: Vec<f64>,
        slew: Vec<f64>,
        from: Vec<FromRef>,
        required: Vec<f64>,
        has_required: Vec<bool>,
    ) -> TimingReport {
        TimingReport {
            topo,
            mode,
            arrival,
            slew,
            from,
            required,
            has_required,
        }
    }

    fn net_id(&self, net: &str) -> Option<usize> {
        self.topo.net_ids.get(net).map(|&id| id as usize)
    }

    /// Design name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.topo.design
    }

    /// The analysis mode the report was produced in.
    #[must_use]
    pub fn mode(&self) -> AnalysisMode {
        self.mode
    }

    /// The arrival time of a net, if it was analyzed.
    #[must_use]
    pub fn arrival_of(&self, net: &str) -> Option<f64> {
        self.net_id(net).map(|id| self.arrival[id])
    }

    /// The slew of a net, if it was analyzed.
    #[must_use]
    pub fn slew_of(&self, net: &str) -> Option<f64> {
        self.net_id(net).map(|id| self.slew[id])
    }

    /// The arc that set a net's arrival: the driving instance's index and
    /// the index of the `connections` entry (its input pin) the winning
    /// path came through. `None` for primary inputs, undriven nets and
    /// unknown names.
    #[must_use]
    pub fn driving_arc_of(&self, net: &str) -> Option<(usize, usize)> {
        let from = self.from[self.net_id(net)?];
        (!from.is_none()).then_some((from.inst as usize, from.conn as usize))
    }

    /// Arrival per primary output, in output order.
    #[must_use]
    pub fn po_arrivals(&self) -> Vec<(String, f64)> {
        self.topo
            .po_ids
            .iter()
            .map(|&po| {
                (
                    self.topo.net_names[po as usize].clone(),
                    self.arrival[po as usize],
                )
            })
            .collect()
    }

    /// The circuit delay: the extreme primary-output arrival (max in late
    /// mode, min in early mode).
    #[must_use]
    pub fn circuit_delay_ns(&self) -> f64 {
        let arrivals = self.topo.po_ids.iter().map(|&po| self.arrival[po as usize]);
        match self.mode {
            AnalysisMode::Late => arrivals.fold(0.0, f64::max),
            AnalysisMode::Early => arrivals.fold(f64::INFINITY, f64::min),
        }
    }

    /// The primary output setting the circuit delay.
    #[must_use]
    pub fn critical_output(&self) -> Option<String> {
        let target = self.circuit_delay_ns();
        self.topo
            .po_ids
            .iter()
            .find(|&&po| (self.arrival[po as usize] - target).abs() < 1e-12)
            .map(|&po| self.topo.net_names[po as usize].clone())
    }

    /// Walks the critical path backward from the critical output to a
    /// primary input. Steps are returned source-first.
    #[must_use]
    pub fn critical_path(&self) -> Vec<PathStep> {
        let Some(mut id) = self.critical_output().and_then(|net| self.net_id(&net)) else {
            return Vec::new();
        };
        let mut steps = Vec::new();
        loop {
            let from = self.from[id];
            steps.push(PathStep {
                net: self.topo.net_names[id].clone(),
                instance: (!from.is_none()).then_some(from.inst as usize),
                through_pin: (!from.is_none())
                    .then(|| self.topo.conn_pin(from.inst, from.conn).to_string()),
                arrival_ns: self.arrival[id],
            });
            if from.is_none() {
                break;
            }
            id = self.topo.conn_ids[from.inst as usize][from.conn as usize] as usize;
        }
        steps.reverse();
        steps
    }

    /// The required time of a net (available when the analysis ran with a
    /// clock period).
    #[must_use]
    pub fn required_of(&self, net: &str) -> Option<f64> {
        let id = self.net_id(net)?;
        self.has_required
            .get(id)
            .copied()
            .unwrap_or(false)
            .then(|| self.required[id])
    }

    /// The slack of a net: `required − arrival`. `None` when the net has
    /// no required time (no clock period, or the net drives nothing
    /// timed).
    #[must_use]
    pub fn slack_of(&self, net: &str) -> Option<f64> {
        let id = self.net_id(net)?;
        self.has_required
            .get(id)
            .copied()
            .unwrap_or(false)
            .then(|| self.required[id] - self.arrival[id])
    }

    /// The worst (most negative) slack over all nets with required times,
    /// if the analysis ran with a clock period.
    #[must_use]
    pub fn worst_net_slack_ns(&self) -> Option<f64> {
        self.has_required
            .iter()
            .enumerate()
            .filter(|&(_, &has)| has)
            .map(|(id, _)| self.required[id] - self.arrival[id])
            .min_by(f64::total_cmp)
    }

    /// Total negative slack over primary outputs, if a clock period was
    /// given.
    #[must_use]
    pub fn total_negative_slack_ns(&self) -> Option<f64> {
        if self.has_required.is_empty() {
            return None;
        }
        Some(
            self.topo
                .po_ids
                .iter()
                .filter(|&&po| self.has_required[po as usize])
                .map(|&po| self.required[po as usize] - self.arrival[po as usize])
                .filter(|s| *s < 0.0)
                .sum(),
        )
    }

    /// Worst slack against a clock period: `period − circuit delay` in late
    /// mode.
    #[must_use]
    pub fn worst_slack_ns(&self, clock_period_ns: f64) -> f64 {
        clock_period_ns - self.circuit_delay_ns()
    }

    /// Per-output slack against a clock period, output order preserved.
    #[must_use]
    pub fn output_slacks_ns(&self, clock_period_ns: f64) -> Vec<(String, f64)> {
        self.po_arrivals()
            .into_iter()
            .map(|(po, a)| (po, clock_period_ns - a))
            .collect()
    }
}

/// Formats the critical path as a classic sign-off text report
/// (startpoint → per-stage increments → endpoint, with slack when the
/// analysis ran against a clock period).
///
/// # Examples
///
/// ```
/// use svt_netlist::{bench, technology_map};
/// use svt_sta::{analyze, format_path_report, CellBinding, TimingOptions};
/// use svt_stdcell::Library;
///
/// let lib = Library::svt90();
/// let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
/// let mapped = technology_map(&n, &lib)?;
/// let binding = CellBinding::nominal(&mapped, &lib)?;
/// let opts = TimingOptions { clock_period_ns: Some(1.0), ..TimingOptions::default() };
/// let report = analyze(&mapped, &binding, &opts)?;
/// let text = format_path_report(&report, &mapped, &binding);
/// assert!(text.contains("Startpoint"));
/// assert!(text.contains("slack"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn format_path_report(
    report: &TimingReport,
    netlist: &svt_netlist::MappedNetlist,
    binding: &crate::CellBinding,
) -> String {
    use std::fmt::Write as _;
    let path = report.critical_path();
    let mut out = String::new();
    let _ = writeln!(out, "Design: {}", report.design());
    match path.first() {
        Some(first) => {
            let _ = writeln!(out, "Startpoint: {} (primary input)", first.net);
        }
        None => {
            out.push_str("No timed paths.\n");
            return out;
        }
    }
    if let Some(last) = path.last() {
        let _ = writeln!(out, "Endpoint:   {} (primary output)", last.net);
    }
    let _ = writeln!(
        out,
        "\n{:<24} {:<20} {:>9} {:>9}",
        "point", "cell (through pin)", "incr", "arrival"
    );
    let mut prev = 0.0;
    for step in &path {
        let through = match (step.instance, &step.through_pin) {
            (Some(idx), Some(pin)) => {
                let inst = &netlist.instances()[idx];
                format!("{} ({}/{})", binding.cell(idx).cell_name, inst.name, pin)
            }
            _ => "(input)".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<24} {:<20} {:>9.4} {:>9.4}",
            step.net,
            through,
            step.arrival_ns - prev,
            step.arrival_ns
        );
        prev = step.arrival_ns;
    }
    let _ = writeln!(out, "\ndata arrival time {:>30.4}", prev);
    if let Some(last) = path.last() {
        if let Some(required) = report.required_of(&last.net) {
            let _ = writeln!(out, "data required time {:>29.4}", required);
            let _ = writeln!(out, "slack {:>42.4}", required - prev);
        }
    }
    out
}

#[cfg(test)]
mod report_format_tests {
    use super::*;
    use crate::{analyze, CellBinding, TimingOptions};
    use svt_netlist::{bench, technology_map};
    use svt_stdcell::Library;

    #[test]
    fn report_lists_every_stage_in_order() {
        let lib = Library::svt90();
        let n =
            bench::parse("# chain\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NAND(a, x)\nz = NOT(y)\n")
                .unwrap();
        let mapped = technology_map(&n, &lib).unwrap();
        let binding = CellBinding::nominal(&mapped, &lib).unwrap();
        let opts = TimingOptions {
            clock_period_ns: Some(1.0),
            ..TimingOptions::default()
        };
        let report = analyze(&mapped, &binding, &opts).unwrap();
        let text = format_path_report(&report, &mapped, &binding);
        assert!(text.contains("Startpoint: a"));
        assert!(text.contains("Endpoint:   z"));
        // Stages appear in arrival order in the table body.
        let body = text.split("arrival").nth(1).expect("table header present");
        let pos = |s: &str| {
            body.find(s)
                .unwrap_or_else(|| panic!("missing {s} in:\n{text}"))
        };
        assert!(pos("\nx ") < pos("\ny "));
        assert!(pos("\ny ") < pos("\nz "));
        assert!(text.contains("slack"));
        // Increments sum to the arrival.
        let arrival = report.circuit_delay_ns();
        assert!(text.contains(&format!("{arrival:.4}")));
    }

    #[test]
    fn report_without_clock_omits_slack() {
        let lib = Library::svt90();
        let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        let mapped = technology_map(&n, &lib).unwrap();
        let binding = CellBinding::nominal(&mapped, &lib).unwrap();
        let report = analyze(&mapped, &binding, &TimingOptions::default()).unwrap();
        let text = format_path_report(&report, &mapped, &binding);
        assert!(!text.contains("slack"));
        assert!(text.contains("data arrival time"));
    }
}
