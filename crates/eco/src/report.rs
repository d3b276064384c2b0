use svt_core::SignoffComparison;
use svt_obs::audit::DeltaAudit;

/// One changed timing endpoint at one corner.
///
/// With a fixed clock period the slack of an endpoint is
/// `period − arrival`, so the slack delta equals the arrival *decrease*:
/// positive [`EndpointDelta::slack_delta_ns`] means the edit made the
/// path faster at this corner. The arrival values are the derate-free
/// corner arrivals straight from the STA reports, compared bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointDelta {
    /// Endpoint (primary output) name.
    pub endpoint: String,
    /// Corner name (`traditional-bc` … `aware-wc`, audit naming).
    pub corner: String,
    /// Arrival before the edit, ns.
    pub arrival_before_ns: f64,
    /// Arrival after the edit, ns.
    pub arrival_after_ns: f64,
}

impl EndpointDelta {
    /// Slack movement at a fixed required time: `before − after` of the
    /// arrival; positive = the endpoint got faster.
    #[must_use]
    pub fn slack_delta_ns(&self) -> f64 {
        self.arrival_before_ns - self.arrival_after_ns
    }
}

/// What one [`EcoEdit`](crate::EcoEdit) changed, as measured by the
/// incremental re-sign-off.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// Description of the applied edit.
    pub edit: String,
    /// Rows whose device sites were re-extracted.
    pub rows_extracted: Vec<usize>,
    /// Instances re-characterized (litho dirt): the edited instance plus
    /// every neighbor inside the radius of influence whose context or
    /// device classes changed.
    pub recharacterized: Vec<usize>,
    /// Through-pitch CD cache rows dropped by the targeted invalidation.
    pub pitch_rows_invalidated: usize,
    /// Total instances re-evaluated across all six corners: the
    /// re-bound instances and drivers of re-loaded nets, plus every
    /// instance downstream whose input arrival or slew changed bits.
    pub forward_instances: usize,
    /// Total nets with recomputed required times across all six corners:
    /// the fan-in cones of the re-evaluated instances.
    pub backward_nets: usize,
    /// Changed endpoint/corner pairs, bit-exact, audit corner order then
    /// endpoint order.
    pub endpoint_deltas: Vec<EndpointDelta>,
    /// The Table 2 comparison before the edit.
    pub before: SignoffComparison,
    /// The Table 2 comparison after the edit.
    pub after: SignoffComparison,
    /// The audit delta; splices bit-exactly into the pre-edit audit
    /// trail.
    pub delta_audit: DeltaAudit,
}

impl DeltaReport {
    /// Movement of the traditional-vs-aware spread gap: change in
    /// `traditional spread − aware spread`, ns. Positive means the aware
    /// methodology buys *more* spread reduction after the edit.
    #[must_use]
    pub fn spread_gap_delta_ns(&self) -> f64 {
        let gap_after = self.after.traditional.spread_ns() - self.after.aware.spread_ns();
        let gap_before = self.before.traditional.spread_ns() - self.before.aware.spread_ns();
        gap_after - gap_before
    }

    /// Change in the headline `uncertainty_reduction_pct`, percentage
    /// points.
    #[must_use]
    pub fn uncertainty_reduction_delta_pct(&self) -> f64 {
        self.after.uncertainty_reduction_pct() - self.before.uncertainty_reduction_pct()
    }

    /// Whether the edit changed no audited timing value at all.
    #[must_use]
    pub fn is_timing_noop(&self) -> bool {
        self.endpoint_deltas.is_empty() && self.delta_audit.is_noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_delta_is_arrival_decrease() {
        let d = EndpointDelta {
            endpoint: "po0".into(),
            corner: "aware-wc".into(),
            arrival_before_ns: 1.25,
            arrival_after_ns: 1.10,
        };
        assert!((d.slack_delta_ns() - 0.15).abs() < 1e-12);
    }
}
