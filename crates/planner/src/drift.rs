//! Model-vs-measured drift: how far a plan's predicted cost was from what
//! an instrumented execution actually did.
//!
//! The planner commits to a distribution based on its analytic
//! [`CostBreakdown`](crate::CostBreakdown). When the same plan later runs on
//! the real threaded runtime with an [`sbc_obs::Recorder`] attached, the
//! drained [`ExecProfile`] holds the ground truth. [`compare`] lines the two
//! up:
//!
//! * **messages / bytes** must match *exactly* — both sides count the same
//!   discrete tile transfers, so any drift here is a bug in the model or
//!   the executor, not noise;
//! * **time** is expected to drift: the model prices kernels with the
//!   paper's bora-platform constants while the measured run executes real
//!   kernels on whatever machine hosts the threads. The ratio is still
//!   useful — it is the calibration factor a user would apply to trust the
//!   planner's makespan predictions on their hardware.

use sbc_obs::ExecProfile;

use crate::planner::Plan;

/// Predicted-vs-measured comparison for one executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Distribution the plan committed to (human-readable).
    pub choice: String,
    /// Messages the cost model predicted.
    pub predicted_messages: u64,
    /// Messages the instrumented run actually sent.
    pub measured_messages: u64,
    /// Bytes implied by the predicted messages (one `b x b` tile each).
    pub predicted_bytes: u64,
    /// Bytes the instrumented run actually sent.
    pub measured_bytes: u64,
    /// Busiest-node compute seconds the model predicted (imbalance folded
    /// in).
    pub predicted_compute_seconds: f64,
    /// Busiest-node kernel seconds actually measured.
    pub measured_compute_seconds: f64,
    /// Busiest backbone-link serialization seconds the model predicted
    /// (0 on the platform's single switch, which has no backbone; see
    /// [`CostBreakdown`](crate::CostBreakdown)).
    pub predicted_cross_boundary_seconds: f64,
    /// Model makespan (compute + communication serialization bound).
    pub predicted_total_seconds: f64,
    /// Measured wall-clock seconds, first task start to last task end.
    pub measured_wall_seconds: f64,
}

impl DriftReport {
    /// `true` when the communication model was exact — measured messages
    /// and bytes equal the prediction.
    pub fn comm_exact(&self) -> bool {
        self.predicted_messages == self.measured_messages
            && self.predicted_bytes == self.measured_bytes
    }

    /// measured / predicted message count (1.0 = exact).
    pub fn message_ratio(&self) -> f64 {
        ratio(
            self.measured_messages as f64,
            self.predicted_messages as f64,
        )
    }

    /// measured / predicted compute seconds — the kernel-speed calibration
    /// factor between the model's platform and the host machine.
    pub(crate) fn compute_ratio(&self) -> f64 {
        ratio(
            self.measured_compute_seconds,
            self.predicted_compute_seconds,
        )
    }

    /// measured / predicted end-to-end seconds.
    pub(crate) fn wall_ratio(&self) -> f64 {
        ratio(self.measured_wall_seconds, self.predicted_total_seconds)
    }

    /// Multi-line text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("drift report ({})\n", self.choice));
        out.push_str(&format!(
            "  messages  predicted {:>12}  measured {:>12}  ratio {:.3}{}\n",
            self.predicted_messages,
            self.measured_messages,
            self.message_ratio(),
            if self.predicted_messages == self.measured_messages {
                "  [exact]"
            } else {
                "  [DRIFT]"
            }
        ));
        out.push_str(&format!(
            "  bytes     predicted {:>12}  measured {:>12}  ratio {:.3}{}\n",
            self.predicted_bytes,
            self.measured_bytes,
            ratio(self.measured_bytes as f64, self.predicted_bytes as f64),
            if self.predicted_bytes == self.measured_bytes {
                "  [exact]"
            } else {
                "  [DRIFT]"
            }
        ));
        out.push_str(&format!(
            "  compute   predicted {:>11.6}s  measured {:>11.6}s  ratio {:.3}\n",
            self.predicted_compute_seconds,
            self.measured_compute_seconds,
            self.compute_ratio()
        ));
        if self.predicted_cross_boundary_seconds > 0.0 {
            out.push_str(&format!(
                "  boundary  predicted {:>11.6}s  (busiest backbone link direction)\n",
                self.predicted_cross_boundary_seconds
            ));
        }
        out.push_str(&format!(
            "  wall      predicted {:>11.6}s  measured {:>11.6}s  ratio {:.3}\n",
            self.predicted_total_seconds,
            self.measured_wall_seconds,
            self.wall_ratio()
        ));
        out
    }
}

fn ratio(measured: f64, predicted: f64) -> f64 {
    if predicted <= 0.0 {
        if measured <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        measured / predicted
    }
}

/// Lines up `plan`'s predicted cost with the measured `profile` of an
/// instrumented execution of that plan.
pub fn compare(plan: &Plan, profile: &ExecProfile) -> DriftReport {
    let tile_bytes = (plan.b * plan.b * 8) as u64;
    DriftReport {
        choice: plan.choice.describe(),
        predicted_messages: plan.cost.messages,
        measured_messages: profile.messages,
        predicted_bytes: plan.cost.messages * tile_bytes,
        measured_bytes: profile.bytes,
        predicted_compute_seconds: plan.cost.compute_seconds,
        measured_compute_seconds: profile.max_busy_seconds(),
        predicted_cross_boundary_seconds: plan.cost.cross_boundary_seconds,
        predicted_total_seconds: plan.cost.total_seconds,
        measured_wall_seconds: profile.wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Planner};
    use sbc_simgrid::Platform;
    use std::collections::BTreeMap;

    fn profile_matching(plan: &Plan) -> ExecProfile {
        ExecProfile {
            wall_seconds: plan.cost.total_seconds * 2.0,
            nodes: 4,
            busy_per_node: vec![plan.cost.compute_seconds; 4],
            messages: plan.cost.messages,
            bytes: plan.cost.messages * (plan.b * plan.b * 8) as u64,
            dep_wait_seconds: 0.0,
            per_kind: BTreeMap::new(),
        }
    }

    #[test]
    fn exact_comm_is_reported_exact() {
        let plan = Planner::new(Platform::bora(4)).plan(Op::Potrf, 8, 4);
        let report = compare(&plan, &profile_matching(&plan));
        assert!(report.comm_exact());
        assert!((report.message_ratio() - 1.0).abs() < 1e-12);
        assert!((report.wall_ratio() - 2.0).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("[exact]"), "{text}");
        assert!(!text.contains("[DRIFT]"), "{text}");
    }

    #[test]
    fn comm_drift_is_flagged() {
        let plan = Planner::new(Platform::bora(4)).plan(Op::Potrf, 8, 4);
        let mut profile = profile_matching(&plan);
        profile.messages += 7;
        let report = compare(&plan, &profile);
        assert!(!report.comm_exact());
        assert!(report.message_ratio() > 1.0);
        assert!(report.render().contains("[DRIFT]"));
    }

    #[test]
    fn zero_prediction_ratios_are_defined() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(3.0, 0.0), f64::INFINITY);
    }
}
