//! Deterministic Pareto reporting over {topology × scheduler ×
//! distribution} sweeps.
//!
//! Each simulated combination becomes a [`SweepPoint`]; the report groups
//! points by topology, sorts them deterministically, marks the Pareto
//! front of the **(makespan, cross-rack bytes)** bi-objective — the
//! paper's "fewer communications" claim restated for hierarchical
//! networks: how much time can be bought by keeping bytes inside a rack —
//! and relates every makespan to the analytic lower bound.

/// One simulated {topology, scheduler, distribution} combination.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Topology name (grouping key).
    pub topology: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Distribution label (e.g. `"SBC ext r=4 (P=6)"`).
    pub distribution: String,
    /// Simulated makespan, seconds.
    pub makespan: f64,
    /// Total messages on the wire.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Messages whose route crossed a rack boundary.
    pub cross_rack_messages: u64,
    /// Bytes that crossed a rack boundary — the second objective.
    pub cross_rack_bytes: u64,
    /// Analytic makespan lower bound (max of compute, port and
    /// critical-path bounds), seconds.
    pub lower_bound: f64,
}

/// Marks the Pareto-optimal points of the (makespan, cross-rack bytes)
/// minimization: `out[i]` is `true` iff no other point is at least as good
/// on both objectives and strictly better on one.
pub(crate) fn pareto_front(points: &[SweepPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            !points.iter().any(|q| {
                q.makespan <= p.makespan
                    && q.cross_rack_bytes <= p.cross_rack_bytes
                    && (q.makespan < p.makespan || q.cross_rack_bytes < p.cross_rack_bytes)
            })
        })
        .collect()
}

/// Renders the sweep as aligned text: one block per topology (in first-seen
/// order), rows sorted by `(makespan, scheduler, distribution)`, front rows
/// marked `*`. The output is a pure function of the points, so identical
/// sweeps produce byte-identical reports (the CI determinism check).
pub fn render_report(title: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));

    let mut topologies: Vec<&str> = Vec::new();
    for p in points {
        if !topologies.contains(&p.topology.as_str()) {
            topologies.push(&p.topology);
        }
    }

    for topo in topologies {
        let mut group: Vec<&SweepPoint> = points.iter().filter(|p| p.topology == topo).collect();
        group.sort_by(|a, b| {
            a.makespan
                .total_cmp(&b.makespan)
                .then_with(|| a.scheduler.cmp(&b.scheduler))
                .then_with(|| a.distribution.cmp(&b.distribution))
        });
        let owned: Vec<SweepPoint> = group.iter().map(|p| (*p).clone()).collect();
        let front = pareto_front(&owned);

        out.push_str(&format!("\n-- topology: {topo} --\n"));
        out.push_str(&format!(
            "{:>2} {:>12} {:>9} {:>10} {:>10} {:>10} {:>8}  {:<14} {}\n",
            "",
            "makespan(s)",
            "msgs",
            "MB",
            "xrack-msgs",
            "xrack-MB",
            "vs-LB",
            "scheduler",
            "distribution"
        ));
        for (p, on_front) in owned.iter().zip(&front) {
            let vs_lb = if p.lower_bound > 0.0 {
                p.makespan / p.lower_bound
            } else {
                1.0
            };
            out.push_str(&format!(
                "{:>2} {:>12.6} {:>9} {:>10.3} {:>10} {:>10.3} {:>7.3}x  {:<14} {}\n",
                if *on_front { "*" } else { "" },
                p.makespan,
                p.messages,
                p.bytes as f64 / 1e6,
                p.cross_rack_messages,
                p.cross_rack_bytes as f64 / 1e6,
                vs_lb,
                p.scheduler,
                p.distribution,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(topo: &str, sched: &str, makespan: f64, xrack: u64) -> SweepPoint {
        SweepPoint {
            topology: topo.into(),
            scheduler: sched.into(),
            distribution: "SBC ext r=4 (P=6)".into(),
            makespan,
            messages: 100,
            bytes: 100 << 20,
            cross_rack_messages: xrack / 1000,
            cross_rack_bytes: xrack,
            lower_bound: makespan / 2.0,
        }
    }

    #[test]
    fn front_keeps_non_dominated_points_only() {
        let pts = vec![
            point("t", "a", 1.0, 500), // fast, chatty: on front
            point("t", "b", 2.0, 100), // slow, quiet: on front
            point("t", "c", 2.5, 200), // dominated by b
            point("t", "d", 1.0, 500), // duplicate of a: both survive
        ];
        assert_eq!(pareto_front(&pts), vec![true, true, false, true]);
    }

    #[test]
    fn report_is_deterministic_and_groups_by_topology() {
        let pts = vec![
            point("flat", "critical-path", 1.5, 0),
            point("racks", "heft", 1.2, 900),
            point("flat", "heft", 1.4, 0),
        ];
        let a = render_report("sweep", &pts);
        let b = render_report("sweep", &pts);
        assert_eq!(a, b);
        assert!(a.contains("-- topology: flat --"));
        assert!(a.contains("-- topology: racks --"));
        // within the flat group, heft (faster) prints first
        let heft_at = a.find("heft").unwrap();
        let cp_at = a.find("critical-path").unwrap();
        assert!(heft_at < cp_at, "{a}");
        assert!(a.contains("vs-LB"));
    }

    #[test]
    fn lower_bound_ratio_handles_zero_bound() {
        let mut p = point("t", "a", 1.0, 0);
        p.lower_bound = 0.0;
        let r = render_report("z", &[p]);
        assert!(r.contains("1.000x"), "{r}");
    }
}
