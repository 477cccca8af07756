//! End-to-end observability: a real (non-simulated) distributed Cholesky
//! across many virtual nodes, recorded, exported, and cross-checked against
//! the planner's predictions — the acceptance pipeline behind `paper obs`.

use sbc::dist::{Distribution, SbcExtended};
use sbc::obs::{
    chrome_trace, json, metrics_from_recording, render_gantt, task_spans, Event, ExecProfile,
    GaugeKind, Recorder,
};
use sbc::planner::{compare, DistChoice, Op, Plan, Planner};
use sbc::runtime::Run;
use sbc::simgrid::Platform;
use sbc::topo::zoo;
use std::sync::Arc;

#[test]
fn recorded_distributed_cholesky_exports_everything() {
    // Plan a POTRF on the paper's 10-node bora platform and execute it for
    // real: 10 OS threads, channels as the interconnect.
    let planner = Planner::new(Platform::bora(10));
    let plan = planner.plan(Op::Potrf, 12, 8);
    let recorder = Recorder::new();
    let exec = Run::plan(&plan).seed(7).seed_rhs(11).recorder(&recorder);
    let outcome = exec.execute().expect("distributed execution failed");
    let recording = recorder.drain();

    // Every node participated and left events behind.
    let nodes = recording.nodes();
    assert!(nodes >= 4, "want a genuinely distributed run, got {nodes}");
    for n in 0..nodes as u32 {
        assert!(recording.events_on(n) > 0, "node {n} recorded nothing");
    }

    // Chrome trace: valid JSON with at least one event per node.
    let trace = chrome_trace(&recording);
    json::validate(&trace).expect("chrome trace must be valid JSON");
    for n in 0..nodes {
        assert!(
            trace.contains(&format!("\"pid\":{n},")),
            "no trace events for node {n}"
        );
    }

    // Text Gantt over the measured spans.
    let spans = task_spans(&recording);
    assert_eq!(spans.len(), exec.task_graph().len());
    let gantt = render_gantt(&spans, nodes, 1, 60);
    assert!(gantt.contains("gantt ("));
    assert_eq!(gantt.lines().count(), 1 + nodes);

    // Metrics snapshot: per-kind latency histograms whose counts add up to
    // the executed task count.
    let metrics = metrics_from_recording(&recording);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("tasks.executed"),
        Some(exec.task_graph().len() as u64)
    );
    assert_eq!(snap.counter("messages.sent"), Some(outcome.stats.messages));
    let latency_total: u64 = ["potrf", "trsm", "syrk", "gemm"]
        .iter()
        .filter_map(|k| snap.histogram(&format!("latency.{k}")))
        .map(|h| h.count)
        .sum();
    assert_eq!(latency_total, exec.task_graph().len() as u64);
    let report = snap.render();
    assert!(report.contains("latency.potrf"), "{report}");

    // Drift: the measured run must hit the model's communication exactly.
    let profile = ExecProfile::from_recording(&recording);
    assert_eq!(profile.messages, outcome.stats.messages);
    assert_eq!(profile.messages, plan.cost.messages);
    assert_eq!(profile.bytes, outcome.stats.bytes);
    let drift = compare(&plan, &profile);
    assert!(drift.comm_exact(), "{}", drift.render());
    assert!((drift.message_ratio() - 1.0).abs() < 1e-12);
}

/// A composed operation runs exactly the messages its plan priced: the
/// planner counts the merged task stream the runtime executes, for POSV and
/// for the POTRI remap strategy alike.
#[test]
fn composed_plans_drift_by_no_message() {
    let planner = Planner::new(Platform::bora(6));
    let (nt, b) = (12, 8);
    let posv = planner.plan(Op::Posv, nt, b);
    let (choice, cost) = planner
        .scored_candidates(Op::Potri, nt, b)
        .into_iter()
        .find(|(c, _)| matches!(c, DistChoice::PotriRemap { .. }))
        .expect("a remap candidate on 6 nodes");
    let remap = Plan {
        op: Op::Potri,
        nt,
        b,
        choice,
        cost,
        cached: false,
    };
    for plan in [posv, remap] {
        let recorder = Recorder::new();
        let run = Run::plan(&plan).seed(3).recorder(&recorder);
        run.execute().expect("distributed execution failed");
        let drift = compare(&plan, &ExecProfile::from_recording(&recorder.drain()));
        assert!(drift.comm_exact(), "{}", drift.render());
    }
}

#[test]
fn simulated_and_measured_traces_share_the_gantt() {
    use sbc::simgrid::Simulator;

    // The simulator's traces and the runtime's measured spans are the same
    // type now — one renderer serves both.
    let planner = Planner::new(Platform::bora(10));
    let plan = planner.plan(Op::Potrf, 10, 8);
    let graph = plan.graph();

    let platform = Platform::bora(10);
    let (_, sim_trace) = Simulator::new(&graph, &platform, plan.sim_config()).run_traced();
    let sim_gantt = render_gantt(&sim_trace, 10, platform.cores_per_node, 40);
    assert!(sim_gantt.contains("node   0 |"));

    let recorder = Recorder::new();
    Run::plan(&plan)
        .seed(1)
        .seed_rhs(2)
        .recorder(&recorder)
        .execute()
        .expect("distributed execution failed");
    let measured = task_spans(&recorder.drain());
    assert_eq!(measured.len(), sim_trace.len());
    let measured_gantt = render_gantt(&measured, 10, 1, 40);
    assert!(measured_gantt.contains("node   0 |"));
}

/// A rank is stepped by pooled threads, not run by its own, and a recording
/// keeps its vocabulary: one task span per task of the graph, each on a lane
/// of the rank that ran it, and dep-wait spans — from a rank going idle with
/// a job in flight to the arrival that ended the wait — on every rank that
/// waited on a remote tile.
#[test]
fn a_pooled_run_records_task_and_dep_wait_spans_per_rank() {
    let workers = 2;
    let recorder = Recorder::new();
    let run = Run::potrf(&SbcExtended::new(4), 12)
        .block(8)
        .workers(workers)
        .recorder(&recorder);
    let outcome = run.execute().expect("distributed execution failed");
    let recording = recorder.drain();
    assert_eq!(task_spans(&recording).len(), run.task_graph().len());

    let (mut received, mut waited) = (Vec::new(), Vec::new());
    for e in &recording.events {
        match *e {
            Event::Task { worker, .. } => assert!(worker < workers as u32, "lane {worker}"),
            Event::Recv { node, .. } => received.push(node),
            Event::DepWait { node, start, end } => {
                assert!(end >= start, "a dep-wait span ends before it starts");
                waited.push(node);
            }
            _ => {}
        }
    }
    received.sort_unstable();
    received.dedup();
    waited.sort_unstable();
    waited.dedup();
    // every rank that received a tile had a task waiting for it
    assert_eq!(received.len(), 6, "every rank of the mesh receives");
    assert_eq!(waited, received, "ranks with dep-wait spans");
    let profile = ExecProfile::from_recording(&recording);
    assert!(profile.dep_wait_seconds > 0.0);
    assert_eq!(profile.messages, outcome.stats.messages);
}

/// A replica leaves its rank once its last local reader ran. So under
/// either zoo scheduler, each rank's peak of resident tiles (the
/// `TileStore` gauge: the full slots of the job's one tile table, owned
/// tiles and replicas alike) stays below what the rank would hold at the
/// end of the job if nothing were freed: its owned tiles plus one replica
/// per remote input.
#[test]
fn replicas_leave_their_rank_before_the_job_ends() {
    let (d, nt) = (SbcExtended::new(4), 12);
    for sched in zoo() {
        let name = sched.name();
        let recorder = Recorder::new();
        let run = Run::potrf(&d, nt)
            .block(8)
            .scheduler(Arc::from(sched))
            .recorder(&recorder);
        run.execute().expect("distributed execution failed");
        let recording = recorder.drain();
        let graph = run.task_graph();
        for rank in 0..graph.num_nodes() as u32 {
            let owned = (0..nt)
                .flat_map(|i| (0..=i).map(move |j| (i, j)))
                .filter(|&(i, j)| d.owner(i, j) == rank as usize)
                .count();
            let at_end = owned + graph.rank_view(rank).inputs();
            let peak = recording
                .events
                .iter()
                .filter_map(|e| match *e {
                    Event::Gauge {
                        node,
                        gauge: GaugeKind::TileStore,
                        value,
                        ..
                    } if node == rank => Some(value),
                    _ => None,
                })
                .fold(0.0, f64::max);
            assert!(peak > 0.0, "{name} rank {rank}: no tile-store sample");
            assert!(
                peak < at_end as f64,
                "{name} rank {rank}: peak {peak} tiles, {at_end} at the end of the job"
            );
        }
    }
}
