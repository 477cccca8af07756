//! The discrete-event simulation engine.

use crate::platform::Platform;
use crate::stats::{SimReport, TraceEvent};
use sbc_taskgraph::{EdgeKind, TaskGraph, TaskId};
use sbc_topo::{CriticalPath, SchedCtx, Scheduler, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How ready tasks are released for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// StarPU/Chameleon behaviour: any dependency-free task may run; tasks
    /// of iteration `k + 1` start while iteration `k` is still in flight
    /// (Section II: "tasks of the next iteration can start even if the
    /// current iteration is not yet completed").
    #[default]
    Async,
    /// COnfCHOX-like static schedule: all tasks of iteration `k` must
    /// complete (globally) before any task of iteration `k + 1` starts.
    BulkSynchronous,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Tile dimension `b` (sets task durations and message sizes).
    pub tile_b: usize,
    /// Scheduling mode.
    pub mode: ScheduleMode,
    /// Order each node's outgoing messages by consumer-task priority
    /// instead of production (FIFO) order. StarPU-MPI processes requests in
    /// submission order by default, and FIFO also measures best here — the
    /// flag exists as an ablation (see `bench/ablations`).
    pub priority_comms: bool,
}

impl SimConfig {
    /// Asynchronous, priority-scheduled execution with tile size `b` — the
    /// configuration matching the paper's Chameleon runs.
    pub fn chameleon(tile_b: usize) -> Self {
        SimConfig {
            tile_b,
            mode: ScheduleMode::Async,
            priority_comms: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug)]
enum EventKind {
    /// A worker on `node` finished `task`.
    TaskDone { node: u32, task: TaskId },
    /// `node`'s send port is free again; start the next queued message.
    SendFree { node: u32 },
    /// A message has crossed the wire towards `dest`; contend for the
    /// receive port, then deliver.
    Arrive { msg: Msg },
    /// Message content available on the destination node.
    Deliver { msg: Msg },
}

#[derive(Debug)]
struct Msg {
    src: u32,
    dest: u32,
    bytes: u64,
    /// Scheduling priority of the most urgent consumer task: StarPU-MPI
    /// orders pending communication requests by the priority of the tasks
    /// waiting on them, so tiles feeding the critical path overtake queued
    /// bulk broadcasts.
    prio: f32,
    consumers: Vec<TaskId>,
}

/// Send-queue entry: highest priority first, FIFO among equal priorities.
struct QueuedMsg {
    msg: Msg,
    seq: u64,
}

impl PartialEq for QueuedMsg {
    fn eq(&self, other: &Self) -> bool {
        self.msg.prio == other.msg.prio && self.seq == other.seq
    }
}
impl Eq for QueuedMsg {}
impl PartialOrd for QueuedMsg {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedMsg {
    fn cmp(&self, other: &Self) -> Ordering {
        self.msg
            .prio
            .total_cmp(&other.msg.prio)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // min-heap via reversal: earliest time first, then insertion order
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-node mutable state.
struct NodeState {
    ready: BinaryHeap<(OrdF64, std::cmp::Reverse<TaskId>)>,
    idle_workers: u32,
    send_queue: BinaryHeap<QueuedMsg>,
    send_busy: bool,
    /// Time the receive port last finished delivering a message.
    recv_free: f64,
    busy_seconds: f64,
    send_port_seconds: f64,
    recv_port_seconds: f64,
}

/// The network model: the flat per-node NIC when `topo` is `None`,
/// per-route bandwidth/latency plus per-direction backbone serialization
/// when a [`Topology`] is attached.
struct NetModel<'a> {
    platform: &'a Platform,
    topo: Option<&'a Topology>,
}

impl NetModel<'_> {
    /// Port occupancy of one message (host overhead + serialization at the
    /// route's bottleneck bandwidth). With the degenerate single-switch
    /// topology the bottleneck *is* the NIC bandwidth, so this reproduces
    /// the flat model's `f64` arithmetic exactly.
    fn port_seconds(&self, src: u32, dest: u32, bytes: u64) -> f64 {
        match self.topo {
            None => self.platform.port_seconds(bytes),
            Some(t) => {
                self.platform.per_message_overhead + bytes as f64 / t.route(src, dest).bottleneck
            }
        }
    }

    fn cross_rack(&self, src: u32, dest: u32) -> bool {
        self.topo.is_some_and(|t| t.cross_rack(src, dest))
    }
}

/// Wire-traffic accounting.
#[derive(Default)]
struct Traffic {
    messages: u64,
    bytes: u64,
    cross_rack_messages: u64,
    cross_rack_bytes: u64,
}

/// Discrete-event simulator of a [`TaskGraph`] on a [`Platform`].
pub struct Simulator<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    config: SimConfig,
    priorities: Vec<f32>,
    topology: Option<&'a Topology>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulation whose ready queues are ranked by
    /// [`CriticalPath`] over the platform's task-time model; see
    /// [`Self::with_scheduler`] for any other order.
    ///
    /// # Panics
    /// Panics if the graph targets more nodes than the platform has.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform, config: SimConfig) -> Self {
        assert!(
            graph.num_nodes() <= platform.nodes,
            "graph placed on {} nodes but platform has {}",
            graph.num_nodes(),
            platform.nodes
        );
        Simulator {
            graph,
            platform,
            config,
            priorities: Vec::new(),
            topology: None,
        }
        .with_scheduler(&CriticalPath)
    }

    /// Prepares a simulation over an explicit network [`Topology`]: graph
    /// node `i` runs on topology host `i`. Message port times use each
    /// route's bottleneck bandwidth, arrival times its summed latency, and
    /// backbone (switch↔switch) links serialize per direction. With
    /// [`Topology::single_switch`] built from the platform's NIC constants
    /// this is **bit-identical** to [`Simulator::new`] (regression-tested).
    ///
    /// # Panics
    /// Panics if the graph targets more nodes than the topology has hosts,
    /// or more than the platform has nodes.
    pub fn with_topology(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        config: SimConfig,
        topology: &'a Topology,
    ) -> Self {
        assert!(
            graph.num_nodes() <= topology.hosts(),
            "graph placed on {} nodes but topology has {} hosts",
            graph.num_nodes(),
            topology.hosts()
        );
        let mut sim = Self::new(graph, platform, config);
        sim.topology = Some(topology);
        sim
    }

    /// Replaces the ready-queue ranks with `scheduler`'s. Task costs are the
    /// platform's modelled seconds; the communication cost handed to rank
    /// computation is the port time of one tile.
    /// `sbc_topo::SubmissionOrder` gives FIFO ready queues (the ablation of
    /// the StarPU priority heuristic).
    pub fn with_scheduler(mut self, scheduler: &dyn Scheduler) -> Self {
        let costs: Vec<f64> = self
            .graph
            .tasks()
            .iter()
            .map(|t| self.platform.task_seconds(&t.kind, self.config.tile_b))
            .collect();
        let tile_bytes = (self.config.tile_b * self.config.tile_b * 8) as u64;
        let ctx = SchedCtx {
            graph: self.graph,
            task_cost: &costs,
            comm_cost: self.platform.port_seconds(tile_bytes),
        };
        let ranks = scheduler.ranks(&ctx);
        assert_eq!(
            ranks.len(),
            self.graph.len(),
            "scheduler returned {} ranks for {} tasks",
            ranks.len(),
            self.graph.len()
        );
        self.priorities = ranks;
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    /// Panics if the simulation deadlocks (which would indicate a malformed
    /// graph — `TaskGraph::validate` should have caught it).
    pub fn run(&self) -> SimReport {
        self.run_impl(None)
    }

    /// Runs the simulation and records a per-task execution trace (for the
    /// Gantt renderer in [`crate::stats::render_gantt`]). Costs O(#tasks)
    /// extra memory — intended for small/medium graphs.
    pub fn run_traced(&self) -> (SimReport, Vec<TraceEvent>) {
        let mut trace = Vec::new();
        let report = self.run_impl(Some(&mut trace));
        (report, trace)
    }

    fn run_impl(&self, mut trace: Option<&mut Vec<TraceEvent>>) -> SimReport {
        let g = self.graph;
        let b = self.config.tile_b;
        let tile_bytes = (b * b * 8) as u64;
        let n_nodes = g.num_nodes();
        let net = NetModel {
            platform: self.platform,
            topo: self.topology,
        };

        let mut deps = g.initial_deps();

        let mut nodes: Vec<NodeState> = (0..n_nodes)
            .map(|_| NodeState {
                ready: BinaryHeap::new(),
                idle_workers: self.platform.cores_per_node as u32,
                send_queue: BinaryHeap::new(),
                send_busy: false,
                recv_free: 0.0,
                busy_seconds: 0.0,
                send_port_seconds: 0.0,
                recv_port_seconds: 0.0,
            })
            .collect();
        // per-direction completion time of each backbone link
        let mut link_free: Vec<[f64; 2]> = self
            .topology
            .map(|t| vec![[0.0; 2]; t.links().len()])
            .unwrap_or_default();

        // bulk-synchronous bookkeeping
        let max_iter = g
            .tasks()
            .iter()
            .map(|t| t.kind.iteration() as usize)
            .max()
            .unwrap_or(0);
        let mut remaining_per_iter = vec![0u64; max_iter + 2];
        if self.config.mode == ScheduleMode::BulkSynchronous {
            for t in g.tasks() {
                remaining_per_iter[t.kind.iteration() as usize] += 1;
            }
        }
        let mut current_iter = 0usize;
        let mut parked: Vec<Vec<TaskId>> = vec![Vec::new(); max_iter + 2];

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |heap: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
            *seq += 1;
            heap.push(Event {
                time,
                seq: *seq,
                kind,
            });
        };

        let mut traffic = Traffic::default();
        let mut tasks_executed = 0u64;
        let mut flops_total = 0.0f64;
        let mut makespan = 0.0f64;

        // --- helpers as closures over local state are awkward in Rust;
        // use small fns taking explicit state instead.

        // make a task ready (or park it under bulk-synchronous mode) on its node
        fn make_ready(
            t: TaskId,
            prio: &[f32],
            g: &TaskGraph,
            nodes: &mut [NodeState],
            mode: ScheduleMode,
            current_iter: usize,
            parked: &mut [Vec<TaskId>],
        ) {
            if mode == ScheduleMode::BulkSynchronous {
                let it = g.tasks()[t as usize].kind.iteration() as usize;
                if it > current_iter {
                    parked[it].push(t);
                    return;
                }
            }
            nodes[g.tasks()[t as usize].node as usize]
                .ready
                .push((OrdF64(prio[t as usize] as f64), std::cmp::Reverse(t)));
        }

        // start as many tasks as possible on a node
        #[allow(clippy::too_many_arguments)]
        fn try_start(
            node_id: u32,
            now: f64,
            g: &TaskGraph,
            platform: &Platform,
            b: usize,
            nodes: &mut [NodeState],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
        ) {
            let ns = &mut nodes[node_id as usize];
            while ns.idle_workers > 0 {
                let Some((_, std::cmp::Reverse(t))) = ns.ready.pop() else {
                    break;
                };
                ns.idle_workers -= 1;
                let dur = platform.task_seconds(&g.tasks()[t as usize].kind, b);
                ns.busy_seconds += dur;
                *seq += 1;
                heap.push(Event {
                    time: now + dur,
                    seq: *seq,
                    kind: EventKind::TaskDone {
                        node: node_id,
                        task: t,
                    },
                });
            }
        }

        // count a message and queue it on the sender's NIC; start sending
        // if the port is idle
        #[allow(clippy::too_many_arguments)]
        fn enqueue_send(
            from: u32,
            msg: Msg,
            now: f64,
            net: &NetModel<'_>,
            nodes: &mut [NodeState],
            link_free: &mut [[f64; 2]],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
            traffic: &mut Traffic,
        ) {
            traffic.messages += 1;
            traffic.bytes += msg.bytes;
            if net.cross_rack(msg.src, msg.dest) {
                traffic.cross_rack_messages += 1;
                traffic.cross_rack_bytes += msg.bytes;
            }
            let ns = &mut nodes[from as usize];
            *seq += 1;
            let entry = QueuedMsg { msg, seq: *seq };
            ns.send_queue.push(entry);
            if !ns.send_busy {
                start_send(from, now, net, nodes, link_free, heap, seq);
            }
        }

        fn start_send(
            from: u32,
            now: f64,
            net: &NetModel<'_>,
            nodes: &mut [NodeState],
            link_free: &mut [[f64; 2]],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
        ) {
            let ns = &mut nodes[from as usize];
            let Some(QueuedMsg { msg, .. }) = ns.send_queue.pop() else {
                ns.send_busy = false;
                return;
            };
            ns.send_busy = true;
            let port = net.port_seconds(msg.src, msg.dest, msg.bytes);
            ns.send_port_seconds += port;
            let send_end = now + port;
            *seq += 1;
            heap.push(Event {
                time: send_end,
                seq: *seq,
                kind: EventKind::SendFree { node: from },
            });
            // arrival: flat latency, or the route's latency after queueing
            // on each backbone link direction in send-initiation order
            let arrive = match net.topo {
                None => send_end + net.platform.nic_latency,
                Some(t) => {
                    let route = t.route(msg.src, msg.dest);
                    let mut tail = send_end;
                    for hop in &route.backbone {
                        let free = &mut link_free[hop.link as usize][hop.dir()];
                        let start = tail.max(*free);
                        let done =
                            start + msg.bytes as f64 / t.links()[hop.link as usize].bandwidth;
                        *free = done;
                        tail = done;
                    }
                    tail + route.latency
                }
            };
            *seq += 1;
            heap.push(Event {
                time: arrive,
                seq: *seq,
                kind: EventKind::Arrive { msg },
            });
        }

        // seed: initial fetches then dependency-free tasks
        for f in g.initial_fetches() {
            enqueue_send(
                f.home,
                Msg {
                    src: f.home,
                    dest: f.dest,
                    bytes: tile_bytes,
                    prio: f32::INFINITY,
                    consumers: f.consumers.clone(),
                },
                0.0,
                &net,
                &mut nodes,
                &mut link_free,
                &mut heap,
                &mut seq,
                &mut traffic,
            );
        }
        for t in 0..g.len() as TaskId {
            if deps[t as usize] == 0 {
                make_ready(
                    t,
                    &self.priorities,
                    g,
                    &mut nodes,
                    self.config.mode,
                    current_iter,
                    &mut parked,
                );
            }
        }
        for n in 0..n_nodes as u32 {
            try_start(n, 0.0, g, self.platform, b, &mut nodes, &mut heap, &mut seq);
        }

        let mut consumer_groups: Vec<(u32, Vec<TaskId>)> = Vec::new();
        while let Some(Event { time, kind, .. }) = heap.pop() {
            makespan = makespan.max(time);
            match kind {
                EventKind::TaskDone { node, task } => {
                    tasks_executed += 1;
                    let tk = &g.tasks()[task as usize];
                    flops_total += tk.kind.flops(b);
                    if let Some(tr) = trace.as_deref_mut() {
                        let dur = self.platform.task_seconds(&tk.kind, b);
                        tr.push(TraceEvent {
                            task,
                            node,
                            start: time - dur,
                            end: time,
                        });
                    }
                    nodes[node as usize].idle_workers += 1;

                    // resolve local successors; group remote data consumers
                    consumer_groups.clear();
                    for (s, ekind) in g.succs(task) {
                        let snode = g.tasks()[s as usize].node;
                        if snode == node {
                            deps[s as usize] -= 1;
                            if deps[s as usize] == 0 {
                                make_ready(
                                    s,
                                    &self.priorities,
                                    g,
                                    &mut nodes,
                                    self.config.mode,
                                    current_iter,
                                    &mut parked,
                                );
                            }
                        } else {
                            debug_assert_eq!(ekind, EdgeKind::Data);
                            match consumer_groups.iter_mut().find(|(n, _)| *n == snode) {
                                Some((_, v)) => v.push(s),
                                None => consumer_groups.push((snode, vec![s])),
                            }
                        }
                    }
                    for (dest, consumers) in consumer_groups.drain(..) {
                        let prio = if self.config.priority_comms {
                            consumers
                                .iter()
                                .map(|&s| self.priorities[s as usize])
                                .fold(f32::MIN, f32::max)
                        } else {
                            0.0 // FIFO via the sequence tiebreak
                        };
                        enqueue_send(
                            node,
                            Msg {
                                src: node,
                                dest,
                                bytes: tile_bytes,
                                prio,
                                consumers,
                            },
                            time,
                            &net,
                            &mut nodes,
                            &mut link_free,
                            &mut heap,
                            &mut seq,
                            &mut traffic,
                        );
                    }

                    // bulk-synchronous iteration barrier
                    if self.config.mode == ScheduleMode::BulkSynchronous {
                        let it = tk.kind.iteration() as usize;
                        remaining_per_iter[it] -= 1;
                        while current_iter <= max_iter && remaining_per_iter[current_iter] == 0 {
                            current_iter += 1;
                            if current_iter <= max_iter {
                                for t in std::mem::take(&mut parked[current_iter]) {
                                    let tn = g.tasks()[t as usize].node as usize;
                                    nodes[tn].ready.push((
                                        OrdF64(self.priorities[t as usize] as f64),
                                        std::cmp::Reverse(t),
                                    ));
                                }
                            }
                        }
                        // release may have fed every node
                        for n in 0..n_nodes as u32 {
                            try_start(
                                n,
                                time,
                                g,
                                self.platform,
                                b,
                                &mut nodes,
                                &mut heap,
                                &mut seq,
                            );
                        }
                    } else {
                        try_start(
                            node,
                            time,
                            g,
                            self.platform,
                            b,
                            &mut nodes,
                            &mut heap,
                            &mut seq,
                        );
                    }
                }
                EventKind::SendFree { node } => {
                    start_send(
                        node,
                        time,
                        &net,
                        &mut nodes,
                        &mut link_free,
                        &mut heap,
                        &mut seq,
                    );
                }
                EventKind::Arrive { msg } => {
                    // contend for the receive port: deliveries are spaced by
                    // at least one port time (overhead + serialization)
                    let wire = net.port_seconds(msg.src, msg.dest, msg.bytes);
                    let ns = &mut nodes[msg.dest as usize];
                    ns.recv_port_seconds += wire;
                    let delivery = time.max(ns.recv_free + wire);
                    ns.recv_free = delivery;
                    push(&mut heap, &mut seq, delivery, EventKind::Deliver { msg });
                }
                EventKind::Deliver { msg } => {
                    let dest = msg.dest;
                    for t in msg.consumers {
                        deps[t as usize] -= 1;
                        if deps[t as usize] == 0 {
                            make_ready(
                                t,
                                &self.priorities,
                                g,
                                &mut nodes,
                                self.config.mode,
                                current_iter,
                                &mut parked,
                            );
                        }
                    }
                    try_start(
                        dest,
                        time,
                        g,
                        self.platform,
                        b,
                        &mut nodes,
                        &mut heap,
                        &mut seq,
                    );
                }
            }
        }

        assert_eq!(
            tasks_executed,
            g.len() as u64,
            "simulation deadlocked: {} of {} tasks executed",
            tasks_executed,
            g.len()
        );

        SimReport {
            makespan,
            messages: traffic.messages,
            bytes: traffic.bytes,
            cross_rack_messages: traffic.cross_rack_messages,
            cross_rack_bytes: traffic.cross_rack_bytes,
            flops: flops_total,
            busy_per_node: nodes.iter().map(|n| n.busy_seconds).collect(),
            send_port_per_node: nodes.iter().map(|n| n.send_port_seconds).collect(),
            recv_port_per_node: nodes.iter().map(|n| n.recv_port_seconds).collect(),
            tasks_executed,
            cores_per_node: self.platform.cores_per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use sbc_dist::{SbcBasic, SbcExtended, TwoDBlockCyclic, TwoPointFiveD};
    use sbc_taskgraph::{build_potrf, build_potrf_25d};
    use sbc_topo::{zoo, CriticalPath, SubmissionOrder};

    fn sim(graph: &TaskGraph, platform: &Platform, b: usize) -> SimReport {
        Simulator::new(graph, platform, SimConfig::chameleon(b)).run()
    }

    #[test]
    fn single_node_reaches_high_utilization() {
        let d = TwoDBlockCyclic::new(1, 1);
        let g = build_potrf(&d, 40);
        let p = Platform::bora(1);
        let r = sim(&g, &p, 500);
        assert_eq!(r.messages, 0);
        assert!(r.utilization() > 0.75, "utilization {}", r.utilization());
        // makespan is at least the work bound
        let work_bound: f64 = r.busy_per_node[0] / p.cores_per_node as f64;
        assert!(r.makespan >= work_bound * 0.999);
    }

    #[test]
    fn measured_messages_equal_graph_count() {
        let d = SbcExtended::new(5);
        let g = build_potrf(&d, 20);
        let p = Platform::bora(10);
        let r = sim(&g, &p, 200);
        assert_eq!(r.messages, g.count_messages());
        assert_eq!(r.bytes, g.count_messages() * 200 * 200 * 8);
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let d = SbcExtended::new(5);
        let g = build_potrf(&d, 16);
        let p = Platform::bora(10);
        let cfg = SimConfig::chameleon(500);
        let cp =
            sbc_taskgraph::priority::critical_path_length(&g, |t| p.task_seconds(&t.kind, 500));
        let r = Simulator::new(&g, &p, cfg).run();
        assert!(
            r.makespan >= cp * 0.999,
            "makespan {} < cp {cp}",
            r.makespan
        );
    }

    #[test]
    fn bulk_synchronous_is_slower() {
        let d = TwoDBlockCyclic::new(4, 4);
        let g = build_potrf(&d, 32);
        let p = Platform::bora(16);
        let a = Simulator::new(&g, &p, SimConfig::chameleon(500)).run();
        let s = Simulator::new(
            &g,
            &p,
            SimConfig {
                tile_b: 500,
                mode: ScheduleMode::BulkSynchronous,
                priority_comms: false,
            },
        )
        .run();
        assert!(
            s.makespan > a.makespan,
            "sync {} vs async {}",
            s.makespan,
            a.makespan
        );
        // same work, same communication
        assert_eq!(s.messages, a.messages);
        assert_eq!(s.tasks_executed, a.tasks_executed);
    }

    #[test]
    fn priorities_help() {
        let d = SbcExtended::new(6);
        let g = build_potrf(&d, 36);
        let p = Platform::bora(15);
        let with = Simulator::new(&g, &p, SimConfig::chameleon(500)).run();
        let without = Simulator::new(&g, &p, SimConfig::chameleon(500))
            .with_scheduler(&SubmissionOrder)
            .run();
        assert!(with.makespan <= without.makespan * 1.02);
    }

    #[test]
    fn sbc_outperforms_2dbc_in_comm_bound_regime() {
        // P=21 nodes with a slowed network: communication dominates, and
        // SBC's sqrt(2)-lower volume must translate into a clearly lower
        // makespan (the paper's headline effect, concentrated).
        let nt = 63;
        let sbc = SbcExtended::new(7);
        let dbc = TwoDBlockCyclic::new(7, 3);
        let p = Platform::bora_slow_network(21, 8.0);
        let gs = build_potrf(&sbc, nt);
        let gd = build_potrf(&dbc, nt);
        let rs = sim(&gs, &p, 500);
        let rd = sim(&gd, &p, 500);
        assert!(rs.messages < rd.messages);
        assert!(
            rs.makespan < rd.makespan * 0.95,
            "SBC {} vs 2DBC {}",
            rs.makespan,
            rd.makespan
        );
    }

    #[test]
    fn two_five_d_runs_and_reduces_broadcast_traffic() {
        let nt = 24;
        let inner = SbcBasic::new(4); // 8 nodes per slice
        let d25 = TwoPointFiveD::new(inner.clone(), 2); // 16 nodes
        let g25 = build_potrf_25d(&d25, nt);
        let p = Platform::bora(16);
        let r = sim(&g25, &p, 500);
        assert_eq!(r.messages, g25.count_messages());
        assert_eq!(r.tasks_executed as usize, g25.len());
    }

    #[test]
    fn more_nodes_do_not_increase_makespan_much() {
        // weak sanity: 15 nodes should be faster than 3 nodes on a matrix
        // with plenty of parallelism. (At very small nt the slow effective
        // network makes extra nodes useless — the strong-scaling limit —
        // so use a comfortably large matrix.)
        let nt = 72;
        let g3 = build_potrf(&SbcExtended::new(3), nt); // 3 nodes
        let g15 = build_potrf(&SbcExtended::new(6), nt); // 15 nodes
        let r3 = sim(&g3, &Platform::bora(3), 500);
        let r15 = sim(&g15, &Platform::bora(15), 500);
        assert!(r15.makespan < r3.makespan);
    }

    #[test]
    fn zero_task_graph() {
        let d = TwoDBlockCyclic::new(1, 1);
        let g = build_potrf(&d, 0);
        let p = Platform::bora(1);
        let r = sim(&g, &p, 100);
        assert_eq!(r.tasks_executed, 0);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn single_switch_topology_is_bit_identical_to_flat() {
        let d = SbcExtended::new(5);
        let g = build_potrf(&d, 24);
        let p = Platform::bora(10);
        let topo = p.single_switch_topology();
        let flat = Simulator::new(&g, &p, SimConfig::chameleon(500)).run();
        let over = Simulator::with_topology(&g, &p, SimConfig::chameleon(500), &topo).run();
        assert_eq!(flat.makespan.to_bits(), over.makespan.to_bits());
        assert_eq!(flat.messages, over.messages);
        assert_eq!(flat.bytes, over.bytes);
        assert_eq!(over.cross_rack_messages, 0);
        assert_eq!(over.cross_rack_bytes, 0);
        for (a, b) in flat.busy_per_node.iter().zip(&over.busy_per_node) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn critical_path_scheduler_matches_default_bit_exactly() {
        let d = SbcExtended::new(5);
        let g = build_potrf(&d, 20);
        let p = Platform::bora(10);
        let base = Simulator::new(&g, &p, SimConfig::chameleon(500)).run();
        let sched = Simulator::new(&g, &p, SimConfig::chameleon(500))
            .with_scheduler(&CriticalPath)
            .run();
        assert_eq!(base.makespan.to_bits(), sched.makespan.to_bits());
        assert_eq!(base.messages, sched.messages);
    }

    #[test]
    fn oversubscribed_uplink_slows_cross_rack_traffic() {
        // 2DBC on 2 racks: plenty of traffic crosses the boundary, so a
        // heavily oversubscribed uplink must cost makespan relative to the
        // full-bisection single switch.
        let d = TwoDBlockCyclic::new(4, 3);
        let g = build_potrf(&d, 36);
        let p = Platform::bora(12);
        let flat = p.single_switch_topology();
        let racks = p.rack_topology(2, 32.0);
        let cfg = SimConfig::chameleon(500);
        let rf = Simulator::with_topology(&g, &p, cfg, &flat).run();
        let rr = Simulator::with_topology(&g, &p, cfg, &racks).run();
        assert!(rr.cross_rack_messages > 0);
        assert!(rr.cross_rack_bytes > 0);
        assert_eq!(rf.messages, rr.messages);
        assert!(
            rr.makespan > rf.makespan * 1.05,
            "racks {} vs flat {}",
            rr.makespan,
            rf.makespan
        );
    }

    #[test]
    fn every_zoo_scheduler_completes_the_graph() {
        let d = SbcExtended::new(4);
        let g = build_potrf(&d, 16);
        let p = Platform::bora(6);
        let topo = p.rack_topology(2, 8.0);
        for s in zoo() {
            let r = Simulator::with_topology(&g, &p, SimConfig::chameleon(300), &topo)
                .with_scheduler(s.as_ref())
                .run();
            assert_eq!(r.tasks_executed as usize, g.len(), "{}", s.name());
            assert!(r.makespan > 0.0, "{}", s.name());
        }
    }
}
