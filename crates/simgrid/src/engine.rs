//! The discrete-event simulation engine.

use crate::platform::Platform;
use crate::stats::{SimReport, TraceEvent};
use sbc_taskgraph::{EdgeKind, TaskGraph, TaskId};
use sbc_topo::{CriticalPath, Route, SchedCtx, Scheduler, Topology};
use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
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

/// Per-node compute state.
struct NodeState {
    ready: BinaryHeap<(OrdF64, Reverse<TaskId>)>,
    idle_workers: u32,
    busy_seconds: f64,
}

/// The event queue and the one counter that numbers events and queued
/// messages alike: events run in `(time, seq)` order, and a message's
/// `seq` keeps equal priorities FIFO.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl Events {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq();
        self.heap.push(Event { time, seq, kind });
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

/// One node's full-duplex NIC.
#[derive(Default)]
struct Port {
    /// Messages waiting to be sent, most urgent first.
    queue: BinaryHeap<QueuedMsg>,
    /// Whether a message is being serialized out of this port.
    sending: bool,
    /// Time the receive side last finished delivering a message.
    recv_free: f64,
    send_seconds: f64,
    recv_seconds: f64,
}

/// The network half of a run, priced over one [`Topology`]. A message
/// occupies its sender's port for the host overhead plus serialization at
/// its route's bottleneck bandwidth, then queues on each backbone link
/// direction of the route in send-initiation order, crosses the route's
/// latency, and contends for the receiver's port.
struct Network<'s> {
    topo: &'s Topology,
    /// Per-message host overhead, paid on both ports.
    overhead: f64,
    ports: Vec<Port>,
    /// Per-direction completion time of each backbone link.
    link_free: Vec<[f64; 2]>,
    traffic: Traffic,
}

impl<'s> Network<'s> {
    fn new(topo: &'s Topology, overhead: f64, nodes: usize) -> Self {
        Network {
            topo,
            overhead,
            ports: (0..nodes).map(|_| Port::default()).collect(),
            link_free: vec![[0.0; 2]; topo.links().len()],
            traffic: Traffic::default(),
        }
    }

    /// Port occupancy of `bytes` over `route`, on either end of it.
    fn port_seconds(&self, route: &Route, bytes: u64) -> f64 {
        self.overhead + bytes as f64 / route.bottleneck
    }

    /// Counts `msg` and queues it on its sender's port, starting the send
    /// if the port is idle.
    fn enqueue(&mut self, msg: Msg, now: f64, events: &mut Events) {
        self.traffic.messages += 1;
        self.traffic.bytes += msg.bytes;
        if self.topo.cross_rack(msg.src, msg.dest) {
            self.traffic.cross_rack_messages += 1;
            self.traffic.cross_rack_bytes += msg.bytes;
        }
        let node = msg.src;
        let port = &mut self.ports[node as usize];
        port.queue.push(QueuedMsg {
            msg,
            seq: events.next_seq(),
        });
        if !port.sending {
            self.start_send(node, now, events);
        }
    }

    /// Starts sending `node`'s most urgent queued message, or marks its
    /// port idle.
    fn start_send(&mut self, node: u32, now: f64, events: &mut Events) {
        let Some(QueuedMsg { msg, .. }) = self.ports[node as usize].queue.pop() else {
            self.ports[node as usize].sending = false;
            return;
        };
        let topo = self.topo;
        let route = topo.route(msg.src, msg.dest);
        let seconds = self.port_seconds(route, msg.bytes);
        let port = &mut self.ports[node as usize];
        port.sending = true;
        port.send_seconds += seconds;
        let send_end = now + seconds;
        events.push(send_end, EventKind::SendFree { node });
        let mut tail = send_end;
        for hop in &route.backbone {
            let free = &mut self.link_free[hop.link as usize][hop.dir()];
            tail = tail.max(*free) + msg.bytes as f64 / topo.links()[hop.link as usize].bandwidth;
            *free = tail;
        }
        events.push(tail + route.latency, EventKind::Arrive { msg });
    }

    /// `msg` has crossed the wire at `now`: its receiver's port delivers it
    /// at least one port time after the previous delivery. Returns when.
    fn receive(&mut self, msg: &Msg, now: f64) -> f64 {
        let seconds = self.port_seconds(self.topo.route(msg.src, msg.dest), msg.bytes);
        let port = &mut self.ports[msg.dest as usize];
        port.recv_seconds += seconds;
        port.recv_free = now.max(port.recv_free + seconds);
        port.recv_free
    }
}

/// Discrete-event simulator of a [`TaskGraph`] on a [`Platform`], its
/// messages priced over a [`Topology`].
pub struct Simulator<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    config: SimConfig,
    priorities: Vec<f32>,
    topology: Cow<'a, Topology>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulation on the platform's own network, its
    /// [`Platform::single_switch_topology`], whose ready queues are ranked
    /// by [`CriticalPath`] over the platform's task-time model; see
    /// [`Self::with_scheduler`] for any other order.
    ///
    /// # Panics
    /// Panics if the graph targets more nodes than the platform has.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform, config: SimConfig) -> Self {
        let topology = Cow::Owned(platform.single_switch_topology());
        Self::over(graph, platform, config, topology)
    }

    /// Prepares a simulation over an explicit network [`Topology`]: graph
    /// node `i` runs on topology host `i`. Message port times use each
    /// route's bottleneck bandwidth, arrival times its summed latency, and
    /// backbone (switch↔switch) links serialize per direction.
    /// [`Simulator::new`] is this over [`Platform::single_switch_topology`].
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
        Self::over(graph, platform, config, Cow::Borrowed(topology))
    }

    fn over(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        config: SimConfig,
        topology: Cow<'a, Topology>,
    ) -> Self {
        assert!(
            graph.num_nodes() <= platform.nodes,
            "graph placed on {} nodes but platform has {}",
            graph.num_nodes(),
            platform.nodes
        );
        assert!(
            graph.num_nodes() <= topology.hosts(),
            "graph placed on {} nodes but topology has {} hosts",
            graph.num_nodes(),
            topology.hosts()
        );
        Simulator {
            graph,
            platform,
            config,
            priorities: Vec::new(),
            topology,
        }
        .with_scheduler(&CriticalPath)
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
        State::new(self, false).run().0
    }

    /// Runs the simulation and records a per-task execution trace (for the
    /// Gantt renderer in [`crate::stats::render_gantt`]). Costs O(#tasks)
    /// extra memory — intended for small/medium graphs.
    pub fn run_traced(&self) -> (SimReport, Vec<TraceEvent>) {
        State::new(self, true).run()
    }
}

/// Everything one run of a [`Simulator`] mutates.
struct State<'s> {
    sim: &'s Simulator<'s>,
    tile_bytes: u64,
    /// Unmet dependencies of each task.
    deps: Vec<u32>,
    nodes: Vec<NodeState>,
    net: Network<'s>,
    events: Events,
    /// Bulk-synchronous mode: the iteration whose tasks may start, the
    /// last iteration, the tasks of each iteration not yet done, and the
    /// ready tasks parked until their iteration opens.
    current_iter: usize,
    max_iter: usize,
    remaining_per_iter: Vec<u64>,
    parked: Vec<Vec<TaskId>>,
    /// A finished task's remote consumers, grouped by node (reused).
    groups: Vec<(u32, Vec<TaskId>)>,
    trace: Option<Vec<TraceEvent>>,
    tasks_executed: u64,
    flops: f64,
    makespan: f64,
}

impl<'s> State<'s> {
    fn new(sim: &'s Simulator<'s>, traced: bool) -> Self {
        let g = sim.graph;
        let b = sim.config.tile_b;
        let n_nodes = g.num_nodes();
        let max_iter = g
            .tasks()
            .iter()
            .map(|t| t.kind.iteration() as usize)
            .max()
            .unwrap_or(0);
        let mut remaining_per_iter = vec![0u64; max_iter + 2];
        if sim.config.mode == ScheduleMode::BulkSynchronous {
            for t in g.tasks() {
                remaining_per_iter[t.kind.iteration() as usize] += 1;
            }
        }
        State {
            sim,
            tile_bytes: (b * b * 8) as u64,
            deps: g.initial_deps(),
            nodes: (0..n_nodes)
                .map(|_| NodeState {
                    ready: BinaryHeap::new(),
                    idle_workers: sim.platform.cores_per_node as u32,
                    busy_seconds: 0.0,
                })
                .collect(),
            net: Network::new(&sim.topology, sim.platform.per_message_overhead, n_nodes),
            events: Events::default(),
            current_iter: 0,
            max_iter,
            remaining_per_iter,
            parked: vec![Vec::new(); max_iter + 2],
            groups: Vec::new(),
            trace: traced.then(Vec::new),
            tasks_executed: 0,
            flops: 0.0,
            makespan: 0.0,
        }
    }

    fn run(mut self) -> (SimReport, Vec<TraceEvent>) {
        let g = self.sim.graph;
        // seed: initial fetches then dependency-free tasks
        for f in g.initial_fetches() {
            let msg = Msg {
                src: f.home,
                dest: f.dest,
                bytes: self.tile_bytes,
                prio: f32::INFINITY,
                consumers: f.consumers.clone(),
            };
            self.net.enqueue(msg, 0.0, &mut self.events);
        }
        for t in 0..g.len() as TaskId {
            if self.deps[t as usize] == 0 {
                self.make_ready(t);
            }
        }
        for n in 0..g.num_nodes() as u32 {
            self.try_start(n, 0.0);
        }

        while let Some(Event { time, kind, .. }) = self.events.heap.pop() {
            self.makespan = self.makespan.max(time);
            match kind {
                EventKind::TaskDone { node, task } => self.task_done(node, task, time),
                EventKind::SendFree { node } => self.net.start_send(node, time, &mut self.events),
                EventKind::Arrive { msg } => {
                    let delivery = self.net.receive(&msg, time);
                    self.events.push(delivery, EventKind::Deliver { msg });
                }
                EventKind::Deliver { msg } => {
                    for t in msg.consumers {
                        self.satisfy(t);
                    }
                    self.try_start(msg.dest, time);
                }
            }
        }

        assert_eq!(
            self.tasks_executed,
            g.len() as u64,
            "simulation deadlocked: {} of {} tasks executed",
            self.tasks_executed,
            g.len()
        );
        let traffic = &self.net.traffic;
        let report = SimReport {
            makespan: self.makespan,
            messages: traffic.messages,
            bytes: traffic.bytes,
            cross_rack_messages: traffic.cross_rack_messages,
            cross_rack_bytes: traffic.cross_rack_bytes,
            flops: self.flops,
            busy_per_node: self.nodes.iter().map(|n| n.busy_seconds).collect(),
            send_port_per_node: self.net.ports.iter().map(|p| p.send_seconds).collect(),
            recv_port_per_node: self.net.ports.iter().map(|p| p.recv_seconds).collect(),
            tasks_executed: self.tasks_executed,
            cores_per_node: self.sim.platform.cores_per_node,
        };
        (report, self.trace.unwrap_or_default())
    }

    /// Makes `t` ready on its node, or parks it until its iteration opens
    /// under bulk-synchronous mode.
    fn make_ready(&mut self, t: TaskId) {
        let task = &self.sim.graph.tasks()[t as usize];
        if self.sim.config.mode == ScheduleMode::BulkSynchronous {
            let it = task.kind.iteration() as usize;
            if it > self.current_iter {
                self.parked[it].push(t);
                return;
            }
        }
        let prio = OrdF64(self.sim.priorities[t as usize] as f64);
        self.nodes[task.node as usize]
            .ready
            .push((prio, Reverse(t)));
    }

    /// Meets one dependency of `t`; the last one makes it ready.
    fn satisfy(&mut self, t: TaskId) {
        self.deps[t as usize] -= 1;
        if self.deps[t as usize] == 0 {
            self.make_ready(t);
        }
    }

    /// Starts as many ready tasks on `node` as it has idle workers.
    fn try_start(&mut self, node: u32, now: f64) {
        let sim = self.sim;
        let ns = &mut self.nodes[node as usize];
        while ns.idle_workers > 0 {
            let Some((_, Reverse(t))) = ns.ready.pop() else {
                break;
            };
            ns.idle_workers -= 1;
            let kind = &sim.graph.tasks()[t as usize].kind;
            let dur = sim.platform.task_seconds(kind, sim.config.tile_b);
            ns.busy_seconds += dur;
            self.events
                .push(now + dur, EventKind::TaskDone { node, task: t });
        }
    }

    /// A worker on `node` finished `task` at `now`: release its local
    /// successors, send its tile once to each node with remote consumers,
    /// and start what became ready.
    fn task_done(&mut self, node: u32, task: TaskId, now: f64) {
        let sim = self.sim;
        let g = sim.graph;
        let b = sim.config.tile_b;
        let kind = &g.tasks()[task as usize].kind;
        self.tasks_executed += 1;
        self.flops += kind.flops(b);
        if let Some(trace) = &mut self.trace {
            let dur = sim.platform.task_seconds(kind, b);
            trace.push(TraceEvent {
                task,
                node,
                start: now - dur,
                end: now,
            });
        }
        self.nodes[node as usize].idle_workers += 1;

        let mut groups = std::mem::take(&mut self.groups);
        for (s, ekind) in g.succs(task) {
            let snode = g.tasks()[s as usize].node;
            if snode == node {
                self.satisfy(s);
            } else {
                debug_assert_eq!(ekind, EdgeKind::Data);
                match groups.iter_mut().find(|(n, _)| *n == snode) {
                    Some((_, v)) => v.push(s),
                    None => groups.push((snode, vec![s])),
                }
            }
        }
        for (dest, consumers) in groups.drain(..) {
            let prio = if sim.config.priority_comms {
                consumers
                    .iter()
                    .map(|&s| sim.priorities[s as usize])
                    .fold(f32::MIN, f32::max)
            } else {
                0.0 // FIFO via the sequence tiebreak
            };
            let msg = Msg {
                src: node,
                dest,
                bytes: self.tile_bytes,
                prio,
                consumers,
            };
            self.net.enqueue(msg, now, &mut self.events);
        }
        self.groups = groups;

        if sim.config.mode == ScheduleMode::BulkSynchronous {
            // the iteration barrier: a finished iteration opens the next
            self.remaining_per_iter[kind.iteration() as usize] -= 1;
            while self.current_iter <= self.max_iter
                && self.remaining_per_iter[self.current_iter] == 0
            {
                self.current_iter += 1;
                if self.current_iter <= self.max_iter {
                    for t in std::mem::take(&mut self.parked[self.current_iter]) {
                        self.make_ready(t);
                    }
                }
            }
            // release may have fed every node
            for n in 0..g.num_nodes() as u32 {
                self.try_start(n, now);
            }
        } else {
            self.try_start(node, now);
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
