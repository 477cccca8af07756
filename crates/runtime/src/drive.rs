//! The two drivers of the rank engine. An [`Engine`] is a state machine:
//! [`Engine::step`] does one bounded, non-blocking unit of a rank's work and
//! says what it left behind ([`Progress`]). Who calls it, on which thread,
//! and what a thread does while its rank has nothing to do is a driver's
//! business — and all of a driver's business, since neither owns any
//! protocol logic:
//!
//! | driver | who gets it | threads | blocks on | owns parking |
//! |---|---|---|---|---|
//! | threaded ([`run_threaded`]) | [`crate::Run::execute_rank`], [`crate::run_jobs_rank`]: one rank per call, any `Transport` | `workers` per rank, the caller one of them | the rank's inbox (one receiver), a condvar (the rest) | [`Parking`]: the receive role, the parked count, a change counter |
//! | pooled ([`run_pooled`]) | [`crate::Run::execute`], [`crate::run_jobs_inproc`] (`sbc-serve`): every rank of an in-process mesh | `min(ranks × workers, cores)` for the whole mesh, the caller one of them | one condvar, until a rank is runnable or its timer is due | [`Pool`]: one run queue, an Idle/Queued/Running/Notified slot per rank |

use crate::exec::ExecError;
use crate::jobs::{Arrivals, Driver, Engine, JobEngineConfig, JobTable, Progress};
use sbc_net::{Clock, Message, NodeId, RecvTimeout, Transport, TransportStats};
use sbc_obs::Recorder;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, for at most `bound` when there is one.
fn wait_on<'g, T>(
    cv: &Condvar,
    guard: MutexGuard<'g, T>,
    bound: Option<Duration>,
) -> MutexGuard<'g, T> {
    match bound {
        Some(timeout) => match cv.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        },
        None => cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
    }
}

// ------------------------------------------------------------------ threaded

/// Runs one rank over `net` on `cfg.workers` threads — the caller and
/// `workers − 1` spawned — until it drains, returning how it ended.
pub(crate) fn run_threaded(
    net: &dyn Transport,
    table: &JobTable<'_>,
    cfg: JobEngineConfig,
    recorder: Option<&Recorder>,
) -> Result<Vec<Message>, ExecError> {
    let parking = Parking::default();
    let engine = Engine::new(net, table, cfg, recorder, &parking);
    std::thread::scope(|scope| {
        for _ in 1..cfg.workers.max(1) {
            scope.spawn(|| parking.work(&engine, net, cfg.heartbeat));
        }
        parking.work(&engine, net, cfg.heartbeat);
    });
    engine.finish()
}

/// The threaded driver's waiting room. One thread at a time holds the
/// receive role and blocks in the inbox; the others park on `cv`. No
/// wake-up is lost: a thread reads `changes` before it steps and parks only
/// if nothing changed since, and every change — the engine's nudge, or a
/// worker seeing the rank drain — is counted under the same lock that reads
/// `parked`.
#[derive(Default)]
pub(crate) struct Parking {
    pub(crate) park: Mutex<Park>,
    cv: Condvar,
}

#[derive(Default)]
pub(crate) struct Park {
    /// Counts every change a parked thread may be waiting for.
    pub(crate) changes: u64,
    pub(crate) parked: u32,
    pub(crate) receiving: bool,
}

impl Driver for Parking {
    fn nudge(&self, _rank: NodeId, _work: bool) {
        self.changed(lock(&self.park));
    }
}

impl Parking {
    /// Counts a change and wakes the parked threads, if there are any:
    /// `Condvar::notify_all` is a system call even with nobody waiting.
    pub(crate) fn changed(&self, mut p: MutexGuard<'_, Park>) {
        p.changes += 1;
        let parked = p.parked;
        drop(p);
        if parked > 0 {
            self.cv.notify_all();
        }
    }

    /// One worker thread: step, and when the rank is idle, receive or park.
    fn work(&self, engine: &Engine, net: &dyn Transport, heartbeat: Duration) {
        let mut taken = Vec::new();
        loop {
            let seen = lock(&self.park).changes;
            match engine.step(Arrivals::Taken(std::mem::take(&mut taken))) {
                Progress::Ran => {}
                // the siblings must see it too, the receiver among them
                Progress::Drained => {
                    net.wake();
                    return self.changed(lock(&self.park));
                }
                Progress::Idle { next_timer } => {
                    // a timer, or admissions nobody tells this driver of,
                    // bound every wait by a heartbeat
                    let polling = next_timer.is_some() || !engine.closed();
                    taken = self.wait(seen, net, polling.then_some(heartbeat));
                }
            }
        }
    }

    /// Waits for a change since `seen`: as the receiver in the inbox, or
    /// parked. `None` waits without a bound. Returns what was received.
    pub(crate) fn wait(
        &self,
        seen: u64,
        net: &dyn Transport,
        bound: Option<Duration>,
    ) -> Vec<Message> {
        let mut p = lock(&self.park);
        if p.changes != seen {
            return Vec::new();
        }
        if !p.receiving {
            p.receiving = true;
            drop(p);
            let first = match bound {
                Some(timeout) => net.recv_timeout(timeout),
                None => net.recv().map_or(RecvTimeout::Closed, RecvTimeout::Msg),
            };
            let taken = match first {
                RecvTimeout::Msg(m) => {
                    let mut batch = vec![m];
                    batch.extend(std::iter::from_fn(|| net.try_recv()));
                    batch
                }
                RecvTimeout::TimedOut => Vec::new(),
                // a closed endpoint is a dead mesh, which is what a poison says
                RecvTimeout::Closed => vec![Message::Poison],
            };
            // what the batch changes, absorbing it tells the others
            lock(&self.park).receiving = false;
            return taken;
        }
        p.parked += 1;
        let mut p = wait_on(&self.cv, p, bound);
        p.parked -= 1;
        Vec::new()
    }
}

// -------------------------------------------------------------------- pooled

/// Threads the pooled driver runs for `ranks` ranks of `workers` lanes each:
/// one per lane, no more than the host has cores.
pub(crate) fn pool_threads(ranks: usize, workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (ranks * workers.max(1)).min(cores).max(1)
}

/// Runs every rank of the in-process mesh `mesh` (rank `r` is element `r`)
/// on `threads` pooled threads, the caller one of them, until every rank
/// drained; returns the first failing rank's error, in rank order.
pub(crate) fn run_pooled<T: Transport>(
    mesh: Vec<T>,
    table: &JobTable<'_>,
    cfg: JobEngineConfig,
    recorder: Option<&Recorder>,
    threads: usize,
) -> Result<(), ExecError> {
    let pool = Arc::new(Pool::new(mesh.len(), cfg.workers, Arc::clone(&table.clock)));
    let hook = Arc::clone(&pool);
    table.on_admit(Box::new(move || hook.notify_all()));
    let nets: Vec<Stepped<'_, T>> = mesh
        .into_iter()
        .map(|inner| Stepped { inner, pool: &pool })
        .collect();
    let engines: Vec<Engine> = nets
        .iter()
        .map(|net| Engine::new(net, table, cfg, recorder, &*pool))
        .collect();
    std::thread::scope(|scope| {
        for _ in 1..threads.max(1) {
            scope.spawn(|| pool.run(&engines));
        }
        pool.run(&engines);
    });
    let failed = engines
        .into_iter()
        .map(Engine::finish)
        .find_map(Result::err);
    failed.map_or(Ok(()), Err)
}

/// One shared run queue for the ranks of a mesh. A rank is `Idle` (no slot
/// taken), `Queued`, `Running`, or `Notified` — running while something
/// arrived, so it is queued again when its step ends instead of the
/// arrival being lost. With `workers > 1` a rank may hold up to that many
/// queued or running steps at once.
pub(crate) struct Pool {
    state: Mutex<PoolState>,
    /// Idle pool threads wait here.
    cv: Condvar,
    workers: u32,
    /// The table's clock, which rank timers are read on.
    clock: Arc<dyn Clock>,
}

struct PoolState {
    queue: VecDeque<usize>,
    ranks: Vec<Slot>,
    /// Pool threads waiting on `cv`.
    idle: u32,
    /// Ranks not drained yet; the pool ends at zero.
    live: usize,
    /// Slots with a timer set.
    armed: usize,
}

#[derive(Default)]
struct Slot {
    queued: u32,
    running: u32,
    notified: bool,
    drained: bool,
    /// When to step an idle rank although nothing arrived.
    timer: Option<Instant>,
}

impl Pool {
    /// A pool over `ranks` ranks, every one of them queued for its first
    /// step (which picks up what the table already admitted).
    fn new(ranks: usize, workers: usize, clock: Arc<dyn Clock>) -> Self {
        let slot = || Slot {
            queued: 1,
            ..Slot::default()
        };
        Pool {
            state: Mutex::new(PoolState {
                queue: (0..ranks).collect(),
                ranks: (0..ranks).map(|_| slot()).collect(),
                idle: 0,
                live: ranks,
                armed: 0,
            }),
            cv: Condvar::new(),
            workers: workers.max(1) as u32,
            clock,
        }
    }

    /// Queues one more step of `rank` if it has a free lane.
    fn enqueue(&self, st: &mut PoolState, rank: usize) {
        let slot = &mut st.ranks[rank];
        if slot.drained || slot.queued + slot.running >= self.workers {
            return;
        }
        slot.queued += 1;
        if slot.timer.take().is_some() {
            st.armed -= 1;
        }
        st.queue.push_back(rank);
        if st.idle > 0 {
            self.cv.notify_one();
        }
    }

    /// Something arrived for `rank`: step it, or have its running step run
    /// once more.
    fn mark(&self, st: &mut PoolState, rank: usize) {
        let slot = &mut st.ranks[rank];
        if slot.drained || slot.queued > 0 {
            return;
        }
        if slot.running > 0 {
            slot.notified = true;
            return;
        }
        self.enqueue(st, rank);
    }

    fn notify(&self, rank: usize) {
        self.mark(&mut lock(&self.state), rank);
    }

    /// An admission or a shutdown: every rank has something to pick up.
    fn notify_all(&self) {
        let mut st = lock(&self.state);
        for rank in 0..st.ranks.len() {
            self.mark(&mut st, rank);
        }
    }

    /// One pool thread: step queued ranks until every rank drained.
    fn run(&self, engines: &[Engine]) {
        let mut st = lock(&self.state);
        while st.live > 0 {
            // a due timer is served even while other ranks keep the queue full
            let next = if st.armed > 0 {
                self.fire_due(&mut st)
            } else {
                None
            };
            let Some(rank) = st.queue.pop_front() else {
                st.idle += 1;
                let wait = next.map(|due| due.saturating_duration_since(self.clock.now()));
                st = wait_on(&self.cv, st, wait);
                st.idle -= 1;
                continue;
            };
            let slot = &mut st.ranks[rank];
            slot.queued -= 1;
            slot.running += 1;
            // what arrived so far, this step absorbs
            slot.notified = false;
            drop(st);
            let progress = engines[rank].step(Arrivals::Inbox);
            st = lock(&self.state);
            let slot = &mut st.ranks[rank];
            slot.running -= 1;
            match progress {
                Progress::Drained => {
                    let armed = slot.timer.take().is_some();
                    if !std::mem::replace(&mut slot.drained, true) {
                        st.live -= 1;
                    }
                    st.armed -= armed as usize;
                }
                Progress::Idle { next_timer } if !std::mem::take(&mut slot.notified) => {
                    let was = std::mem::replace(&mut slot.timer, next_timer);
                    st.armed = st.armed + next_timer.is_some() as usize - was.is_some() as usize;
                }
                // out of budget, or something arrived while it ran
                Progress::Ran | Progress::Idle { .. } => self.enqueue(&mut st, rank),
            }
        }
        drop(st);
        // the others wake to see `live == 0`
        self.cv.notify_all();
    }

    /// Queues the ranks whose timers are due; returns the earliest timer
    /// still to come.
    fn fire_due(&self, st: &mut PoolState) -> Option<Instant> {
        let now = self.clock.now();
        let mut next: Option<Instant> = None;
        for rank in 0..st.ranks.len() {
            match st.ranks[rank].timer {
                Some(due) if due <= now => self.enqueue(st, rank),
                Some(due) => next = Some(next.map_or(due, |n| n.min(due))),
                None => {}
            }
        }
        next
    }
}

impl Driver for Pool {
    /// A rank's own step readied work: recruit another lane for it, when it
    /// has one. A rank with one lane keeps stepping on the thread it has.
    fn nudge(&self, rank: NodeId, work: bool) {
        if work && self.workers > 1 {
            self.enqueue(&mut lock(&self.state), rank as usize);
        }
    }
}

/// An endpoint of a pooled mesh: a send marks its destination runnable, a
/// wake its own rank. Everything else is the inner endpoint's.
struct Stepped<'p, T> {
    inner: T,
    pool: &'p Pool,
}

impl<T: Transport> Transport for Stepped<'_, T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, dest: NodeId, msg: Message) -> Option<u64> {
        let sent = self.inner.send(dest, msg);
        self.pool.notify(dest as usize);
        sent
    }

    fn wake(&self) {
        self.inner.wake();
        self.pool.notify(self.inner.rank() as usize);
    }

    fn recv(&self) -> Option<Message> {
        self.inner.recv()
    }

    fn try_recv(&self) -> Option<Message> {
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        self.inner.recv_timeout(timeout)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Run;
    use sbc_dist::{comm, SbcExtended, TwoDBlockCyclic};
    use sbc_net::{inproc_mesh, FaultConfig, Faulty};
    use sbc_taskgraph::build_potrf;
    use std::sync::mpsc::RecvTimeoutError;

    /// Nothing polls a pooled mesh: a rank idle with a job in flight is
    /// stepped again when its watchdog deadline comes due. Over a mesh that
    /// drops every payload, the run ends in `Stalled` about a deadline after
    /// it started — not at a tick, and not never.
    #[test]
    fn a_stalled_pooled_rank_is_stepped_at_its_deadline() {
        let deadline = Duration::from_millis(200);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
            let n = graph.num_nodes();
            let table = JobTable::new(n, 1);
            let id = table.submit(graph, 8, 1, 2, 0).unwrap();
            table.shutdown();
            let cfg = JobEngineConfig {
                deadline: Some(deadline),
                ..Default::default()
            };
            let drop_all = FaultConfig {
                drop_every: 1,
                ..Default::default()
            };
            let mesh: Vec<_> = inproc_mesh(n)
                .into_iter()
                .map(|t| Faulty::new(t, drop_all))
                .collect();
            let started = Instant::now();
            let failed = run_pooled(mesh, &table, cfg, None, 2).is_err();
            let _ = tx.send((failed, table.wait(id).err(), started.elapsed()));
        });
        let (failed, waited, took) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("no timer fired: the stalled run never ended");
        assert!(failed, "an all-drop run cannot succeed");
        assert!(
            matches!(waited, Some(ExecError::Stalled { .. })),
            "the waiter saw {waited:?}"
        );
        assert!(took >= deadline, "stalled after {took:?}");
        assert!(
            took < 30 * deadline,
            "a deadline of {deadline:?} took {took:?}"
        );
    }

    /// No lost wake-up in the pooled driver. A send that races its
    /// destination's running step, a rank recruiting a second lane, a pool
    /// thread parking as the last rank is queued: each, lost, is a run that
    /// never ends rather than a wrong answer. Many short runs at one, two
    /// and three pool threads and one and two lanes per rank, every one held
    /// to the sequential factor and the analytic traffic, under a deadline.
    #[test]
    fn pooled_runs_lose_no_wake_up() {
        let (nt, b, seed) = (24, 4, 11);
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let d = SbcExtended::new(4);
            let g = build_potrf(&d, nt);
            let mut seq = sbc_matrix::random_spd(seed, nt, b);
            sbc_matrix::potrf_tiled(&mut seq).unwrap();
            let messages = comm::potrf_messages(&d, nt);
            for threads in [1, 2, 3] {
                for workers in [1, 2] {
                    let context = format!("threads={threads} workers={workers}");
                    for rep in 0..200 {
                        let run = Run::graph(&g).block(b).seed(seed).workers(workers);
                        let out = run.execute_pooled(threads).unwrap();
                        for (i, j) in seq.tile_coords() {
                            assert_eq!(
                                out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
                                0.0,
                                "{context} rep={rep} tile ({i},{j})"
                            );
                        }
                        assert_eq!(out.stats.messages, messages, "{context} rep={rep}");
                        assert_eq!(out.stats.bytes, comm::messages_to_bytes(messages, b));
                        assert_eq!(out.stats.recv_per_node.iter().sum::<u64>(), messages);
                    }
                }
            }
            tx.send(()).expect("the test is still waiting");
        });
        let verdict = rx.recv_timeout(Duration::from_secs(60));
        assert_ne!(
            verdict,
            Err(RecvTimeoutError::Timeout),
            "1200 pooled runs neither finished nor failed: a rank was left idle with work"
        );
        runner.join().expect("a run failed; its assertion is above");
    }
}
