//! The one driver of the rank engine. An [`Engine`] is a state machine:
//! [`Engine::step`] does one bounded, non-blocking unit of a rank's work and
//! says what it left behind ([`Progress`]). Who calls it, on which thread,
//! and what a thread does meanwhile is [`run_pooled`]'s business, and it
//! owns no protocol logic: it steps the ranks of the endpoints it is given
//! — a whole in-process mesh, or the one endpoint of a process's rank — on
//! one pool of threads, the caller one of them. A rank is stepped once
//! something marks it runnable: its inbox (a push wakes the endpoint's
//! waker, on the pushing thread), the table (an admission, the shutdown),
//! one of its timers (the watchdog, the endpoint's own) or its own step (a
//! second lane). A mark only queues the rank under the pool's lock — never a
//! receive, never a send — so a socket reader that marks its rank never
//! waits on a sender. Idle pool threads wait for the earliest timer; a clock
//! advanced by hand wakes them to read it again.

use crate::exec::ExecError;
use crate::jobs::{Driver, Engine, JobEngineConfig, JobTable, Progress};
use sbc_net::{Clock, Message, Transport};
use sbc_obs::Recorder;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Wake, Waker};
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads the pool runs for `ranks` ranks of `workers` lanes each: one per
/// lane, no more than the host has cores.
pub(crate) fn pool_threads(ranks: usize, workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (ranks * workers.max(1)).min(cores).max(1)
}

/// Runs the rank of every endpoint in `nets` on `threads` pooled threads,
/// the caller one of them, until every rank drained. Returns the first
/// failing rank's error, in the order of `nets`, or else the gather frames
/// that reached the ranks while they ran.
pub(crate) fn run_pooled(
    nets: &[&dyn Transport],
    table: &JobTable<'_>,
    cfg: JobEngineConfig,
    recorder: Option<&Recorder>,
    threads: usize,
) -> Result<Vec<Message>, ExecError> {
    let pool = Arc::new(Pool::new(
        nets.len(),
        cfg.workers,
        threads,
        Arc::clone(&table.clock),
    ));
    let hook = Arc::clone(&pool);
    table.on_admit(Box::new(move || hook.notify_all()));
    let runnable: Vec<Arc<Runnable>> = (0..nets.len())
        .map(|slot| Arc::new(Runnable(Arc::clone(&pool), slot)))
        .collect();
    let engines: Vec<Engine> = nets
        .iter()
        .zip(&runnable)
        .map(|(&net, rank)| {
            net.set_waker(Some(Waker::from(Arc::clone(rank))));
            Engine::new(net, table, cfg, recorder, &**rank)
        })
        .collect();
    let moved = Waker::from(Arc::clone(&pool));
    let step = |rank: usize| engines[rank].step();
    std::thread::scope(|scope| {
        for home in 1..threads {
            let (pool, step, moved) = (&pool, &step, &moved);
            scope.spawn(move || pool.run(home, step, moved));
        }
        pool.run(0, &step, &moved);
    });
    for net in nets {
        net.set_waker(None);
    }
    let gathered: Result<Vec<Vec<_>>, _> = engines.into_iter().map(Engine::finish).collect();
    gathered.map(|frames| frames.into_iter().flatten().collect())
}

/// One shared run queue for the ranks of a pool. A rank is `Idle` (no slot
/// taken), `Queued`, `Running`, or `Notified` — running while something
/// arrived, so it is queued again when its step ends instead of the
/// arrival being lost. With `workers > 1` a rank may hold up to that many
/// queued or running steps at once. Rank `r`'s home is pool thread
/// `r % threads`, which takes its own ranks first, so a rank keeps its
/// working set on one core while its home thread is free for it.
struct Pool {
    state: Mutex<PoolState>,
    /// Idle pool threads wait here.
    cv: Condvar,
    workers: u32,
    threads: usize,
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
    /// step (which picks up what the table admitted and the inbox holds),
    /// stepped by `threads` pool threads.
    fn new(ranks: usize, workers: usize, threads: usize, clock: Arc<dyn Clock>) -> Self {
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
            threads: threads.max(1),
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

    /// An admission or a shutdown: every rank has something to pick up.
    fn notify_all(&self) {
        let mut st = lock(&self.state);
        for rank in 0..st.ranks.len() {
            self.mark(&mut st, rank);
        }
    }

    /// The rank pool thread `home` steps next: the first queued rank homed
    /// on it, else the queue's front — so it finds one whenever one is
    /// queued.
    fn pick(&self, st: &mut PoolState, home: usize) -> Option<usize> {
        let queue = &mut st.queue;
        let homed = queue.iter().position(|&rank| rank % self.threads == home);
        queue.remove(homed.unwrap_or(0))
    }

    /// Pool thread `home`: `step` queued ranks until every rank drained.
    /// `moved` is the pool's own waker, which a clock advanced by hand wakes.
    fn run(&self, home: usize, step: &impl Fn(usize) -> Progress, moved: &Waker) {
        let mut st = lock(&self.state);
        while st.live > 0 {
            // a due timer is served even while other ranks keep the queue full
            let next = (st.armed > 0).then(|| self.fire_due(&mut st)).flatten();
            let Some(rank) = self.pick(&mut st, home) else {
                let wait = next.map(|due| {
                    self.clock.wake_on_advance(moved);
                    due.saturating_duration_since(self.clock.now())
                });
                st.idle += 1;
                st = match wait {
                    Some(timeout) => match self.cv.wait_timeout(st, timeout) {
                        Ok((st, _)) => st,
                        Err(poisoned) => poisoned.into_inner().0,
                    },
                    None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                };
                st.idle -= 1;
                continue;
            };
            let slot = &mut st.ranks[rank];
            slot.queued -= 1;
            slot.running += 1;
            // what arrived so far, this step absorbs
            slot.notified = false;
            drop(st);
            let progress = step(rank);
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

/// The clock moved: idle pool threads read it again.
impl Wake for Pool {
    fn wake(self: Arc<Self>) {
        let st = lock(&self.state);
        if st.idle > 0 {
            self.cv.notify_all();
        }
    }
}

/// One rank of a pool — the pool, and the rank's slot in it: the waker its
/// inbox wakes after every delivery, and the driver its engine nudges.
struct Runnable(Arc<Pool>, usize);

impl Wake for Runnable {
    fn wake(self: Arc<Self>) {
        self.0.mark(&mut lock(&self.0.state), self.1);
    }
}

impl Driver for Runnable {
    /// The rank's own step readied work: recruit another lane for it, when
    /// it has one. A rank with one lane keeps stepping on the thread it has.
    fn nudge(&self, work: bool) {
        if work && self.0.workers > 1 {
            self.0.enqueue(&mut lock(&self.0.state), self.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Run;
    use sbc_dist::{comm, SbcExtended, TwoDBlockCyclic};
    use sbc_kernels::Tile;
    use sbc_net::{inproc_mesh, FaultConfig, Faulty, Payload, VirtualClock};
    use sbc_taskgraph::{build_potrf, EdgeKind, TaskId};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Runs `run` on a thread of its own; `None` if it is not back within a
    /// minute — the bugs these tests pin are hangs.
    fn within_a_minute<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let runner = std::thread::spawn(run);
        let patience = Instant::now();
        while !runner.is_finished() {
            if patience.elapsed() > Duration::from_secs(60) {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(runner.join().expect("the run panicked"))
    }

    /// An all-drop 2x2 mesh on `threads` pool threads, its watchdog armed at
    /// `deadline` on `clock`. Returns whether the run failed, what the job's
    /// waiter saw, and how long it took in real time.
    fn all_drop_run(
        deadline: Duration,
        clock: Arc<dyn Clock>,
    ) -> (bool, Option<ExecError>, Duration) {
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
        let n = graph.num_nodes();
        let table = JobTable::with_clock(n, n, 1, clock);
        let id = table.submit(graph, 8, 1, 2, 0).unwrap();
        table.shutdown();
        let cfg = JobEngineConfig {
            deadline: Some(deadline),
            ..Default::default()
        };
        let mesh: Vec<_> = inproc_mesh(n)
            .into_iter()
            .map(|t| Faulty::new(t, FaultConfig::dropping(1)))
            .collect();
        let nets: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
        let started = Instant::now();
        let failed = run_pooled(&nets, &table, cfg, None, 2).is_err();
        (failed, table.wait(id).err(), started.elapsed())
    }

    /// Nothing polls a pool: a rank idle with a job in flight is stepped
    /// again when its watchdog deadline comes due. Over a mesh that drops
    /// every payload, the run ends in `Stalled` about a deadline after it
    /// started — not at a tick, and not never.
    #[test]
    fn a_stalled_pooled_rank_is_stepped_at_its_deadline() {
        let deadline = Duration::from_millis(200);
        let (failed, waited, took) =
            within_a_minute(move || all_drop_run(deadline, Arc::new(sbc_net::RealClock)))
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

    /// A pool waits for a timer in real time; on a clock advanced by hand
    /// the advance must end that wait. The same all-drop mesh, its table on
    /// a virtual clock ticked 10 s per real millisecond: a 1000 s deadline
    /// fires within real-time moments, not after 1000 s.
    #[test]
    fn a_pooled_rank_on_a_virtual_clock_stalls_at_its_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let ticking = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let ticker = {
            let (clock, ticking) = (Arc::clone(&clock), Arc::clone(&ticking));
            std::thread::spawn(move || {
                while ticking.load(std::sync::atomic::Ordering::Relaxed) {
                    clock.advance(Duration::from_secs(10));
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let deadline = Duration::from_secs(1000);
        let on_clock = Arc::clone(&clock) as Arc<dyn Clock>;
        let outcome = within_a_minute(move || all_drop_run(deadline, on_clock));
        ticking.store(false, std::sync::atomic::Ordering::Relaxed);
        ticker.join().unwrap();
        let (failed, waited, _) = outcome.unwrap_or_else(|| {
            panic!(
                "still running after a minute and {:?} of virtual time",
                clock.elapsed()
            )
        });
        assert!(failed, "an all-drop run cannot succeed");
        assert!(
            matches!(waited, Some(ExecError::Stalled { .. })),
            "the waiter saw {waited:?}"
        );
        assert!(clock.elapsed() >= deadline);
    }

    /// No lost wake-up in the pool. A send that races its destination's
    /// running step, a rank recruiting a second lane, a pool thread parking
    /// as the last rank is queued: each, lost, is a run that never ends
    /// rather than a wrong answer. Many short runs at one to four pool
    /// threads and one and two lanes per rank, every one held to the
    /// sequential factor and the analytic traffic, under a deadline.
    #[test]
    fn pooled_runs_lose_no_wake_up() {
        let (nt, b, seed) = (24, 4, 11);
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let d = SbcExtended::new(4);
            let g = Arc::new(build_potrf(&d, nt));
            let mut seq = sbc_matrix::random_spd(seed, nt, b);
            sbc_matrix::potrf_tiled(&mut seq).unwrap();
            let messages = comm::potrf_messages(&d, nt);
            for threads in [1, 2, 3, 4] {
                for workers in [1, 2] {
                    let context = format!("threads={threads} workers={workers}");
                    for rep in 0..200 {
                        let run = Run::graph(Arc::clone(&g))
                            .block(b)
                            .seed(seed)
                            .workers(workers);
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
            "1600 pooled runs neither finished nor failed: a rank was left idle with work"
        );
        runner.join().expect("a run failed; its assertion is above");
    }

    /// The home pick gives way. Pool thread 0 sits in rank 0's step until
    /// ranks 2 and 4, homed on it too, have been stepped; thread 1, started
    /// once thread 0 is inside, steps its own ranks 1 and 3 and then must
    /// take 2 and 4 from the queue's front rather than park beside them.
    #[test]
    fn a_thread_steps_ranks_homed_elsewhere_rather_than_park() {
        let (steppers, other) = within_a_minute(|| {
            let pool = Pool::new(5, 1, 2, Arc::new(sbc_net::RealClock));
            let moved = Waker::noop();
            let (inside, entered) = std::sync::mpsc::channel();
            let (done, homed) = std::sync::mpsc::channel();
            let homed = Mutex::new(homed);
            let steppers = Mutex::new(vec![None; 5]);
            let step = |rank: usize| {
                lock(&steppers)[rank] = Some(std::thread::current().id());
                match rank {
                    0 => {
                        inside.send(()).unwrap();
                        // until thread 1 stepped ranks 2 and 4, or parked
                        let homed = lock(&homed);
                        let patience = Duration::from_secs(10);
                        let _ = (homed.recv_timeout(patience), homed.recv_timeout(patience));
                    }
                    2 | 4 => done.send(()).unwrap(),
                    _ => {}
                }
                Progress::Drained
            };
            let other = std::thread::scope(|scope| {
                let (pool, step) = (&pool, &step);
                scope.spawn(move || pool.run(0, step, moved));
                entered.recv().unwrap();
                let other = scope.spawn(move || pool.run(1, step, moved));
                other.thread().id()
            });
            (steppers.into_inner().unwrap(), other)
        })
        .expect("the pool never drained");
        assert_ne!(steppers[0], Some(other));
        for (rank, &by) in steppers.iter().enumerate().skip(1) {
            assert_eq!(by, Some(other), "thread 1 left rank {rank}");
        }
    }

    /// Steps `engine` by hand, as a pool thread would, until a step leaves
    /// work undone no longer.
    fn settle(engine: &Engine) -> Progress {
        loop {
            match engine.step() {
                Progress::Ran => {}
                progress => return progress,
            }
        }
    }

    /// Rank 0 of a pool over its endpoint alone, stepped by hand; the pool
    /// sees it idle after every `settle`. Whether something queued it again
    /// is the pool's queue, read and emptied by `requeued`.
    struct ByHand {
        pool: Arc<Pool>,
        rank: Arc<Runnable>,
    }

    impl ByHand {
        fn new(net: &dyn Transport, table: &JobTable<'_>) -> Self {
            let pool = Arc::new(Pool::new(1, 1, 1, Arc::clone(&table.clock)));
            let hook = Arc::clone(&pool);
            table.on_admit(Box::new(move || hook.notify_all()));
            let rank = Arc::new(Runnable(Arc::clone(&pool), 0));
            net.set_waker(Some(Waker::from(Arc::clone(&rank))));
            let by_hand = ByHand { pool, rank };
            by_hand.requeued();
            by_hand
        }

        fn requeued(&self) -> bool {
            let mut st = lock(&self.pool.state);
            let queued = st.queue.drain(..).count() > 0;
            st.ranks[0].queued = 0;
            queued
        }
    }

    /// A rank the pool left idle is queued again by each of the three things
    /// that give it work: a message in its inbox (a peer's tile), a peer's
    /// failure (its poison, through the same inbox) and the end of admission
    /// (through the table's hook). A mark that goes nowhere is a rank left
    /// idle with work — a hang.
    #[test]
    fn an_idle_rank_is_requeued_by_arrival_failure_and_drain() {
        let clock = Arc::new(VirtualClock::new()) as Arc<dyn Clock>;
        let cfg = JobEngineConfig::default();

        // (a), (b): rank 0 of a 2x2 mesh whose peers never run
        let graph = Arc::new(build_potrf(&TwoDBlockCyclic::new(2, 2), 6));
        let n = graph.num_nodes();
        let table = JobTable::with_clock(n, n, 1, Arc::clone(&clock));
        let id = table.submit(Arc::clone(&graph), 8, 5, 6, 0).unwrap();
        table.shutdown();
        let mesh = inproc_mesh(n);
        let pool = ByHand::new(&mesh[0], &table);
        let engine = Engine::new(&mesh[0], &table, cfg, None, &*pool.rank);
        assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
        assert!(!pool.requeued(), "rank 0's own sends mark its peers only");
        // a remote tile rank 0 waits for
        let tasks = graph.tasks();
        let remote = |&(p, _): &(TaskId, EdgeKind)| tasks[p as usize].node != 0;
        let producer = (0..graph.len() as TaskId)
            .filter(|&t| tasks[t as usize].node == 0)
            .find_map(|t| graph.preds(t).find(remote).map(|(p, _)| p))
            .expect("rank 0 waits on some remote tile");
        let from = &mesh[tasks[producer as usize].node as usize];
        let tile = Tile::zeros(8);
        from.send_payload(
            0,
            Payload::Data {
                job: id,
                producer,
                tile,
            },
        );
        assert!(pool.requeued(), "(a) a remote arrival");
        assert!(matches!(settle(&engine), Progress::Idle { .. }));
        pool.requeued();

        from.send_poison(0);
        assert!(pool.requeued(), "(b) a peer's failure");
        assert_eq!(settle(&engine), Progress::Drained);
        assert_eq!(table.wait(id).err(), Some(ExecError::Remote));
        mesh[0].set_waker(None);

        // (c): a resident rank idle between jobs, until admission closes
        let table = JobTable::with_clock(1, 1, 1, clock);
        let mesh = inproc_mesh(1);
        let pool = ByHand::new(&mesh[0], &table);
        let engine = Engine::new(&mesh[0], &table, cfg, None, &*pool.rank);
        assert_eq!(settle(&engine), Progress::Idle { next_timer: None });
        assert!(!pool.requeued());
        table.shutdown();
        assert!(pool.requeued(), "(c) the end of admission");
        assert_eq!(settle(&engine), Progress::Drained);
    }
}
