//! Injectable time sources: real wall-clock in production, virtual time
//! under the model checker.
//!
//! Everything time-dependent in the protocol stack — the session's
//! retransmission timers ([`crate::Session`]) and the rank engine's stall
//! watchdog — reads time through the [`Clock`] trait instead of calling
//! [`Instant::now`] directly. Production code injects [`RealClock`] (the
//! default, zero-overhead); the model checker in `sbc-mc` injects a
//! [`VirtualClock`] it advances explicitly, which turns the session state
//! machine into a pure function of (inputs, clock): every timer firing is
//! a deliberate step of the exploration, never a race against the host
//! scheduler. This is the dslab-core discrete-event pattern — one shared
//! event core, with time as data — applied to the real protocol code
//! rather than a model of it.
//!
//! [`VirtualClock`] still hands out honest [`Instant`]s (an epoch captured
//! at construction plus an atomic offset), so downstream consumers that
//! timestamp events with `Instant` — [`crate::SessionEvent`], the
//! observability recorder — need no changes.
//!
//! A wait for a timer is bounded in real time, which a virtual clock does
//! not follow, so a waiter also registers with
//! [`Clock::wake_on_advance`]: advancing a [`VirtualClock`] wakes it to read
//! the clock again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::task::Waker;
use std::time::{Duration, Instant};

/// A monotonic time source.
///
/// Implementations must be monotone: successive `now()` calls never go
/// backwards. Beyond that the trait promises nothing about the relation to
/// wall-clock time — that is the point.
pub trait Clock: Send + Sync {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;

    /// Has `waker` woken the next time this clock is moved by hand. A
    /// waiter registers before it reads [`Clock::now`] to size a timed wait,
    /// so an advance in between is either seen or wakes it. The default
    /// registers nothing: a clock that follows real time is never moved by
    /// hand, and a wait bounded in real time already ends when its timer is
    /// due.
    fn wake_on_advance(&self, _waker: &Waker) {}
}

/// The production clock: [`Instant::now`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A manually advanced clock for deterministic tests and model checking.
///
/// Time stands still until [`advance`](VirtualClock::advance) (or
/// [`advance_to`](VirtualClock::advance_to)) moves it forward; `now()`
/// returns a fixed epoch plus the accumulated offset. Cloneable handles are
/// shared by wrapping in [`std::sync::Arc`], which is how a checker drives
/// every session in a world from one clock. Every advance wakes, once, the
/// wakers registered through [`Clock::wake_on_advance`] since the last one.
#[derive(Debug)]
pub struct VirtualClock {
    epoch: Instant,
    nanos: AtomicU64,
    wakers: Mutex<Vec<Waker>>,
}

impl VirtualClock {
    /// A clock frozen at its creation instant.
    pub fn new() -> Self {
        VirtualClock {
            epoch: Instant::now(),
            nanos: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
        }
    }

    fn wakers(&self) -> MutexGuard<'_, Vec<Waker>> {
        self.wakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes what waits on this clock, outside the lock.
    fn moved(&self) {
        let woken = std::mem::take(&mut *self.wakers());
        woken.into_iter().for_each(Waker::wake);
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            Ordering::SeqCst,
        );
        self.moved();
    }

    /// Moves time forward so that `now() == t`; a no-op if `t` is not in
    /// the future (the clock never goes backwards).
    pub fn advance_to(&self, t: Instant) {
        let target =
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        if self.nanos.fetch_max(target, Ordering::SeqCst) < target {
            self.moved();
        }
    }

    /// Virtual time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.epoch + Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn wake_on_advance(&self, waker: &Waker) {
        let mut wakers = self.wakers();
        if !wakers.iter().any(|w| w.will_wake(waker)) {
            wakers.push(waker.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    #[derive(Default)]
    struct Count(AtomicU64);

    impl Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A registration is woken by the next advance that moves the clock,
    /// once, however often it was made.
    #[test]
    fn an_advance_wakes_each_registered_waiter_once() {
        let c = VirtualClock::new();
        let count = Arc::new(Count::default());
        let waker = Waker::from(Arc::clone(&count));
        let woken = || count.0.load(Ordering::SeqCst);
        c.wake_on_advance(&waker);
        c.wake_on_advance(&waker);
        c.advance_to(c.now()); // not a move
        assert_eq!(woken(), 0);
        c.advance(Duration::from_secs(1));
        assert_eq!(woken(), 1, "woken once");
        c.advance(Duration::from_secs(1));
        assert_eq!(woken(), 1, "a registration is used up");
        c.wake_on_advance(&waker);
        c.advance_to(c.now() + Duration::from_secs(1));
        assert_eq!(woken(), 2);
        // the clock that follows real time registers nothing
        RealClock.wake_on_advance(&waker);
    }

    #[test]
    fn virtual_time_only_moves_when_advanced() {
        let c = VirtualClock::new();
        let t0 = c.now();
        assert_eq!(c.now(), t0, "frozen until advanced");
        c.advance(Duration::from_millis(7));
        assert_eq!(c.now() - t0, Duration::from_millis(7));
        assert_eq!(c.elapsed(), Duration::from_millis(7));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new();
        let t0 = c.now();
        c.advance_to(t0 + Duration::from_secs(2));
        c.advance_to(t0 + Duration::from_secs(1)); // in the past: ignored
        assert_eq!(c.elapsed(), Duration::from_secs(2));
    }

    #[test]
    fn shared_handles_see_one_timeline() {
        let c = Arc::new(VirtualClock::new());
        let c2 = Arc::clone(&c);
        c.advance(Duration::from_micros(500));
        assert_eq!(c2.elapsed(), Duration::from_micros(500));
    }
}
