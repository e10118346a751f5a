//! Bounded MPMC notification channels with explicit overflow policies.
//!
//! The broker used to hand every subscriber an unbounded queue, which
//! turns one stalled consumer into unbounded memory growth. This
//! module supplies the replacement: a small MPMC channel whose `send`
//! never blocks the publishing hot path and instead resolves overflow
//! according to a configured [`OverflowPolicy`] — evict the oldest
//! queued notification, refuse the newest, or sever the channel so the
//! broker's dead-subscriber garbage collection prunes the
//! subscription.
//!
//! `DropOldest` is why this is hand-rolled rather than a bounded
//! channel from a library shim: eviction pops from the *send* side,
//! an operation classical bounded channels do not expose.
//!
//! # Wake rule
//!
//! A send wakes a receiver only when one is blocked. The channel
//! state counts the receivers parked in [`Receiver::recv_timeout`]:
//! the count rises under the state mutex just before the wait and
//! falls after every return from it (notification, timeout or
//! poisoned lock). [`Sender::send`] reads the count under the same
//! lock and calls `notify_one` only when it is non-zero, so enqueueing
//! for a consumer that is busy or polling costs no wake-up syscall.
//! No wake-up is lost: a receiver holds the lock from its empty-queue
//! check until the wait releases it, so a send either lands before the
//! check or sees the receiver counted. The sender count lives under
//! the same lock, so the last sender's disconnect cannot be lost
//! either.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a bounded subscriber channel does when a send finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Evict the oldest queued notification to admit the new one: the
    /// consumer keeps seeing the freshest events at the price of a gap
    /// (the default — matches a monitoring consumer that only cares
    /// about current state).
    #[default]
    DropOldest,
    /// Refuse the new notification and keep the queued backlog intact:
    /// the consumer drains a contiguous prefix and misses the tail.
    DropNewest,
    /// Sever the channel: the subscriber is treated as hung-up, and
    /// the broker's dead-subscriber garbage collection cancels the
    /// subscription on this publish.
    Disconnect,
}

/// How a send was resolved (the broker turns these into metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Queued without loss.
    Delivered,
    /// Queued, but one previously queued notification was evicted
    /// (`DropOldest`) — or the new one was refused (`DropNewest`).
    /// Either way exactly one notification was lost.
    DroppedOne,
}

/// The channel is severed: every receiver is gone, or an overflow
/// under [`OverflowPolicy::Disconnect`] closed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Disconnected;

struct State<T> {
    buf: VecDeque<T>,
    /// Set by an overflow under [`OverflowPolicy::Disconnect`]; once
    /// closed the channel stays closed.
    closed: bool,
    /// Notifications lost to the overflow policy on this channel.
    dropped: u64,
    /// Receivers blocked in [`Receiver::recv_timeout`] right now; a
    /// send wakes one only when this is non-zero.
    waiting: usize,
    /// Live senders. Kept under the lock with `waiting`, so the last
    /// sender's disconnect cannot slip between a receiver's check and
    /// its wait.
    senders: usize,
}

impl<T> State<T> {
    /// Severed: closed by an overflow, or every sender gone.
    fn severed(&self) -> bool {
        self.closed || self.senders == 0
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    receivers: AtomicUsize,
}

impl<T> Inner<T> {
    fn state(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Creates a notification channel. `capacity == 0` means unbounded
/// (the seed behaviour); otherwise at most `capacity` notifications
/// are queued and `policy` resolves overflow.
pub(crate) fn channel<T>(capacity: usize, policy: OverflowPolicy) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            closed: false,
            dropped: 0,
            waiting: 0,
            senders: 1,
        }),
        ready: Condvar::new(),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
            capacity,
            policy,
        },
        Receiver { inner },
    )
}

/// The broker-side half: owned by dispatch entries.
pub(crate) struct Sender<T> {
    inner: Arc<Inner<T>>,
    capacity: usize,
    policy: OverflowPolicy,
}

/// The subscriber-side half, wrapped by
/// [`Subscriber`](crate::Subscriber).
pub(crate) struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Enqueues a notification without ever blocking. Overflow is
    /// resolved by the channel's policy; `Err` means the channel is
    /// severed and the subscription should be garbage-collected.
    ///
    /// Wakes a receiver only if one is blocked in
    /// [`Receiver::recv_timeout`] (see the module's wake rule): with no
    /// receiver waiting, a send is one uncontended lock and a queue
    /// push, no syscall and, once the queue has grown, no allocation.
    pub(crate) fn send(&self, msg: T) -> Result<SendOutcome, Disconnected> {
        if self.inner.receivers.load(Ordering::Acquire) == 0 {
            return Err(Disconnected);
        }
        let mut s = self.inner.state();
        if s.closed {
            return Err(Disconnected);
        }
        let outcome = if self.capacity > 0 && s.buf.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::DropOldest => {
                    s.buf.pop_front();
                    s.buf.push_back(msg);
                    s.dropped += 1;
                    SendOutcome::DroppedOne
                }
                OverflowPolicy::DropNewest => {
                    s.dropped += 1;
                    SendOutcome::DroppedOne
                }
                OverflowPolicy::Disconnect => {
                    s.closed = true;
                    s.buf.clear();
                    let wake = s.waiting > 0;
                    drop(s);
                    if wake {
                        self.inner.ready.notify_all();
                    }
                    return Err(Disconnected);
                }
            }
        } else {
            s.buf.push_back(msg);
            SendOutcome::Delivered
        };
        let wake = s.waiting > 0;
        drop(s);
        if wake {
            self.inner.ready.notify_one();
        }
        Ok(outcome)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
            policy: self.policy,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.inner.state();
        s.senders -= 1;
        if s.senders == 0 && s.waiting > 0 {
            self.inner.ready.notify_all();
        }
    }
}

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and the channel is severed (every sender gone,
    /// or closed by [`OverflowPolicy::Disconnect`]).
    Disconnected,
}

impl<T> Receiver<T> {
    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut s = self.inner.state();
        if let Some(msg) = s.buf.pop_front() {
            return Ok(msg);
        }
        if s.severed() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocking receive with a timeout. `None` on timeout or
    /// disconnect.
    ///
    /// While parked the receiver is counted in the channel state, so
    /// sends wake it; the count is taken back after every return from
    /// the wait, timed out or poisoned alike.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut s = self.inner.state();
        loop {
            if let Some(msg) = s.buf.pop_front() {
                return Some(msg);
            }
            if s.severed() {
                return None;
            }
            let wait = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    deadline - now
                }
                // Unrepresentable deadline: wait in long slices.
                None => Duration::from_secs(3600),
            };
            s.waiting += 1;
            let (guard, _timed_out) = self
                .inner
                .ready
                .wait_timeout(s, wait)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            s.waiting -= 1;
        }
    }

    /// Number of queued notifications.
    pub(crate) fn len(&self) -> usize {
        self.inner.state().buf.len()
    }

    /// Notifications this channel has lost to its overflow policy.
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.state().dropped
    }

    /// Whether the channel is severed (regardless of queued backlog).
    pub(crate) fn is_disconnected(&self) -> bool {
        self.inner.state().severed()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_when_capacity_zero() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        for i in 0..1000 {
            assert_eq!(tx.send(i), Ok(SendOutcome::Delivered));
        }
        assert_eq!(rx.len(), 1000);
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_tail() {
        let (tx, rx) = channel(3, OverflowPolicy::DropOldest);
        for i in 0..10 {
            let out = tx.send(i).unwrap();
            if i < 3 {
                assert_eq!(out, SendOutcome::Delivered);
            } else {
                assert_eq!(out, SendOutcome::DroppedOne);
            }
        }
        assert_eq!(rx.dropped(), 7);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn drop_newest_keeps_the_prefix() {
        let (tx, rx) = channel(3, OverflowPolicy::DropNewest);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.dropped(), 7);
        assert_eq!(rx.try_recv(), Ok(0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_policy_severs_the_channel() {
        let (tx, rx) = channel(2, OverflowPolicy::Disconnect);
        assert!(tx.send(0).is_ok());
        assert!(tx.send(1).is_ok());
        assert_eq!(tx.send(2), Err(Disconnected));
        // Severed for good: the backlog is gone and later sends fail.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(tx.send(3), Err(Disconnected));
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        drop(rx);
        assert_eq!(tx.send(1), Err(Disconnected));
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_send() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(99).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Some(99));
        handle.join().unwrap();
    }

    #[test]
    fn waiting_count_is_restored_after_every_wait() {
        let (tx, rx) = channel(0, OverflowPolicy::DropOldest);
        assert_eq!(rx.recv_timeout(Duration::from_millis(2)), None);
        assert_eq!(rx.inner.state().waiting, 0);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(7).unwrap();
            tx
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Some(7));
        assert_eq!(rx.inner.state().waiting, 0);
        // No receiver parked: sends leave the count alone.
        let tx = handle.join().unwrap();
        tx.send(8).unwrap();
        assert_eq!(rx.inner.state().waiting, 0);
        assert_eq!(rx.try_recv(), Ok(8));
    }

    #[test]
    fn last_sender_drop_wakes_a_blocked_receiver() {
        // The disconnect must not slip between a receiver's
        // severed-check and its wait: each blocked receiver returns
        // `None` well within its 10 s timeout.
        //
        // Spins (yielding only if the other thread is not running, as on
        // one core) until `go` reads `v`.
        fn await_go(go: &AtomicUsize, v: usize) {
            let mut spins = 0u32;
            while go.load(Ordering::Acquire) != v {
                if spins < 10_000 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        for i in 0..5000u32 {
            let (tx, rx) = channel::<u32>(0, OverflowPolicy::DropOldest);
            let clone = tx.clone();
            // Both threads spin up to the start line rather than block,
            // so neither pays a wake-up latency that would swamp the
            // race window.
            let go = Arc::new(AtomicUsize::new(0));
            let waiter = std::thread::spawn({
                let go = Arc::clone(&go);
                move || {
                    go.store(1, Ordering::Release);
                    await_go(&go, 2);
                    let woke = rx.recv_timeout(Duration::from_secs(10));
                    (woke, Instant::now())
                }
            });
            drop(clone);
            await_go(&go, 1);
            go.store(2, Ordering::Release);
            // Vary where the drop lands relative to the receiver's
            // check-then-wait window.
            for _ in 0..i % 64 {
                std::hint::spin_loop();
            }
            drop(tx); // the last sender
            let dropped_at = Instant::now();
            let (woke, returned_at) = waiter.join().unwrap();
            assert_eq!(woke, None, "iteration {i}");
            assert!(
                returned_at.saturating_duration_since(dropped_at) < Duration::from_secs(1),
                "iteration {i}: receiver slept through the disconnect"
            );
        }
    }
}
