//! Cross-batch admission control for the paged backend's pin budget.
//!
//! The locality scheduler pins pages out of the store's cache budget for the
//! lifetime of a round (see [`crate::scheduler`]). One batch at a time that
//! is safe by construction — the scheduler sizes a round's chunk pins so
//! their sum never exceeds the budget. Two *concurrent* batches,
//! each assuming it owns the whole budget, would together pin up to twice
//! the cache capacity: every pinned page beyond the budget is memory the
//! deployment never agreed to spend, and the cache underneath devolves to
//! thrash because nothing it holds is evictable.
//!
//! [`AdmissionLedger`] is the fix: a semaphore-like ledger of pin capacity
//! that schedulers **lease** from before pinning anything. Each lease names
//! a minimum viable grant (two pages: one per side of a pair) and a desired
//! grant (the full plan); the ledger grants what is available, so
//! concurrent batches split the budget instead of both taking all of it.
//! Requests queue FIFO — a large batch cannot be starved by a stream of
//! later small ones — but a small request may *bypass* the queue when its
//! desired grant fits over and above the minimums of everything ahead of
//! it, which keeps single-round batches flowing while a large batch waits
//! for capacity. A batch leases per **round**, not per batch, so a long
//! batch releases and re-acquires capacity at every round boundary and
//! concurrent traffic interleaves at round granularity (this is what
//! "queued/split" means operationally: a large batch's plan shrinks to its
//! grant and proceeds round by round).
//!
//! Leases are RAII ([`PinLease`]): dropping one returns its grant and wakes
//! every waiter, so a panicking batch cannot leak budget. The ledger is
//! policy only — the hard evidence that pinned pages actually stay within
//! the budget lives in the store's own pin accounting
//! ([`pinned_pages_high_water`](effres_io::PagedColumnStore::pinned_pages_high_water)),
//! which the over-pin regression test asserts against.

use effres::{BusyReason, CancelReason, EffresError};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Observable state of an [`AdmissionLedger`], for stats reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Total pin capacity the ledger manages (the store's cache budget).
    pub budget: usize,
    /// Capacity not currently leased out.
    pub available: usize,
    /// Lease requests currently waiting for capacity.
    pub waiting: usize,
    /// Leases granted over the ledger's lifetime.
    pub leases: u64,
    /// Lease requests that had to wait at least once before being granted.
    pub queued: u64,
    /// Bounded requests rejected because the queue was at its depth bound.
    pub shed_queue_full: u64,
    /// Bounded requests that timed out waiting for capacity.
    pub shed_timeout: u64,
    /// Deadlined requests rejected up front because their deadline was
    /// closer than the estimated service time (see
    /// [`AdmissionLedger::admit_by_deadline`]).
    pub shed_doomed: u64,
}

#[derive(Debug)]
struct LedgerState {
    available: usize,
    /// FIFO queue of waiting requests: `(ticket, min)`.
    queue: VecDeque<(u64, usize)>,
    next_ticket: u64,
    leases: u64,
    queued: u64,
    shed_queue_full: u64,
    shed_timeout: u64,
    shed_doomed: u64,
}

/// A FIFO budget ledger concurrent batch executions lease page-pin capacity
/// from (see the module docs for the policy).
#[derive(Debug)]
pub struct AdmissionLedger {
    state: Mutex<LedgerState>,
    freed: Condvar,
    budget: usize,
}

impl AdmissionLedger {
    /// A ledger managing `budget` units of pin capacity (clamped to ≥ 1).
    pub fn new(budget: usize) -> Self {
        let budget = budget.max(1);
        AdmissionLedger {
            state: Mutex::new(LedgerState {
                available: budget,
                queue: VecDeque::new(),
                next_ticket: 0,
                leases: 0,
                queued: 0,
                shed_queue_full: 0,
                shed_timeout: 0,
                shed_doomed: 0,
            }),
            freed: Condvar::new(),
            budget,
        }
    }

    /// Total capacity the ledger manages.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Current counters (a consistent point-in-time snapshot).
    pub fn stats(&self) -> AdmissionStats {
        let state = self.state.lock().expect("admission ledger lock poisoned");
        AdmissionStats {
            budget: self.budget,
            available: state.available,
            waiting: state.queue.len(),
            leases: state.leases,
            queued: state.queued,
            shed_queue_full: state.shed_queue_full,
            shed_timeout: state.shed_timeout,
            shed_doomed: state.shed_doomed,
        }
    }

    /// Rejects a request whose deadline cannot be met: if now plus the
    /// `estimated` service time overshoots `deadline`, the request is
    /// *doomed* — running it could only burn capacity that live requests
    /// need — so it is shed up front with a typed
    /// [`EffresError::DeadlineExceeded`] without ever touching the queue
    /// (no slot consumed, FIFO order of real waiters untouched). Counted in
    /// [`AdmissionStats::shed_doomed`].
    ///
    /// The check is advisory by design: callers only invoke it when a
    /// service-time estimate exists (see
    /// [`ServiceTimeEwma`](crate::metrics::ServiceTimeEwma)), so a cold
    /// server never sheds on a guess.
    pub fn admit_by_deadline(
        &self,
        estimated: Duration,
        deadline: Instant,
    ) -> Result<(), EffresError> {
        if Instant::now() + estimated <= deadline {
            return Ok(());
        }
        let mut state = self.state.lock().expect("admission ledger lock poisoned");
        state.shed_doomed += 1;
        Err(EffresError::DeadlineExceeded {
            reason: CancelReason::Unmeetable,
        })
    }

    /// Leases between `min` and `desired` units, blocking until capacity is
    /// available — the unbounded case of [`lease_within`](Self::lease_within),
    /// which never sheds.
    pub fn lease(&self, min: usize, desired: usize) -> PinLease<'_> {
        self.lease_within(min, desired, usize::MAX, None)
            .expect("an unbounded lease never sheds")
    }

    /// Leases between `min` and `desired` units. `min` is the smallest grant
    /// the caller can make progress with; `desired` is its full plan (both
    /// clamped to the budget, and `desired` to at least `min`). An
    /// uncontended lease gets `desired` immediately; under contention the
    /// request joins the FIFO queue and is granted whatever is available
    /// (≥ `min`) when it reaches the head — unless its `desired` fits on top
    /// of the minimums of everything ahead, in which case it bypasses the
    /// queue with a full grant.
    ///
    /// Two bounds turn waiting into a typed [`EffresError::Busy`]:
    ///
    /// * `max_waiting` — if that many requests are already queued, the
    ///   request is shed immediately ([`BusyReason::QueueFull`]). Depth
    ///   bounds the queue's latency promise: a request admitted to the queue
    ///   has a real chance of being served within its timeout; one behind an
    ///   unbounded line does not.
    /// * `timeout` — the longest the request will wait once queued (`None`
    ///   waits until granted). If capacity has not been granted by then, the
    ///   ticket is withdrawn and the request shed
    ///   ([`BusyReason::LeaseTimeout`]).
    ///
    /// Shed requests leave the ledger exactly as they found it (the ticket
    /// is removed and every remaining waiter re-evaluated), and are counted
    /// in [`AdmissionStats::shed_queue_full`] / [`shed_timeout`](AdmissionStats::shed_timeout).
    ///
    /// The returned [`PinLease`] gives the grant back on drop. Callers must
    /// not hold one lease while requesting another (self-deadlock under
    /// contention); the scheduler leases once per round and releases before
    /// the next.
    pub fn lease_within(
        &self,
        min: usize,
        desired: usize,
        max_waiting: usize,
        timeout: Option<Duration>,
    ) -> Result<PinLease<'_>, EffresError> {
        let min = min.clamp(1, self.budget);
        let desired = desired.clamp(min, self.budget);
        let mut state = self.state.lock().expect("admission ledger lock poisoned");
        if state.queue.is_empty() && state.available >= desired {
            state.available -= desired;
            state.leases += 1;
            return Ok(PinLease {
                ledger: self,
                granted: desired,
            });
        }
        if state.queue.len() >= max_waiting {
            state.shed_queue_full += 1;
            return Err(EffresError::Busy {
                reason: BusyReason::QueueFull,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back((ticket, min));
        state.queued += 1;
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        loop {
            let pos = state
                .queue
                .iter()
                .position(|&(t, _)| t == ticket)
                .expect("waiting ticket stays queued");
            let ahead: usize = state.queue.iter().take(pos).map(|&(_, m)| m).sum();
            let granted = if pos == 0 && state.available >= min {
                // Head of the queue: take what is there, up to the plan.
                Some(desired.min(state.available))
            } else if pos > 0 && state.available >= ahead + desired {
                // Bypass: the full grant fits over the minimums of
                // everything ahead, so taking it cannot starve them.
                Some(desired)
            } else {
                None
            };
            if let Some(granted) = granted {
                state.queue.remove(pos);
                state.available -= granted;
                state.leases += 1;
                // Queue positions shifted; re-evaluate every waiter.
                self.freed.notify_all();
                return Ok(PinLease {
                    ledger: self,
                    granted,
                });
            }
            let Some(deadline) = deadline else {
                state = self
                    .freed
                    .wait(state)
                    .expect("admission ledger lock poisoned");
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                state.queue.remove(pos);
                state.shed_timeout += 1;
                // Positions shifted: a bypass that was blocked behind this
                // ticket's minimum may now fit.
                self.freed.notify_all();
                return Err(EffresError::Busy {
                    reason: BusyReason::LeaseTimeout,
                });
            }
            let (guard, _timed_out) = self
                .freed
                .wait_timeout(state, deadline - now)
                .expect("admission ledger lock poisoned");
            state = guard;
        }
    }

    fn release(&self, granted: usize) {
        let mut state = self.state.lock().expect("admission ledger lock poisoned");
        state.available += granted;
        debug_assert!(state.available <= self.budget);
        self.freed.notify_all();
    }
}

/// A leased slice of pin capacity; returns itself to the ledger on drop.
#[derive(Debug)]
pub struct PinLease<'a> {
    ledger: &'a AdmissionLedger,
    granted: usize,
}

impl PinLease<'_> {
    /// Units of pin capacity this lease holds.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for PinLease<'_> {
    fn drop(&mut self) {
        self.ledger.release(self.granted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn uncontended_lease_gets_the_full_desired_grant() {
        let ledger = AdmissionLedger::new(16);
        let lease = ledger.lease(2, 16);
        assert_eq!(lease.granted(), 16);
        assert_eq!(ledger.stats().available, 0);
        drop(lease);
        assert_eq!(ledger.stats().available, 16);
        assert_eq!(ledger.stats().leases, 1);
        assert_eq!(ledger.stats().queued, 0);
    }

    #[test]
    fn requests_are_clamped_to_the_budget() {
        let ledger = AdmissionLedger::new(4);
        let lease = ledger.lease(100, 1000);
        assert_eq!(lease.granted(), 4);
    }

    #[test]
    fn concurrent_leases_never_oversubscribe_the_budget() {
        let budget = 8;
        let ledger = Arc::new(AdmissionLedger::new(budget));
        let outstanding = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let ledger = Arc::clone(&ledger);
                let outstanding = Arc::clone(&outstanding);
                let high_water = Arc::clone(&high_water);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let desired = 2 + (i + round) % 7;
                        let lease = ledger.lease(2, desired);
                        assert!(lease.granted() >= 2 && lease.granted() <= desired.max(2));
                        let now = outstanding.fetch_add(lease.granted(), Ordering::SeqCst)
                            + lease.granted();
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        outstanding.fetch_sub(lease.granted(), Ordering::SeqCst);
                        drop(lease);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("leasing thread");
        }
        assert!(
            high_water.load(Ordering::SeqCst) <= budget,
            "outstanding grants exceeded the budget: {} > {budget}",
            high_water.load(Ordering::SeqCst)
        );
        let stats = ledger.stats();
        assert_eq!(stats.available, budget);
        assert_eq!(stats.leases, 6 * 50);
        assert_eq!(stats.waiting, 0);
    }

    #[test]
    fn a_blocked_full_budget_request_is_granted_when_capacity_frees() {
        let ledger = Arc::new(AdmissionLedger::new(10));
        let big_holder = ledger.lease(2, 7); // leaves 3 available
                                             // A full-budget request must queue...
        let blocked = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.lease(4, 10).granted())
        };
        while ledger.stats().waiting == 0 {
            std::thread::yield_now();
        }
        // ...but it is only *waiting*, not holding: when the holder releases,
        // the head request gets everything that is free.
        drop(big_holder);
        assert_eq!(blocked.join().expect("blocked lease"), 10);
        assert_eq!(ledger.stats().available, 10);
        assert!(ledger.stats().queued >= 1);
    }

    #[test]
    fn bypass_grants_only_over_the_minimums_of_the_queue() {
        let ledger = Arc::new(AdmissionLedger::new(10));
        let holder = ledger.lease(2, 6); // 4 available
                                         // Head request needs more than is available: queues with min 5.
        let head = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.lease(5, 10).granted())
        };
        while ledger.stats().waiting == 0 {
            std::thread::yield_now();
        }
        // A later request whose desired never fits over the head's minimum
        // (5 + 6 > 10) can never bypass — it queues, preserving FIFO.
        let second = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.lease(6, 6).granted())
        };
        while ledger.stats().waiting < 2 {
            std::thread::yield_now();
        }
        drop(holder); // 10 available: head takes all 10, then second gets 6.
        assert_eq!(head.join().expect("head lease"), 10);
        assert_eq!(second.join().expect("second lease"), 6);
        assert_eq!(ledger.stats().available, 10);
    }

    #[test]
    fn bounded_lease_grants_when_uncontended() {
        let ledger = AdmissionLedger::new(8);
        let lease = ledger
            .lease_within(2, 8, 4, Some(Duration::from_millis(50)))
            .expect("uncontended bounded lease");
        assert_eq!(lease.granted(), 8);
        drop(lease);
        let stats = ledger.stats();
        assert_eq!(stats.shed_queue_full, 0);
        assert_eq!(stats.shed_timeout, 0);
    }

    #[test]
    fn bounded_lease_sheds_immediately_when_the_queue_is_full() {
        let ledger = AdmissionLedger::new(4);
        let _holder = ledger.lease(2, 4); // budget exhausted
        let shed = ledger.lease_within(2, 4, 0, Some(Duration::from_secs(10)));
        assert_eq!(
            shed.unwrap_err(),
            EffresError::Busy {
                reason: BusyReason::QueueFull
            }
        );
        assert_eq!(ledger.stats().shed_queue_full, 1);
        // The decision is immediate — the 10s timeout never ran.
        assert_eq!(ledger.stats().waiting, 0);
    }

    #[test]
    fn a_doomed_deadline_is_shed_without_consuming_a_queue_slot() {
        let ledger = Arc::new(AdmissionLedger::new(4));
        let holder = ledger.lease(2, 4); // budget exhausted
                                         // Two live requests queue FIFO behind the holder.
        let first = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.lease(3, 3).granted())
        };
        while ledger.stats().waiting < 1 {
            std::thread::yield_now();
        }
        let second = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.lease(4, 4).granted())
        };
        while ledger.stats().waiting < 2 {
            std::thread::yield_now();
        }
        // A doomed request — estimated service time far beyond its deadline —
        // is rejected immediately: typed error, no queue slot consumed, even
        // though the queue-depth bound (1) is already exceeded by the live
        // waiters. A `lease_within` with the same bound would have shed them.
        let doomed = ledger.admit_by_deadline(
            Duration::from_secs(60),
            Instant::now() + Duration::from_millis(1),
        );
        assert_eq!(
            doomed.unwrap_err(),
            EffresError::DeadlineExceeded {
                reason: CancelReason::Unmeetable
            }
        );
        let stats = ledger.stats();
        assert_eq!(stats.shed_doomed, 1);
        assert_eq!(stats.waiting, 2, "doomed request never queued");
        // A meetable deadline sails through without queueing either.
        ledger
            .admit_by_deadline(
                Duration::from_millis(1),
                Instant::now() + Duration::from_secs(60),
            )
            .expect("meetable deadline admitted");
        assert_eq!(ledger.stats().waiting, 2);
        // FIFO for the live waiters is preserved: when the holder releases,
        // the first request is granted (3 of 4), and the second — whose min
        // of 4 cannot be met while the first holds 3 — only after it.
        drop(holder);
        assert_eq!(first.join().expect("first waiter"), 3);
        assert_eq!(second.join().expect("second waiter"), 4);
        assert_eq!(ledger.stats().available, 4);
        assert_eq!(ledger.stats().shed_doomed, 1);
    }

    #[test]
    fn bounded_lease_times_out_and_withdraws_its_ticket() {
        let ledger = AdmissionLedger::new(4);
        let holder = ledger.lease(2, 4);
        let start = Instant::now();
        let shed = ledger.lease_within(2, 4, 4, Some(Duration::from_millis(20)));
        assert_eq!(
            shed.unwrap_err(),
            EffresError::Busy {
                reason: BusyReason::LeaseTimeout
            }
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(ledger.stats().shed_timeout, 1);
        assert_eq!(ledger.stats().waiting, 0, "ticket withdrawn on timeout");
        drop(holder);
        // The ledger is intact: a later request proceeds normally.
        assert_eq!(
            ledger
                .lease_within(2, 4, 4, Some(Duration::from_millis(20)))
                .expect("post-shed lease")
                .granted(),
            4
        );
    }
}
