//! Machine pool with dynamic membership.
//!
//! Machine ids are dense, monotone and never recycled, so the pool is a
//! **slab**: a flat vector indexed directly by id (`O(1)` access on the
//! event hot path, no tree walks), plus a sorted vector of alive ids
//! for deterministic id-order iteration and snapshots. Joins are O(1);
//! departures are O(alive) for the id-list splice — churn events are
//! orders of magnitude rarer than job events, so the hot loop never
//! pays for it.

use std::collections::VecDeque;

use crate::event::EventToken;
use crate::workload::MachineSpec;

/// The job a machine is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Job identifier.
    pub job: u64,
    /// When the current attempt's scheduled event fires, in ticks: the
    /// planned completion, or an earlier transient-failure instant if
    /// the fault layer drew one inside the attempt.
    pub finish: i64,
    /// Planned completion time absent failure, in ticks. Ready-time
    /// snapshots use this so schedulers plan against intended work, and
    /// checkpoint salvage measures attempt progress against it. Equal
    /// to `finish` when the attempt will not fail.
    pub planned: i64,
    /// Token of the scheduled `JobFinish`/`JobFail` event, so a
    /// departure or crash can cancel it instead of leaving a stale
    /// event for the handler to re-validate.
    pub finish_event: EventToken,
}

/// Execution state of one grid machine.
///
/// The queue is private so that every change to it also updates
/// `backlog`, the exact tick sum of the queued jobs' raw ETCs on this
/// machine: the machine's ready time is then one addition, with no memo
/// to invalidate.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Static characteristics.
    pub spec: MachineSpec,
    /// Job ids queued on this machine, executed front-to-back (the
    /// dispatcher enqueues each batch in SPT order). A deque: starts
    /// pop the front in O(1) whatever the backlog depth.
    queue: VecDeque<u64>,
    /// Σ of the queued jobs' raw ETCs on this machine, in ticks.
    backlog: i64,
    /// The running job, if any.
    pub running: Option<RunningJob>,
    /// Crash/repair draws taken so far: indexes the machine's dedicated
    /// reliability stream so every MTBF/MTTR gap is a fresh draw.
    pub crash_seq: u32,
    /// Token of the machine's armed `MachineCrash` event, if the
    /// failure model schedules crashes; cancelled on departure and at
    /// drain quiescence.
    pub next_crash: Option<EventToken>,
    /// Consecutive failed attempts on this machine (crashes and
    /// transient failures); a success resets it. Feeds the blacklist.
    pub consecutive_failures: u32,
    /// The machine is quarantined from new assignments until this tick
    /// (blacklist probation); zero means never blacklisted.
    pub blacklisted_until: i64,
}

impl Machine {
    /// Creates an idle machine.
    #[must_use]
    pub fn new(spec: MachineSpec) -> Self {
        Self {
            spec,
            queue: VecDeque::new(),
            backlog: 0,
            running: None,
            crash_seq: 0,
            next_crash: None,
            consecutive_failures: 0,
            blacklisted_until: 0,
        }
    }

    /// When the machine will have finished everything currently committed
    /// to it (running job + queue), in ticks: the running job's planned
    /// completion (or `now` when idle) plus the queue's backlog. This is
    /// the machine's **ready time** for the next scheduler activation
    /// (paper §2).
    #[must_use]
    pub fn ready_time(&self, now: i64) -> i64 {
        // Plan against the intended completion: an attempt that will
        // fail early still owes the machine the planned work (the retry
        // lands somewhere, usually here).
        let base = self.running.map_or(now, |running| running.planned);
        cmags_core::ticks::add(base, self.backlog)
    }

    /// Σ of the queued jobs' raw ETCs on this machine, in ticks.
    #[must_use]
    pub fn backlog(&self) -> i64 {
        self.backlog
    }

    /// The queued job ids, front first.
    #[must_use]
    pub fn queue(&self) -> &VecDeque<u64> {
        &self.queue
    }

    /// Appends a job whose raw ETC on this machine is `etc` ticks.
    pub fn enqueue(&mut self, job: u64, etc: i64) {
        self.queue.push_back(job);
        self.backlog = cmags_core::ticks::add(self.backlog, etc);
    }

    /// Pops the front job, taking its raw ETC (`etc_of`, in ticks — the
    /// value [`enqueue`](Self::enqueue) was given) off the backlog.
    pub fn dequeue(&mut self, etc_of: impl FnOnce(u64) -> i64) -> Option<u64> {
        let job = self.queue.pop_front()?;
        self.backlog -= etc_of(job);
        Some(job)
    }

    /// Empties the queue, returning the job ids in order, for a crash or
    /// departure that resubmits them.
    pub fn take_queue(&mut self) -> VecDeque<u64> {
        self.backlog = 0;
        std::mem::take(&mut self.queue)
    }

    /// Whether the machine has nothing to do.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }
}

/// The set of alive machines: a slab indexed by id, with a sorted
/// alive-id list for deterministic iteration. Crashed machines move to
/// a disjoint sorted `down` list — quarantined but not departed: their
/// slot (identity, reliability stream cursor, blacklist state)
/// survives until [`recover`](Self::recover) re-admits them.
#[derive(Debug, Default)]
pub struct MachinePool {
    /// Slot per ever-issued id; `None` for departed or reserved ids.
    /// Crashed machines keep their slot.
    slots: Vec<Option<Machine>>,
    /// Alive (schedulable) ids, ascending.
    alive: Vec<u64>,
    /// Crashed (quarantined, under repair) ids, ascending.
    down: Vec<u64>,
}

impl MachinePool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next machine id without bringing the machine up.
    /// Used to stamp `MachineJoin` events with their real identity at
    /// schedule time; the reservation is filled by
    /// [`join_reserved`](Self::join_reserved) when the event fires.
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.slots.len() as u64;
        self.slots.push(None);
        id
    }

    /// Adds a machine with the given spec characteristics, returning its
    /// id.
    pub fn join(&mut self, slowness: f64) -> u64 {
        let id = self.reserve_id();
        self.join_reserved(id, slowness);
        id
    }

    /// Brings up a machine on an id previously returned by
    /// [`reserve_id`](Self::reserve_id).
    ///
    /// # Panics
    ///
    /// Panics if the id was never reserved or is already alive.
    pub fn join_reserved(&mut self, id: u64, slowness: f64) {
        let slot = self
            .slots
            .get_mut(id as usize)
            .expect("join of an unreserved machine id");
        assert!(slot.is_none(), "machine {id} is already alive");
        *slot = Some(Machine::new(MachineSpec { id, slowness }));
        // Ids are issued in increasing order and a reserved id joins
        // before the next reservation is made, so pushing keeps the
        // alive list sorted.
        debug_assert!(self.alive.last().is_none_or(|&last| last < id));
        self.alive.push(id);
    }

    /// Removes a machine, returning it (with any queued/running work) if
    /// it was alive.
    pub fn leave(&mut self, id: u64) -> Option<Machine> {
        let machine = self.slots.get_mut(id as usize)?.take()?;
        let pos = self
            .alive
            .binary_search(&id)
            .expect("alive list out of sync");
        self.alive.remove(pos);
        Some(machine)
    }

    /// Immutable access to a machine.
    #[inline]
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&Machine> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// Mutable access to a machine.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Machine> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Alive machines in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Machine> {
        self.alive
            .iter()
            .map(|&id| self.slots[id as usize].as_ref().expect("alive machine"))
    }

    /// Number of alive machines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether no machines are alive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Ids of alive machines, ascending — a borrow, so the hot path
    /// copies it into reusable scratch instead of allocating.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.alive
    }

    /// Quarantines a crashed machine: removed from the alive list (so
    /// schedulers and departures no longer see it) but its slot
    /// survives. Returns the work it was holding — the queued job ids
    /// and the running job, both stripped from the machine — or `None`
    /// if the id is not alive.
    pub fn crash(&mut self, id: u64) -> Option<(VecDeque<u64>, Option<RunningJob>)> {
        let pos = self.alive.binary_search(&id).ok()?;
        self.alive.remove(pos);
        let down_pos = self
            .down
            .binary_search(&id)
            .expect_err("machine both alive and down");
        self.down.insert(down_pos, id);
        let machine = self.slots[id as usize]
            .as_mut()
            .expect("crashed machine has a slot");
        Some((machine.take_queue(), machine.running.take()))
    }

    /// Re-admits a repaired machine to the alive list under its
    /// original identity.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not currently down.
    pub fn recover(&mut self, id: u64) {
        let pos = self
            .down
            .binary_search(&id)
            .expect("recover of an up machine");
        self.down.remove(pos);
        let alive_pos = self
            .alive
            .binary_search(&id)
            .expect_err("machine both alive and down");
        self.alive.insert(alive_pos, id);
    }

    /// Whether the machine is crashed and under repair.
    #[must_use]
    pub fn is_down(&self, id: u64) -> bool {
        self.down.binary_search(&id).is_ok()
    }

    /// Ids of crashed machines, ascending.
    #[must_use]
    pub fn down_ids(&self) -> &[u64] {
        &self.down
    }

    /// Structural invariants of the pool, checked allocation-free (the
    /// chaos harness runs this every scheduler activation inside the
    /// hot loop's allocation budget): both id lists strictly ascending,
    /// disjoint, every listed id backed by a populated slot, and no
    /// down machine holding work (a crash strips its queue and running
    /// job).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_consistency(&self) {
        for list in [&self.alive, &self.down] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "machine id list out of order");
            }
            for &id in list {
                assert!(
                    self.slots.get(id as usize).is_some_and(Option::is_some),
                    "listed machine {id} has no slot"
                );
            }
        }
        // Disjointness by a two-pointer walk over the sorted lists.
        let (mut a, mut d) = (0, 0);
        while a < self.alive.len() && d < self.down.len() {
            match self.alive[a].cmp(&self.down[d]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => d += 1,
                std::cmp::Ordering::Equal => {
                    panic!("machine {} both alive and down", self.alive[a])
                }
            }
        }
        for &id in &self.down {
            let machine = self.slots[id as usize].as_ref().expect("checked above");
            assert!(machine.is_idle(), "down machine {id} still holds work");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_increasing_ids() {
        let mut pool = MachinePool::new();
        let a = pool.join(2.0);
        let b = pool.join(3.0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.ids(), &[0, 1]);
    }

    #[test]
    fn leave_returns_machine_with_work() {
        let mut pool = MachinePool::new();
        let id = pool.join(1.0);
        pool.get_mut(id).unwrap().enqueue(42, 1);
        let gone = pool.leave(id).unwrap();
        assert_eq!(gone.queue(), &[42]);
        assert!(pool.is_empty());
        assert!(pool.leave(id).is_none());
    }

    #[test]
    fn ready_time_accounts_running_and_queue() {
        let ticks = crate::sim::time_to_ticks;
        let mut machine = Machine::new(MachineSpec {
            id: 0,
            slowness: 1.0,
        });
        // Idle: ready now.
        assert_eq!(machine.ready_time(ticks(5.0)), ticks(5.0));
        // Running until t=10 plus two queued jobs of ETC 3 each.
        machine.running = Some(RunningJob {
            job: 1,
            finish: ticks(10.0),
            planned: ticks(10.0),
            finish_event: 0,
        });
        machine.enqueue(2, ticks(3.0));
        machine.enqueue(3, ticks(3.0));
        assert_eq!(machine.ready_time(ticks(5.0)), ticks(16.0));
    }

    #[test]
    fn ready_time_uses_the_planned_completion_under_failure() {
        // An attempt that will fail at t=4 still owes the machine its
        // planned work until t=10: snapshots plan against intent.
        let ticks = crate::sim::time_to_ticks;
        let mut machine = Machine::new(MachineSpec {
            id: 0,
            slowness: 1.0,
        });
        machine.running = Some(RunningJob {
            job: 1,
            finish: ticks(4.0),
            planned: ticks(10.0),
            finish_event: 0,
        });
        assert_eq!(machine.ready_time(0), ticks(10.0));
    }

    #[test]
    fn backlog_is_the_exact_sum_of_the_queue() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0);
        pool.join(1.0);
        let etc_of = |job: u64| crate::sim::time_to_ticks(0.1 * (job as f64 + 1.0));
        let machine = pool.get_mut(a).unwrap();
        for job in 1..=9 {
            machine.enqueue(job, etc_of(job));
        }
        assert_eq!(machine.backlog(), (1..=9).map(etc_of).sum::<i64>());
        assert_eq!(machine.dequeue(etc_of), Some(1));
        assert_eq!(machine.backlog(), (2..=9).map(etc_of).sum::<i64>());
        let (orphans, _) = pool.crash(a).unwrap();
        assert_eq!(orphans, (2..=9).collect::<Vec<_>>());
        assert_eq!(
            pool.get(a).unwrap().backlog(),
            0,
            "a crash empties the backlog"
        );
    }

    #[test]
    fn ids_do_not_recycle() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0);
        pool.leave(a);
        let b = pool.join(1.0);
        assert_ne!(a, b, "machine ids must stay unique across churn");
    }

    #[test]
    fn crash_quarantines_without_departing() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0);
        let b = pool.join(2.0);
        pool.get_mut(a).unwrap().enqueue(5, 1);
        pool.get_mut(a).unwrap().crash_seq = 3;
        let (orphans, running) = pool.crash(a).unwrap();
        assert_eq!(orphans, vec![5]);
        assert!(running.is_none());
        assert_eq!(pool.ids(), &[b], "crashed machine leaves the alive list");
        assert_eq!(pool.down_ids(), &[a]);
        assert!(pool.is_down(a));
        assert!(pool.crash(a).is_none(), "a down machine cannot re-crash");
        pool.check_consistency();
        pool.recover(a);
        assert_eq!(pool.ids(), &[a, b], "recovery restores id order");
        assert!(pool.down_ids().is_empty());
        // Identity survives the crash: accumulated state is intact.
        assert_eq!(pool.get(a).unwrap().crash_seq, 3);
        pool.check_consistency();
    }

    #[test]
    #[should_panic(expected = "still holds work")]
    fn consistency_rejects_a_down_machine_with_work() {
        let mut pool = MachinePool::new();
        let a = pool.join(1.0);
        pool.join(2.0);
        pool.crash(a);
        pool.get_mut(a).unwrap().enqueue(9, 1);
        pool.check_consistency();
    }

    #[test]
    fn reserved_ids_join_later() {
        let mut pool = MachinePool::new();
        pool.join(1.0);
        let reserved = pool.reserve_id();
        assert_eq!(reserved, 1);
        assert_eq!(pool.len(), 1, "a reservation is not alive yet");
        assert!(pool.get(reserved).is_none());
        pool.join_reserved(reserved, 4.0);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(reserved).unwrap().spec.slowness, 4.0);
        assert_eq!(pool.ids(), &[0, 1]);
    }
}
