//! The trace-driven out-of-order engine.
//!
//! A deliberately compact but cycle-accurate model of the Table II core:
//! dispatch (6-wide) into a 168-entry ROB, wakeup/select issue (8-wide)
//! with per-configuration AGU arbitration for memory operations, in-order
//! commit (6-wide), and front-end stalls on mispredicted branches. Loads
//! complete when the plugged [`L1DataInterface`] says their data arrived;
//! everything else completes after a fixed execution latency.
//!
//! Issue follows wakeup/select (Palacharla, Jouppi & Smith, ISCA '97), so
//! its cost per cycle is proportional to what wakes and issues, not to the
//! window. Every entry waits on at most one producer. When the producer's
//! completion cycle becomes known (at issue for ops, branches and stores,
//! at the interface tick for loads), its waiters move to a wake queue
//! slot for that cycle, or straight into a ready list when that cycle has
//! come. Select merges the ALU-op, branch and load ready lists with the
//! head of the in-order store queue, oldest first, and stops drawing from
//! a class once that class's resource is spent.
//!
//! The ROB is a ring of `rob_entries.next_power_of_two()` slots indexed by
//! absolute instruction index: entry `idx` lives in slot `idx & mask` while
//! `rob_base <= idx < next_idx`, so reaching an entry, committing the head
//! and checking that a completion still names an in-flight entry are each
//! a mask or a compare. The ready lists stay sorted by index; entries
//! mostly become ready in program order, so `make_ready` appends at the
//! back and falls back to a sorted insert only for an older entry.

use std::collections::VecDeque;

use serde::Serialize;

use malec_trace::TraceInst;
use malec_types::op::{MemOp, OpId};
use malec_types::{params, SimConfig};

use crate::interface::L1DataInterface;

/// Cycles to refill the front-end after a mispredicted branch resolves.
const MISPREDICT_REFILL: u64 = 5;
/// Watchdog: a commit drought this long means the interface lost an op.
const DEADLOCK_LIMIT: u64 = 100_000;
/// Non-memory execution units (ALU/FP issue slots per cycle).
const ALU_UNITS: usize = 4;
/// Table II: instructions dispatched, and committed, per cycle.
const DISPATCH_WIDTH: usize = params::DISPATCH_WIDTH as usize;
/// Table II: instructions issued per cycle.
const ISSUE_WIDTH: usize = params::ISSUE_WIDTH as usize;
/// Table II: loads in flight at once.
const LQ_ENTRIES: usize = params::LQ_ENTRIES as usize;
const NO_DEP: u64 = u64::MAX;
const UNKNOWN: u64 = u64::MAX;
/// End of an intrusive list.
const NIL: u64 = u64::MAX;
/// Wake queue slots. A completion cycle is known at most an op's `u8`
/// latency ahead, so slots are reused only after their cycle has passed.
const WAKE_SLOTS: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryKind {
    Op { latency: u8 },
    Load,
    Store,
    Branch { mispredicted: bool },
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    kind: EntryKind,
    mem: Option<MemOp>,
    /// The producer this entry waits on, or `NO_DEP`.
    dep: u64,
    done_at: u64,
    /// Head of the list of consumers waiting for `done_at` to be known.
    waiters: u64,
    /// Next entry in the list this one waits in: its producer's waiters
    /// or a wake queue slot.
    next: u64,
}

impl RobEntry {
    /// Contents of a ring slot no instruction has used yet.
    const VACANT: Self = Self {
        kind: EntryKind::Op { latency: 0 },
        mem: None,
        dep: NO_DEP,
        done_at: UNKNOWN,
        waiters: NIL,
        next: NIL,
    };
}

/// Aggregate statistics of one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize)]
pub struct CoreStats {
    /// Cycles elapsed until the last instruction committed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Cycles in which at least one AGU stalled on a rejected offer.
    pub agu_stall_cycles: u64,
    /// Issue slots actually used.
    pub issued_ops: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core bound to one L1 data interface.
///
/// # Example
///
/// ```no_run
/// use malec_cpu::OoOCore;
/// use malec_types::SimConfig;
///
/// # fn demo(interface: impl malec_cpu::L1DataInterface, trace: Vec<malec_trace::TraceInst>) {
/// let config = SimConfig::malec();
/// let mut core = OoOCore::new(&config, interface);
/// let stats = core.run(trace.into_iter());
/// println!("IPC = {:.2}", stats.ipc());
/// # }
/// ```
#[derive(Debug)]
pub struct OoOCore<I> {
    interface: I,
    rob_size: usize,
    load_only_agus: u32,
    store_only_agus: u32,
    shared_agus: u32,
    /// Ring of ROB slots; entry `idx` lives in `rob[idx & rob_mask]`.
    rob: Vec<RobEntry>,
    rob_mask: u64,
    /// Oldest in-flight index (the commit head).
    rob_base: u64,
    /// Index the next dispatched instruction gets.
    next_idx: u64,
    cycle: u64,
    inflight_loads: usize,
    fe_blocked_on: Option<u64>,
    fe_resume_at: u64,
    stats: CoreStats,
    completed_buf: Vec<OpId>,
    /// Dependency-ready, unissued entries of each class, in program order
    /// (absolute indices). Like the store queue, preallocated to the ROB
    /// size, so steady state allocates nothing.
    ready_ops: VecDeque<u64>,
    ready_branches: VecDeque<u64>,
    ready_loads: VecDeque<u64>,
    /// Unissued stores in program order, ready or not: stores claim
    /// store-buffer entries in order, so only the head may issue next.
    stores: VecDeque<u64>,
    /// `wake[c % WAKE_SLOTS]` heads the list of entries whose producer
    /// completes in cycle `c`.
    wake: Vec<u64>,
}

impl<I: L1DataInterface> OoOCore<I> {
    /// Creates a Table II core with the ROB and AGUs of `config`, bound to
    /// `interface`.
    pub fn new(config: &SimConfig, interface: I) -> Self {
        let agus = config.agus();
        let rob_size = usize::from(config.rob_entries);
        let ring = rob_size.next_power_of_two();
        Self {
            interface,
            rob_size,
            load_only_agus: u32::from(agus.load_only),
            store_only_agus: u32::from(agus.store_only),
            shared_agus: u32::from(agus.shared),
            rob: vec![RobEntry::VACANT; ring],
            rob_mask: ring as u64 - 1,
            rob_base: 0,
            next_idx: 0,
            cycle: 0,
            inflight_loads: 0,
            fe_blocked_on: None,
            fe_resume_at: 0,
            stats: CoreStats::default(),
            completed_buf: Vec::with_capacity(8),
            ready_ops: VecDeque::with_capacity(rob_size),
            ready_branches: VecDeque::with_capacity(rob_size),
            ready_loads: VecDeque::with_capacity(rob_size),
            stores: VecDeque::with_capacity(rob_size),
            wake: vec![NIL; WAKE_SLOTS],
        }
    }

    /// Consumes the core, returning the interface (for its statistics).
    pub fn into_interface(self) -> I {
        self.interface
    }

    /// A reference to the interface.
    pub fn interface(&self) -> &I {
        &self.interface
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the interface stops making forward progress (an op is lost),
    /// which indicates a bug in an interface implementation rather than a
    /// property of any valid simulation. Debug builds also check that every
    /// accepted load completes exactly once: a completion for an op outside
    /// the ROB or for a load already done panics, and so does a load still
    /// in flight, or still owed by the interface, when the trace ends.
    pub fn run(&mut self, mut trace: impl Iterator<Item = TraceInst>) -> CoreStats {
        let mut trace_done = false;
        let mut last_commit_cycle = 0u64;

        loop {
            // 1. Interface cycle: collect load completions.
            self.completed_buf.clear();
            let mut completed = std::mem::take(&mut self.completed_buf);
            self.interface.tick(self.cycle, &mut completed);
            for &OpId(idx) in &completed {
                // Every accepted load completes exactly once, while it is
                // in the ROB: a load commits only after its completion.
                let in_rob = (self.rob_base..self.next_idx).contains(&idx);
                debug_assert!(
                    in_rob,
                    "load {idx} completed outside the ROB [{}, {}) at cycle {}",
                    self.rob_base, self.next_idx, self.cycle
                );
                if in_rob {
                    debug_assert_eq!(self.entry(idx).kind, EntryKind::Load);
                    debug_assert_eq!(
                        self.entry(idx).done_at,
                        UNKNOWN,
                        "load {idx} completed twice"
                    );
                    self.complete(idx, self.cycle);
                    self.inflight_loads -= 1;
                }
            }
            self.completed_buf = completed;

            // 2. Commit.
            let mut commits = 0;
            while commits < DISPATCH_WIDTH && self.rob_base < self.next_idx {
                let idx = self.rob_base;
                let head = self.entry(idx);
                if head.done_at == UNKNOWN || head.done_at > self.cycle {
                    break;
                }
                let kind = head.kind;
                self.rob_base += 1;
                commits += 1;
                self.stats.committed += 1;
                match kind {
                    EntryKind::Load => self.stats.loads += 1,
                    EntryKind::Store => {
                        self.stats.stores += 1;
                        self.interface.commit_store(OpId(idx));
                    }
                    EntryKind::Branch { .. } => self.stats.branches += 1,
                    EntryKind::Op { .. } => {}
                }
            }
            if commits > 0 {
                last_commit_cycle = self.cycle;
            }

            // 3. Issue.
            self.issue_cycle();

            // 4. Dispatch.
            if !trace_done {
                trace_done = self.dispatch_cycle(&mut trace);
            }

            // 5. Termination / watchdog.
            if trace_done && self.rob_len() == 0 {
                debug_assert_eq!(self.inflight_loads, 0, "loads in flight at trace end");
                debug_assert_eq!(
                    self.interface.pending_loads(),
                    0,
                    "the interface owes loads at trace end"
                );
                break;
            }
            if self.cycle.saturating_sub(last_commit_cycle) > DEADLOCK_LIMIT {
                panic!(
                    "no commit for {DEADLOCK_LIMIT} cycles at cycle {}: \
                     rob={} inflight={} pending={}",
                    self.cycle,
                    self.rob_len(),
                    self.inflight_loads,
                    self.interface.pending_loads()
                );
            }
            self.cycle += 1;
        }

        self.stats.cycles = self.cycle.max(1);
        self.stats
    }

    /// In-flight entries.
    fn rob_len(&self) -> u64 {
        self.next_idx - self.rob_base
    }

    fn entry(&self, idx: u64) -> &RobEntry {
        debug_assert!((self.rob_base..self.next_idx).contains(&idx));
        &self.rob[(idx & self.rob_mask) as usize]
    }

    fn entry_mut(&mut self, idx: u64) -> &mut RobEntry {
        debug_assert!((self.rob_base..self.next_idx).contains(&idx));
        &mut self.rob[(idx & self.rob_mask) as usize]
    }

    /// Whether `dep` has produced its result by this cycle.
    fn dep_done(&self, dep: u64) -> bool {
        dep == NO_DEP || dep < self.rob_base || self.entry(dep).done_at <= self.cycle
    }

    /// Inserts `idx` into its class's ready list, keeping program order:
    /// an append when `idx` is the youngest, else a sorted insert.
    fn make_ready(&mut self, idx: u64) {
        let list = match self.entry(idx).kind {
            EntryKind::Op { .. } => &mut self.ready_ops,
            EntryKind::Branch { .. } => &mut self.ready_branches,
            EntryKind::Load => &mut self.ready_loads,
            EntryKind::Store => unreachable!("stores issue from the store queue"),
        };
        if list.back().is_none_or(|&last| last < idx) {
            list.push_back(idx);
        } else {
            let pos = list.partition_point(|&i| i < idx);
            list.insert(pos, idx);
        }
    }

    /// Makes `idx` ready in cycle `at`: now if that cycle has come, else
    /// through the wake queue.
    fn schedule(&mut self, idx: u64, at: u64) {
        if at <= self.cycle {
            self.make_ready(idx);
        } else {
            debug_assert!(at - self.cycle < WAKE_SLOTS as u64);
            let slot = &mut self.wake[(at % WAKE_SLOTS as u64) as usize];
            let next = std::mem::replace(slot, idx);
            self.entry_mut(idx).next = next;
        }
    }

    /// `idx` completes in cycle `done_at`: records it and schedules every
    /// consumer waiting on it.
    fn complete(&mut self, idx: u64, done_at: u64) {
        let e = self.entry_mut(idx);
        e.done_at = done_at;
        let mut w = std::mem::replace(&mut e.waiters, NIL);
        while w != NIL {
            let next = self.entry(w).next;
            self.schedule(w, done_at);
            w = next;
        }
    }

    /// One issue pass: wake this cycle's consumers, then select in program
    /// order across the ready lists and the store queue head.
    ///
    /// Each class is drawn from while its resource lasts: ALU ops until the
    /// ALUs are used up, loads while the LQ has room and a load-capable AGU
    /// is left, stores until the first one that cannot issue. A rejected
    /// load spends its AGU and stays ready; the next ready load is offered.
    /// Selection is oldest-first across classes, so the shared AGUs go to
    /// loads and stores in program order. A zero-latency op wakes its
    /// consumers into the ready lists ahead of the selection point, so they
    /// can issue in the same pass.
    fn issue_cycle(&mut self) {
        let slot = (self.cycle % WAKE_SLOTS as u64) as usize;
        let mut w = std::mem::replace(&mut self.wake[slot], NIL);
        while w != NIL {
            let next = self.entry(w).next;
            self.make_ready(w);
            w = next;
        }

        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut load_agus = self.load_only_agus;
        let mut store_agus = self.store_only_agus;
        let mut shared_agus = self.shared_agus;
        let mut agu_stalled = false;
        // Stores allocate store-buffer entries in program order; letting a
        // younger store claim the last SB slot while an older one waits
        // would deadlock the buffer (it drains strictly in order).
        let mut stores_open = true;
        // Ready loads before this position were offered and rejected.
        let mut load_cursor = 0usize;
        let head = |c: Option<&u64>| c.copied().unwrap_or(NIL);

        while issued < ISSUE_WIDTH {
            let op = if alu_used < ALU_UNITS {
                head(self.ready_ops.front())
            } else {
                NIL
            };
            let branch = head(self.ready_branches.front());
            let load = if self.inflight_loads < LQ_ENTRIES && load_agus + shared_agus > 0 {
                head(self.ready_loads.get(load_cursor))
            } else {
                NIL
            };
            let store = if stores_open && store_agus + shared_agus > 0 {
                head(self.stores.front())
            } else {
                NIL
            };
            let idx = op.min(branch).min(load).min(store);
            if idx == NIL {
                break;
            }

            if idx == op {
                self.ready_ops.pop_front();
                alu_used += 1;
                issued += 1;
                let EntryKind::Op { latency } = self.entry(idx).kind else {
                    unreachable!("ready_ops holds ops")
                };
                self.complete(idx, self.cycle + u64::from(latency));
            } else if idx == branch {
                self.ready_branches.pop_front();
                issued += 1;
                self.complete(idx, self.cycle + 1);
                // A mispredicted branch resolves here: schedule the
                // front-end restart (resolution + refill).
                if self.fe_blocked_on == Some(idx) {
                    self.fe_blocked_on = None;
                    self.fe_resume_at = self.cycle + 1 + MISPREDICT_REFILL;
                }
            } else if idx == load {
                // Claim an AGU: prefer a load-only unit.
                if load_agus > 0 {
                    load_agus -= 1;
                } else {
                    shared_agus -= 1;
                }
                let op = self.entry(idx).mem.expect("load carries a MemOp");
                debug_assert_eq!(op.id, OpId(idx));
                if self.interface.offer_load(op).is_accepted() {
                    self.ready_loads.remove(load_cursor);
                    self.inflight_loads += 1;
                    issued += 1;
                } else {
                    // The AGU cycle is wasted (the paper stalls AGUs when
                    // the Input Buffer is full).
                    agu_stalled = true;
                    load_cursor += 1;
                }
            } else {
                let e = self.entry(idx);
                let (dep, op) = (e.dep, e.mem.expect("store carries a MemOp"));
                if !self.dep_done(dep) {
                    stores_open = false;
                    continue;
                }
                if store_agus > 0 {
                    store_agus -= 1;
                } else {
                    shared_agus -= 1;
                }
                if self.interface.offer_store(op).is_accepted() {
                    self.stores.pop_front();
                    issued += 1;
                    self.complete(idx, self.cycle + 1);
                } else {
                    agu_stalled = true;
                    stores_open = false;
                }
            }
        }

        if agu_stalled {
            self.stats.agu_stall_cycles += 1;
        }
        self.stats.issued_ops += issued as u64;
    }

    /// Returns true when the trace is exhausted.
    fn dispatch_cycle(&mut self, trace: &mut impl Iterator<Item = TraceInst>) -> bool {
        // Front-end blocked on an unresolved mispredicted branch, or still
        // refilling after one resolved?
        if self.fe_blocked_on.is_some() || self.cycle < self.fe_resume_at {
            return false;
        }

        for _ in 0..DISPATCH_WIDTH {
            if self.rob_len() >= self.rob_size as u64 {
                return false;
            }
            let Some(inst) = trace.next() else {
                return true;
            };
            let idx = self.next_idx;
            self.next_idx += 1;
            let (kind, mem, dep) = match inst {
                TraceInst::Op { latency, dep } => (EntryKind::Op { latency }, None, dep),
                TraceInst::Load {
                    vaddr,
                    size,
                    addr_dep,
                } => (
                    EntryKind::Load,
                    Some(MemOp::load(OpId(idx), vaddr, size)),
                    addr_dep,
                ),
                TraceInst::Store {
                    vaddr,
                    size,
                    data_dep,
                } => (
                    EntryKind::Store,
                    Some(MemOp::store(OpId(idx), vaddr, size)),
                    data_dep,
                ),
                TraceInst::Branch { mispredicted, dep } => {
                    (EntryKind::Branch { mispredicted }, None, dep)
                }
            };
            let dep = match dep {
                // A distance reaching before the start of the trace means
                // the producer already executed: no constraint.
                Some(dist) if u64::from(dist) <= idx => idx - u64::from(dist),
                _ => NO_DEP,
            };
            *self.entry_mut(idx) = RobEntry {
                kind,
                mem,
                dep,
                done_at: UNKNOWN,
                waiters: NIL,
                next: NIL,
            };
            if kind == EntryKind::Store {
                self.stores.push_back(idx);
            } else if dep == NO_DEP || dep < self.rob_base {
                self.make_ready(idx);
            } else if self.entry(dep).done_at == UNKNOWN {
                // The producer's completion cycle is not known yet: wait
                // on it.
                let producer = self.entry_mut(dep);
                let next = std::mem::replace(&mut producer.waiters, idx);
                self.entry_mut(idx).next = next;
            } else {
                self.schedule(idx, self.entry(dep).done_at);
            }
            if kind == (EntryKind::Branch { mispredicted: true }) {
                self.fe_blocked_on = Some(idx);
                return false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::AcceptKind;
    use malec_types::addr::VAddr;

    /// Fixed-latency interface: every load completes `latency` cycles after
    /// acceptance; accepts up to `per_cycle` loads per cycle. Logs every
    /// offer as (cycle, op, accepted).
    #[derive(Debug)]
    struct FixedLatency {
        latency: u64,
        per_cycle: usize,
        accepted_this_cycle: usize,
        inflight: Vec<(u64, OpId)>,
        cycle: u64,
        commits_seen: Vec<OpId>,
        load_offers: Vec<(u64, OpId, bool)>,
        store_offers: Vec<(u64, OpId)>,
    }

    impl FixedLatency {
        fn new(latency: u64, per_cycle: usize) -> Self {
            Self {
                latency,
                per_cycle,
                accepted_this_cycle: 0,
                inflight: Vec::new(),
                cycle: 0,
                commits_seen: Vec::new(),
                load_offers: Vec::new(),
                store_offers: Vec::new(),
            }
        }
    }

    impl L1DataInterface for FixedLatency {
        fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
            self.cycle = cycle;
            self.accepted_this_cycle = 0;
            self.inflight.retain(|&(due, id)| {
                if due <= cycle {
                    completed.push(id);
                    false
                } else {
                    true
                }
            });
        }

        fn offer_load(&mut self, op: MemOp) -> AcceptKind {
            let accept = self.accepted_this_cycle < self.per_cycle;
            self.load_offers.push((self.cycle, op.id, accept));
            if !accept {
                return AcceptKind::Rejected;
            }
            self.accepted_this_cycle += 1;
            self.inflight.push((self.cycle + self.latency, op.id));
            AcceptKind::Accepted
        }

        fn offer_store(&mut self, op: MemOp) -> AcceptKind {
            self.store_offers.push((self.cycle, op.id));
            AcceptKind::Accepted
        }

        fn commit_store(&mut self, id: OpId) {
            self.commits_seen.push(id);
        }

        fn pending_loads(&self) -> usize {
            self.inflight.len()
        }
    }

    fn ld(addr: u64) -> TraceInst {
        TraceInst::Load {
            vaddr: VAddr::new(addr),
            size: 4,
            addr_dep: None,
        }
    }

    fn op() -> TraceInst {
        TraceInst::Op {
            latency: 1,
            dep: None,
        }
    }

    fn run_trace(trace: Vec<TraceInst>, iface: FixedLatency) -> (CoreStats, FixedLatency) {
        let mut core = OoOCore::new(&SimConfig::malec(), iface);
        let stats = core.run(trace.into_iter());
        (stats, core.into_interface())
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let (stats, _) = run_trace(vec![], FixedLatency::new(3, 4));
        assert_eq!(stats.committed, 0);
        assert!(stats.cycles <= 2);
    }

    #[test]
    fn commits_everything_in_order() {
        let trace: Vec<TraceInst> = (0..100)
            .map(|i| if i % 3 == 0 { ld(0x1000 + i * 8) } else { op() })
            .collect();
        let (stats, iface) = run_trace(trace, FixedLatency::new(3, 4));
        assert_eq!(stats.committed, 100);
        assert_eq!(stats.loads, 34);
        assert_eq!(iface.pending_loads(), 0);
    }

    #[test]
    fn store_commit_is_notified() {
        let trace = vec![
            TraceInst::Store {
                vaddr: VAddr::new(0x2000),
                size: 4,
                data_dep: None,
            },
            op(),
        ];
        let (stats, iface) = run_trace(trace, FixedLatency::new(2, 4));
        assert_eq!(stats.stores, 1);
        assert_eq!(iface.commits_seen, vec![OpId(0)]);
    }

    #[test]
    fn dependent_ops_wait_for_load_latency() {
        // load -> dependent op chain: each pair costs >= load latency.
        let mut trace = Vec::new();
        for i in 0..50 {
            trace.push(TraceInst::Load {
                vaddr: VAddr::new(0x1000 + i * 64),
                size: 4,
                // Each load's address depends on the previous op, which
                // depends on the previous load: a fully serial chain.
                addr_dep: Some(1),
            });
            trace.push(TraceInst::Op {
                latency: 1,
                dep: Some(1),
            });
        }
        let slow = run_trace(trace.clone(), FixedLatency::new(10, 4)).0;
        let fast = run_trace(trace, FixedLatency::new(2, 4)).0;
        assert!(
            slow.cycles > fast.cycles + 100,
            "long load latency must slow a dependent chain: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn independent_loads_overlap() {
        // 100 independent loads with 10-cycle latency but 4 per cycle:
        // should take far less than 100 * 10 cycles.
        let trace: Vec<TraceInst> = (0..100).map(|i| ld(0x1000 + i * 64)).collect();
        let (stats, _) = run_trace(trace, FixedLatency::new(10, 4));
        assert!(stats.cycles < 200, "loads must pipeline: {}", stats.cycles);
    }

    #[test]
    fn acceptance_limit_throttles() {
        let trace: Vec<TraceInst> = (0..300).map(|i| ld(0x1000 + i * 64)).collect();
        let wide = run_trace(trace.clone(), FixedLatency::new(2, 4)).0;
        let narrow = run_trace(trace, FixedLatency::new(2, 1)).0;
        assert!(
            narrow.cycles > wide.cycles * 2,
            "1/cycle acceptance must throttle: {} vs {}",
            narrow.cycles,
            wide.cycles
        );
        assert!(narrow.agu_stall_cycles > 0);
    }

    #[test]
    fn mispredicted_branch_stalls_frontend() {
        let mut with_miss = Vec::new();
        let mut without = Vec::new();
        for _ in 0..50 {
            with_miss.push(TraceInst::Branch {
                mispredicted: true,
                dep: None,
            });
            without.push(TraceInst::Branch {
                mispredicted: false,
                dep: None,
            });
            for _ in 0..5 {
                with_miss.push(op());
                without.push(op());
            }
        }
        let a = run_trace(with_miss, FixedLatency::new(2, 4)).0;
        let b = run_trace(without, FixedLatency::new(2, 4)).0;
        assert!(
            a.cycles > b.cycles + 100,
            "mispredictions must cost cycles: {} vs {}",
            a.cycles,
            b.cycles
        );
    }

    #[test]
    fn rob_capacity_limits_overlap() {
        // A very long-latency load at the head; the ROB (168) fills behind it.
        let mut trace = vec![ld(0x1000)];
        for _ in 0..400 {
            trace.push(op());
        }
        let (stats, _) = run_trace(trace, FixedLatency::new(80, 4));
        // All 400 ops are independent; without ROB limits the run would be
        // ~80 cycles. The 168-entry ROB forces the tail to wait.
        assert!(stats.cycles >= 80 + (400 - 168) / 6);
        assert_eq!(stats.committed, 401);
    }

    fn store(data_dep: Option<u32>) -> TraceInst {
        TraceInst::Store {
            vaddr: VAddr::new(0x2000),
            size: 4,
            data_dep,
        }
    }

    #[test]
    fn pending_store_blocks_younger_ready_store() {
        // Store 1 waits on a 4-cycle op; store 2 is ready at once but must
        // not claim a store-buffer slot ahead of it.
        let trace = vec![
            TraceInst::Op {
                latency: 4,
                dep: None,
            },
            store(Some(1)),
            store(None),
        ];
        let (_, iface) = run_trace(trace, FixedLatency::new(2, 4));
        // The op issues in cycle 1 and is done in cycle 5.
        assert_eq!(iface.store_offers, vec![(5, OpId(1)), (5, OpId(2))]);
    }

    #[test]
    fn rejected_load_spends_its_agu_and_the_next_load_is_offered() {
        // MALEC has three load-capable AGUs; the interface accepts one
        // load a cycle. Each rejected offer uses up an AGU, the next ready
        // load is still offered while AGUs remain, and the fourth load is
        // not offered in the first cycle at all.
        let trace: Vec<TraceInst> = (0..4).map(|i| ld(0x1000 + i * 64)).collect();
        let (stats, iface) = run_trace(trace, FixedLatency::new(2, 1));
        let first_cycle: Vec<_> = iface
            .load_offers
            .iter()
            .filter(|&&(cycle, _, _)| cycle == 1)
            .copied()
            .collect();
        assert_eq!(
            first_cycle,
            vec![(1, OpId(0), true), (1, OpId(1), false), (1, OpId(2), false)]
        );
        assert_eq!(stats.agu_stall_cycles, 3);
    }

    #[test]
    fn zero_latency_chain_issues_in_one_cycle() {
        // Each zero-latency op is done the cycle it issues, so its consumer
        // issues in the same pass: all four ops and the load that depends
        // on the last one issue in cycle 1.
        let zero = |dep| TraceInst::Op { latency: 0, dep };
        let trace = vec![
            zero(None),
            zero(Some(1)),
            zero(Some(1)),
            zero(Some(1)),
            TraceInst::Load {
                vaddr: VAddr::new(0x1000),
                size: 4,
                addr_dep: Some(1),
            },
        ];
        let (stats, iface) = run_trace(trace, FixedLatency::new(2, 4));
        assert_eq!(iface.load_offers, vec![(1, OpId(4), true)]);
        assert_eq!(stats.issued_ops, 5);
    }

    #[test]
    fn ipc_is_computed() {
        let trace: Vec<TraceInst> = (0..600).map(|_| op()).collect();
        let (stats, _) = run_trace(trace, FixedLatency::new(2, 4));
        let ipc = stats.ipc();
        assert!(
            ipc > 3.0,
            "independent ops should flow near dispatch width: {ipc}"
        );
        assert!(ipc <= 6.01);
    }
}
