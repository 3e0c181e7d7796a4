//! Deterministic schedule-exploring model checker (loom-style, stateless).
//!
//! A [`ModelSpec`] describes a small concurrent program: a fixed set of
//! model atomics, bounded FIFO queues, and threads whose behaviour is a
//! `step(thread, pc, ctx)` function performing **at most one** shared
//! operation per step (enforced at runtime). The explorer enumerates
//! bounded interleavings by depth-first search over scheduling choices,
//! re-executing the program from its initial state along each path
//! (stateless model checking).
//!
//! ## Memory model
//!
//! Committed atomic state lives in `mem`. On top of it sits a PSO-like
//! per-thread **store buffer**:
//!
//! * `store(_, _, Relaxed)` appends to the executing thread's buffer —
//!   invisible to other threads until a separately scheduled *flush*
//!   commits it. The scheduler may flush buffered stores to **different**
//!   objects in any order (store–store reordering), while stores to the
//!   same object commit in program order (per-object coherence).
//! * `store(_, _, Release)` first drains the thread's own buffer in
//!   program order, then commits the store itself — i.e. everything the
//!   thread wrote before a release publication is visible to any thread
//!   that subsequently observes it. This asymmetry is precisely what makes
//!   a `Relaxed` generation store a *detectable* bug: the generation can
//!   commit while the payload is still buffered.
//! * Loads see the newest own-buffered value for the object, else `mem`.
//!   (Load–load reordering is not modelled; store–store reordering is the
//!   hazard class the publish protocol must survive.)
//!
//! Queue operations are internally synchronized (channels), so they act
//! directly on shared state; a failed `try_send`/`try_recv` blocks the
//! thread until a counterpart operation wakes it, which keeps the search
//! space finite and doubles as a deadlock detector.
//!
//! ## Search
//!
//! Plain DFS is pruned with **sleep sets** (DPOR-style): after a choice's
//! subtree is explored it goes to sleep for its siblings and stays asleep
//! down other branches until a *dependent* action executes; two actions
//! are dependent iff they touch a common object and at least one writes
//! it. A configurable **preemption bound** caps involuntary context
//! switches per schedule (flush actions model the memory subsystem and
//! are never counted as preemptions). Every executed schedule is a
//! distinct interleaving; the choice sequence doubles as a replayable
//! seed, printed on failure and accepted by [`replay`].

use std::collections::VecDeque;

/// Memory ordering a model step requests. Mirrors the discipline surface
/// of the real wrappers (`Publish` cannot even express `Relaxed`; model
/// programs can, to seed bugs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOrdering {
    /// Store goes to the store buffer; load has no synchronization role.
    Relaxed,
    /// Load-side of a publication edge.
    Acquire,
    /// Store-side: drains the thread's store buffer before committing.
    Release,
}

/// Outcome of one [`ModelSpec::step`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Advance this thread's program counter.
    Next,
    /// Thread finished; it is never scheduled again.
    Done,
    /// The queue operation attempted this step failed; retry the same pc
    /// once a counterpart queue operation wakes the thread.
    Blocked,
    /// Invariant violation: aborts the exploration with a replayable seed.
    Fail(String),
}

/// A small concurrent program the explorer can check.
pub trait ModelSpec {
    /// Name used in reports and failure messages.
    fn name(&self) -> &'static str;
    /// Number of model atomics (ids `0..atomics()`), all initially 0.
    fn atomics(&self) -> usize;
    /// Capacities of the bounded FIFO queues (ids `0..len`).
    fn queues(&self) -> Vec<usize> {
        Vec::new()
    }
    /// Number of threads (ids `0..threads()`).
    fn threads(&self) -> usize;
    /// Per-thread scratch registers (local state), all initially 0.
    fn regs(&self) -> usize {
        8
    }
    /// Execute one step of thread `t` at program counter `pc`. At most one
    /// shared operation (load/store/send/recv) per step.
    fn step(&self, t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step;
}

/// Object ids for the dependence relation, encoded compactly.
/// Atomics: `obj`; queues: `QUEUE_BASE | q`; store-buffer cells:
/// `BUF_BASE | thread << 12 | obj`.
const QUEUE_BASE: u32 = 0x2000_0000;
const BUF_BASE: u32 = 0x4000_0000;

/// What one scheduled action read and wrote, for dependence checks.
#[derive(Clone, Debug, Default)]
struct ActionSig {
    reads: Vec<u32>,
    writes: Vec<u32>,
}

impl ActionSig {
    fn dependent(&self, other: &ActionSig) -> bool {
        let hits = |a: &[u32], b: &[u32]| a.iter().any(|o| b.contains(o));
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&self.reads, &other.writes)
    }
}

/// One scheduling choice: run a thread step, or commit (flush) the oldest
/// buffered store of `thread` to `obj`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    Step(usize),
    Flush { thread: usize, obj: usize },
}

impl Choice {
    fn encode(&self) -> String {
        match self {
            Choice::Step(t) => format!("{t}"),
            Choice::Flush { thread, obj } => format!("f{thread}:{obj}"),
        }
    }

    fn decode(tok: &str) -> Option<Choice> {
        if let Some(rest) = tok.strip_prefix('f') {
            let (t, o) = rest.split_once(':')?;
            Some(Choice::Flush {
                thread: t.parse().ok()?,
                obj: o.parse().ok()?,
            })
        } else {
            Some(Choice::Step(tok.parse().ok()?))
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadStatus {
    Runnable,
    BlockedSend(usize),
    BlockedRecv(usize),
    Done,
}

struct QueueState {
    cap: usize,
    items: VecDeque<u64>,
}

/// The mutable world one step executes against. Spec steps use this to
/// touch shared state; the executor uses the recorded effects to build the
/// action signature and wake blocked threads.
pub struct Ctx<'a> {
    thread: usize,
    mem: &'a mut [u64],
    buffer: &'a mut Vec<(usize, u64)>,
    queues: &'a mut [QueueState],
    regs: &'a mut [u64],
    sig: ActionSig,
    ops: usize,
    blocked: Option<ThreadStatus>,
    woke: Vec<(usize, ThreadStatus)>, // (queue, status-to-wake)
}

impl Ctx<'_> {
    fn one_op(&mut self) {
        self.ops += 1;
        assert!(
            self.ops <= 1,
            "model spec bug: thread {} performed more than one shared op in a single step",
            self.thread
        );
    }

    /// Executing thread id.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Atomic load. Sees the thread's own newest buffered store to `obj`
    /// if any, else committed memory.
    pub fn load(&mut self, obj: usize, ord: MemOrdering) -> u64 {
        self.one_op();
        let _ = ord; // loads synchronize via commit order in this model
        self.sig.reads.push(obj as u32);
        self.sig.reads.push(buf_obj(self.thread, obj));
        match self.buffer.iter().rev().find(|(o, _)| *o == obj) {
            Some((_, v)) => *v,
            None => self.mem[obj],
        }
    }

    /// Atomic store. `Relaxed` buffers; `Release` (or stronger) drains the
    /// thread's buffer in program order, then commits.
    pub fn store(&mut self, obj: usize, val: u64, ord: MemOrdering) {
        self.one_op();
        match ord {
            MemOrdering::Relaxed => {
                self.buffer.push((obj, val));
                self.sig.writes.push(buf_obj(self.thread, obj));
            }
            _ => {
                for (o, v) in self.buffer.drain(..) {
                    self.mem[o] = v;
                    self.sig.writes.push(o as u32);
                    self.sig.writes.push(buf_obj(self.thread, o));
                }
                self.mem[obj] = val;
                self.sig.writes.push(obj as u32);
            }
        }
    }

    /// Non-blocking FIFO send; `false` means full — return [`Step::Blocked`].
    pub fn send(&mut self, q: usize, val: u64) -> bool {
        self.one_op();
        let queue = &mut self.queues[q];
        if queue.items.len() < queue.cap {
            queue.items.push_back(val);
            self.sig.writes.push(QUEUE_BASE | q as u32);
            self.woke.push((q, ThreadStatus::BlockedRecv(q)));
            true
        } else {
            self.sig.reads.push(QUEUE_BASE | q as u32);
            self.blocked = Some(ThreadStatus::BlockedSend(q));
            false
        }
    }

    /// Non-blocking FIFO receive; `None` means empty — return [`Step::Blocked`].
    pub fn recv(&mut self, q: usize) -> Option<u64> {
        self.one_op();
        match self.queues[q].items.pop_front() {
            Some(v) => {
                self.sig.writes.push(QUEUE_BASE | q as u32);
                self.woke.push((q, ThreadStatus::BlockedSend(q)));
                Some(v)
            }
            None => {
                self.sig.reads.push(QUEUE_BASE | q as u32);
                self.blocked = Some(ThreadStatus::BlockedRecv(q));
                None
            }
        }
    }

    /// Thread-local scratch register (not a shared op).
    pub fn reg(&self, i: usize) -> u64 {
        self.regs[i]
    }

    /// Set a thread-local scratch register (not a shared op).
    pub fn set_reg(&mut self, i: usize, v: u64) {
        self.regs[i] = v;
    }
}

fn buf_obj(thread: usize, obj: usize) -> u32 {
    BUF_BASE | ((thread as u32) << 12) | obj as u32
}

/// Execution state of one schedule, rebuilt from scratch per path.
struct Exec {
    mem: Vec<u64>,
    buffers: Vec<Vec<(usize, u64)>>,
    queues: Vec<QueueState>,
    regs: Vec<Vec<u64>>,
    pcs: Vec<usize>,
    status: Vec<ThreadStatus>,
    prev_thread: Option<usize>,
    preemptions: usize,
}

impl Exec {
    fn init(spec: &dyn ModelSpec) -> Exec {
        Exec {
            mem: vec![0; spec.atomics()],
            buffers: vec![Vec::new(); spec.threads()],
            queues: spec
                .queues()
                .into_iter()
                .map(|cap| QueueState {
                    cap: cap.max(1),
                    items: VecDeque::new(),
                })
                .collect(),
            regs: vec![vec![0; spec.regs()]; spec.threads()],
            pcs: vec![0; spec.threads()],
            status: vec![ThreadStatus::Runnable; spec.threads()],
            prev_thread: None,
            preemptions: 0,
        }
    }

    fn all_done(&self) -> bool {
        self.status.iter().all(|s| *s == ThreadStatus::Done)
    }

    /// Enabled choices in canonical order, preemption bound applied.
    fn enabled(&self, bound: usize) -> Vec<Choice> {
        let mut out = Vec::new();
        let budget_left = self.preemptions < bound;
        let prev_runnable = self
            .prev_thread
            .map(|p| self.status[p] == ThreadStatus::Runnable)
            .unwrap_or(false);
        for (t, s) in self.status.iter().enumerate() {
            if *s != ThreadStatus::Runnable {
                continue;
            }
            // Out of preemption budget: the previous thread, if still
            // runnable, is the only steppable one (a switch away from a
            // runnable thread is a preemption; switching off a blocked or
            // finished thread is free).
            if !budget_left && prev_runnable && self.prev_thread != Some(t) {
                continue;
            }
            out.push(Choice::Step(t));
        }
        for (t, buf) in self.buffers.iter().enumerate() {
            let mut seen = Vec::new();
            for (obj, _) in buf {
                if !seen.contains(obj) {
                    seen.push(*obj);
                    out.push(Choice::Flush { thread: t, obj: *obj });
                }
            }
        }
        out
    }

    /// Execute one choice; returns its action signature, or an invariant
    /// failure message.
    fn execute(&mut self, spec: &dyn ModelSpec, c: Choice) -> Result<ActionSig, String> {
        match c {
            Choice::Flush { thread, obj } => {
                let buf = &mut self.buffers[thread];
                let idx = buf
                    .iter()
                    .position(|(o, _)| *o == obj)
                    .expect("flush choice for empty buffer cell");
                let (o, v) = buf.remove(idx);
                self.mem[o] = v;
                Ok(ActionSig {
                    reads: vec![buf_obj(thread, o)],
                    writes: vec![o as u32, buf_obj(thread, o)],
                })
            }
            Choice::Step(t) => {
                debug_assert_eq!(self.status[t], ThreadStatus::Runnable);
                if let Some(p) = self.prev_thread {
                    if p != t && self.status[p] == ThreadStatus::Runnable {
                        self.preemptions += 1;
                    }
                }
                self.prev_thread = Some(t);
                let mut ctx = Ctx {
                    thread: t,
                    mem: &mut self.mem,
                    buffer: &mut self.buffers[t],
                    queues: &mut self.queues,
                    regs: &mut self.regs[t],
                    sig: ActionSig::default(),
                    ops: 0,
                    blocked: None,
                    woke: Vec::new(),
                };
                let outcome = spec.step(t, self.pcs[t], &mut ctx);
                let sig = std::mem::take(&mut ctx.sig);
                let blocked = ctx.blocked;
                let woke = std::mem::take(&mut ctx.woke);
                match outcome {
                    Step::Next => {
                        assert!(
                            blocked.is_none(),
                            "model spec bug: step returned Next after a failed queue op"
                        );
                        self.pcs[t] += 1;
                    }
                    Step::Done => {
                        self.status[t] = ThreadStatus::Done;
                    }
                    Step::Blocked => {
                        let status = blocked.expect(
                            "model spec bug: step returned Blocked without a failed queue op",
                        );
                        self.status[t] = status;
                    }
                    Step::Fail(msg) => return Err(msg),
                }
                for (_, wake_status) in woke {
                    for s in self.status.iter_mut() {
                        if *s == wake_status {
                            *s = ThreadStatus::Runnable;
                        }
                    }
                }
                Ok(sig)
            }
        }
    }
}

/// Exploration limits.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Maximum involuntary context switches per schedule.
    pub preemption_bound: usize,
    /// Stop (capped, not failed) after this many executed schedules.
    pub max_schedules: u64,
    /// Per-schedule step guard against runaway specs.
    pub max_steps: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            preemption_bound: 8,
            max_schedules: 200_000,
            max_steps: 10_000,
        }
    }
}

/// Invariant violation (or deadlock) with its replayable schedule.
#[derive(Clone, Debug)]
pub struct ModelFailure {
    /// Space-separated choice sequence, accepted verbatim by [`replay`].
    pub seed: String,
    /// The failing invariant's message.
    pub message: String,
}

impl std::fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [replay seed: {}]", self.message, self.seed)
    }
}

/// What an exploration covered.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct interleavings executed to completion.
    pub schedules: u64,
    /// Total scheduled actions across all paths.
    pub steps: u64,
    /// True when `max_schedules` stopped the search before exhaustion.
    pub capped: bool,
    /// First invariant violation, if any (search stops on it).
    pub failure: Option<ModelFailure>,
}

struct Node {
    /// Enabled-and-not-sleeping choices at this depth, canonical order.
    candidates: Vec<Choice>,
    /// Index into `candidates` currently being explored.
    cur: usize,
    /// Sleeping (choice, signature) pairs: explored siblings plus
    /// inherited entries still independent of everything executed since.
    sleep: Vec<(Choice, ActionSig)>,
    /// Signature of `candidates[cur]` as executed at this node.
    action: Option<ActionSig>,
}

fn seed_of(stack: &[Node]) -> String {
    stack
        .iter()
        .map(|n| n.candidates[n.cur].encode())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Exhaustively explore bounded interleavings of `spec`.
pub fn explore(spec: &dyn ModelSpec, cfg: &ExplorerConfig) -> ExploreReport {
    let mut report = ExploreReport {
        schedules: 0,
        steps: 0,
        capped: false,
        failure: None,
    };
    let mut stack: Vec<Node> = Vec::new();
    'search: loop {
        // Re-execute the prefix the stack describes, then extend with
        // first-candidate choices until the schedule completes.
        // Only the deepest prefix entry can be a never-executed choice (a
        // freshly advanced sibling), so a failure here is a real finding,
        // not a replay divergence.
        let mut exec = Exec::init(spec);
        let mut prefix_failed = false;
        for depth in 0..stack.len() {
            let c = stack[depth].candidates[stack[depth].cur];
            match exec.execute(spec, c) {
                Ok(sig) => stack[depth].action = Some(sig),
                Err(message) => {
                    stack.truncate(depth + 1);
                    report.failure = Some(ModelFailure {
                        seed: seed_of(&stack),
                        message: format!("{}: {}", spec.name(), message),
                    });
                    prefix_failed = true;
                }
            }
            report.steps += 1;
            if prefix_failed {
                break 'search;
            }
        }
        loop {
            if exec.all_done() {
                report.schedules += 1;
                break;
            }
            let enabled = exec.enabled(cfg.preemption_bound);
            if enabled.is_empty() {
                report.failure = Some(ModelFailure {
                    seed: seed_of(&stack),
                    message: format!("{}: deadlock (threads blocked, none runnable)", spec.name()),
                });
                break 'search;
            }
            // Sleep set for this new node: parent entries still
            // independent of the parent's executed action.
            let sleep: Vec<(Choice, ActionSig)> = match stack.last() {
                Some(parent) => {
                    let pa = parent.action.as_ref().expect("parent executed");
                    parent
                        .sleep
                        .iter()
                        .filter(|(_, sig)| !sig.dependent(pa))
                        .cloned()
                        .collect()
                }
                None => Vec::new(),
            };
            let candidates: Vec<Choice> = enabled
                .into_iter()
                .filter(|c| !sleep.iter().any(|(sc, _)| sc == c))
                .collect();
            if candidates.is_empty() {
                // Everything enabled is sleeping: this continuation is
                // equivalent to one already explored. Prune, don't count.
                break;
            }
            let choice = candidates[0];
            let mut node = Node {
                candidates,
                cur: 0,
                sleep,
                action: None,
            };
            match exec.execute(spec, choice) {
                Ok(sig) => node.action = Some(sig),
                Err(message) => {
                    stack.push(node);
                    report.steps += 1;
                    report.failure = Some(ModelFailure {
                        seed: seed_of(&stack),
                        message: format!("{}: {}", spec.name(), message),
                    });
                    break 'search;
                }
            }
            stack.push(node);
            report.steps += 1;
            if stack.len() > cfg.max_steps {
                report.failure = Some(ModelFailure {
                    seed: seed_of(&stack),
                    message: format!("{}: schedule exceeded max_steps", spec.name()),
                });
                break 'search;
            }
        }
        if report.schedules >= cfg.max_schedules {
            report.capped = true;
            break 'search;
        }
        // Backtrack: put the finished choice to sleep, advance to the next
        // sibling, popping exhausted nodes.
        loop {
            match stack.last_mut() {
                None => break 'search,
                Some(top) => {
                    let c = top.candidates[top.cur];
                    if let Some(sig) = top.action.take() {
                        top.sleep.push((c, sig));
                    }
                    top.cur += 1;
                    if top.cur < top.candidates.len() {
                        continue 'search;
                    }
                    stack.pop();
                }
            }
        }
    }
    report
}

/// Re-execute one exact schedule from a failure seed. Returns the failure
/// it reproduces, `Ok(())` if the schedule now runs clean (e.g. after a
/// fix), or an error describing why the seed no longer applies.
pub fn replay(spec: &dyn ModelSpec, seed: &str) -> Result<(), ModelFailure> {
    let mut exec = Exec::init(spec);
    let mut executed: Vec<Choice> = Vec::new();
    for tok in seed.split_whitespace() {
        let c = Choice::decode(tok).ok_or_else(|| ModelFailure {
            seed: seed.to_string(),
            message: format!("{}: unparseable seed token {tok:?}", spec.name()),
        })?;
        let enabled = exec.enabled(usize::MAX);
        if !enabled.contains(&c) {
            return Err(ModelFailure {
                seed: seed.to_string(),
                message: format!(
                    "{}: seed choice {tok} not enabled after {:?}",
                    spec.name(),
                    executed
                ),
            });
        }
        if let Err(message) = exec.execute(spec, c) {
            return Err(ModelFailure {
                seed: seed.to_string(),
                message: format!("{}: {}", spec.name(), message),
            });
        }
        executed.push(c);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared "counter" non-atomically
    /// (load then store): the classic lost-update race the explorer must
    /// find, plus a sanity check that counting works at all.
    struct LostUpdate;

    impl ModelSpec for LostUpdate {
        fn name(&self) -> &'static str {
            "lost_update"
        }
        fn atomics(&self) -> usize {
            1
        }
        fn threads(&self) -> usize {
            3
        }
        fn step(&self, t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step {
            if t < 2 {
                match pc {
                    0 => {
                        let v = ctx.load(0, MemOrdering::Acquire);
                        ctx.set_reg(0, v);
                        Step::Next
                    }
                    1 => {
                        ctx.store(0, ctx.reg(0) + 1, MemOrdering::Release);
                        Step::Next
                    }
                    _ => Step::Done,
                }
            } else {
                // Checker thread: runs after both writers in *some*
                // schedules; flags the lost update when it observes it.
                match pc {
                    0..=2 => {
                        // Idle steps so the checker's final load can land
                        // after both increments in at least one schedule.
                        ctx.set_reg(1, pc as u64);
                        Step::Next
                    }
                    3 => {
                        let v = ctx.load(0, MemOrdering::Acquire);
                        if v == 1 {
                            return Step::Fail("lost update observed (counter == 1)".into());
                        }
                        Step::Next
                    }
                    _ => Step::Done,
                }
            }
        }
    }

    #[test]
    fn explorer_finds_the_lost_update_race() {
        let report = explore(&LostUpdate, &ExplorerConfig::default());
        let failure = report.failure.expect("race must be found");
        assert!(failure.message.contains("lost update"), "{failure}");
        // The seed replays to the same failure.
        let replayed = replay(&LostUpdate, &failure.seed).expect_err("seed must reproduce");
        assert!(replayed.message.contains("lost update"), "{replayed}");
    }

    /// A single thread writing then reading its own buffered store must
    /// see it (store-buffer forwarding).
    struct OwnBufferForwarding;

    impl ModelSpec for OwnBufferForwarding {
        fn name(&self) -> &'static str {
            "own_buffer_forwarding"
        }
        fn atomics(&self) -> usize {
            1
        }
        fn threads(&self) -> usize {
            1
        }
        fn step(&self, _t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step {
            match pc {
                0 => {
                    ctx.store(0, 42, MemOrdering::Relaxed);
                    Step::Next
                }
                1 => {
                    let v = ctx.load(0, MemOrdering::Relaxed);
                    if v != 42 {
                        return Step::Fail(format!("own store not forwarded: {v}"));
                    }
                    Step::Next
                }
                _ => Step::Done,
            }
        }
    }

    #[test]
    fn own_buffered_stores_are_forwarded_to_own_loads() {
        let report = explore(&OwnBufferForwarding, &ExplorerConfig::default());
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.schedules >= 1);
    }

    /// Deadlock detection: a consumer on an empty queue with no producer.
    struct StuckConsumer;

    impl ModelSpec for StuckConsumer {
        fn name(&self) -> &'static str {
            "stuck_consumer"
        }
        fn atomics(&self) -> usize {
            0
        }
        fn queues(&self) -> Vec<usize> {
            vec![1]
        }
        fn threads(&self) -> usize {
            1
        }
        fn step(&self, _t: usize, _pc: usize, ctx: &mut Ctx<'_>) -> Step {
            match ctx.recv(0) {
                Some(_) => Step::Next,
                None => Step::Blocked,
            }
        }
    }

    #[test]
    fn deadlock_is_reported_with_a_seed() {
        let report = explore(&StuckConsumer, &ExplorerConfig::default());
        let failure = report.failure.expect("deadlock must be detected");
        assert!(failure.message.contains("deadlock"), "{failure}");
    }
}
