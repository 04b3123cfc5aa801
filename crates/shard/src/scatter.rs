//! The coordinator's shard-pair dispatch queue: best-first by inter-shard
//! `MINMINDIST`, pruned against the cross-shard [`SharedBound`].
//!
//! This is the paper's branch-and-bound loop lifted from node pairs to
//! shard pairs, and concurrent model-check site #6: racing workers pop
//! tasks while finished subqueries tighten the bound, and the protocol
//! must keep three invariants whatever the interleaving:
//!
//! 1. **Exactly-once dispatch** — every generated shard pair is either
//!    opened by exactly one worker or pruned, never both, never twice.
//! 2. **Strict pruning** — a pruned pair's `MINMINDIST` strictly exceeds
//!    the final bound. Since the bound only tightens, `minmin > bound`
//!    at prune time implies `minmin > final_bound`; and a pair with
//!    `minmin <= final_bound` can never satisfy the prune test, so it is
//!    always opened. Strictness is what makes distance *ties* safe: a
//!    shard pair whose separation exactly equals the K-th distance may
//!    still hold a tying global pair and must be opened (the `>=` twin
//!    below is the pinned regression for exactly that bug).
//! 3. **Prune-drain** — the pending queue is a min-heap on `MINMINDIST`,
//!    so once the *top* exceeds the bound every remaining pair does too
//!    and the whole queue drains as pruned in one step.

use cpq_check::sync::Mutex;
use cpq_core::SharedBound;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One shard-pair subquery to dispatch, prioritized by planning-time
/// `MINMINDIST` (`f64` bits order as the values for non-negative finites;
/// shard ids break exact ties deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Task {
    pub minmin_bits: u64,
    pub shard_p: u32,
    pub shard_q: u32,
    pub self_join: bool,
    pub orient: bool,
}

/// Counter snapshot of one scatter run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScatterCounts {
    pub generated: u64,
    pub pruned: u64,
    pub opened: u64,
}

struct State {
    pending: BinaryHeap<Reverse<Task>>,
    counts: ScatterCounts,
    cancelled: bool,
}

/// Shared dispatch state of one sharded query: the pending min-heap and
/// the cross-shard bound every subquery consumes and publishes.
pub(crate) struct Scatter {
    state: Mutex<State>,
    /// The cross-shard global bound (see [`SharedBound`]): subqueries
    /// receive it via the engine's scatter entry points and the dispatch
    /// loop prunes against it.
    pub bound: SharedBound,
}

impl Scatter {
    /// A fresh dispatcher over the full generated task set (the task set
    /// is fixed up front; nothing is ever pushed later).
    pub fn new(tasks: Vec<Task>) -> Self {
        let generated = tasks.len() as u64;
        Scatter {
            state: Mutex::new(State {
                pending: tasks.into_iter().map(Reverse).collect(),
                counts: ScatterCounts {
                    generated,
                    ..ScatterCounts::default()
                },
                cancelled: false,
            }),
            bound: SharedBound::new(),
        }
    }

    /// Claims the best pending shard pair, or `None` when the run is over:
    /// queue empty, query cancelled, or — the payoff — every remaining
    /// pair's `MINMINDIST` strictly exceeds the shared bound, in which
    /// case the whole queue is counted pruned and dropped at once.
    pub fn next(&self) -> Option<Task> {
        // propagate the panic.
        let mut st = self.state.lock().expect("scatter state poisoned");
        if st.cancelled {
            return None;
        }
        let top = *st.pending.peek()?;
        if f64::from_bits(top.0.minmin_bits) > self.bound.get_d2() {
            st.counts.pruned += st.pending.len() as u64;
            st.pending.clear();
            return None;
        }
        // The peek above saw a non-empty heap and the lock is still held.
        let task = st.pending.pop()?.0;
        st.counts.opened += 1;
        Some(task)
    }

    /// The pinned **broken twin** of [`next`](Self::next): prunes with
    /// `>=` instead of `>`. Under a bound tightened to *exactly* a pending
    /// pair's `MINMINDIST` — which happens whenever the global K-th pair
    /// sits precisely on a shard boundary's separation — the tying pair is
    /// dropped and its (tying) result pairs are silently lost. The model
    /// harness pins the failing schedule as a `#[should_panic]` regression.
    #[cfg(all(test, cpq_model))]
    pub fn next_broken_geq(&self) -> Option<Task> {
        let mut st = self.state.lock().expect("scatter state poisoned");
        if st.cancelled {
            return None;
        }
        let top = *st.pending.peek()?;
        if f64::from_bits(top.0.minmin_bits) >= self.bound.get_d2() {
            st.counts.pruned += st.pending.len() as u64;
            st.pending.clear();
            return None;
        }
        let task = st.pending.pop()?.0;
        st.counts.opened += 1;
        Some(task)
    }

    /// Stops dispatch: subsequent [`next`](Self::next) calls return `None`
    /// immediately (pending tasks are neither opened nor counted pruned).
    pub fn cancel(&self) {
        self.state.lock().expect("scatter state poisoned").cancelled = true;
    }

    /// Counter snapshot (call after the workers are joined for final
    /// numbers).
    pub fn counts(&self) -> ScatterCounts {
        self.state.lock().expect("scatter state poisoned").counts
    }
}

/// Model-checked harnesses for the shard dispatch protocol (compiled only
/// under `RUSTFLAGS="--cfg cpq_model"`) — concurrent model site #6.
#[cfg(all(test, cpq_model))]
mod model_tests {
    use super::*;
    use cpq_check::sync::Arc;
    use cpq_check::thread;
    use cpq_check::{model, model_dfs, model_pct, DfsOptions, PctOptions};

    fn task(minmin: f64, p: u32, q: u32) -> Task {
        Task {
            minmin_bits: minmin.to_bits(),
            shard_p: p,
            shard_q: q,
            self_join: false,
            orient: false,
        }
    }

    /// Drains the dispatcher from one modeled worker, recording opened
    /// tasks.
    fn drain(sc: &Scatter, opened: &Mutex<Vec<Task>>, broken: bool) {
        loop {
            let t = if broken {
                sc.next_broken_geq()
            } else {
                sc.next()
            };
            match t {
                Some(t) => opened.lock().expect("model lock").push(t),
                None => return,
            }
        }
    }

    #[test]
    fn dfs_dispatch_is_exactly_once_and_prunes_strictly() {
        // Preemption-bounded (CHESS-style): two draining workers plus a
        // tightener make the fully-exhaustive tree too wide, and bound-2
        // already covers every two-switch race of the dispatch protocol.
        let report = model_dfs(DfsOptions::smoke(), || {
            // Three shard pairs; a racing subquery finishes and tightens
            // the bound to 4.0 while two workers drain the queue.
            let sc = Arc::new(Scatter::new(vec![
                task(1.0, 0, 0),
                task(2.0, 0, 1),
                task(9.0, 1, 1),
            ]));
            let opened = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let sc = Arc::clone(&sc);
                let opened = Arc::clone(&opened);
                handles.push(thread::spawn(move || drain(&sc, &opened, false)));
            }
            {
                let sc = Arc::clone(&sc);
                handles.push(thread::spawn(move || {
                    sc.bound.tighten(4.0);
                }));
            }
            for h in handles {
                h.join().expect("model thread");
            }
            let opened = opened.lock().expect("model lock").clone();
            let counts = sc.counts();
            // Exactly-once: opened + pruned account for every generated
            // task, and no task was handed to two workers.
            assert_eq!(counts.opened, opened.len() as u64);
            assert_eq!(counts.opened + counts.pruned, counts.generated);
            let mut ids: Vec<(u32, u32)> = opened.iter().map(|t| (t.shard_p, t.shard_q)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), opened.len(), "a task was dispatched twice");
            // Strict pruning: pairs at or below the final bound are always
            // opened, whatever the interleaving.
            for must in [(0u32, 0u32), (0, 1)] {
                assert!(
                    ids.contains(&must),
                    "shard pair {must:?} is within the bound and must be opened"
                );
            }
        });
        assert!(report.complete, "the DFS must exhaust the interleavings");
        assert!(report.schedules > 1, "explored {}", report.schedules);
    }

    #[test]
    #[should_panic(expected = "tying the bound must be opened")]
    fn dfs_broken_geq_prune_drops_a_tying_shard_pair() {
        // The bound tightens to exactly 2.0 — the MINMINDIST of shard pair
        // (0,1). Strict `>` keeps dispatching it (a tying global pair may
        // live there); the `>=` twin prunes it on every schedule where the
        // tighten lands first, which the DFS finds and reports.
        model(|| {
            let sc = Arc::new(Scatter::new(vec![task(1.0, 0, 0), task(2.0, 0, 1)]));
            let opened = Arc::new(Mutex::new(Vec::new()));
            let worker = {
                let sc = Arc::clone(&sc);
                let opened = Arc::clone(&opened);
                thread::spawn(move || drain(&sc, &opened, true))
            };
            let tightener = {
                let sc = Arc::clone(&sc);
                thread::spawn(move || {
                    sc.bound.tighten(2.0);
                })
            };
            worker.join().expect("worker");
            tightener.join().expect("tightener");
            let opened = opened.lock().expect("model lock");
            assert!(
                opened.iter().any(|t| (t.shard_p, t.shard_q) == (0, 1)),
                "shard pair (0,1) tying the bound must be opened"
            );
        });
    }

    #[test]
    fn pct_accounting_holds_under_contention() {
        // Eight tasks, two workers, a tightener: across every seeded
        // schedule, opened + pruned == generated and cancel is never
        // involved — no task is lost or double-counted.
        let opts = PctOptions::from_env();
        let want = opts.seeds.end - opts.seeds.start;
        let n = model_pct(opts, || {
            let tasks: Vec<Task> = (0..8u32).map(|i| task(f64::from(i), i, i + 8)).collect();
            let sc = Arc::new(Scatter::new(tasks));
            let opened = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let sc = Arc::clone(&sc);
                let opened = Arc::clone(&opened);
                handles.push(thread::spawn(move || drain(&sc, &opened, false)));
            }
            {
                let sc = Arc::clone(&sc);
                handles.push(thread::spawn(move || {
                    sc.bound.tighten(3.5);
                }));
            }
            for h in handles {
                h.join().expect("model thread");
            }
            let counts = sc.counts();
            assert_eq!(counts.opened + counts.pruned, counts.generated);
            assert_eq!(
                counts.opened,
                opened.lock().expect("model lock").len() as u64
            );
            // Tasks 0..=3 sit below the final bound 3.5: always opened.
            let opened = opened.lock().expect("model lock");
            for i in 0..4u32 {
                assert!(
                    opened.iter().any(|t| t.shard_p == i),
                    "task {i} is within the bound and must be opened"
                );
            }
        });
        assert_eq!(n, want);
    }
}
