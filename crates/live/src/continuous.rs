//! Continuous K-CPQ: maintain the K closest pairs incrementally as
//! points stream in and out, bit-identical to recomputing from scratch
//! after every update.
//!
//! The result set of a K-CPQ is *uniquely determined* by the data: the
//! canonical total order `(dist2, p.oid, q.oid)` (see
//! [`PairResult::sort_key`]) has no ties between distinct pairs, so "the
//! K smallest pairs" is a set, not a choice. That is what makes
//! incremental maintenance exact rather than approximate:
//!
//! * **Insert** — the only new pairs involve the new point. Probe the
//!   other tree with a bounded-radius search seeded by the current K-th
//!   distance ([`RTree::within_dist2`](cpq_rtree::RTree::within_dist2),
//!   inclusive so distance ties survive), add every candidate pair, and
//!   trim back to K under the canonical order.
//! * **Delete** — drop every result pair involving the deleted point. If
//!   the set was *saturated* (some qualifying pair has ever been
//!   discarded — by trimming or by the engine returning exactly K), pairs
//!   beyond the old K-th may now qualify, so re-fill with one engine
//!   query. If it was never saturated it already holds every qualifying
//!   pair, and no query is needed.
//!
//! Cross (P×Q) and self-join (P×P, `p.oid < q.oid`) forms share the
//! implementation; the self form skips self-pairs and orients each pair
//! smaller-oid-first, matching the engine's convention.

use crate::error::LiveResult;
use crate::tree::{Side, Snapshot};
use cpq_core::{execute, Algorithm, CpqConfig, ExecCtx, PairResult, QuerySpec};
use cpq_geo::{Dist2, Point};
use cpq_rtree::LeafEntry;
use std::collections::BTreeMap;

/// Work counters for continuous maintenance — the incremental-vs-
/// recompute economics in one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContinuousStats {
    /// Bounded-radius probes issued (one per insert).
    pub probes: u64,
    /// Candidate pairs returned by those probes.
    pub candidates: u64,
    /// Pairs trimmed after exceeding K.
    pub trims: u64,
    /// Full engine re-fills triggered by deletes from a saturated set.
    pub refills: u64,
}

/// An incrementally maintained K-closest-pairs result set.
pub struct ContinuousCpq<const D: usize> {
    /// The maintained query. Maintenance filters candidate pairs with the
    /// same [`Constraint::admits_pair`](cpq_core::Constraint::admits_pair)
    /// predicate the engine gates its leaf scans with, so the maintained
    /// set stays bit-identical to a constrained recompute.
    spec: QuerySpec<D>,
    /// The current result set, keyed by the canonical order. Values are
    /// the pairs themselves; iteration order == engine output order.
    top: BTreeMap<(Dist2, u64, u64), PairResult<D>>,
    /// `true` once any qualifying pair may have been discarded; gates the
    /// delete-path re-fill.
    saturated: bool,
    stats: ContinuousStats,
}

impl<const D: usize> ContinuousCpq<D> {
    /// Primes a continuous K-CPQ for `spec` from the given snapshots; a
    /// self-join spec reads `snap_p` alone, here and in every later call
    /// (`snap_q` is not read). Fails with
    /// [`RTreeError::InvalidParams`](cpq_rtree::RTreeError::InvalidParams)
    /// when the spec is invalid (see [`QuerySpec::validate`]).
    pub fn new(
        spec: &QuerySpec<D>,
        snap_p: &Snapshot<D>,
        snap_q: &Snapshot<D>,
    ) -> LiveResult<Self> {
        spec.validate()?;
        let mut c = ContinuousCpq {
            spec: *spec,
            top: BTreeMap::new(),
            saturated: false,
            stats: ContinuousStats::default(),
        };
        c.refill(snap_p, snap_q)?;
        c.stats.refills = 0; // priming is not a refill
        Ok(c)
    }

    /// [`new`](Self::new) on an unconstrained cross spec. Kept for the
    /// `benchmark/` package; new code calls [`new`](Self::new).
    pub fn new_cross(k: usize, snap_p: &Snapshot<D>, snap_q: &Snapshot<D>) -> LiveResult<Self> {
        Self::new(&QuerySpec::cross(k), snap_p, snap_q)
    }

    /// The maintained pairs, closest first — identical to what the query
    /// engine would return for the current data.
    pub fn pairs(&self) -> Vec<PairResult<D>> {
        self.top.values().cloned().collect()
    }

    /// K.
    pub fn k(&self) -> usize {
        self.spec.k
    }

    /// Work counters.
    pub fn stats(&self) -> ContinuousStats {
        self.stats
    }

    /// Current probe bound: the K-th pair's distance once full, else
    /// unbounded (the set must grow).
    fn bound(&self) -> Dist2 {
        if self.top.len() >= self.spec.k {
            self.top
                .keys()
                .next_back()
                .map(|k| k.0)
                .unwrap_or(Dist2::INFINITY)
        } else {
            Dist2::INFINITY
        }
    }

    fn add_pair(&mut self, pair: PairResult<D>) {
        self.top.insert(pair.sort_key(), pair);
        while self.top.len() > self.spec.k {
            self.top.pop_last();
            self.stats.trims += 1;
            self.saturated = true;
        }
    }

    /// Maintains the set across an insert of `(object, oid)` into `side`
    /// — for the cross form; the self form ignores `side`. The snapshots
    /// must already include the insert.
    pub fn on_insert(
        &mut self,
        side: Side,
        object: Point<D>,
        oid: u64,
        snap_p: &Snapshot<D>,
        snap_q: &Snapshot<D>,
    ) -> LiveResult<()> {
        if self.spec.k == 0 {
            return Ok(());
        }
        let new_entry = LeafEntry::new(object, oid);
        let probe = object.mbr();
        // Every new pair involves the new point; if the new point itself
        // fails its side's window, no new pair can qualify and the probe
        // is skipped outright (nothing is discarded, so saturation is
        // untouched).
        let new_qualifies = if self.spec.self_join {
            self.spec.constraint.admits_p(&probe)
        } else {
            match side {
                Side::P => self.spec.constraint.admits_p(&probe),
                Side::Q => self.spec.constraint.admits_q(&probe),
            }
        };
        if !new_qualifies {
            return Ok(());
        }
        let bound = self.bound();
        if self.top.len() >= self.spec.k {
            // A bounded probe discards pairs beyond the K-th distance;
            // they may qualify after future deletes.
            self.saturated = true;
        }
        self.stats.probes += 1;
        if self.spec.self_join {
            // New pairs: the new point against every other point within
            // the bound (the snapshot already contains the new point —
            // skip it), oriented smaller-oid-first like the engine.
            let cands = snap_p.tree().within_dist2(&probe, bound)?;
            self.stats.candidates += cands.len() as u64;
            for c in cands {
                if c.oid == oid {
                    continue;
                }
                let pair = if c.oid < oid {
                    PairResult::new(c, new_entry)
                } else {
                    PairResult::new(new_entry, c)
                };
                if !self.spec.constraint.admits_pair(
                    &pair.p.mbr(),
                    pair.p.oid,
                    &pair.q.mbr(),
                    pair.q.oid,
                ) {
                    continue;
                }
                self.add_pair(pair);
            }
        } else {
            let other = match side {
                Side::P => snap_q,
                Side::Q => snap_p,
            };
            let cands = other.tree().within_dist2(&probe, bound)?;
            self.stats.candidates += cands.len() as u64;
            for c in cands {
                let pair = match side {
                    Side::P => PairResult::new(new_entry, c),
                    Side::Q => PairResult::new(c, new_entry),
                };
                if !self.spec.constraint.admits_pair(
                    &pair.p.mbr(),
                    pair.p.oid,
                    &pair.q.mbr(),
                    pair.q.oid,
                ) {
                    continue;
                }
                self.add_pair(pair);
            }
        }
        Ok(())
    }

    /// Maintains the set across a (found) delete of `oid` from `side`.
    /// The snapshots must already exclude the deleted point.
    pub fn on_delete(
        &mut self,
        side: Side,
        oid: u64,
        snap_p: &Snapshot<D>,
        snap_q: &Snapshot<D>,
    ) -> LiveResult<()> {
        let keys: Vec<(Dist2, u64, u64)> = self
            .top
            .keys()
            .filter(|k| {
                if self.spec.self_join {
                    k.1 == oid || k.2 == oid
                } else {
                    match side {
                        Side::P => k.1 == oid,
                        Side::Q => k.2 == oid,
                    }
                }
            })
            .copied()
            .collect();
        if keys.is_empty() {
            return Ok(());
        }
        for k in keys {
            self.top.remove(&k);
        }
        if self.saturated {
            // Discarded pairs may now qualify; one engine query restores
            // exactness.
            self.refill(snap_p, snap_q)?;
        }
        Ok(())
    }

    /// Full engine recompute into `top`; records saturation (an exactly-K
    /// result may have discarded qualifying pairs). The self form reads
    /// `snap_p` only (`execute` does not read Q for a self-join).
    fn refill(&mut self, snap_p: &Snapshot<D>, snap_q: &Snapshot<D>) -> LiveResult<()> {
        let run = execute(
            snap_p.tree(),
            snap_q.tree(),
            &self.spec,
            Algorithm::Heap,
            &CpqConfig::default(),
            ExecCtx::default(),
        )?;
        self.top.clear();
        for pair in run.outcome.pairs {
            self.top.insert(pair.sort_key(), pair);
        }
        self.saturated = self.top.len() == self.spec.k;
        self.stats.refills += 1;
        Ok(())
    }
}
