//! Cross-shard result merging on the canonical total order.
//!
//! # Why the merge is exact
//!
//! Let a *global* top-K pair be one of the K canonically-smallest pairs
//! (by [`pair_cmp`]: distance, then `p.oid`, then `q.oid`) of the whole
//! query. Any such pair lives in exactly one shard-pair subquery, and has
//! at most `K - 1` canonical predecessors globally — hence at most `K - 1`
//! within its own subquery — so the subquery's local top-K (a [`KHeap`] of
//! capacity K retaining by the same total order) cannot evict it.
//! Concatenating all partials, sorting by [`pair_cmp`], and truncating to
//! K therefore returns exactly the global top-K, bit for bit.
//!
//! The one subtlety is *orientation*: the total order reads `p.oid` and
//! `q.oid` as stored, so a sharded self-join's off-diagonal subqueries
//! must canonicalize each pair to `p.oid < q.oid` **before** their local
//! K-heap retains (the engine's `orient_by_oid` scatter mode) — otherwise
//! a distance tie could locally evict the very orientation the unsharded
//! self-join would have kept.
//!
//! [`KHeap`]: cpq_core::KHeap
//! [`pair_cmp`]: cpq_core::pair_cmp

use cpq_core::{pair_cmp, PairResult};

/// Merges per-subquery top-K lists into the global top-K by the canonical
/// total order. Input order — of the lists and within each list — is
/// irrelevant; the output is the sorted global top-K (shorter than `k`
/// when the inputs are).
pub fn merge_top_k<const D: usize>(
    partials: impl IntoIterator<Item = Vec<PairResult<D>>>,
    k: usize,
) -> Vec<PairResult<D>> {
    let mut all: Vec<PairResult<D>> = partials.into_iter().flatten().collect();
    all.sort_by(pair_cmp);
    all.truncate(k);
    all
}
