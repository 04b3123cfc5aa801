//! The Heap algorithm (Section 3.5): the iterative, non-recursive variant.
//!
//! A global min-heap keyed by `MINMINDIST` holds pairs of nodes awaiting
//! processing. Unlike the incremental algorithms of Hjaltason & Samet, the
//! heap stores **only node/node pairs** — never node/object or object/object
//! items — which keeps it small enough to live entirely in main memory
//! (Section 3.9). Ties of `MINMINDIST` are resolved by the configured
//! strategy T1–T5, then FIFO.

use crate::engine::{spec_page, Ctx};
use cpq_geo::Dist2;
use cpq_obs::{Probe, ProbeSide};
use cpq_rtree::{NodeView, RTreeResult};
use cpq_storage::PageId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A node pair queued for processing, identified by page ids.
struct HeapItem {
    minmin: Dist2,
    tie_key: f64,
    seq: u64,
    page_p: PageId,
    page_q: PageId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.minmin
            .cmp(&other.minmin)
            .then_with(|| self.tie_key.total_cmp(&other.tie_key))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Runs the Heap algorithm starting from the two root nodes (already read by
/// the caller, which also charged those two page accesses).
pub(crate) fn heap_run<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    root_p: &NodeView<D>,
    root_q: &NodeView<D>,
) -> RTreeResult<()> {
    let mut heap: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::new();
    let mut seq = 0u64;

    // CP2 on the root pair seeds the heap with its surviving candidates.
    process_pair(
        ctx,
        root_p,
        ctx.tp.root(),
        root_q,
        ctx.tq.root(),
        &mut heap,
        &mut seq,
    )?;

    while let Some(Reverse(item)) = heap.pop() {
        // CP5: stop when the closest remaining pair cannot beat T.
        if item.minmin > ctx.t() {
            break;
        }
        let np = ctx.read_side(ProbeSide::P, item.page_p)?;
        let nq = ctx.read_side(ProbeSide::Q, item.page_q)?;
        process_pair(ctx, &np, item.page_p, &nq, item.page_q, &mut heap, &mut seq)?;
    }
    Ok(())
}

/// CP2/CP3 of the Heap algorithm on one node pair: scan leaves, or generate
/// candidates, tighten bounds, and push survivors (`Stay` sides keep the
/// current page id — the node will simply be re-read when the pair is
/// popped, which is exactly the I/O a paged implementation performs).
fn process_pair<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    np: &NodeView<D>,
    page_p: PageId,
    nq: &NodeView<D>,
    page_q: PageId,
    heap: &mut BinaryHeap<Reverse<HeapItem>>,
    seq: &mut u64,
) -> RTreeResult<()> {
    let Some(mut cands) = ctx.open_pair(np, nq, page_p, page_q, true)? else {
        return Ok(());
    };
    ctx.apply_bounds(&cands);
    for c in cands.drain(..) {
        if c.minmin > ctx.t() {
            ctx.stats.pairs_pruned += 1;
            continue;
        }
        let next_p = spec_page(&c.p, page_p);
        let next_q = spec_page(&c.q, page_q);
        let tie_key = ctx
            .cfg
            .tie
            .key(&c.mbr_p, &c.mbr_q, ctx.root_area_p, ctx.root_area_q);
        *seq += 1;
        heap.push(Reverse(HeapItem {
            minmin: c.minmin,
            tie_key,
            seq: *seq,
            page_p: next_p,
            page_q: next_q,
        }));
        ctx.stats.queue_inserts += 1;
        ctx.stats.queue_peak = ctx.stats.queue_peak.max(heap.len());
    }
    ctx.return_cands(cands);
    Ok(())
}
