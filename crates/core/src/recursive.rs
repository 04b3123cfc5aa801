//! The four recursive algorithms: Naive, Exhaustive (EXH), Simple (SIM) and
//! Sorted Distances (STD) — Sections 3.1–3.4 of the paper.
//!
//! All four open a node pair with [`Ctx::open_pair`] (CP1: cancel check,
//! leaf scan or candidate generation) and recurse through [`Ctx::descend`];
//! each function below is only what its section of the paper adds — how
//! the pair's candidate children are filtered and ordered:
//!
//! | algorithm | prunes `MINMINDIST > T` | updates `T` from bounds | orders candidates |
//! |-----------|------------------------|--------------------------|-------------------|
//! | Naive     | no                     | no                       | generation order  |
//! | EXH       | yes                    | no                       | generation order  |
//! | SIM       | yes                    | yes                      | generation order  |
//! | STD       | yes                    | yes                      | ascending MINMINDIST (+ tie strategy) |

use crate::engine::Ctx;
use cpq_obs::Probe;
use cpq_rtree::{NodeView, RTreeResult};
use cpq_storage::PageId;
use std::cmp::Ordering;

/// Naive (Section 3.1): recurse into **every** candidate pair; `T` only
/// shrinks when leaf pairs are scanned.
pub(crate) fn naive<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    np: &NodeView<D>,
    nq: &NodeView<D>,
    page_p: PageId,
    page_q: PageId,
) -> RTreeResult<()> {
    let Some(cands) = ctx.open_pair(np, nq, page_p, page_q, false)? else {
        return Ok(());
    };
    for c in &cands {
        ctx.descend(np, nq, page_p, page_q, c, naive)?;
    }
    ctx.return_cands(cands);
    Ok(())
}

/// Exhaustive (Section 3.2): like Naive but prunes candidates whose
/// `MINMINDIST` exceeds the current threshold (left side of Inequality 1).
pub(crate) fn exhaustive<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    np: &NodeView<D>,
    nq: &NodeView<D>,
    page_p: PageId,
    page_q: PageId,
) -> RTreeResult<()> {
    let Some(cands) = ctx.open_pair(np, nq, page_p, page_q, true)? else {
        return Ok(());
    };
    for c in &cands {
        // T may have shrunk since candidate generation: re-check on use.
        if c.minmin <= ctx.t() {
            ctx.descend(np, nq, page_p, page_q, c, exhaustive)?;
        } else {
            ctx.stats.pairs_pruned += 1;
        }
    }
    ctx.return_cands(cands);
    Ok(())
}

/// Simple recursive (Section 3.3): EXH plus eager threshold tightening via
/// Inequality 2 (1-CP) or the MAXMAXDIST cardinality bound (K-CP).
pub(crate) fn simple<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    np: &NodeView<D>,
    nq: &NodeView<D>,
    page_p: PageId,
    page_q: PageId,
) -> RTreeResult<()> {
    let Some(cands) = ctx.open_pair(np, nq, page_p, page_q, true)? else {
        return Ok(());
    };
    ctx.apply_bounds(&cands);
    for c in &cands {
        if c.minmin <= ctx.t() {
            ctx.descend(np, nq, page_p, page_q, c, simple)?;
        } else {
            ctx.stats.pairs_pruned += 1;
        }
    }
    ctx.return_cands(cands);
    Ok(())
}

/// Sorted Distances (Section 3.4): SIM plus processing candidates in
/// ascending `MINMINDIST` order (ties resolved by the configured strategy),
/// so the threshold shrinks as early as possible.
pub(crate) fn sorted<const D: usize, P: Probe>(
    ctx: &mut Ctx<'_, D, P>,
    np: &NodeView<D>,
    nq: &NodeView<D>,
    page_p: PageId,
    page_q: PageId,
) -> RTreeResult<()> {
    let Some(mut cands) = ctx.open_pair(np, nq, page_p, page_q, true)? else {
        return Ok(());
    };
    ctx.apply_bounds(&cands);

    // Decorate with the tie key so the comparator is cheap and the sort
    // algorithm choice (footnote 2) is honest about comparison counts.
    let tie = ctx.cfg.tie;
    let (rap, raq) = (ctx.root_area_p, ctx.root_area_q);
    let mut keyed = ctx.take_keyed();
    keyed.extend(cands.drain(..).map(|c| {
        let key = tie.key(&c.mbr_p, &c.mbr_q, rap, raq);
        (c, key)
    }));
    ctx.return_cands(cands);
    let sort = ctx.cfg.sort;
    sort.sort_by(&mut keyed, |a, b| {
        a.0.minmin
            .cmp(&b.0.minmin)
            .then_with(|| a.1.total_cmp(&b.1).then(Ordering::Equal))
    });

    for (c, _) in &keyed {
        if c.minmin <= ctx.t() {
            ctx.descend(np, nq, page_p, page_q, c, sorted)?;
        } else {
            ctx.stats.pairs_pruned += 1;
        }
    }
    ctx.return_keyed(keyed);
    Ok(())
}
