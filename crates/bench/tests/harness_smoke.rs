//! Smoke-runs every figure and ablation at a tiny scale, and asserts the
//! paper's qualitative claims hold so regressions in the algorithms or the
//! harness are caught by `cargo test`.

use cpq_bench::figures;

const SCALE: f64 = 0.01;

#[test]
fn every_figure_runs_at_tiny_scale() {
    // Each returns at least one table with at least one row.
    for (name, figure) in figures::ALL {
        let tables = figure(SCALE).unwrap();
        assert!(!tables.is_empty(), "{name}: no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{name}: empty table {:?}", t.title);
            // Every table converts to CSV and renders.
            let _ = t.render();
        }
    }
}

/// The paper's headline claims, checked at a small but meaningful scale.
#[test]
fn paper_claims_hold_at_small_scale() {
    let scale = 0.05;

    // Figure 4a: at 0% overlap STD and HEAP beat EXH by a wide margin.
    let fig4 = figures::fig04(scale).unwrap();
    let t = &fig4[0]; // overlap 0%
    for row in &t.rows {
        let exh: f64 = row[1].parse().unwrap();
        let std_: f64 = row[3].parse().unwrap();
        let heap: f64 = row[4].parse().unwrap();
        assert!(
            std_ * 2.0 < exh && heap * 2.0 < exh,
            "claim 'STD/HEAP ≪ EXH at 0% overlap' failed: {row:?}"
        );
    }

    // Figure 7: cost grows with K for every algorithm.
    let fig7 = figures::fig07(scale).unwrap();
    for t in &fig7 {
        for col in 1..t.columns.len() {
            let first: f64 = t.rows.first().unwrap()[col].parse().unwrap();
            let last: f64 = t.rows.last().unwrap()[col].parse().unwrap();
            assert!(
                first <= last,
                "claim 'cost grows with K' failed for {} in {:?}",
                t.columns[col],
                t.title
            );
        }
    }

    // Figure 10 at zero buffer: HEAP and SML are nearly identical, and EVN
    // is the worst at the largest K (the paper's 'EVN inefficient for
    // K >= 10,000').
    let fig10 = figures::fig10(scale).unwrap();
    let t = &fig10[0]; // buffer 0, overlap 0%
    let last = t.rows.last().unwrap();
    let heap: f64 = last[2].parse().unwrap();
    let evn: f64 = last[3].parse().unwrap();
    let sml: f64 = last[4].parse().unwrap();
    assert!(
        (heap - sml).abs() <= 0.05 * heap.max(sml),
        "claim 'HEAP ≈ SML at zero buffer' failed: {heap} vs {sml}"
    );
    assert!(
        evn > heap && evn > sml,
        "claim 'EVN inefficient at large K' failed: EVN {evn}, HEAP {heap}, SML {sml}"
    );
}
