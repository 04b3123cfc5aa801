//! One function per figure of the paper's evaluation (Figures 2–10), plus
//! the ablation studies DESIGN.md calls out. Each returns [`Table`]s whose
//! rows are the series the paper plots.
//!
//! `scale` multiplies every dataset cardinality (1.0 = the paper's sizes);
//! the figure *shapes* — who wins, by what factor, where crossovers fall —
//! are stable in it, which is what EXPERIMENTS.md records.

use crate::args::scaled;
use crate::experiment::{
    build_tree, build_tree_bulk, build_tree_with, real_dataset as real, run_incremental, run_query,
    uniform_dataset as uni,
};
use crate::table::Table;
use cpq_core::{Algorithm, CpqConfig, HeightStrategy, KPruning, TieStrategy, Traversal};
use cpq_datasets::{uniform_grid, CALIFORNIA_SURROGATE_SIZE};
use cpq_rtree::{RTreeParams, RTreeResult};
use cpq_storage::{ClockPolicy, FifoPolicy, LruPolicy, ReplacementPolicy};

/// One figure's generator: dataset scale in, the plotted series out.
pub type Figure = fn(f64) -> RTreeResult<Vec<Table>>;

/// Every figure, ablation and validation this crate regenerates, by the
/// name the `figures` binary takes — the one table the binary, the smoke
/// test and `run_all_figures.sh` all read.
pub const ALL: [(&str, Figure); 16] = [
    ("fig02_ties", fig02),
    ("fig03_heights", fig03),
    ("fig04_onecp", fig04),
    ("fig05_overlap", fig05),
    ("fig06_buffer", fig06),
    ("fig07_kcp", fig07),
    ("fig08_overlap_k", fig08),
    ("fig09_buffer_k", fig09),
    ("fig10_incremental", fig10),
    ("ablation_kpruning", ablation_kpruning),
    ("ablation_buffer_policy", ablation_buffer_policy),
    ("ablation_tree_build", ablation_tree_build),
    ("ablation_sorting", ablation_sorting),
    ("ablation_rtree_variant", ablation_rtree_variant),
    ("ablation_pinning", ablation_pinning),
    ("costmodel_validation", costmodel_validation),
];

/// K values of the paper's K-CPQ sweeps.
const K_SWEEP: [usize; 6] = [1, 10, 100, 1_000, 10_000, 100_000];

/// Overlap percentages used by the threshold studies (Figures 5 and 8).
const OVERLAP_SWEEP: [f64; 7] = [0.0, 3.0, 6.0, 12.0, 25.0, 50.0, 100.0];

/// LRU buffer sizes (total pages `B`, split `B/2` per tree).
const BUFFER_SWEEP: [usize; 5] = [0, 4, 16, 64, 256];

fn pct(value: u64, base: u64) -> String {
    if base == 0 {
        "n/a".into()
    } else {
        format!("{:.1}", 100.0 * value as f64 / base as f64)
    }
}

/// Figure 2: tie-break strategies T1–T5 in STD (a) and HEAP (b), 60K/60K
/// uniform data, varying overlap, zero buffer, 1-CPQ. Costs relative to T1.
///
/// The data is grid-snapped (integer coordinates, like the cartographic data
/// of the era): exact `MINMINDIST` ties — what the strategies arbitrate —
/// essentially never occur between continuous `f64` coordinates.
pub fn fig02(scale: f64) -> RTreeResult<Vec<Table>> {
    let mut p = uniform_grid(scaled(60_000, scale), 601, 1.0);
    p.name = "60K".into();
    let tp = build_tree(&p)?;
    let mut q_base = uniform_grid(scaled(60_000, scale), 602, 1.0);
    q_base.name = "60K".into();
    let overlaps = [0.0, 33.0, 50.0, 67.0, 100.0];

    let mut tables = Vec::new();
    for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
        let mut t = Table::new(
            format!(
                "Figure 2{} {} tie strategies (cost relative to T1, %)",
                if alg == Algorithm::SortedDistances {
                    'a'
                } else {
                    'b'
                },
                alg.label()
            ),
            &["overlap_pct", "T1", "T2", "T3", "T4", "T5"],
        );
        for &o in &overlaps {
            let q = q_base.with_overlap(&p, o / 100.0);
            let tq = build_tree(&q)?;
            let mut costs = Vec::new();
            for tie in TieStrategy::ALL {
                let cfg = CpqConfig {
                    tie,
                    ..CpqConfig::paper()
                };
                let out = run_query(&tp, &tq, 1, alg, &cfg, 0)?;
                costs.push(out.stats.disk_accesses());
            }
            let base = costs[0];
            let mut row = vec![format!("{o:.0}")];
            row.extend(costs.iter().map(|&c| pct(c, base)));
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 3: fix-at-leaves vs fix-at-root for trees of different heights,
/// STD (a) and HEAP (b); 20K–60K vs 80K uniform data, overlaps 0/50/100 %,
/// zero buffer, 1-CPQ. Absolute disk accesses (the paper plots log scale).
pub fn fig03(scale: f64) -> RTreeResult<Vec<Table>> {
    let tall = uni(80_000, scale, 801);
    let t_tall = build_tree(&tall)?;
    let overlaps = [0.0, 50.0, 100.0];
    let shorts = [20_000usize, 40_000, 60_000];

    let mut tables = Vec::new();
    for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
        let mut t = Table::new(
            format!(
                "Figure 3{} {} height strategies (disk accesses)",
                if alg == Algorithm::SortedDistances {
                    'a'
                } else {
                    'b'
                },
                alg.label()
            ),
            &["combo", "overlap_pct", "fix_at_leaves", "fix_at_root"],
        );
        for &n in &shorts {
            let short_base = uni(n, scale, 300 + n as u64 / 1000);
            for &o in &overlaps {
                let short = short_base.with_overlap(&tall, o / 100.0);
                let t_short = build_tree(&short)?;
                let mut row = vec![format!("{}K/80K", n / 1000), format!("{o:.0}")];
                for height in [HeightStrategy::FixAtLeaves, HeightStrategy::FixAtRoot] {
                    let cfg = CpqConfig {
                        height,
                        ..CpqConfig::paper()
                    };
                    let out = run_query(&t_short, &t_tall, 1, alg, &cfg, 0)?;
                    row.push(out.stats.disk_accesses().to_string());
                }
                t.push_row(row);
            }
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 4: the four 1-CP algorithms, real vs uniform data of varying
/// cardinality, overlap 0 % (a) and 100 % (b), zero buffer.
pub fn fig04(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;
    let sizes = [20_000usize, 40_000, 60_000, 80_000];

    let mut tables = Vec::new();
    for &o in &[0.0, 100.0] {
        let mut t = Table::new(
            format!(
                "Figure 4{} 1-CP algorithms, overlap {o:.0}% (disk accesses)",
                if o == 0.0 { 'a' } else { 'b' }
            ),
            &["combo", "EXH", "SIM", "STD", "HEAP"],
        );
        for &n in &sizes {
            let q = uni(n, scale, 400 + n as u64 / 1000).with_overlap(&p, o / 100.0);
            let tq = build_tree(&q)?;
            let mut row = vec![format!("R/{}K", n / 1000)];
            for alg in Algorithm::EVALUATED {
                let out = run_query(&tp, &tq, 1, alg, &CpqConfig::paper(), 0)?;
                row.push(out.stats.disk_accesses().to_string());
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 5: the overlap threshold for 1-CPQs — cost of SIM/STD/HEAP
/// relative to EXH (%), real vs uniform 40K and 80K, zero buffer.
pub fn fig05(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;

    let mut t = Table::new(
        "Figure 5 overlap threshold, 1-CP (cost relative to EXH, %)",
        &[
            "overlap_pct",
            "40K SIM",
            "40K STD",
            "40K HEAP",
            "80K SIM",
            "80K STD",
            "80K HEAP",
        ],
    );
    for &o in &OVERLAP_SWEEP {
        let mut row = vec![format!("{o:.0}")];
        for &n in &[40_000usize, 80_000] {
            let q = uni(n, scale, 500 + n as u64 / 1000).with_overlap(&p, o / 100.0);
            let tq = build_tree(&q)?;
            let exh = run_query(&tp, &tq, 1, Algorithm::Exhaustive, &CpqConfig::paper(), 0)?
                .stats
                .disk_accesses();
            for alg in [
                Algorithm::Simple,
                Algorithm::SortedDistances,
                Algorithm::Heap,
            ] {
                let c = run_query(&tp, &tq, 1, alg, &CpqConfig::paper(), 0)?
                    .stats
                    .disk_accesses();
                row.push(pct(c, exh));
            }
        }
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Figure 6: the LRU buffer effect on 1-CPQs — real vs uniform 40K/80K,
/// buffer B ∈ {0…256} pages, overlap 0 % (a) and 100 % (b).
pub fn fig06(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;

    let mut tables = Vec::new();
    for &o in &[0.0, 100.0] {
        let mut t = Table::new(
            format!(
                "Figure 6{} LRU buffer, 1-CP, overlap {o:.0}% (disk accesses)",
                if o == 0.0 { 'a' } else { 'b' }
            ),
            &[
                "buffer_B", "40K EXH", "40K SIM", "40K STD", "40K HEAP", "80K EXH", "80K SIM",
                "80K STD", "80K HEAP",
            ],
        );
        // Build each Q once per overlap; sweep buffers on the same trees.
        let mut tqs = Vec::new();
        for &n in &[40_000usize, 80_000] {
            let q = uni(n, scale, 600 + n as u64 / 1000).with_overlap(&p, o / 100.0);
            tqs.push(build_tree(&q)?);
        }
        for &b in &BUFFER_SWEEP {
            let mut row = vec![b.to_string()];
            for tq in &tqs {
                for alg in Algorithm::EVALUATED {
                    let out = run_query(&tp, tq, 1, alg, &CpqConfig::paper(), b)?;
                    row.push(out.stats.disk_accesses().to_string());
                }
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 7: the four K-CP algorithms for varying K — real vs uniform data
/// of the same cardinality, overlap 0 % (a) and 100 % (b), zero buffer.
pub fn fig07(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;
    let q_base = uni(CALIFORNIA_SURROGATE_SIZE, scale, 700);

    let mut tables = Vec::new();
    for &o in &[0.0, 100.0] {
        let q = q_base.with_overlap(&p, o / 100.0);
        let tq = build_tree(&q)?;
        let mut t = Table::new(
            format!(
                "Figure 7{} K-CP algorithms, overlap {o:.0}% (disk accesses)",
                if o == 0.0 { 'a' } else { 'b' }
            ),
            &["K", "EXH", "SIM", "STD", "HEAP"],
        );
        for &k in &K_SWEEP {
            let mut row = vec![k.to_string()];
            for alg in Algorithm::EVALUATED {
                let out = run_query(&tp, &tq, k, alg, &CpqConfig::paper(), 0)?;
                row.push(out.stats.disk_accesses().to_string());
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 8: overlap × K surface — STD (a) and HEAP (b) cost relative to
/// EXH (%), real vs uniform, zero buffer.
pub fn fig08(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;
    let q_base = uni(CALIFORNIA_SURROGATE_SIZE, scale, 800);

    let algs = [Algorithm::SortedDistances, Algorithm::Heap];
    let mut tables: Vec<Table> = algs
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            let mut cols: Vec<String> = vec!["overlap_pct".into()];
            cols.extend(K_SWEEP.iter().map(|k| format!("K={k}")));
            Table::new(
                format!(
                    "Figure 8{} {} vs EXH for overlap x K (relative cost, %)",
                    if i == 0 { 'a' } else { 'b' },
                    alg.label()
                ),
                &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            )
        })
        .collect();

    for &o in &OVERLAP_SWEEP {
        let q = q_base.with_overlap(&p, o / 100.0);
        let tq = build_tree(&q)?;
        let mut rows = [vec![format!("{o:.0}")], vec![format!("{o:.0}")]];
        for &k in &K_SWEEP {
            let exh = run_query(&tp, &tq, k, Algorithm::Exhaustive, &CpqConfig::paper(), 0)?
                .stats
                .disk_accesses();
            for (i, alg) in algs.iter().enumerate() {
                let c = run_query(&tp, &tq, k, *alg, &CpqConfig::paper(), 0)?
                    .stats
                    .disk_accesses();
                rows[i].push(pct(c, exh));
            }
        }
        for (i, row) in rows.into_iter().enumerate() {
            tables[i].push_row(row);
        }
    }
    Ok(tables)
}

/// Figure 9: LRU buffer × K — STD (a) and HEAP (b) absolute disk accesses,
/// real vs uniform, overlap 0 %.
pub fn fig09(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;
    let q = uni(CALIFORNIA_SURROGATE_SIZE, scale, 900).with_overlap(&p, 0.0);
    let tq = build_tree(&q)?;

    let mut tables = Vec::new();
    for (i, alg) in [Algorithm::SortedDistances, Algorithm::Heap]
        .iter()
        .enumerate()
    {
        let mut cols: Vec<String> = vec!["buffer_B".into()];
        cols.extend(K_SWEEP.iter().map(|k| format!("K={k}")));
        let mut t = Table::new(
            format!(
                "Figure 9{} {} for buffer x K (disk accesses)",
                if i == 0 { 'a' } else { 'b' },
                alg.label()
            ),
            &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        for &b in &BUFFER_SWEEP {
            let mut row = vec![b.to_string()];
            for &k in &K_SWEEP {
                let out = run_query(&tp, &tq, k, *alg, &CpqConfig::paper(), b)?;
                row.push(out.stats.disk_accesses().to_string());
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Figure 10: the paper's STD/HEAP vs the incremental EVN/SML of Hjaltason &
/// Samet, for (buffer, overlap) ∈ {0, 128} × {0 %, 100 %} and varying K.
pub fn fig10(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let tp = build_tree(&p)?;
    let q_base = uni(CALIFORNIA_SURROGATE_SIZE, scale, 1000);

    let mut tables = Vec::new();
    let configs = [
        (0usize, 0.0f64, 'a'),
        (128, 0.0, 'b'),
        (0, 100.0, 'c'),
        (128, 100.0, 'd'),
    ];
    for (b, o, sub) in configs {
        let q = q_base.with_overlap(&p, o / 100.0);
        let tq = build_tree(&q)?;
        let mut t = Table::new(
            format!("Figure 10{sub} vs incremental, buffer {b}, overlap {o:.0}% (disk accesses)"),
            &["K", "STD", "HEAP", "EVN", "SML"],
        );
        for &k in &K_SWEEP {
            let mut row = vec![k.to_string()];
            for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
                let out = run_query(&tp, &tq, k, alg, &CpqConfig::paper(), b)?;
                row.push(out.stats.disk_accesses().to_string());
            }
            for traversal in Traversal::ALL {
                let out = run_incremental(&tp, &tq, k, traversal, b)?;
                row.push(out.stats.disk_accesses().to_string());
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Ablation: K-pruning bound (K-heap top only vs the MAXMAXDIST cardinality
/// bound) for STD and HEAP, overlapping uniform data, zero buffer.
pub fn ablation_kpruning(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = uni(60_000, scale, 1101);
    let tp = build_tree(&p)?;
    let q = uni(60_000, scale, 1102).with_overlap(&p, 1.0);
    let tq = build_tree(&q)?;

    let mut t = Table::new(
        "Ablation K-pruning bound (disk accesses)",
        &[
            "K",
            "STD kheap-only",
            "STD maxmaxdist",
            "HEAP kheap-only",
            "HEAP maxmaxdist",
        ],
    );
    for &k in &K_SWEEP {
        let mut row = vec![k.to_string()];
        for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
            for pruning in [KPruning::KHeapOnly, KPruning::MaxMaxDist] {
                let cfg = CpqConfig {
                    k_pruning: pruning,
                    ..CpqConfig::paper()
                };
                let out = run_query(&tp, &tq, k, alg, &cfg, 0)?;
                row.push(out.stats.disk_accesses().to_string());
            }
        }
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Ablation: buffer replacement policy (LRU vs FIFO vs Clock) for the HEAP
/// and STD algorithms, K = 1000, overlapping data.
pub fn ablation_buffer_policy(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = uni(40_000, scale, 1201);
    let q = uni(40_000, scale, 1202).with_overlap(&p, 1.0);

    let build_with = |ds, policy| build_tree_with(ds, RTreeParams::paper(), policy, 512);
    let policies: [fn() -> Box<dyn ReplacementPolicy>; 3] = [
        || Box::new(LruPolicy::new()),
        || Box::new(FifoPolicy::new()),
        || Box::new(ClockPolicy::new()),
    ];

    let mut t = Table::new(
        "Ablation buffer replacement policy, K=1000 (disk accesses)",
        &[
            "buffer_B",
            "STD lru",
            "STD fifo",
            "STD clock",
            "HEAP lru",
            "HEAP fifo",
            "HEAP clock",
        ],
    );
    let mut cells: Vec<Vec<String>> = BUFFER_SWEEP.iter().map(|b| vec![b.to_string()]).collect();
    for alg in [Algorithm::SortedDistances, Algorithm::Heap] {
        for policy in policies {
            let tp = build_with(&p, policy())?;
            let tq = build_with(&q, policy())?;
            for (bi, &b) in BUFFER_SWEEP.iter().enumerate() {
                let out = run_query(&tp, &tq, 1000, alg, &CpqConfig::paper(), b)?;
                cells[bi].push(out.stats.disk_accesses().to_string());
            }
        }
    }
    for row in cells {
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Ablation: tree construction (insertion-built vs STR bulk-loaded at 70 %
/// and 100 % fill) — the paper builds by insertion; packing changes node
/// overlap and hence CPQ cost.
pub fn ablation_tree_build(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = uni(60_000, scale, 1301);
    let q = uni(60_000, scale, 1302).with_overlap(&p, 1.0);

    let trees_p = [
        ("insert", build_tree(&p)?),
        ("str70", build_tree_bulk(&p, 0.7)?),
        ("str100", build_tree_bulk(&p, 1.0)?),
    ];
    let trees_q = [
        ("insert", build_tree(&q)?),
        ("str70", build_tree_bulk(&q, 0.7)?),
        ("str100", build_tree_bulk(&q, 1.0)?),
    ];

    let mut t = Table::new(
        "Ablation tree construction (disk accesses, HEAP)",
        &["K", "insert", "str70", "str100"],
    );
    for &k in &[1usize, 100, 10_000] {
        let mut row = vec![k.to_string()];
        for ((_, tp), (_, tq)) in trees_p.iter().zip(&trees_q) {
            let out = run_query(tp, tq, k, Algorithm::Heap, &CpqConfig::paper(), 0)?;
            row.push(out.stats.disk_accesses().to_string());
        }
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Ablation: R-tree variant (R* vs Guttman quadratic/linear) — quantifies
/// the paper's Section 2.2 claim that the R*-tree is "the most efficient
/// variant of the R-tree family" for CPQ processing.
pub fn ablation_rtree_variant(scale: f64) -> RTreeResult<Vec<Table>> {
    use cpq_rtree::SplitPolicy;
    let p = uni(40_000, scale, 1501);
    let q = uni(40_000, scale, 1502).with_overlap(&p, 1.0);

    let build_variant = |ds, policy| {
        let params = RTreeParams {
            split_policy: policy,
            ..RTreeParams::paper()
        };
        build_tree_with(ds, params, Box::new(LruPolicy::new()), 512)
    };

    let mut t = Table::new(
        "Ablation R-tree variant (disk accesses, HEAP, overlap 100%)",
        &["K", "rstar", "quadratic", "linear"],
    );
    let mut cells: Vec<Vec<String>> = [1usize, 100, 10_000]
        .iter()
        .map(|k| vec![k.to_string()])
        .collect();
    for policy in SplitPolicy::ALL {
        let tp = build_variant(&p, policy)?;
        let tq = build_variant(&q, policy)?;
        for (ki, &k) in [1usize, 100, 10_000].iter().enumerate() {
            let out = run_query(&tp, &tq, k, Algorithm::Heap, &CpqConfig::paper(), 0)?;
            cells[ki].push(out.stats.disk_accesses().to_string());
        }
    }
    for row in cells {
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Ablation: pinning the R-trees' directory (non-leaf) levels in the buffer
/// — the production policy EXPERIMENTS.md note 3 suspects behind the
/// paper's earlier HEAP crossover. Compares plain B/2 LRU against the same
/// budget with upper levels pinned first.
pub fn ablation_pinning(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = real(scale);
    let q = uni(CALIFORNIA_SURROGATE_SIZE, scale, 1701).with_overlap(&p, 1.0);
    let tp = build_tree(&p)?;
    let tq = build_tree(&q)?;

    let mut t = Table::new(
        "Ablation directory pinning, 1-CP overlap 100% (disk accesses)",
        &[
            "buffer_B",
            "EXH plain",
            "EXH pinned",
            "STD plain",
            "STD pinned",
            "HEAP plain",
            "HEAP pinned",
        ],
    );
    for &b in &[16usize, 64, 256] {
        let mut row = vec![b.to_string()];
        for alg in [
            Algorithm::Exhaustive,
            Algorithm::SortedDistances,
            Algorithm::Heap,
        ] {
            // Plain LRU.
            let out = run_query(&tp, &tq, 1, alg, &CpqConfig::paper(), b)?;
            row.push(out.stats.disk_accesses().to_string());
            // Same budget, directory pinned (pin both trees' non-leaf
            // levels, then measure only the query).
            crate::experiment::configure_buffers(&tp, &tq, b);
            tp.pin_upper_levels(1)?;
            tq.pin_upper_levels(1)?;
            tp.pool().reset_stats();
            tq.pool().reset_stats();
            let out = cpq_core::k_closest_pairs(&tp, &tq, 1, alg, &CpqConfig::paper())?;
            row.push(out.stats.disk_accesses().to_string());
        }
        // Interleave columns: currently alg-major (plain,pinned per alg).
        t.push_row(row);
    }
    Ok(vec![t])
}

/// Validation of the analytic cost model (future work (b)): predicted vs
/// measured zero-buffer disk accesses for 1-CPQs on uniform data.
pub fn costmodel_validation(scale: f64) -> RTreeResult<Vec<Table>> {
    use cpq_core::costmodel::estimate_1cp_cost;
    let mut t = Table::new(
        "Cost model validation, 1-CP uniform data (disk accesses)",
        &["config", "predicted", "measured", "ratio"],
    );
    for (np, nq, overlap) in [
        (20_000usize, 20_000usize, 1.0f64),
        (40_000, 40_000, 1.0),
        (80_000, 40_000, 1.0),
        (40_000, 40_000, 0.5),
        (40_000, 40_000, 0.25),
    ] {
        let p = uni(np, scale, 1601);
        let q = uni(nq, scale, 1602).with_overlap(&p, overlap);
        let tp = build_tree(&p)?;
        let tq = build_tree(&q)?;
        let sp = tp.level_stats()?;
        let sq = tq.level_stats()?;
        #[expect(clippy::expect_used, reason = "`q` overlaps `p`, so it is defined")]
        let est = estimate_1cp_cost(&sp, &p.workspace, tp.len(), &sq, &q.workspace, tq.len())
            .expect("overlapping workspaces");
        let out = run_query(&tp, &tq, 1, Algorithm::Heap, &CpqConfig::paper(), 0)?;
        let measured = out.stats.disk_accesses();
        t.push_row(vec![
            format!("{}K/{}K@{:.0}%", np / 1000, nq / 1000, overlap * 100.0),
            format!("{:.0}", est.disk_accesses),
            measured.to_string(),
            format!("{:.2}", est.disk_accesses / measured as f64),
        ]);
    }
    Ok(vec![t])
}

/// Ablation: STD's sorting algorithm (footnote 2) — identical I/O for stable
/// sorts, potentially different tie orders for unstable ones; the CPU side
/// is covered by the Criterion bench.
pub fn ablation_sorting(scale: f64) -> RTreeResult<Vec<Table>> {
    let p = uni(40_000, scale, 1401);
    let tp = build_tree(&p)?;
    let q = uni(40_000, scale, 1402).with_overlap(&p, 1.0);
    let tq = build_tree(&q)?;

    let mut t = Table::new(
        "Ablation STD sorting algorithm (disk accesses, K=100)",
        &["sort", "stable", "disk_accesses"],
    );
    for sort in cpq_core::SortAlgorithm::ALL {
        let cfg = CpqConfig {
            sort,
            ..CpqConfig::paper()
        };
        let out = run_query(&tp, &tq, 100, Algorithm::SortedDistances, &cfg, 0)?;
        t.push_row(vec![
            sort.label().to_string(),
            sort.is_stable().to_string(),
            out.stats.disk_accesses().to_string(),
        ]);
    }
    Ok(vec![t])
}
