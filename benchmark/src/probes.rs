//! Layer probes: direct timings of the crates' public functions on data
//! harvested from the workload's own trees, run only by the traced run.
//!
//! To add a probe: declare its metric in `report.rs` and `BENCHMARK.json`,
//! write a function here that times the public call inside
//! `tracer.scope("probe.<layer>", ..)`, `m.set` the result, and call it
//! from the traced run of each workload that exercises the layer.

use crate::data::{indexed, ns_per_call, Opts, BUILD_POOL_PAGES};
use crate::gate::{keys, Gate};
use crate::kcpq::{class_name, Trees, CLASSES, COLD_POOL_PAGES};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats;
use cpq_core::{
    k_closest_pairs, k_closest_pairs_instrumented, Algorithm, CancelToken, Constraint, CpqConfig,
    KHeap, LeafScan, PairResult, ProfileProbe,
};
use cpq_geo::{min_min_dist2, pt_dist2_within, Dist2, Point2, Rect2};
use cpq_rtree::{LeafEntry, RTree, RTreeParams};
use cpq_service::{plan, AdmissionQueue, PlannerInputs, QueryKind};
use cpq_shard::proto::algorithm_code;
use cpq_shard::{
    k_closest_pairs_sharded, PartialResult, ShardConfig, ShardSubquery, ShardedTree, WirePair,
};
use cpq_storage::{
    crc32, BufferPool, DiskPageFile, MemPageFile, PageFile, PageId, SchedConfig, DEFAULT_PAGE_SIZE,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What the micro probes run on.
pub struct Fixture<'a> {
    /// The workload's P tree; its pool is resized by the probes and set
    /// back to `pool_pages` frames afterwards.
    pub p: &'a RTree<2>,
    /// The workload's Q tree (read-only here).
    pub q: &'a RTree<2>,
    /// Points of the P side.
    pub pts_p: &'a [Point2],
    /// Scratch directory for the probes' own files.
    pub dir: &'a Path,
    /// Whether the workload keeps its pages in disk files (buffered) or in
    /// memory; the probes' scratch files are of the same kind.
    pub disk: bool,
    /// Frames of the workload's P pool, restored when the probes end.
    pub pool_pages: usize,
}

/// Share of `--seconds` one micro probe may use.
const PROBE_SHARE: f64 = 0.01;

/// Page ids and MBRs of `tree`, breadth first from the root, at most
/// `limit` pages.
fn harvest(tree: &RTree<2>, limit: usize) -> (Vec<PageId>, Vec<Rect2>) {
    let (mut ids, mut rects) = (vec![tree.root()], Vec::new());
    let mut next = 0;
    while next < ids.len() {
        let node = tree.read_node(ids[next]).expect("read node");
        if !node.is_leaf() {
            for e in node.inner_entries() {
                if ids.len() < limit {
                    ids.push(e.child);
                }
                rects.push(e.mbr);
            }
        }
        next += 1;
    }
    (ids, rects)
}

fn scratch_file(fx: &Fixture<'_>, name: &str) -> Box<dyn PageFile> {
    if fx.disk {
        Box::new(
            DiskPageFile::create(fx.dir.join(name), DEFAULT_PAGE_SIZE)
                .expect("create scratch file"),
        )
    } else {
        Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE))
    }
}

/// The workload-independent probes of `geo`, `storage`, `rtree`, and the
/// unit costs of `core`'s K-heap, `shard`'s codec and `service`'s planner
/// and queue.
pub fn micro(fx: &Fixture<'_>, opts: &Opts, tracer: &Tracer, m: &mut Metrics) {
    let budget = opts.budget(PROBE_SHARE);
    let pool = fx.p.pool();
    pool.set_capacity(BUILD_POOL_PAGES);
    let (ids, rects) = harvest(fx.p, 2_048);
    let pages: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| pool.read_page(id).expect("harvest page").to_vec())
        .collect();
    let n = ids.len();

    tracer.scope("probe.geo", None, None, |_| {
        let pts = &fx.pts_p[..fx.pts_p.len().min(4_096)];
        // A threshold most pairs exceed, as the live bound T is in a query.
        let t = Dist2::new(pts[0].dist2(&pts[pts.len() / 2]) / 64.0);
        m.set(
            "geo.pt_dist2_within_ns",
            ns_per_call(budget, 4_096, |i| {
                black_box(pt_dist2_within(
                    &pts[i % pts.len()],
                    &pts[(i * 7 + 13) % pts.len()],
                    t,
                ));
            }),
        );
        m.set(
            "geo.min_min_dist2_ns",
            ns_per_call(budget, 4_096, |i| {
                black_box(min_min_dist2(
                    &rects[i % rects.len()],
                    &rects[(i * 7 + 13) % rects.len()],
                ));
            }),
        );
    });

    tracer.scope("probe.storage", None, None, |_| {
        m.set(
            "storage.pool_hit_ns",
            ns_per_call(budget, 4_096, |i| {
                black_box(pool.read_page(ids[i % n]).expect("hit"));
            }),
        );
        // Two threads on one pool. The mean over all calls, not the
        // median batch: the wait for the other thread is what is measured.
        let barrier = Barrier::new(2);
        let both: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (ids, barrier) = (&ids, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (started, mut calls) = (Instant::now(), 0usize);
                        while started.elapsed() < budget {
                            for _ in 0..4_096 {
                                black_box(
                                    pool.read_page(ids[(calls + t * n / 2) % n]).expect("hit"),
                                );
                                calls += 1;
                            }
                        }
                        started.elapsed().as_nanos() as f64 / calls as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        m.set("storage.pool_hit_ns_2t", stats::mean(&both));
        m.set(
            "storage.crc32_ns_per_page",
            ns_per_call(budget, 256, |i| {
                black_box(crc32(&pages[i % n]));
            }),
        );
    });

    tracer.scope("probe.rtree", None, None, |_| {
        m.set(
            "rtree.read_node_hit_ns",
            ns_per_call(budget, 4_096, |i| {
                black_box(fx.p.read_node(ids[i % n]).expect("hit"));
            }),
        );
        m.set(
            "rtree.decode_ns",
            m.get("rtree.read_node_hit_ns") - m.get("storage.pool_hit_ns"),
        );
    });

    // Misses: a cyclic scan over many more pages than frames defeats LRU,
    // so every read goes to the page file and evicts.
    pool.set_capacity((n / 4).clamp(1, COLD_POOL_PAGES));
    tracer.scope("probe.storage", None, None, |_| {
        m.set(
            "storage.pool_miss_ns",
            ns_per_call(budget, 512, |i| {
                black_box(pool.read_page(ids[i % n]).expect("miss"));
            }),
        );
    });
    tracer.scope("probe.rtree", None, None, |_| {
        m.set(
            "rtree.read_node_miss_ns",
            ns_per_call(budget, 512, |i| {
                black_box(fx.p.read_node(ids[i % n]).expect("miss"));
            }),
        );
    });
    pool.set_capacity(fx.pool_pages);

    // The page file itself, and the pool's write path, on a scratch file
    // of the workload's kind holding the harvested pages.
    tracer.scope("probe.storage", None, None, |_| {
        let mut file = scratch_file(fx, "probe.pages");
        for _ in 0..n {
            file.allocate().expect("allocate scratch page");
        }
        let scratch = BufferPool::with_lru(file, COLD_POOL_PAGES);
        m.set(
            "storage.write_page_ns",
            ns_per_call(budget, 512, |i| {
                scratch
                    .write_page(PageId((i % n) as u32), &pages[i % n])
                    .expect("write page");
            }),
        );
        scratch.sync().expect("sync scratch file");
        drop(scratch);
        // Mem: a fresh file filled directly, as the pool owned the other.
        let file: Box<dyn PageFile> = if fx.disk {
            Box::new(DiskPageFile::open(fx.dir.join("probe.pages")).expect("reopen scratch file"))
        } else {
            let mut f = MemPageFile::new(DEFAULT_PAGE_SIZE);
            for page in &pages {
                let id = f.allocate().expect("allocate");
                f.write(id, page).expect("write");
            }
            Box::new(f)
        };
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        m.set(
            "storage.file_read_ns",
            ns_per_call(budget, 512, |i| {
                file.read(PageId((i % n) as u32), &mut buf)
                    .expect("file read");
                black_box(&buf);
            }),
        );
    });

    tracer.scope("probe.rtree", None, None, |_| {
        let objects = indexed(fx.pts_p);
        let t = Instant::now();
        let mut tree = RTree::bulk_load(
            BufferPool::with_lru(scratch_file(fx, "probe_tree.pages"), BUILD_POOL_PAGES),
            RTreeParams::paper(),
            &objects,
            0.7,
        )
        .expect("bulk load");
        m.set("rtree.bulk_load_s", t.elapsed().as_secs_f64());
        // Fresh points beside existing ones, so inserts land in full leaves
        // as they do in a live tree.
        let fresh: Vec<Point2> = fx
            .pts_p
            .iter()
            .take(2_000)
            .map(|p| Point2::new([p.coord(0) * 0.999 + 0.25, p.coord(1) * 0.999 + 0.25]))
            .collect();
        let base = objects.len() as u64;
        let t = Instant::now();
        for (i, &p) in fresh.iter().enumerate() {
            tree.insert(p, base + i as u64).expect("insert");
        }
        m.set(
            "rtree.insert_us",
            t.elapsed().as_secs_f64() * 1e6 / fresh.len() as f64,
        );
        let t = Instant::now();
        for (i, &p) in fresh.iter().enumerate() {
            assert!(
                tree.delete(p, base + i as u64).expect("delete"),
                "inserted point is found"
            );
        }
        m.set(
            "rtree.delete_us",
            t.elapsed().as_secs_f64() * 1e6 / fresh.len() as f64,
        );
    });

    tracer.scope("probe.core", None, None, |_| {
        let pts = &fx.pts_p[..fx.pts_p.len().min(1_024)];
        let stream: Vec<PairResult<2>> = (0..65_536usize)
            .map(|i| {
                let (a, b) = (i % pts.len(), (i * 31 + 7) % pts.len());
                PairResult::new(
                    LeafEntry::new(pts[a], a as u64),
                    LeafEntry::new(pts[b], (i / pts.len()) as u64),
                )
            })
            .collect();
        // One batch = one fresh K-heap fed the whole stream: it fills, then
        // rejects most offers against its threshold, as in a query.
        let mut heap = KHeap::<2>::new(10_000);
        m.set(
            "core.kheap_offer_ns",
            ns_per_call(budget, stream.len(), |i| {
                if i % stream.len() == 0 {
                    heap = KHeap::new(10_000);
                }
                black_box(heap.offer(stream[i % stream.len()]));
            }),
        );
    });

    tracer.scope("probe.shard", None, None, |_| {
        let sub = ShardSubquery::<2> {
            query_id: 7,
            shard_p: 1,
            shard_q: 2,
            k: 100,
            algorithm: algorithm_code(Algorithm::Heap),
            self_join: false,
            orient_by_oid: false,
            minmin_bits: 0,
            window_p: None,
            window_q: None,
            colored: false,
        };
        let partial = PartialResult {
            query_id: 7,
            shard_p: 1,
            shard_q: 2,
            completed: true,
            pairs: (0..100)
                .map(|i| WirePair {
                    p_oid: i,
                    q_oid: i + 1,
                    dist2_bits: (i as f64).to_bits(),
                })
                .collect(),
        };
        m.set(
            "shard.codec_roundtrip_us",
            ns_per_call(budget, 256, |_| {
                black_box(ShardSubquery::<2>::decode(&sub.encode()).expect("subquery decodes"));
                black_box(PartialResult::decode(&partial.encode()).expect("partial decodes"));
            }) / 1e3,
        );
    });

    tracer.scope("probe.service", None, None, |_| {
        let (stats_p, stats_q) = (
            fx.p.level_stats().expect("level stats"),
            fx.q.level_stats().expect("level stats"),
        );
        let workspace = fx.p.root_mbr().expect("root mbr");
        let inputs = PlannerInputs {
            n_p: fx.p.len(),
            n_q: fx.q.len(),
            workspace_p: workspace,
            workspace_q: fx.q.root_mbr().expect("root mbr"),
            stats_p: Some(&stats_p),
            stats_q: Some(&stats_q),
            max_parallelism: 1,
            shards: 0,
        };
        let ws = workspace.expect("non-empty tree");
        let window = Rect2::new(ws.lo(), ws.center());
        let constraints = [Constraint::none(), Constraint::window(window)];
        m.set(
            "service.plan_ns",
            ns_per_call(budget, 256, |i| {
                black_box(plan(
                    &inputs,
                    [1, 10, 100][i % 3],
                    QueryKind::Cross,
                    &constraints[i % 2],
                ));
            }),
        );
        let queue = AdmissionQueue::<u64>::new(64);
        m.set(
            "service.queue_push_pop_ns",
            ns_per_call(budget, 4_096, |i| {
                queue.try_push(i as u64).expect("queue has room");
                black_box(queue.pop());
            }),
        );
    });
}

fn cycle_budget(opts: &Opts) -> Duration {
    opts.budget(0.1)
}

/// `core.scan_ms_per_op_sweep`: the cycle again with the plane-sweep leaf
/// scan, through the instrumented entry point (audit input).
pub fn sweep_scan(trees: &Trees, cfg: &CpqConfig, opts: &Opts, tracer: &Tracer, m: &mut Metrics) {
    let cfg = CpqConfig {
        leaf_scan: LeafScan::PlaneSweep,
        ..*cfg
    };
    let mut scan_ms = Vec::new();
    tracer.scope("probe.core.sweep", None, None, |_| {
        let started = Instant::now();
        while scan_ms.is_empty() || started.elapsed() < cycle_budget(opts) {
            for class in CLASSES {
                let mut probe = ProfileProbe::new();
                k_closest_pairs_instrumented(
                    &trees.p,
                    &trees.q,
                    class.1,
                    class.0,
                    &cfg,
                    &CancelToken::new(),
                    &mut probe,
                )
                .expect("plane-sweep query");
                scan_ms.push(probe.profile.scan_ns as f64 / 1e6);
            }
        }
    });
    m.set("core.scan_ms_per_op_sweep", stats::mean(&scan_ms));
}

/// Runs the cold cycle over `(p, q)` with `cfg` until the budget is used,
/// checking every answer; returns the op times in ms, sorted.
fn cold_cycle(
    p: &RTree<2>,
    q: &RTree<2>,
    cfg: &CpqConfig,
    opts: &Opts,
    gate: &mut Gate,
) -> Vec<f64> {
    let mut op_ms = Vec::new();
    let started = Instant::now();
    while op_ms.is_empty() || started.elapsed() < cycle_budget(opts) {
        for class in CLASSES {
            p.pool().clear();
            q.pool().clear();
            let t = Instant::now();
            let out = k_closest_pairs(p, q, class.1, class.0, cfg).expect("query");
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            gate.check(&class_name(class), &keys(&out.pairs));
        }
    }
    stats::sort(&mut op_ms);
    op_ms
}

/// `core.parallel2_op_ms_p50`: the cold cycle at `parallelism = 2` on the
/// plain pools (audit input).
pub fn parallel2(
    trees: &Trees,
    cfg: &CpqConfig,
    opts: &Opts,
    tracer: &Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let cfg = cfg.with_parallelism(2);
    let op_ms = tracer.scope("probe.core.parallel2", None, None, |_| {
        cold_cycle(&trees.p, &trees.q, &cfg, opts, gate)
    });
    m.set("core.parallel2_op_ms_p50", stats::percentile(&op_ms, 50.0));
}

/// `storage.sched_*`: the cold cycle through `with_lru_scheduled` pools on
/// the same files. The scheduler's prefetch is fed by the parallel
/// executor only, so the cycle runs at `parallelism = 2`: compare with
/// `core.parallel2_op_ms_p50`, the same executor on the plain pools.
pub fn scheduled(
    trees: &Trees,
    cfg: &CpqConfig,
    opts: &Opts,
    dir: &Path,
    tracer: &Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let open = |name: &str, tree: &RTree<2>| {
        let file = DiskPageFile::open(dir.join(name)).expect("reopen page file");
        let pool =
            BufferPool::with_lru_scheduled(Box::new(file), COLD_POOL_PAGES, SchedConfig::default());
        RTree::<2>::from_descriptor(pool, RTreeParams::paper(), tree.descriptor())
            .expect("reattach tree")
    };
    let (p, q) = (open("p.pages", &trees.p), open("q.pages", &trees.q));
    let cfg = cfg.with_parallelism(2);
    let op_ms = tracer.scope("probe.storage.scheduled", None, None, |_| {
        cold_cycle(&p, &q, &cfg, opts, gate)
    });
    let (a, b) = (
        p.pool().sched_stats().expect("scheduled pool"),
        q.pool().sched_stats().expect("scheduled pool"),
    );
    let issued = (a.prefetch_issued + b.prefetch_issued) as f64;
    let batches = (a.physical_batches + b.physical_batches) as f64;
    m.set("storage.sched_op_ms_p50", stats::percentile(&op_ms, 50.0));
    m.set(
        "storage.sched_prefetch_hit_rate",
        if issued > 0.0 {
            (a.prefetch_hits + b.prefetch_hits) as f64 / issued
        } else {
            0.0
        },
    );
    m.set(
        "storage.sched_prefetch_waste_per_op",
        (a.prefetch_waste + b.prefetch_waste) as f64 / op_ms.len() as f64,
    );
    m.set(
        "storage.sched_coalesce_ratio",
        if batches > 0.0 {
            (a.physical_pages + b.physical_pages) as f64 / batches
        } else {
            0.0
        },
    );
}

/// `shard.*`: scatter-gather against the classic engine on the *same*
/// buffered disk storage and the same total page budget (S = 4 shards per
/// side, 2 workers, wire codec armed), HEAP classes only.
pub fn scatter(
    trees: &Trees,
    cfg: &CpqConfig,
    opts: &Opts,
    dir: &Path,
    tracer: &Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    const SHARDS: usize = 4;
    let build = |side: &str, pts: &[Point2]| {
        let tree = ShardedTree::<2>::build(
            side,
            &indexed(pts),
            SHARDS,
            RTreeParams::paper(),
            None,
            |i| {
                let path = dir.join(format!("shard_{side}_{i}.pages"));
                let file =
                    DiskPageFile::create(path, DEFAULT_PAGE_SIZE).expect("create shard file");
                BufferPool::with_lru(Box::new(file), BUILD_POOL_PAGES)
            },
        )
        .expect("build shards");
        for shard in tree.shards() {
            shard.pool().sync().expect("sync shard file");
            shard.pool().set_capacity(COLD_POOL_PAGES / SHARDS);
        }
        tree
    };
    let (sp, sq) = tracer.scope("probe.shard.build", None, None, |_| {
        (build("p", &trees.pts_p), build("q", &trees.pts_q))
    });
    let shard_cfg = ShardConfig {
        workers: 2,
        wire_codec: true,
        ..ShardConfig::default()
    };
    let (mut classic_ms, mut scatter_ms) = (Vec::new(), Vec::new());
    let (mut generated, mut pruned) = (0u64, 0u64);
    tracer.scope("probe.shard.ops", None, None, |_| {
        let started = Instant::now();
        while classic_ms.is_empty() || started.elapsed() < cycle_budget(opts) {
            for class in CLASSES.iter().filter(|c| c.0 == Algorithm::Heap) {
                let name = class_name(*class);
                trees.before_op();
                let t = Instant::now();
                let out = k_closest_pairs(&trees.p, &trees.q, class.1, class.0, cfg)
                    .expect("classic query");
                classic_ms.push(t.elapsed().as_secs_f64() * 1e3);
                gate.check(&name, &keys(&out.pairs));

                for shard in sp.shards().iter().chain(sq.shards()) {
                    shard.pool().clear();
                }
                let t = Instant::now();
                let run =
                    k_closest_pairs_sharded(&sp, &sq, class.1, class.0, cfg, &shard_cfg, None)
                        .expect("scatter query");
                scatter_ms.push(t.elapsed().as_secs_f64() * 1e3);
                gate.check(&name, &keys(&run.outcome.pairs));
                generated += run.report.pairs_generated;
                pruned += run.report.pairs_pruned;
            }
        }
    });
    m.set("shard.classic_op_ms_p50", stats::median(&classic_ms));
    m.set("shard.scatter_op_ms_p50", stats::median(&scatter_ms));
    m.set(
        "shard.pairs_pruned_frac",
        pruned as f64 / generated.max(1) as f64,
    );
}
