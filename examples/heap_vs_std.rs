//! HEAP against STD behind an LRU buffer, by the clock and by misses: the
//! measurement the planner's single algorithm rule rests on (EXPERIMENTS.md
//! "PR 22").
//!
//! ```sh
//! cargo run --release --example heap_vs_std [seed]
//! ```
//!
//! One thread calling `execute` / `execute_sharded` directly: the 18 request
//! classes of the benchmark's `svc_mix` (two 20K-point uniform trees, 512
//! pool frames each, warm; then the same requests planned, through a
//! one-worker service), the `kcpq_hot` / `kcpq_cold` classes (62,536
//! clustered against uniform points; resident, or disk files behind 32
//! frames cleared before every query), and the two planner rows no workload
//! reaches: `parallelism = 2` and scatter over S = 4 shards (2 workers) on
//! the cold trees. Page files go to `target/heap_vs_std/`.

use cpq::core::{execute, Algorithm, Constraint, CpqConfig, ExecCtx, QuerySpec};
use cpq::datasets::{clustered, uniform, ClusterSpec, CALIFORNIA_SURROGATE_SIZE};
use cpq::geo::{Point2, Rect2};
use cpq::rtree::{RTree, RTreeParams};
use cpq::service::{CpqService, QueryRequest, ServiceConfig, TreePair};
use cpq::shard::{execute_sharded, ShardConfig, ShardedTree};
use cpq::storage::{BufferPool, DiskPageFile, MemPageFile, PageFile, PageId, DEFAULT_PAGE_SIZE};
use cpq_rng::Rng;
use std::path::Path;
use std::time::Instant;

const ALGORITHMS: [Algorithm; 2] = [Algorithm::Heap, Algorithm::SortedDistances];
/// More frames than any tree here has pages: a build never evicts.
const BUILD_FRAMES: usize = 16_384;
const COLD_FRAMES: usize = 32;
const SHARDS: usize = 4;

/// The benchmark's `data::sub_seed`: the same seed gives the same points and
/// windows as `benchmark/run.sh --seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cpq_rng::splitmix64(&mut state)
}

fn build_mem(objects: &[(Point2, u64)]) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), BUILD_FRAMES);
    let mut tree = RTree::new(pool, RTreeParams::paper()).expect("paper params fit the page");
    for &(p, oid) in objects {
        tree.insert(p, oid).expect("insert");
    }
    tree
}

/// `built`, copied page for page to a disk file behind `COLD_FRAMES`.
fn to_disk(built: &RTree<2>, path: &Path) -> RTree<2> {
    let mut file = DiskPageFile::create(path, DEFAULT_PAGE_SIZE).expect("create page file");
    for i in 0..built.pool().num_pages() {
        let id = file.allocate().expect("allocate");
        match built.pool().read_page(PageId(i)) {
            Ok(bytes) => file.write(id, &bytes).expect("write"),
            Err(_) => file.free(id).expect("free"),
        }
    }
    file.sync().expect("sync");
    drop(file);
    let file = DiskPageFile::open(path).expect("reopen");
    let pool = BufferPool::with_lru(Box::new(file), COLD_FRAMES);
    RTree::from_descriptor(pool, RTreeParams::paper(), built.descriptor()).expect("reattach")
}

fn misses(trees: &[&RTree<2>]) -> u64 {
    trees.iter().map(|t| t.pool().buffer_stats().misses).sum()
}

/// Mean milliseconds and mean pool misses of `queries` calls of `run`.
fn measure(queries: usize, pools: &[&RTree<2>], mut run: impl FnMut(usize)) -> (f64, f64) {
    let before = misses(pools);
    let t = Instant::now();
    (0..queries).for_each(&mut run);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (
        ms / queries as f64,
        (misses(pools) - before) as f64 / queries as f64,
    )
}

fn row(name: &str, cells: [(f64, f64); 2]) {
    let [(heap_ms, heap_miss), (std_ms, std_miss)] = cells;
    println!(
        "{name:<28} {heap_ms:>9.2} {std_ms:>9.2} {:>6.2} {heap_miss:>10.0} {std_miss:>10.0}",
        heap_ms / std_ms
    );
}

fn header(title: &str) {
    println!("\n{title}");
    println!(
        "{:<28} {:>9} {:>9} {:>6} {:>10} {:>10}",
        "class", "HEAP ms", "STD ms", "H/S", "HEAP miss", "STD miss"
    );
}

/// The `svc_mix` classes: {cross, self} x K x window share, ten window
/// positions each, warm 512-frame pools; then the same 180 requests as
/// planned ones through a one-worker service, which is what a request costs
/// with the planner's routing (run this example on the parent commit for
/// the routing it replaced).
fn svc_mix_classes(seed: u64, cfg: &CpqConfig) {
    let p = build_mem(&uniform(20_000, sub_seed(seed, 3)).indexed());
    let q = build_mem(&uniform(20_000, sub_seed(seed, 4)).indexed());
    p.pool().set_capacity(512);
    q.pool().set_capacity(512);
    let ws = p.root_mbr().expect("root").expect("non-empty");
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 5));
    let shares = [Some(0.01), Some(0.10), None];
    let windows: Vec<[Constraint<2>; 3]> = (0..10)
        .map(|_| {
            shares.map(|share| match share {
                None => Constraint::none(),
                Some(share) => {
                    let side = f64::sqrt(share);
                    let (w, h) = (ws.extent(0) * side, ws.extent(1) * side);
                    let x = ws.lo().coord(0) + rng.next_f64() * (ws.extent(0) - w);
                    let y = ws.lo().coord(1) + rng.next_f64() * (ws.extent(1) - h);
                    Constraint::window(Rect2::from_corners([x, y], [x + w, y + h]))
                }
            })
        })
        .collect();
    header("svc_mix classes (20K x 20K uniform, 512 frames per tree, warm)");
    let mut planned = Vec::new();
    for self_join in [false, true] {
        for k in [1, 10, 100] {
            for (s, share) in shares.iter().enumerate() {
                let tq = if self_join { &p } else { &q };
                let cells = ALGORITHMS.map(|alg| {
                    let mut run = |i: usize| {
                        let spec = if self_join {
                            QuerySpec::self_join(k)
                        } else {
                            QuerySpec::cross(k)
                        }
                        .with_constraint(windows[i % windows.len()][s]);
                        execute(&p, tq, &spec, alg, cfg, ExecCtx::default()).expect("query");
                    };
                    (0..windows.len()).for_each(&mut run); // warm
                    measure(3 * windows.len(), &[&p, tq], run)
                });
                let kind = if self_join { "self" } else { "cross" };
                let window = share.map_or("all".into(), |s| format!("{:.0}%", s * 100.0));
                row(&format!("{kind}/K={k}/{window}"), cells);
                planned.extend(windows.iter().map(|w| {
                    if self_join {
                        QueryRequest::planned_self(k)
                    } else {
                        QueryRequest::planned_cross(k)
                    }
                    .with_constraint(w[s])
                }));
            }
        }
    }

    let service = CpqService::start(
        TreePair::new(p, q),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let mut routed = std::collections::BTreeMap::new();
    let mut exec_ms = 0.0;
    for pass in 0..4 {
        for &request in &planned {
            let reply = service.execute(request).expect("an idle service admits");
            if pass > 0 {
                exec_ms += reply.exec.as_secs_f64() * 1e3;
                *routed.entry(reply.request.algorithm.label()).or_insert(0) += 1;
            }
        }
    }
    println!(
        "\nthe same {} requests planned, one worker, one caller: mean exec {:.2} ms, routed {routed:?}",
        planned.len(),
        exec_ms / (3 * planned.len()) as f64
    );
    service.shutdown();
}

/// The `kcpq_hot` / `kcpq_cold` classes, then the cold trees through the
/// parallel executor and through scatter-gather.
fn kcpq_classes(seed: u64, cfg: &CpqConfig, dir: &Path) {
    let n = CALIFORNIA_SURROGATE_SIZE;
    let pts_p = clustered(n, ClusterSpec::default(), sub_seed(seed, 1)).indexed();
    let pts_q = uniform(n, sub_seed(seed, 2)).indexed();
    let (hot_p, hot_q) = (build_mem(&pts_p), build_mem(&pts_q));
    let cold_p = to_disk(&hot_p, &dir.join("p.pages"));
    let cold_q = to_disk(&hot_q, &dir.join("q.pages"));
    let ks = [1, 10, 100, 10_000];
    let table = |title: &str, p: &RTree<2>, q: &RTree<2>, cold: bool, cfg: &CpqConfig| {
        header(title);
        for k in ks {
            let cells = ALGORITHMS.map(|alg| {
                let run = |_| {
                    if cold {
                        p.pool().clear();
                        q.pool().clear();
                    }
                    execute(p, q, &QuerySpec::cross(k), alg, cfg, ExecCtx::default())
                        .expect("query");
                };
                run(0); // warm
                measure(10, &[p, q], run)
            });
            row(&format!("K={k}"), cells);
        }
    };
    table("kcpq_hot classes (resident)", &hot_p, &hot_q, false, cfg);
    table(
        "kcpq_cold classes (disk, 32 frames per tree, cleared per query)",
        &cold_p,
        &cold_q,
        true,
        cfg,
    );
    table(
        "kcpq_cold trees at parallelism = 2 (the planner's parallel rows)",
        &cold_p,
        &cold_q,
        true,
        &cfg.with_parallelism(2),
    );

    let shard = |side: &str, pts: &[(Point2, u64)]| {
        let tree = ShardedTree::<2>::build(side, pts, SHARDS, RTreeParams::paper(), None, |i| {
            let path = dir.join(format!("shard_{side}_{i}.pages"));
            let file = DiskPageFile::create(path, DEFAULT_PAGE_SIZE).expect("shard file");
            BufferPool::with_lru(Box::new(file), BUILD_FRAMES)
        })
        .expect("build shards");
        for s in tree.shards() {
            s.pool().sync().expect("sync");
            s.pool().set_capacity(COLD_FRAMES / SHARDS);
        }
        tree
    };
    let (sp, sq) = (shard("p", &pts_p), shard("q", &pts_q));
    let shard_cfg = ShardConfig {
        workers: 2,
        ..ShardConfig::default()
    };
    let pools: Vec<&RTree<2>> = sp.shards().iter().chain(sq.shards()).collect();
    header("scatter-gather, S = 4 shards per side, 8 frames per shard, 2 workers");
    for k in ks {
        let cells = ALGORITHMS.map(|alg| {
            let run = |_| {
                pools.iter().for_each(|t| t.pool().clear());
                execute_sharded(&sp, &sq, &QuerySpec::cross(k), alg, cfg, &shard_cfg, None)
                    .expect("scatter query");
            };
            run(0); // warm
            measure(10, &pools, run)
        });
        row(&format!("K={k}"), cells);
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(11, |s| s.parse().expect("seed: an integer"));
    let cfg = CpqConfig::paper();
    let dir = Path::new("target/heap_vs_std");
    std::fs::create_dir_all(dir).expect("scratch directory");
    println!("seed {seed}; times are means over the queries of a class, one thread");
    svc_mix_classes(seed, &cfg);
    kcpq_classes(seed, &cfg, dir);
    let _ = std::fs::remove_dir_all(dir);
}
