//! What an insertion-built R*-tree costs, tree by tree, and which pages it
//! ends up with: the benchmark's setup builds (EXPERIMENTS.md "PR 25").
//!
//! ```sh
//! cargo run --release --example rtree_build [seed]
//! ```
//!
//! Builds, one insert at a time with the paper's parameters, the four trees
//! `benchmark/run.sh --seed N` builds: `kcpq_hot`/`kcpq_cold`'s 62,536
//! clustered and 62,536 uniform points and `svc_mix`'s two 20,000-point
//! uniform sets. Per tree it prints the build time, the time per insert, the
//! bytes its pages store (a page keeps only the prefix its node encodes) and
//! an FNV-1a fingerprint over the descriptor and every whole page, so two
//! checkouts can be compared for speed, for memory and for building the
//! same trees.
//! After the total it prints one fingerprint per side of the `shard.*`
//! probe's sharded trees (S = 4 over the `kcpq` points, insertion builds;
//! not timed): every shard tree's fingerprint, folded in shard-id order.
//! `scripts/sample.sh` profiles this binary in `scripts/ci.sh`.

use cpq::datasets::{clustered, uniform, ClusterSpec, CALIFORNIA_SURROGATE_SIZE};
use cpq::geo::Point2;
use cpq::rtree::{RTree, RTreeParams};
use cpq::shard::ShardedTree;
use cpq::storage::{zero_extend, BufferPool, MemPageFile, PageId, DEFAULT_PAGE_SIZE};
use std::time::Instant;

/// More frames than any tree here has pages: a build never evicts.
const BUILD_FRAMES: usize = 16_384;

/// The benchmark's `data::sub_seed`: the same seed gives the same points as
/// `benchmark/run.sh --seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cpq_rng::splitmix64(&mut state)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the descriptor and pages `0..num_pages` in id order, each
/// zero-extended to the page size (a page the build freed again hashes as
/// its id alone), and the bytes those pages store.
fn fingerprint(tree: &RTree<2>) -> (u64, usize) {
    let (root, height, len) = tree.descriptor();
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &root.0.to_le_bytes());
    h = fnv1a(h, &[height]);
    h = fnv1a(h, &len.to_le_bytes());
    let (mut page, mut stored) = (vec![0; tree.pool().page_size()], 0);
    for i in 0..tree.pool().num_pages() {
        h = fnv1a(h, &i.to_le_bytes());
        if let Ok(bytes) = tree.pool().read_page(PageId(i)) {
            stored += bytes.len();
            zero_extend(&bytes, &mut page);
            h = fnv1a(h, &page);
        }
    }
    (h, stored)
}

fn build(name: &str, points: &[Point2]) -> f64 {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), BUILD_FRAMES);
    let mut tree = RTree::new(pool, RTreeParams::paper()).expect("paper params fit the page");
    let t = Instant::now();
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).expect("insert into a fresh tree");
    }
    let s = t.elapsed().as_secs_f64();
    let (h, stored) = fingerprint(&tree);
    println!(
        "{name:<10} {:>7} {s:>8.3} {:>9.2} {:>6} {:>6} {stored:>9} {h:#018x}",
        points.len(),
        s * 1e6 / points.len() as f64,
        tree.height(),
        tree.pool().num_pages(),
    );
    s
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map_or(1, |s| s.parse().expect("seed: an integer"));
    let n = CALIFORNIA_SURROGATE_SIZE;
    let trees = [
        (
            "kcpq.p",
            clustered(n, ClusterSpec::default(), sub_seed(seed, 1)).points,
        ),
        ("kcpq.q", uniform(n, sub_seed(seed, 2)).points),
        ("svc_mix.p", uniform(20_000, sub_seed(seed, 3)).points),
        ("svc_mix.q", uniform(20_000, sub_seed(seed, 4)).points),
    ];
    println!("seed {seed}; insertion builds with RTreeParams::paper(), one thread");
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>6} {:>6} {:>9} fingerprint",
        "tree", "points", "build_s", "insert_us", "height", "pages", "stored"
    );
    let total: f64 = trees.iter().map(|(name, pts)| build(name, pts)).sum();
    println!("total build_s {total:.3}");
    for (name, pts) in &trees[..2] {
        let objects: Vec<(Point2, u64)> = pts.iter().copied().zip(0..).collect();
        let sharded = ShardedTree::build(name, &objects, 4, RTreeParams::paper(), None, |_| {
            BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), BUILD_FRAMES)
        })
        .expect("shard the kcpq points");
        let h = sharded.shards().iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
            fnv1a(h, &fingerprint(t).0.to_le_bytes())
        });
        println!("shards.{name} {} {h:#018x}", sharded.shards().len());
    }
}
