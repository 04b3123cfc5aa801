//! Tree shape, pinned page for page: an FNV-1a hash over the descriptor and
//! every reachable page (id and bytes, depth-first in entry order) of
//! seeded insertion builds with interleaved deletes, for R*/quadratic/linear
//! × `M ∈ {4, 21}` × four point distributions.
//!
//! Any change to `ChooseSubtree`, forced reinsertion, the splits,
//! condensation, page allocation or the node codec moves a hash here;
//! `work_counts_golden.rs` only sees the shape through query counts. The
//! values were generated before the pruned R* `ChooseSubtree` (PR 25)
//! touched `tree.rs`; on a failure the measured table is printed — paste it
//! over `GOLDEN` only for an intended change of tree shape.

use cpq_geo::Point;
use cpq_rng::Rng;
use cpq_rtree::{NodeEntries, RTree, RTreeParams, SplitPolicy};
use cpq_storage::{BufferPool, MemPageFile, PageId};

const POINTS: usize = 2_000;

/// `(policy/M/distribution, fingerprint, reachable pages)`.
const GOLDEN: &[(&str, u64, usize)] = &[
    ("rstar/M4/uniform", 0x8435c2cb64a37e2b, 928),
    ("rstar/M4/clustered", 0xf0e5fa12db5af2e6, 949),
    ("rstar/M4/grid", 0x5730e2b85a512cde, 804),
    ("rstar/M4/collinear", 0xad4f6157255343e9, 736),
    ("rstar/M21/uniform", 0xf294eb5780a68cee, 123),
    ("rstar/M21/clustered", 0xfaa9a04fee7e2d9c, 125),
    ("rstar/M21/grid", 0x840f73627d9c6fe3, 120),
    ("rstar/M21/collinear", 0xfc87b62d2c9f4e20, 139),
    ("quadratic/M4/uniform", 0xf3b29f3870b6bb5e, 913),
    ("quadratic/M4/clustered", 0xafd1183078b65154, 987),
    ("quadratic/M4/grid", 0x1d2c9c25de4ffac6, 1568),
    ("quadratic/M4/collinear", 0x45eddfc7aae9e3da, 1905),
    ("quadratic/M21/uniform", 0xa3f416f676281829, 121),
    ("quadratic/M21/clustered", 0x3360424e50096b77, 123),
    ("quadratic/M21/grid", 0x2e86af7f6ec17313, 154),
    ("quadratic/M21/collinear", 0x2f3ce9a9f5e8b7ba, 182),
    ("linear/M4/uniform", 0xbef624b575780d57, 891),
    ("linear/M4/clustered", 0x27cf9b686aae0d41, 975),
    ("linear/M4/grid", 0x45da1efda89b126a, 2416),
    ("linear/M4/collinear", 0xfdfd5b41a0bcb13b, 2508),
    ("linear/M21/uniform", 0xaa01e9ccf0b3ff89, 115),
    ("linear/M21/clustered", 0x189de5785417f099, 122),
    ("linear/M21/grid", 0xace67bd2f3d53d4e, 157),
    ("linear/M21/collinear", 0xe88b0578407e6604, 167),
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn points(kind: &str, seed: u64) -> Vec<Point<2>> {
    let mut r = Rng::seed_from_u64(seed);
    let centers: Vec<[f64; 2]> = (0..8)
        .map(|_| [r.random_range(100.0..900.0), r.random_range(100.0..900.0)])
        .collect();
    (0..POINTS)
        .map(|_| match kind {
            "uniform" => Point([r.random_range(0.0..1000.0), r.random_range(0.0..1000.0)]),
            "clustered" => {
                let c = centers[r.random_range(0usize..centers.len())];
                Point([
                    c[0] + r.random_range(-20.0..20.0) * r.next_f64(),
                    c[1] + r.random_range(-20.0..20.0) * r.next_f64(),
                ])
            }
            // 16×16 grid: every point has ~8 exact duplicates.
            "grid" => Point([
                r.random_range(0u32..16) as f64 * 62.5,
                r.random_range(0u32..16) as f64 * 62.5,
            ]),
            // One horizontal line: every MBR has zero area.
            "collinear" => Point([r.random_range(0.0..1000.0), 500.0]),
            _ => unreachable!("unknown distribution {kind}"),
        })
        .collect()
}

/// Inserts every point, deleting a random live one after about every
/// fifth insert, and returns the tree's fingerprint and page count.
fn build(policy: SplitPolicy, m: usize, kind: &str, seed: u64) -> (u64, usize) {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 64);
    let params = RTreeParams {
        split_policy: policy,
        ..RTreeParams::with_max_entries(m)
    };
    let mut tree: RTree<2> = RTree::new(pool, params).unwrap();
    let mut r = Rng::seed_from_u64(seed ^ 0x5eed);
    let mut live: Vec<(Point<2>, u64)> = Vec::new();
    for (oid, p) in points(kind, seed).into_iter().enumerate() {
        tree.insert(p, oid as u64).unwrap();
        live.push((p, oid as u64));
        if r.random_bool(0.2) {
            let (q, qid) = live.swap_remove(r.random_range(0usize..live.len()));
            assert!(tree.delete(q, qid).unwrap(), "{kind}: lost {qid}");
        }
    }
    tree.assert_valid();
    fingerprint(&tree)
}

fn fingerprint(tree: &RTree<2>) -> (u64, usize) {
    let (root, height, len) = tree.descriptor();
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, &root.0.to_le_bytes());
    h = fnv1a(h, &[height]);
    h = fnv1a(h, &len.to_le_bytes());
    let mut pages = 0;
    let mut stack: Vec<PageId> = vec![root];
    while let Some(id) = stack.pop() {
        let bytes = tree.pool().read_page(id).unwrap();
        h = fnv1a(h, &id.0.to_le_bytes());
        h = fnv1a(h, &bytes);
        pages += 1;
        if let NodeEntries::Inner(entries) = tree.read_node(id).unwrap().entries() {
            stack.extend(entries.iter().rev().map(|e| e.child));
        }
    }
    (h, pages)
}

#[test]
fn insertion_built_trees_keep_their_pages() {
    let mut measured: Vec<(String, u64, usize)> = Vec::new();
    for (pi, policy) in SplitPolicy::ALL.into_iter().enumerate() {
        for m in [4, 21] {
            for (ki, kind) in ["uniform", "clustered", "grid", "collinear"]
                .into_iter()
                .enumerate()
            {
                let seed = 100 * pi as u64 + 10 * ki as u64 + m as u64;
                let (hash, pages) = build(policy, m, kind, seed);
                measured.push((format!("{}/M{m}/{kind}", policy.label()), hash, pages));
            }
        }
    }
    let same = measured.len() == GOLDEN.len()
        && measured
            .iter()
            .zip(GOLDEN)
            .all(|((l, h, p), (gl, gh, gp))| l == gl && h == gh && p == gp);
    if !same {
        let table: String = measured
            .iter()
            .map(|(l, h, p)| format!("    (\"{l}\", {h:#018x}, {p}),\n"))
            .collect();
        panic!("tree shapes differ from GOLDEN; measured:\n{table}");
    }
}
