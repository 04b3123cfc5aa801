//! Shard shape, pinned page for page: an FNV-1a hash over every shard
//! tree's descriptor, reachable pages (id and bytes, depth-first in entry
//! order) and root MBR, in shard-id order, for seeded sharded builds of four
//! point distributions × `S ∈ {1, 2, 3, 4, 5, 7, 16}` × {insertion, bulk
//! load at fill 0.7}.
//!
//! Any change to how objects are cut into shards (which object lands in
//! which shard, in what order each shard tree receives them, how shards are
//! numbered) or to how a shard tree is built moves a hash here. On a failure
//! the measured table is printed — paste it over `GOLDEN` only for an
//! intended change of shard shape.

use cpq_geo::{Point, Point2};
use cpq_rng::Rng;
use cpq_rtree::{NodeEntries, RTree, RTreeParams};
use cpq_shard::ShardedTree;
use cpq_storage::{zero_extend, BufferPool, MemPageFile, PageId};

const POINTS: usize = 1_500;

/// `(distribution/S/build, fingerprint, shards produced)`.
const GOLDEN: &[(&str, u64, usize)] = &[
    ("uniform/S1/insert", 0x56b9d317cd57828f, 1),
    ("uniform/S1/bulk0.7", 0x6e6b36b337224f5e, 1),
    ("uniform/S2/insert", 0x868430179c1e27c6, 2),
    ("uniform/S2/bulk0.7", 0x88f9d0380b23e3e8, 2),
    ("uniform/S3/insert", 0xb105e10bb0cf8094, 3),
    ("uniform/S3/bulk0.7", 0x88345a1fc68832d2, 3),
    ("uniform/S4/insert", 0x36cc13feb8c7d3c3, 4),
    ("uniform/S4/bulk0.7", 0xdd4c3fce8e4548e2, 4),
    ("uniform/S5/insert", 0xbbc7a083d88684e6, 5),
    ("uniform/S5/bulk0.7", 0x54856a521df90fe2, 5),
    ("uniform/S7/insert", 0x36616baf89c68b44, 7),
    ("uniform/S7/bulk0.7", 0xd4e5fd117f448e82, 7),
    ("uniform/S16/insert", 0x899bdf02c2f4d157, 16),
    ("uniform/S16/bulk0.7", 0x26de0f23a6b8b7fd, 16),
    ("clustered/S1/insert", 0x14e231491f9a8dc0, 1),
    ("clustered/S1/bulk0.7", 0x281eec8f458a4d73, 1),
    ("clustered/S2/insert", 0x651e26d3b5236bb5, 2),
    ("clustered/S2/bulk0.7", 0xd894f97c9ec9c0ac, 2),
    ("clustered/S3/insert", 0x629135e59c36d022, 3),
    ("clustered/S3/bulk0.7", 0x9c3cb6a34b469e90, 3),
    ("clustered/S4/insert", 0xc52833dbd00079bb, 4),
    ("clustered/S4/bulk0.7", 0xa162861919bfd5c9, 4),
    ("clustered/S5/insert", 0xc575eba6dec301e2, 5),
    ("clustered/S5/bulk0.7", 0x16c93e0c1f7536b0, 5),
    ("clustered/S7/insert", 0x9214c3f49fb7c03e, 7),
    ("clustered/S7/bulk0.7", 0x687796e4b5d76ee4, 7),
    ("clustered/S16/insert", 0x8bb8061603bd333e, 16),
    ("clustered/S16/bulk0.7", 0xfac6b4a59ca2785d, 16),
    ("duplicates/S1/insert", 0xb77927a6ac371be4, 1),
    ("duplicates/S1/bulk0.7", 0x2f31e65dbeec3ed8, 1),
    ("duplicates/S2/insert", 0x3ef05056c9c93538, 2),
    ("duplicates/S2/bulk0.7", 0x12321b597bb2bae7, 2),
    ("duplicates/S3/insert", 0x5b02e9320124057e, 3),
    ("duplicates/S3/bulk0.7", 0xb3e5fa1164abb8e6, 3),
    ("duplicates/S4/insert", 0x1d801a455d0775bd, 3),
    ("duplicates/S4/bulk0.7", 0xae8e0bdd99e76f4f, 3),
    ("duplicates/S5/insert", 0x35b25ccccac7aee8, 4),
    ("duplicates/S5/bulk0.7", 0x99f144788c4ddcab, 4),
    ("duplicates/S7/insert", 0xf3e1e47a6824f111, 6),
    ("duplicates/S7/bulk0.7", 0x280210d725253ca5, 6),
    ("duplicates/S16/insert", 0xc0d87fd97f165752, 8),
    ("duplicates/S16/bulk0.7", 0xf0ecce756a8aa0bc, 8),
    ("collinear/S1/insert", 0xce8705abc8200909, 1),
    ("collinear/S1/bulk0.7", 0x19cb257d7b58fba9, 1),
    ("collinear/S2/insert", 0x60c9a289a22d03d0, 2),
    ("collinear/S2/bulk0.7", 0xf0270b537e9960d7, 2),
    ("collinear/S3/insert", 0x76490adc5b61f78e, 3),
    ("collinear/S3/bulk0.7", 0x2530da1a8f4d8735, 3),
    ("collinear/S4/insert", 0x72b7122fc7ced295, 4),
    ("collinear/S4/bulk0.7", 0x838fe5221b016a3c, 4),
    ("collinear/S5/insert", 0x09e180cd2ee9cfed, 5),
    ("collinear/S5/bulk0.7", 0xb96e23806f6d4ff8, 5),
    ("collinear/S7/insert", 0xd10b048b0c29bc9d, 7),
    ("collinear/S7/bulk0.7", 0xfe72c3761cb02035, 7),
    ("collinear/S16/insert", 0x931ef9d03e746135, 16),
    ("collinear/S16/bulk0.7", 0xb20fcbafbf1f8b00, 16),
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn objects(kind: &str, seed: u64) -> Vec<(Point2, u64)> {
    let mut r = Rng::seed_from_u64(seed);
    let centers: Vec<[f64; 2]> = (0..8)
        .map(|_| [r.random_range(100.0..900.0), r.random_range(100.0..900.0)])
        .collect();
    let sites: Vec<[f64; 2]> = (0..10)
        .map(|_| {
            [
                r.random_range(0u32..10) as f64 * 100.0,
                r.random_range(0u32..10) as f64 * 100.0,
            ]
        })
        .collect();
    (0..POINTS as u64)
        .map(|oid| {
            let p = match kind {
                "uniform" => Point([r.random_range(0.0..1000.0), r.random_range(0.0..1000.0)]),
                "clustered" => {
                    let c = centers[r.random_range(0usize..centers.len())];
                    Point([
                        c[0] + r.random_range(-20.0..20.0) * r.next_f64(),
                        c[1] + r.random_range(-20.0..20.0) * r.next_f64(),
                    ])
                }
                // Ten sites: every point has ~150 exact duplicates, so cuts
                // can only fall between sites.
                "duplicates" => Point(sites[r.random_range(0usize..sites.len())]),
                // One vertical line: dimension 0 offers no cut at all.
                "collinear" => Point([500.0, r.random_range(0.0..1000.0)]),
                _ => unreachable!("unknown distribution {kind}"),
            };
            (p, oid)
        })
        .collect()
}

fn fingerprint_tree(mut h: u64, tree: &RTree<2>) -> u64 {
    let (root, height, len) = tree.descriptor();
    h = fnv1a(h, &root.0.to_le_bytes());
    h = fnv1a(h, &[height]);
    h = fnv1a(h, &len.to_le_bytes());
    let mut page = vec![0; tree.pool().page_size()];
    let mut stack: Vec<PageId> = vec![root];
    while let Some(id) = stack.pop() {
        // The whole page: the stored prefix, zero-extended.
        zero_extend(&tree.pool().read_page(id).unwrap(), &mut page);
        h = fnv1a(h, &id.0.to_le_bytes());
        h = fnv1a(h, &page);
        if let NodeEntries::Inner(entries) = tree.read_node(id).unwrap().entries() {
            stack.extend(entries.iter().rev().map(|e| e.child));
        }
    }
    let mbr = tree.root_mbr().unwrap().expect("every shard is non-empty");
    for c in mbr.lo().coords().iter().chain(mbr.hi().coords()) {
        h = fnv1a(h, &c.to_bits().to_le_bytes());
    }
    h
}

fn build(kind: &str, shards: usize, fill: Option<f64>, seed: u64) -> (u64, usize) {
    let sharded = ShardedTree::build(
        kind,
        &objects(kind, seed),
        shards,
        RTreeParams::paper(),
        fill,
        |_| BufferPool::with_lru(Box::new(MemPageFile::new(1024)), 0),
    )
    .unwrap();
    let h = sharded
        .shards()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, fingerprint_tree);
    (h, sharded.shards().len())
}

#[test]
fn sharded_builds_keep_their_shards() {
    let mut measured: Vec<(String, u64, usize)> = Vec::new();
    for (ki, kind) in ["uniform", "clustered", "duplicates", "collinear"]
        .into_iter()
        .enumerate()
    {
        for s in [1, 2, 3, 4, 5, 7, 16] {
            for (label, fill) in [("insert", None), ("bulk0.7", Some(0.7))] {
                let (hash, produced) = build(kind, s, fill, 10 * ki as u64 + s as u64);
                measured.push((format!("{kind}/S{s}/{label}"), hash, produced));
            }
        }
    }
    let same = measured.len() == GOLDEN.len()
        && measured
            .iter()
            .zip(GOLDEN)
            .all(|((l, h, n), (gl, gh, gn))| l == gl && h == gh && n == gn);
    if !same {
        let table: String = measured
            .iter()
            .map(|(l, h, n)| format!("    (\"{l}\", {h:#018x}, {n}),\n"))
            .collect();
        panic!("shard shapes differ from GOLDEN; measured:\n{table}");
    }
}
