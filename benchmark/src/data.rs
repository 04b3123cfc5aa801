//! Inputs made from `--seed`, the trees built over them, and the scratch
//! directory every file of a run lives in.

use crate::report::Metrics;
use cpq_geo::Point2;
use cpq_rtree::{RTree, RTreeParams};
use cpq_storage::{BufferPool, DiskPageFile, MemPageFile, PageFile, PageId, DEFAULT_PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics and the span file.
    pub trace: bool,
    /// The tiny preset behind `--smoke`.
    pub smoke: bool,
    /// Self-test: corrupt one memoised reference, so the run must fail.
    pub corrupt_reference: bool,
    /// Directory for page files and logs; created and removed by the run.
    pub scratch: PathBuf,
}

impl Opts {
    /// `full` on a normal run, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The measuring time as a [`Duration`], scaled by `share`.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// How many times the untraced run sets up, to report the median.
    pub fn setup_reps(&self) -> usize {
        self.pick(3, 1)
    }
}

/// An independent seed for stream `stream` of workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cpq_rng::splitmix64(&mut state)
}

/// Points with their index as oid.
pub fn indexed(points: &[Point2]) -> Vec<(Point2, u64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect()
}

fn insert_all(tree: &mut RTree<2>, points: &[Point2]) {
    for (i, &p) in points.iter().enumerate() {
        tree.insert(p, i as u64).expect("insert into a fresh tree");
    }
}

/// An insertion-built paper tree over an in-memory page file with
/// `capacity` pool frames.
pub fn build_mem(points: &[Point2], capacity: usize) -> RTree<2> {
    let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), capacity);
    let mut tree = RTree::new(pool, RTreeParams::paper()).expect("paper params fit the page");
    insert_all(&mut tree, points);
    tree
}

/// The same tree on a disk page file at `path`: built in memory, copied
/// page for page (same page ids, so the same descriptor), synced, closed,
/// and reopened *buffered* (`DiskPageFile::open`) behind a plain LRU pool
/// of `capacity` frames.
pub fn build_disk(points: &[Point2], path: &Path, capacity: usize) -> RTree<2> {
    let built = build_mem(points, BUILD_POOL_PAGES);
    let mut file = DiskPageFile::create(path, DEFAULT_PAGE_SIZE).expect("create page file");
    for i in 0..built.pool().num_pages() {
        let id = file.allocate().expect("allocate page");
        assert_eq!(id, PageId(i), "a fresh file allocates page ids in order");
        match built.pool().read_page(PageId(i)) {
            Ok(bytes) => file.write(id, &bytes).expect("write page"),
            // A page the build freed again: keep the id free here too.
            Err(_) => file.free(id).expect("free page"),
        }
    }
    file.sync().expect("sync page file");
    drop(file);
    reopen_disk(path, built.descriptor(), capacity)
}

/// Another read handle on a page file written by [`build_disk`].
pub fn reopen_disk(path: &Path, descriptor: (PageId, u8, u64), capacity: usize) -> RTree<2> {
    let file = DiskPageFile::open(path).expect("reopen page file");
    let pool = BufferPool::with_lru(Box::new(file), capacity);
    RTree::from_descriptor(pool, RTreeParams::paper(), descriptor).expect("reattach tree")
}

/// Hits, misses and evictions of a workload's two pools together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Reads served from the pool.
    pub hits: u64,
    /// Reads that went to the page file: the paper's disk accesses.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

impl PoolCounters {
    /// The counters of `p` and `q` now.
    pub fn read(p: &BufferPool, q: &BufferPool) -> Self {
        let (a, b) = (p.buffer_stats(), q.buffer_stats());
        PoolCounters {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            evictions: a.evictions + b.evictions,
        }
    }

    /// What happened since `before`.
    pub fn since(self, before: Self) -> Self {
        PoolCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }

    /// Sets the three `storage.*` metrics these counters feed, over `ops`.
    pub fn report(self, m: &mut Metrics, ops: f64) {
        m.set("storage.pool_misses_per_op", self.misses as f64 / ops);
        m.set(
            "storage.pool_hit_rate",
            self.hits as f64 / (self.hits + self.misses) as f64,
        );
        m.set("storage.evictions_per_op", self.evictions as f64 / ops);
    }
}

impl std::ops::AddAssign for PoolCounters {
    fn add_assign(&mut self, d: Self) {
        self.hits += d.hits;
        self.misses += d.misses;
        self.evictions += d.evictions;
    }
}

/// Pool frames while building: more than any tree of the benchmark has
/// pages, so a build never evicts.
pub const BUILD_POOL_PAGES: usize = 16_384;

/// The scratch directory of one run, removed again when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `dir` (and parents), empty.
    pub fn create(dir: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Nanoseconds per call of `f`: calls it in batches of `batch` for about
/// `budget` (at least three batches) and returns the median batch's time
/// per call, which shrugs off a descheduled batch.
pub fn ns_per_call(budget: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    let mut i = 0usize;
    while per_call.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&per_call).expect("at least three batches ran")
}
