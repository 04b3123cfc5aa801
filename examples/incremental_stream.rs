//! The incremental distance join: consume closest pairs lazily, in
//! non-decreasing distance order, stopping whenever a condition is met —
//! the use-case Hjaltason & Samet's algorithms (Section 3.9) were built for,
//! where K is unknown up front.
//!
//! Scenario: pair warehouses with retail stores until the paired distance
//! exceeds a delivery radius.
//!
//! ```sh
//! cargo run --release --example incremental_stream
//! ```

use cpq::core::{distance_join, Traversal};
use cpq::datasets::uniform;
use cpq::rtree::{RTree, RTreeParams};
use cpq::storage::{BufferPool, MemPageFile, DEFAULT_PAGE_SIZE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let warehouses = uniform(3_000, 1);
    let stores = uniform(8_000, 2);

    let build = |ds: &cpq::datasets::Dataset| -> Result<RTree<2>, Box<dyn std::error::Error>> {
        let pool = BufferPool::with_lru(Box::new(MemPageFile::new(DEFAULT_PAGE_SIZE)), 128);
        let mut tree = RTree::new(pool, RTreeParams::paper())?;
        for (i, &p) in ds.points.iter().enumerate() {
            tree.insert(p, i as u64)?;
        }
        Ok(tree)
    };
    let t_wh = build(&warehouses)?;
    let t_st = build(&stores)?;

    let radius = 2.5; // delivery radius in workspace units
    let mut join = distance_join(&t_wh, &t_st, Traversal::Simultaneous);

    println!("warehouse/store pairs within radius {radius}, closest first:");
    let mut count = 0usize;
    for result in join.by_ref() {
        let pair = result?;
        if pair.distance() > radius {
            break; // the stream is ordered: nothing closer is left
        }
        count += 1;
        if count <= 12 {
            println!(
                "  {:>3}. warehouse #{:<5} <-> store #{:<5}  {:.3}",
                count,
                pair.p.oid,
                pair.q.oid,
                pair.distance()
            );
        }
    }
    if count > 12 {
        println!("  ... and {} more", count - 12);
    }
    let stats = join.stats();
    println!(
        "\nconsumed {count} pairs with {} disk accesses, queue peaked at {} entries",
        stats.disk_accesses(),
        stats.queue_peak
    );
    println!("(the paper's HEAP stores node/node pairs only; this queue also holds");
    println!(" node/object and object/object items — Section 3.9's size argument.)");
    Ok(())
}
