//! The short-page contract on every page file: a page may be written with
//! fewer bytes than the page size, every byte past them reads as zero, and
//! a page longer than the page size is refused before anything moves.
//!
//! Each file kind is run twice side by side, once written with seeded short
//! prefixes and once with the same pages zero-extended to full length; the
//! two must answer every read alike and, on disk, store the same bytes.

use cpq_rng::Rng;
use cpq_storage::{
    zero_extend, DiskPageFile, FailingPageFile, FailureControl, MemPageFile, PageFile, PageId,
    SchedConfig, SchedPageFile, StorageError,
};
use std::path::PathBuf;

const PAGE_SIZE: usize = 64;
const PAGES: u32 = 4;
const KINDS: [&str; 5] = ["mem", "disk", "failing-mem", "failing-disk", "sched-mem"];

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "cpq-short-pages-{tag}-{}.pages",
        std::process::id()
    ));
    p
}

/// A fresh file of `kind` with `PAGES` pages allocated, and the path of
/// its disk file if it has one.
fn open(kind: &str, tag: &str) -> (Box<dyn PageFile>, Option<PathBuf>) {
    let path = temp_path(&format!("{kind}-{tag}"));
    let base = |disk: bool| -> Box<dyn PageFile> {
        if disk {
            Box::new(DiskPageFile::create(&path, PAGE_SIZE).unwrap())
        } else {
            Box::new(MemPageFile::new(PAGE_SIZE))
        }
    };
    let disk = kind.contains("disk");
    let mut file: Box<dyn PageFile> = match kind {
        "failing-mem" | "failing-disk" => {
            Box::new(FailingPageFile::new(base(disk), FailureControl::new()))
        }
        "sched-mem" => {
            let cfg = SchedConfig {
                io_threads: 1,
                ..SchedConfig::default()
            };
            Box::new(SchedPageFile::new(base(false), cfg))
        }
        _ => base(disk),
    };
    for i in 0..PAGES {
        assert_eq!(file.allocate().unwrap(), PageId(i));
    }
    (file, disk.then_some(path))
}

/// Every way a file answers for its pages: `read` of each, one `read_run`
/// over all of them, and `read_bytes` of each, zero-extended.
fn answers(file: &dyn PageFile) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..PAGES {
        let mut buf = vec![0xEE; PAGE_SIZE];
        file.read(PageId(i), &mut buf).unwrap();
        out.push(buf);
    }
    let mut run = vec![0xEE; PAGES as usize * PAGE_SIZE];
    file.read_run(PageId(0), PAGES as usize, &mut run).unwrap();
    out.push(run);
    for i in 0..PAGES {
        let bytes = file.read_bytes(PageId(i)).unwrap();
        assert!(bytes.len() <= PAGE_SIZE);
        let mut buf = vec![0xEE; PAGE_SIZE];
        zero_extend(&bytes, &mut buf);
        out.push(buf);
    }
    out
}

fn random_page(r: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| r.random_range(0u8..=255)).collect()
}

#[test]
fn a_short_page_answers_as_its_zero_extended_page_on_every_file() {
    for seed in 0..6u64 {
        let mut r = Rng::seed_from_u64(seed);
        for kind in KINDS {
            let (mut short, short_path) = open(kind, "short");
            let (mut full, full_path) = open(kind, "full");
            // Per page: short, then full, then short again.
            for round in 0..3 {
                for i in 0..PAGES {
                    let len = if round == 1 {
                        PAGE_SIZE
                    } else {
                        r.random_range(0..PAGE_SIZE)
                    };
                    let data = random_page(&mut r, len);
                    let mut whole = vec![0; PAGE_SIZE];
                    zero_extend(&data, &mut whole);
                    short.write(PageId(i), &data).unwrap();
                    full.write(PageId(i), &whole).unwrap();
                    if kind == "mem" {
                        // It keeps what was written, as long as it was written.
                        let stored = short.read_bytes(PageId(i)).unwrap();
                        assert_eq!(stored[..], data[..], "seed {seed}");
                        assert_eq!(full.read_bytes(PageId(i)).unwrap()[..], whole[..]);
                    }
                }
                assert_eq!(
                    answers(&*short),
                    answers(&*full),
                    "seed {seed} {kind} round {round}"
                );
                assert_eq!(short.stats(), full.stats(), "seed {seed} {kind}");
            }

            // An over-long page: refused, and no counter or byte moves.
            let before = answers(&*short);
            let stats = short.stats();
            let long = random_page(&mut r, PAGE_SIZE + 1);
            assert!(matches!(
                short.write(PageId(1), &long),
                Err(StorageError::WrongBufferSize {
                    expected: PAGE_SIZE,
                    actual
                }) if actual == PAGE_SIZE + 1
            ));
            assert_eq!(short.stats(), stats, "{kind}: the refused write counted");
            assert_eq!(answers(&*short), before, "{kind}: the refused write landed");

            // On disk, page for page and trailer for trailer, the same file.
            short.sync().unwrap();
            full.sync().unwrap();
            drop((short, full));
            if let (Some(a), Some(b)) = (short_path, full_path) {
                let (sa, sb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
                assert_eq!(sa, sb, "seed {seed} {kind}: the stored bytes differ");
                std::fs::remove_file(a).unwrap();
                std::fs::remove_file(b).unwrap();
            }
        }
    }
}

#[test]
fn a_page_never_written_reads_as_zeros() {
    for kind in KINDS {
        let (file, path) = open(kind, "fresh");
        for page in answers(&*file) {
            assert!(page.iter().all(|&b| b == 0), "{kind}");
        }
        if kind == "mem" {
            assert!(file.read_bytes(PageId(0)).unwrap().is_empty());
        }
        drop(file);
        if let Some(path) = path {
            std::fs::remove_file(path).unwrap();
        }
    }
}
