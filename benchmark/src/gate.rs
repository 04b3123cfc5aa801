//! The correctness gate armed inside every run.
//!
//! Each answer is compared bit for bit — `(dist2 bits, oid, oid)` per
//! pair — with a reference memoised per query class. A reference is the
//! first answer seen for its class, and is itself validated before the
//! measured ops start: HEAP and STD must agree for each K, and every class
//! small enough is checked against the O(n²) oracles of `cpq_core::brute`.
//! Every divergence is counted as a failed operation and fails the command.

use cpq_core::PairResult;
use std::collections::BTreeMap;

/// One result pair reduced to what must match: distance bits and oids.
pub type PairKey = (u64, u64, u64);

/// Classes with at most this many candidate pairs `|P'| * |Q'|` are checked
/// against the brute-force oracle.
pub const BRUTE_PAIR_LIMIT: u64 = 8_000_000;

/// The comparable form of an answer.
pub fn keys(pairs: &[PairResult<2>]) -> Vec<PairKey> {
    pairs
        .iter()
        .map(|r| (r.dist2.get().to_bits(), r.p.oid, r.q.oid))
        .collect()
}

/// Attempt and failure counts plus the memoised references of one run.
#[derive(Debug, Default)]
pub struct Gate {
    refs: BTreeMap<String, Vec<PairKey>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// An armed gate with no references yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&mut self, msg: String) {
        self.failed += 1;
        // The first few messages are enough to find a divergence; a broken
        // engine would otherwise print one per op.
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Stores the reference answer of `class` (warm-up, before timing).
    pub fn memoise(&mut self, class: &str, answer: Vec<PairKey>) {
        self.refs.insert(class.to_owned(), answer);
    }

    /// The memoised reference of `class`.
    pub fn reference(&self, class: &str) -> Option<&[PairKey]> {
        self.refs.get(class).map(Vec::as_slice)
    }

    /// Compares an answer with the reference of its class; `Some(why)` on
    /// a divergence. Counts nothing, so threads can judge their own
    /// answers and hand the verdicts to [`record`](Self::record) later.
    pub fn judge(&self, class: &str, answer: &[PairKey]) -> Option<String> {
        match self.refs.get(class) {
            Some(reference) if reference.as_slice() == answer => None,
            Some(reference) => {
                let at = reference
                    .iter()
                    .zip(answer)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| reference.len().min(answer.len()));
                Some(format!(
                    "{class}: answer diverges from its reference at pair #{at} \
                     ({} pairs against {})",
                    answer.len(),
                    reference.len()
                ))
            }
            None => Some(format!("{class}: no reference was memoised")),
        }
    }

    /// Counts one measured operation with its verdict: `None` passed,
    /// `Some(why)` failed (divergent, engine error, shed, timed out).
    pub fn record(&mut self, verdict: Option<String>) {
        self.attempted += 1;
        if let Some(why) = verdict {
            self.note(why);
        }
    }

    /// Counts one measured operation and compares its answer with the
    /// reference of its class.
    pub fn check(&mut self, class: &str, answer: &[PairKey]) {
        self.record(self.judge(class, answer));
    }

    /// Validates references against each other or an oracle; a mismatch is
    /// a failure of the run even though no measured op produced it.
    pub fn expect_equal(&mut self, what: &str, a: &[PairKey], b: &[PairKey]) {
        if a != b {
            self.note(format!(
                "{what}: {} pairs against {}, not identical",
                a.len(),
                b.len()
            ));
        }
    }

    /// Records a broken invariant of the run (e.g. a miss on the hot
    /// workload).
    pub fn violation(&mut self, what: String) {
        self.note(what);
    }

    /// Flips one bit in one memoised reference — the `--corrupt-reference`
    /// self-test: the run must then fail.
    pub fn corrupt_one_reference(&mut self) {
        if let Some(first) = self.refs.values_mut().find_map(|r| r.first_mut()) {
            first.0 ^= 1;
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations (and reference validations) that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_and_corruption_are_counted() {
        let mut g = Gate::new();
        g.memoise("c", vec![(1, 2, 3), (4, 5, 6)]);
        g.check("c", &[(1, 2, 3), (4, 5, 6)]);
        assert_eq!((g.attempted(), g.failed()), (1, 0));
        g.check("c", &[(1, 2, 3), (4, 5, 7)]);
        assert_eq!((g.attempted(), g.failed()), (2, 1));
        assert!(g.notes()[0].contains("pair #1"));
        g.corrupt_one_reference();
        g.check("c", &[(1, 2, 3), (4, 5, 6)]);
        assert_eq!(g.failed(), 2);
        g.check("unknown", &[]);
        assert_eq!(g.failed(), 3);
    }
}
