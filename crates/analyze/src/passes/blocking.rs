//! Pass `blocking-section`: blocking calls while an exclusive guard is
//! live.
//!
//! Flags `sync_all`/`sync_data` (fsync), channel `recv`/`recv_timeout`,
//! `sleep`, and argument-free `join` performed inside an exclusive
//! guard's scope — directly, or through a resolved call whose transitive
//! closure blocks. Every peer needing that lock stalls for the full
//! blocking latency; an fsync under a hot mutex turns group commit into
//! a convoy. Shared (`read`) guards are exempt by design: overlapping
//! page-miss I/O under the storage file's read lock is the architecture,
//! not a bug. Condvar `wait` never appears here because it releases the
//! guard it is handed.

use super::{Graph, Pass, PassCtx};
use crate::diag::{Diagnostic, Severity};
use crate::model::{GuardMode, Workspace};

/// See module docs.
pub struct BlockingSection;

impl Pass for BlockingSection {
    fn id(&self) -> &'static str {
        "blocking-section"
    }

    fn run(&self, ws: &Workspace, graph: &Graph, _ctx: &PassCtx, out: &mut Vec<Diagnostic>) {
        for (fi, f) in ws.functions.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let file = ws.file_of(f);
            for outer in &f.locks {
                if outer.mode != GuardMode::Exclusive {
                    continue;
                }
                for b in &f.blocking {
                    if b.tok > outer.tok && b.tok <= outer.scope_end {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Error,
                                file.rel.clone(),
                                b.line,
                                b.col,
                                format!(
                                    "`{}` while the `{}` guard is live — every peer blocks on the lock for the call's full latency",
                                    b.name, outer.lock_id
                                ),
                            )
                            .in_fn(f.name.clone()),
                        );
                    }
                }
                for c in &f.calls {
                    if c.tok <= outer.tok || c.tok > outer.scope_end {
                        continue;
                    }
                    for t in super::resolve_call(ws, fi, c) {
                        let blocks = &graph.blocking[t];
                        if !blocks.is_empty() {
                            out.push(
                                Diagnostic::new(
                                    self.id(),
                                    Severity::Error,
                                    file.rel.clone(),
                                    c.line,
                                    c.col,
                                    format!(
                                        "call to `{}` performs blocking `{}` while the `{}` guard is live",
                                        ws.functions[t].qname,
                                        super::join_ids(blocks.iter()),
                                        outer.lock_id
                                    ),
                                )
                                .in_fn(f.name.clone()),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources);
        let graph = Graph::build(&ws);
        let mut out = Vec::new();
        BlockingSection.run(&ws, &graph, &PassCtx::default(), &mut out);
        out
    }

    #[test]
    fn fsync_under_mutex_is_flagged() {
        let src = "\
impl Wal {
    fn flush_now(&self) {
        let inner = self.inner.lock().expect(\"poisoned\");
        inner.file.sync_data().ok();
    }
}
";
        let out = run(&[("crates/live/src/wal.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("sync_data"));
        assert!(out[0].message.contains("live::Wal::inner"));
    }

    #[test]
    fn fsync_after_drop_is_clean() {
        let src = "\
impl Wal {
    fn flush_now(&self) {
        let inner = self.inner.lock().expect(\"poisoned\");
        let seq = inner.seq;
        drop(inner);
        self.file.sync_data().ok();
        note(seq);
    }
}
";
        assert!(run(&[("crates/live/src/wal.rs", src)]).is_empty());
    }

    #[test]
    fn blocking_under_shared_read_guard_is_by_design() {
        let src = "\
impl Pool {
    fn read_page(&self) {
        let f = self.file.read().expect(\"poisoned\");
        f.recv().ok();
    }
}
";
        assert!(run(&[("crates/storage/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn blocking_through_a_callee_is_flagged() {
        let src = "\
impl Wal {
    fn checkpoint(&self) {
        let inner = self.inner.lock().expect(\"poisoned\");
        self.durable_write();
        inner.touch();
    }
    fn durable_write(&self) {
        self.file.sync_all().ok();
    }
}
";
        let out = run(&[("crates/live/src/wal.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("durable_write"));
        assert!(out[0].message.contains("sync_all"));
    }

    #[test]
    fn free_call_resolves_past_a_method_of_the_same_name() {
        // `execute(..)` without a path can only be the free function, even
        // though a method shares the name; the blocking call behind it must
        // still be seen from under the guard.
        let engine = "\
pub fn execute() {
    handle.join();
}
";
        let service = "\
impl Service {
    pub fn execute(&self) {}
    fn refill(&self) {
        let cont = self.cont.lock().expect(\"poisoned\");
        execute();
        cont.touch();
    }
}
";
        let out = run(&[
            ("crates/core/src/api.rs", engine),
            ("crates/service/src/service.rs", service),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("execute"));
        assert!(out[0].message.contains("join"));
    }

    #[test]
    fn sleep_and_recv_under_guard_are_flagged() {
        let src = "\
impl Q {
    fn drain(&self, rx: &Receiver<u32>, d: Duration) {
        let st = self.state.lock().expect(\"poisoned\");
        rx.recv_timeout(d).ok();
        std::thread::sleep(d);
        st.touch();
    }
}
";
        let out = run(&[("crates/live/src/q.rs", src)]);
        assert_eq!(out.len(), 2, "{out:?}");
    }
}
