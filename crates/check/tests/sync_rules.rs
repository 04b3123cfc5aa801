//! The three rules `cpq_check::sync` carries for the workspace:
//!
//! * the poison helpers re-raise a peer thread's panic, and the re-raised
//!   panic names the caller's line, as the `expect` each one replaced did;
//! * in debug builds outside the model, the helpers check lock order: two
//!   lock classes taken in both orders, or a lock taken again by the thread
//!   that holds it, panic at the caller's line;
//! * `clippy.toml`'s `disallowed-types` names exactly the types the
//!   `#[cfg(cpq_model)]` arm of `sync.rs` swaps for modeled ones, so the
//!   model-cfg clippy gate neither misses a modeled type nor flags a std
//!   one the model leaves alone.

use std::collections::BTreeSet;
use std::path::Path;

#[cfg(not(cpq_model))]
use std::cell::RefCell;

#[cfg(not(cpq_model))]
thread_local! {
    /// The message and location of the last panic on this thread.
    static SEEN: RefCell<Option<(String, String, u32)>> = const { RefCell::new(None) };
}

/// Runs `f`, which must panic, and returns the panic's message, file and
/// line. The hook records per thread, so tests run side by side.
#[cfg(not(cpq_model))]
fn panic_site(f: impl FnOnce()) -> (String, String, u32) {
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            let (file, line) = info
                .location()
                .map_or((String::new(), 0), |l| (l.file().to_string(), l.line()));
            SEEN.with(|s| *s.borrow_mut() = Some((msg, file, line)));
        }));
    });
    assert!(
        panic::catch_unwind(AssertUnwindSafe(f)).is_err(),
        "the call did not panic"
    );
    SEEN.with(|s| s.borrow_mut().take())
        .expect("the hook saw the panic")
}

#[cfg(not(cpq_model))]
mod poison {
    use super::panic_site;
    use cpq_check::sync::{self, Arc, Mutex, RwLock};

    /// Has a peer thread panic while holding what `hold` takes.
    fn poison_from_a_peer<T: Send + Sync + 'static>(lock: &Arc<T>, hold: fn(&T)) {
        let peer = Arc::clone(lock);
        let joined = std::thread::spawn(move || hold(&peer)).join();
        assert!(joined.is_err(), "the peer panicked");
    }

    #[test]
    fn a_poisoned_mutex_re_raises_at_the_caller() {
        let m = Arc::new(Mutex::new(7u32));
        assert_eq!(*sync::lock(&m), 7, "an unpoisoned lock just locks");
        poison_from_a_peer(&m, |m| {
            let _held = sync::lock(m);
            panic!("the peer panics holding the lock");
        });
        assert!(m.is_poisoned());
        let ((msg, file, line), want) = (panic_site(|| drop(sync::lock(&m))), line!());
        assert!(msg.contains("poisoned"), "{msg}");
        assert!(file.ends_with("sync_rules.rs"), "{file}");
        assert_eq!(line, want);
    }

    #[test]
    fn a_poisoned_rwlock_re_raises_at_the_caller_for_both_modes() {
        let l = Arc::new(RwLock::new(7u32));
        assert_eq!(*sync::read(&l), 7);
        *sync::write(&l) = 8;
        poison_from_a_peer(&l, |l| {
            let _held = sync::write(l);
            panic!("the peer panics holding the write lock");
        });
        assert!(l.is_poisoned());
        let ((msg, file, line), want) = (panic_site(|| drop(sync::read(&l))), line!());
        assert!(msg.contains("poisoned"), "{msg}");
        assert!(file.ends_with("sync_rules.rs"), "{file}");
        assert_eq!(line, want);
        let ((msg, _, line), want) = (panic_site(|| drop(sync::write(&l))), line!());
        assert!(msg.contains("poisoned"), "{msg}");
        assert_eq!(line, want);
    }
}

/// Lock order, the rule debug builds check (the model explores lock orders
/// itself, and release builds leave it out).
#[cfg(all(debug_assertions, not(cpq_model)))]
mod order {
    use super::panic_site;
    use cpq_check::sync::{self, Mutex};
    use std::any::type_name;

    #[test]
    fn two_classes_taken_in_both_orders_panic() {
        struct Alpha;
        struct Beta;
        let (a, b) = (Mutex::new(Alpha), Mutex::new(Beta));
        let first = {
            let _a = sync::lock(&a);
            let (_b, first) = (sync::lock(&b), line!());
            first
        };
        let _b = sync::lock(&b);
        let ((msg, file, line), want) = (panic_site(|| drop(sync::lock(&a))), line!());
        assert!(msg.contains("lock order cycle"), "{msg}");
        assert!(msg.contains(type_name::<Alpha>()), "{msg}");
        assert!(msg.contains(type_name::<Beta>()), "{msg}");
        assert!(msg.contains(&format!("sync_rules.rs:{want}:")), "{msg}");
        assert!(msg.contains(&format!("sync_rules.rs:{first}:")), "{msg}");
        assert!(file.ends_with("sync_rules.rs"), "{file}");
        assert_eq!(line, want);
    }

    #[test]
    fn one_order_taken_again_is_quiet() {
        struct Gamma;
        struct Delta;
        let (c, d) = (Mutex::new(Gamma), Mutex::new(Delta));
        let nest = || drop((sync::lock(&c), sync::lock(&d)));
        nest();
        nest();
        std::thread::scope(|s| drop(s.spawn(nest)));
    }

    #[test]
    fn a_lock_taken_again_by_its_holder_panics() {
        struct Epsilon;
        let m = Mutex::new(Epsilon);
        let (_held, first) = (sync::lock(&m), line!());
        let ((msg, file, line), want) = (panic_site(|| drop(sync::lock(&m))), line!());
        assert!(msg.contains("taken twice"), "{msg}");
        assert!(msg.contains(type_name::<Epsilon>()), "{msg}");
        assert!(msg.contains(&format!("sync_rules.rs:{first}:")), "{msg}");
        assert!(file.ends_with("sync_rules.rs"), "{file}");
        assert_eq!(line, want);
    }
}

/// The type names inside every `{…}` of the `pub use crate::model::shim::`
/// re-exports in `src`.
fn modeled_types(src: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for part in src.split("pub use crate::model::shim::").skip(1) {
        let list = part
            .strip_prefix('{')
            .and_then(|rest| rest.split_once('}'))
            .map_or_else(|| part.split(';').next().unwrap_or(""), |(inner, _)| inner);
        out.extend(
            list.split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty() && n.starts_with(char::is_uppercase))
                .map(str::to_string),
        );
    }
    out
}

/// The last segment of every `std::sync` path in `clippy.toml`'s
/// `disallowed-types` list, checked to sit in the module `sync.rs` takes
/// it from (`std::sync::atomic` for atomics, `std::sync` otherwise).
fn disallowed_types(toml: &str) -> BTreeSet<String> {
    let list = toml
        .split_once("disallowed-types")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("clippy.toml has a disallowed-types list");
    list.split("path = \"")
        .skip(1)
        .map(|entry| {
            let path = entry.split('"').next().unwrap_or("");
            let (module, name) = path.rsplit_once("::").expect("a std path");
            let want = if name.starts_with("Atomic") {
                "std::sync::atomic"
            } else {
                "std::sync"
            };
            assert_eq!(
                module, want,
                "{path} is not where sync.rs takes {name} from"
            );
            name.to_string()
        })
        .collect()
}

#[test]
fn clippy_disallows_exactly_the_types_the_model_replaces() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sync_rs = std::fs::read_to_string(crate_dir.join("src/sync.rs")).expect("read sync.rs");
    let toml =
        std::fs::read_to_string(crate_dir.join("../../clippy.toml")).expect("read clippy.toml");
    let modeled = modeled_types(&sync_rs);
    let disallowed = disallowed_types(&toml);
    assert!(
        modeled.contains("Mutex") && modeled.contains("AtomicU64"),
        "{modeled:?}"
    );
    assert_eq!(
        disallowed, modeled,
        "clippy.toml's disallowed-types and sync.rs's cpq_model arm must name the same types"
    );
}

#[test]
fn the_list_comparison_sees_a_type_on_one_side_only() {
    let sync_rs = "pub use crate::model::shim::{Condvar, Mutex};\n\
                   pub use crate::model::shim::{AtomicBool, AtomicU64};\n";
    let toml = "disallowed-types = [\n\
                { path = \"std::sync::Mutex\", reason = \"x\" },\n\
                { path = \"std::sync::Condvar\", reason = \"x\" },\n\
                { path = \"std::sync::atomic::AtomicBool\", reason = \"x\" },\n\
                { path = \"std::sync::atomic::AtomicU64\", reason = \"x\" },\n]\n";
    assert_eq!(disallowed_types(toml), modeled_types(sync_rs));
    let extra_model = sync_rs.replace("Mutex}", "Mutex, RwLock}");
    assert_ne!(disallowed_types(toml), modeled_types(&extra_model));
    let extra_toml = toml.replace(
        "]\n",
        "{ path = \"std::sync::atomic::AtomicUsize\", reason = \"x\" },\n]\n",
    );
    assert_ne!(disallowed_types(&extra_toml), modeled_types(sync_rs));
}
