//! The lock-order check of debug builds (the rule the `sync` module docs
//! state), after the Linux kernel's lockdep.
//!
//! A lock's class is the `type_name` of the value it guards, so every
//! `BufferPool`'s `state` is one class however many pools a process opens.
//!
//! The cost sits on every acquire and release of a debug build: a walk of
//! this thread's held list, and the graph's lock only for an edge the
//! thread has not put in yet.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

type Site = &'static Location<'static>;

/// Held class -> acquired class -> the site where that order was first
/// taken.
type Graph = BTreeMap<&'static str, BTreeMap<&'static str, Site>>;

static GRAPH: Mutex<Graph> = Mutex::new(BTreeMap::new());

/// One lock a thread holds.
struct Entry {
    addr: usize,
    class: &'static str,
    site: Site,
}

/// One thread's side of the check.
struct Local {
    held: Vec<Entry>,
    /// The edges this thread has put in the graph, by the addresses of
    /// the two class names. One class may have more than one address (one
    /// per crate that names it); that costs a graph lookup, nothing more.
    seen: Vec<(usize, usize)>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            held: Vec::new(),
            seen: Vec::new(),
        })
    };
}

/// A guard's entry in its thread's held list; dropping it takes the lock
/// off the list.
pub struct Held {
    addr: usize,
    class: &'static str,
}

impl Held {
    /// Checks taking the lock at `addr`, of class `class`, against the
    /// locks this thread holds, and records it as held.
    #[track_caller]
    pub fn acquire(addr: usize, class: &'static str) -> Held {
        let site = Location::caller();
        // The panic is raised here, outside the closure, so that it names
        // the caller's line as well.
        if let Err(msg) = LOCAL.with(|local| local.borrow_mut().acquire(addr, class, site)) {
            panic!("{msg}");
        }
        Held { addr, class }
    }

    /// Checks again a lock a condvar wait releases and re-takes: against
    /// what the thread holds when it waits.
    #[track_caller]
    pub fn retake(self) -> Held {
        let (addr, class) = (self.addr, self.class);
        drop(self);
        Held::acquire(addr, class)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        // A guard dropped while the thread's locals are torn down has no
        // list left to update.
        let _ = LOCAL.try_with(|local| {
            let held = &mut local.borrow_mut().held;
            if let Some(i) = held.iter().rposition(|e| e.addr == self.addr) {
                held.remove(i);
            }
        });
    }
}

impl Local {
    fn acquire(&mut self, addr: usize, class: &'static str, site: Site) -> Result<(), String> {
        if let Some(first) = self.held.iter().find(|e| e.addr == addr) {
            return Err(format!(
                "lock taken twice: `{class}` at {site}, by a thread that already holds it \
                 (taken at {}); std's locks are not re-entrant",
                first.site
            ));
        }
        for e in &self.held {
            let edge = (e.class.as_ptr().addr(), class.as_ptr().addr());
            if !self.seen.contains(&edge) {
                add_edge(e.class, class, site)?;
                self.seen.push(edge);
            }
        }
        self.held.push(Entry { addr, class, site });
        Ok(())
    }
}

/// Puts `from -> to` in the graph unless it closes a cycle.
fn add_edge(from: &'static str, to: &'static str, site: Site) -> Result<(), String> {
    // Two locks of one class nest where a decorator wraps its like (a
    // pool's page-file lock over a scheduled file's own): no class order
    // can tell them apart, and the same-address rule covers re-entry.
    if from == to {
        return Ok(());
    }
    let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    if graph.get(from).is_some_and(|out| out.contains_key(to)) {
        return Ok(());
    }
    if let Some(path) = path(&graph, to, from) {
        let reverse: Vec<String> = path
            .iter()
            .map(|(a, b, at)| format!("`{a}` held over `{b}` at {at}"))
            .collect();
        return Err(format!(
            "lock order cycle: `{to}` taken at {site} while `{from}` is held, \
             against the order taken first: {}",
            reverse.join(", then ")
        ));
    }
    graph.entry(from).or_default().insert(to, site);
    Ok(())
}

type Edge = (&'static str, &'static str, Site);

/// The edges of a path from `from` to `to`, each with the site where it
/// was first taken.
fn path(graph: &Graph, from: &'static str, to: &'static str) -> Option<Vec<Edge>> {
    let mut stack = vec![(from, Vec::new())];
    let mut visited = BTreeSet::from([from]);
    while let Some((node, trail)) = stack.pop() {
        for (&next, &at) in graph.get(node).into_iter().flatten() {
            let mut trail = trail.clone();
            trail.push((node, next, at));
            if next == to {
                return Some(trail);
            }
            if visited.insert(next) {
                stack.push((next, trail));
            }
        }
    }
    None
}
