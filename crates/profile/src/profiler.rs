//! The profiler handle the machine owns: a span stack over a [`CostTree`].
//!
//! Same discipline as tracing: when disabled, every `push`/`pop`/`leaf_n`
//! site is exactly one `Option` branch — no allocation, no hashing, no
//! side table. When enabled, the current node index sits on a small stack
//! and each charge walks one `BTreeMap` level.

use crate::tree::{CostTree, Seg, ROOT};

#[derive(Debug)]
struct State {
    tree: CostTree,
    /// Indices into the tree; `stack[0]` is always the root.
    stack: Vec<usize>,
}

/// A cycle-cost profiler. Disabled by default ([`Profiler::off`]); all
/// recording methods are no-ops costing one branch until
/// [`Profiler::enabled`] replaces it.
#[derive(Debug, Default)]
pub struct Profiler {
    state: Option<Box<State>>,
    /// The freeze gate: a frozen profiler's live state parks here, so
    /// every recording site sees `state == None` and costs exactly the
    /// disabled profiler's one branch until the gate thaws.
    parked: Option<Box<State>>,
}

impl Profiler {
    /// A disabled profiler (the default): records nothing, allocates
    /// nothing.
    pub fn off() -> Self {
        Profiler {
            state: None,
            parked: None,
        }
    }

    /// An enabled profiler with an empty tree.
    pub fn enabled() -> Self {
        Profiler {
            state: Some(Box::new(State {
                tree: CostTree::new(),
                stack: vec![ROOT],
            })),
            parked: None,
        }
    }

    /// Freeze or thaw an enabled profiler. While frozen, every
    /// `push`/`pop`/`leaf_n` site is the disabled profiler's single branch —
    /// nothing is charged, and the accumulated tree is preserved for the
    /// thaw. The sampling driver's functional warm-up uses this so the
    /// warm-up window charges nothing. Freeze/thaw happen between driver
    /// steps, at top level: freezing with a span open is a bug at the call
    /// site. A disabled profiler stays disabled.
    pub fn set_frozen(&mut self, frozen: bool) {
        if frozen {
            if let Some(st) = self.state.take() {
                debug_assert!(st.stack.len() == 1, "freeze with a span open");
                self.parked = Some(st);
            }
        } else if let Some(st) = self.parked.take() {
            self.state = Some(st);
        }
    }

    /// Is the profiler currently frozen?
    pub fn is_frozen(&self) -> bool {
        self.parked.is_some()
    }

    /// Is the profiler recording?
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Open a span: subsequent charges attribute under `seg` until the
    /// matching [`Profiler::pop`].
    #[inline]
    pub fn push(&mut self, seg: Seg) {
        if let Some(st) = &mut self.state {
            let cur = *st.stack.last().expect("stack holds at least the root");
            let child = st.tree.child(cur, seg);
            st.tree.add(child, 1, 0);
            st.stack.push(child);
        }
    }

    /// Close the innermost span. Popping with no span open is a bug at the
    /// instrumentation site; it is a debug assertion and otherwise ignored.
    #[inline]
    pub fn pop(&mut self) {
        if let Some(st) = &mut self.state {
            debug_assert!(st.stack.len() > 1, "pop with no span open");
            if st.stack.len() > 1 {
                st.stack.pop();
            }
        }
    }

    /// Charge a batch of `count` operations `op`, costing `cycles` in
    /// total, under the current span path. This is the only place cycles
    /// enter the tree, and the machine calls it from the one function that
    /// moves its cycle counter — which is what makes the tree total equal
    /// the cycle account. A batch of one at zero cycles still counts (a
    /// DMA page transfer costs the CPU nothing, yet appears). A zero
    /// batch records nothing — in particular it must not materialize an
    /// empty tree node, which the word loop would never have created.
    #[inline]
    pub fn leaf_n(&mut self, op: &'static str, count: u64, cycles: u64) {
        if let Some(st) = &mut self.state {
            if count == 0 {
                return;
            }
            let cur = *st.stack.last().expect("stack holds at least the root");
            let child = st.tree.child(cur, Seg::Machine(op));
            st.tree.add(child, count, cycles);
        }
    }

    /// The accumulated tree, if enabled.
    pub fn tree(&self) -> Option<&CostTree> {
        self.state.as_ref().map(|st| &st.tree)
    }

    /// Take the accumulated tree, leaving the profiler disabled.
    pub fn take_tree(&mut self) -> Option<CostTree> {
        self.state.take().map(|st| st.tree)
    }

    /// Discard accumulated costs (the warm-up reset, mirroring the cycle
    /// account's reset), keeping the profiler enabled. Warm-up resets run
    /// at top level, so no span may be open.
    pub fn reset_tree(&mut self) {
        if let Some(st) = &mut self.state {
            debug_assert!(st.stack.len() == 1, "reset_tree with a span open");
            st.tree = CostTree::new();
            st.stack = vec![ROOT];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut p = Profiler::off();
        assert!(!p.is_enabled());
        p.push(Seg::Os("fs.read"));
        p.leaf_n("load.hit", 1, 5);
        p.pop();
        assert!(p.tree().is_none());
        assert!(p.take_tree().is_none());
    }

    #[test]
    fn spans_nest_and_attribute() {
        let mut p = Profiler::enabled();
        p.leaf_n("load.hit", 1, 1); // root context (user)
        p.push(Seg::Os("fault.mapping"));
        p.leaf_n("software", 1, 350);
        p.push(Seg::Mgr("map"));
        p.leaf_n("purge_page.d", 1, 7);
        p.pop();
        p.leaf_n("mapping_update", 1, 25);
        p.pop();
        p.leaf_n("load.hit", 1, 1);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 384);
        let rows = t.flatten();
        let find = |path: &str| rows.iter().find(|r| r.path == path).unwrap();
        assert_eq!(find("machine:load.hit").count, 2);
        assert_eq!(find("machine:load.hit").cycles, 2);
        assert_eq!(find("os:fault.mapping").count, 1);
        assert_eq!(
            find("os:fault.mapping").cycles,
            0,
            "spans hold no self cycles"
        );
        assert_eq!(
            find("os:fault.mapping/mgr:map/machine:purge_page.d").cycles,
            7
        );
        assert_eq!(find("os:fault.mapping/machine:mapping_update").cycles, 25);
    }

    #[test]
    fn frozen_records_nothing_and_thaw_resumes() {
        let mut p = Profiler::enabled();
        p.leaf_n("load.hit", 1, 3);
        p.set_frozen(true);
        assert!(p.is_frozen());
        assert!(!p.is_enabled(), "frozen looks disabled to recording sites");
        p.push(Seg::Os("warmup"));
        p.leaf_n("software", 1, 999);
        p.pop();
        p.set_frozen(false);
        assert!(!p.is_frozen());
        p.leaf_n("load.hit", 1, 4);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 7, "the frozen window charged nothing");
    }

    #[test]
    fn freezing_a_disabled_profiler_keeps_it_disabled() {
        let mut p = Profiler::off();
        p.set_frozen(true);
        assert!(!p.is_frozen());
        p.set_frozen(false);
        assert!(!p.is_enabled());
        assert!(p.tree().is_none());
    }

    #[test]
    fn reset_tree_discards_costs() {
        let mut p = Profiler::enabled();
        p.push(Seg::Os("warmup"));
        p.leaf_n("software", 1, 99);
        p.pop();
        p.reset_tree();
        assert!(p.is_enabled());
        p.leaf_n("load.hit", 1, 1);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 1);
        assert_eq!(t.flatten().len(), 1);
    }

    #[test]
    fn leaf_n_is_n_leaves() {
        let mut a = Profiler::enabled();
        let mut b = Profiler::enabled();
        a.push(Seg::Os("fs.read"));
        b.push(Seg::Os("fs.read"));
        a.leaf_n("load.hit", 63, 63);
        for _ in 0..63 {
            b.leaf_n("load.hit", 1, 1);
        }
        a.pop();
        b.pop();
        assert_eq!(
            a.take_tree().unwrap().flatten(),
            b.take_tree().unwrap().flatten()
        );
    }

    #[test]
    fn leaf_n_of_zero_creates_no_node() {
        let mut p = Profiler::enabled();
        p.leaf_n("load.hit", 0, 0);
        let t = p.take_tree().unwrap();
        assert!(
            t.flatten().is_empty(),
            "an empty batch must not materialize a tree node"
        );
    }

    #[test]
    fn zero_cycle_leaf_still_counts() {
        let mut p = Profiler::enabled();
        p.leaf_n("dma.write", 1, 0);
        p.leaf_n("dma.write", 1, 0);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 0);
        let rows = t.flatten();
        assert_eq!(rows[0].path, "machine:dma.write");
        assert_eq!(rows[0].count, 2);
    }
}
