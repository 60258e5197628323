//! RP traffic monitoring and split planning (§IV-B).

use std::collections::{BTreeMap, VecDeque};

use gcopss_names::Name;

/// A sliding window over the CDs of the most recent `N` multicast packets
/// an RP has served, as described in §IV-B ("the router monitors the
/// traffic for each CD in a sliding window fashion of the recent N
/// packets").
///
/// # Example
///
/// ```
/// # use gcopss_copss::TrafficWindow;
/// # use gcopss_names::Name;
/// let mut w = TrafficWindow::new(100);
/// for _ in 0..10 { w.record(Name::parse_lit("/1/1")); }
/// for _ in 0..30 { w.record(Name::parse_lit("/1/2")); }
/// assert_eq!(w.count(&Name::parse_lit("/1/2")), 30);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficWindow {
    capacity: usize,
    window: VecDeque<Name>,
    counts: BTreeMap<Name, u64>,
}

impl TrafficWindow {
    /// Creates a window remembering the last `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            capacity,
            window: VecDeque::with_capacity(capacity),
            counts: BTreeMap::new(),
        }
    }

    /// Records one served packet with publication CD `cd`.
    pub fn record(&mut self, cd: Name) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window full");
            if let Some(c) = self.counts.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&old);
                }
            }
        }
        // Not `entry(cd.clone())`: a CD already in the window costs no copy.
        match self.counts.get_mut(&cd) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(cd.clone(), 1);
            }
        }
        self.window.push_back(cd);
    }

    /// Packets currently remembered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Count of packets in the window published exactly to `cd`.
    #[must_use]
    pub fn count(&self, cd: &Name) -> u64 {
        self.counts.get(cd).copied().unwrap_or(0)
    }

    /// Plans a load split of the served prefixes: returns the set of
    /// "atoms" to move to a new RP so that roughly `target_fraction` of the
    /// observed window traffic moves (§IV-B: "the CD selection function
    /// divides the CDs into 2 groups based on the capabilities of both the
    /// RPs"; we balance by observed load, a deterministic refinement of the
    /// paper's random selection).
    ///
    /// Atoms are: for each served prefix, its observed *direct children* in
    /// the window (or the prefix itself if traffic targets it exactly or it
    /// cannot be refined). The returned plan keeps both sides non-empty and
    /// prefix-free; returns `None` if the traffic cannot be split (all load
    /// on a single indivisible atom, or an empty window).
    ///
    /// Only window CDs for which `eligible` returns `true` are considered —
    /// an RP uses this to exclude CDs it no longer owns or that are still
    /// settling from a previous handoff.
    #[must_use]
    pub fn plan_split(
        &self,
        served: &[Name],
        target_fraction: f64,
        eligible: impl Fn(&Name) -> bool,
    ) -> Option<SplitPlan> {
        // Build atoms with their loads.
        let mut atoms: Vec<(Name, u64)> = Vec::new();
        let mut seen_atoms: std::collections::BTreeSet<Name> = std::collections::BTreeSet::new();
        for p in served {
            // Group window CDs under p by their component right after p.
            let mut by_child: BTreeMap<Name, u64> = BTreeMap::new();
            let mut exact = 0u64;
            for (cd, c) in &self.counts {
                if !p.is_prefix_of(cd) || !eligible(cd) {
                    continue;
                }
                if cd.len() == p.len() {
                    exact += c;
                } else {
                    let child = cd.prefix(p.len() + 1);
                    *by_child.entry(child).or_insert(0) += c;
                }
            }
            if exact > 0 || by_child.is_empty() {
                // Publications directly to p (or none at all): p itself is
                // an atom and cannot be refined without splitting those.
                if exact > 0 && seen_atoms.insert(p.clone()) {
                    atoms.push((p.clone(), exact + by_child.values().sum::<u64>()));
                }
            } else {
                for (child, load) in by_child {
                    if seen_atoms.insert(child.clone()) {
                        atoms.push((child, load));
                    }
                }
            }
        }
        let total: u64 = atoms.iter().map(|(_, c)| c).sum();
        if total == 0 || atoms.len() < 2 {
            return None;
        }
        // Greedy: take atoms in descending load, move while below target.
        atoms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let target = (total as f64 * target_fraction).round() as u64;
        let mut moved = Vec::new();
        let mut moved_load = 0u64;
        for (name, load) in &atoms {
            if moved.len() + 1 == atoms.len() {
                break; // keep at least one atom
            }
            if moved_load >= target {
                break;
            }
            // Skip an atom that would overshoot badly unless nothing moved.
            if moved_load + load > target + total / 10 && !moved.is_empty() {
                continue;
            }
            moved.push(name.clone());
            moved_load += load;
        }
        if moved.is_empty() {
            // Move the single hottest atom (other than the last remaining).
            moved.push(atoms[0].0.clone());
            moved_load = atoms[0].1;
        }
        let retained: Vec<Name> = atoms
            .iter()
            .map(|(n, _)| n.clone())
            .filter(|n| !moved.contains(n))
            .collect();
        if retained.is_empty() {
            return None;
        }
        Some(SplitPlan {
            moved,
            retained,
            moved_load,
            total_load: total,
        })
    }
}

/// The outcome of [`TrafficWindow::plan_split`]: which CD prefixes to move
/// to a new RP and which to retain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// Prefix-free CD prefixes to hand to the new RP.
    pub moved: Vec<Name>,
    /// Prefix-free CD prefixes the old RP keeps (replacing its previous
    /// served set).
    pub retained: Vec<Name>,
    /// Window packets covered by `moved`.
    pub moved_load: u64,
    /// Total window packets considered.
    pub total_load: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse_lit(s)
    }

    #[test]
    fn window_slides() {
        let mut w = TrafficWindow::new(3);
        w.record(n("/a"));
        w.record(n("/a"));
        w.record(n("/b"));
        assert_eq!(w.count(&n("/a")), 2);
        w.record(n("/c")); // evicts the first /a
        assert_eq!(w.len(), 3);
        assert_eq!(w.count(&n("/a")), 1);
        assert_eq!(w.count(&n("/b")), 1);
        assert_eq!(w.count(&n("/c")), 1);
    }

    #[test]
    fn split_balances_roughly_half() {
        let mut w = TrafficWindow::new(1000);
        // Root served; traffic to 5 regions with skewed load.
        for (region, count) in [(1u32, 50), (2, 30), (3, 10), (4, 5), (5, 5)] {
            for _ in 0..count {
                w.record(Name::root().child_index(region).child_index(1));
            }
        }
        let plan = w.plan_split(&[Name::root()], 0.5, |_| true).unwrap();
        // The hottest region (/1 with 50%) moves.
        assert!(plan.moved.contains(&n("/1")));
        let moved_fraction = plan.moved_load as f64 / plan.total_load as f64;
        assert!((0.3..=0.7).contains(&moved_fraction));
        // Both sides non-empty, atoms disjoint.
        assert!(!plan.retained.is_empty());
        for m in &plan.moved {
            assert!(!plan.retained.contains(m));
        }
    }

    #[test]
    fn split_refines_served_prefix_into_children() {
        let mut w = TrafficWindow::new(100);
        w.record(n("/1/1"));
        w.record(n("/1/2"));
        let plan = w.plan_split(&[n("/1")], 0.5, |_| true).unwrap();
        let mut all: Vec<Name> = plan.moved.clone();
        all.extend(plan.retained.clone());
        all.sort();
        assert_eq!(all, vec![n("/1/1"), n("/1/2")]);
    }

    #[test]
    fn split_impossible_on_single_atom() {
        let mut w = TrafficWindow::new(100);
        for _ in 0..10 {
            w.record(n("/1"));
        }
        // All traffic directly to the only served prefix: indivisible.
        assert!(w.plan_split(&[n("/1")], 0.5, |_| true).is_none());
    }

    #[test]
    fn split_empty_window_is_none() {
        let w = TrafficWindow::new(10);
        assert!(w.plan_split(&[Name::root()], 0.5, |_| true).is_none());
    }

    #[test]
    fn split_with_exact_traffic_keeps_prefix_atomic() {
        let mut w = TrafficWindow::new(100);
        // Own-area publications go exactly to /1's own-area child /1/0 in
        // the real naming, but direct publications to a served prefix make
        // it atomic.
        for _ in 0..5 {
            w.record(n("/1"));
        }
        for _ in 0..5 {
            w.record(n("/2/1"));
        }
        let plan = w.plan_split(&[n("/1"), n("/2")], 0.5, |_| true).unwrap();
        let mut all = plan.moved.clone();
        all.extend(plan.retained.clone());
        all.sort();
        assert_eq!(all, vec![n("/1"), n("/2/1")]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TrafficWindow::new(0);
    }
}
