//! Simulator self-profiling: a hand-rolled hierarchical phase profiler.
//!
//! PRs 2 and 4 made the *simulated network* deeply observable; this module
//! turns the instruments on the *simulator itself*. Mature CCN simulators
//! treat self-instrumentation as a first-class subsystem (ccns3Sim rides
//! NS3's tracing hooks, inbaverSim OMNeT++'s per-module statistics); the
//! hermetic equivalent here is a thread-local scope stack over a monotonic
//! nanosecond clock:
//!
//! * [`scope`] opens a named phase; the returned [`Scope`] guard closes it
//!   on drop. Phases nest: the same name under different parents is a
//!   different tree node, so the report is a call-tree, not a flat list.
//! * Per phase the profiler keeps the **call count**, **total** (inclusive)
//!   time, **child** time (from which *self* time = total − child falls
//!   out), and the **max** single-call duration.
//! * [`count`] / [`gauge_max`] record deterministic throughput inputs
//!   (events executed, queue-depth high-watermark) next to the wall-clock
//!   data.
//! * [`take_report`] snapshots everything into a [`ProfReport`]: a
//!   time-attribution table, `results/prof_<exp>.json` fields, Chrome
//!   trace events for the existing Perfetto journal, and a
//!   **counts-only** FNV-1a fingerprint.
//!
//! # Determinism contract
//!
//! The profiler reads the wall clock but never feeds back into the
//! simulation: enabling it cannot change an event order, a PRNG draw or a
//! telemetry export. Phase *structure and call counts* are pure functions
//! of the (deterministic) event sequence, so same-seed runs produce
//! byte-identical counts sections and equal [`ProfReport::count_fingerprint`]s;
//! wall-clock *times* vary run to run and are excluded from the
//! fingerprint. The chaos soak gates exactly this split.
//!
//! # Overhead model
//!
//! Profiling is per-thread and off by default. The disabled path of every
//! hook is a single thread-local flag test (a const-initialized `Cell`
//! read — no lazy-init branch, no allocation), mirroring telemetry's
//! single-branch contract; the `prof/end_to_end_*` bench entries pin the
//! disabled cost to within noise of the uninstrumented baseline. When
//! enabled, each scope costs two monotonic clock reads plus a small-vector
//! child lookup — fine for attribution runs, which is the only time it is
//! on.
//!
//! # Example
//!
//! ```
//! use gcopss_sim::prof;
//!
//! prof::reset();
//! prof::enable();
//! {
//!     let _run = prof::scope("run");
//!     for _ in 0..3 {
//!         let _inner = prof::scope("step");
//!     }
//! }
//! prof::count("events", 3);
//! let report = prof::take_report();
//! prof::disable();
//! assert_eq!(report.phases[0].path, "run");
//! assert_eq!(report.phases[1].path, "run/step");
//! assert_eq!(report.phases[1].calls, 3);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::{fnv1a, FNV1A_OFFSET};

thread_local! {
    /// Fast-path flag: read on every hook, so it must be a const-init
    /// `Cell` (a plain TLS load, no lazy-initialization check).
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PROFILER: RefCell<Profiler> = RefCell::new(Profiler::new());
}

/// Index of the synthetic root node (never reported; its children are the
/// top-level phases).
const ROOT: u32 = 0;

#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: u32,
    children: Vec<u32>,
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    max_ns: u64,
}

impl Node {
    fn new(name: &'static str, parent: u32) -> Self {
        Self {
            name,
            parent,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            max_ns: 0,
        }
    }
}

#[derive(Debug)]
struct Profiler {
    nodes: Vec<Node>,
    /// Open scopes, innermost last. Scopes must close LIFO (guards enforce
    /// this naturally).
    stack: Vec<u32>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

impl Profiler {
    fn new() -> Self {
        Self {
            nodes: vec![Node::new("", u32::MAX)],
            stack: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        // Small linear child scan: phase fan-out is a handful of names, and
        // `&'static str` pointers usually match without a byte compare.
        let found = self.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .find(|&c| {
                let n = self.nodes[c as usize].name;
                std::ptr::eq(n, name) || n == name
            });
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node::new(name, parent));
                self.nodes[parent as usize].children.push(i);
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: u32, elapsed_ns: u64) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "prof scopes must close LIFO");
        let node = &mut self.nodes[idx as usize];
        node.calls += 1;
        node.total_ns += elapsed_ns;
        node.max_ns = node.max_ns.max(elapsed_ns);
        let parent = node.parent;
        if parent != u32::MAX {
            self.nodes[parent as usize].child_ns += elapsed_ns;
        }
    }

    /// Depth-first walk in creation order (deterministic given the event
    /// sequence), rooted at the synthetic node's children.
    fn report(&self) -> ProfReport {
        let mut phases = Vec::new();
        let mut todo: Vec<(u32, usize, String)> = self.nodes[ROOT as usize]
            .children
            .iter()
            .rev()
            .map(|&c| (c, 0, String::new()))
            .collect();
        let mut wall_ns = 0u64;
        while let Some((idx, depth, prefix)) = todo.pop() {
            let n = &self.nodes[idx as usize];
            let path = if prefix.is_empty() {
                n.name.to_string()
            } else {
                format!("{prefix}/{}", n.name)
            };
            if depth == 0 {
                wall_ns += n.total_ns;
            }
            phases.push(PhaseRow {
                path: path.clone(),
                name: n.name.to_string(),
                depth,
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
                max_ns: n.max_ns,
            });
            for &c in n.children.iter().rev() {
                todo.push((c, depth + 1, path.clone()));
            }
        }
        ProfReport {
            phases,
            counters: self.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            gauges: self.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            wall_ns,
        }
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new("", u32::MAX));
        self.stack.clear();
        self.counters.clear();
        self.gauges.clear();
    }
}

/// Switches profiling on for the current thread. Until called (and after
/// [`disable`]), every hook is a single thread-local branch.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Switches profiling off for the current thread (recorded data is kept
/// until [`take_report`] or [`reset`]).
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Whether profiling is recording on this thread.
#[must_use]
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Discards all recorded data on this thread (open scopes included; their
/// guards become inert). The enabled flag is untouched.
pub fn reset() {
    PROFILER.with(|p| p.borrow_mut().reset());
}

/// Opens the phase `name` nested under the innermost open scope; the
/// returned guard closes it when dropped. Scopes are per-thread and must
/// close in LIFO order — which holding the guard on the stack guarantees.
///
/// While profiling is disabled this returns an inert guard without reading
/// the clock.
#[must_use = "dropping the guard immediately closes the scope it just opened"]
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !is_enabled() {
        return Scope { idx: u32::MAX, start: None };
    }
    let idx = PROFILER.with(|p| p.borrow_mut().enter(name));
    Scope {
        idx,
        start: Some(Instant::now()),
    }
}

/// Adds `delta` to the deterministic throughput counter `name` (e.g. the
/// engine's events-executed count). No-op while disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    PROFILER.with(|p| {
        *p.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Raises the high-watermark gauge `name` to `value` if larger (e.g. the
/// engine's peak service-queue depth). No-op while disabled.
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        let g = p.gauges.entry(name).or_insert(0);
        *g = (*g).max(value);
    });
}

/// Snapshots the profile recorded on this thread into a [`ProfReport`] and
/// resets the recorder (the enabled flag is untouched). Call with no open
/// scopes — open spans are not in the snapshot and are discarded.
#[must_use]
pub fn take_report() -> ProfReport {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        debug_assert!(p.stack.is_empty(), "take_report with open prof scopes");
        let r = p.report();
        p.reset();
        r
    })
}

/// Guard for one open phase; closing happens on drop.
#[must_use = "dropping the guard immediately records an empty span"]
#[derive(Debug)]
pub struct Scope {
    idx: u32,
    /// `None` for the inert (profiling-disabled) guard.
    start: Option<Instant>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            // A reset() between enter and drop empties the stack: the guard
            // outlived its recorder generation, so drop the span.
            if p.stack.last() == Some(&self.idx) {
                p.exit(self.idx, elapsed);
            }
        });
    }
}

/// One phase of a [`ProfReport`], in depth-first call-tree order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Slash-joined scope names from the top-level phase down (scope names
    /// themselves contain `/`, e.g. `engine/run/copss/multicast`).
    pub path: String,
    /// The scope name alone (e.g. `copss/multicast`).
    pub name: String,
    /// Nesting depth (0 = top-level phase).
    pub depth: usize,
    /// Number of completed calls.
    pub calls: u64,
    /// Inclusive wall time, nanoseconds.
    pub total_ns: u64,
    /// Exclusive wall time: total minus time inside child phases.
    pub self_ns: u64,
    /// Largest single-call inclusive time.
    pub max_ns: u64,
}

/// A snapshot of one thread's profile: the phase call-tree plus the
/// deterministic counters/gauges recorded next to it.
#[derive(Debug, Clone, Default)]
pub struct ProfReport {
    /// Phases in depth-first order.
    pub phases: Vec<PhaseRow>,
    /// Deterministic throughput counters ([`count`]), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// High-watermark gauges ([`gauge_max`]), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Measured loop wall time: the summed inclusive time of the top-level
    /// phases (nanoseconds).
    pub wall_ns: u64,
}

impl ProfReport {
    /// Sum of exclusive times across every phase. For a single-rooted tree
    /// this equals [`ProfReport::wall_ns`] exactly; the attribution table
    /// prints the ratio as its coverage line (the ≥ 90 % acceptance bar).
    #[must_use]
    pub fn self_sum_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Fraction of the measured loop wall time attributed to phase self
    /// times (1.0 when every top-level phase is fully covered by the tree).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.self_sum_ns() as f64 / self.wall_ns as f64
    }

    /// Events per wall-clock second, from the `"engine/events"` counter
    /// over the measured wall time (0.0 when either is missing).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let events = self.counter("engine/events");
        if self.wall_ns == 0 {
            return 0.0;
        }
        events as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Reads back a counter by name (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Reads back a gauge by name (0 when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// FNV-1a 64-bit fingerprint over phase paths and call counts (plus the
    /// deterministic counters/gauges) — **never over any wall-clock time**.
    /// Same-seed runs must produce equal fingerprints; this is the
    /// determinism witness the chaos soak gates.
    #[must_use]
    pub fn count_fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        for p in &self.phases {
            fnv1a(&mut h, p.path.as_bytes());
            fnv1a(&mut h, &p.calls.to_le_bytes());
        }
        for (k, v) in self.counters.iter().chain(self.gauges.iter()) {
            fnv1a(&mut h, k.as_bytes());
            fnv1a(&mut h, &v.to_le_bytes());
        }
        h
    }

    /// The deterministic section of the export: phase paths + call counts,
    /// counters and gauges — everything the fingerprint covers and nothing
    /// it does not. Same-seed runs must serialize this byte-identically.
    #[must_use]
    pub fn counts_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::arr(self.phases.iter().map(|p| {
                    Json::arr([Json::str(p.path.clone()), Json::from(p.calls)])
                })),
            ),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
        ])
    }

    /// The full export fields for `results/prof_<exp>.json` (wall times
    /// included; see [`ProfReport::counts_json`] for the deterministic
    /// subset).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ns", Json::from(self.wall_ns)),
            ("self_sum_ns", Json::from(self.self_sum_ns())),
            ("coverage", Json::from(self.coverage())),
            ("events", Json::from(self.counter("engine/events"))),
            ("events_per_sec", Json::from(self.events_per_sec())),
            (
                "queue_high_watermark",
                Json::from(self.gauge("engine/queue_high_watermark")),
            ),
            (
                "phases",
                Json::arr(self.phases.iter().map(|p| {
                    Json::obj([
                        ("path", Json::str(p.path.clone())),
                        ("depth", Json::from(p.depth)),
                        ("calls", Json::from(p.calls)),
                        ("total_ns", Json::from(p.total_ns)),
                        ("self_ns", Json::from(p.self_ns)),
                        ("max_ns", Json::from(p.max_ns)),
                        (
                            "avg_ns",
                            Json::from(p.total_ns.checked_div(p.calls).unwrap_or(0)),
                        ),
                    ])
                })),
            ),
            ("counts", self.counts_json()),
            (
                "count_fingerprint",
                Json::str(format!("{:016x}", self.count_fingerprint())),
            ),
        ])
    }

    /// The hot-loop time-attribution table: the call-tree with per-phase
    /// calls, inclusive/exclusive times, share of the measured wall and max
    /// single call, plus the coverage and throughput footer.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<46} {:>12} {:>12} {:>12} {:>7} {:>12}\n",
            "phase", "calls", "total ms", "self ms", "self%", "max µs"
        ));
        let wall = self.wall_ns.max(1) as f64;
        for p in &self.phases {
            let name = format!("{}{}", "  ".repeat(p.depth), p.name);
            out.push_str(&format!(
                "{:<46} {:>12} {:>12.3} {:>12.3} {:>6.1}% {:>12.1}\n",
                name,
                p.calls,
                p.total_ns as f64 / 1e6,
                p.self_ns as f64 / 1e6,
                100.0 * p.self_ns as f64 / wall,
                p.max_ns as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "self-time coverage {:.1}% of {:.3} ms measured loop wall; \
             {:.0} events/s; queue high-watermark {}\n",
            100.0 * self.coverage(),
            self.wall_ns as f64 / 1e6,
            self.events_per_sec(),
            self.gauge("engine/queue_high_watermark"),
        ));
        out
    }

    /// Renders the call-tree as Chrome trace events for the existing
    /// Perfetto journal: one complete (`ph:"X"`) span per phase, children
    /// laid out inside their parent's span by cumulative offset, with call
    /// counts and self times in `args`. `pid` separates the profile lane
    /// from the packet-trace lanes when merged into one file.
    #[must_use]
    pub fn trace_events_json(&self, pid: u64) -> Vec<Json> {
        let mut out = Vec::with_capacity(self.phases.len() + 1);
        out.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(0u64)),
            ("args", Json::obj([("name", Json::str("self-profile"))])),
        ]));
        // start_at[d] = next free offset (ns) at depth d.
        let mut start_at: Vec<u64> = vec![0];
        for p in &self.phases {
            start_at.truncate(p.depth + 1);
            let ts = start_at[p.depth];
            start_at[p.depth] += p.total_ns;
            start_at.push(ts); // children begin at the parent's start
            out.push(Json::obj([
                ("name", Json::str(p.path.clone())),
                ("cat", Json::str("prof")),
                ("ph", Json::str("X")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(0u64)),
                ("ts", Json::from(ts as f64 / 1e3)),
                ("dur", Json::from(p.total_ns as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("calls", Json::from(p.calls)),
                        ("self_us", Json::from(p.self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the thread-local recorder; serialize them.
    fn with_fresh_profiler<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
        reset();
        enable();
        let out = f();
        disable();
        reset();
        out
    }

    #[test]
    fn hierarchy_counts_and_self_time() {
        let r = with_fresh_profiler(|| {
            {
                let _a = scope("a");
                for _ in 0..5 {
                    let _b = scope("b");
                    let _c = scope("c");
                }
                let _d = scope("b"); // same name, same parent: same node
            }
            {
                let _e = scope("b"); // top-level "b" is a *different* node
            }
            take_report()
        });
        let paths: Vec<(&str, u64, usize)> = r
            .phases
            .iter()
            .map(|p| (p.path.as_str(), p.calls, p.depth))
            .collect();
        assert_eq!(
            paths,
            vec![("a", 1, 0), ("a/b", 6, 1), ("a/b/c", 5, 2), ("b", 1, 0)]
        );
        let a = &r.phases[0];
        let ab = &r.phases[1];
        let abc = &r.phases[2];
        // Inclusive times nest; self = total − child everywhere.
        assert!(a.total_ns >= ab.total_ns);
        assert!(ab.total_ns >= abc.total_ns);
        assert_eq!(a.self_ns, a.total_ns - ab.total_ns);
        assert_eq!(ab.self_ns, ab.total_ns - abc.total_ns);
        // Top-level totals define the wall; self times sum exactly to it.
        assert_eq!(r.wall_ns, a.total_ns + r.phases[3].total_ns);
        assert_eq!(r.self_sum_ns(), r.wall_ns);
        assert!((r.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_is_inert_and_free_of_state() {
        let r = with_fresh_profiler(|| {
            disable();
            {
                let _s = scope("never");
                count("n", 3);
                gauge_max("g", 9);
            }
            enable();
            take_report()
        });
        assert!(r.phases.is_empty());
        assert!(r.counters.is_empty());
        assert_eq!(r.wall_ns, 0);
        assert!((r.coverage() - 1.0).abs() < 1e-12, "empty profile covers trivially");
    }

    #[test]
    fn counters_gauges_and_throughput() {
        let r = with_fresh_profiler(|| {
            {
                let _s = scope("run");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            count("engine/events", 1000);
            count("engine/events", 500);
            gauge_max("engine/queue_high_watermark", 4);
            gauge_max("engine/queue_high_watermark", 9);
            gauge_max("engine/queue_high_watermark", 7);
            take_report()
        });
        assert_eq!(r.counter("engine/events"), 1500);
        assert_eq!(r.gauge("engine/queue_high_watermark"), 9);
        assert!(r.wall_ns >= 2_000_000, "slept 2ms inside the root scope");
        let eps = r.events_per_sec();
        assert!(eps > 0.0 && eps < 1500.0 / 0.002, "events/s bounded by wall");
    }

    #[test]
    fn fingerprint_covers_counts_not_times() {
        let run = || {
            with_fresh_profiler(|| {
                {
                    let _a = scope("a");
                    // Variable wall time: fingerprints must not see it.
                    std::thread::sleep(std::time::Duration::from_micros(
                        50 + 100 * u64::from(std::process::id() % 2),
                    ));
                    let _b = scope("b");
                }
                count("events", 7);
                take_report()
            })
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.count_fingerprint(), r2.count_fingerprint());
        assert_eq!(r1.counts_json().to_string(), r2.counts_json().to_string());
        // A different call count must change the fingerprint.
        let r3 = with_fresh_profiler(|| {
            {
                let _a = scope("a");
                let _b = scope("b");
            }
            {
                let _a = scope("a");
                let _b = scope("b");
            }
            count("events", 7);
            take_report()
        });
        assert_ne!(r1.count_fingerprint(), r3.count_fingerprint());
    }

    #[test]
    fn json_and_table_and_trace_events() {
        let r = with_fresh_profiler(|| {
            {
                let _a = scope("run");
                let _b = scope("inner");
            }
            count("engine/events", 10);
            take_report()
        });
        let j = r.to_json().to_string();
        assert!(j.contains(r#""phases":[{"path":"run""#), "{j}");
        assert!(j.contains(r#""counts":{"phases":[["run",1],["run/inner",1]]"#), "{j}");
        assert!(j.contains(r#""count_fingerprint":""#), "{j}");
        let t = r.table();
        assert!(t.contains("run") && t.contains("self-time coverage"), "{t}");
        let ev = r.trace_events_json(7);
        assert_eq!(ev.len(), 3); // process_name + 2 phases
        let s = Json::Array(ev).to_string();
        assert!(s.contains(r#""ph":"X""#) && s.contains(r#""pid":7"#), "{s}");
    }

    #[test]
    fn reset_orphans_open_guards_safely() {
        with_fresh_profiler(|| {
            let g = scope("orphan");
            reset();
            drop(g); // must not panic or corrupt the fresh recorder
            let _a = scope("a");
            drop(_a);
            let r = take_report();
            assert_eq!(r.phases.len(), 1);
            assert_eq!(r.phases[0].path, "a");
        });
    }
}
