//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Every timed section goes through [`Spans::scope`]. It always adds the
//! section's duration (and an operation count) to the current repetition's
//! per-name totals, from which the per-layer host-time metrics are floored;
//! when recording is on (`--trace`) it also keeps the span itself — name,
//! start, end, parent, repetition id — in memory, to be written once at
//! exit as a Chrome trace.

use std::time::Instant;

use gcopss_sim::json::Json;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition this span belongs to (shared by all its spans).
    pub rep: u32,
}

/// Seconds and operations accumulated under one span name in one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub secs: f64,
    pub ops: u64,
}

pub struct Spans {
    epoch: Instant,
    record: bool,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
    /// Pre-sized, so that timing a section allocates nothing inside the
    /// heap-counted pass.
    totals: Vec<(&'static str, Total)>,
}

/// More names than any workload uses in one repetition.
const TOTALS_CAPACITY: usize = 64;

impl Spans {
    pub fn new(record: bool) -> Self {
        Self {
            epoch: Instant::now(),
            record,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
            totals: Vec::with_capacity(TOTALS_CAPACITY),
        }
    }

    /// Starts a repetition: later spans carry its id, and the per-name
    /// totals restart from zero.
    pub fn begin_rep(&mut self) {
        self.rep += 1;
        self.totals.clear();
    }

    /// Per-name totals of the current repetition, by first completion.
    pub fn totals(&self) -> &[(&'static str, Total)] {
        &self.totals
    }

    /// Seconds the current repetition spent under `name` (0 if never).
    pub fn secs(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, t)| t.secs)
    }

    /// Runs `f` as the span `name` covering `ops` operations and returns
    /// its result and duration in seconds.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        ops: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let slot = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        let at = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.totals.push((name, Total::default()));
                self.totals.len() - 1
            }
        };
        self.totals[at].1.secs += secs;
        self.totals[at].1.ops += ops;
        (out, secs)
    }

    /// Self time of every span: its duration minus the part covered by its
    /// direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The recorded spans as a Chrome trace-event document (one complete
    /// `"X"` event per span, one thread lane per repetition).
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let events = self.spans.iter().zip(&own).map(|(s, &self_ns)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::UInt(0)),
                ("tid", Json::UInt(u64::from(s.rep))),
                (
                    "args",
                    Json::obj([
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("self_us", Json::Float(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_totals_and_self_time() {
        let mut s = Spans::new(true);
        s.begin_rep();
        s.scope("outer", 1, |s| {
            s.scope("inner", 10, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.scope("inner", 5, |_| ());
        });
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert!(s.spans.iter().all(|x| x.rep == 1));

        let own = s.self_ns();
        let dur = |i: usize| s.spans[i].end_ns - s.spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));

        assert_eq!(s.totals()[1].0, "outer");
        let (name, inner) = s.totals()[0];
        assert_eq!((name, inner.ops), ("inner", 15));
        assert!(inner.secs >= 0.002);
        assert_eq!(s.secs("inner"), inner.secs);
        assert!(s.secs("outer") >= inner.secs);
        assert_eq!(s.secs("never"), 0.0);
        s.begin_rep();
        assert!(s.totals().is_empty(), "totals restart per repetition");
    }

    #[test]
    fn totals_accumulate_without_recording() {
        let mut s = Spans::new(false);
        let (v, secs) = s.scope("x", 3, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(s.spans.is_empty());
        assert_eq!(s.totals()[0].1.ops, 3);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let mut s = Spans::new(true);
        s.begin_rep();
        s.scope("a", 0, |s| s.scope("b", 0, |_| ()));
        let text = s.to_chrome_trace("w").to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }
}
