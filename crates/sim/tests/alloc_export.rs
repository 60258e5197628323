//! Allocation regression for the observer layer's exports: literal JSON
//! text is borrowed, a journal's trace events cost the same heap calls
//! however long it is and render into reserved text with none, books
//! reserved for their expectations register them with none, closing the
//! delivery audit over books kept as the run went makes no heap call on a
//! clean run, a span is 64 bytes, and the span store, reserved when the
//! log is enabled, makes room by retiring the closed spans behind the
//! oldest open one rather than by growing (DESIGN.md, "Allocation
//! discipline").

use gcopss_sim::json::Json;
use gcopss_sim::telemetry::{TraceEvent, TraceRecord};
use gcopss_sim::{
    LineageConfig, LineageLog, SimTime, SpanRecord, Telemetry, TelemetryConfig, Topology,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Heap calls `f` makes on this thread, with its result.
fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counting_alloc::heap_calls();
    let out = f();
    (counting_alloc::heap_calls() - before, out)
}

#[test]
fn literal_keys_and_static_values_are_borrowed() {
    let (n, j) = calls(|| {
        Json::obj([
            ("event", Json::from("deliver")),
            ("node", Json::from(7u32)),
            ("cause", Json::Null),
        ])
    });
    assert_eq!(n, 1, "the pair vector and nothing else");
    assert_eq!(
        j.to_string(),
        r#"{"event":"deliver","node":7,"cause":null}"#
    );
    // `Json::str` is the copying constructor, for text that is not static.
    let (n, _) = calls(|| Json::str("deliver"));
    assert_eq!(n, 1);
}

/// `n` journal records on node 0, alternating a dequeue and a send to a
/// peer: both trace-event shapes, with one and with two `args`.
fn journal(n: u64) -> (Telemetry, Topology) {
    let mut topo = Topology::new();
    topo.add_node("rp0");
    let mut t = Telemetry::default();
    t.enable(TelemetryConfig::default(), 1, 0);
    for i in 0..n {
        let dequeue = i % 2 == 0;
        t.journal(TraceRecord {
            ts: SimTime::from_nanos(1_000 * i),
            node: 0,
            event: if dequeue {
                TraceEvent::Dequeue
            } else {
                TraceEvent::Send
            },
            class: "multicast",
            size: 120,
            peer: if dequeue { u32::MAX } else { 1 },
            dur_ns: if dequeue { 500 } else { 0 },
        });
    }
    (t, topo)
}

#[test]
fn trace_events_cost_the_same_heap_calls_for_any_journal_length() {
    let mut seen = Vec::new();
    for n in [1u64, 10, 1_000] {
        let (t, topo) = journal(n);
        let (got, events) = calls(|| t.trace_events(&topo, 0));
        assert_eq!(
            events.len() as u64,
            n + 1,
            "one thread name, then the records"
        );
        seen.push(got);
    }
    // The event vector, the named-node bitmap and a copy of the one
    // node's name: a record is held by value and costs nothing.
    assert_eq!(seen, [3, 3, 3]);
}

#[test]
fn trace_events_render_into_reserved_text_without_heap_calls() {
    let (t, topo) = journal(1_000);
    let events = t.trace_events(&topo, 0);
    let mut out = String::with_capacity(1 << 20);
    let (got, ()) = calls(|| {
        for e in &events {
            e.write_to(&mut out);
        }
    });
    assert_eq!(got, 0, "{} bytes rendered", out.len());
    assert!(
        out.starts_with(r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rp0"}}"#)
    );
}

#[test]
fn reserved_books_register_expectations_without_heap_calls() {
    let owed: Vec<u32> = (0..8).collect();
    for lineages in [16u64, 256, 4_096] {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: 1,
            capacity: 1 << 10,
        });
        let (got, ()) = calls(|| {
            log.reserve_expectations(lineages as usize, lineages as usize * owed.len());
            for lid in 0..lineages {
                log.expect(lid, SimTime::from_millis(lid), u32::MAX, &owed);
            }
        });
        // One exact reservation each for the lineages, the owed pairs and
        // their delivery counters; registering then grows nothing.
        assert_eq!(got, 3, "{lineages} lineages");
    }
}

/// A log of `lineages` messages, each owed to `fanout` entities and
/// delivered to every one of them exactly once; what each owes is
/// registered first, as the books require.
fn delivered_log(lineages: u64, fanout: u32) -> LineageLog {
    let mut log = LineageLog::disabled();
    log.enable(LineageConfig {
        sample: 1,
        capacity: 1 << 20,
    });
    let owed: Vec<u32> = (0..fanout).collect();
    for lid in 0..lineages {
        log.expect(lid, SimTime::from_millis(lid), u32::MAX, &owed);
    }
    for lid in 0..lineages {
        let t = SimTime::from_millis(lid);
        let o = log.origin(lid, 0, t);
        log.close(o, t);
        let h = log.hop(lid, o, 1, t);
        for &e in &owed {
            log.deliver_from(h, 1, e, t);
        }
        log.close(h, t);
    }
    log
}

#[test]
fn audit_heap_calls_do_not_grow_with_deliveries() {
    let mut seen = Vec::new();
    for (lineages, fanout) in [(2, 1), (16, 8), (256, 64)] {
        let log = delivered_log(lineages, fanout);
        let (n, report) = calls(|| log.audit(SimTime::MAX, None));
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.delivered, lineages * u64::from(fanout));
        seen.push(n);
    }
    // The books were kept as the spans came: closing them only classifies,
    // and a clean report holds no error text and no drop class.
    assert_eq!(seen, [0, 0, 0]);
}

#[test]
fn a_span_is_64_bytes() {
    assert_eq!(std::mem::size_of::<SpanRecord>(), 64);
}

/// Spans the span store reserves when the log is enabled (`lineage.rs`).
const RETAIN: usize = 1 << 14;

#[test]
fn segments_behind_the_oldest_open_span_are_reused() {
    let mut log = LineageLog::disabled();
    log.enable(LineageConfig {
        sample: 1,
        capacity: RETAIN,
    });
    // Heap calls recording `n` more spans makes, each closed before the
    // next opens.
    let record = |log: &mut LineageLog, n: usize| {
        calls(|| {
            for _ in 0..n {
                let t = SimTime::from_nanos(0);
                let s = log.origin(1, 0, t);
                log.close(s, t);
            }
        })
        .0
    };
    // The store was reserved by `enable`; a full one retires its closed
    // spans, so however many spans follow, none calls the allocator.
    assert_eq!(record(&mut log, 16 * RETAIN), 0);
    assert_eq!(log.spans().len(), 16 * RETAIN);
    assert_eq!(log.audit(SimTime::MAX, None).truncated, 0);
}
