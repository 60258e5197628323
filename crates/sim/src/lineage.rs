//! Per-message causal lineage: span records and the delivery auditor.
//!
//! Telemetry (PR 2) records *isolated* per-hop events; this module records
//! *connected* ones. Every published message gets a deterministic lineage
//! id at its origin, and every hop, fan-out copy, drop and terminal
//! delivery appends a [`SpanRecord`] pointing back at the span that caused
//! it. A span carries the three timestamps the paper's Table 1
//! decomposition needs — enqueue, service start, done — so propagation,
//! queueing and service time can be attributed per message, per hop.
//!
//! On top of the spans sits the **delivery auditor**
//! ([`LineageLog::audit`]): experiments register, at publish time, the set
//! of subscribers each message is owed to ([`LineageLog::expect`]), and
//! after the run every `(message, subscriber)` pair is classified as
//! delivered exactly-once, dropped (with the PR 3 drop-reason taxonomy),
//! in-flight at cutoff, lost to a subscription-tree gap inside the fault
//! damage window, or unpublished (owed after the horizon). Duplicates and
//! unexplained losses are hard errors — see [`AuditReport::is_clean`].
//!
//! Like the journal, the log is sampleable (1-in-n by lineage id, so a
//! sampled message keeps its *entire* causal tree) and bounded; runs of
//! the same seed produce byte-identical exports ([`LineageLog::fingerprint`]).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{fnv1a, SimTime, FNV1A_OFFSET};

/// Sentinel span index meaning "no causal parent" / "not traced".
pub const NO_SPAN: u32 = u32::MAX;

/// Sentinel entity meaning "no terminal entity" (non-`Deliver` spans).
pub const NO_ENTITY: u32 = u32::MAX;

/// What a span represents in a message's causal tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// The message entered the network (publisher handed it to the engine).
    Origin,
    /// One store-and-forward hop: transmit on a link, queue, service.
    Hop,
    /// A terminal delivery to an application entity (player).
    Deliver,
    /// The message copy died here, with a drop reason.
    Drop,
}

impl SpanEvent {
    /// Stable lowercase name, used in exports and fingerprints.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanEvent::Origin => "origin",
            SpanEvent::Hop => "hop",
            SpanEvent::Deliver => "deliver",
            SpanEvent::Drop => "drop",
        }
    }
}

/// One record in a message's causal tree.
///
/// `t_service_start` and `t_done` are [`SimTime::MAX`] while the span is
/// still open (the copy is in flight or queued); the auditor uses an open
/// span as evidence for the in-flight-at-cutoff class.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Lineage id of the message this span belongs to.
    pub lineage: u64,
    /// Node the event happened at (receiver for `Hop`).
    pub node: u32,
    /// Index of the causing span, or [`NO_SPAN`] for roots.
    pub cause: u32,
    /// Terminal entity for `Deliver` spans, else [`NO_ENTITY`].
    pub entity: u32,
    /// Drop reason for `Drop` spans, else `""`.
    pub reason: &'static str,
    /// What this span represents.
    pub event: SpanEvent,
    /// When the copy was enqueued (transmit decision for hops).
    pub t_enqueue: SimTime,
    /// When service began at `node`; [`SimTime::MAX`] while waiting.
    pub t_service_start: SimTime,
    /// When the copy finished at `node`; [`SimTime::MAX`] while open.
    pub t_done: SimTime,
}

impl SpanRecord {
    /// `true` while the copy is still queued or in transit.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.t_done == SimTime::MAX
    }
}

/// Configuration for the lineage log.
#[derive(Debug, Clone)]
pub struct LineageConfig {
    /// Keep lineages whose id satisfies `id % sample == 0`; `1` keeps all.
    /// Sampling is by lineage (not by span), so a kept message keeps its
    /// entire causal tree — the auditor stays sound over the sample.
    pub sample: u64,
    /// Maximum number of spans retained. Past this the log counts
    /// truncations instead of growing; a truncated log fails the audit.
    pub capacity: usize,
}

impl Default for LineageConfig {
    fn default() -> Self {
        Self { sample: 1, capacity: 1 << 21 }
    }
}

/// What a message owes: registered at publish time by the experiment.
#[derive(Debug, Clone)]
struct Expectation {
    t_publish: SimTime,
    publisher: u32,
    entities: Vec<u32>,
}

/// The lineage span log. Owned by the simulator; disabled (and free) by
/// default, enabled via `Simulator::enable_lineage`.
#[derive(Debug, Default)]
pub struct LineageLog {
    enabled: bool,
    cfg: LineageConfig,
    spans: Vec<SpanRecord>,
    truncated: u64,
    expectations: BTreeMap<u64, Expectation>,
}

impl LineageLog {
    /// A disabled log; every recording call is a cheap no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self, cfg: LineageConfig) {
        self.enabled = true;
        self.cfg = cfg;
    }

    /// Whether the log records anything.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether lineage `lid` is kept under the configured sampling.
    #[must_use]
    #[inline]
    pub fn sampled(&self, lid: u64) -> bool {
        self.enabled && (self.cfg.sample <= 1 || lid.is_multiple_of(self.cfg.sample))
    }

    fn push(&mut self, rec: SpanRecord) -> u32 {
        if self.spans.len() >= self.cfg.capacity {
            self.truncated += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        self.spans.push(rec);
        id
    }

    /// Opens a root span: the message entered the network at `node`.
    pub fn origin(&mut self, lid: u64, node: u32, now: SimTime) -> u32 {
        if !self.sampled(lid) {
            return NO_SPAN;
        }
        self.push(SpanRecord {
            lineage: lid,
            node,
            cause: NO_SPAN,
            entity: NO_ENTITY,
            reason: "",
            event: SpanEvent::Origin,
            t_enqueue: now,
            t_service_start: SimTime::MAX,
            t_done: SimTime::MAX,
        })
    }

    /// Opens a hop span: a copy was transmitted toward `node`, arriving
    /// (and enqueueing) at `arrival`.
    pub fn hop(&mut self, lid: u64, cause: u32, node: u32, arrival: SimTime) -> u32 {
        if !self.sampled(lid) {
            return NO_SPAN;
        }
        self.push(SpanRecord {
            lineage: lid,
            node,
            cause,
            entity: NO_ENTITY,
            reason: "",
            event: SpanEvent::Hop,
            t_enqueue: arrival,
            t_service_start: SimTime::MAX,
            t_done: SimTime::MAX,
        })
    }

    /// Marks service start on an open span.
    #[inline]
    pub fn service_start(&mut self, span: u32, now: SimTime) {
        if let Some(rec) = self.get_mut(span) {
            rec.t_service_start = now;
        }
    }

    /// Closes a span: the copy finished processing at its node.
    #[inline]
    pub fn close(&mut self, span: u32, now: SimTime) {
        if let Some(rec) = self.get_mut(span) {
            if rec.t_service_start == SimTime::MAX {
                rec.t_service_start = now;
            }
            rec.t_done = now;
        }
    }

    /// Records an immediate, already-closed drop (transmit-time losses:
    /// the copy never reached a queue).
    pub fn drop_at(
        &mut self,
        lid: u64,
        cause: u32,
        node: u32,
        reason: &'static str,
        now: SimTime,
    ) -> u32 {
        if !self.sampled(lid) {
            return NO_SPAN;
        }
        self.push(SpanRecord {
            lineage: lid,
            node,
            cause,
            entity: NO_ENTITY,
            reason,
            event: SpanEvent::Drop,
            t_enqueue: now,
            t_service_start: now,
            t_done: now,
        })
    }

    /// Converts an open span into a drop (arrival black-holed at a dead
    /// node, or flushed out of a dead node's queue).
    pub fn mark_dropped(&mut self, span: u32, reason: &'static str, now: SimTime) {
        if let Some(rec) = self.get_mut(span) {
            rec.event = SpanEvent::Drop;
            rec.reason = reason;
            if rec.t_service_start == SimTime::MAX {
                rec.t_service_start = now;
            }
            rec.t_done = now;
        }
    }

    /// Records a terminal delivery to `entity`, caused by `cause_span`
    /// (the hop span being serviced). No-op when the cause is untraced.
    pub fn deliver_from(&mut self, cause_span: u32, node: u32, entity: u32, now: SimTime) -> u32 {
        let Some(lid) = self.lineage_of(cause_span) else {
            return NO_SPAN;
        };
        self.push(SpanRecord {
            lineage: lid,
            node,
            cause: cause_span,
            entity,
            reason: "",
            event: SpanEvent::Deliver,
            t_enqueue: now,
            t_service_start: now,
            t_done: now,
        })
    }

    /// Records an application-level drop (a behavior discarded the copy
    /// it was servicing), caused by `cause_span`.
    pub fn drop_from(&mut self, cause_span: u32, node: u32, reason: &'static str, now: SimTime) {
        let Some(lid) = self.lineage_of(cause_span) else {
            return;
        };
        self.push(SpanRecord {
            lineage: lid,
            node,
            cause: cause_span,
            entity: NO_ENTITY,
            reason,
            event: SpanEvent::Drop,
            t_enqueue: now,
            t_service_start: now,
            t_done: now,
        });
    }

    /// Registers what lineage `lid` owes: published by `publisher` at
    /// `t_publish`, owed to each of `entities` exactly once. Respects
    /// sampling so the audit universe matches the recorded universe.
    pub fn expect(&mut self, lid: u64, t_publish: SimTime, publisher: u32, entities: &[u32]) {
        if !self.sampled(lid) {
            return;
        }
        self.expectations.insert(
            lid,
            Expectation { t_publish, publisher, entities: entities.to_vec() },
        );
    }

    fn get_mut(&mut self, span: u32) -> Option<&mut SpanRecord> {
        if !self.enabled || span == NO_SPAN {
            return None;
        }
        self.spans.get_mut(span as usize)
    }

    fn lineage_of(&self, span: u32) -> Option<u64> {
        if !self.enabled || span == NO_SPAN {
            return None;
        }
        self.spans.get(span as usize).map(|r| r.lineage)
    }

    /// All spans recorded so far, in causal-creation order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// FNV-1a 64-bit fingerprint over every span. The determinism witness
    /// for the lineage export, mirroring the journal fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut eat = |bytes: &[u8]| fnv1a(&mut h, bytes);
        for r in &self.spans {
            eat(&r.lineage.to_le_bytes());
            eat(&r.node.to_le_bytes());
            eat(&r.cause.to_le_bytes());
            eat(&r.entity.to_le_bytes());
            eat(r.reason.as_bytes());
            eat(r.event.as_str().as_bytes());
            eat(&r.t_enqueue.as_nanos().to_le_bytes());
            eat(&r.t_service_start.as_nanos().to_le_bytes());
            eat(&r.t_done.as_nanos().to_le_bytes());
        }
        h
    }

    /// The spans as an ordered JSON array (open timestamps export as null).
    #[must_use]
    pub fn spans_json(&self) -> Json {
        let ts = |t: SimTime| {
            if t == SimTime::MAX {
                Json::Null
            } else {
                Json::from(t.as_nanos())
            }
        };
        Json::Array(
            self.spans
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("lineage", Json::from(r.lineage)),
                        ("node", Json::from(r.node)),
                        ("event", Json::str(r.event.as_str())),
                        (
                            "cause",
                            if r.cause == NO_SPAN { Json::Null } else { Json::from(r.cause) },
                        ),
                        ("t_enqueue", ts(r.t_enqueue)),
                        ("t_service_start", ts(r.t_service_start)),
                        ("t_done", ts(r.t_done)),
                    ];
                    if r.event == SpanEvent::Deliver {
                        fields.push(("entity", Json::from(r.entity)));
                    }
                    if r.event == SpanEvent::Drop {
                        fields.push(("reason", Json::str(r.reason)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }

    /// Closes the books: classifies every registered `(message,
    /// subscriber)` pair. `cutoff` is the run horizon (pairs owed by
    /// messages published at or after it, with no spans, are
    /// "unpublished"); `damage` is the window of fault-induced tree damage
    /// within which a silent loss is attributed to a subscription-tree gap
    /// (a Subscribe lost in transit leaves no trace on the *publication's*
    /// lineage). Pass `None` for fault-free runs.
    #[must_use]
    pub fn audit(&self, cutoff: SimTime, damage: Option<(SimTime, SimTime)>) -> AuditReport {
        let mut per_lineage: BTreeMap<u64, LineageView> = BTreeMap::new();
        for rec in &self.spans {
            let v = per_lineage.entry(rec.lineage).or_default();
            match rec.event {
                SpanEvent::Deliver => {
                    *v.delivered.entry(rec.entity).or_insert(0u64) += 1;
                }
                SpanEvent::Drop => {
                    if rec.reason != "client-duplicate-dropped" && v.drop_reason.is_none() {
                        v.drop_reason = Some(rec.reason);
                    }
                }
                SpanEvent::Origin | SpanEvent::Hop => {
                    if rec.is_open() {
                        v.open += 1;
                    }
                }
            }
        }

        let mut report = AuditReport { truncated: self.truncated, ..AuditReport::default() };
        report.lineages = self.expectations.len() as u64;
        for (lid, exp) in &self.expectations {
            let view = per_lineage.get(lid);
            // Deliveries to entities the message was not owed to (other
            // than the publisher's own loopback copy) are hard errors.
            if let Some(v) = view {
                for (&entity, &n) in &v.delivered {
                    if entity == exp.publisher {
                        continue;
                    }
                    if !exp.entities.contains(&entity) {
                        report.error(format!(
                            "lineage {lid}: delivered {n}x to unexpected entity {entity}"
                        ));
                    }
                }
            }
            for &entity in &exp.entities {
                report.total_pairs += 1;
                let n = view.and_then(|v| v.delivered.get(&entity)).copied().unwrap_or(0);
                if n == 1 {
                    report.delivered += 1;
                    continue;
                }
                if n > 1 {
                    report.duplicates += 1;
                    report.error(format!(
                        "lineage {lid}: delivered {n}x to entity {entity} (want exactly once)"
                    ));
                    continue;
                }
                // Not delivered: find the best explanation, most concrete
                // first.
                match view {
                    Some(v) if v.drop_reason.is_some() => {
                        *report.dropped.entry(v.drop_reason.unwrap()).or_insert(0) += 1;
                    }
                    Some(v) if v.open > 0 => report.in_flight += 1,
                    _ if in_window(exp.t_publish, damage) => {
                        *report.dropped.entry("tree-gap").or_insert(0) += 1;
                    }
                    None if exp.t_publish >= cutoff => report.unpublished += 1,
                    _ => {
                        report.unexplained += 1;
                        report.error(format!(
                            "lineage {lid}: loss to entity {entity} is unexplained \
                             (published {}, no drop, no open span)",
                            exp.t_publish
                        ));
                    }
                }
            }
        }
        report
    }
}

fn in_window(t: SimTime, damage: Option<(SimTime, SimTime)>) -> bool {
    match damage {
        Some((lo, hi)) => t >= lo && t <= hi,
        None => false,
    }
}

#[derive(Default)]
struct LineageView {
    delivered: BTreeMap<u32, u64>,
    drop_reason: Option<&'static str>,
    open: u64,
}

/// The auditor's closed books: every expected `(message, subscriber)` pair
/// accounted for by class.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of registered lineages (messages) audited.
    pub lineages: u64,
    /// Total `(message, subscriber)` pairs owed.
    pub total_pairs: u64,
    /// Pairs delivered exactly once.
    pub delivered: u64,
    /// Pairs delivered more than once (each is also a hard error).
    pub duplicates: u64,
    /// Pairs whose message still had an open span at cutoff.
    pub in_flight: u64,
    /// Pairs owed by messages published at/after the cutoff (never sent).
    pub unpublished: u64,
    /// Pairs lost with a concrete reason, keyed by the PR 3 drop taxonomy
    /// (plus `"tree-gap"` for losses inside the fault damage window).
    pub dropped: BTreeMap<&'static str, u64>,
    /// Pairs with no explanation at all (hard errors).
    pub unexplained: u64,
    /// Spans lost to the capacity bound; non-zero voids the audit.
    pub truncated: u64,
    /// Hard errors: duplicates, unexpected deliveries, unexplained losses.
    pub errors: Vec<String>,
}

impl AuditReport {
    const MAX_ERRORS: usize = 32;

    fn error(&mut self, msg: String) {
        if self.errors.len() < Self::MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Total pairs explained by a drop reason.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// `true` when the books balance: no duplicates, no unexplained
    /// losses, no deliveries off the subscriber list, no truncation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.truncated == 0 && self.unexplained == 0
    }

    /// The report as ordered JSON (stable key order for byte-identity).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lineages", Json::from(self.lineages)),
            ("total_pairs", Json::from(self.total_pairs)),
            ("delivered", Json::from(self.delivered)),
            ("duplicates", Json::from(self.duplicates)),
            ("in_flight", Json::from(self.in_flight)),
            ("unpublished", Json::from(self.unpublished)),
            (
                "dropped",
                Json::obj(
                    self.dropped
                        .iter()
                        .map(|(reason, n)| (*reason, Json::from(*n)))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("dropped_total", Json::from(self.dropped_total())),
            ("unexplained", Json::from(self.unexplained)),
            ("truncated", Json::from(self.truncated)),
            ("clean", Json::from(self.is_clean())),
            (
                "errors",
                Json::Array(self.errors.iter().map(|e| Json::str(e.as_str())).collect()),
            ),
        ])
    }

    /// A printable per-class accounting table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let pct = |n: u64| {
            if self.total_pairs == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.total_pairs as f64
            }
        };
        out.push_str(&format!(
            "  {:<28} {:>10} {:>8}\n",
            "class", "pairs", "%"
        ));
        let mut row = |name: String, n: u64| {
            out.push_str(&format!("  {:<28} {:>10} {:>7.2}%\n", name, n, pct(n)));
        };
        row("delivered-exactly-once".into(), self.delivered);
        for (reason, n) in &self.dropped {
            row(format!("dropped({reason})"), *n);
        }
        row("in-flight-at-cutoff".into(), self.in_flight);
        row("unpublished-at-cutoff".into(), self.unpublished);
        row("duplicates".into(), self.duplicates);
        row("unexplained".into(), self.unexplained);
        out.push_str(&format!(
            "  {:<28} {:>10} {:>7.2}%\n",
            "total", self.total_pairs, 100.0
        ));
        out.push_str(&format!(
            "  audited lineages {}  truncated spans {}  clean {}\n",
            self.lineages,
            self.truncated,
            self.is_clean()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = LineageLog::disabled();
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN);
        assert_eq!(log.hop(1, NO_SPAN, 1, at(1)), NO_SPAN);
        log.expect(1, at(0), 0, &[1, 2]);
        assert!(log.spans().is_empty());
        let report = log.audit(at(100), None);
        assert_eq!(report.total_pairs, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn sampling_keeps_whole_lineages() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig { sample: 2, capacity: 1024 });
        assert!(log.sampled(4));
        assert!(!log.sampled(5));
        let s = log.origin(4, 0, at(0));
        assert_ne!(s, NO_SPAN);
        assert_eq!(log.origin(5, 0, at(0)), NO_SPAN);
        let h = log.hop(4, s, 1, at(1));
        assert_ne!(h, NO_SPAN);
        // Deliveries chain through the cause span's lineage.
        let d = log.deliver_from(h, 1, 7, at(2));
        assert_ne!(d, NO_SPAN);
        assert_eq!(log.spans()[d as usize].lineage, 4);
    }

    #[test]
    fn audit_clean_run_balances() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        // lid 10: published by entity 0, owed to entities 1 and 2.
        let o = log.origin(10, 0, at(0));
        log.close(o, at(0));
        let h1 = log.hop(10, o, 1, at(1));
        log.service_start(h1, at(1));
        let d1 = log.deliver_from(h1, 1, 1, at(1));
        assert_ne!(d1, NO_SPAN);
        log.close(h1, at(1));
        let h2 = log.hop(10, o, 2, at(2));
        log.deliver_from(h2, 2, 2, at(2));
        log.close(h2, at(2));
        log.expect(10, at(0), 0, &[1, 2]);
        let report = log.audit(at(100), None);
        assert_eq!(report.total_pairs, 2);
        assert_eq!(report.delivered, 2);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn audit_flags_duplicates_and_unexpected() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let o = log.origin(10, 0, at(0));
        let h = log.hop(10, o, 1, at(1));
        log.deliver_from(h, 1, 1, at(1));
        log.deliver_from(h, 1, 1, at(2)); // duplicate
        log.deliver_from(h, 1, 9, at(2)); // not owed
        log.close(h, at(2));
        log.close(o, at(0));
        log.expect(10, at(0), 0, &[1]);
        let report = log.audit(at(100), None);
        assert_eq!(report.duplicates, 1);
        assert!(!report.is_clean());
        assert_eq!(report.errors.len(), 2);
    }

    #[test]
    fn audit_classifies_drops_in_flight_and_unpublished() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        // lid 1: dropped on a link.
        let o1 = log.origin(1, 0, at(0));
        log.close(o1, at(0));
        log.drop_at(1, o1, 0, "link-lost", at(0));
        log.expect(1, at(0), 0, &[5]);
        // lid 2: still in flight (open hop span).
        let o2 = log.origin(2, 0, at(1));
        log.close(o2, at(1));
        let _open = log.hop(2, o2, 1, at(2));
        log.expect(2, at(1), 0, &[5]);
        // lid 3: never published (owed after cutoff).
        log.expect(3, at(200), 0, &[5]);
        let report = log.audit(at(100), None);
        assert_eq!(report.dropped.get("link-lost"), Some(&1));
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.unpublished, 1);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn audit_uses_damage_window_for_silent_losses() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        // Fully closed lineage that never reached entity 5: a Subscribe
        // was lost, so the tree had a gap — no drop on *this* lineage.
        let o = log.origin(1, 0, at(10));
        log.close(o, at(10));
        let h = log.hop(1, o, 1, at(11));
        log.close(h, at(11));
        log.expect(1, at(10), 0, &[5]);
        // Outside any damage window this is unexplained...
        let bad = log.audit(at(100), None);
        assert_eq!(bad.unexplained, 1);
        assert!(!bad.is_clean());
        // ...inside it, it's a tree-gap loss.
        let ok = log.audit(at(100), Some((at(5), at(50))));
        assert_eq!(ok.dropped.get("tree-gap"), Some(&1));
        assert!(ok.is_clean(), "{:?}", ok.errors);
    }

    #[test]
    fn duplicate_filter_drops_do_not_explain_losses() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        let h = log.hop(1, o, 1, at(1));
        log.drop_from(h, 1, "client-duplicate-dropped", at(1));
        log.close(h, at(1));
        log.expect(1, at(0), 0, &[5]);
        let report = log.audit(at(100), None);
        // The dup-filter drop must not masquerade as the loss reason.
        assert_eq!(report.unexplained, 1);
    }

    #[test]
    fn mark_dropped_converts_open_hop() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        let h = log.hop(1, o, 1, at(1));
        log.mark_dropped(h, "node-lost", at(2));
        log.expect(1, at(0), 0, &[5]);
        let report = log.audit(at(100), None);
        assert_eq!(report.dropped.get("node-lost"), Some(&1));
        assert_eq!(report.in_flight, 0);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn truncation_voids_the_audit() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig { sample: 1, capacity: 1 });
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        assert_eq!(log.hop(1, o, 1, at(1)), NO_SPAN);
        let report = log.audit(at(100), None);
        assert_eq!(report.truncated, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn fingerprint_is_content_sensitive_and_stable() {
        let build = |reason: &'static str| {
            let mut log = LineageLog::disabled();
            log.enable(LineageConfig::default());
            let o = log.origin(1, 0, at(0));
            log.close(o, at(0));
            log.drop_at(1, o, 0, reason, at(1));
            log.fingerprint()
        };
        assert_eq!(build("link-lost"), build("link-lost"));
        assert_ne!(build("link-lost"), build("node-lost"));
    }

    #[test]
    fn spans_json_shape() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let o = log.origin(7, 3, at(1));
        log.close(o, at(1));
        let h = log.hop(7, o, 4, at(2));
        log.deliver_from(h, 4, 11, at(2));
        let json = log.spans_json().to_string();
        assert!(json.contains("\"event\":\"origin\""), "{json}");
        assert!(json.contains("\"event\":\"deliver\""), "{json}");
        assert!(json.contains("\"entity\":11"), "{json}");
        // Open hop exports null completion timestamps.
        assert!(json.contains("\"t_done\":null"), "{json}");
    }
}
