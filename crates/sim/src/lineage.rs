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
//!
//! A span is 48 bytes: its drop reason is a one-byte index into the log's
//! table of distinct reasons, so at most 255 reasons can be told apart and
//! a 256th fails closed.
//!
//! Spans live in a [`SpanStore`] of fixed segments of `SEGMENT` = 2¹⁸
//! spans (12 MiB), never in one vector that doubles: span `i` is slot
//! `i & (SEGMENT − 1)` of segment `i >> 18`. The first segment grows like
//! a `Vec` from 1 024 slots, so a small log stays small; every later one
//! is allocated once at full size and never moves. The segment table is
//! sized from the capacity bound when the log is enabled, so recording
//! never grows it: past the first segment, each `SEGMENT` spans cost one
//! heap call and no span is ever copied.

use std::collections::BTreeMap;
use std::ops::Index;

use crate::json::Json;
use crate::{fnv1a, SimTime, FNV1A_OFFSET};

/// Sentinel span index meaning "no causal parent" / "not traced".
pub const NO_SPAN: u32 = u32::MAX;

/// Sentinel entity meaning "no terminal entity" (non-`Deliver` spans).
pub const NO_ENTITY: u32 = u32::MAX;

/// How many distinct drop reasons one log can record: a span stores its
/// reason as a `u8` index, and index 0 is the empty reason of every span
/// that is not a drop.
const MAX_DROP_REASONS: usize = u8::MAX as usize;

/// The drop a client's duplicate filter books: it never explains a loss.
const DUPLICATE_FILTERED: &str = "client-duplicate-dropped";

/// Span `i` lives in segment `i >> SEGMENT_BITS`.
const SEGMENT_BITS: u32 = 18;

/// Spans per segment of the span store: 2¹⁸, 12 MiB at 48 bytes a span.
const SEGMENT: usize = 1 << SEGMENT_BITS;

/// Slots the first segment starts with; it doubles up to [`SEGMENT`].
const FIRST_SEGMENT: usize = 1 << 10;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Lineage id of the message this span belongs to.
    pub lineage: u64,
    /// Node the event happened at (receiver for `Hop`).
    pub node: u32,
    /// Index of the causing span, or [`NO_SPAN`] for roots.
    pub cause: u32,
    /// Terminal entity for `Deliver` spans, else [`NO_ENTITY`].
    pub entity: u32,
    /// Drop reason for `Drop` spans, as an index into the log's reason
    /// table; 0 (`""`) otherwise.
    reason: u8,
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

/// The log's spans in creation order, held in fixed segments that never
/// move (see the module docs). Indexed by span id.
#[derive(Debug, Default)]
pub struct SpanStore {
    /// Every segment but the last holds exactly `SEGMENT` spans.
    segments: Vec<Vec<SpanRecord>>,
}

impl SpanStore {
    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The spans in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.segments.iter().flatten()
    }

    fn get(&self, i: usize) -> Option<&SpanRecord> {
        self.segments.get(i >> SEGMENT_BITS)?.get(i & (SEGMENT - 1))
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut SpanRecord> {
        self.segments
            .get_mut(i >> SEGMENT_BITS)?
            .get_mut(i & (SEGMENT - 1))
    }

    /// Room in the segment table for a log of `capacity` spans.
    fn reserve(&mut self, capacity: usize) {
        let segments = capacity.div_ceil(SEGMENT);
        self.segments
            .reserve_exact(segments.saturating_sub(self.segments.len()));
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.segments.last().is_none_or(|s| s.len() == SEGMENT) {
            let slots = if self.segments.is_empty() {
                FIRST_SEGMENT
            } else {
                SEGMENT
            };
            self.segments.push(Vec::with_capacity(slots));
        }
        self.segments
            .last_mut()
            .expect("a segment with room")
            .push(rec);
    }
}

impl Index<usize> for SpanStore {
    type Output = SpanRecord;

    fn index(&self, i: usize) -> &SpanRecord {
        &self.segments[i >> SEGMENT_BITS][i & (SEGMENT - 1)]
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
    /// Clamped to `u32::MAX` spans, so every span id stays below
    /// [`NO_SPAN`].
    pub capacity: usize,
}

impl Default for LineageConfig {
    fn default() -> Self {
        Self {
            sample: 1,
            capacity: 1 << 21,
        }
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
    spans: SpanStore,
    /// The distinct drop reasons seen, in first-use order; index 0 is `""`.
    reasons: Vec<&'static str>,
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
    pub fn enable(&mut self, mut cfg: LineageConfig) {
        // Span ids are `u32`s below `NO_SPAN`: a longer log would hand out
        // `NO_SPAN` and then wrap onto earlier spans, so it truncates first.
        cfg.capacity = cfg.capacity.min(NO_SPAN as usize);
        self.enabled = true;
        self.spans.reserve(cfg.capacity);
        self.cfg = cfg;
        if self.reasons.is_empty() {
            self.reasons.push("");
        }
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
        let id = self.spans.len();
        if id >= self.cfg.capacity {
            self.truncated += 1;
            return NO_SPAN;
        }
        self.spans.push(rec);
        id as u32
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
            reason: 0,
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
            reason: 0,
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
        let reason = self.reason_index(reason);
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
        if self.lineage_of(span).is_none() {
            return;
        }
        let reason = self.reason_index(reason);
        let rec = self.spans.get_mut(span as usize).expect("a traced span");
        rec.event = SpanEvent::Drop;
        rec.reason = reason;
        if rec.t_service_start == SimTime::MAX {
            rec.t_service_start = now;
        }
        rec.t_done = now;
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
            reason: 0,
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
        let reason = self.reason_index(reason);
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
            Expectation {
                t_publish,
                publisher,
                entities: entities.to_vec(),
            },
        );
    }

    /// The index of `reason` in the reason table, added on first use (a
    /// linear scan: a run books a handful of distinct reasons).
    ///
    /// # Panics
    ///
    /// Panics on a reason past the [`MAX_DROP_REASONS`] the one-byte index
    /// can tell apart.
    fn reason_index(&mut self, reason: &'static str) -> u8 {
        let i = match self
            .reasons
            .iter()
            .position(|&r| std::ptr::eq(r, reason) || r == reason)
        {
            Some(i) => i,
            None => {
                assert!(
                    self.reasons.len() <= MAX_DROP_REASONS,
                    "lineage: drop reason {reason:?} would be distinct reason number {}, \
                     past the limit of {MAX_DROP_REASONS} a span's u8 index can tell apart",
                    self.reasons.len()
                );
                self.reasons.push(reason);
                self.reasons.len() - 1
            }
        };
        i as u8
    }

    /// The drop reason of `rec` (`""` for a span that is not a drop).
    fn reason_of(&self, rec: &SpanRecord) -> &'static str {
        self.reasons[usize::from(rec.reason)]
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
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// FNV-1a 64-bit fingerprint over every span. The determinism witness
    /// for the lineage export, mirroring the journal fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_of(self.spans.iter())
    }

    /// The fingerprint fold over `spans`, read through this log's reasons.
    fn fingerprint_of<'a>(&self, spans: impl Iterator<Item = &'a SpanRecord>) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut eat = |bytes: &[u8]| fnv1a(&mut h, bytes);
        for r in spans {
            eat(&r.lineage.to_le_bytes());
            eat(&r.node.to_le_bytes());
            eat(&r.cause.to_le_bytes());
            eat(&r.entity.to_le_bytes());
            eat(self.reason_of(r).as_bytes());
            eat(r.event.as_str().as_bytes());
            eat(&r.t_enqueue.as_nanos().to_le_bytes());
            eat(&r.t_service_start.as_nanos().to_le_bytes());
            eat(&r.t_done.as_nanos().to_le_bytes());
        }
        h
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
        // The books, flat: the expectations in lineage order, one view per
        // lineage, and one delivery counter per owed pair, at the lineage's
        // `base` plus the entity's slot in its owed list.
        let owed: Vec<(u64, &Expectation)> = self
            .expectations
            .iter()
            .map(|(&lid, exp)| (lid, exp))
            .collect();
        let mut views = Vec::with_capacity(owed.len());
        let mut pairs = 0;
        for (_, exp) in &owed {
            views.push(LineageView {
                base: pairs,
                seen: false,
                drop_reason: None,
                open: 0,
            });
            pairs += exp.entities.len();
        }
        let mut delivered = vec![0u32; pairs];
        // Deliveries to entities a lineage was not owed to, by (lineage
        // position, entity): the error path, empty on a clean run.
        let mut unexpected: BTreeMap<(usize, u32), u32> = BTreeMap::new();
        let duplicate_filtered = self.reasons.iter().position(|&r| r == DUPLICATE_FILTERED);

        for rec in self.spans.iter() {
            let Ok(i) = owed.binary_search_by_key(&rec.lineage, |&(lid, _)| lid) else {
                continue;
            };
            let v = &mut views[i];
            v.seen = true;
            match rec.event {
                SpanEvent::Deliver => {
                    let exp = owed[i].1;
                    match owed_slot(&exp.entities, rec.entity) {
                        Some(slot) => delivered[v.base + slot] += 1,
                        // The publisher's own loopback copy is no error.
                        None if rec.entity == exp.publisher => {}
                        None => *unexpected.entry((i, rec.entity)).or_insert(0) += 1,
                    }
                }
                SpanEvent::Drop => {
                    if v.drop_reason.is_none()
                        && Some(usize::from(rec.reason)) != duplicate_filtered
                    {
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

        let mut report = AuditReport {
            truncated: self.truncated,
            ..AuditReport::default()
        };
        report.lineages = owed.len() as u64;
        let mut unexpected = unexpected.into_iter().peekable();
        for (i, (&(lid, exp), v)) in owed.iter().zip(&views).enumerate() {
            while let Some(((_, entity), n)) = unexpected.next_if(|&((j, _), _)| j == i) {
                report.error(format!(
                    "lineage {lid}: delivered {n}x to unexpected entity {entity}"
                ));
            }
            // `None` only when the lineage left no span at all.
            let view = v.seen.then_some(v);
            for &entity in &exp.entities {
                report.total_pairs += 1;
                let slot = owed_slot(&exp.entities, entity).expect("an owed entity has a slot");
                let n = delivered[v.base + slot];
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
                    Some(LineageView {
                        drop_reason: Some(r),
                        ..
                    }) => {
                        *report
                            .dropped
                            .entry(self.reasons[usize::from(*r)])
                            .or_insert(0) += 1;
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

/// The slot of `entity` in an owed list: a binary search, which settles a
/// sorted list, then a linear scan, since nothing requires one. Any slot
/// holding `entity` will do, as long as every lookup picks the same one.
fn owed_slot(owed: &[u32], entity: u32) -> Option<usize> {
    owed.binary_search(&entity)
        .ok()
        .or_else(|| owed.iter().position(|&e| e == entity))
}

fn in_window(t: SimTime, damage: Option<(SimTime, SimTime)>) -> bool {
    match damage {
        Some((lo, hi)) => t >= lo && t <= hi,
        None => false,
    }
}

/// One lineage's books in [`LineageLog::audit`].
struct LineageView {
    /// Where the lineage's delivery counters start.
    base: usize,
    /// Whether any span of the lineage was recorded.
    seen: bool,
    /// The first drop that explains a loss, as a reason-table index.
    drop_reason: Option<u8>,
    /// Origin and hop spans still open.
    open: u32,
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
        out.push_str(&format!("  {:<28} {:>10} {:>8}\n", "class", "pairs", "%"));
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
        log.enable(LineageConfig {
            sample: 2,
            capacity: 1024,
        });
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
        log.enable(LineageConfig {
            sample: 1,
            capacity: 1,
        });
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        assert_eq!(log.hop(1, o, 1, at(1)), NO_SPAN);
        let report = log.audit(at(100), None);
        assert_eq!(report.truncated, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn spans_across_a_segment_boundary_behave_as_one_vector() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let b = SEGMENT as u32;
        // A model span; `t` is its enqueue time, then service start and
        // done when it is closed.
        let span = |lineage, node, cause, entity, reason, event, t: &[u64]| SpanRecord {
            lineage,
            node,
            cause,
            entity,
            reason,
            event,
            t_enqueue: at(t[0]),
            t_service_start: t.get(1).map_or(SimTime::MAX, |&ms| at(ms)),
            t_done: t.get(2).map_or(SimTime::MAX, |&ms| at(ms)),
        };
        // Unowed open origins fill segment 0 up to its last four slots.
        let filler = span(0, 0, NO_SPAN, NO_ENTITY, 0, SpanEvent::Origin, &[0]);
        for _ in 0..SEGMENT - 4 {
            log.origin(0, 0, at(0));
        }
        let o = log.origin(1, 0, at(1));
        let h1 = log.hop(1, o, 1, at(2));
        let g = log.origin(2, 0, at(1));
        let y = log.origin(3, 0, at(1));
        // Segment 1, every cause in segment 0 but `d2`'s.
        let h2 = log.hop(1, h1, 2, at(3));
        let d1 = log.deliver_from(h1, 1, 10, at(4));
        let d2 = log.deliver_from(h2, 2, 11, at(5));
        let x = log.hop(2, g, 3, at(2));
        assert_eq!([o, h1, g, y], [b - 4, b - 3, b - 2, b - 1]);
        assert_eq!([h2, d1, d2, x], [b, b + 1, b + 2, b + 3]);
        log.close(o, at(1));
        log.service_start(h1, at(3));
        log.close(h1, at(4));
        log.close(g, at(1));
        log.mark_dropped(y, "node-lost", at(2));
        log.service_start(h2, at(4));
        log.close(h2, at(5));
        log.mark_dropped(x, "link-lost", at(3));

        let mut model = vec![filler; SEGMENT - 4];
        model.extend([
            span(1, 0, NO_SPAN, NO_ENTITY, 0, SpanEvent::Origin, &[1, 1, 1]),
            span(1, 1, o, NO_ENTITY, 0, SpanEvent::Hop, &[2, 3, 4]),
            span(2, 0, NO_SPAN, NO_ENTITY, 0, SpanEvent::Origin, &[1, 1, 1]),
            span(3, 0, NO_SPAN, NO_ENTITY, 1, SpanEvent::Drop, &[1, 2, 2]),
            span(1, 2, h1, NO_ENTITY, 0, SpanEvent::Hop, &[3, 4, 5]),
            span(1, 1, h1, 10, 0, SpanEvent::Deliver, &[4, 4, 4]),
            span(1, 2, h2, 11, 0, SpanEvent::Deliver, &[5, 5, 5]),
            span(2, 3, g, NO_ENTITY, 2, SpanEvent::Drop, &[2, 3, 3]),
        ]);
        let spans = log.spans();
        assert_eq!(spans.len(), SEGMENT + 4);
        assert!(spans.iter().eq(&model));
        assert!((0..model.len()).all(|i| spans[i] == model[i]));
        assert_eq!(log.fingerprint(), log.fingerprint_of(model.iter()));

        log.expect(1, at(1), 0, &[10, 11]);
        log.expect(2, at(1), 0, &[12]);
        log.expect(3, at(1), 0, &[13]);
        let report = log.audit(at(100), None);
        assert_eq!(report.delivered, 2);
        assert_eq!(report.dropped.get("link-lost"), Some(&1));
        assert_eq!(report.dropped.get("node-lost"), Some(&1));
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn a_capacity_of_one_segment_truncates_at_the_boundary() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: 1,
            capacity: SEGMENT,
        });
        for _ in 0..SEGMENT {
            log.origin(1, 0, at(0));
        }
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN);
        assert_eq!(log.spans().len(), SEGMENT);
        assert_eq!(log.spans.segments.len(), 1);
        assert_eq!(log.audit(at(100), None).truncated, 1);
    }

    #[test]
    fn span_ids_never_reach_no_span() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: 1,
            capacity: usize::MAX,
        });
        assert_eq!(log.cfg.capacity, NO_SPAN as usize);
        // A log one span short of `u32::MAX`, its full segments stood in
        // by empty ones: the store counts every segment but the last full.
        let held = NO_SPAN as usize - 1;
        let first = log.origin(1, 0, at(0));
        let filler = log.spans()[first as usize].clone();
        log.spans.segments = vec![Vec::new(); held / SEGMENT];
        log.spans.segments.push(vec![filler; held % SEGMENT]);
        assert_eq!(log.spans().len(), held);
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN - 1);
        // The next id would be the sentinel: the log truncates instead.
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN);
        assert_eq!(log.spans().len(), NO_SPAN as usize);
        assert_eq!(log.audit(at(100), None).truncated, 1);
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
    #[should_panic(expected = "past the limit of 255")]
    fn a_256th_distinct_drop_reason_fails_closed() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        let o = log.origin(1, 0, at(0));
        let leaked = |i: usize| -> &'static str { Box::leak(format!("r{i}").into_boxed_str()) };
        for i in 1..=MAX_DROP_REASONS {
            log.drop_from(o, 0, leaked(i), at(1));
        }
        // All 255 read back, and an equal string at another address is
        // the same reason, not a 256th.
        let reasons: Vec<&str> = log.spans().iter().map(|s| log.reason_of(s)).collect();
        assert_eq!((reasons[1], reasons[255]), ("r1", "r255"));
        log.drop_from(o, 0, leaked(1), at(2));
        log.drop_from(o, 0, "", at(2));
        log.drop_from(o, 0, leaked(256), at(3));
    }
}
