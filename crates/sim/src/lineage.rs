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
//! Beside the spans sits the **delivery auditor** ([`LineageLog::audit`]):
//! experiments register, before the first span, the set of subscribers
//! each message is owed to ([`LineageLog::expect`]), and after the run
//! every `(message, subscriber)` pair is classified as delivered
//! exactly-once, dropped (with the drop-reason taxonomy), in-flight at
//! cutoff, lost to a subscription-tree gap inside the fault damage window,
//! or unpublished (owed after the horizon). Duplicates and unexplained
//! losses are hard errors — see [`AuditReport::is_clean`].
//!
//! The auditor's books are kept as spans are recorded, not in a pass over
//! them: per owed lineage, whether any span was seen, its oldest
//! explaining drop by span id, and its open origin and hop spans, plus one
//! delivery counter per owed pair. Every recording call updates them, so
//! `audit` only classifies, in O(owed pairs).
//!
//! Like the journal, the log is sampleable (1-in-n by lineage id, so a
//! sampled message keeps its *entire* causal tree) and bounded; runs of
//! the same seed produce byte-identical exports ([`LineageLog::fingerprint`]).
//! The fingerprint is an FNV-1a fold in span-id order, advanced by a
//! *cursor* over the oldest span still open: a span never changes once
//! closed, so folding it as the cursor passes gives the value a fold at
//! the end would. Reading the fingerprint continues the fold over the
//! spans from the cursor on, open ones included.
//!
//! A span is 64 bytes, its drop reason the `&'static str` it was given.
//!
//! Spans live in a [`SpanStore`]: one ring buffer of `RETAIN` = 2¹⁴ slots
//! (1 MiB), reserved when the log is enabled. It holds the *live window* —
//! the spans from the cursor to the newest — and the closed spans behind
//! the cursor until the buffer fills: a push into a full buffer first
//! retires those, so memory follows the spans in flight, not the spans ever
//! recorded, and a log of at most `RETAIN` spans keeps every one. A window
//! wider than the buffer grows it like a `Vec`. [`LineageConfig::capacity`]
//! bounds the live window.
//!
//! The recording calls fail closed on a span they cannot honour: `close`,
//! `mark_dropped` and `service_start` want an open span, `deliver_from` and
//! `drop_from` an open cause, and `expect` comes before the first span.

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Index, Range};

use crate::json::Json;
use crate::{fnv1a, SimTime, FNV1A_OFFSET};

/// Sentinel span index meaning "no causal parent" / "not traced".
pub const NO_SPAN: u32 = u32::MAX;

/// Sentinel entity meaning "no terminal entity" (non-`Deliver` spans).
pub const NO_ENTITY: u32 = u32::MAX;

/// The drop a client's duplicate filter books: it never explains a loss.
const DUPLICATE_FILTERED: &str = "client-duplicate-dropped";

/// Slots the span store reserves when the log is enabled: 2¹⁴, 1 MiB at
/// 64 bytes a span.
const RETAIN: usize = 1 << 14;

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
    /// Drop reason for `Drop` spans; `""` otherwise.
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

/// The log's spans in creation order, holding the live window and the
/// closed spans behind it not yet retired (see the module docs). Indexed by
/// span id.
#[derive(Debug, Default)]
pub struct SpanStore {
    /// The held spans, oldest first.
    held: VecDeque<SpanRecord>,
    /// Id of `held[0]`.
    first: usize,
    /// The oldest span still open, or `len()` when none is.
    cursor: usize,
}

impl SpanStore {
    /// Number of spans ever recorded, retired ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.first + self.held.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans still held, in creation order: the live window, after the
    /// closed spans not yet retired.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.held.iter()
    }

    /// The live window: every span from the cursor on.
    fn live(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.held.range(self.cursor - self.first..)
    }

    fn get(&self, i: usize) -> Option<&SpanRecord> {
        self.held.get(i.checked_sub(self.first)?)
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut SpanRecord> {
        self.held.get_mut(i.checked_sub(self.first)?)
    }

    /// Appends `rec`, retiring the closed spans behind the cursor first
    /// when the buffer is full.
    fn push(&mut self, rec: SpanRecord) {
        if self.held.len() == self.held.capacity() {
            self.held.drain(..self.cursor - self.first);
            self.first = self.cursor;
        }
        self.held.push_back(rec);
    }

    /// Moves the cursor past the closed spans at it, handing each to
    /// `fold`.
    fn advance(&mut self, mut fold: impl FnMut(&SpanRecord)) {
        while let Some(rec) = self.get(self.cursor).filter(|r| !r.is_open()) {
            fold(rec);
            self.cursor += 1;
        }
    }
}

impl Index<usize> for SpanStore {
    type Output = SpanRecord;

    fn index(&self, i: usize) -> &SpanRecord {
        self.get(i).unwrap_or_else(|| {
            panic!(
                "span {i} is not held: the store holds spans {}..{}",
                self.first,
                self.len()
            )
        })
    }
}

/// Configuration for the lineage log.
#[derive(Debug, Clone)]
pub struct LineageConfig {
    /// Keep lineages whose id satisfies `id % sample == 0`; `1` keeps all.
    /// Sampling is by lineage (not by span), so a kept message keeps its
    /// entire causal tree — the auditor stays sound over the sample.
    pub sample: u64,
    /// Widest live window — spans from the oldest still open to the
    /// newest — the log holds. A span that would widen it past this is
    /// counted as truncated instead of recorded; a truncated log fails the
    /// audit. Span ids also truncate before reaching [`NO_SPAN`].
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

/// One owed lineage in the auditor's books: what it owes, and what its
/// spans have shown so far.
#[derive(Debug)]
struct Owed {
    lineage: u64,
    t_publish: SimTime,
    publisher: u32,
    /// Where its owed list sits in [`Books::entities`], and its delivery
    /// counters in [`Books::delivered`].
    pairs: Range<usize>,
    /// Whether any span of the lineage was recorded.
    seen: bool,
    /// Origin and hop spans still open.
    open: u32,
    /// The oldest drop span that explains a loss, or [`NO_SPAN`].
    first_drop: u32,
    /// That drop's reason.
    drop_reason: &'static str,
}

/// The delivery auditor's books, flat and updated as spans are recorded.
#[derive(Debug, Default)]
struct Books {
    /// The owed lineages in lineage order, one entry each.
    lineages: Vec<Owed>,
    /// The owed lists back to back.
    entities: Vec<u32>,
    /// One delivery counter per entry of `entities`.
    delivered: Vec<u32>,
    /// Deliveries to entities a lineage was not owed to, by (lineage
    /// position, entity): the error path, empty on a clean run.
    unexpected: BTreeMap<(usize, u32), u32>,
}

impl Books {
    /// Registers what `lineage` owes; a second registration replaces the
    /// first, whose owed list is left unread.
    fn register(&mut self, lineage: u64, t_publish: SimTime, publisher: u32, entities: &[u32]) {
        let start = self.entities.len();
        self.entities.extend_from_slice(entities);
        self.delivered.resize(self.entities.len(), 0);
        let owed = Owed {
            lineage,
            t_publish,
            publisher,
            pairs: start..self.entities.len(),
            seen: false,
            open: 0,
            first_drop: NO_SPAN,
            drop_reason: "",
        };
        match self.lineages.binary_search_by_key(&lineage, |o| o.lineage) {
            Ok(i) => self.lineages[i] = owed,
            Err(i) => self.lineages.insert(i, owed),
        }
    }

    /// The position of `lineage` in the books, if it owes anything. Ids
    /// dense from 0 — a trace's publication indices — are found without a
    /// search.
    fn find(&self, lineage: u64) -> Option<usize> {
        usize::try_from(lineage)
            .ok()
            .filter(|&i| self.lineages.get(i).is_some_and(|o| o.lineage == lineage))
            .or_else(|| {
                self.lineages
                    .binary_search_by_key(&lineage, |o| o.lineage)
                    .ok()
            })
    }

    /// Books span `id`, just recorded as `rec`, on lineage position `i`;
    /// `explains` says whether it is a drop that explains a loss.
    fn record(&mut self, i: usize, id: u32, rec: &SpanRecord, explains: bool) {
        let o = &mut self.lineages[i];
        o.seen = true;
        match rec.event {
            SpanEvent::Origin | SpanEvent::Hop => o.open += 1,
            SpanEvent::Drop if explains => o.explained_by(id, rec.reason),
            SpanEvent::Drop => {}
            SpanEvent::Deliver => {
                let owed = &self.entities[o.pairs.clone()];
                match owed_slot(owed, rec.entity) {
                    Some(slot) => self.delivered[o.pairs.start + slot] += 1,
                    // The publisher's own loopback copy is no error.
                    None if rec.entity == o.publisher => {}
                    None => *self.unexpected.entry((i, rec.entity)).or_insert(0) += 1,
                }
            }
        }
    }
}

impl Owed {
    /// Books drop span `id` as the loss explanation unless an older one is.
    fn explained_by(&mut self, id: u32, reason: &'static str) {
        if id < self.first_drop {
            self.first_drop = id;
            self.drop_reason = reason;
        }
    }
}

/// The lineage span log. Owned by the simulator; disabled (and free) by
/// default, enabled via `Simulator::enable_lineage`.
#[derive(Debug)]
pub struct LineageLog {
    enabled: bool,
    cfg: LineageConfig,
    spans: SpanStore,
    truncated: u64,
    /// The fingerprint fold over every span behind the cursor.
    folded: u64,
    books: Books,
}

impl Default for LineageLog {
    fn default() -> Self {
        Self {
            enabled: false,
            cfg: LineageConfig::default(),
            spans: SpanStore::default(),
            truncated: 0,
            folded: FNV1A_OFFSET,
            books: Books::default(),
        }
    }
}

impl LineageLog {
    /// A disabled log; every recording call is a cheap no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self, mut cfg: LineageConfig) {
        // No live window is wider than the id space.
        cfg.capacity = cfg.capacity.min(NO_SPAN as usize);
        self.enabled = true;
        let held = &mut self.spans.held;
        held.reserve_exact(RETAIN.saturating_sub(held.len()));
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

    /// Records `rec` as the next span and books it, or counts it truncated
    /// when its id would reach [`NO_SPAN`] or the live window is full.
    fn push(&mut self, rec: SpanRecord) -> u32 {
        let id = self.spans.len();
        if id >= NO_SPAN as usize || id - self.spans.cursor >= self.cfg.capacity {
            self.truncated += 1;
            return NO_SPAN;
        }
        let id = id as u32;
        if let Some(i) = self.books.find(rec.lineage) {
            let explains = Self::explains(&rec);
            self.books.record(i, id, &rec, explains);
        }
        let closed = !rec.is_open();
        self.spans.push(rec);
        if closed {
            self.settle();
        }
        id
    }

    /// Whether `rec` is a drop that explains a loss: any but the client's
    /// duplicate filter.
    fn explains(rec: &SpanRecord) -> bool {
        rec.event == SpanEvent::Drop && rec.reason != DUPLICATE_FILTERED
    }

    /// Advances the cursor over the closed spans at it, folding each into
    /// the fingerprint.
    fn settle(&mut self) {
        let folded = &mut self.folded;
        self.spans.advance(|rec| fold(folded, rec));
    }

    /// The open span `span` for `op` to act on; `None` for an untraced
    /// copy ([`NO_SPAN`]).
    ///
    /// # Panics
    ///
    /// Panics, naming `op` and the span, when `span` is closed, retired or
    /// was never recorded.
    fn open_span(&mut self, span: u32, op: &str) -> Option<&mut SpanRecord> {
        if span == NO_SPAN {
            return None;
        }
        let (first, len) = (self.spans.first, self.spans.len());
        match self.spans.get_mut(span as usize) {
            Some(rec) if rec.is_open() => Some(rec),
            Some(_) => panic!("lineage: {op} on span {span}, which is closed"),
            None if (span as usize) < first => {
                panic!("lineage: {op} on span {span}, which is closed and retired")
            }
            None => panic!("lineage: {op} on span {span}, which was never recorded ({len} were)"),
        }
    }

    /// Books the end of span `span`, just closed or converted to a drop,
    /// and advances the cursor.
    fn closed(&mut self, span: u32) {
        let rec = &self.spans[span as usize];
        let explains = Self::explains(rec);
        if let Some(i) = self.books.find(rec.lineage) {
            let o = &mut self.books.lineages[i];
            o.open -= 1;
            if explains {
                o.explained_by(span, rec.reason);
            }
        }
        self.settle();
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
    ///
    /// # Panics
    ///
    /// Panics when `span` is traced but not open.
    #[inline]
    pub fn service_start(&mut self, span: u32, now: SimTime) {
        if let Some(rec) = self.open_span(span, "service_start") {
            rec.t_service_start = now;
        }
    }

    /// Closes a span: the copy finished processing at its node.
    ///
    /// # Panics
    ///
    /// Panics when `span` is traced but not open.
    #[inline]
    pub fn close(&mut self, span: u32, now: SimTime) {
        let Some(rec) = self.open_span(span, "close") else {
            return;
        };
        if rec.t_service_start == SimTime::MAX {
            rec.t_service_start = now;
        }
        rec.t_done = now;
        self.closed(span);
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
    ///
    /// # Panics
    ///
    /// Panics when `span` is traced but not open.
    pub fn mark_dropped(&mut self, span: u32, reason: &'static str, now: SimTime) {
        let Some(rec) = self.open_span(span, "mark_dropped") else {
            return;
        };
        rec.event = SpanEvent::Drop;
        rec.reason = reason;
        if rec.t_service_start == SimTime::MAX {
            rec.t_service_start = now;
        }
        rec.t_done = now;
        self.closed(span);
    }

    /// Records a terminal delivery to `entity`, caused by `cause_span`
    /// (the hop span being serviced). No-op when the cause is untraced.
    ///
    /// # Panics
    ///
    /// Panics when `cause_span` is traced but not open.
    pub fn deliver_from(&mut self, cause_span: u32, node: u32, entity: u32, now: SimTime) -> u32 {
        let Some(cause) = self.open_span(cause_span, "deliver_from") else {
            return NO_SPAN;
        };
        let lineage = cause.lineage;
        self.push(SpanRecord {
            lineage,
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
    ///
    /// # Panics
    ///
    /// Panics when `cause_span` is traced but not open.
    pub fn drop_from(&mut self, cause_span: u32, node: u32, reason: &'static str, now: SimTime) {
        let Some(cause) = self.open_span(cause_span, "drop_from") else {
            return;
        };
        let lineage = cause.lineage;
        self.push(SpanRecord {
            lineage,
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
    /// `t_publish`, owed to each of `entities` exactly once; a second call
    /// for `lid` replaces the first. Respects sampling so the audit
    /// universe matches the recorded universe.
    ///
    /// # Panics
    ///
    /// Panics once a span was recorded: the books count spans as they
    /// come, so a lineage registered later would miss its earlier ones.
    pub fn expect(&mut self, lid: u64, t_publish: SimTime, publisher: u32, entities: &[u32]) {
        assert!(
            self.spans.is_empty(),
            "lineage: expect for lineage {lid} after {} spans were recorded; \
             register every expectation before the run",
            self.spans.len()
        );
        if !self.sampled(lid) {
            return;
        }
        self.books.register(lid, t_publish, publisher, entities);
    }

    /// Reserves the books for `lineages` more [`expect`](Self::expect)
    /// calls owing `pairs` pairs in all, so registering them grows no
    /// vector. Sized exactly, the books hold the same bytes whatever the
    /// length of the first owed list, which amortised doubling would
    /// otherwise follow.
    pub fn reserve_expectations(&mut self, lineages: usize, pairs: usize) {
        self.books.lineages.reserve_exact(lineages);
        self.books.entities.reserve_exact(pairs);
        self.books.delivered.reserve_exact(pairs);
    }

    /// The spans recorded: their count, and the live window still held.
    #[must_use]
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// FNV-1a 64-bit fingerprint over every span ever recorded, in id
    /// order: the cursor's fold, continued over the live window. The
    /// determinism witness for the lineage log, mirroring the journal
    /// fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.folded;
        for rec in self.spans.live() {
            fold(&mut h, rec);
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
        let books = &self.books;
        let mut report = AuditReport {
            lineages: books.lineages.len() as u64,
            truncated: self.truncated,
            ..AuditReport::default()
        };
        let mut unexpected = books.unexpected.iter().peekable();
        for (i, o) in books.lineages.iter().enumerate() {
            let lid = o.lineage;
            while let Some((&(_, entity), n)) = unexpected.next_if(|&(&(j, _), _)| j == i) {
                report.error(format!(
                    "lineage {lid}: delivered {n}x to unexpected entity {entity}"
                ));
            }
            let owed = &books.entities[o.pairs.clone()];
            let delivered = &books.delivered[o.pairs.clone()];
            for &entity in owed {
                report.total_pairs += 1;
                let slot = owed_slot(owed, entity).expect("an owed entity has a slot");
                let n = delivered[slot];
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
                if o.first_drop != NO_SPAN {
                    *report.dropped.entry(o.drop_reason).or_insert(0) += 1;
                } else if o.open > 0 {
                    report.in_flight += 1;
                } else if in_window(o.t_publish, damage) {
                    *report.dropped.entry("tree-gap").or_insert(0) += 1;
                } else if !o.seen && o.t_publish >= cutoff {
                    report.unpublished += 1;
                } else {
                    report.unexplained += 1;
                    report.error(format!(
                        "lineage {lid}: loss to entity {entity} is unexplained \
                         (published {}, no drop, no open span)",
                        o.t_publish
                    ));
                }
            }
        }
        report
    }
}

/// Folds every field of `rec` into the FNV-1a state `h`.
fn fold(h: &mut u64, rec: &SpanRecord) {
    let mut eat = |bytes: &[u8]| fnv1a(h, bytes);
    eat(&rec.lineage.to_le_bytes());
    eat(&rec.node.to_le_bytes());
    eat(&rec.cause.to_le_bytes());
    eat(&rec.entity.to_le_bytes());
    eat(rec.reason.as_bytes());
    eat(rec.event.as_str().as_bytes());
    eat(&rec.t_enqueue.as_nanos().to_le_bytes());
    eat(&rec.t_service_start.as_nanos().to_le_bytes());
    eat(&rec.t_done.as_nanos().to_le_bytes());
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

    /// The fingerprint fold over `spans`.
    fn fold_all<'a>(spans: impl Iterator<Item = &'a SpanRecord>) -> u64 {
        let mut h = FNV1A_OFFSET;
        for rec in spans {
            fold(&mut h, rec);
        }
        h
    }

    /// An enabled log with every span id kept.
    fn enabled() -> LineageLog {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig::default());
        log
    }

    /// An enabled log whose span 0 is retired: `RETAIN` closed origins
    /// fill the store, and one more retires them.
    fn with_span_0_retired() -> LineageLog {
        let mut log = enabled();
        for _ in 0..=RETAIN {
            let o = log.origin(1, 0, at(0));
            log.close(o, at(0));
        }
        assert!(log.spans().get(0).is_none());
        log
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
        let mut log = enabled();
        // lid 10: published by entity 0, owed to entities 1 and 2.
        log.expect(10, at(0), 0, &[1, 2]);
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
        let report = log.audit(at(100), None);
        assert_eq!(report.total_pairs, 2);
        assert_eq!(report.delivered, 2);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn audit_flags_duplicates_and_unexpected() {
        let mut log = enabled();
        log.expect(10, at(0), 0, &[1]);
        let o = log.origin(10, 0, at(0));
        let h = log.hop(10, o, 1, at(1));
        log.deliver_from(h, 1, 1, at(1));
        log.deliver_from(h, 1, 1, at(2)); // duplicate
        log.deliver_from(h, 1, 9, at(2)); // not owed
        log.close(h, at(2));
        log.close(o, at(0));
        let report = log.audit(at(100), None);
        assert_eq!(report.duplicates, 1);
        assert!(!report.is_clean());
        assert_eq!(report.errors.len(), 2);
    }

    #[test]
    fn audit_classifies_drops_in_flight_and_unpublished() {
        let mut log = enabled();
        log.expect(1, at(0), 0, &[5]);
        log.expect(2, at(1), 0, &[5]);
        log.expect(3, at(200), 0, &[5]);
        // lid 1: dropped on a link.
        let o1 = log.origin(1, 0, at(0));
        log.close(o1, at(0));
        log.drop_at(1, o1, 0, "link-lost", at(0));
        // lid 2: still in flight (open hop span).
        let o2 = log.origin(2, 0, at(1));
        log.close(o2, at(1));
        let _open = log.hop(2, o2, 1, at(2));
        // lid 3: never published (owed after cutoff).
        let report = log.audit(at(100), None);
        assert_eq!(report.dropped.get("link-lost"), Some(&1));
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.unpublished, 1);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn audit_uses_damage_window_for_silent_losses() {
        let mut log = enabled();
        log.expect(1, at(10), 0, &[5]);
        // Fully closed lineage that never reached entity 5: a Subscribe
        // was lost, so the tree had a gap — no drop on *this* lineage.
        let o = log.origin(1, 0, at(10));
        log.close(o, at(10));
        let h = log.hop(1, o, 1, at(11));
        log.close(h, at(11));
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
        let mut log = enabled();
        log.expect(1, at(0), 0, &[5]);
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        let h = log.hop(1, o, 1, at(1));
        log.drop_from(h, 1, "client-duplicate-dropped", at(1));
        log.close(h, at(1));
        let report = log.audit(at(100), None);
        // The dup-filter drop must not masquerade as the loss reason.
        assert_eq!(report.unexplained, 1);
    }

    #[test]
    fn mark_dropped_converts_open_hop() {
        let mut log = enabled();
        log.expect(1, at(0), 0, &[5]);
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        let h = log.hop(1, o, 1, at(1));
        log.mark_dropped(h, "node-lost", at(2));
        let report = log.audit(at(100), None);
        assert_eq!(report.dropped.get("node-lost"), Some(&1));
        assert_eq!(report.in_flight, 0);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn an_older_mark_dropped_explains_before_a_newer_drop() {
        let mut log = enabled();
        log.expect(1, at(0), 0, &[5]);
        let o = log.origin(1, 0, at(0));
        let h = log.hop(1, o, 1, at(1));
        // The drop record (span 2) is booked first, the conversion of the
        // older hop (span 1) second: the older span explains the loss.
        log.drop_from(o, 0, "queue-full", at(1));
        log.mark_dropped(h, "node-lost", at(2));
        log.close(o, at(2));
        let report = log.audit(at(100), None);
        assert_eq!(report.dropped.get("node-lost"), Some(&1));
        assert_eq!(report.dropped.get("queue-full"), None);
    }

    #[test]
    fn truncation_voids_the_audit() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: 1,
            capacity: 1,
        });
        // The open origin fills the live window.
        let o = log.origin(1, 0, at(0));
        assert_eq!(log.hop(1, o, 1, at(1)), NO_SPAN);
        let report = log.audit(at(100), None);
        assert_eq!(report.truncated, 1);
        assert!(!report.is_clean());
        // Closing it empties the window again.
        log.close(o, at(1));
        assert_eq!(log.hop(1, o, 1, at(1)), 1);
    }

    #[test]
    fn a_log_past_retain_reads_as_one_vector() {
        let mut log = enabled();
        log.expect(1, at(1), 0, &[10, 11]);
        log.expect(2, at(1), 0, &[12]);
        log.expect(3, at(1), 0, &[13]);
        let b = RETAIN as u32;
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
        // Unowed open origins fill the store up to its last four slots.
        let filler = span(0, 0, NO_SPAN, NO_ENTITY, "", SpanEvent::Origin, &[0]);
        for _ in 0..RETAIN - 4 {
            log.origin(0, 0, at(0));
        }
        let o = log.origin(1, 0, at(1));
        let h1 = log.hop(1, o, 1, at(2));
        let g = log.origin(2, 0, at(1));
        let y = log.origin(3, 0, at(1));
        // Past `RETAIN`, with span 0 open: the store grows, retiring nothing.
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

        let mut model = vec![filler; RETAIN - 4];
        model.extend([
            span(1, 0, NO_SPAN, NO_ENTITY, "", SpanEvent::Origin, &[1, 1, 1]),
            span(1, 1, o, NO_ENTITY, "", SpanEvent::Hop, &[2, 3, 4]),
            span(2, 0, NO_SPAN, NO_ENTITY, "", SpanEvent::Origin, &[1, 1, 1]),
            span(
                3,
                0,
                NO_SPAN,
                NO_ENTITY,
                "node-lost",
                SpanEvent::Drop,
                &[1, 2, 2],
            ),
            span(1, 2, h1, NO_ENTITY, "", SpanEvent::Hop, &[3, 4, 5]),
            span(1, 1, h1, 10, "", SpanEvent::Deliver, &[4, 4, 4]),
            span(1, 2, h2, 11, "", SpanEvent::Deliver, &[5, 5, 5]),
            span(2, 3, g, NO_ENTITY, "link-lost", SpanEvent::Drop, &[2, 3, 3]),
        ]);
        let spans = log.spans();
        assert_eq!(spans.len(), RETAIN + 4);
        assert!(spans.iter().eq(&model));
        assert!((0..model.len()).all(|i| spans[i] == model[i]));
        assert_eq!(log.fingerprint(), fold_all(model.iter()));

        let report = log.audit(at(100), None);
        assert_eq!(report.delivered, 2);
        assert_eq!(report.dropped.get("link-lost"), Some(&1));
        assert_eq!(report.dropped.get("node-lost"), Some(&1));
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn closed_segments_retire_and_the_fold_is_unchanged() {
        let mut log = enabled();
        // A full store, every span closed but the one in the middle.
        let mid = RETAIN / 2;
        for i in 0..RETAIN {
            let o = log.origin(7, 0, at(0));
            if i != mid {
                log.close(o, at(1));
            }
        }
        let mut model: Vec<SpanRecord> = log.spans().iter().cloned().collect();
        assert_eq!(model.len(), RETAIN);
        // The next push retires the closed spans behind the open one.
        let next = log.origin(7, 0, at(2)) as usize;
        model.push(log.spans()[next].clone());
        assert_eq!(log.spans().len(), RETAIN + 1);
        assert!(log.spans().get(0).is_none());
        assert!(log.spans().get(mid - 1).is_none());
        assert!(log.spans().iter().eq(&model[mid..]));
        // Open at the end or closed, the fold is the fold of every span.
        assert_eq!(log.fingerprint(), fold_all(model.iter()));
        for (s, t) in [(mid, 3), (next, 4)] {
            log.close(s as u32, at(t));
            model[s].t_service_start = at(t);
            model[s].t_done = at(t);
        }
        assert_eq!(log.fingerprint(), fold_all(model.iter()));
    }

    #[test]
    fn span_ids_never_reach_no_span() {
        let mut log = LineageLog::disabled();
        log.enable(LineageConfig {
            sample: 1,
            capacity: usize::MAX,
        });
        assert_eq!(log.cfg.capacity, NO_SPAN as usize);
        // A log one span short of `u32::MAX`, every span closed: the store
        // holds only the last of them.
        let held = NO_SPAN as usize - 1;
        let first = log.origin(1, 0, at(0));
        log.close(first, at(0));
        let filler = log.spans()[first as usize].clone();
        let store = &mut log.spans;
        store.held = VecDeque::from([filler]);
        (store.first, store.cursor) = (held - 1, held);
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN - 1);
        // The next id would be the sentinel: the log truncates instead.
        assert_eq!(log.origin(1, 0, at(0)), NO_SPAN);
        assert_eq!(log.spans().len(), NO_SPAN as usize);
        assert_eq!(log.audit(at(100), None).truncated, 1);
    }

    #[test]
    fn fingerprint_is_content_sensitive_and_stable() {
        let build = |reason: &'static str| {
            let mut log = enabled();
            let o = log.origin(1, 0, at(0));
            log.close(o, at(0));
            log.drop_at(1, o, 0, reason, at(1));
            log.fingerprint()
        };
        assert_eq!(build("link-lost"), build("link-lost"));
        assert_ne!(build("link-lost"), build("node-lost"));
    }

    #[test]
    #[should_panic(expected = "close on span 0, which is closed")]
    fn closing_a_closed_span_fails_closed() {
        let mut log = enabled();
        let o = log.origin(1, 0, at(0));
        log.close(o, at(0));
        log.close(o, at(1));
    }

    #[test]
    #[should_panic(expected = "mark_dropped on span 1, which is closed")]
    fn marking_a_closed_span_dropped_fails_closed() {
        let mut log = enabled();
        let o = log.origin(1, 0, at(0));
        let h = log.hop(1, o, 1, at(1));
        log.close(h, at(2));
        log.mark_dropped(h, "node-lost", at(3));
    }

    #[test]
    #[should_panic(expected = "service_start on span 1, which was never recorded (1 were)")]
    fn starting_service_on_an_unrecorded_span_fails_closed() {
        let mut log = enabled();
        log.origin(1, 0, at(0));
        log.service_start(1, at(1));
    }

    #[test]
    #[should_panic(expected = "deliver_from on span 0, which is closed and retired")]
    fn delivering_from_a_retired_cause_fails_closed() {
        with_span_0_retired().deliver_from(0, 1, 7, at(1));
    }

    #[test]
    #[should_panic(expected = "drop_from on span 0, which is closed and retired")]
    fn dropping_from_a_retired_cause_fails_closed() {
        with_span_0_retired().drop_from(0, 1, "queue-full", at(1));
    }

    #[test]
    #[should_panic(expected = "expect for lineage 2 after 1 spans were recorded")]
    fn an_expectation_after_the_first_span_fails_closed() {
        let mut log = enabled();
        log.expect(1, at(0), 0, &[5]);
        log.origin(1, 0, at(0));
        log.expect(2, at(0), 0, &[5]);
    }
}
