//! The G-COPSS game client (player host) behavior.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use gcopss_compat::{Rng, SeedableRng, SmallRng};
use gcopss_copss::{CopssPacket, MulticastPacket};
use gcopss_game::trace::TraceEvent;
use gcopss_game::{AreaId, GameMap, MoveEvent, MoveType, PlayerId};
use gcopss_names::chunk::{ChunkId, ChunkStore, Manifest};
use gcopss_names::{Cd, Component, FixedState, Name};
use gcopss_ndn::{Data, Interest};
use gcopss_sim::{Ctx, FaultNotice, NodeBehavior, NodeId, SimDuration, SimTime};

use crate::broker::SnapshotMode;
use crate::params::{rate_adapt, recovery};
use crate::{
    payload_of, CatchUpMode, CatchUpRecord, ConvergenceRecord, GPacket, GameWorld, RecoveryConfig,
    SnapName,
};

/// Timer key of trace-driven publishing.
const TIMER_PUBLISH: u64 = 0;
/// Timer key of the silence watchdog (recovery mode only).
const TIMER_WATCHDOG: u64 = 1;
/// Timer key of the catch-up's stall/retry sweep ([`Slot::CatchUp`]).
const TIMER_CATCHUP_RETRY: u64 = 2;
/// Timer key of the scheduled initial (prewarm) catch-up.
const TIMER_CATCHUP_START: u64 = 3;
/// Timer key of the periodic soft-state Subscribe refresh
/// ([`RecoveryConfig::subscribe_refresh`]).
const TIMER_REFRESH: u64 = 4;
/// Timer key of the next scheduled move (movers only).
const TIMER_MOVE: u64 = 5;
/// Timer key of an offline player coming online (§IV-A).
const TIMER_ONLINE: u64 = 6;
/// Timer key of the move fetch's stall/retry sweep ([`Slot::Move`]).
const TIMER_MOVE_RETRY: u64 = 7;

/// Client-side recovery state: a silence watchdog with capped exponential
/// backoff and seeded per-client jitter. Shared by the G-COPSS player
/// client and the IP baseline client.
pub(crate) struct ClientRecovery {
    pub(crate) cfg: RecoveryConfig,
    rng: SmallRng,
    pub(crate) last_activity: SimTime,
    backoff: SimDuration,
}

impl ClientRecovery {
    pub(crate) fn new(cfg: RecoveryConfig, player: PlayerId) -> Self {
        Self {
            cfg,
            rng: SmallRng::seed_from_u64(recovery::SEED ^ u64::from(player.0)),
            last_activity: SimTime::ZERO,
            backoff: recovery::BACKOFF_BASE,
        }
    }

    pub(crate) fn jitter(&mut self) -> SimDuration {
        SimDuration::from_nanos(self.rng.gen_range(0..=recovery::JITTER.as_nanos()))
    }

    /// Delay to the first watchdog tick after a (re)start: one jittered
    /// watchdog period.
    pub(crate) fn first_tick(&mut self) -> SimDuration {
        self.cfg.watchdog + self.jitter()
    }

    /// One watchdog tick at `now`: returns whether the client is silent
    /// (nothing arrived for a whole watchdog period — the caller re-expresses
    /// its subscription or session) and the delay to the next tick, backing
    /// off exponentially (capped) while the silence lasts.
    pub(crate) fn tick(&mut self, now: SimTime) -> (bool, SimDuration) {
        let silent = now.saturating_duration_since(self.last_activity) >= self.cfg.watchdog;
        let next = if silent {
            let delay = self.backoff + self.jitter();
            self.backoff = (self.backoff + self.backoff).min(recovery::BACKOFF_CAP);
            delay
        } else {
            self.backoff = recovery::BACKOFF_BASE;
            self.first_tick()
        };
        (silent, next)
    }

    /// The access path is known good at `now` (link back up, node
    /// restarted): silence and backoff start over.
    pub(crate) fn reanchor(&mut self, now: SimTime) {
        self.backoff = recovery::BACKOFF_BASE;
        self.last_activity = now;
    }
}

/// Client-side congestion-feedback pacer: capped multiplicative rate
/// reduction of the publish cadence, driven by sojourn marks on deliveries
/// (see [`rate_adapt`]). Shared by the G-COPSS player client and the IP
/// baseline client.
///
/// The pacer is *off* (gap zero) until the first marked delivery installs
/// [`rate_adapt::MIN_GAP`]; every further marked delivery doubles the gap
/// up to [`rate_adapt::CAP`], and every clean delivery halves it until it
/// decays below `MIN_GAP` and switches back off. Publishes attempted inside
/// the gap are shed at the source with the `"rate-limited"` tag: under
/// overload, a stale position update sent late is worse than one not sent
/// at all.
#[derive(Default)]
pub(crate) struct RatePacer {
    /// Current enforced publish gap; `ZERO` means the pacer is off.
    pub(crate) gap: SimDuration,
    /// When the last admitted publish went out.
    pub(crate) last_pub: SimTime,
}

impl RatePacer {
    /// Gates a publish attempt at `now`: admitted attempts stamp
    /// `last_pub`; attempts inside the gap are rejected (shed by the
    /// caller).
    fn allow(&mut self, now: SimTime) -> bool {
        if self.gap > SimDuration::ZERO && now < self.last_pub + self.gap {
            return false;
        }
        self.last_pub = now;
        true
    }

    /// Pops the event `cursor` is due to publish now, as `(publication id,
    /// CD, size)`. An event falling inside `pacer`'s gap is shed at the
    /// source instead and `None` comes back: it is never published (the
    /// auditor sees it as unpublished, not lost) but the trace keeps
    /// advancing — position updates are superseded by the next one, not
    /// worth queueing. Either way the caller re-arms its publish timer.
    pub(crate) fn pop(
        pacer: &mut Option<Self>,
        cursor: &mut TraceCursor,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
    ) -> Option<(u64, Name, u32)> {
        let (id, e) = cursor.pop()?;
        let (cd, size) = (e.cd.clone(), e.size);
        if pacer.as_mut().is_some_and(|p| !p.allow(ctx.now())) {
            ctx.shed(id, crate::drops::RATE_LIMITED, size);
            return None;
        }
        Some((id, cd, size))
    }

    /// A congestion-marked delivery arrived: stretch the gap.
    pub(crate) fn on_marked(&mut self) {
        self.gap = if self.gap == SimDuration::ZERO {
            rate_adapt::MIN_GAP
        } else {
            self.gap.saturating_mul(2).min(rate_adapt::CAP)
        };
    }

    /// A clean delivery arrived: decay the gap toward off.
    pub(crate) fn on_clean(&mut self) {
        if self.gap == SimDuration::ZERO {
            return;
        }
        let halved = self.gap / 2;
        self.gap = if halved < rate_adapt::MIN_GAP {
            SimDuration::ZERO
        } else {
            halved
        };
    }

    /// Feeds one delivery's mark bit into the pacer.
    pub(crate) fn on_delivery(&mut self, marked: bool) {
        if marked {
            self.on_marked();
        } else {
            self.on_clean();
        }
    }
}

/// A bounded duplicate-suppression window, used by receivers to drop the
/// duplicate deliveries that can occur while both the old and the new RP
/// tree are live during a split (§IV-B guarantees no *loss*; duplicates are
/// the receivers' job).
#[derive(Debug, Default)]
pub struct DedupWindow {
    seen: HashSet<u64, FixedState>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl DedupWindow {
    /// Creates a window remembering the last `capacity` ids.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            seen: HashSet::with_capacity_and_hasher(capacity, FixedState::default()),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records `id`; returns `true` if it was not seen recently (i.e. the
    /// packet should be processed).
    pub fn insert(&mut self, id: u64) -> bool {
        if self.capacity == 0 {
            return true;
        }
        if !self.seen.insert(id) {
            return false;
        }
        // Evict before pushing, so `order` never outgrows the capacity it
        // was created with; `id` is new, so it is never the one evicted.
        if self.order.len() == self.capacity {
            let old = self.order.pop_front().expect("non-empty");
            self.seen.remove(&old);
        }
        self.order.push_back(id);
        true
    }
}

/// A client's view into the shared trace: the whole trace is kept once
/// (`Arc`), each client walks its own event indices. The publication id of
/// an event is its global index in the trace.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<Vec<TraceEvent>>,
    indices: Vec<u32>,
    next: usize,
    /// Offset added to all trace times (lets subscriptions settle first).
    warmup: SimDuration,
}

impl TraceCursor {
    /// Creates a cursor over `player`'s events in `trace`.
    #[must_use]
    pub fn for_player(
        trace: Arc<Vec<TraceEvent>>,
        player: PlayerId,
        warmup: SimDuration,
    ) -> Self {
        let indices = trace
            .iter()
            .enumerate()
            .filter(|(_, e)| e.player == player)
            .map(|(i, _)| u32::try_from(i).expect("trace fits in u32 indices"))
            .collect();
        Self {
            trace,
            indices,
            next: 0,
            warmup,
        }
    }

    /// Absolute publish time of the next event, if any.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        self.indices.get(self.next).map(|&i| {
            SimTime::from_nanos(self.trace[i as usize].time_ns) + self.warmup
        })
    }

    /// Pops the next event, returning `(publication id, event)`.
    pub fn pop(&mut self) -> Option<(u64, &TraceEvent)> {
        let &i = self.indices.get(self.next)?;
        self.next += 1;
        Some((u64::from(i), &self.trace[i as usize]))
    }

    /// Arms `timer` at the next event's publish time. Returns `false`, and
    /// arms nothing, once the trace is exhausted.
    pub(crate) fn rearm(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, timer: u64) -> bool {
        let Some(at) = self.next_time() else {
            return false;
        };
        ctx.schedule(at.saturating_duration_since(ctx.now()), timer);
        true
    }
}

/// Client-side catch-up tunables (snapshot refresh on join/recovery).
#[derive(Debug, Clone)]
pub struct CatchUpConfig {
    /// Retrieval strategy.
    pub mode: CatchUpMode,
    /// Maximum outstanding fetch Interests.
    pub window: u32,
    /// When set, runs an initial (prewarm) catch-up at this sim time, so
    /// the chunk store is warm before any fault hits.
    pub initial_at: Option<SimTime>,
    /// Stall threshold: with no catch-up progress for this long, every
    /// outstanding Interest is re-expressed (the owed items are unchanged —
    /// a retry is not a new debt).
    pub retry: SimDuration,
}

impl Default for CatchUpConfig {
    fn default() -> Self {
        Self {
            mode: CatchUpMode::ChunkedDelta,
            window: 15,
            initial_at: None,
            retry: SimDuration::from_secs(2),
        }
    }
}

/// A stable item key for non-chunk fetches (manifests, snapshot
/// meta/objects), hashed from the Interest name.
fn name_key(name: &Name) -> u64 {
    let mut h = gcopss_names::fnv1a(b"catchup");
    for c in name.components() {
        h = gcopss_names::fnv1a_extend(h, c.as_bytes());
    }
    h
}

/// Cap on the fetch resend backoff exponent: the longest wait between
/// re-expressions is `retry << BACKOFF_CAP`.
const CATCHUP_BACKOFF_CAP: u32 = 3;

/// The little-endian `u32` at `payload[at..at + 4]` (0 if out of range).
fn le_u32(payload: &[u8], at: usize) -> u32 {
    payload
        .get(at..at + 4)
        .map_or(0, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The two fetches a client can have in flight at once. Both are a
/// [`Fetch`] and run through the one pipeline (`request` → `express` →
/// `retry_tick` → `on_fetch_data`); each has its own stall-retry timer.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The prewarm or recovery catch-up over the whole view
    /// ([`CatchUpRunner::active`]).
    CatchUp,
    /// The mover's post-move or online-join fetch ([`Mover::fetch`]).
    Move,
}

impl Slot {
    const ALL: [Self; 2] = [Self::CatchUp, Self::Move];

    fn retry_timer(self) -> u64 {
        match self {
            Self::CatchUp => TIMER_CATCHUP_RETRY,
            Self::Move => TIMER_MOVE_RETRY,
        }
    }
}

/// What a fetch is for, and so which record its completion writes.
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// A catch-up (prewarm, or recovery after a fault): a [`CatchUpRecord`].
    CatchUp { recovery: bool },
    /// A mover's newly visible CDs after a move, or a joiner's whole view:
    /// a [`ConvergenceRecord`].
    Move {
        move_type: MoveType,
        online_join: bool,
    },
}

impl Goal {
    fn slot(self) -> Slot {
        match self {
            Self::CatchUp { .. } => Slot::CatchUp,
            Self::Move { .. } => Slot::Move,
        }
    }
}

/// Progress of one `/snapcast/<cd>` cyclic stream a fetch is draining.
#[derive(Debug, Default)]
struct CyclicCd {
    /// Objects in a full cycle, once the first packet told.
    total: Option<u32>,
    received: HashSet<u32, FixedState>,
}

impl CyclicCd {
    fn done(&self) -> bool {
        self.total.is_some_and(|t| self.received.len() as u32 >= t)
    }
}

/// One in-flight snapshot retrieval. A *pull* fetch (catch-up, QR move)
/// works through `outstanding` and `queue` with Interests; a *push* fetch
/// (cyclic-multicast move) waits on `groups`; what the two share is written
/// once, and a fetch is done when it waits for nothing of either kind.
struct Fetch {
    goal: Goal,
    started: SimTime,
    bytes: u64,
    /// Leaf CDs covered.
    cds: usize,
    chunks_fetched: u64,
    chunks_held: u64,
    /// Item key → Interest name, for everything sent but unanswered.
    outstanding: BTreeMap<u64, Name>,
    /// Requests not yet issued (window pacing).
    queue: VecDeque<(u64, Name)>,
    /// Chunk ids already queued/sent by this fetch (cross-CD dedup).
    requested_chunks: BTreeSet<u64>,
    /// Consecutive stall resends without progress (backoff exponent).
    backoff: u32,
    /// When the stall sweep may next re-express `outstanding`: a retry
    /// interval after the last progress, backed off after every resend.
    resend_at: SimTime,
    /// Cyclic streams joined and not yet drained, by CD.
    groups: BTreeMap<Name, CyclicCd>,
}

impl Fetch {
    fn new(goal: Goal, now: SimTime, cds: usize) -> Self {
        Self {
            goal,
            started: now,
            bytes: 0,
            cds,
            chunks_fetched: 0,
            chunks_held: 0,
            outstanding: BTreeMap::new(),
            queue: VecDeque::new(),
            requested_chunks: BTreeSet::new(),
            backoff: 0,
            resend_at: now,
            groups: BTreeMap::new(),
        }
    }

    fn done(&self) -> bool {
        self.outstanding.is_empty()
            && self.queue.is_empty()
            && self.groups.values().all(CyclicCd::done)
    }
}

/// Persistent catch-up state of one client: config, the chunk store that
/// survives across catch-ups (and across node restarts — it models on-disk
/// content), and the active fetch.
struct CatchUpRunner {
    cfg: CatchUpConfig,
    store: ChunkStore,
    /// Manifests fetched by the active catch-up (reassembly check at end).
    manifests: Vec<Manifest>,
    active: Option<Fetch>,
}

/// The movement side of a player (§IV-A, Table III): its schedule of moves
/// — each re-subscribes for the new location and fetches the snapshots of
/// the newly visible leaf CDs, recording a [`ConvergenceRecord`] — and the
/// offline join.
struct Mover {
    /// The moves still ahead, in schedule order (trace-relative times).
    moves: VecDeque<MoveEvent>,
    mode: SnapshotMode,
    fetch: Option<Fetch>,
    /// §IV-A offline support: `Some` while the player is still offline —
    /// not subscribed, not publishing. Coming online at this instant
    /// subscribes and fetches the snapshot of the entire current view.
    online_at: Option<SimTime>,
}

/// The G-COPSS player client: subscribes according to its map position at
/// start-up, publishes its trace slice, and records delivery latencies of
/// everything it receives. With [`Self::with_mover`] it also executes a
/// movement schedule.
pub struct GamePlayerClient {
    player: PlayerId,
    edge: NodeId,
    area: AreaId,
    map: Arc<GameMap>,
    cursor: TraceCursor,
    dedup: DedupWindow,
    recovery: Option<ClientRecovery>,
    pacer: Option<RatePacer>,
    catch_up: Option<Box<CatchUpRunner>>,
    mover: Option<Box<Mover>>,
    /// Last Interest nonce used (`player << 32 | n`): one sequence for
    /// every Interest this client sends.
    next_nonce: u64,
    /// Whether any multicast delivery arrived yet. Watchdog silence before
    /// the first delivery means the trace has not started, not that state
    /// was lost — it must not trigger a (cold, maximally expensive)
    /// recovery catch-up.
    seen_delivery: bool,
    /// Whether the client is currently inside a deaf episode: the watchdog
    /// found sustained silence after traffic had been flowing.
    was_deaf: bool,
    /// A deaf episode ended (deliveries resumed) and the missed state has
    /// not been re-fetched yet. The resync runs at the rejoin moment — or,
    /// if a fetch is already in flight, chains right after it — never
    /// *during* deafness: while cut off the client would only hammer a
    /// congested or broken path, and permanent silence (end of game) must
    /// not turn into a refetch loop.
    pending_resync: bool,
}

impl GamePlayerClient {
    /// Creates a client attached to edge router `edge`, located at `area`.
    #[must_use]
    pub fn new(
        player: PlayerId,
        edge: NodeId,
        area: AreaId,
        map: Arc<GameMap>,
        cursor: TraceCursor,
    ) -> Self {
        Self {
            player,
            edge,
            area,
            map,
            cursor,
            dedup: DedupWindow::new(1024),
            recovery: None,
            pacer: None,
            catch_up: None,
            mover: None,
            next_nonce: u64::from(player.0) << 32,
            seen_delivery: false,
            was_deaf: false,
            pending_resync: false,
        }
    }

    /// Enables snapshot catch-up: the client refreshes its world view from
    /// the brokers at `cfg.initial_at` (prewarm) and on every recovery
    /// trigger (first silent watchdog firing, link-up, restart). In
    /// [`CatchUpMode::ChunkedDelta`] the client keeps a persistent
    /// [`ChunkStore`] and fetches only chunks it does not hold.
    #[must_use]
    pub fn with_catch_up(mut self, cfg: CatchUpConfig) -> Self {
        self.catch_up = Some(Box::new(CatchUpRunner {
            cfg,
            store: ChunkStore::new(),
            manifests: Vec::new(),
            active: None,
        }));
        self
    }

    /// Enables the silence watchdog: after `cfg.watchdog` without any
    /// delivery the client assumes its subscription state was lost upstream
    /// and re-Subscribes, backing off exponentially (capped) while silence
    /// persists. The watchdog re-arms forever, so recovery-enabled
    /// simulations must run with [`gcopss_sim::Simulator::run_until`].
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(ClientRecovery::new(cfg, self.player));
        self
    }

    /// Enables congestion-feedback rate adaptation: congestion-marked
    /// deliveries (see [`gcopss_sim::Ctx::congestion_marked`]) stretch the
    /// client's own publish cadence multiplicatively up to
    /// [`rate_adapt::CAP`], and clean deliveries decay it back. Publishes
    /// falling inside the gap are shed at the source with the
    /// `"rate-limited"` tag.
    #[must_use]
    pub fn with_rate_adapt(mut self) -> Self {
        self.pacer = Some(RatePacer::default());
        self
    }

    /// Gives the player a movement schedule — its own `moves`, in schedule
    /// order, with trace-relative times — and the `mode` its post-move
    /// snapshot fetches use. With `online_at` the player starts *offline*:
    /// it neither subscribes nor publishes until that instant, then joins
    /// the game at its area — subscribing, fetching the snapshot of
    /// everything it can see, and starting to publish (§IV-A: "besides the
    /// general pub/sub support provided in COPSS for offline users").
    #[must_use]
    pub fn with_mover(
        mut self,
        moves: Vec<MoveEvent>,
        mode: SnapshotMode,
        online_at: Option<SimTime>,
    ) -> Self {
        self.mover = Some(Box::new(Mover {
            moves: moves.into(),
            mode,
            fetch: None,
            online_at,
        }));
        self
    }

    fn send(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, g: GPacket) {
        crate::packet::send(ctx, self.edge, g);
    }

    fn nonce(&mut self) -> u64 {
        self.next_nonce += 1;
        self.next_nonce
    }

    fn subscribe(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let cds = self.map.subscription_cds(self.area);
        self.send(ctx, GPacket::Copss(CopssPacket::Subscribe { cds, rp: None }));
    }

    /// Re-expresses everything this client is subscribed to: its area's
    /// CDs, and the cyclic groups a live move fetch is still draining (with
    /// their `join` commands — the broker counts a player once).
    fn resubscribe(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        self.subscribe(ctx);
        if let Some(f) = self.slot_mut(Slot::Move).and_then(Option::take) {
            self.snapcast_groups(ctx, f.groups.keys(), true);
            self.put_back(Slot::Move, f);
        }
        ctx.world().bump("client-resubscribes");
    }

    fn publish(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if let Some((id, cd, size)) = RatePacer::pop(&mut self.pacer, &mut self.cursor, ctx) {
            let now = ctx.now();
            ctx.world().metrics.publish(id, self.player, now);
            // Don't wait for our own copy to come back.
            self.dedup.insert(id);
            let m = MulticastPacket::new(Cd::new(cd), payload_of(size as usize), id);
            self.send(ctx, GPacket::Copss(CopssPacket::Multicast(m)));
        }
        self.cursor.rearm(ctx, TIMER_PUBLISH);
    }

    /// Subscribes at the current area and arms every timer of a live
    /// player: at start-up, or when an offline player comes online.
    fn go_live(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        self.subscribe(ctx);
        self.cursor.rearm(ctx, TIMER_PUBLISH);
        self.schedule_move(ctx);
        let now = ctx.now();
        if let Some(r) = &mut self.recovery {
            r.last_activity = now;
            let delay = r.first_tick();
            ctx.schedule(delay, TIMER_WATCHDOG);
            if let Some(iv) = r.cfg.subscribe_refresh {
                let delay = iv + r.jitter();
                ctx.schedule(delay, TIMER_REFRESH);
            }
        }
        if let Some(cu) = &self.catch_up {
            if let Some(at) = cu.cfg.initial_at {
                ctx.schedule(at.saturating_duration_since(now), TIMER_CATCHUP_START);
            }
        }
    }

    fn schedule_move(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if let Some(m) = self.mover.as_ref().and_then(|mv| mv.moves.front()) {
            let at = SimTime::from_nanos(m.time_ns) + self.cursor.warmup;
            ctx.schedule(at.saturating_duration_since(ctx.now()), TIMER_MOVE);
        }
    }

    /// Joins or leaves the cyclic-multicast group of every CD in `cds`: the
    /// COPSS (Un)Subscribe for `/snapcast/<cd>`, plus the
    /// `/snapcastctl/<cd>/{join,leave}/<nonce>` command Interest that tells
    /// the broker to start or stop counting this player into the stream.
    /// The trailing nonce makes every command's name unique: a command must
    /// reach the broker, so no PIT may aggregate it with another player's
    /// and no Content Store may answer it with a cached ack.
    fn snapcast_groups<'n>(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        cds: impl Iterator<Item = &'n Name>,
        join: bool,
    ) {
        for cd in cds {
            let cd = cd.components();
            let cds = vec![SnapName::Stream { cd }.name()];
            let (group, sent) = if join {
                (CopssPacket::Subscribe { cds, rp: None }, "mover-joins-sent")
            } else {
                (
                    CopssPacket::Unsubscribe { cds, rp: None },
                    "mover-leaves-sent",
                )
            };
            self.send(ctx, GPacket::Copss(group));
            let nonce = self.nonce();
            let name = SnapName::Command { cd, join, nonce }.name();
            self.send(ctx, GPacket::Interest(Interest::new(name, nonce)));
            ctx.world().bump(sent);
        }
    }

    fn begin_move(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let Some(mv) = self.mover.as_mut().and_then(|m| m.moves.pop_front()) else {
            return;
        };
        // Re-subscribe for the new location.
        let cds = self.map.subscription_cds(self.area);
        self.send(ctx, GPacket::Copss(CopssPacket::Unsubscribe { cds, rp: None }));
        self.area = mv.to;
        self.subscribe(ctx);

        // The new move supersedes any unfinished fetch: leave the cyclic
        // groups it was still draining and write what it still owed off the
        // ledger — Data that answers it from now on finds no taker.
        if let Some(old) = self.slot_mut(Slot::Move).and_then(Option::take) {
            self.snapcast_groups(ctx, old.groups.keys(), false);
            let world = ctx.world();
            for &key in old.outstanding.keys() {
                world.catchup_ledger.write_off(key, self.player.0);
            }
            world.bump("mover-fetch-superseded");
            ctx.mark("mover-fetch-superseded");
        }

        if mv.snapshot_cds.is_empty() {
            // Descending: the view only narrows, nothing to download.
            ctx.world().convergence.push(ConvergenceRecord {
                player: self.player,
                move_type: mv.move_type,
                leaf_cds: 0,
                convergence: SimDuration::ZERO,
                bytes: 0,
                online_join: false,
            });
        } else {
            self.start_move_fetch(ctx, mv.move_type, &mv.snapshot_cds, false);
        }
        self.schedule_move(ctx);
    }

    fn come_online(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if let Some(mover) = &mut self.mover {
            mover.online_at = None;
        }
        self.go_live(ctx);
        // A joining player has no prior view: fetch every visible leaf CD
        // (classified as the broadest movement type for reporting).
        let visible = self.map.visible_leaf_cds(self.area);
        ctx.world().bump("online-joins");
        self.start_move_fetch(ctx, MoveType::RegionToWorld, &visible, true);
    }

    /// Begins fetching the snapshots of `cds` in the mover's mode: pulled
    /// through the pipeline (QR), or pushed by the brokers' cyclic streams.
    fn start_move_fetch(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        move_type: MoveType,
        cds: &[Name],
        online_join: bool,
    ) {
        let Some(mode) = self.mover.as_ref().map(|m| m.mode) else {
            return;
        };
        ctx.world().bump("mover-fetches-started");
        let goal = Goal::Move {
            move_type,
            online_join,
        };
        match mode {
            SnapshotMode::QueryResponse { .. } => self.start_pull(ctx, goal, cds),
            SnapshotMode::CyclicMulticast => {
                let mut f = Fetch::new(goal, ctx.now(), cds.len());
                f.groups = cds
                    .iter()
                    .map(|cd| (cd.clone(), CyclicCd::default()))
                    .collect();
                self.snapcast_groups(ctx, cds.iter(), true);
                self.put_back(Slot::Move, f);
            }
        }
    }

    /// Consumes one packet `m` of the `/snapcast/<cd>` cyclic stream.
    fn on_snapcast(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        cd: &[Component],
        m: &MulticastPacket,
    ) {
        let Some(Some(f)) = self.slot_mut(Slot::Move) else {
            return;
        };
        let Some(group) = f.groups.get_mut(cd) else {
            return;
        };
        // The payload opens with [k, total] so a full cycle is detectable.
        if group.total.is_none() {
            group.total = Some(le_u32(&m.payload, 4));
        }
        if group.received.insert(le_u32(&m.payload, 0)) {
            f.bytes += m.payload.len() as u64;
        }
        self.finish_if_done(ctx, Slot::Move);
    }

    /// Where `slot`'s fetch lives, if this client has that side at all.
    fn slot_mut(&mut self, slot: Slot) -> Option<&mut Option<Fetch>> {
        match slot {
            Slot::CatchUp => self.catch_up.as_mut().map(|cu| &mut cu.active),
            Slot::Move => self.mover.as_mut().map(|m| &mut m.fetch),
        }
    }

    /// Stores `f` as `slot`'s live fetch. The pipeline takes a fetch out of
    /// its slot while it works on it, so that it can send meanwhile.
    fn put_back(&mut self, slot: Slot, f: Fetch) {
        *self.slot_mut(slot).expect("a fetch came from its slot") = Some(f);
    }

    /// How `slot` pulls: what it asks of each CD first, its window and its
    /// stall-retry interval. A mover's QR fetch is a full-snapshot catch-up
    /// with the QR window and the default retry. `None` when the client
    /// does not pull on that side (no catch-up; no mover, or a cyclic one).
    fn pull_cfg(&self, slot: Slot) -> Option<CatchUpConfig> {
        match slot {
            Slot::CatchUp => self.catch_up.as_ref().map(|cu| cu.cfg.clone()),
            Slot::Move => match self.mover.as_ref()?.mode {
                SnapshotMode::QueryResponse { window } => Some(CatchUpConfig {
                    mode: CatchUpMode::FullSnapshot,
                    window,
                    ..CatchUpConfig::default()
                }),
                SnapshotMode::CyclicMulticast => None,
            },
        }
    }

    /// Builds and sends one fetch Interest. The lifetime is deliberately
    /// *shorter* than the stall-retry interval: PIT aggregation refreshes
    /// entry lifetimes, so a re-expression that lands in a still-live entry
    /// whose upstream Data was lost is swallowed without being forwarded —
    /// the name stays wedged for as long as retries keep arriving faster
    /// than the entries expire. Expiring the previous round first guarantees
    /// every retry is actually re-forwarded toward the producer.
    fn express(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, name: Name, retry: SimDuration) {
        let nonce = self.nonce();
        let interest = Interest::with_lifetime(name, nonce, retry.as_nanos() * 3 / 4);
        self.send(ctx, GPacket::Interest(interest));
    }

    /// Owes `name` to the ledger under `key` and expresses it.
    fn request(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        f: &mut Fetch,
        retry: SimDuration,
        key: u64,
        name: Name,
    ) {
        ctx.world().catchup_ledger.owe(key, self.player.0);
        f.outstanding.insert(key, name.clone());
        self.express(ctx, name, retry);
    }

    /// Starts `goal`'s fetch over `cds`: one first request per CD (not
    /// windowed — the window paces what the answers unfold into), and the
    /// stall sweep.
    fn start_pull(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, goal: Goal, cds: &[Name]) {
        let slot = goal.slot();
        let Some(cfg) = self.pull_cfg(slot) else {
            return;
        };
        let mut f = Fetch::new(goal, ctx.now(), cds.len());
        f.resend_at = ctx.now() + cfg.retry;
        for cd in cds {
            let cd = cd.components();
            let name = match cfg.mode {
                CatchUpMode::ChunkedDelta => SnapName::Manifest { cd }.name(),
                CatchUpMode::FullSnapshot => SnapName::Meta { cd }.name(),
            };
            self.request(ctx, &mut f, cfg.retry, name_key(&name), name);
        }
        self.put_back(slot, f);
        ctx.schedule(cfg.retry, slot.retry_timer());
    }

    /// Starts a catch-up over every visible leaf CD, unless one is already
    /// in flight (recovery triggers can storm; one fetch at a time).
    /// Returns whether a fetch actually started.
    fn maybe_start_catchup(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, recovery: bool) -> bool {
        let Some(cu) = &mut self.catch_up else {
            return false;
        };
        if cu.active.is_some() {
            return false;
        }
        cu.manifests.clear();
        let cds = self.map.visible_leaf_cds(self.area);
        self.start_pull(ctx, Goal::CatchUp { recovery }, &cds);
        true
    }

    /// Consumes one fetch Data (manifest, chunk, or snapshot meta/obj): it
    /// is offered to each live fetch by key and taken by whichever owes it;
    /// Data nobody owes (a retransmit raced its original, or its fetch was
    /// superseded) is dropped as late.
    fn on_fetch_data(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, d: &Data) {
        let name = SnapName::parse(&d.name);
        // Content-addressed integrity: a chunk whose bytes do not hash to
        // its name is rejected before any state is touched.
        let key = match name {
            Some(SnapName::Chunk(id)) if ChunkId::of(&d.payload) != id => {
                let len = d.encoded_len() as u32;
                ctx.discard(crate::drops::CLIENT_CHUNK_CORRUPT, len);
                return;
            }
            Some(SnapName::Chunk(id)) => id.0,
            _ => name_key(&d.name),
        };
        let taker = Slot::ALL.into_iter().find_map(|slot| {
            let held = self.slot_mut(slot)?;
            held.as_mut()?.outstanding.remove(&key)?;
            held.take().map(|f| (slot, f))
        });
        let Some((slot, mut f)) = taker else {
            ctx.discard(crate::drops::CLIENT_LATE_CATCHUP, d.encoded_len() as u32);
            return;
        };
        let cfg = self.pull_cfg(slot).expect("a pull fetch's slot pulls");
        f.bytes += d.payload.len() as u64;
        f.backoff = 0;
        f.resend_at = ctx.now() + cfg.retry;
        ctx.world().catchup_ledger.deliver(key, self.player.0);

        match (name, &mut self.catch_up) {
            (Some(SnapName::Chunk(id)), Some(cu)) => {
                cu.store.insert_hashed(id, &d.payload);
                f.chunks_fetched += 1;
            }
            (Some(SnapName::Manifest { .. }), Some(cu)) => {
                if let Ok(m) = Manifest::decode(&d.payload) {
                    let distinct: BTreeSet<u64> = m.chunks.iter().map(|c| c.id.0).collect();
                    let missing = cu.store.missing(&m);
                    f.chunks_held += (distinct.len() - missing.len()) as u64;
                    for r in missing {
                        if f.requested_chunks.insert(r.id.0) {
                            f.queue.push_back((r.id.0, SnapName::Chunk(r.id).name()));
                        }
                    }
                    cu.manifests.push(m);
                }
            }
            (Some(SnapName::Meta { cd }), _) => {
                for k in 0..le_u32(&d.payload, 0) {
                    let name = SnapName::Object { cd, k }.name();
                    f.queue.push_back((name_key(&name), name));
                }
            }
            // Snapshot object payloads need no further handling: the byte
            // and ledger accounting above is the point.
            _ => {}
        }
        // Issue queued requests up to the window.
        while (f.outstanding.len() as u32) < cfg.window {
            let Some((key, name)) = f.queue.pop_front() else {
                break;
            };
            self.request(ctx, &mut f, cfg.retry, key, name);
        }
        self.put_back(slot, f);
        self.finish_if_done(ctx, slot);
    }

    /// Closes `slot`'s fetch once it waits for nothing: writes the record
    /// its goal names and frees the slot.
    fn finish_if_done(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, slot: Slot) {
        let player = self.player;
        let Some(held) = self.slot_mut(slot) else {
            return;
        };
        if !held.as_ref().is_some_and(Fetch::done) {
            return;
        }
        let f = held.take().expect("done checked");
        let took = ctx.now().saturating_duration_since(f.started);
        match f.goal {
            Goal::Move {
                move_type,
                online_join,
            } => {
                // Cyclic mode: leave the groups now that the snapshot is
                // complete.
                self.snapcast_groups(ctx, f.groups.keys(), false);
                ctx.world().convergence.push(ConvergenceRecord {
                    player,
                    move_type,
                    leaf_cds: f.cds,
                    convergence: took,
                    bytes: f.bytes,
                    online_join,
                });
            }
            Goal::CatchUp { recovery } => {
                let cu = self.catch_up.as_mut().expect("a catch-up has its runner");
                // Integrity gate: every fetched manifest must reassemble
                // exactly from the (now complete) store.
                for m in cu.manifests.drain(..) {
                    let key = if cu.store.reassemble(&m).is_ok() {
                        "catchup-reassembly-ok"
                    } else {
                        "catchup-reassembly-failed"
                    };
                    ctx.world().bump(key);
                }
                ctx.world().catchups.push(CatchUpRecord {
                    player,
                    mode: cu.cfg.mode,
                    recovery,
                    latency: took,
                    bytes: f.bytes,
                    chunks_fetched: f.chunks_fetched,
                    chunks_held: f.chunks_held,
                    cds: f.cds,
                });
                // A rejoin happened while this fetch was in flight: run the
                // owed resync now that the pipeline is free.
                if self.pending_resync && self.maybe_start_catchup(ctx, true) {
                    self.pending_resync = false;
                }
            }
        }
    }

    /// Stall sweep of `slot`: re-expresses every outstanding request when
    /// no progress was made for a full retry interval (lost Interests or
    /// Data — a dropped access link, a crashed broker).
    ///
    /// Resends back off exponentially (capped) and the sweep itself is
    /// jittered per player: a mass-rejoin storm stalls every client at
    /// once, and lockstep retry waves from hundreds of clients are exactly
    /// the load that keeps the network collapsed.
    fn retry_tick(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, slot: Slot) {
        let Some(retry) = self.pull_cfg(slot).map(|cfg| cfg.retry) else {
            return;
        };
        let Some(mut f) = self.slot_mut(slot).and_then(Option::take) else {
            return; // done — let the timer lapse
        };
        if ctx.now() >= f.resend_at {
            // The owed items are unchanged: a retry is not a new debt.
            for name in f.outstanding.values() {
                self.express(ctx, name.clone(), retry);
            }
            f.backoff = (f.backoff + 1).min(CATCHUP_BACKOFF_CAP);
            f.resend_at = ctx.now() + retry * (1u64 << f.backoff);
            ctx.world().bump("client-catchup-retries");
        }
        self.put_back(slot, f);
        // Deterministic per-player jitter, rolled forward by the nonce so
        // successive sweeps of one client decorrelate too.
        let jitter_ns = gcopss_names::fnv1a_extend(
            gcopss_names::fnv1a(&u64::from(self.player.0).to_le_bytes()),
            &self.next_nonce.to_le_bytes(),
        ) % (retry.as_nanos() / 4).max(1);
        ctx.schedule(retry + SimDuration::from_nanos(jitter_ns), slot.retry_timer());
    }
}

impl NodeBehavior<GPacket, GameWorld> for GamePlayerClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let _p = gcopss_sim::prof::scope("copss_client/start");
        match self.mover.as_ref().and_then(|m| m.online_at) {
            // Offline: stay silent until the join instant.
            Some(at) => ctx.schedule(at.saturating_duration_since(ctx.now()), TIMER_ONLINE),
            None => self.go_live(ctx),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        let _p = gcopss_sim::prof::scope("copss_client/timer");
        match key {
            TIMER_PUBLISH => self.publish(ctx),
            TIMER_WATCHDOG => {
                let now = ctx.now();
                let Some(r) = &mut self.recovery else { return };
                let (silent, next) = r.tick(now);
                if silent {
                    // Still deaf: re-express the subscription.
                    self.resubscribe(ctx);
                    // Silence after traffic was flowing means state is
                    // being missed; the resync itself waits for the rejoin
                    // moment (deliveries resuming). Silence before the
                    // first delivery is just a not-yet-started trace.
                    if self.seen_delivery {
                        self.was_deaf = true;
                    }
                }
                ctx.schedule(next, TIMER_WATCHDOG);
            }
            TIMER_CATCHUP_RETRY => self.retry_tick(ctx, Slot::CatchUp),
            TIMER_MOVE_RETRY => self.retry_tick(ctx, Slot::Move),
            TIMER_CATCHUP_START => {
                self.maybe_start_catchup(ctx, false);
            }
            TIMER_MOVE => self.begin_move(ctx),
            TIMER_ONLINE => self.come_online(ctx),
            TIMER_REFRESH => {
                // Soft-state refresh: re-express the subscription on a
                // period, deliveries or not — COPSS ST entries are soft
                // state, and under overload this keeps real control
                // traffic contending with bulk data in the queues.
                let Some(iv) = self.recovery.as_ref().and_then(|r| r.cfg.subscribe_refresh)
                else {
                    return;
                };
                self.resubscribe(ctx);
                let r = self.recovery.as_mut().expect("refresh implies recovery");
                let delay = iv + r.jitter();
                ctx.schedule(delay, TIMER_REFRESH);
            }
            _ => {}
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        _from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("copss_client/packet");
        match pkt {
            GPacket::Copss(CopssPacket::Multicast(m)) => {
                // Any arrival (even a duplicate) proves the tree is
                // delivering.
                let now = ctx.now();
                self.seen_delivery = true;
                if self.was_deaf {
                    // Rejoin moment: the tree delivers again after a deaf
                    // episode — whatever was missed must be re-fetched.
                    self.was_deaf = false;
                    self.pending_resync = true;
                }
                if self.pending_resync && self.maybe_start_catchup(ctx, true) {
                    self.pending_resync = false;
                }
                if let Some(r) = &mut self.recovery {
                    r.last_activity = now;
                }
                if let Some(p) = &mut self.pacer {
                    // Every arrival is a congestion sample — duplicates
                    // traversed the network too.
                    p.on_delivery(ctx.congestion_marked());
                }
                if !self.dedup.insert(m.id) {
                    let len = m.encoded_len() as u32;
                    ctx.discard(crate::drops::CLIENT_DUPLICATE_DROPPED, len);
                } else if let Some(SnapName::Stream { cd }) = SnapName::parse(m.cd.name()) {
                    self.on_snapcast(ctx, cd, &m);
                } else {
                    GameWorld::deliver(ctx, m.id, self.player);
                }
            }
            GPacket::Data(d) => {
                // Any Data arrival proves the access path works.
                let now = ctx.now();
                if let Some(r) = &mut self.recovery {
                    r.last_activity = now;
                }
                // A mover also gets `/snapcastctl` acks, which only consume
                // the PIT breadcrumbs of its command Interests.
                let ack = matches!(SnapName::parse(&d.name), Some(SnapName::Command { .. }));
                if !(ack && self.mover.is_some()) {
                    self.on_fetch_data(ctx, &d);
                }
            }
            _ => {}
        }
    }

    fn service_time(&self, _pkt: &GPacket) -> SimDuration {
        SimDuration::ZERO
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = gcopss_sim::prof::scope("copss_client/fault");
        let now = ctx.now();
        let Some(r) = &mut self.recovery else {
            return;
        };
        if let Some(at) = self.mover.as_ref().and_then(|m| m.online_at) {
            // Still offline: there is no branch to re-anchor, only the join
            // timer a crash killed.
            if matches!(notice, FaultNotice::Restarted) {
                ctx.schedule(at.saturating_duration_since(now), TIMER_ONLINE);
            }
            return;
        }
        match notice {
            // The access link is back (or we restarted): the edge may have
            // purged our branch while we were cut off — re-anchor now
            // rather than waiting out the watchdog.
            FaultNotice::LinkUp { .. } | FaultNotice::Restarted => {
                r.reanchor(now);
                self.resubscribe(ctx);
                if matches!(notice, FaultNotice::Restarted) {
                    // Crash killed all pending timers (stale epoch): re-arm
                    // the publisher, the move schedule and the watchdog.
                    self.cursor.rearm(ctx, TIMER_PUBLISH);
                    self.schedule_move(ctx);
                    let r = self.recovery.as_mut().expect("recovery enabled");
                    let delay = r.first_tick();
                    ctx.schedule(delay, TIMER_WATCHDOG);
                    // The crash killed the retry timers too. An in-flight
                    // fetch (and the chunk store — it models on-disk
                    // content) survives in behavior state; re-arm its
                    // sweep so its outstanding items are re-expressed and
                    // the catch-up ledger still balances.
                    for slot in Slot::ALL {
                        let live = self.slot_mut(slot).is_some_and(|held| held.is_some());
                        if let (true, Some(cfg)) = (live, self.pull_cfg(slot)) {
                            ctx.schedule(cfg.retry, slot.retry_timer());
                        }
                    }
                }
                // Re-anchored: the world may have moved while we were cut
                // off — refresh the snapshot view (deferred until the
                // current fetch finishes if one is in flight). This resync
                // covers any deaf episode the watchdog flagged meanwhile.
                self.was_deaf = false;
                if !self.maybe_start_catchup(ctx, true) {
                    self.pending_resync = true;
                }
            }
            FaultNotice::LinkDown { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcopss_names::Name;

    #[test]
    fn dedup_window_basics() {
        let mut d = DedupWindow::new(2);
        assert!(d.insert(1));
        assert!(!d.insert(1));
        assert!(d.insert(2));
        assert!(d.insert(3)); // evicts 1
        assert!(d.insert(1), "evicted id accepted again");
    }

    #[test]
    fn zero_capacity_accepts_everything() {
        let mut d = DedupWindow::new(0);
        assert!(d.insert(7));
        assert!(d.insert(7));
    }

    #[test]
    fn rate_pacer_grows_caps_and_decays() {
        use rate_adapt::{CAP, MIN_GAP};
        let ms = SimDuration::from_millis;
        let mut p = RatePacer::default();
        // Off: back-to-back publishes pass.
        assert!(p.allow(SimTime::ZERO));
        assert!(p.allow(SimTime::from_millis(1)));
        // Marks: install MIN_GAP (20 ms), then double to the cap (500 ms):
        // 20 → 40 → 80 → 160 → 320 → 500.
        p.on_marked();
        assert_eq!(p.gap, MIN_GAP);
        for _ in 0..4 {
            p.on_marked();
        }
        assert_eq!(p.gap, ms(320));
        p.on_marked();
        assert_eq!(p.gap, CAP, "capped");
        p.on_marked();
        assert_eq!(p.gap, CAP, "stays capped");
        // In-gap publish shed; the gap boundary admits.
        assert!(!p.allow(SimTime::from_millis(400)));
        assert!(p.allow(SimTime::from_millis(501)));
        // Clean deliveries halve the gap until it falls below MIN_GAP:
        // 500 → 250 → 125 → 62.5 → 31.25 ms → off.
        for us in [250_000, 125_000, 62_500, 31_250] {
            p.on_clean();
            assert_eq!(p.gap, SimDuration::from_micros(us));
        }
        p.on_clean();
        assert_eq!(p.gap, SimDuration::ZERO, "decayed below MIN_GAP: off");
        assert!(p.allow(SimTime::from_millis(502)), "off admits immediately");
    }

    #[test]
    fn rate_pacer_mixed_feedback() {
        let mut p = RatePacer::default();
        p.on_delivery(true);
        let after_mark = p.gap;
        assert_eq!(after_mark, rate_adapt::MIN_GAP);
        p.on_delivery(false);
        assert_eq!(p.gap, SimDuration::ZERO);
        // Clean deliveries while off stay off.
        p.on_delivery(false);
        assert_eq!(p.gap, SimDuration::ZERO);
    }

    #[test]
    fn cursor_walks_only_own_events() {
        let mk = |t: u64, p: u32| TraceEvent {
            time_ns: t,
            player: PlayerId(p),
            cd: Name::parse_lit("/1/1"),
            object: gcopss_game::ObjectId(0),
            size: 100,
        };
        let trace = Arc::new(vec![mk(10, 0), mk(20, 1), mk(30, 0)]);
        let mut c = TraceCursor::for_player(trace, PlayerId(0), SimDuration::from_millis(1));
        assert_eq!(
            c.next_time(),
            Some(SimTime::from_nanos(10) + SimDuration::from_millis(1))
        );
        let (id, e) = c.pop().unwrap();
        assert_eq!(id, 0);
        assert_eq!(e.time_ns, 10);
        let (id, e) = c.pop().unwrap();
        assert_eq!(id, 2);
        assert_eq!(e.time_ns, 30);
        assert!(c.pop().is_none());
    }
}
