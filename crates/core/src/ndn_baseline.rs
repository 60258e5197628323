//! The NDN query/response baseline (§V-A).
//!
//! The paper compares G-COPSS against a pure-NDN solution built "using the
//! method described in VoCCN" with player discovery assumed solved by ACT:
//! every player knows the other players in its AoI and continuously queries
//! each of them for their next update batch, with two optimizations:
//!
//! * **Pipelining**: up to `window` (paper: 3) outstanding Interests per
//!   producer, so the next batches are already requested while one is in
//!   flight.
//! * **Update accumulation**: a producer buffers its updates and answers
//!   the pending Interest for its next sequence number every `t` ms,
//!   putting all buffered updates into one Data packet (larger `t` saves
//!   bandwidth, costs latency).
//!
//! Update streams are named `/player/<id>/<seq>`. Routers are ordinary NDN
//! forwarders, so simultaneous consumers of one producer are aggregated in
//! the PIT and served by one Data — and still, as §V-A shows, the sheer
//! query volume melts the routers.

use std::collections::{BTreeMap, BTreeSet};

use gcopss_compat::bytes::Bytes;
use gcopss_game::{GameMap, PlayerId};
use gcopss_names::{Component, Name};
use gcopss_ndn::{Data, Interest};
use gcopss_sim::{Ctx, FaultNotice, NodeBehavior, NodeId, SimDuration, SimTime};

use crate::client::TraceCursor;
use crate::scenario::NdnBaselineConfig;
use crate::{packet, GPacket, GameWorld};

/// The NDN name prefix of a player's update stream: `/player/<id>`.
#[must_use]
pub fn player_prefix(player: PlayerId) -> Name {
    Name::from_components([
        Component::new("player").expect("a valid label"),
        Component::index(player.0),
    ])
}

/// Outstanding Interests per producer (paper: 3).
pub(crate) const WINDOW: u64 = 3;

/// Re-express outstanding Interests older than this.
pub(crate) const RETRY_AFTER: SimDuration = SimDuration::from_secs(4);

/// Encodes a batch of publication ids into a Data payload whose length
/// equals the accumulated update bytes (min. the id listing itself).
fn encode_batch(ids: &[u64], total_update_bytes: usize) -> Bytes {
    let header = 4 + ids.len() * 8;
    let len = header.max(total_update_bytes);
    let mut v = vec![0u8; len];
    v[..4].copy_from_slice(&(ids.len() as u32).to_le_bytes());
    for (i, id) in ids.iter().enumerate() {
        v[4 + i * 8..4 + i * 8 + 8].copy_from_slice(&id.to_le_bytes());
    }
    Bytes::from(v)
}

/// Decodes the publication ids from a batch payload.
fn decode_batch(payload: &[u8]) -> Vec<u64> {
    let Some(head) = payload.get(..4) else {
        return Vec::new();
    };
    let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    (0..count)
        .filter_map(|i| {
            payload
                .get(4 + i * 8..4 + i * 8 + 8)
                .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        })
        .collect()
}

/// Per-producer consumer state.
#[derive(Debug, Default)]
struct ConsumerState {
    next_to_request: u64,
    /// Outstanding seq → last expression time.
    outstanding: BTreeMap<u64, SimTime>,
    received: BTreeSet<u64>,
}

/// The VoCCN-style player host: producer of its own update stream,
/// consumer of every AoI-relevant player's stream.
pub struct NdnPlayerClient {
    player: PlayerId,
    edge: NodeId,
    /// Update-accumulation interval `t`.
    accum_interval: SimDuration,
    /// Keep the retry timer armed even after the trace ends and no retries
    /// are due — set under recovery, for fault injection: an Interest lost
    /// to a link failure after the last publish would otherwise never be
    /// re-expressed. The simulation then no longer drains to quiescence
    /// (use [`gcopss_sim::Simulator::run_until`]).
    retry_forever: bool,
    cursor: TraceCursor,
    /// Producers this player consumes from.
    producers: Vec<PlayerId>,
    consumer: Vec<ConsumerState>,
    // Producer side.
    cur_seq: u64,
    accum_ids: Vec<u64>,
    accum_bytes: usize,
    history: BTreeMap<u64, (Vec<u64>, usize)>,
    pending_seqs: BTreeSet<u64>,
    next_nonce: u64,
    trace_done: bool,
}

const TIMER_PUBLISH: u64 = 0;
const TIMER_FLUSH: u64 = 2;
const TIMER_RETRY: u64 = 3;
const HISTORY_CAP: usize = 128;

impl NdnPlayerClient {
    /// Creates a client accumulating and retrying as `cfg` says. `producers`
    /// is the AoI roster from ACT: the players whose updates this player
    /// must track.
    #[must_use]
    pub fn new(
        player: PlayerId,
        edge: NodeId,
        cfg: &NdnBaselineConfig,
        cursor: TraceCursor,
        producers: Vec<PlayerId>,
    ) -> Self {
        let consumer = producers.iter().map(|_| ConsumerState::default()).collect();
        Self {
            player,
            edge,
            accum_interval: cfg.accum_interval,
            retry_forever: cfg.recovery.is_some(),
            cursor,
            producers,
            consumer,
            cur_seq: 0,
            accum_ids: Vec::new(),
            accum_bytes: 0,
            history: BTreeMap::new(),
            pending_seqs: BTreeSet::new(),
            next_nonce: u64::from(player.0) << 40,
            trace_done: false,
        }
    }

    /// Computes the AoI roster for every player from static placements:
    /// consumer → producers whose location the consumer sees.
    #[must_use]
    pub fn rosters(map: &GameMap, areas: &[gcopss_game::AreaId]) -> Vec<Vec<PlayerId>> {
        (0..areas.len())
            .map(|c| {
                (0..areas.len() as u32)
                    .map(PlayerId)
                    .filter(|p| p.index() != c && map.can_see(areas[c], areas[p.index()]))
                    .collect()
            })
            .collect()
    }

    fn nonce(&mut self) -> u64 {
        self.next_nonce += 1;
        self.next_nonce
    }

    fn express(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, producer_idx: usize, seq: u64) {
        let name = player_prefix(self.producers[producer_idx]).child_index(seq as u32);
        let nonce = self.nonce();
        let g = GPacket::Interest(Interest::new(name, nonce));
        packet::send(ctx, self.edge, g);
        ctx.counter("ndn-interests-expressed", 1);
        let now = ctx.now();
        self.consumer[producer_idx].outstanding.insert(seq, now);
    }

    fn send_batch(&self, ctx: &mut Ctx<'_, GPacket, GameWorld>, seq: u64) {
        let Some((ids, bytes)) = self.history.get(&seq) else {
            return;
        };
        let name = player_prefix(self.player).child_index(seq as u32);
        let data = Data::with_freshness(name, encode_batch(ids, *bytes), 500_000_000);
        let g = GPacket::Data(data);
        let size = g.wire_size();
        ctx.send(self.edge, g, size);
        if ctx.telemetry_enabled() {
            ctx.counter("ndn-batches-answered", 1);
            ctx.observe("ndn-batch-bytes", u64::from(size));
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        if !self.accum_ids.is_empty() {
            let ids = std::mem::take(&mut self.accum_ids);
            let bytes = std::mem::take(&mut self.accum_bytes);
            let seq = self.cur_seq;
            self.cur_seq += 1;
            self.history.insert(seq, (ids, bytes));
            while self.history.len() > HISTORY_CAP {
                let oldest = *self.history.keys().next().expect("non-empty");
                self.history.remove(&oldest);
            }
            if self.pending_seqs.remove(&seq) {
                self.send_batch(ctx, seq);
            }
        }
        // Keep flushing while the trace runs (plus a drain period for the
        // last accumulated batch).
        if !self.trace_done || !self.accum_ids.is_empty() {
            ctx.schedule(self.accum_interval, TIMER_FLUSH);
        }
    }

    fn retry_stale(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let now = ctx.now();
        let mut to_retry = Vec::new();
        for (pi, st) in self.consumer.iter().enumerate() {
            for (&seq, &at) in &st.outstanding {
                if now.saturating_duration_since(at) >= RETRY_AFTER {
                    to_retry.push((pi, seq));
                }
            }
        }
        let had_work = !to_retry.is_empty();
        for (pi, seq) in to_retry {
            self.express(ctx, pi, seq);
        }
        // Re-arm while the game is live (or forever, under fault
        // injection).
        if had_work || !self.trace_done || self.retry_forever {
            ctx.schedule(RETRY_AFTER, TIMER_RETRY);
        }
    }

    fn publish(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let Some((id, e)) = self.cursor.pop() else {
            self.trace_done = true;
            return;
        };
        let size = e.size;
        let now = ctx.now();
        ctx.world().metrics.publish(id, self.player, now);
        self.accum_ids.push(id);
        self.accum_bytes += size as usize;
        if !self.cursor.rearm(ctx, TIMER_PUBLISH) {
            self.trace_done = true;
        }
    }
}

impl NodeBehavior<GPacket, GameWorld> for NdnPlayerClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>) {
        let _p = gcopss_sim::prof::scope("ndn_client/start");
        // Prime the pipelines toward every producer.
        for pi in 0..self.producers.len() {
            for seq in 0..WINDOW {
                self.express(ctx, pi, seq);
            }
            self.consumer[pi].next_to_request = WINDOW;
        }
        self.cursor.rearm(ctx, TIMER_PUBLISH);
        ctx.schedule(self.accum_interval, TIMER_FLUSH);
        ctx.schedule(RETRY_AFTER, TIMER_RETRY);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, key: u64) {
        let _p = gcopss_sim::prof::scope("ndn_client/timer");
        match key {
            TIMER_PUBLISH => self.publish(ctx),
            TIMER_FLUSH => self.flush(ctx),
            TIMER_RETRY => self.retry_stale(ctx),
            _ => {}
        }
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, GPacket, GameWorld>,
        _from: Option<NodeId>,
        pkt: GPacket,
    ) {
        let _p = gcopss_sim::prof::scope("ndn_client/packet");
        match pkt {
            // Producer role: a consumer asks for one of our batches.
            GPacket::Interest(i) => {
                let comps = i.name.components();
                if comps.len() != 3 || comps[0].as_str() != "player" {
                    return;
                }
                let Ok(seq) = comps[2].as_str().parse::<u64>() else {
                    return;
                };
                if self.history.contains_key(&seq) {
                    self.send_batch(ctx, seq);
                } else if seq >= self.cur_seq {
                    // Not produced yet: hold until accumulation flushes it
                    // (the PIT keeps the reverse path alive meanwhile).
                    self.pending_seqs.insert(seq);
                } else {
                    // Aged out of history.
                    ctx.discard(crate::drops::NDN_BATCH_EXPIRED, i.encoded_len() as u32);
                }
            }
            // Consumer role: a producer's batch arrived.
            GPacket::Data(d) => {
                let comps = d.name.components();
                if comps.len() != 3 || comps[0].as_str() != "player" {
                    return;
                }
                let Ok(pid) = comps[1].as_str().parse::<u32>() else {
                    return;
                };
                let Ok(seq) = comps[2].as_str().parse::<u64>() else {
                    return;
                };
                let Some(pi) = self.producers.iter().position(|p| p.0 == pid) else {
                    return;
                };
                let ids = decode_batch(&d.payload);
                let st = &mut self.consumer[pi];
                st.outstanding.remove(&seq);
                if !st.received.insert(seq) {
                    return; // duplicate batch
                }
                for id in ids {
                    GameWorld::deliver(ctx, id, self.player);
                }
                // Slide the pipeline window.
                let next = self.consumer[pi].next_to_request;
                self.consumer[pi].next_to_request = next + 1;
                self.express(ctx, pi, next);
            }
            _ => {}
        }
    }

    fn service_time(&self, _pkt: &GPacket) -> SimDuration {
        SimDuration::ZERO
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_, GPacket, GameWorld>, notice: FaultNotice) {
        let _p = gcopss_sim::prof::scope("ndn_client/fault");
        if notice == FaultNotice::Restarted {
            // A host crash killed the publish/flush/retry timers (their
            // epoch went stale): re-arm them so the client resumes.
            self.cursor.rearm(ctx, TIMER_PUBLISH);
            ctx.schedule(self.accum_interval, TIMER_FLUSH);
            ctx.schedule(RETRY_AFTER, TIMER_RETRY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_encoding_round_trips() {
        let ids = vec![3u64, 99, 1 << 50];
        let b = encode_batch(&ids, 700);
        assert_eq!(b.len(), 700, "payload sized to accumulated bytes");
        assert_eq!(decode_batch(&b), ids);
        // Small batches are at least the listing size.
        let b = encode_batch(&ids, 0);
        assert_eq!(b.len(), 4 + 24);
        assert_eq!(decode_batch(&b), ids);
        assert!(decode_batch(&[]).is_empty());
    }

    #[test]
    fn player_prefix_name() {
        assert_eq!(player_prefix(PlayerId(7)), Name::parse_lit("/player/7"));
    }

    #[test]
    fn rosters_follow_visibility() {
        let map = GameMap::paper_map();
        let pop = gcopss_game::PlayerPopulation::uniform_per_area(&map, 2);
        let areas: Vec<_> = pop.players().map(|p| pop.area_of(p)).collect();
        let rosters = NdnPlayerClient::rosters(&map, &areas);
        assert_eq!(rosters.len(), 62);
        // The satellite players see everyone else.
        let world_players = pop.players_in(map.world());
        assert_eq!(rosters[world_players[0].index()].len(), 61);
        // No player tracks itself.
        for (c, r) in rosters.iter().enumerate() {
            assert!(!r.contains(&PlayerId(c as u32)));
        }
    }
}
