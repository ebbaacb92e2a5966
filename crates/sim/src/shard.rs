//! Topology partitioning and sharded-simulator assembly.
//!
//! The partitioner assigns nodes to shards by chunking a DFS ordering of
//! the (undirected) link graph: DFS keeps each subtree — and therefore
//! each shard's working set of node state, channels, and pending events —
//! contiguous, so each shard's worker thread stays on its own memory. Channels
//! are owned by their transmitter's shard, so the only events that ever
//! cross a shard boundary are deliveries on cross-shard links, whose
//! propagation delay bounds the conservative lookahead.
//!
//! Requested shard counts degrade gracefully: more shards than nodes, or
//! any cross-shard channel with zero propagation delay (no lookahead),
//! silently collapses to a single shard rather than failing the build.

use crate::engine::{
    pack_loc, Channel, Global, RouteTable, Shard, ShardCore, Shared, Simulator, MAX_SHARDS,
};
use crate::event::{EventKey, EventQueue, NodeId};
use crate::intern::AddrInterner;
use crate::node::Node;
use crate::time::{SimDuration, SimTime};
use tva_wire::Addr;

use crate::event::ChannelId;

/// Assigns each node a shard in `0..want` by chunking a DFS order of the
/// link graph into `want` contiguous, near-equal pieces. Deterministic:
/// DFS starts at node 0, explores channels in ascending id order, and
/// restarts at the lowest unvisited node for disconnected components.
fn partition(n: usize, channels: &[Channel], want: usize) -> Vec<usize> {
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for c in channels {
        adj[c.from.0].push(c.to);
    }
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        stack.push(NodeId(start));
        while let Some(v) = stack.pop() {
            order.push(v);
            // Reverse push so the lowest-id channel's peer is explored first.
            for &peer in adj[v.0].iter().rev() {
                if !visited[peer.0] {
                    visited[peer.0] = true;
                    stack.push(peer);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    let (base, rem) = (n / want, n % want);
    let mut assign = vec![0usize; n];
    let mut pos = 0;
    for shard in 0..want {
        let take = base + usize::from(shard < rem);
        for &node in &order[pos..pos + take] {
            assign[node.0] = shard;
        }
        pos += take;
    }
    assign
}

/// Builds a [`Simulator`] from fully-constructed topology parts, split
/// across `want` shards (clamped to the node count and [`MAX_SHARDS`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    nodes: Vec<Box<dyn Node>>,
    channels: Vec<Channel>,
    routes: Vec<RouteTable>,
    interner: AddrInterner,
    addrs: Vec<(Addr, NodeId)>,
    defaults: Vec<(NodeId, ChannelId)>,
    statics: Vec<(NodeId, Addr, ChannelId)>,
    seed: u64,
    want: usize,
) -> Simulator {
    let n = nodes.len();
    let mut want = want.clamp(1, MAX_SHARDS).min(n.max(1));
    let mut assign = if want > 1 { partition(n, &channels, want) } else { vec![0; n] };

    // The conservative lookahead is the minimum cross-shard link delay.
    // A zero-delay cross-shard channel leaves no safe horizon at all, so
    // such topologies fall back to a single shard.
    let mut lookahead: Option<SimDuration> = None;
    if want > 1 {
        for c in &channels {
            if assign[c.from.0] != assign[c.to.0] {
                if c.delay == SimDuration::ZERO {
                    want = 1;
                    assign = vec![0; n];
                    lookahead = None;
                    break;
                }
                lookahead = Some(lookahead.map_or(c.delay, |l| l.min(c.delay)));
            }
        }
    }

    // Location maps: nodes (then channels) keep ascending global-id order
    // within their shard, so local indices are deterministic.
    let mut node_loc = vec![0u32; n];
    let mut node_gids: Vec<Vec<u32>> = vec![Vec::new(); want];
    for gid in 0..n {
        let s = assign[gid];
        node_loc[gid] = pack_loc(s, node_gids[s].len());
        node_gids[s].push(gid as u32);
    }
    let mut chan_loc = vec![0u32; channels.len()];
    let mut chan_gids: Vec<Vec<u32>> = vec![Vec::new(); want];
    for (gid, c) in channels.iter().enumerate() {
        let s = assign[c.from.0];
        chan_loc[gid] = pack_loc(s, chan_gids[s].len());
        chan_gids[s].push(gid as u32);
    }

    let shared = Shared {
        interner,
        node_loc,
        chan_loc,
        n_nodes: n as u64,
        lanes: (n + channels.len()) as u64,
    };

    // Distribute the nodes, channels, and route tables into their shards.
    let mut nodes: Vec<Option<Box<dyn Node>>> = nodes.into_iter().map(Some).collect();
    let mut channels: Vec<Option<Channel>> = channels.into_iter().map(Some).collect();
    let mut routes = routes;
    let shards = (0..want)
        .map(|si| {
            let node_gid = std::mem::take(&mut node_gids[si]);
            let chan_gid = std::mem::take(&mut chan_gids[si]);
            let shard_nodes: Vec<Box<dyn Node>> = node_gid
                .iter()
                .map(|&g| nodes[g as usize].take().expect("node assigned once"))
                .collect();
            let shard_channels: Vec<Channel> = chan_gid
                .iter()
                .map(|&g| channels[g as usize].take().expect("channel assigned once"))
                .collect();
            let shard_routes: Vec<RouteTable> = node_gid
                .iter()
                .map(|&g| std::mem::take(&mut routes[g as usize]))
                .collect();
            let n_local = shard_nodes.len();
            let n_local_chans = shard_channels.len();
            Shard {
                core: ShardCore {
                    id: si,
                    now: SimTime::ZERO,
                    events: EventQueue::default(),
                    channels: shard_channels,
                    routes: shard_routes,
                    node_gid,
                    chan_gid,
                    rng: (0..n_local).map(|_| None).collect(),
                    pkt_seq: vec![0; n_local],
                    lane_seq: vec![0; n_local + n_local_chans],
                    lanes: shared.lanes,
                    n_nodes_total: shared.n_nodes,
                    seed,
                    unrouted: 0,
                    events_dispatched: 0,
                    cur_key: EventKey { time: SimTime::ZERO, gen: 0, tie: 0 },
                    cur_lane_gid: 0,
                    cur_lane_idx: 0,
                    trace_intra: 0,
                    trace_buf: Vec::new(),
                    outbox: Vec::new(),
                },
                nodes: shard_nodes,
            }
        })
        .collect();

    Simulator {
        shards,
        shared,
        global: Global {
            addrs,
            defaults,
            statics,
            reconvergences: 0,
            tracer: None,
            link_events: Vec::new(),
            lookahead,
            now: SimTime::ZERO,
            cross_shard_events: 0,
        },
    }
}
