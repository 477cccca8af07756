//! The topology graph: hosts, switches, links, and precomputed routes.
//!
//! A [`Topology`] is an undirected graph whose vertices are compute hosts
//! and switches, and whose edges are full-duplex [`Link`]s with a bandwidth
//! and a one-way latency per direction. Routes between every host pair are
//! precomputed with a deterministic Dijkstra (lowest latency, then fewest
//! hops, then lowest vertex id) and summarized as a [`Route`]: total
//! latency, bottleneck bandwidth, the ordered backbone hops the message
//! serializes on, and whether the path crosses a rack boundary.
//!
//! Two invariants make the single-switch topology a *bit-exact* stand-in
//! for the flat one-NIC-per-node network model:
//!
//! * access links carry **half** the platform's NIC latency per hop, so the
//!   host→switch→host route latency is `lat/2 + lat/2`, which IEEE-754
//!   doubles evaluate to exactly `lat`;
//! * the route bottleneck of a two-access-hop path is exactly the access
//!   bandwidth, so serialization times divide by the same `f64`.

use std::collections::BinaryHeap;

/// Index of a host (a compute node able to run tasks), dense from 0.
pub type HostId = u32;
/// Index of a link in [`Topology::links`].
pub type LinkId = u32;

/// One full-duplex cable: `bandwidth` bytes/s and `latency` seconds *per
/// direction*, directions independent (messages A→B never contend with
/// B→A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// First endpoint (vertex id: hosts first, then switches).
    pub a: u32,
    /// Second endpoint (vertex id).
    pub b: u32,
    /// Bandwidth per direction, bytes/s.
    pub bandwidth: f64,
    /// One-way latency, seconds.
    pub latency: f64,
    /// `true` for switch↔switch links — the contended backbone the
    /// simulator serializes per direction and the planner prices as the
    /// cross-boundary term.
    pub backbone: bool,
}

/// One traversal of a backbone link along a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The link traversed.
    pub link: LinkId,
    /// `true` when traversed a→b, `false` for b→a. Each direction has its
    /// own capacity.
    pub forward: bool,
}

impl Hop {
    /// Direction index (0 = a→b, 1 = b→a) into per-link direction state.
    pub fn dir(&self) -> usize {
        usize::from(!self.forward)
    }
}

/// Precomputed path summary between two hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Sum of link latencies along the path, seconds.
    pub latency: f64,
    /// Minimum link bandwidth along the path, bytes/s.
    pub bottleneck: f64,
    /// The backbone (switch↔switch) hops in traversal order — the only
    /// links modelled as contended; access links are private to their host.
    pub backbone: Vec<Hop>,
    /// Whether source and destination sit in different racks.
    pub cross_rack: bool,
}

/// An immutable network topology with all host-pair routes precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    hosts: usize,
    rack_of: Vec<u32>,
    links: Vec<Link>,
    /// Dense `hosts x hosts` route table; the diagonal holds no route.
    routes: Vec<Option<Route>>,
}

impl Topology {
    /// Number of compute hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Human-readable name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the same topology renamed — the name is display-only.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// All links (backbone and access).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Whether messages between the two hosts cross a rack boundary.
    pub fn cross_rack(&self, src: HostId, dst: HostId) -> bool {
        self.rack_of[src as usize] != self.rack_of[dst as usize]
    }

    /// `true` when no backbone (switch↔switch) link exists — the degenerate
    /// case equivalent to the flat one-NIC-per-node model.
    pub fn is_flat(&self) -> bool {
        self.links.iter().all(|l| !l.backbone)
    }

    /// The precomputed route from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if `src == dst` (hosts never message themselves) or either id
    /// is out of range.
    pub fn route(&self, src: HostId, dst: HostId) -> &Route {
        assert_ne!(src, dst, "no route from a host to itself");
        self.routes[src as usize * self.hosts + dst as usize]
            .as_ref()
            .expect("route table is total for src != dst")
    }

    /// A single switch connecting `hosts` hosts at `bandwidth` bytes/s —
    /// the degenerate topology reproducing the flat NIC model bit-exactly
    /// (each access hop carries `latency / 2`; see the module docs).
    pub fn single_switch(hosts: usize, bandwidth: f64, latency: f64) -> Topology {
        let mut b = TopologyBuilder::new("single-switch");
        let s = b.add_switch();
        for _ in 0..hosts {
            let h = b.add_host(0);
            b.connect_host(h, s, bandwidth, latency / 2.0);
        }
        b.build().expect("single-switch topology is well-formed")
    }

    /// `n_racks` racks of `hosts_per_rack` hosts each: one top-of-rack
    /// switch per rack (access links at `access_bw`, `access_lat / 2` per
    /// hop) and a spine switch joined by per-rack uplinks (`uplink_bw`,
    /// `uplink_lat / 2` per hop). Hosts are numbered rack-major, so hosts
    /// `0..hosts_per_rack` share rack 0. Intra-rack routes match the
    /// single-switch case exactly; cross-rack routes bottleneck on the two
    /// uplinks, which are the contended backbone.
    pub fn racks(
        n_racks: usize,
        hosts_per_rack: usize,
        access_bw: f64,
        access_lat: f64,
        uplink_bw: f64,
        uplink_lat: f64,
    ) -> Topology {
        assert!(n_racks >= 1 && hosts_per_rack >= 1);
        let mut b = TopologyBuilder::new(&format!("racks{n_racks}x{hosts_per_rack}"));
        let spine = b.add_switch();
        for r in 0..n_racks {
            let tor = b.add_switch();
            b.connect_switches(tor, spine, uplink_bw, uplink_lat / 2.0);
            for _ in 0..hosts_per_rack {
                let h = b.add_host(r as u32);
                b.connect_host(h, tor, access_bw, access_lat / 2.0);
            }
        }
        b.build().expect("rack topology is well-formed")
    }
}

/// Incremental [`Topology`] construction.
struct TopologyBuilder {
    name: String,
    rack_of: Vec<u32>,
    switches: usize,
    /// (host, switch, bandwidth, latency)
    host_links: Vec<(u32, u32, f64, f64)>,
    /// (switch, switch, bandwidth, latency)
    switch_links: Vec<(u32, u32, f64, f64)>,
}

/// Opaque switch handle returned by `TopologyBuilder::add_switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchId(u32);

impl TopologyBuilder {
    /// An empty topology named `name`.
    fn new(name: &str) -> Self {
        TopologyBuilder {
            name: name.to_string(),
            rack_of: Vec::new(),
            switches: 0,
            host_links: Vec::new(),
            switch_links: Vec::new(),
        }
    }

    /// Adds a host in `rack`, returning its dense id.
    fn add_host(&mut self, rack: u32) -> HostId {
        self.rack_of.push(rack);
        (self.rack_of.len() - 1) as HostId
    }

    /// Adds a switch.
    fn add_switch(&mut self) -> SwitchId {
        self.switches += 1;
        SwitchId((self.switches - 1) as u32)
    }

    /// Connects a host to a switch (an access link).
    fn connect_host(&mut self, host: HostId, switch: SwitchId, bandwidth: f64, latency: f64) {
        self.host_links.push((host, switch.0, bandwidth, latency));
    }

    /// Connects two switches (a backbone link).
    fn connect_switches(&mut self, a: SwitchId, b: SwitchId, bandwidth: f64, latency: f64) {
        self.switch_links.push((a.0, b.0, bandwidth, latency));
    }

    /// Validates and freezes the topology, precomputing all routes.
    ///
    /// Errors on: no hosts, a host with no link, non-positive bandwidth, a
    /// negative latency, an endpoint out of range, or a disconnected graph.
    fn build(self) -> Result<Topology, String> {
        let hosts = self.rack_of.len();
        if hosts == 0 {
            return Err("topology has no hosts".into());
        }
        let n_vertices = hosts + self.switches;
        let sw = |s: u32| hosts as u32 + s;

        let mut links = Vec::with_capacity(self.host_links.len() + self.switch_links.len());
        for &(h, s, bw, lat) in &self.host_links {
            if h as usize >= hosts || s as usize >= self.switches {
                return Err(format!("access link ({h}, switch {s}) out of range"));
            }
            links.push(Link {
                a: h,
                b: sw(s),
                bandwidth: bw,
                latency: lat,
                backbone: false,
            });
        }
        for &(a, b, bw, lat) in &self.switch_links {
            if a as usize >= self.switches || b as usize >= self.switches || a == b {
                return Err(format!("backbone link (switch {a}, switch {b}) invalid"));
            }
            links.push(Link {
                a: sw(a),
                b: sw(b),
                bandwidth: bw,
                latency: lat,
                backbone: true,
            });
        }
        for l in &links {
            // `<=` plus an explicit NaN check also rejects NaN bandwidths.
            if l.bandwidth <= 0.0 || l.bandwidth.is_nan() {
                return Err(format!("link {}-{} has non-positive bandwidth", l.a, l.b));
            }
            if l.latency < 0.0 || l.latency.is_nan() {
                return Err(format!("link {}-{} has negative latency", l.a, l.b));
            }
        }

        let mut adj: Vec<Vec<(u32, LinkId)>> = vec![Vec::new(); n_vertices];
        for (i, l) in links.iter().enumerate() {
            adj[l.a as usize].push((l.b, i as LinkId));
            adj[l.b as usize].push((l.a, i as LinkId));
        }
        for (h, edges) in adj.iter().enumerate().take(hosts) {
            if edges.is_empty() {
                return Err(format!("host {h} has no link"));
            }
        }

        let mut routes: Vec<Option<Route>> = vec![None; hosts * hosts];
        for src in 0..hosts {
            let parents = dijkstra(src, n_vertices, &adj, &links)?;
            for dst in 0..hosts {
                if dst == src {
                    continue;
                }
                routes[src * hosts + dst] =
                    Some(summarize(src, dst, &parents, &links, &self.rack_of));
            }
        }

        Ok(Topology {
            name: self.name,
            hosts,
            rack_of: self.rack_of,
            links,
            routes,
        })
    }
}

/// Deterministic Dijkstra from `src`: lowest total latency, fewest hops on
/// a latency tie, lowest predecessor vertex id on a full tie. Returns, per
/// vertex, the `(parent vertex, link)` it was reached through.
fn dijkstra(
    src: usize,
    n_vertices: usize,
    adj: &[Vec<(u32, LinkId)>],
    links: &[Link],
) -> Result<Vec<Option<(u32, LinkId)>>, String> {
    #[derive(PartialEq)]
    struct Item {
        lat: f64,
        hops: u32,
        vertex: u32,
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        // min-heap via reversal
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .lat
                .total_cmp(&self.lat)
                .then_with(|| other.hops.cmp(&self.hops))
                .then_with(|| other.vertex.cmp(&self.vertex))
        }
    }

    let mut best: Vec<Option<(f64, u32)>> = vec![None; n_vertices];
    let mut parent: Vec<Option<(u32, LinkId)>> = vec![None; n_vertices];
    let mut heap = BinaryHeap::new();
    best[src] = Some((0.0, 0));
    heap.push(Item {
        lat: 0.0,
        hops: 0,
        vertex: src as u32,
    });
    while let Some(Item { lat, hops, vertex }) = heap.pop() {
        if best[vertex as usize] != Some((lat, hops)) {
            continue; // stale entry
        }
        // neighbours in insertion (link) order keeps tie-breaking stable
        for &(peer, link) in &adj[vertex as usize] {
            let l = &links[link as usize];
            let cand = (lat + l.latency, hops + 1);
            let better = match best[peer as usize] {
                None => true,
                Some((bl, bh)) => match cand.0.total_cmp(&bl) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        cand.1 < bh
                            || (cand.1 == bh
                                && parent[peer as usize].is_some_and(|(pv, _)| vertex < pv))
                    }
                },
            };
            if better {
                best[peer as usize] = Some(cand);
                parent[peer as usize] = Some((vertex, link));
                heap.push(Item {
                    lat: cand.0,
                    hops: cand.1,
                    vertex: peer,
                });
            }
        }
    }
    if best.iter().take(adj.len()).any(|b| b.is_none()) {
        return Err("topology is disconnected".into());
    }
    Ok(parent)
}

/// Folds the parent chain `dst -> src` into a [`Route`].
fn summarize(
    src: usize,
    dst: usize,
    parents: &[Option<(u32, LinkId)>],
    links: &[Link],
    rack_of: &[u32],
) -> Route {
    // walk dst -> src, collecting links in reverse traversal order
    let mut rev: Vec<(LinkId, u32)> = Vec::new(); // (link, entered-from vertex)
    let mut v = dst as u32;
    while v != src as u32 {
        let (p, link) = parents[v as usize].expect("connected");
        rev.push((link, p));
        v = p;
    }
    let mut latency = 0.0f64;
    let mut bottleneck = f64::INFINITY;
    let mut backbone = Vec::new();
    for &(link, from) in rev.iter().rev() {
        let l = &links[link as usize];
        latency += l.latency;
        bottleneck = bottleneck.min(l.bandwidth);
        if l.backbone {
            backbone.push(Hop {
                link,
                forward: l.a == from,
            });
        }
    }
    Route {
        latency,
        bottleneck,
        backbone,
        cross_rack: rack_of[src] != rack_of[dst],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 1.7e9;
    const LAT: f64 = 1.5e-6;

    #[test]
    fn single_switch_routes_match_flat_constants_bit_exactly() {
        let t = Topology::single_switch(6, BW, LAT);
        assert_eq!(t.hosts(), 6);
        assert!(t.is_flat());
        for src in 0..6u32 {
            for dst in 0..6u32 {
                if src == dst {
                    continue;
                }
                let r = t.route(src, dst);
                // lat/2 + lat/2 must reproduce lat to the last bit
                assert_eq!(r.latency.to_bits(), LAT.to_bits());
                assert_eq!(r.bottleneck.to_bits(), BW.to_bits());
                assert!(r.backbone.is_empty());
                assert!(!r.cross_rack);
            }
        }
    }

    #[test]
    fn rack_topology_splits_traffic_classes() {
        let t = Topology::racks(2, 3, BW, LAT, BW / 8.0, LAT);
        assert_eq!(t.hosts(), 6);
        assert!(!t.is_flat());
        // intra-rack: identical to the flat case
        let intra = t.route(0, 2);
        assert_eq!(intra.latency.to_bits(), LAT.to_bits());
        assert_eq!(intra.bottleneck.to_bits(), BW.to_bits());
        assert!(intra.backbone.is_empty() && !intra.cross_rack);
        // cross-rack: bottleneck on the uplink, two backbone hops
        let cross = t.route(0, 3);
        assert!(cross.cross_rack);
        assert_eq!(cross.bottleneck, BW / 8.0);
        assert_eq!(cross.backbone.len(), 2);
        assert!((cross.latency - 2.0 * LAT).abs() < 1e-18);
        assert!(t.cross_rack(2, 3) && !t.cross_rack(0, 2));
    }

    #[test]
    fn cross_rack_hops_traverse_opposite_directions() {
        let t = Topology::racks(2, 2, BW, LAT, BW / 4.0, LAT);
        let ab = t.route(0, 2);
        let ba = t.route(2, 0);
        assert_eq!(ab.backbone.len(), 2);
        // the same two uplinks, in reverse order and flipped direction
        let mut rev: Vec<Hop> = ba.backbone.iter().rev().copied().collect();
        for h in &mut rev {
            h.forward = !h.forward;
        }
        assert_eq!(ab.backbone, rev);
        // directions index disjoint capacity
        assert_ne!(ab.backbone[0].dir(), {
            let back = ba.backbone.iter().find(|h| h.link == ab.backbone[0].link);
            back.unwrap().dir()
        });
    }

    #[test]
    fn routes_are_deterministic_across_rebuilds() {
        let a = Topology::racks(3, 4, BW, LAT, BW / 16.0, 2.0 * LAT);
        let b = Topology::racks(3, 4, BW, LAT, BW / 16.0, 2.0 * LAT);
        assert_eq!(a, b);
    }

    #[test]
    fn builder_rejects_malformed_graphs() {
        // host with no link
        let mut b = TopologyBuilder::new("bad");
        b.add_host(0);
        assert!(b.build().is_err());
        // disconnected islands
        let mut b = TopologyBuilder::new("bad");
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let h1 = b.add_host(0);
        let h2 = b.add_host(1);
        b.connect_host(h1, s1, BW, LAT);
        b.connect_host(h2, s2, BW, LAT);
        assert!(b.build().is_err());
        // zero bandwidth
        let mut b = TopologyBuilder::new("bad");
        let s = b.add_switch();
        let h = b.add_host(0);
        b.connect_host(h, s, 0.0, LAT);
        assert!(b.build().is_err());
        // no hosts at all
        assert!(TopologyBuilder::new("empty").build().is_err());
    }

    #[test]
    fn dijkstra_prefers_low_latency_then_few_hops() {
        // two paths between the racks: a slow direct uplink pair and a
        // faster detour via a middle switch with lower total latency
        let mut b = TopologyBuilder::new("tri");
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let mid = b.add_switch();
        let h0 = b.add_host(0);
        let h1 = b.add_host(1);
        b.connect_host(h0, s0, BW, LAT);
        b.connect_host(h1, s1, BW, LAT);
        b.connect_switches(s0, s1, BW, 10.0 * LAT); // direct but slow
        b.connect_switches(s0, mid, BW, LAT);
        b.connect_switches(mid, s1, BW, LAT);
        let t = b.build().unwrap();
        let r = t.route(0, 1);
        // detour: h0->s0->mid->s1->h1 = 4 * LAT < 12 * LAT
        assert_eq!(r.backbone.len(), 2);
        assert!((r.latency - 4.0 * LAT).abs() < 1e-18);
    }
}
