//! Topology descriptions and their validation.
//!
//! A [`TopologyConfig`] names the switches (by tier role), attaches
//! hosts to leaves, and lists the directed switch-to-switch links.
//! [`TopologyConfig::validate`] rejects structurally broken fabrics
//! with a typed [`TopoError`] — mirroring how `SwitchConfig::validate`
//! guards a single switch — and returns a [`Topology`]: the validated,
//! port-mapped form the fabric engine consumes.
//!
//! The first-class shape is the two-tier leaf–spine fabric
//! ([`TopologyConfig::leaf_spine`]); the explicit switch/link lists
//! keep the description general enough for multi-tier (fat-tree)
//! extensions without changing the on-disk or in-memory format.

use serde::Serialize;

/// Tier of a switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeRole {
    /// Top-of-rack switch; hosts attach here.
    Leaf,
    /// Aggregation switch; connects leaves to each other.
    Spine,
}

/// A fabric description: switches, host attachments, directed links.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Switch tiers; the switch id is the index into this list.
    pub roles: Vec<NodeRole>,
    /// Host attachments; host id is the index, the value is the switch
    /// (must be a leaf) the host's NIC cables into.
    pub host_leaf: Vec<u32>,
    /// Directed switch-to-switch links `(from, to)`. A physical cable
    /// is two entries, one per direction; validation requires the
    /// reverse of every link to exist.
    pub links: Vec<(u32, u32)>,
    /// Oversubscription sanity bound: a leaf with more than
    /// `max_oversub` hosts per uplink is rejected as a config typo
    /// rather than simulated into meaningless congestion collapse.
    pub max_oversub: f64,
}

/// A structurally invalid [`TopologyConfig`], reported by
/// [`TopologyConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopoError {
    /// The switch list was empty.
    NoSwitches,
    /// No hosts are attached anywhere — the fabric has no traffic
    /// sources or sinks.
    NoHosts,
    /// A fabric needs at least one leaf (hosts attach only to leaves).
    NoLeaves,
    /// Two or more leaves but no spine to connect them.
    NoSpines,
    /// A host names a switch id outside `roles`.
    HostOnUnknownSwitch {
        /// The offending host.
        host: u32,
        /// The out-of-range switch id it names.
        switch_id: u32,
    },
    /// A host attaches to a spine; hosts terminate on leaves.
    HostOnSpine {
        /// The offending host.
        host: u32,
        /// The spine it tried to attach to.
        switch_id: u32,
    },
    /// A link endpoint names a switch id outside `roles`.
    LinkEndpointOutOfRange {
        /// Index of the offending link in `links`.
        link: usize,
        /// The out-of-range switch id.
        switch_id: u32,
    },
    /// A link connects a switch to itself.
    SelfLink {
        /// The switch with the self-loop.
        switch_id: u32,
    },
    /// The same directed link appears twice (a port-count mismatch: the
    /// port map would assign two ports to one neighbor).
    DuplicateLink {
        /// Link source.
        from: u32,
        /// Link destination.
        to: u32,
    },
    /// A directed link has no reverse — the fabric requires full-duplex
    /// cables (a link-count mismatch between the two directions).
    AsymmetricLink {
        /// Source of the unpaired link.
        from: u32,
        /// Destination of the unpaired link.
        to: u32,
    },
    /// Leaf–leaf or spine–spine links break the two-tier routing model.
    TierViolation {
        /// Link source.
        from: u32,
        /// Link destination.
        to: u32,
    },
    /// A switch with no links and no hosts — degree 0, unreachable.
    IsolatedSwitch {
        /// The isolated switch.
        switch_id: u32,
    },
    /// Two leaves share no spine, so traffic between their hosts has no
    /// path.
    NoPathBetweenLeaves {
        /// First leaf.
        from: u32,
        /// Second leaf.
        to: u32,
    },
    /// A leaf's hosts-per-uplink ratio exceeds `max_oversub`.
    Oversubscribed {
        /// The offending leaf.
        leaf: u32,
        /// Hosts attached to it.
        hosts: usize,
        /// Uplinks it has toward spines.
        uplinks: usize,
        /// The configured bound it exceeded.
        max: f64,
    },
    /// A switch needs more ports than `u16` (the packet `PortId` width)
    /// can address.
    PortOverflow {
        /// The offending switch.
        switch_id: u32,
        /// Ports it would need.
        ports: usize,
    },
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::NoSwitches => write!(f, "topology has no switches"),
            TopoError::NoHosts => write!(f, "topology has no hosts"),
            TopoError::NoLeaves => write!(f, "topology has no leaf switches"),
            TopoError::NoSpines => {
                write!(f, "multiple leaves but no spine to connect them")
            }
            TopoError::HostOnUnknownSwitch { host, switch_id } => {
                write!(f, "host {host} attaches to unknown switch {switch_id}")
            }
            TopoError::HostOnSpine { host, switch_id } => {
                write!(
                    f,
                    "host {host} attaches to spine {switch_id}; hosts terminate on leaves"
                )
            }
            TopoError::LinkEndpointOutOfRange { link, switch_id } => {
                write!(f, "link #{link} names unknown switch {switch_id}")
            }
            TopoError::SelfLink { switch_id } => {
                write!(f, "switch {switch_id} links to itself")
            }
            TopoError::DuplicateLink { from, to } => {
                write!(f, "duplicate link {from} -> {to}")
            }
            TopoError::AsymmetricLink { from, to } => {
                write!(f, "link {from} -> {to} has no reverse direction")
            }
            TopoError::TierViolation { from, to } => {
                write!(f, "link {from} -> {to} connects switches of the same tier")
            }
            TopoError::IsolatedSwitch { switch_id } => {
                write!(f, "switch {switch_id} has no links and no hosts (degree 0)")
            }
            TopoError::NoPathBetweenLeaves { from, to } => {
                write!(
                    f,
                    "leaves {from} and {to} share no spine; no path between their hosts"
                )
            }
            TopoError::Oversubscribed {
                leaf,
                hosts,
                uplinks,
                max,
            } => write!(
                f,
                "leaf {leaf}: {hosts} hosts over {uplinks} uplink(s) exceeds the \
                 {max}:1 oversubscription sanity bound"
            ),
            TopoError::PortOverflow { switch_id, ports } => {
                write!(
                    f,
                    "switch {switch_id} needs {ports} ports; PortId is 16-bit"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

impl TopologyConfig {
    /// A full-mesh two-tier leaf–spine fabric: `leaves` leaf switches
    /// each carrying `hosts_per_leaf` hosts, every leaf cabled to every
    /// one of `spines` spine switches (both directions).
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Self {
        let mut roles = vec![NodeRole::Leaf; leaves];
        roles.extend(std::iter::repeat_n(NodeRole::Spine, spines));
        let host_leaf = (0..leaves * hosts_per_leaf)
            .map(|h| (h / hosts_per_leaf) as u32)
            .collect();
        let mut links = Vec::with_capacity(leaves * spines * 2);
        for l in 0..leaves as u32 {
            for s in 0..spines as u32 {
                let spine_id = leaves as u32 + s;
                links.push((l, spine_id));
                links.push((spine_id, l));
            }
        }
        TopologyConfig {
            roles,
            host_leaf,
            links,
            max_oversub: 16.0,
        }
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.roles.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_leaf.len()
    }

    /// Validates the description and builds the port-mapped
    /// [`Topology`]. Every structural error is reported as a typed
    /// [`TopoError`] (the first one found, in a deterministic order).
    pub fn validate(&self) -> Result<Topology, TopoError> {
        let n = self.roles.len() as u32;
        if n == 0 {
            return Err(TopoError::NoSwitches);
        }
        if self.host_leaf.is_empty() {
            return Err(TopoError::NoHosts);
        }
        let leaves: Vec<u32> = (0..n)
            .filter(|&s| self.roles[s as usize] == NodeRole::Leaf)
            .collect();
        let spines: Vec<u32> = (0..n)
            .filter(|&s| self.roles[s as usize] == NodeRole::Spine)
            .collect();
        if leaves.is_empty() {
            return Err(TopoError::NoLeaves);
        }
        if leaves.len() > 1 && spines.is_empty() {
            return Err(TopoError::NoSpines);
        }
        for (h, &sw) in self.host_leaf.iter().enumerate() {
            if sw >= n {
                return Err(TopoError::HostOnUnknownSwitch {
                    host: h as u32,
                    switch_id: sw,
                });
            }
            if self.roles[sw as usize] == NodeRole::Spine {
                return Err(TopoError::HostOnSpine {
                    host: h as u32,
                    switch_id: sw,
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (i, &(from, to)) in self.links.iter().enumerate() {
            for end in [from, to] {
                if end >= n {
                    return Err(TopoError::LinkEndpointOutOfRange {
                        link: i,
                        switch_id: end,
                    });
                }
            }
            if from == to {
                return Err(TopoError::SelfLink { switch_id: from });
            }
            if self.roles[from as usize] == self.roles[to as usize] {
                return Err(TopoError::TierViolation { from, to });
            }
            if !seen.insert((from, to)) {
                return Err(TopoError::DuplicateLink { from, to });
            }
        }
        for &(from, to) in &self.links {
            if !seen.contains(&(to, from)) {
                return Err(TopoError::AsymmetricLink { from, to });
            }
        }

        // Per-switch neighbor sets (sorted: the local port map is
        // hosts first, then neighbors in ascending switch id).
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for &(from, to) in &self.links {
            neighbors[from as usize].push(to);
        }
        for nb in &mut neighbors {
            nb.sort_unstable();
        }
        let mut hosts_of: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for (h, &sw) in self.host_leaf.iter().enumerate() {
            hosts_of[sw as usize].push(h as u32);
        }

        for s in 0..n {
            let degree = neighbors[s as usize].len() + hosts_of[s as usize].len();
            if degree == 0 {
                return Err(TopoError::IsolatedSwitch { switch_id: s });
            }
            let ports = neighbors[s as usize].len() + hosts_of[s as usize].len();
            if ports > u16::MAX as usize {
                return Err(TopoError::PortOverflow {
                    switch_id: s,
                    ports,
                });
            }
        }

        // Oversubscription sanity per leaf that actually carries hosts.
        for &l in &leaves {
            let hosts = hosts_of[l as usize].len();
            let uplinks = neighbors[l as usize].len();
            if hosts > 0 {
                if uplinks == 0 && leaves.len() > 1 {
                    // Hosts on this leaf can never reach the rest.
                    return Err(TopoError::IsolatedSwitch { switch_id: l });
                }
                if uplinks > 0 && hosts as f64 / uplinks as f64 > self.max_oversub {
                    return Err(TopoError::Oversubscribed {
                        leaf: l,
                        hosts,
                        uplinks,
                        max: self.max_oversub,
                    });
                }
            }
        }

        // Inter-leaf reachability: every leaf pair with hosts on both
        // sides needs a common spine.
        let mut spine_sets: Vec<Vec<u32>> = Vec::new();
        for &l in &leaves {
            spine_sets.push(
                neighbors[l as usize]
                    .iter()
                    .copied()
                    .filter(|&s| self.roles[s as usize] == NodeRole::Spine)
                    .collect(),
            );
        }
        for (i, &a) in leaves.iter().enumerate() {
            for (j, &b) in leaves.iter().enumerate().skip(i + 1) {
                if hosts_of[a as usize].is_empty() || hosts_of[b as usize].is_empty() {
                    continue;
                }
                let common = spine_sets[i].iter().any(|s| spine_sets[j].contains(s));
                if !common {
                    return Err(TopoError::NoPathBetweenLeaves { from: a, to: b });
                }
            }
        }

        Ok(Topology {
            cfg: self.clone(),
            leaves,
            spines,
            neighbors,
            hosts_of,
        })
    }
}

/// A validated, port-mapped topology (see [`TopologyConfig::validate`]).
///
/// Port layout per switch: ports `0..hosts` face the attached hosts (in
/// ascending host id), ports `hosts..hosts+neighbors` face neighbor
/// switches (in ascending switch id). The layout is a pure function of
/// the config, so every fabric run agrees on it.
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: TopologyConfig,
    /// Leaf switch ids, ascending.
    pub leaves: Vec<u32>,
    /// Spine switch ids, ascending.
    pub spines: Vec<u32>,
    /// Per switch: neighbor switch ids, ascending.
    pub neighbors: Vec<Vec<u32>>,
    /// Per switch: attached host ids, ascending.
    pub hosts_of: Vec<Vec<u32>>,
}

impl Topology {
    /// The config this topology was validated from.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.cfg.roles.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.cfg.host_leaf.len()
    }

    /// The tier of switch `s`.
    pub fn role(&self, s: u32) -> NodeRole {
        self.cfg.roles[s as usize]
    }

    /// The leaf switch host `h` attaches to.
    pub fn leaf_of_host(&self, h: u32) -> u32 {
        self.cfg.host_leaf[h as usize]
    }

    /// The local port on host `h`'s leaf that faces the host.
    pub fn host_port(&self, h: u32) -> u16 {
        let leaf = self.leaf_of_host(h);
        self.hosts_of[leaf as usize]
            .iter()
            .position(|&x| x == h)
            .expect("validated host is on its leaf") as u16
    }

    /// The local port on switch `s` that faces neighbor switch `to`.
    /// Panics if they are not adjacent (a fabric routing bug).
    pub fn neighbor_port(&self, s: u32, to: u32) -> u16 {
        let hosts = self.hosts_of[s as usize].len();
        let pos = self.neighbors[s as usize]
            .iter()
            .position(|&x| x == to)
            .unwrap_or_else(|| panic!("switches {s} and {to} are not adjacent"));
        (hosts + pos) as u16
    }

    /// Total ports on switch `s` (hosts + neighbors).
    pub fn ports(&self, s: u32) -> usize {
        self.hosts_of[s as usize].len() + self.neighbors[s as usize].len()
    }

    /// The spines adjacent to both `leaf_a` and `leaf_b` — the ECMP
    /// candidate set for traffic between them. Ascending switch id.
    pub fn common_spines(&self, leaf_a: u32, leaf_b: u32) -> impl Iterator<Item = u32> + '_ {
        self.neighbors[leaf_a as usize]
            .iter()
            .copied()
            .filter(move |s| {
                self.role(*s) == NodeRole::Spine && self.neighbors[leaf_b as usize].contains(s)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spine_constructor_validates() {
        let topo = TopologyConfig::leaf_spine(4, 2, 8).validate().unwrap();
        assert_eq!(topo.leaves, vec![0, 1, 2, 3]);
        assert_eq!(topo.spines, vec![4, 5]);
        assert_eq!(topo.num_hosts(), 32);
        // Leaf 1 carries hosts 8..16; its uplinks sit above them.
        assert_eq!(topo.leaf_of_host(9), 1);
        assert_eq!(topo.host_port(9), 1);
        assert_eq!(topo.neighbor_port(1, 4), 8);
        assert_eq!(topo.neighbor_port(4, 3), 3); // spines carry no hosts
        assert_eq!(topo.common_spines(0, 3).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn typed_errors_fire_in_order() {
        let empty = TopologyConfig {
            roles: vec![],
            host_leaf: vec![],
            links: vec![],
            max_oversub: 16.0,
        };
        assert_eq!(empty.validate().unwrap_err(), TopoError::NoSwitches);

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.host_leaf = vec![];
        assert_eq!(t.validate().unwrap_err(), TopoError::NoHosts);

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.host_leaf[0] = 99;
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::HostOnUnknownSwitch {
                host: 0,
                switch_id: 99
            }
        );

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.host_leaf[3] = 2; // switch 2 is the spine
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::HostOnSpine {
                host: 3,
                switch_id: 2
            }
        );

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.links.push((0, 2));
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::DuplicateLink { from: 0, to: 2 }
        );

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.links.push((0, 1));
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::TierViolation { from: 0, to: 1 }
        );

        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.links.retain(|&(f, to)| !(f == 1 && to == 2));
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::AsymmetricLink { from: 2, to: 1 }
        );

        // Degree-0 switch: a spine nobody cables to.
        let mut t = TopologyConfig::leaf_spine(2, 1, 2);
        t.roles.push(NodeRole::Spine);
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::IsolatedSwitch { switch_id: 3 }
        );

        // Leaves that share no spine.
        let t = TopologyConfig {
            roles: vec![
                NodeRole::Leaf,
                NodeRole::Leaf,
                NodeRole::Spine,
                NodeRole::Spine,
            ],
            host_leaf: vec![0, 1],
            links: vec![(0, 2), (2, 0), (1, 3), (3, 1)],
            max_oversub: 16.0,
        };
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::NoPathBetweenLeaves { from: 0, to: 1 }
        );

        // Oversubscription sanity.
        let mut t = TopologyConfig::leaf_spine(2, 1, 40);
        t.max_oversub = 16.0;
        assert!(matches!(
            t.validate().unwrap_err(),
            TopoError::Oversubscribed {
                leaf: 0,
                hosts: 40,
                uplinks: 1,
                ..
            }
        ));

        let mut t = TopologyConfig::leaf_spine(2, 2, 2);
        t.links.push((0, 0));
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::SelfLink { switch_id: 0 }
        );

        let mut t = TopologyConfig::leaf_spine(2, 2, 2);
        t.links.push((0, 7));
        assert_eq!(
            t.validate().unwrap_err(),
            TopoError::LinkEndpointOutOfRange {
                link: t.links.len() - 1,
                switch_id: 7
            }
        );
    }

    #[test]
    fn single_leaf_fabric_needs_no_spine() {
        // One rack, intra-leaf traffic only: valid without spines.
        let t = TopologyConfig {
            roles: vec![NodeRole::Leaf],
            host_leaf: vec![0, 0],
            links: vec![],
            max_oversub: 16.0,
        };
        let topo = t.validate().unwrap();
        assert!(topo.spines.is_empty());
        assert_eq!(topo.ports(0), 2);
    }
}
