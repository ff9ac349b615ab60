//! Deterministic key ownership for sharded peer serving.
//!
//! Rendezvous (highest-random-weight) hashing over the cache's stable
//! u128 keys: every peer, configured with the same `--peers` set,
//! computes the same owner for every key with no coordination — cell
//! results are location-independent pure functions of their key, so
//! ownership needs no consensus, only agreement on the hash. The score
//! is FNV-1a over `key ‖ peer address` — no `RandomState`, no clock —
//! so a map built tomorrow on another machine agrees with one built
//! today here.
//!
//! Rendezvous hashing also gives minimal key movement: when a peer
//! joins or leaves, the only keys that change owner are the ones that
//! peer wins (or was winning) — everyone else's argmax is untouched.
//! The proptests in `tests/sharding.rs` pin down determinism, balance,
//! and that movement bound.
//!
//! A peer is named by the `host:port` address it serves on, the same
//! string every peer of a cluster lists in `--peers`. Addresses order
//! byte-wise, identically on every platform, which is the order the
//! owner tie-break relies on.

use malec_types::stable::fnv1a64;

/// The deterministic key→owner map shared by every peer of a cluster.
///
/// # Example
///
/// ```
/// use malec_serve::ShardMap;
///
/// let peers = ["127.0.0.1:4174", "127.0.0.1:4173"];
/// let a = ShardMap::new(peers, "127.0.0.1:4173").unwrap();
/// let b = ShardMap::new(peers, "127.0.0.1:4174").unwrap();
/// assert_eq!(a.peers(), ["127.0.0.1:4173", "127.0.0.1:4174"]);
/// // Both vantage points agree on every owner, and exactly one owns it.
/// assert_eq!(a.owner(42), b.owner(42));
/// assert!(a.is_owner(42) != b.is_owner(42));
/// ```
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// The full peer set, self included — sorted and deduplicated so
    /// every peer agrees on iteration order and tie-breaks regardless
    /// of the order addresses were listed in `--peers`.
    peers: Vec<String>,
    /// Index of this process's own address in `peers`.
    self_index: usize,
}

impl ShardMap {
    /// Builds the map from the full peer list (order-insensitive;
    /// duplicates collapse) and this peer's own serving address, which
    /// must be in the list — a peer that excluded itself would forward
    /// every cell it is handed.
    ///
    /// # Errors
    ///
    /// The peer list is empty, or `self_addr` is not in it.
    pub fn new(
        peers: impl IntoIterator<Item = impl Into<String>>,
        self_addr: &str,
    ) -> Result<Self, String> {
        let mut peers: Vec<String> = peers.into_iter().map(Into::into).collect();
        peers.sort();
        peers.dedup();
        if peers.is_empty() {
            return Err("peer set is empty".to_owned());
        }
        let self_index = peers.iter().position(|p| p == self_addr).ok_or_else(|| {
            format!("own address {self_addr} is not in the peer set (list it in --peers too)")
        })?;
        Ok(Self { peers, self_index })
    }

    /// Every peer of the cluster, sorted, self included.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// This process's own serving address.
    pub(crate) fn self_addr(&self) -> &str {
        &self.peers[self.self_index]
    }

    /// The key's owner: the peer with the highest FNV-1a score over
    /// `key ‖ peer address`. Ties (astronomically unlikely, but cheap
    /// to close) break toward the lexicographically larger address —
    /// an order the constructor's sort fixed identically on every peer.
    pub fn owner(&self, key: u128) -> &str {
        self.peers
            .iter()
            .max_by(|a, b| score(key, a).cmp(&score(key, b)).then_with(|| a.cmp(b)))
            .expect("peer set is never empty")
    }

    /// Whether this peer owns `key`.
    pub fn is_owner(&self, key: u128) -> bool {
        self.owner(key) == self.self_addr()
    }
}

/// FNV-1a over the key's little-endian bytes, then the peer's address
/// bytes — deterministic across processes, platforms, and restarts.
fn score(key: u128, peer: &str) -> u64 {
    fnv1a64(key.to_le_bytes().into_iter().chain(peer.bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEERS: [&str; 3] = ["10.0.0.1:4173", "10.0.0.2:4173", "10.0.0.3:4173"];

    #[test]
    fn construction_sorts_dedups_and_finds_self() {
        let map = ShardMap::new(
            [
                "10.0.0.2:4173",
                "10.0.0.1:4173",
                "10.0.0.2:4173",
                "10.0.0.3:4173",
            ],
            "10.0.0.2:4173",
        )
        .expect("valid map");
        assert_eq!(map.peers(), PEERS);
        assert_eq!(map.self_addr(), "10.0.0.2:4173");
    }

    #[test]
    fn peers_order_bytewise_not_numerically() {
        let map = ShardMap::new(
            ["10.0.0.2:4173", "10.0.0.10:4173", "10.0.0.1:4173"],
            "10.0.0.1:4173",
        )
        .expect("valid map");
        // Byte-wise, not numeric: "10.0.0.10:" < "10.0.0.1:" (the digit
        // '0' sorts before ':'), and both sort before "10.0.0.2:".
        assert_eq!(
            map.peers(),
            ["10.0.0.10:4173", "10.0.0.1:4173", "10.0.0.2:4173"]
        );
    }

    #[test]
    fn self_must_be_listed_and_set_must_be_nonempty() {
        let err = ShardMap::new(PEERS, "10.0.0.9:4173").expect_err("self not listed");
        assert!(err.contains("10.0.0.9:4173"), "{err}");
        let none: [&str; 0] = [];
        let err = ShardMap::new(none, "10.0.0.1:4173").expect_err("empty set");
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn ownership_is_independent_of_flag_order_and_vantage_point() {
        let forward = ShardMap::new(PEERS, PEERS[0]).expect("map");
        let mut reversed: Vec<&str> = PEERS.to_vec();
        reversed.reverse();
        let backward = ShardMap::new(reversed, PEERS[2]).expect("map");
        for key in [
            0u128,
            1,
            42,
            u128::MAX,
            0x00c0_ffee_0000_0000_0000_0000_0000_cafe,
        ] {
            assert_eq!(forward.owner(key), backward.owner(key), "key {key:#x}");
        }
    }

    #[test]
    fn exactly_one_peer_claims_each_key() {
        for key in (0u128..64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let owners: usize = PEERS
                .iter()
                .map(|own| ShardMap::new(PEERS, own).expect("map"))
                .filter(|m| m.is_owner(key))
                .count();
            assert_eq!(owners, 1, "key {key:#x} must have exactly one owner");
        }
    }
}
