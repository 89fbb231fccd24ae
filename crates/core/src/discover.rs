//! Identifier observations for discovery.
//!
//! The discovery pass exists to warm the [`crate::Anonymizer`]'s mapping
//! state before the parallel rewrite pass, and for most of that state the
//! order files are scanned in does not matter: the leak record, the
//! emitted-image set, and the per-file statistics all merge
//! commutatively. The two exceptions are the v4 and v6 prefix-preserving
//! tries, whose node layout depends on the order addresses are *first*
//! inserted. A sequential scan would get that order for free; discovery
//! shards scan their ranges at once, so the order is reconstructed.
//!
//! The reconstruction rests on one property of the tries (pinned by the
//! `ipanon` test suite): mappings are **sticky**. Once an address has an
//! image, re-anonymizing it returns the same image without mutating
//! state. A sequential run's trie state is therefore a function of one
//! thing only — the sequence of *first occurrences* of distinct
//! addresses, in corpus order. So each discovery shard records, for every
//! address it would have mapped, the corpus position `(file index,
//! in-file sequence)` of its first sighting; merging shards keeps the
//! minimum position per address; and replaying the merged set sorted by
//! position drives the tries through exactly the insertion sequence a
//! sequential scan would have produced. See
//! [`crate::batch::BatchPipeline`] for the surrounding machinery.

use std::collections::BTreeMap;

use confanon_netprim::{Ip, Ip6};

/// Corpus position of an observation: `(file index, in-file sequence)`.
///
/// The in-file sequence is a single counter shared by v4 and v6
/// observations, incremented at each would-be trie mapping, so positions
/// are totally ordered and unique across both address families.
pub type ObsPos = (u64, u64);

/// One trie-mutating identifier observed during a discovery shard's scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObservedIp {
    /// An IPv4 address that would have been mapped through the v4 trie.
    V4(Ip),
    /// An IPv6 address that would have been mapped through the v6 trie.
    V6(Ip6),
}

impl std::fmt::Display for ObservedIp {
    /// The address in its usual text form, as the leak record holds it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObservedIp::V4(ip) => std::fmt::Display::fmt(ip, f),
            ObservedIp::V6(ip) => std::fmt::Display::fmt(ip, f),
        }
    }
}

/// A log of first observations of trie-mutating identifiers, keyed by
/// identifier with the earliest corpus position seen.
///
/// Shards over disjoint file ranges produce logs with disjoint position
/// sets; [`ObservationLog::merge`] is nevertheless written to keep the
/// minimum position per identifier, so it is commutative and idempotent
/// regardless of how the corpus was split.
#[derive(Debug, Clone, Default)]
pub struct ObservationLog {
    cursor: ObsPos,
    v4: BTreeMap<Ip, ObsPos>,
    v6: BTreeMap<Ip6, ObsPos>,
}

impl ObservationLog {
    /// Positions subsequent observations at the start of file `file_idx`.
    pub fn begin_file(&mut self, file_idx: u64) {
        self.cursor = (file_idx, 0);
    }

    /// Records a v4 address at the current cursor position, keeping the
    /// earliest position if it was already seen.
    pub fn note_v4(&mut self, ip: Ip) {
        let pos = self.next_pos();
        self.v4
            .entry(ip)
            .and_modify(|p| *p = (*p).min(pos))
            .or_insert(pos);
    }

    /// Records a v6 address at the current cursor position, keeping the
    /// earliest position if it was already seen.
    pub fn note_v6(&mut self, ip: Ip6) {
        let pos = self.next_pos();
        self.v6
            .entry(ip)
            .and_modify(|p| *p = (*p).min(pos))
            .or_insert(pos);
    }

    fn next_pos(&mut self) -> ObsPos {
        let p = self.cursor;
        self.cursor.1 += 1;
        p
    }

    /// Folds another log in, keeping the earliest position per
    /// identifier. Commutative: merge order cannot change the result.
    pub fn merge(&mut self, other: ObservationLog) {
        for (ip, pos) in other.v4 {
            self.v4
                .entry(ip)
                .and_modify(|p| *p = (*p).min(pos))
                .or_insert(pos);
        }
        for (ip, pos) in other.v6 {
            self.v6
                .entry(ip)
                .and_modify(|p| *p = (*p).min(pos))
                .or_insert(pos);
        }
    }

    /// Number of distinct identifiers recorded (v4 + v6).
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// `true` when no identifier has been recorded.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }

    /// The observed identifiers sorted by first corpus position — the
    /// exact order a sequential scan would have first inserted them into
    /// the tries. Ties (impossible for shards over disjoint files, since
    /// every observation consumes a unique position) break on the
    /// identifier itself so the order is total in every case.
    pub fn into_canonical_order(self) -> Vec<ObservedIp> {
        let mut all: Vec<(ObsPos, ObservedIp)> = self
            .v4
            .into_iter()
            .map(|(ip, pos)| (pos, ObservedIp::V4(ip)))
            .chain(self.v6.into_iter().map(|(ip, pos)| (pos, ObservedIp::V6(ip))))
            .collect();
        all.sort_unstable();
        all.into_iter().map(|(_, ip)| ip).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(n: u32) -> Ip {
        Ip(n)
    }

    #[test]
    fn canonical_order_is_first_occurrence_order() {
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note_v4(v4(30));
        log.note_v4(v4(10));
        log.note_v4(v4(30)); // repeat: keeps the earlier position
        log.begin_file(1);
        log.note_v4(v4(20));
        assert_eq!(
            log.into_canonical_order(),
            vec![
                ObservedIp::V4(v4(30)),
                ObservedIp::V4(v4(10)),
                ObservedIp::V4(v4(20)),
            ]
        );
    }

    #[test]
    fn merge_is_commutative_and_keeps_min_position() {
        let mut a = ObservationLog::default();
        a.begin_file(0);
        a.note_v4(v4(7));
        a.note_v6(Ip6(9));
        let mut b = ObservationLog::default();
        b.begin_file(3);
        b.note_v4(v4(7)); // later sighting of the same address
        b.note_v4(v4(8));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.into_canonical_order(), ba.into_canonical_order());
    }

    #[test]
    fn v4_and_v6_share_one_position_sequence() {
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note_v6(Ip6(1));
        log.note_v4(v4(1));
        assert_eq!(
            log.into_canonical_order(),
            vec![ObservedIp::V6(Ip6(1)), ObservedIp::V4(v4(1))]
        );
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note_v4(v4(1));
        log.note_v6(Ip6(1));
        assert_eq!(
            log.into_canonical_order(),
            vec![ObservedIp::V4(v4(1)), ObservedIp::V6(Ip6(1))]
        );
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = ObservationLog::default();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(log.into_canonical_order().is_empty());
    }
}
