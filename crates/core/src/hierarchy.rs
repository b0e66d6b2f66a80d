//! A two-level BTB storage helper: L1 backed by an optional L2, with
//! fill-on-L2-hit and write-both updates (the paper models immediate updates
//! and zero fill latency, §4.1). A single table can also stand alone as
//! either level of a heterogeneous hierarchy ([`TwoLevel::single`]).

use crate::config::{BtbLevel, LevelGeometry};
use crate::probe::LevelState;
use crate::storage::SetAssoc;

/// Two levels of set-associative storage holding entries of type `E`.
#[derive(Debug, Clone)]
pub struct TwoLevel<E: Clone> {
    l1: SetAssoc<E>,
    l2: Option<SetAssoc<E>>,
    /// The level the first table answers as: `L1`, except for a lone
    /// table standing as a heterogeneous hierarchy's L2.
    first: BtbLevel,
}

impl<E: Clone> TwoLevel<E> {
    /// Creates the hierarchy from geometries.
    #[must_use]
    pub fn new(l1: LevelGeometry, l2: Option<LevelGeometry>) -> Self {
        TwoLevel {
            l1: SetAssoc::new(l1.sets, l1.ways),
            l2: l2.map(|g| SetAssoc::new(g.sets, g.ways)),
            first: BtbLevel::L1,
        }
    }

    /// One table of geometry `geo` whose lookups and peeks answer as
    /// `level` (one level of a heterogeneous hierarchy).
    pub(crate) fn single(geo: LevelGeometry, level: BtbLevel) -> Self {
        TwoLevel {
            first: level,
            ..Self::new(geo, None)
        }
    }

    /// Looks up `key`: L1 first, then L2. An L2 hit fills the entry into L1
    /// (zero fill latency). Returns a reference to the (L1-resident) entry
    /// and the level that provided it; the hot L1-hit path is clone-free.
    #[inline]
    pub fn lookup_fill(&mut self, key: u64) -> Option<(&E, BtbLevel)> {
        if let Some(idx) = self.l1.touch(key) {
            return Some((self.l1.at(idx), self.first));
        }
        let l2 = self.l2.as_mut()?;
        let l2_idx = l2.touch(key)?;
        let cloned = l2.at(l2_idx).clone();
        let (idx, _evicted) = self.l1.insert_idx(key, cloned);
        Some((self.l1.at(idx), BtbLevel::L2))
    }

    /// Looks up `key` without filling or touching recency.
    #[inline]
    #[must_use]
    pub fn peek(&self, key: u64) -> Option<(&E, BtbLevel)> {
        if let Some(e) = self.l1.peek(key) {
            return Some((e, self.first));
        }
        if let Some(l2) = &self.l2 {
            if let Some(e) = l2.peek(key) {
                return Some((e, BtbLevel::L2));
            }
        }
        None
    }

    /// Applies `f` to the entry for `key` in every level, creating it with
    /// `default` where absent (immediate write-both update).
    pub fn update_with<D: Fn() -> E, F: FnMut(&mut E)>(&mut self, key: u64, default: D, mut f: F) {
        let (l1, l2) = self.entries_mut(key, default);
        f(l1);
        if let Some(l2) = l2 {
            f(l2);
        }
    }

    /// The entry for `key` in the L1 and, if any, the L2, each created with
    /// `default` where absent.
    #[inline]
    pub(crate) fn entries_mut<D: Fn() -> E>(
        &mut self,
        key: u64,
        default: D,
    ) -> (&mut E, Option<&mut E>) {
        let l1 = self.l1.get_or_insert_with(key, &default).0;
        let l2 = self
            .l2
            .as_mut()
            .map(|l2| l2.get_or_insert_with(key, &default).0);
        (l1, l2)
    }

    /// Writes `entry` to every level (read-modify-write updates that must
    /// keep levels consistent).
    pub fn write_both(&mut self, key: u64, entry: E) {
        if let Some(l2) = &mut self.l2 {
            l2.insert(key, entry.clone());
        }
        self.l1.insert(key, entry);
    }

    /// Reads the authoritative copy of `key`: the L2 entry when an L2
    /// exists (bigger, less thrashed), the L1 entry otherwise.
    #[must_use]
    pub fn peek_authoritative(&self, key: u64) -> Option<&E> {
        if let Some(l2) = &self.l2 {
            l2.peek(key)
        } else {
            self.l1.peek(key)
        }
    }

    /// Promotes `key` from the L2 into the L1 (BTB preloading, the IBM
    /// z-style bulk preload of §7.3's related work). No-op if the key is
    /// already in the L1 or absent from the L2.
    pub fn promote(&mut self, key: u64) {
        if self.l1.peek(key).is_some() {
            return;
        }
        let Some(l2) = &mut self.l2 else { return };
        if let Some(e) = l2.get(key) {
            let cloned = e.clone();
            self.l1.insert(key, cloned);
        }
    }

    /// The L1 table (for inspection).
    #[must_use]
    pub fn l1(&self) -> &SetAssoc<E> {
        &self.l1
    }

    /// The L2 table, if present (for inspection).
    #[must_use]
    pub fn l2(&self) -> Option<&SetAssoc<E>> {
        self.l2.as_ref()
    }

    /// Canonical per-level dump (see [`SetAssoc::dump_with`]), formatting
    /// each entry with `f`.
    pub fn dump_levels<F: Fn(&E) -> String>(&self, f: F) -> (LevelState, Option<LevelState>) {
        (
            LevelState {
                sets: self.l1.dump_with(&f),
            },
            self.l2.as_ref().map(|l2| LevelState {
                sets: l2.dump_with(&f),
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(sets: usize, ways: usize) -> LevelGeometry {
        LevelGeometry { sets, ways }
    }

    #[test]
    fn l2_hit_fills_l1() {
        let mut h: TwoLevel<u32> = TwoLevel::new(geo(2, 1), Some(geo(4, 2)));
        // Place only in L2 by updating then evicting from L1.
        h.update_with(0, || 7, |_| {});
        h.update_with(2, || 8, |_| {}); // same L1 set (2 sets), evicts key 0 from L1
        assert!(h.l1.peek(0).is_none(), "key 0 evicted from tiny L1");
        let (v, level) = h.lookup_fill(0).expect("L2 retains it");
        assert_eq!((*v, level), (7, BtbLevel::L2));
        // Now it is back in L1.
        assert_eq!(h.peek(0).map(|(e, l)| (*e, l)), Some((7, BtbLevel::L1)));
    }

    #[test]
    fn update_writes_both_levels() {
        let mut h: TwoLevel<u32> = TwoLevel::new(geo(2, 2), Some(geo(2, 2)));
        h.update_with(5, || 0, |e| *e += 1);
        assert_eq!(h.l1.peek(5), Some(&1));
        assert_eq!(h.l2.as_ref().unwrap().peek(5), Some(&1));
    }

    #[test]
    fn single_level_hierarchy_works() {
        let mut h: TwoLevel<u32> = TwoLevel::new(geo(4, 2), None);
        h.update_with(9, || 3, |_| {});
        assert_eq!(h.lookup_fill(9), Some((&3, BtbLevel::L1)));
        assert_eq!(h.lookup_fill(10), None);
    }
}
