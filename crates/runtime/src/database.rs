//! The DO database: per-method runtime profiling state.
//!
//! The paper's DO system keeps one database entry per code block holding
//! execution-frequency information, the hotspot's configuration list, and
//! tuning results. Detection state lives here; the ACE manager (ace-core)
//! attaches its tuning state per hotspot on top.

use ace_sim::CuId;
use ace_workloads::MethodId;
use serde::{Deserialize, Error, Serialize, Value};

/// Size classification of a promoted hotspot (Section 3.2.1).
///
/// A hotspot is bound to the configurable unit whose reconfiguration
/// grain matches its average invocation size (with the paper's
/// intervals: 50 K–500 K instructions adapt the L1 data cache, above
/// 500 K the L2). Hotspots below every registered grain adapt nothing
/// (but still exist as hotspots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HotspotClass {
    /// Below the smallest registered reconfiguration grain: no CU
    /// assigned.
    TooSmall,
    /// Matched to the named configurable unit's grain.
    Cu(CuId),
}

impl HotspotClass {
    /// The configurable unit this class adapts, if any.
    pub fn cu(self) -> Option<CuId> {
        match self {
            HotspotClass::TooSmall => None,
            HotspotClass::Cu(cu) => Some(cu),
        }
    }
}

impl std::fmt::Display for HotspotClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HotspotClass::TooSmall => write!(f, "small"),
            HotspotClass::Cu(cu) => write!(f, "{cu}"),
        }
    }
}

impl Serialize for HotspotClass {
    // Keeps the pre-registry encoding: the class serializes as the unit
    // variant string the old closed enum produced.
    fn to_value(&self) -> Value {
        match self {
            HotspotClass::TooSmall => Value::Str("TooSmall".to_string()),
            HotspotClass::Cu(cu) => cu.to_value(),
        }
    }
}

impl Deserialize for HotspotClass {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s == "TooSmall" => Ok(HotspotClass::TooSmall),
            _ => CuId::from_value(v).map(HotspotClass::Cu),
        }
    }
}

/// Detection lifecycle of one method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodState {
    /// Baseline-compiled; the DO system counts invocations.
    Cold,
    /// Promoted past `hot_threshold` and JIT-optimized; the next few
    /// invocations measure its dynamic size to pick the CU subset.
    Probing,
    /// Classified; tuning/configuration code is installed at its
    /// boundaries.
    Hot(HotspotClass),
}

/// One method's database entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodEntry {
    /// Detection state.
    pub state: MethodState,
    /// Total invocations observed.
    pub invocations: u64,
    /// Inclusive dynamic instructions across all completed invocations.
    pub total_instr: u64,
    /// Instructions accumulated during the probing invocations.
    pub probe_instr: u64,
    /// Completed probing invocations.
    pub probe_count: u32,
    /// Mean inclusive instructions per invocation, fixed at classification.
    pub avg_size: u64,
    /// Machine instret when the method was promoted (for identification
    /// latency accounting); `None` while cold.
    pub promoted_at: Option<u64>,
}

impl Default for MethodEntry {
    fn default() -> Self {
        MethodEntry {
            state: MethodState::Cold,
            invocations: 0,
            total_instr: 0,
            probe_instr: 0,
            probe_count: 0,
            avg_size: 0,
            promoted_at: None,
        }
    }
}

impl MethodEntry {
    /// `true` once the method is a classified hotspot.
    pub fn is_hot(&self) -> bool {
        matches!(self.state, MethodState::Hot(_))
    }

    /// The hotspot class, if classified.
    pub fn class(&self) -> Option<HotspotClass> {
        match self.state {
            MethodState::Hot(c) => Some(c),
            _ => None,
        }
    }
}

/// The database: one entry per method, indexed by [`MethodId`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DoDatabase {
    entries: Vec<MethodEntry>,
}

impl DoDatabase {
    /// Creates a database for `method_count` methods.
    pub fn new(method_count: usize) -> DoDatabase {
        DoDatabase {
            entries: vec![MethodEntry::default(); method_count],
        }
    }

    /// The entry for `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` does not belong to the program this database was
    /// sized for.
    pub fn entry(&self, m: MethodId) -> &MethodEntry {
        &self.entries[m.0 as usize]
    }

    /// Mutable access to the entry for `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn entry_mut(&mut self, m: MethodId) -> &mut MethodEntry {
        &mut self.entries[m.0 as usize]
    }

    /// The entry for `m`, or `None` when `m` is out of range.
    ///
    /// Use this instead of [`DoDatabase::entry`] wherever the method id
    /// comes from outside the program this database was sized for — e.g.
    /// the fleet driver inspecting another machine's ids — so a foreign
    /// id degrades to a miss instead of a panic.
    pub fn try_entry(&self, m: MethodId) -> Option<&MethodEntry> {
        self.entries.get(m.0 as usize)
    }

    /// Mutable counterpart of [`DoDatabase::try_entry`].
    pub fn try_entry_mut(&mut self, m: MethodId) -> Option<&mut MethodEntry> {
        self.entries.get_mut(m.0 as usize)
    }

    /// Number of methods the database was sized for.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` for a zero-method database.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(MethodId, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (MethodId(i as u32), e))
    }

    /// Number of classified hotspots of `class`.
    pub fn count_class(&self, class: HotspotClass) -> usize {
        self.entries
            .iter()
            .filter(|e| e.class() == Some(class))
            .count()
    }

    /// All classified hotspots.
    pub fn hotspots(&self) -> impl Iterator<Item = (MethodId, &MethodEntry)> {
        self.iter().filter(|(_, e)| e.is_hot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_entry_is_cold() {
        let db = DoDatabase::new(3);
        assert_eq!(db.entry(MethodId(0)).state, MethodState::Cold);
        assert!(!db.entry(MethodId(2)).is_hot());
        assert_eq!(db.entry(MethodId(1)).class(), None);
    }

    #[test]
    fn class_counting() {
        let mut db = DoDatabase::new(4);
        db.entry_mut(MethodId(0)).state = MethodState::Hot(HotspotClass::Cu(CuId::L1d));
        db.entry_mut(MethodId(1)).state = MethodState::Hot(HotspotClass::Cu(CuId::L1d));
        db.entry_mut(MethodId(2)).state = MethodState::Hot(HotspotClass::Cu(CuId::L2));
        assert_eq!(db.count_class(HotspotClass::Cu(CuId::L1d)), 2);
        assert_eq!(db.count_class(HotspotClass::Cu(CuId::L2)), 1);
        assert_eq!(db.count_class(HotspotClass::TooSmall), 0);
        assert_eq!(db.hotspots().count(), 3);
    }

    #[test]
    fn display_classes() {
        assert_eq!(HotspotClass::Cu(CuId::L1d).to_string(), "L1D");
        assert_eq!(HotspotClass::Cu(CuId::L2).to_string(), "L2");
        assert_eq!(HotspotClass::TooSmall.to_string(), "small");
    }

    #[test]
    fn try_entry_bounds() {
        let mut db = DoDatabase::new(2);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert!(db.try_entry(MethodId(1)).is_some());
        assert!(db.try_entry(MethodId(2)).is_none(), "foreign id is a miss");
        assert!(db.try_entry(MethodId(u32::MAX)).is_none());
        db.try_entry_mut(MethodId(0)).unwrap().invocations = 7;
        assert_eq!(db.entry(MethodId(0)).invocations, 7);
        assert!(db.try_entry_mut(MethodId(9)).is_none());
        assert!(DoDatabase::new(0).is_empty());
    }

    #[test]
    fn is_hot_only_after_classification() {
        // The detection lifecycle boundary: a promoted (probing) method is
        // not yet "hot" — only classification flips `is_hot`.
        let mut e = MethodEntry::default();
        assert!(!e.is_hot());
        e.state = MethodState::Probing;
        assert!(!e.is_hot(), "probing sits below the hot boundary");
        assert_eq!(e.class(), None);
        e.state = MethodState::Hot(HotspotClass::TooSmall);
        assert!(e.is_hot(), "even unadaptable hotspots are hot");
        assert_eq!(e.class(), Some(HotspotClass::TooSmall));
    }

    #[test]
    fn count_class_tracks_demotion() {
        let mut db = DoDatabase::new(3);
        db.entry_mut(MethodId(0)).state = MethodState::Hot(HotspotClass::Cu(CuId::L1d));
        db.entry_mut(MethodId(1)).state = MethodState::Hot(HotspotClass::Cu(CuId::L1d));
        assert_eq!(db.count_class(HotspotClass::Cu(CuId::L1d)), 2);
        // Demote one back to cold (e.g. a deoptimization): counts and the
        // hotspot iterator must both reflect it.
        db.entry_mut(MethodId(0)).state = MethodState::Cold;
        assert_eq!(db.count_class(HotspotClass::Cu(CuId::L1d)), 1);
        assert_eq!(db.hotspots().count(), 1);
        assert!(!db.entry(MethodId(0)).is_hot());
    }

    #[test]
    fn hotspots_iterate_in_method_id_order() {
        let mut db = DoDatabase::new(8);
        // Populate in scrambled order; iteration must follow MethodId.
        for i in [5u32, 1, 7, 3] {
            db.entry_mut(MethodId(i)).state = MethodState::Hot(HotspotClass::Cu(CuId::L2));
        }
        let ids: Vec<u32> = db.hotspots().map(|(m, _)| m.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        let again: Vec<u32> = db.hotspots().map(|(m, _)| m.0).collect();
        assert_eq!(ids, again, "iteration order is deterministic");
    }
}
