//! Configurable-unit identity, descriptors, and the registry.
//!
//! The paper's central scalability claim (Section 3.2.1) is that CU
//! decoupling grows the tuning space *linearly* in the number of
//! configurable units. That only holds if adding a unit is data, not
//! code: a new CU is described by a [`CuDescriptor`] and registered with
//! the machine, and everything downstream — hotspot binning, tuning
//! search lists, energy accounting, trace residency — consumes the
//! registry instead of matching on a closed enum.
//!
//! [`CuId`] is a small index type rather than an enum precisely so the
//! set of units is open-ended. The well-known units ship as associated
//! constants ([`CuId::Window`], [`CuId::L1d`], [`CuId::L2`],
//! [`CuId::Dtlb`]) whose spellings match the variants of the closed enum
//! it replaced.

use crate::config::NUM_SIZE_LEVELS;
use serde::{Deserialize, Error, Serialize, Value};

/// Maximum number of configurable units a machine can register.
///
/// Counter arrays indexed by [`CuId`] (`last_reconfig`, per-CU scheme
/// statistics, trace residency tables) are sized by this constant.
pub const MAX_CUS: usize = 4;

/// Identifier of one configurable unit: a dense index into the machine's
/// [`CuRegistry`].
///
/// # Examples
///
/// ```
/// use ace_sim::CuId;
/// assert_eq!(CuId::L1d.name(), "l1d");
/// assert_eq!(CuId::from_name("l1d"), Some(CuId::L1d));
/// assert_eq!(CuId::L1d.to_string(), "L1D");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CuId(u8);

#[allow(non_upper_case_globals)]
impl CuId {
    /// The instruction window / ROB (the extension CU of Section 4.1).
    pub const Window: CuId = CuId(0);
    /// The L1 data cache.
    pub const L1d: CuId = CuId(1);
    /// The unified L2 cache.
    pub const L2: CuId = CuId(2);
    /// The data TLB (the registry-proving third CU).
    pub const Dtlb: CuId = CuId(3);

    /// All assignable identifiers, in tuning order (cheapest first).
    pub const ALL: [CuId; MAX_CUS] = [CuId::Window, CuId::L1d, CuId::L2, CuId::Dtlb];

    /// The dense index in `0..MAX_CUS`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The identifier with dense index `index`, if in range.
    pub fn from_index(index: usize) -> Option<CuId> {
        (index < MAX_CUS).then_some(CuId(index as u8))
    }

    /// Lower-case short name ("window", "l1d", "l2", "dtlb").
    pub fn name(self) -> &'static str {
        ["window", "l1d", "l2", "dtlb"][self.index()]
    }

    /// Historical enum-variant spelling, kept stable because the
    /// telemetry JSONL encoding is pinned by committed trace fixtures.
    fn variant(self) -> &'static str {
        ["Window", "L1d", "L2", "Dtlb"][self.index()]
    }

    /// Parses either the lower-case [`CuId::name`] or the historical
    /// variant spelling.
    pub fn from_name(s: &str) -> Option<CuId> {
        CuId::ALL
            .into_iter()
            .find(|cu| cu.name() == s || cu.variant() == s)
    }
}

impl std::fmt::Debug for CuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.variant())
    }
}

impl std::fmt::Display for CuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CuId::Window => write!(f, "WIN"),
            CuId::L1d => write!(f, "L1D"),
            CuId::L2 => write!(f, "L2"),
            CuId::Dtlb => write!(f, "DTLB"),
            _ => write!(f, "CU{}", self.0),
        }
    }
}

impl Serialize for CuId {
    // Encodes as the historical unit-variant string so pre-refactor
    // telemetry JSONL fixtures keep parsing (and new streams stay
    // byte-identical to old ones).
    fn to_value(&self) -> Value {
        Value::Str(self.variant().to_string())
    }
}

impl Deserialize for CuId {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => {
                CuId::from_name(s).ok_or_else(|| Error::custom(format!("unknown CU `{s}`")))
            }
            _ => Err(Error::custom("expected a CU name string")),
        }
    }
}

/// What an applied reconfiguration does to the unit's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlushSemantics {
    /// No state is lost; the pipeline drains briefly (instruction window).
    DrainPipeline,
    /// Dirty lines are written back to the next level (caches).
    WritebackDirty,
    /// All entries are invalidated and refill on demand (TLBs).
    InvalidateAll,
}

/// Static description of one configurable unit, registered with the
/// machine so software layers can treat the CU set as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuDescriptor {
    /// The unit's identifier (also its registry slot).
    pub cu: CuId,
    /// Depth of the size-level ladder (levels `0..levels` are selectable;
    /// level 0 is the largest).
    pub levels: u8,
    /// Minimum instructions between applied reconfigurations (the
    /// hardware guard interval of Section 3.4).
    pub reconfig_interval: u64,
    /// Smallest average hotspot invocation size this unit is worth
    /// adapting for — the grain the hotspot manager bins against (the
    /// paper's size-class rule ties it to the reconfiguration interval).
    pub min_hotspot_instr: u64,
    /// What an applied reconfiguration does to unit state.
    pub flush: FlushSemantics,
}

impl CuDescriptor {
    /// Descriptor with the default full [`NUM_SIZE_LEVELS`] ladder.
    pub fn new(
        cu: CuId,
        reconfig_interval: u64,
        min_hotspot_instr: u64,
        flush: FlushSemantics,
    ) -> CuDescriptor {
        CuDescriptor {
            cu,
            levels: NUM_SIZE_LEVELS as u8,
            reconfig_interval,
            min_hotspot_instr,
            flush,
        }
    }
}

/// The set of configurable units a machine exposes.
///
/// Slots are indexed by [`CuId`]; an empty slot means the hardware has no
/// such unit (requests against it are ignored, like writing a reserved
/// control register).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CuRegistry {
    slots: [Option<CuDescriptor>; MAX_CUS],
}

impl CuRegistry {
    /// An empty registry.
    pub fn new() -> CuRegistry {
        CuRegistry::default()
    }

    /// Registers (or replaces) a unit's descriptor.
    pub fn register(&mut self, desc: CuDescriptor) {
        self.slots[desc.cu.index()] = Some(desc);
    }

    /// The descriptor of `cu`, if registered.
    pub fn get(&self, cu: CuId) -> Option<&CuDescriptor> {
        self.slots[cu.index()].as_ref()
    }

    /// `true` if `cu` is registered.
    pub fn contains(&self, cu: CuId) -> bool {
        self.slots[cu.index()].is_some()
    }

    /// Number of registered units.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` if no unit is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Registered descriptors in [`CuId`] order.
    pub fn iter(&self) -> impl Iterator<Item = &CuDescriptor> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Registered identifiers in [`CuId`] order.
    pub fn ids(&self) -> impl Iterator<Item = CuId> + '_ {
        self.iter().map(|d| d.cu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for cu in CuId::ALL {
            assert_eq!(CuId::from_name(cu.name()), Some(cu));
            assert_eq!(CuId::from_index(cu.index()), Some(cu));
        }
        assert_eq!(CuId::from_name("l3"), None);
        assert_eq!(CuId::from_index(MAX_CUS), None);
    }

    #[test]
    fn serde_matches_legacy_variant_strings() {
        // The telemetry JSONL fixtures pin these exact encodings.
        assert_eq!(serde_json::to_string(&CuId::Window).unwrap(), "\"Window\"");
        assert_eq!(serde_json::to_string(&CuId::L1d).unwrap(), "\"L1d\"");
        assert_eq!(serde_json::to_string(&CuId::L2).unwrap(), "\"L2\"");
        assert_eq!(serde_json::to_string(&CuId::Dtlb).unwrap(), "\"Dtlb\"");
        let back: CuId = serde_json::from_str("\"L1d\"").unwrap();
        assert_eq!(back, CuId::L1d);
        assert!(serde_json::from_str::<CuId>("\"Rob\"").is_err());
    }

    #[test]
    fn const_patterns_still_match() {
        // `CuId::L1d`-style spellings must keep working in match arms.
        let cu = CuId::L1d;
        let label = match cu {
            CuId::Window => "w",
            CuId::L1d => "d",
            _ => "other",
        };
        assert_eq!(label, "d");
    }

    #[test]
    fn registry_slots() {
        let mut r = CuRegistry::new();
        assert!(r.is_empty());
        r.register(CuDescriptor::new(
            CuId::L1d,
            100_000,
            50_000,
            FlushSemantics::WritebackDirty,
        ));
        r.register(CuDescriptor::new(
            CuId::Dtlb,
            10_000,
            10_000,
            FlushSemantics::InvalidateAll,
        ));
        assert_eq!(r.len(), 2);
        assert!(r.contains(CuId::Dtlb));
        assert!(!r.contains(CuId::L2));
        assert_eq!(r.get(CuId::L1d).unwrap().reconfig_interval, 100_000);
        let ids: Vec<CuId> = r.ids().collect();
        assert_eq!(ids, vec![CuId::L1d, CuId::Dtlb]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CuId::Window.to_string(), "WIN");
        assert_eq!(CuId::Dtlb.to_string(), "DTLB");
        assert_eq!(format!("{:?}", CuId::Dtlb), "Dtlb");
    }
}
