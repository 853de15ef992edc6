//! Warm-start plumbing: hotspot signatures and the manager-side view of a
//! shared tuning store.
//!
//! A fleet of machines running similar workloads re-discovers the same
//! configuration selections over and over. The fleet subsystem
//! (`ace-fleet`) keeps a store of converged selections keyed by
//! [`HotspotSignature`] — a behavioral key independent of method ids, so
//! entries published by one machine match equivalent hotspots on another.
//! This module holds the pieces the manager needs: the signature, and a
//! [`WarmStartContext`] carrying a read-only snapshot of the store into a
//! run, plus the answers the run read from it and the publications it
//! made. The store itself (persistence, eviction, merging) lives in
//! `ace-fleet`; `ace-core` stays free of any I/O or cross-machine
//! concerns.

use crate::cu::AceConfig;
use ace_sim::{CuId, CuRegistry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The store key of one tuned hotspot: working-set class × phase grain ×
/// CU set, versioned against the registry.
///
/// Deliberately coarse — the point is that *different* machines running
/// *similar* hotspots land on the same key. Method ids never enter the
/// signature: they are machine-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HotspotSignature {
    /// Phase grain: `log2` bucket of the hotspot's mean invocation size
    /// in dynamic instructions.
    pub size_class: u8,
    /// Working-set class: the reference-trial (full-size) IPC quantized
    /// into eighth-of-an-IPC buckets. Two hotspots whose full-size
    /// behavior differs see different keys even at the same size.
    pub ws_class: u8,
    /// Bitmask over [`CuId`] slots the candidate list touches (one bit
    /// for a decoupled list, several for the combined list).
    pub cu_mask: u8,
    /// Version of the CU registry the entry was tuned against; a
    /// reconfigured fleet invalidates old entries wholesale.
    pub registry_version: u16,
}

impl HotspotSignature {
    /// Builds the signature from a hotspot's mean invocation size, its
    /// reference-trial IPC, the CU mask of its candidate list, and the
    /// registry version of the store being consulted.
    pub fn new(avg_size: u64, reference_ipc: f64, cu_mask: u8, registry_version: u16) -> Self {
        HotspotSignature {
            size_class: avg_size.max(1).ilog2() as u8,
            ws_class: ws_class_of(reference_ipc),
            cu_mask,
            registry_version,
        }
    }

    /// Packs the signature into one `u64` key (the form telemetry events
    /// and the on-disk store log carry).
    pub fn packed(self) -> u64 {
        u64::from(self.size_class)
            | (u64::from(self.ws_class) << 8)
            | (u64::from(self.cu_mask) << 16)
            | (u64::from(self.registry_version) << 24)
    }

    /// Inverse of [`HotspotSignature::packed`].
    pub fn from_packed(key: u64) -> Self {
        HotspotSignature {
            size_class: (key & 0xFF) as u8,
            ws_class: ((key >> 8) & 0xFF) as u8,
            cu_mask: ((key >> 16) & 0xFF) as u8,
            registry_version: ((key >> 24) & 0xFFFF) as u16,
        }
    }
}

/// Quantizes a reference IPC into the signature's working-set class.
fn ws_class_of(ipc: f64) -> u8 {
    (ipc * 8.0).floor().clamp(0.0, 255.0) as u8
}

/// The [`CuId`] bitmask of a candidate configuration list, for
/// [`HotspotSignature::cu_mask`].
pub fn cu_mask_of(configs: &[AceConfig]) -> u8 {
    let mut mask = 0u8;
    for cfg in configs {
        for cu in CuId::ALL {
            if cfg.touches(cu) {
                mask |= 1 << cu.index();
            }
        }
    }
    mask
}

/// A 16-bit fingerprint of a machine's CU registry ([`fnv1a`] over every
/// descriptor, folded). Stores stamp their entries with it so a fleet
/// whose hardware description changes starts cold instead of applying
/// selections tuned for different ladders.
pub fn registry_version(registry: &CuRegistry) -> u16 {
    let hash = fnv1a(registry.iter().flat_map(|desc| {
        [desc.cu.index() as u8, desc.levels]
            .into_iter()
            .chain(desc.reconfig_interval.to_le_bytes())
            .chain(desc.min_hotspot_instr.to_le_bytes())
            .chain([desc.flush as u8])
    }));
    (hash ^ (hash >> 16) ^ (hash >> 32) ^ (hash >> 48)) as u16
}

/// The workspace's 64-bit FNV-1a-style hash: the FNV-1a offset basis and
/// xor-then-multiply loop, but with multiplier `0x1_0000_01b3` where the
/// FNV 64-bit prime is `0x100_0000_01b3`. Dependency-free and
/// platform-stable, it keys every result cache, fleet fingerprint and
/// [`registry_version`]; each committed cache name and store stamp depends
/// on this exact multiplier.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// One converged selection a run wants to publish to the shared store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorePublication {
    /// The signature the entry is stored under.
    pub signature: HotspotSignature,
    /// The selected configuration.
    pub config: AceConfig,
    /// IPC of the selected configuration when it was tuned.
    pub ipc: f64,
    /// Energy per instruction (nJ) of the selected configuration.
    pub epi_nj: f64,
    /// Trials the cold tuning episode took to converge.
    pub trials: u32,
}

/// One read of the store: the signature a run looked up and the
/// configuration the snapshot answered with (`None` for a miss).
pub type StoreAnswer = (HotspotSignature, Option<AceConfig>);

/// What one run sees of the shared tuning store: a frozen snapshot for
/// lookups, plus a record of the answers it gave and a buffer of
/// publications the run makes.
///
/// The snapshot is immutable for the whole run — concurrent machines in a
/// fleet wave all read the same state, which is what keeps fleet results
/// byte-identical at any worker count. Publications are buffered here and
/// merged into the store by the fleet driver afterwards, in deterministic
/// machine order.
///
/// [`WarmStartContext::lookup`] is a run's only read of the store, and it
/// records every answer. A run is deterministic given its inputs, so a
/// run whose program, seed and limit are unchanged and whose recorded
/// answers a later snapshot gives again
/// ([`WarmStartContext::agrees_with`]) would repeat itself exactly.
#[derive(Debug, Clone, Default)]
pub struct WarmStartContext {
    version: u16,
    entries: HashMap<u64, AceConfig>,
    answers: Vec<StoreAnswer>,
    publications: Vec<StorePublication>,
}

impl WarmStartContext {
    /// An empty context (cold store) at the given registry version.
    pub fn new(version: u16) -> WarmStartContext {
        WarmStartContext {
            version,
            entries: HashMap::new(),
            answers: Vec::new(),
            publications: Vec::new(),
        }
    }

    /// The registry version signatures are stamped with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Seeds the snapshot with one store entry.
    pub fn insert(&mut self, signature: HotspotSignature, config: AceConfig) {
        self.entries.insert(signature.packed(), config);
    }

    /// Looks a signature up in the snapshot and records the answer, hit
    /// or miss.
    pub fn lookup(&mut self, signature: HotspotSignature) -> Option<AceConfig> {
        let answer = self.entries.get(&signature.packed()).copied();
        self.answers.push((signature, answer));
        answer
    }

    /// `true` when this snapshot gives each of `answers` again. Records
    /// nothing.
    pub fn agrees_with(&self, answers: &[StoreAnswer]) -> bool {
        answers
            .iter()
            .all(|&(signature, answer)| self.entries.get(&signature.packed()).copied() == answer)
    }

    /// Number of entries in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the snapshot is empty (a cold store).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffers one publication (called by the manager on cold
    /// convergence).
    pub fn publish(&mut self, publication: StorePublication) {
        self.publications.push(publication);
    }

    /// Publications buffered so far, in convergence order.
    pub fn publications(&self) -> &[StorePublication] {
        &self.publications
    }

    /// Consumes the context, returning the buffered publications.
    pub fn into_publications(self) -> Vec<StorePublication> {
        self.publications
    }

    /// Consumes the context, returning the buffered publications and
    /// every answer [`WarmStartContext::lookup`] gave, in order.
    pub fn into_parts(self) -> (Vec<StorePublication>, Vec<StoreAnswer>) {
        (self.publications, self.answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::SizeLevel;

    #[test]
    fn packed_round_trips() {
        let sig = HotspotSignature {
            size_class: 17,
            ws_class: 9,
            cu_mask: 0b0110,
            registry_version: 0xBEEF,
        };
        assert_eq!(HotspotSignature::from_packed(sig.packed()), sig);
    }

    #[test]
    fn signature_buckets_are_coarse_but_discriminating() {
        // Same bucket: nearby sizes and IPCs.
        let a = HotspotSignature::new(100_000, 2.01, 0b10, 1);
        let b = HotspotSignature::new(120_000, 2.05, 0b10, 1);
        assert_eq!(a, b);
        // Different grain, working set, CU set, or version: different key.
        assert_ne!(a, HotspotSignature::new(1_000_000, 2.01, 0b10, 1));
        assert_ne!(a, HotspotSignature::new(100_000, 1.0, 0b10, 1));
        assert_ne!(a, HotspotSignature::new(100_000, 2.01, 0b100, 1));
        assert_ne!(a, HotspotSignature::new(100_000, 2.01, 0b10, 2));
    }

    #[test]
    fn cu_mask_covers_the_list() {
        assert_eq!(
            cu_mask_of(&crate::cu::single_cu_list(CuId::L1d)),
            1 << CuId::L1d.index()
        );
        let combined = cu_mask_of(&crate::cu::combined_list());
        assert_eq!(combined & (1 << CuId::L1d.index()), 1 << CuId::L1d.index());
        assert_eq!(combined & (1 << CuId::L2.index()), 1 << CuId::L2.index());
    }

    #[test]
    fn registry_version_tracks_descriptor_changes() {
        use ace_sim::{CuDescriptor, FlushSemantics};
        let mut a = CuRegistry::new();
        a.register(CuDescriptor::new(
            CuId::L1d,
            100_000,
            50_000,
            FlushSemantics::WritebackDirty,
        ));
        let mut b = a.clone();
        assert_eq!(registry_version(&a), registry_version(&b));
        b.register(CuDescriptor::new(
            CuId::L1d,
            100_000,
            60_000,
            FlushSemantics::WritebackDirty,
        ));
        assert_ne!(registry_version(&a), registry_version(&b));
    }

    #[test]
    fn fnv1a_and_registry_version_are_pinned() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        // Standard FNV-1a 64 gives 0xaf63_dc4c_8601_ec8c for "a"; this
        // hash differs because its multiplier is not the FNV prime.
        assert_eq!(fnv1a(*b"a"), 0x1162_bb90_8601_ec8c);
        // The version the committed fleet report and store log carry.
        let table2 = ace_sim::MachineConfig::table2().cu_registry();
        assert_eq!(registry_version(&table2), 0xef9a);
    }

    #[test]
    fn context_lookup_and_publish() {
        let mut ctx = WarmStartContext::new(3);
        assert!(ctx.is_empty());
        let sig = HotspotSignature::new(200_000, 2.0, 0b10, 3);
        let cfg = AceConfig::l1d_only(SizeLevel::SMALLEST);
        ctx.insert(sig, cfg);
        assert_eq!(ctx.len(), 1);
        assert_eq!(ctx.lookup(sig), Some(cfg));
        assert_eq!(
            ctx.lookup(HotspotSignature::new(200_000, 1.0, 0b10, 3)),
            None
        );
        ctx.publish(StorePublication {
            signature: sig,
            config: cfg,
            ipc: 2.0,
            epi_nj: 0.5,
            trials: 4,
        });
        assert_eq!(ctx.publications().len(), 1);
        assert_eq!(ctx.into_publications().len(), 1);
    }

    #[test]
    fn context_records_its_answers_in_order() {
        let mut ctx = WarmStartContext::new(3);
        let (hit, miss) = (
            HotspotSignature::new(200_000, 2.0, 0b10, 3),
            HotspotSignature::new(200_000, 1.0, 0b10, 3),
        );
        let cfg = AceConfig::l1d_only(SizeLevel::SMALLEST);
        ctx.insert(hit, cfg);
        let snapshot = ctx.clone();
        assert_eq!(ctx.lookup(miss), None);
        assert_eq!(ctx.lookup(hit), Some(cfg));
        assert_eq!(ctx.lookup(miss), None);
        let answers = [(miss, None), (hit, Some(cfg)), (miss, None)];
        let (publications, recorded) = ctx.into_parts();
        assert!(publications.is_empty());
        assert_eq!(recorded, answers, "hits and misses, in order");

        // The snapshot it was cloned from gives the same answers; one
        // whose entry changed or appeared does not. Checking records
        // nothing.
        assert!(snapshot.agrees_with(&answers));
        assert!(snapshot.clone().into_parts().1.is_empty());
        let mut changed = snapshot.clone();
        changed.insert(hit, AceConfig::l1d_only(SizeLevel::new(1).unwrap()));
        assert!(!changed.agrees_with(&answers));
        let mut grown = snapshot.clone();
        grown.insert(miss, cfg);
        assert!(!grown.agrees_with(&answers));
        assert!(grown.agrees_with(&answers[1..2]));
    }
}
