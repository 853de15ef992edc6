//! The persistent warm-start tuning store.
//!
//! One [`TuningStore`] holds the fleet's converged configuration
//! selections, keyed by packed [`HotspotSignature`]. It is two things at
//! once:
//!
//! * an in-memory map the driver snapshots into a [`WarmStartContext`]
//!   before every wave (machines only ever see a frozen snapshot), and
//! * an append-only JSONL log on disk: every applied publication is
//!   appended as one [`StorePublication`] line, and opening the store
//!   replays the log through the exact same merge rules — so replay is
//!   idempotent by construction and a store survives process restarts.
//!
//! Merge rules (applied identically live and during replay):
//!
//! * **versioning** — a publication whose signature carries a different
//!   registry version than the store is stale and dropped (counted, never
//!   logged),
//! * **better-epi wins** — a publication for an existing signature only
//!   replaces the entry when its energy-per-instruction is strictly
//!   lower,
//! * **bounded capacity** — past `capacity` entries the oldest entry
//!   (smallest publication stamp) is evicted.
//!
//! Beside the selections, a store carries a **run ledger**: the fleet
//! machine runs its session has finished, by program content, seed and
//! limit. Each entry keeps the run's [`MachineOutcome`], its
//! publications and the answers its manager read from the snapshot, so
//! the driver can reuse a whole run that the current snapshot would
//! answer the same way, or else just its baseline (see
//! [`crate::driver::run_fleet`]). The ledger is session state. It is
//! never logged and never enters [`TuningStore::entries_sorted`],
//! snapshots or store fingerprints, so a reopened store starts with an
//! empty ledger.

use crate::driver::MachineOutcome;
use ace_bench::{save_atomic, BenchError, BenchResult};
use ace_core::{AceConfig, HotspotSignature, StoreAnswer, StorePublication, WarmStartContext};
use ace_workloads::Program;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One stored selection plus its bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreEntry {
    /// The converged configuration.
    pub config: AceConfig,
    /// IPC measured when the configuration was selected.
    pub ipc: f64,
    /// Energy per instruction (nJ) of the selection — the merge metric.
    pub epi_nj: f64,
    /// Trials the publishing machine's cold tuning episode took.
    pub trials: u32,
    /// Monotonic publication stamp (eviction orders by it).
    pub stamp: u64,
}

/// What [`TuningStore::publish`] did with a publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// New signature: entry inserted.
    Inserted,
    /// Existing signature, lower energy: entry replaced.
    Improved,
    /// Existing signature, no improvement: entry kept as-is.
    Kept,
    /// Signature stamped with a different registry version: dropped.
    Stale,
}

/// Everything a fleet machine's run depends on that varies between
/// machines, apart from the store's answers: the resolved program, the
/// executor seed and the instruction limit. The machine, DO and energy
/// profiles, the scheme and the store's registry version are constants
/// of a fleet session; a key must grow a field for any of them that
/// starts to vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    /// Digest of the program's content. A spec path names a file that
    /// can be rewritten, so the program is keyed by content, not by name.
    program: u64,
    /// Executor seed.
    seed: u64,
    /// Instruction limit.
    instruction_limit: u64,
}

impl RunKey {
    /// The key of a run of `program` at `seed` for `instruction_limit`
    /// instructions.
    pub(crate) fn new(program: &Program, seed: u64, instruction_limit: u64) -> RunKey {
        // Every `DefaultHasher::new()` hashes alike within a process,
        // which is all a ledger that is never written needs.
        let mut digest = DefaultHasher::new();
        program.hash(&mut digest);
        RunKey {
            program: digest.finish(),
            seed,
            instruction_limit,
        }
    }
}

/// One finished machine run, as the run ledger keeps it.
#[derive(Debug, Clone)]
pub(crate) struct LedgerEntry {
    /// The machine's result row, with its baseline when it had one.
    pub(crate) outcome: MachineOutcome,
    /// What the run published, in convergence order.
    pub(crate) publications: Vec<StorePublication>,
    /// What the run's lookups read from its snapshot, in order.
    pub(crate) answers: Vec<StoreAnswer>,
}

/// The run ledger: the last finished run of each key.
pub(crate) type RunLedger = HashMap<RunKey, LedgerEntry>;

/// The fleet's shared tuning store. See the module docs for semantics.
#[derive(Debug)]
pub struct TuningStore {
    version: u16,
    capacity: usize,
    entries: HashMap<u64, StoreEntry>,
    next_stamp: u64,
    evictions: u64,
    stale_dropped: u64,
    torn_tail_dropped: u64,
    log: Option<PathBuf>,
    runs: Arc<RunLedger>,
}

impl TuningStore {
    /// Default capacity bound: far above what one fleet run publishes,
    /// low enough that a long-lived store cannot grow without bound.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An in-memory store (no log) at `version` holding at most
    /// `capacity` entries.
    pub fn in_memory(version: u16, capacity: usize) -> TuningStore {
        TuningStore {
            version,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            next_stamp: 0,
            evictions: 0,
            stale_dropped: 0,
            torn_tail_dropped: 0,
            log: None,
            runs: Arc::default(),
        }
    }

    /// Opens (or creates) a log-backed store at `path`, replaying any
    /// existing log through the merge rules.
    ///
    /// A crash in the middle of an append leaves a *torn tail*: a final
    /// line with no trailing newline. If it does not parse, it is dropped,
    /// truncated from the file (so later appends start on a clean line),
    /// counted in [`TuningStore::torn_tail_dropped`] and reported on
    /// stderr. A final line that parses but lacks only its newline is
    /// kept, and the newline is added.
    ///
    /// # Errors
    ///
    /// Fails when the log exists but cannot be read or repaired, or when a
    /// newline-terminated line does not parse as a [`StorePublication`].
    pub fn open(
        path: impl Into<PathBuf>,
        version: u16,
        capacity: usize,
    ) -> BenchResult<TuningStore> {
        let path = path.into();
        let io_err = |e: std::io::Error| BenchError::msg(format!("{}: {e}", path.display()));
        let mut store = TuningStore::in_memory(version, capacity);
        if path.exists() {
            let bytes = std::fs::read(&path).map_err(io_err)?;
            let data = String::from_utf8(bytes).map_err(|e| {
                let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
                let line = valid.iter().filter(|&&b| b == b'\n').count() + 1;
                BenchError::msg(format!(
                    "{}:{line}: store log line is not valid UTF-8",
                    path.display()
                ))
            })?;
            let complete = data.rfind('\n').map_or(0, |i| i + 1);
            let (body, tail) = data.split_at(complete);
            for (lineno, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let publication: StorePublication = serde_json::from_str(line).map_err(|e| {
                    BenchError::msg(format!(
                        "{}:{}: corrupt store log line: {e}",
                        path.display(),
                        lineno + 1
                    ))
                })?;
                store.apply(publication);
            }
            if !tail.trim().is_empty() {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(io_err)?;
                match serde_json::from_str::<StorePublication>(tail) {
                    Ok(publication) => {
                        store.apply(publication);
                        file.write_all(b"\n").map_err(io_err)?;
                    }
                    Err(e) => {
                        file.set_len(complete as u64).map_err(io_err)?;
                        store.torn_tail_dropped += 1;
                        eprintln!(
                            "warning: {}:{}: dropped torn final store log line ({} bytes): {e}",
                            path.display(),
                            body.lines().count() + 1,
                            tail.len()
                        );
                    }
                }
            }
        }
        store.log = Some(path);
        Ok(store)
    }

    /// The registry version entries must be stamped with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Publications dropped for carrying a foreign registry version.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Torn final log lines dropped (and truncated) when the store was
    /// opened: 0 or 1.
    pub fn torn_tail_dropped(&self) -> u64 {
        self.torn_tail_dropped
    }

    /// The entry stored for `signature`, if any.
    pub fn get(&self, signature: HotspotSignature) -> Option<&StoreEntry> {
        self.entries.get(&signature.packed())
    }

    /// All entries, sorted by packed signature (deterministic order for
    /// reports and tests).
    pub fn entries_sorted(&self) -> Vec<(HotspotSignature, StoreEntry)> {
        let mut all: Vec<_> = self
            .entries
            .iter()
            .map(|(&k, &e)| (HotspotSignature::from_packed(k), e))
            .collect();
        all.sort_by_key(|(sig, _)| sig.packed());
        all
    }

    /// Freezes the current state into a [`WarmStartContext`] for a wave
    /// of machines. The snapshot never changes under the machines — that
    /// frozen view is what keeps fleet results byte-identical at any
    /// worker count.
    pub fn snapshot(&self) -> WarmStartContext {
        let mut ctx = WarmStartContext::new(self.version);
        for (&packed, entry) in &self.entries {
            ctx.insert(HotspotSignature::from_packed(packed), entry.config);
        }
        ctx
    }

    /// The runs recorded in this session. Machines read this shared copy
    /// while a wave runs; [`TuningStore::record_run`] copies it first if
    /// a wave still holds it, so their view stays frozen.
    pub(crate) fn runs(&self) -> Arc<RunLedger> {
        Arc::clone(&self.runs)
    }

    /// Records a finished run in the ledger, replacing the key's earlier
    /// run (memory only; see the module docs).
    pub(crate) fn record_run(&mut self, key: RunKey, entry: LedgerEntry) {
        Arc::make_mut(&mut self.runs).insert(key, entry);
    }

    /// Merges one publication into the store and, when it was applied
    /// (inserted or improved) and the store is log-backed, appends it to
    /// the on-disk log.
    ///
    /// # Errors
    ///
    /// Fails only when the log append fails; the in-memory state is
    /// already updated at that point.
    pub fn publish(&mut self, publication: StorePublication) -> BenchResult<PublishOutcome> {
        let outcome = self.apply(publication);
        if matches!(outcome, PublishOutcome::Inserted | PublishOutcome::Improved) {
            if let Some(path) = &self.log {
                append_line(path, &publication)?;
            }
        }
        Ok(outcome)
    }

    /// The merge rules, shared by live publishes and log replay.
    fn apply(&mut self, publication: StorePublication) -> PublishOutcome {
        if publication.signature.registry_version != self.version {
            self.stale_dropped += 1;
            return PublishOutcome::Stale;
        }
        let key = publication.signature.packed();
        let stamp = self.next_stamp;
        let entry = StoreEntry {
            config: publication.config,
            ipc: publication.ipc,
            epi_nj: publication.epi_nj,
            trials: publication.trials,
            stamp,
        };
        let outcome = match self.entries.get(&key) {
            Some(existing) if publication.epi_nj >= existing.epi_nj => return PublishOutcome::Kept,
            Some(_) => {
                self.entries.insert(key, entry);
                PublishOutcome::Improved
            }
            None => {
                self.entries.insert(key, entry);
                if self.entries.len() > self.capacity {
                    self.evict_oldest();
                }
                PublishOutcome::Inserted
            }
        };
        self.next_stamp += 1;
        outcome
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self.entries.iter().min_by_key(|(_, e)| e.stamp) {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    /// Rewrites the log to exactly the live entries (in stamp order, so a
    /// replay reconstructs identical state), atomically. A no-op for
    /// in-memory stores.
    ///
    /// The live log is append-only; compaction is an explicit maintenance
    /// action for a store whose log has accumulated superseded lines.
    ///
    /// # Errors
    ///
    /// Fails when the rewritten log cannot be written or renamed.
    pub fn compact(&self) -> BenchResult<()> {
        let Some(path) = &self.log else {
            return Ok(());
        };
        let mut all: Vec<_> = self.entries.iter().collect();
        all.sort_by_key(|(_, e)| e.stamp);
        let mut text = String::new();
        for (&packed, entry) in all {
            let publication = StorePublication {
                signature: HotspotSignature::from_packed(packed),
                config: entry.config,
                ipc: entry.ipc,
                epi_nj: entry.epi_nj,
                trials: entry.trials,
            };
            text.push_str(&serde_json::to_string(&publication).expect("publication serializes"));
            text.push('\n');
        }
        save_atomic(path, &text)
    }
}

fn append_line(path: &Path, publication: &StorePublication) -> BenchResult<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| BenchError::msg(format!("{}: {e}", dir.display())))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(publication).expect("publication serializes")
    )
    .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::SizeLevel;

    fn sig(n: u8) -> HotspotSignature {
        HotspotSignature {
            size_class: n,
            ws_class: 1,
            cu_mask: 0b10,
            registry_version: 7,
        }
    }

    fn publication(n: u8, epi_nj: f64) -> StorePublication {
        StorePublication {
            signature: sig(n),
            config: AceConfig::l1d_only(SizeLevel::SMALLEST),
            ipc: 2.0,
            epi_nj,
            trials: 4,
        }
    }

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ace_fleet_store_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn better_epi_wins_and_worse_is_kept() {
        let mut store = TuningStore::in_memory(7, 16);
        assert_eq!(
            store.publish(publication(1, 0.5)).unwrap(),
            PublishOutcome::Inserted
        );
        assert_eq!(
            store.publish(publication(1, 0.6)).unwrap(),
            PublishOutcome::Kept
        );
        assert_eq!(
            store.publish(publication(1, 0.4)).unwrap(),
            PublishOutcome::Improved
        );
        assert_eq!(store.len(), 1);
        assert!((store.get(sig(1)).unwrap().epi_nj - 0.4).abs() < 1e-12);
    }

    #[test]
    fn foreign_version_is_dropped() {
        let mut store = TuningStore::in_memory(3, 16);
        assert_eq!(
            store.publish(publication(1, 0.5)).unwrap(),
            PublishOutcome::Stale
        );
        assert!(store.is_empty());
        assert_eq!(store.stale_dropped(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut store = TuningStore::in_memory(7, 2);
        store.publish(publication(1, 0.5)).unwrap();
        store.publish(publication(2, 0.5)).unwrap();
        store.publish(publication(3, 0.5)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.get(sig(1)).is_none(), "oldest entry evicted");
        assert!(store.get(sig(2)).is_some() && store.get(sig(3)).is_some());
    }

    #[test]
    fn log_replay_is_idempotent() {
        let path = temp_log("replay");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = TuningStore::open(&path, 7, 16).unwrap();
            store.publish(publication(1, 0.5)).unwrap();
            store.publish(publication(2, 0.7)).unwrap();
            store.publish(publication(1, 0.3)).unwrap(); // improvement, logged
            store.publish(publication(2, 0.9)).unwrap(); // kept, not logged
        }
        let reopened = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!((reopened.get(sig(1)).unwrap().epi_nj - 0.3).abs() < 1e-12);
        assert!((reopened.get(sig(2)).unwrap().epi_nj - 0.7).abs() < 1e-12);
        // Replaying the replayed state again changes nothing.
        let twice = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(twice.entries_sorted(), reopened.entries_sorted());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let path = temp_log("compact");
        let _ = std::fs::remove_file(&path);
        let mut store = TuningStore::open(&path, 7, 16).unwrap();
        for epi in [9.0, 8.0, 7.0, 6.0] {
            store.publish(publication(1, epi)).unwrap(); // 4 logged lines, 1 entry
        }
        // Compaction renumbers stamps (relative order is preserved), so
        // compare the selection state, not the bookkeeping.
        let selections = |s: &TuningStore| {
            s.entries_sorted()
                .into_iter()
                .map(|(sig, e)| (sig, e.config, e.epi_nj, e.trials))
                .collect::<Vec<_>>()
        };
        let before = selections(&store);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 4);
        store.compact().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let reopened = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(selections(&reopened), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_is_frozen() {
        let mut store = TuningStore::in_memory(7, 16);
        store.publish(publication(1, 0.5)).unwrap();
        let mut snap = store.snapshot();
        store.publish(publication(2, 0.5)).unwrap();
        assert_eq!(snap.len(), 1, "snapshot does not see later publishes");
        assert_eq!(snap.version(), 7);
        assert!(snap.lookup(sig(1)).is_some());
        assert!(snap.lookup(sig(2)).is_none());
    }

    #[test]
    fn torn_tail_is_truncated_and_later_appends_are_clean() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = TuningStore::open(&path, 7, 16).unwrap();
            for n in 1..=3 {
                store.publish(publication(n, 0.5)).unwrap();
            }
        }
        let intact = std::fs::read_to_string(&path).unwrap();
        // A crash mid-append: half of a fourth line, no newline.
        let line = serde_json::to_string(&publication(4, 0.5)).unwrap();
        std::fs::write(&path, format!("{intact}{}", &line[..line.len() / 2])).unwrap();

        let mut store = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(store.len(), 3, "the three intact lines replay");
        assert_eq!(store.torn_tail_dropped(), 1);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            intact,
            "tail truncated"
        );

        store.publish(publication(4, 0.5)).unwrap();
        let reopened = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(
            reopened.torn_tail_dropped(),
            0,
            "the append landed on a clean line"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_final_line_without_newline_is_kept() {
        let path = temp_log("unterminated");
        let line = serde_json::to_string(&publication(1, 0.5)).unwrap();
        std::fs::write(&path, &line).unwrap();
        let mut store = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.torn_tail_dropped(), 0);
        store.publish(publication(2, 0.5)).unwrap();
        assert_eq!(TuningStore::open(&path, 7, 16).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_interior_line_is_a_line_numbered_error() {
        let path = temp_log("interior");
        let good = serde_json::to_string(&publication(1, 0.5)).unwrap();
        std::fs::write(&path, format!("{good}\nnot json\n{good}\n")).unwrap();
        let err = TuningStore::open(&path, 7, 16).unwrap_err().to_string();
        assert!(err.contains(":2: corrupt"), "{err}");
        // An unparsable line followed by more lines is interior, torn or not.
        std::fs::write(&path, format!("{good}\nnot json\n{good}")).unwrap();
        assert!(TuningStore::open(&path, 7, 16).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_non_utf8_line_is_a_line_numbered_error() {
        let path = temp_log("utf8");
        let good = serde_json::to_string(&publication(1, 0.5)).unwrap();
        let with_bad_line = |before: String, after: String| {
            [before.as_bytes(), &b"\xff\xfe"[..], after.as_bytes()].concat()
        };
        let open_fails_at = |log: Vec<u8>, line: usize| {
            std::fs::write(&path, &log).unwrap();
            let err = TuningStore::open(&path, 7, 16).unwrap_err().to_string();
            let want = format!(":{line}: store log line is not valid UTF-8");
            assert!(err.contains(&want), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), log, "nothing truncated");
        };
        // A bad middle line, then a bad unterminated final line.
        open_fails_at(with_bad_line(format!("{good}\n"), format!("\n{good}\n")), 2);
        open_fails_at(with_bad_line(format!("{good}\n{good}\n"), String::new()), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_log_is_an_error() {
        let path = temp_log("corrupt");
        std::fs::write(&path, "not json\n").unwrap();
        let err = TuningStore::open(&path, 7, 16).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
