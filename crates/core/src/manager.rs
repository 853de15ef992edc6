//! The ACE-manager abstraction and the trivial managers.
//!
//! A manager is the policy half of the framework: it observes DO-system
//! events (hotspot boundaries) and/or the raw block stream (for temporal
//! schemes) and issues reconfiguration requests to the machine's control
//! registers. The schemes compared in the evaluation are
//! [`crate::HotspotAceManager`] (the paper's contribution) and
//! [`crate::BbvAceManager`] (the BBV + tune-all-combinations baseline);
//! [`FixedManager`] provides the non-adaptive baseline and the static
//! oracle points.

use crate::cu::AceConfig;
use ace_runtime::DoEvent;
use ace_sim::{Block, Machine};

/// Policy hooks invoked by the run driver (see [`crate::Experiment`]).
///
/// All methods default to no-ops so a manager only implements the hooks
/// its scheme needs.
pub trait AceManager {
    /// Hands the manager the run's telemetry handle before
    /// [`AceManager::on_start`]. Managers that emit decision events store
    /// it; the default implementation drops it.
    fn set_telemetry(&mut self, telemetry: ace_telemetry::Telemetry) {
        let _ = telemetry;
    }

    /// Called once before the first instruction.
    fn on_start(&mut self, machine: &mut Machine) {
        let _ = machine;
    }

    /// Called for every DO-system boundary event.
    fn on_event(&mut self, event: DoEvent, machine: &mut Machine) {
        let _ = (event, machine);
    }

    /// Called for every raw method entry (before the DO system filters).
    /// Schemes that do not use a DO system — like positional adaptation at
    /// large-procedure boundaries — hook here.
    fn on_method_enter(&mut self, method: ace_workloads::MethodId, machine: &mut Machine) {
        let _ = (method, machine);
    }

    /// Called for every raw method exit with the invocation's inclusive
    /// dynamic instruction count.
    fn on_method_exit(
        &mut self,
        method: ace_workloads::MethodId,
        invocation_instr: u64,
        machine: &mut Machine,
    ) {
        let _ = (method, invocation_instr, machine);
    }

    /// Called after every executed block.
    fn on_block(&mut self, block: &Block, machine: &mut Machine) {
        let _ = (block, machine);
    }

    /// Called once after the last instruction.
    fn on_finish(&mut self, machine: &mut Machine) {
        let _ = machine;
    }
}

/// The non-adaptive baseline: leaves every CU at its largest size.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullManager;

impl AceManager for NullManager {}

/// Pins a fixed configuration for the whole run (static oracle points and
/// the per-configuration sweeps of the ablation benches).
///
/// # Examples
///
/// ```
/// use ace_core::{FixedManager, AceConfig};
/// use ace_sim::SizeLevel;
/// let _mgr = FixedManager::new(AceConfig::both(
///     SizeLevel::new(1).unwrap(),
///     SizeLevel::new(2).unwrap(),
/// ));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FixedManager {
    config: AceConfig,
}

impl FixedManager {
    /// Creates a manager pinning `config` from the first cycle on.
    pub fn new(config: AceConfig) -> FixedManager {
        FixedManager { config }
    }

    /// The pinned configuration.
    pub fn config(&self) -> AceConfig {
        self.config
    }
}

impl AceManager for FixedManager {
    fn on_start(&mut self, machine: &mut Machine) {
        // CuId index order is the legacy apply order (L1D before L2).
        for (cu, level) in self.config.touched_units() {
            machine.apply_resize(cu, level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::{CuId, MachineConfig, SizeLevel};

    #[test]
    fn fixed_manager_pins_levels() {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut mgr = FixedManager::new(AceConfig::both(
            SizeLevel::new(2).unwrap(),
            SizeLevel::new(3).unwrap(),
        ));
        mgr.on_start(&mut m);
        assert_eq!(m.level(CuId::L1d), SizeLevel::new(2).unwrap());
        assert_eq!(m.level(CuId::L2), SizeLevel::new(3).unwrap());
    }

    #[test]
    fn null_manager_changes_nothing() {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let mut mgr = NullManager;
        mgr.on_start(&mut m);
        mgr.on_finish(&mut m);
        assert_eq!(m.level(CuId::L1d), SizeLevel::LARGEST);
        assert_eq!(m.level(CuId::L2), SizeLevel::LARGEST);
    }
}
