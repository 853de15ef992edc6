//! Measurement of one region of execution (a hotspot invocation or a
//! sampling interval): IPC and cache energy per instruction.
//!
//! This is the metric the tuning code gathers between a hotspot's entry
//! and exit points (or across one BBV sampling interval) and the objective
//! the tuners minimize: total configurable-cache energy per instruction,
//! subject to an IPC degradation bound.

use ace_energy::EnergyModel;
use ace_sim::Machine;
use serde::{Deserialize, Serialize};

/// A probe armed at region entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    instret: u64,
    cycles: u64,
    energy_nj: f64,
}

impl Probe {
    /// Snapshots the machine at region entry.
    pub fn arm(machine: &mut Machine, model: &EnergyModel) -> Probe {
        let c = machine.counters();
        Probe {
            instret: c.instret,
            cycles: c.cycles,
            energy_nj: model.breakdown(c).total_nj(),
        }
    }

    /// Completes the measurement at region exit.
    ///
    /// Returns `None` for an empty region (no instructions retired), which
    /// callers should treat as "no measurement".
    pub fn finish(self, machine: &mut Machine, model: &EnergyModel) -> Option<Measurement> {
        let c = machine.counters();
        let instr = c.instret.saturating_sub(self.instret);
        let cycles = c.cycles.saturating_sub(self.cycles);
        if instr == 0 || cycles == 0 {
            return None;
        }
        let energy = model.breakdown(c).total_nj() - self.energy_nj;
        Some(Measurement {
            instr,
            ipc: instr as f64 / cycles as f64,
            epi_nj: energy / instr as f64,
        })
    }
}

/// IPC and energy-per-instruction over one region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Instructions retired in the region.
    pub instr: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Configurable-cache energy per instruction, in nanojoules.
    pub epi_nj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::{Block, MachineConfig, MemAccess};

    #[test]
    fn probe_measures_region_delta() {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let model = EnergyModel::default_180nm();
        // Warm up.
        for _ in 0..10 {
            m.exec_block(&Block {
                pc: 0x400,
                ninstr: 40,
                accesses: vec![MemAccess::load(0x1000)],
                branch: None,
            });
        }
        let probe = Probe::arm(&mut m, &model);
        for _ in 0..100 {
            m.exec_block(&Block {
                pc: 0x400,
                ninstr: 40,
                accesses: vec![MemAccess::load(0x1000)],
                branch: None,
            });
        }
        let meas = probe.finish(&mut m, &model).unwrap();
        assert_eq!(meas.instr, 4000);
        assert!(meas.ipc > 3.0 && meas.ipc <= 4.0, "ipc {}", meas.ipc);
        assert!(meas.epi_nj > 0.0);
    }

    #[test]
    fn empty_region_yields_none() {
        let mut m = Machine::new(MachineConfig::table2()).unwrap();
        let model = EnergyModel::default_180nm();
        let probe = Probe::arm(&mut m, &model);
        assert!(probe.finish(&mut m, &model).is_none());
    }

    #[test]
    fn smaller_cache_lower_epi_when_fitting() {
        let model = EnergyModel::default_180nm();
        let mut epis = Vec::new();
        for level in [0u8, 3] {
            let mut m = Machine::new(MachineConfig::table2()).unwrap();
            m.apply_resize(ace_sim::CuId::L1d, ace_sim::SizeLevel::new(level).unwrap());
            m.apply_resize(ace_sim::CuId::L2, ace_sim::SizeLevel::new(level).unwrap());
            let probe = Probe::arm(&mut m, &model);
            for _ in 0..2000 {
                for a in (0..2048u64).step_by(64) {
                    m.exec_block(&Block {
                        pc: 0x400,
                        ninstr: 16,
                        accesses: vec![MemAccess::load(0x8000 + a)],
                        branch: None,
                    });
                }
            }
            epis.push(probe.finish(&mut m, &model).unwrap().epi_nj);
        }
        assert!(
            epis[1] < epis[0],
            "tiny working set: small config cheaper {epis:?}"
        );
    }
}
