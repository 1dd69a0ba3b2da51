//! End-to-end simulator metrics: set-up time of the workload's machines
//! and simulated MIPS (retired guest instructions per host second) on
//! both engines. Machine construction is kept out of the MIPS figure.

use crate::workload::Workload;
use crate::{timed, Tally};
use metal_core::Metal;
use metal_pipeline::{Core, Engine, EngineSnapshot, Interp};

/// The workload's machines on both engines, each with the snapshot that
/// rewinds it to the loaded program.
pub struct Machines {
    core: (Core<Metal>, EngineSnapshot<Metal>),
    interp: (Interp<Metal>, EngineSnapshot<Metal>),
}

impl Machines {
    /// Builds both machines; returns the seconds that took.
    pub fn build(workload: &Workload) -> (f64, Machines) {
        timed(|| Machines {
            core: workload.build(),
            interp: workload.build(),
        })
    }

    /// One full run of the workload on the pipelined core, in MIPS.
    pub fn pipeline_mips(&mut self, workload: &Workload, tally: &mut Tally) -> f64 {
        let (engine, pristine) = &mut self.core;
        mips(workload, engine, pristine, tally)
    }

    /// One full run of the workload on the interpreter, in MIPS.
    pub fn interp_mips(&mut self, workload: &Workload, tally: &mut Tally) -> f64 {
        let (engine, pristine) = &mut self.interp;
        mips(workload, engine, pristine, tally)
    }
}

/// Rewinds `engine` to `pristine` (not timed), runs the workload to its
/// halt and checks the result; returns simulated MIPS, 0 on a failure.
pub fn mips<E: Engine<Hooks = Metal>>(
    workload: &Workload,
    engine: &mut E,
    pristine: &EngineSnapshot<Metal>,
    tally: &mut Tally,
) -> f64 {
    engine.restore(pristine);
    let (secs, result) = timed(|| workload.run(engine));
    let rate = match &result {
        Ok(insns) => *insns as f64 / secs / 1e6,
        Err(_) => 0.0,
    };
    tally.check(result.map(|_| ()));
    rate
}
