//! One module per table/figure of the paper's evaluation (§6).

pub mod ablations;
pub mod common;
pub mod fig11_pareto;
pub mod fig12_sensitivity;
pub mod fig13_overhead;
pub mod fig2_spread;
pub mod fig3_fig4_fig5_motivation;
pub mod fig9_fig10_energy;
pub mod fleet_scale;
pub mod table1_table2_specs;
pub mod table3_walkthrough;

pub use common::{ExperimentScale, TripleRun};
