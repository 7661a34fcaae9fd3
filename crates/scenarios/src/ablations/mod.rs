//! Ablation studies for every design dimension the paper discusses
//! qualitatively (§2.2, §3, §4.1, §4.3) — see the crate docs for the
//! index. Each ablation returns structured rows and a text rendering so
//! the `figures` binary can print the same series the analysis describes.

pub mod calibration;
pub mod coupling;
pub mod dimensionality;
pub mod menu;
pub mod nonstationary;
pub mod randomness;
pub mod second_order;
pub mod selection;
pub mod state;
pub mod trace_size;

pub use calibration::{ablation_calibration, CalibrationRow};
pub use coupling::{ablation_coupling, CouplingRow};
pub use dimensionality::{ablation_dimensionality, DimensionalityRow};
pub use menu::{ablation_menu, ablation_menu_instrumented, MenuConfig, MenuRow, MenuScenario};
pub use nonstationary::{ablation_nonstationary, NonstationaryResult};
pub use randomness::{ablation_randomness, RandomnessRow};
pub use second_order::{ablation_second_order, SecondOrderRow};
pub use selection::{ablation_selection, SelectionRow};
pub use state::{ablation_state, StateResult};
pub use trace_size::{ablation_trace_size, TraceSizeRow};
