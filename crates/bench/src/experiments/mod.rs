//! One module per paper artifact. Each function returns a [`crate::Table`]
//! suitable for printing and for recording in `EXPERIMENTS.md`.

mod ablations;
mod channel_matrix;
mod figs456;
mod glb;
mod observability;
mod prober_exp;
mod prune_matrix;
mod quantized;
mod solutions;
mod table1;

pub use ablations::{codec_ablation, defence_ablation, generality_sweep, probe_budget_ablation};
pub use channel_matrix::{
    channel_matrix, channel_matrix_cells, matrix_defences, render_channel_matrix, ChannelCell,
    CHANNEL_MATRIX_WIDTH,
};
pub use figs456::{fig4_accuracy, fig5_fig6_transfer, prepare_models, PreparedModels};
pub use glb::glb_bound_table;
pub use observability::observability_table;
pub use prober_exp::prober_table;
pub use prune_matrix::{prune_matrix, prune_matrix_cells, render_matrix, MatrixCell, MATRIX_WIDTH};
pub use quantized::{
    f32_int8_recovery_agreement, quantized_cells, quantized_table, render_quantized, QuantCell,
    QUANT_WIDTH,
};
pub use solutions::final_solution_table;
pub use table1::table1;
