//! The generators — one module per table, figure or sweep — and the table
//! that names them.

use ovcomm_bench::Opts;

mod ablation_meshes;
mod ablation_model;
mod ablation_network;
mod algo_sweep;
mod blockcg_overlap;
mod fig3_p2p_bandwidth;
mod fig5_coll_bandwidth;
mod fig6_time_diagram;
mod figs12_matvec;
mod multi_tenant;
mod particles_overlap;
mod rma_sweep;
mod scale_sweep;
mod sec5a_alpha_beta;
mod sim_vs_rt;
mod staged_ppn;
mod table1_algorithms;
mod table2_ndup_sweep;
mod table3_ppn_sweep;
mod table4_comm_volume;
mod table5_25d;

/// The real-data operand of the cross-backend generators (`rma_sweep`,
/// `sim_vs_rt`): symmetric, diagonally dominant.
fn test_matrix(n: usize) -> ovcomm_densemat::Matrix {
    ovcomm_densemat::Matrix::from_fn(n, n, |i, j| {
        1.0 / (1.0 + i.abs_diff(j) as f64) + if i == j { 0.5 } else { 0.0 }
    })
}

/// Which `regen` set a generator belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// Deterministic and quick: `regen` (every pull request).
    Fast,
    /// Deterministic, minutes: added by `regen --all` (nightly).
    Slow,
    /// Not regenerated: wall-clock rows and host-scaled sweeps.
    None,
}

/// One subcommand: its name (also the stem of the file it writes), regen
/// set, the flags it takes, and its entry point.
pub struct Generator {
    pub name: &'static str,
    pub set: Set,
    pub flags: &'static [&'static str],
    pub run: fn(&Opts),
}

/// One row per subcommand: `name  set  [flags]  entry;`.
macro_rules! table {
    ($($name:ident $set:ident [$($flag:literal),*] $entry:path;)*) => {
        pub const GENERATORS: &[Generator] = &[$(Generator {
            name: stringify!($name),
            set: Set::$set,
            flags: &[$($flag),*],
            run: $entry,
        }),*];
    };
}

// The generator table — the one place a generator's name, set membership
// and flags are written down. `regen` runs a set in this order.
table! {
    fig6_time_diagram    Fast  ["--trace-out"]               fig6_time_diagram::main;
    fig3_p2p_bandwidth   Fast  []                            fig3_p2p_bandwidth::main;
    fig5_coll_bandwidth  Fast  []                            fig5_coll_bandwidth::main;
    sec5a_alpha_beta     Fast  []                            sec5a_alpha_beta::main;
    figs12_matvec        Fast  ["--backend"]                 figs12_matvec::main;
    particles_overlap    Fast  []                            particles_overlap::main;
    table1_algorithms    Fast  []                            table1_algorithms::main;
    table2_ndup_sweep    Fast  []                            table2_ndup_sweep::main;
    table3_ppn_sweep     Slow  []                            table3_ppn_sweep::main;
    table4_comm_volume   Slow  []                            table4_comm_volume::main;
    staged_ppn           Slow  []                            staged_ppn::main;
    blockcg_overlap      Slow  []                            blockcg_overlap::main;
    table5_25d           Slow  []                            table5_25d::main;
    ablation_meshes      Fast  []                            ablation_meshes::main;
    ablation_model       Fast  []                            ablation_model::main;
    ablation_network     Fast  []                            ablation_network::main;
    algo_sweep           Fast  ["--smoke", "--fail-on-lint"] algo_sweep::main;
    mc_sweep             Fast  ["--smoke", "--fail-on-lint"] algo_sweep::mc_sweep;
    mc_supports          None  ["--fail-on-lint"]            algo_sweep::mc_supports;
    multi_tenant         Slow  ["--smoke"]                   multi_tenant::main;
    rma_sweep            None  ["--smoke", "--backend"]      rma_sweep::main;
    scale_sweep          None  ["--smoke", "--budget"]       scale_sweep::main;
    sim_vs_rt            None  ["--backend"]                 sim_vs_rt::main;
}
