//! # fedadmm-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! FedADMM paper's evaluation (Section V). One module per experiment:
//!
//! | Module           | Paper artefact | What it reports |
//! |------------------|----------------|-----------------|
//! | [`table2`]       | Table II       | model sizes and target accuracies |
//! | [`table3`]       | Table III      | rounds to target accuracy + speedups over FedSGD + reduction over the best baseline |
//! | [`fig3_fig4`]    | Figures 3 & 4  | convergence paths / rounds-to-target across client populations |
//! | [`fig5`]         | Figure 5       | adaptability to heterogeneous data (fixed FedADMM hyperparameters) |
//! | [`fig6`]         | Figure 6       | server step-size η sweep, including a mid-run decrease |
//! | [`table4_fig7`]  | Table IV & Fig 7 | effect of the local epoch count `E` |
//! | [`fig8`]         | Figure 8       | warm-start vs global-model local initialisation |
//! | [`table5_fig9`]  | Table V & Fig 9 | ρ sensitivity of FedProx vs fixed-ρ FedADMM, and a dynamic ρ schedule |
//! | [`table6_fig10`] | Table VI & Fig 10 | imbalanced client data volumes |
//!
//! Every experiment accepts a [`common::Scale`] so the same code serves the
//! fast CI/bench configuration (`Scale::Smoke`), the default laptop-scale
//! reproduction (`Scale::Scaled`) and the full paper-scale setting
//! (`Scale::Paper`, which uses the real CNN architectures and 1,000-client
//! populations — expect hours of CPU time).
//!
//! The `experiments` binary exposes each module as a sub-command:
//!
//! ```text
//! experiments table3 --scale scaled
//! experiments fig6   --scale smoke
//! experiments all    --scale smoke
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod fig3_fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod table2;
pub mod table3;
pub mod table4_fig7;
pub mod table5_fig9;
pub mod table6_fig10;

pub use common::{ExperimentReport, Scale};

#[cfg(test)]
mod tests {
    use super::*;

    /// Below `Paper`, several of the paper's populations clamp to one client
    /// count; no experiment may then run (and print) one setting twice, and
    /// at `Paper`, where every population is distinct, nothing is dropped.
    #[test]
    fn no_experiment_runs_a_setting_twice() {
        for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
            let lists = [
                ("table3", table3::table3_settings(scale), 8),
                (
                    "fig3",
                    fig3_fig4::population_settings(fig3_fig4::FIG3, scale),
                    6,
                ),
                (
                    "fig4",
                    fig3_fig4::population_settings(fig3_fig4::FIG4, scale),
                    6,
                ),
                ("table5", table5_fig9::table5_settings(scale), 8),
            ];
            for (name, list, paper_len) in lists {
                assert!(!list.is_empty(), "{name} at {scale:?} is empty");
                for (i, setting) in list.iter().enumerate() {
                    assert!(
                        !list[..i].contains(setting),
                        "{name} at {scale:?} runs {} twice",
                        setting.label()
                    );
                }
                if scale == Scale::Paper {
                    assert_eq!(list.len(), paper_len, "{name} at {scale:?}");
                }
            }
        }
    }
}
