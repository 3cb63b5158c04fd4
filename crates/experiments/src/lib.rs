//! # fedadmm-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! FedADMM paper's evaluation (Section V) and checks its claims.
//!
//! | Module     | What it holds |
//! |------------|---------------|
//! | [`table2`] | Table II: model sizes and target accuracies |
//! | [`claims`] | one row per claim of Tables III–VI, Figs 3–10: settings, arms, verdict rule |
//! | [`runner`] | runs every arm of a claim on every one of its settings |
//! | [`render`] | the paper's tables from the runner's results, and the scorecard |
//! | [`common`] | scales, settings, the algorithm suite and table rendering |
//!
//! Every experiment accepts a [`common::Scale`]: `Smoke` for CI, `Scaled`
//! (the default) for a laptop, and `Paper` for the paper's CNNs and
//! 1,000-client populations (expect hours of CPU time). The `experiments`
//! binary runs each report as a sub-command; `experiments scorecard` writes
//! `REPRODUCTION.md`, every claim at `scaled` with the paper's 100-round
//! budget and its verdict.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod claims;
pub mod common;
pub mod render;
pub mod runner;
pub mod table2;

pub use common::{ExperimentReport, Scale};

#[cfg(test)]
mod tests {
    use super::*;

    /// Below `Paper`, several of the paper's populations clamp to one client
    /// count; no claim may then run (and print) one setting twice, and at
    /// `Paper`, where every population is distinct, nothing is dropped.
    #[test]
    fn no_experiment_runs_a_setting_twice() {
        let paper_lengths = [("table3", 8), ("fig3", 6), ("fig4", 6), ("table5", 8)];
        for scale in [Scale::Smoke, Scale::Scaled, Scale::Paper] {
            for claim in &claims::CLAIMS {
                let (name, list) = (claim.name, (claim.settings)(scale));
                assert!(!list.is_empty(), "{name} at {scale:?} is empty");
                for (i, setting) in list.iter().enumerate() {
                    let (twice, label) = (list[..i].contains(setting), setting.label());
                    assert!(!twice, "{name} at {scale:?} runs {label} twice");
                }
                let paper_length = paper_lengths.iter().find(|(n, _)| *n == name);
                if let (Scale::Paper, Some(&(_, len))) = (scale, paper_length) {
                    assert_eq!(list.len(), len, "{name} at {scale:?}");
                }
            }
        }
    }

    #[test]
    fn every_report_and_alias_resolves() {
        for report in claims::reports() {
            for alias in report.split('_').chain([report]) {
                assert_eq!(claims::report_named(alias), Some(report), "{alias}");
            }
        }
        assert_eq!(claims::reports().count(), 9);
        assert_eq!(claims::report_named("fig"), None);
    }
}

/// Claim `name`'s row of the claim table.
#[cfg(test)]
fn claim(name: &str) -> &'static claims::Claim {
    claims::CLAIMS.iter().find(|c| c.name == name).unwrap()
}

/// Runs claim `name`'s arms on its `index`-th `smoke` setting, for
/// `rounds` rounds if given.
#[cfg(test)]
fn smoke_run(name: &str, index: usize, rounds: Option<usize>) -> runner::SettingResult {
    let mut setting = (claim(name).settings)(Scale::Smoke)[index];
    setting.max_rounds = rounds.unwrap_or(setting.max_rounds);
    runner::run_setting(claim(name), setting).unwrap()
}

/// Runs claim `name` on its first `smoke` setting for `rounds` rounds and
/// checks that each of its `arms` arms recorded every round.
#[cfg(test)]
fn every_arm_runs(name: &str, rounds: usize, arms: usize) -> runner::SettingResult {
    let result = smoke_run(name, 0, Some(rounds));
    assert_eq!(result.arms.len(), arms, "{name}");
    for arm in &result.arms {
        assert_eq!(arm.accuracy.len(), rounds, "{name}: {}", arm.name);
        assert!(arm.accuracy.iter().all(|a| (0.0..=1.0).contains(a)));
    }
    result
}

/// One test module per paper artefact, each checking its claim row.
#[cfg(test)]
macro_rules! artefact_tests {
    ($($artefact:ident { $(fn $test:ident() $body:block)* })*) => {
        $(mod $artefact { mod tests { $(#[test] fn $test() $body)* } })*
    };
}

#[cfg(test)]
artefact_tests! {
    table3 {
        fn single_column_reports_all_algorithms() {
            let column = crate::every_arm_runs("table3", 3, 5);
            assert!(column.setting.label().contains("IID"));
        }

        fn fedadmm_needs_no_more_rounds_than_fedsgd_or_both_miss_in_smoke_column() {
            // At the smallest scale FedADMM takes no more rounds than FedSGD
            // to reach the (modest) target. A miss counts as budget + 1
            // rounds, so this also passes when both miss it.
            let column = crate::smoke_run("table3", 0, None);
            let miss = column.setting.max_rounds + 1;
            let rounds = |i: usize| column.arms[i].rounds_to_target.unwrap_or(miss);
            let (admm, sgd) = (rounds(1), rounds(0));
            assert!(admm <= sgd, "FedADMM took {admm} rounds, FedSGD {sgd} ({miss}: a miss)");
        }
    }
    fig3_fig4 {
        fn panel_produces_series_for_every_algorithm() {
            crate::every_arm_runs("fig3", 3, 5);
            crate::every_arm_runs("fig4", 3, 5);
        }
    }
    fig5 {
        fn setting_follows_figure5_protocol() {
            use fedadmm_core::prelude::BatchSize;
            for s in (crate::claim("fig5").settings)(crate::Scale::Paper) {
                let protocol = (s.local_epochs, s.batch_size, s.num_clients);
                assert_eq!(protocol, (10, BatchSize::Size(50), 200));
            }
            for s in (crate::claim("fig5").settings)(crate::Scale::Smoke) {
                assert!(s.local_epochs <= 3);
            }
        }
    }
    fig6 {
        fn eta_schedule_switches_mid_run() {
            // Four rounds switch at 4 · 3/5, before round 2.
            let panel = crate::every_arm_runs("fig6", 4, 5);
            let (fixed, switched) = (&panel.arms[2], &panel.arms[3]);
            assert_eq!((&*fixed.name, &*switched.name), ("eta=1.5", "eta=1.5->0.5@2"));
            assert_eq!(switched.accuracy[..2], fixed.accuracy[..2]);
        }

        fn fixed_eta_produces_full_series() {
            let panel = crate::every_arm_runs("fig6", 3, 5);
            let names: Vec<&str> = panel.arms.iter().map(|a| a.name.as_str()).collect();
            assert_eq!(names[..3], ["eta=0.5", "eta=1", "eta=1.5"]);
        }
    }
    table4_fig7 {
        fn more_local_work_never_hurts_round_count() {
            // The Table IV trend: E=3 needs no more rounds than E=1 to
            // reach the same (modest, smoke-scale) target.
            let e1 = crate::smoke_run("table4", 0, None);
            let e3 = crate::smoke_run("table4", 1, None);
            assert_eq!((e1.setting.local_epochs, e3.setting.local_epochs), (1, 3));
            let miss = e1.setting.max_rounds + 1;
            let r1 = e1.arms[0].rounds_to_target.unwrap_or(miss);
            let r3 = e3.arms[0].rounds_to_target.unwrap_or(miss);
            assert!(r3 <= r1, "E=3 took {r3} rounds but E=1 took {r1}");
        }
    }
    fig8 {
        fn both_variants_produce_series() {
            let panel = crate::every_arm_runs("fig8", 3, 4);
            assert!(panel.arms[0].name.contains("warm start"));
            assert!(panel.arms[1].name.contains("global model"));
        }
    }
    table5_fig9 {
        fn rho_schedule_runs_and_switches() {
            let panel = crate::every_arm_runs("fig9", 4, 3);
            let dynamic = &panel.arms[2];
            assert!(dynamic.name.ends_with("@ round 2"), "{}", dynamic.name);
            // Before the switch it is the small-ρ arm.
            assert_eq!(dynamic.accuracy[..2], panel.arms[0].accuracy[..2]);
        }
    }
    table6_fig10 {
        fn imbalanced_setting_produces_skewed_volumes() {
            let setting = (crate::claim("fig10").settings)(crate::Scale::Smoke)[0];
            let (train, _) = setting.generate_data();
            let clients = setting.num_clients;
            let partition = setting.distribution.partition(&train, clients, setting.seed);
            let (mean, stdev) = partition.size_stats();
            assert!(mean > 0.0);
            assert!(stdev > 0.2 * mean, "stdev {stdev} not imbalanced for mean {mean}");
            assert_eq!(partition.num_clients(), clients);
        }

        fn paper_scale_matches_table6_construction() {
            use fedadmm_core::prelude::DataDistribution::ImbalancedGroups;
            let setting = (crate::claim("fig10").settings)(crate::Scale::Paper)[1];
            assert_eq!((setting.num_clients, setting.train_size), (200, 50_000));
            let groups = ImbalancedGroups { num_groups: 100, num_shards: 10_000 };
            assert_eq!(setting.distribution, groups);
        }
    }
}
