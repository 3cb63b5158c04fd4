//! Integration tests for system heterogeneity on the engine's virtual
//! clock: a device model installed with `RoundEngine::with_devices` times
//! every round, so variable local work, deadlines, upload size and
//! availability show up in `virtual_seconds` next to the round counts.

use fedadmm::core::selection::{FullParticipation, MarkovAvailability};
use fedadmm::prelude::*;

const MODEL: ModelSpec = ModelSpec::Logistic {
    input_dim: 784,
    num_classes: 10,
};

/// Three tiers, every device with a link: 30 % fast, 40 % mid-range and
/// 30 % slow phones, the slow tier 12× slower per epoch than the fast one.
fn tiered_fleet(num_clients: usize) -> DeviceModel {
    let device = |seconds_per_epoch, upload_mbps, download_mbps, latency_ms| Device {
        seconds_per_epoch,
        link: Some(Link {
            upload_mbps,
            download_mbps,
            latency_ms,
        }),
    };
    let tiers = [
        (device(0.2, 30.0, 80.0, 20.0), 0.3),
        (device(0.6, 10.0, 30.0, 40.0), 0.4),
        (device(2.4, 2.0, 8.0, 80.0), 0.3),
    ];
    DeviceModel::tiered(num_clients, &tiers, 17)
}

fn config(system_heterogeneity: bool, seed: u64) -> FedConfig {
    FedConfig {
        num_clients: 20,
        participation: Participation::Fraction(0.25),
        local_epochs: 5,
        system_heterogeneity,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: MODEL,
        seed,
        eval_subset: 100,
    }
}

/// An engine on 20 clients of [`tiered_fleet`], non-IID shards.
fn engine<A: Algorithm, S: Scheduler>(
    algorithm: A,
    scheduler: S,
    system_heterogeneity: bool,
    seed: u64,
) -> RoundEngine<A, S> {
    let config = config(system_heterogeneity, seed);
    let (train, test) = SyntheticDataset::Mnist.generate(2000, 200, seed);
    let partition = DataDistribution::NonIidShards.partition(&train, 20, seed);
    RoundEngine::new(config, train, test, partition, algorithm, scheduler)
        .unwrap()
        .with_devices(tiered_fleet(20))
        .unwrap()
}

fn fedadmm() -> FedAdmm {
    FedAdmm::new(0.3, ServerStepSize::Constant(1.0))
}

#[test]
fn sync_clock_advances_by_the_cohort_maximum_of_job_seconds() {
    // Every client every round, client c running 1 + c % 5 epochs: each
    // round must add exactly max_c job_seconds(c, E_c, 4·d, upload bytes),
    // bit for bit, with the upload at its real size — dense, then 8-bit.
    let schedule: Vec<usize> = (0..20).map(|c| 1 + c % 5).collect();
    let d = MODEL.num_params();
    let fleet = tiered_fleet(20);
    for wire in [
        WirePathConfig::disabled(),
        WirePathConfig::enabled(Quantizer::new(8, true)),
    ] {
        let mut engine = engine(fedadmm(), SyncRounds, false, 1)
            .with_selector(Box::new(FullParticipation))
            .with_work_schedule(LocalWorkSchedule::PerClient(schedule.clone()))
            .with_wire_path(wire);
        let mut clock = 0.0f64;
        for record in engine.run_rounds(3).unwrap() {
            assert_eq!(record.num_selected, 20);
            let upload = record.wire_bytes / 20;
            let slowest = (0..20)
                .map(|c| fleet.job_seconds(c, schedule[c], 4 * d, upload))
                .fold(0.0, f64::max);
            clock += slowest;
            assert_eq!(record.virtual_seconds.to_bits(), clock.to_bits());
        }
        assert!(clock > 0.0);
    }
}

#[test]
fn event_driven_arrivals_are_due_at_dispatch_plus_job_seconds() {
    // The event-driven schedulers time every job like a synchronous round
    // times its cohort: an arrival lands exactly at its dispatch time plus
    // job_seconds(c, E_c, 4·d, the bytes it sent) — with the 8-bit wire
    // path on, the coded size, not the dense one.
    let schedule: Vec<usize> = (0..20).map(|c| 1 + c % 5).collect();
    let d = MODEL.num_params();
    let fleet = tiered_fleet(20);
    let due = |dispatched: f64, client: usize, upload: usize| {
        dispatched + fleet.job_seconds(client, schedule[client], 4 * d, upload)
    };
    for wire in [
        WirePathConfig::disabled(),
        WirePathConfig::enabled(Quantizer::new(8, true)),
    ] {
        let dense = wire.quantizer.is_none();
        // One client at a time: each job is dispatched when the previous
        // one arrives.
        let mut buffered = engine(fedadmm(), BufferedAsync::new(AsyncConfig::new(1)), false, 1)
            .with_work_schedule(LocalWorkSchedule::PerClient(schedule.clone()))
            .with_wire_path(wire.clone());
        let mut dispatched = 0.0f64;
        for _ in 0..12 {
            let sent = buffered.cumulative_wire_bytes();
            let arrival = buffered.step().unwrap().events.remove(0);
            let upload = buffered.cumulative_wire_bytes() - sent;
            assert_eq!(dense, upload == 4 * d, "{upload} bytes");
            let expected = due(dispatched, arrival.client_id, upload);
            assert_eq!(arrival.sim_time.to_bits(), expected.to_bits());
            dispatched = arrival.sim_time;
        }
        // A deadline shorter than any job closes every round at the earliest
        // arrival, so each arrival lands at its own due time; a job missing
        // τ rounds was dispatched when round r − τ opened.
        let semi = SemiAsync::new(SemiAsyncConfig::new(1e-3));
        let mut semi = engine(fedadmm(), semi, false, 1)
            .with_work_schedule(LocalWorkSchedule::PerClient(schedule.clone()))
            .with_wire_path(wire);
        let mut opened = vec![0.0f64];
        for round in 0..8 {
            let sent = semi.cumulative_wire_bytes();
            let report = semi.step().unwrap();
            let upload = (semi.cumulative_wire_bytes() - sent) / report.events.len();
            for arrival in &report.events {
                let dispatched = opened[round - arrival.staleness];
                let expected = due(dispatched, arrival.client_id, upload);
                assert_eq!(arrival.sim_time.to_bits(), expected.to_bits());
            }
            opened.push(report.record.unwrap().virtual_seconds);
        }
    }
}

#[test]
fn variable_local_work_reduces_both_computation_and_wall_clock() {
    // One seed, so both runs select the same cohorts; only the epoch
    // counts differ.
    let mut fixed = engine(fedadmm(), SyncRounds, false, 1);
    let mut variable = engine(fedadmm(), SyncRounds, true, 1);
    fixed.run_rounds(10).unwrap();
    variable.run_rounds(10).unwrap();
    // The paper: FedADMM with system heterogeneity performs ~50% of the
    // local computation of the fixed-E protocol (E[U{1..E}] = (E+1)/2).
    let fixed_epochs = fixed.history().total_local_epochs() as f64;
    let variable_epochs = variable.history().total_local_epochs() as f64;
    assert!(
        variable_epochs < 0.8 * fixed_epochs,
        "variable work should cut local computation: {variable_epochs} vs {fixed_epochs}"
    );
    // Upload cost per round is identical (same number of d-vectors).
    assert_eq!(
        fixed.history().total_upload_floats(),
        variable.history().total_upload_floats()
    );
    // And on a heterogeneous fleet the saved computation translates into
    // shorter synchronous rounds: slow devices stop setting every round's
    // length with the full E.
    assert!(
        variable.now() < fixed.now(),
        "variable work should be faster in virtual time: {} vs {}",
        variable.now(),
        fixed.now()
    );
}

#[test]
fn deadline_policy_trades_dropped_updates_for_time() {
    // A synchronous deadline that drops its stragglers is `SemiAsync` with
    // `BoundedDelay { max_staleness: 0 }`: a late update is never applied.
    let rounds = 10;
    let mut wait = engine(fedadmm(), SyncRounds, false, 2);
    wait.run_rounds(rounds).unwrap();
    // Half the mean synchronous round: tight enough to cut off the slow tier.
    let deadline = wait.now() / (2.0 * rounds as f64);
    let drop_late = SemiAsyncConfig::new(deadline)
        .with_staleness(StalenessWeight::BoundedDelay { max_staleness: 0 });
    let mut cut = engine(fedadmm(), SemiAsync::new(drop_late), false, 2);
    cut.run_rounds(rounds).unwrap();
    assert!(cut.now() < wait.now(), "{} vs {}", cut.now(), wait.now());
    let dropped = cut.events().iter().filter(|e| e.weight == 0.0).count();
    assert!(dropped > 0, "such a tight deadline must drop someone");
    let applied = |h: &RunHistory| h.records.iter().map(|r| r.num_selected).sum::<usize>();
    assert!(applied(cut.history()) < applied(wait.history()));
}

#[test]
fn scaffold_pays_double_upload_time_on_the_same_fleet() {
    // Upload-cost comparison of Section III-B in seconds: SCAFFOLD and
    // fixed-E FedADMM select the same cohorts and run the same epochs, but
    // SCAFFOLD uploads two d-vectors, so every round takes strictly longer
    // on the same links and carries twice the wire bytes.
    let mut admm = engine(fedadmm(), SyncRounds, false, 3);
    let mut scaffold = engine(Scaffold::new(), SyncRounds, false, 3);
    let (mut t_admm, mut t_scaffold) = (0.0, 0.0);
    for _ in 0..4 {
        let a = admm.run_round().unwrap();
        let s = scaffold.run_round().unwrap();
        assert_eq!(a.total_local_epochs, s.total_local_epochs);
        assert_eq!(s.wire_bytes, 2 * a.wire_bytes);
        assert!(
            s.virtual_seconds - t_scaffold > a.virtual_seconds - t_admm,
            "round {}: SCAFFOLD {} s vs FedADMM {} s",
            a.round,
            s.virtual_seconds - t_scaffold,
            a.virtual_seconds - t_admm
        );
        (t_admm, t_scaffold) = (a.virtual_seconds, s.virtual_seconds);
    }
}

#[test]
fn availability_driven_participation_composes_with_the_simulation() {
    // Drive client selection from a Markov availability process: every
    // online client participates. The run must still improve and every
    // client must eventually participate.
    let m = 16;
    let config = FedConfig {
        num_clients: m,
        participation: Participation::Fraction(0.5),
        local_epochs: 2,
        system_heterogeneity: true,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: MODEL,
        seed: 9,
        eval_subset: usize::MAX,
    };
    let (train, test) = SyntheticDataset::Mnist.generate(1600, 200, 9);
    let partition = DataDistribution::NonIidShards.partition(&train, m, 9);
    let mut sim = RoundEngine::new(config, train, test, partition, fedadmm(), SyncRounds)
        .unwrap()
        .with_selector(Box::new(MarkovAvailability::new(0.3, 0.4)));
    let (_, acc0) = sim.evaluate_global().unwrap();
    sim.run_rounds(30).unwrap();
    let report = DriftReport::compute(sim.clients(), sim.global_model());
    assert!(
        report.clients_ever_selected >= m - 2,
        "bursty availability still covers the fleet"
    );
    assert!(
        sim.history().best_accuracy() > acc0 + 0.3,
        "availability-driven run failed to learn: {} → {}",
        acc0,
        sim.history().best_accuracy()
    );
}
