//! Per-round metrics, communication accounting, and run summaries.

/// Everything measured about one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index `t` (0-based).
    pub round: usize,
    /// Accuracy of the global model on the (held-out) test set after the
    /// round's server update.
    pub test_accuracy: f32,
    /// Mean test loss of the global model.
    pub test_loss: f32,
    /// Number of clients selected this round `|S_t|`.
    pub num_selected: usize,
    /// Number of floats uploaded by clients this round (communication cost;
    /// SCAFFOLD uploads 2d per client, FedPD only uploads on communication
    /// rounds).
    pub upload_floats: usize,
    /// Cumulative uploaded floats up to and including this round.
    pub cumulative_upload_floats: usize,
    /// Total local epochs run across selected clients (computation cost).
    pub total_local_epochs: usize,
    /// Total samples processed by local training this round.
    pub samples_processed: usize,
    /// True wire bytes of this round's uploads: the quantized size when
    /// the engine's wire path encoded them, the dense `4 · upload_floats`
    /// otherwise.
    pub wire_bytes: usize,
    /// Dense-to-wire compression ratio of this round's uploads (≈4 at
    /// 8-bit quantization; 1.0 for dense uploads).
    pub dense_wire_ratio: f64,
    /// Wall-clock milliseconds the simulation spent on the round (reported
    /// for reference only).
    pub elapsed_ms: u64,
    /// The engine's virtual clock when the round closed, in seconds: the
    /// device model's time on the simulated fleet (0 when no model is
    /// installed).
    pub virtual_seconds: f64,
    /// Mean staleness τ of the arrival events folded into this round
    /// (0 for synchronous schedules, which have no stale arrivals).
    pub staleness_mean: f64,
    /// Maximum staleness τ among this round's arrival events.
    pub staleness_max: usize,
}

/// The full history of a federated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHistory {
    /// Name of the algorithm that produced this history.
    pub algorithm: String,
    /// Free-form label of the experimental setting (dataset, distribution…).
    pub setting: String,
    /// Per-round records in order.
    pub records: Vec<RoundRecord>,
}

impl RunHistory {
    /// Creates an empty history for an algorithm/setting pair.
    pub fn new(algorithm: impl Into<String>, setting: impl Into<String>) -> Self {
        RunHistory {
            algorithm: algorithm.into(),
            setting: setting.into(),
            records: Vec::new(),
        }
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// The first round (1-based count of rounds, as the paper reports) at
    /// which the test accuracy reached `target`, or `None` if it never did.
    pub fn rounds_to_accuracy(&self, target: f32) -> Option<usize> {
        self.records
            .iter()
            .position(|r| r.test_accuracy >= target)
            .map(|idx| idx + 1)
    }

    /// Best test accuracy seen so far.
    pub fn best_accuracy(&self) -> f32 {
        self.records
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// Test accuracy after the final recorded round.
    pub fn final_accuracy(&self) -> f32 {
        self.records.last().map(|r| r.test_accuracy).unwrap_or(0.0)
    }

    /// Total uploaded floats across all rounds.
    pub fn total_upload_floats(&self) -> usize {
        self.records
            .last()
            .map(|r| r.cumulative_upload_floats)
            .unwrap_or(0)
    }

    /// Total local epochs across all rounds (computation cost).
    pub fn total_local_epochs(&self) -> usize {
        self.records.iter().map(|r| r.total_local_epochs).sum()
    }

    /// Accuracy series (one entry per round), e.g. for plotting Figure 3.
    pub fn accuracy_series(&self) -> Vec<f32> {
        self.records.iter().map(|r| r.test_accuracy).collect()
    }
}

/// Relative speedup of reaching a target accuracy, `baseline / ours`
/// (e.g. Table III reports speedups relative to FedSGD).
///
/// Returns `None` when either run never reached the target.
pub fn speedup(ours: Option<usize>, baseline: Option<usize>) -> Option<f64> {
    match (ours, baseline) {
        (Some(o), Some(b)) if o > 0 => Some(b as f64 / o as f64),
        _ => None,
    }
}

/// Communication-round reduction of `ours` over the best of `baselines`
/// (the bottom row of Table III), in percent.
///
/// Returns `None` if `ours` never reached the target or no baseline did.
pub fn reduction_over_best_baseline(
    ours: Option<usize>,
    baselines: &[Option<usize>],
) -> Option<f64> {
    let ours = ours?;
    let best = baselines.iter().filter_map(|b| *b).min()?;
    if best == 0 {
        return None;
    }
    Some(100.0 * (1.0 - ours as f64 / best as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: f32) -> RoundRecord {
        RoundRecord {
            round,
            test_accuracy: acc,
            test_loss: 1.0 - acc,
            num_selected: 10,
            upload_floats: 100,
            cumulative_upload_floats: 100 * (round + 1),
            total_local_epochs: 20,
            samples_processed: 1000,
            wire_bytes: 400,
            dense_wire_ratio: 1.0,
            elapsed_ms: 5,
            virtual_seconds: 2.5 * (round + 1) as f64,
            staleness_mean: 0.5,
            staleness_max: round,
        }
    }

    #[test]
    fn rounds_to_accuracy_finds_first_crossing() {
        let mut h = RunHistory::new("FedADMM", "test");
        for (i, acc) in [0.2, 0.5, 0.8, 0.7, 0.9].iter().enumerate() {
            h.push(record(i, *acc));
        }
        assert_eq!(h.rounds_to_accuracy(0.8), Some(3));
        assert_eq!(h.rounds_to_accuracy(0.15), Some(1));
        assert_eq!(h.rounds_to_accuracy(0.95), None);
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
    }

    #[test]
    fn summary_statistics() {
        let mut h = RunHistory::new("FedAvg", "test");
        h.push(record(0, 0.3));
        h.push(record(1, 0.6));
        h.push(record(2, 0.5));
        assert_eq!(h.best_accuracy(), 0.6);
        assert_eq!(h.final_accuracy(), 0.5);
        assert_eq!(h.total_upload_floats(), 300);
        assert_eq!(h.total_local_epochs(), 60);
        assert_eq!(h.accuracy_series(), vec![0.3, 0.6, 0.5]);
    }

    #[test]
    fn empty_history_defaults() {
        let h = RunHistory::new("X", "Y");
        assert_eq!(h.rounds_to_accuracy(0.5), None);
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.total_upload_floats(), 0);
    }

    #[test]
    fn speedup_and_reduction() {
        assert_eq!(speedup(Some(10), Some(100)), Some(10.0));
        assert_eq!(speedup(None, Some(100)), None);
        assert_eq!(speedup(Some(10), None), None);
        // FedADMM 10 rounds vs best baseline 19 rounds → 47.4% fewer rounds
        // (the paper's Table III, MNIST 100 clients IID).
        let red = reduction_over_best_baseline(Some(10), &[Some(19), Some(29), Some(27)]).unwrap();
        assert!((red - 47.368).abs() < 0.01);
        assert_eq!(reduction_over_best_baseline(None, &[Some(5)]), None);
        assert_eq!(reduction_over_best_baseline(Some(5), &[None]), None);
    }
}
