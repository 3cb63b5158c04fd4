//! Client-drift and dual-variable diagnostics.
//!
//! The paper motivates FedADMM through *client drift*: "local training
//! performed at clients has to be carefully designed according to
//! statistical variations so as to prevent the model from overfitting to a
//! specific selected client's data" (Section I), and interprets the dual
//! variable `y_i` as "a signed price vector … which not only quantifies the
//! cost of `w_i^{t+1}` being different from `θ^t`, but also provides a
//! direction of the adjustments needed for agreement" (Section III-A).
//!
//! [`DriftReport`] turns that narrative into measurable quantities over a
//! simulation's client states:
//!
//! * how far local models have drifted from the global model (mean / max
//!   `‖w_i − θ‖`),
//! * how large the accumulated prices are (mean / max `‖y_i‖`),
//! * the KKT residual `‖Σ_i y_i‖` — zero at a stationary point of the
//!   consensus problem (2), so its decrease tracks agreement,
//! * participation coverage (how unevenly clients have been selected).
//!
//! The price statistics read [`ClientState::dual`], the algorithm's
//! correction slot: they are `y_i` under FedADMM, and report SCAFFOLD's
//! `c_i` or FedDyn's `h_i` when those run.
//!
//! The `dual_variables` example uses these to show the adaptation mechanism
//! at work under IID vs non-IID partitions.

use crate::client::ClientState;
use crate::param::ParamVector;

/// Aggregate drift statistics over all clients at a point in training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Mean over clients of `‖w_i − θ‖`.
    pub mean_model_drift: f32,
    /// Maximum over clients of `‖w_i − θ‖`.
    pub max_model_drift: f32,
    /// Mean over clients of `‖y_i‖`.
    pub mean_dual_norm: f32,
    /// Maximum over clients of `‖y_i‖`.
    pub max_dual_norm: f32,
    /// `‖Σ_i y_i‖` — the KKT residual of problem (2): the stationarity
    /// condition requires `Σ_i y_i* = 0`.
    pub dual_sum_norm: f32,
    /// Number of clients that have been selected at least once.
    pub clients_ever_selected: usize,
    /// Smallest number of selections across clients.
    pub min_times_selected: usize,
    /// Largest number of selections across clients.
    pub max_times_selected: usize,
    /// Number of clients included in the report.
    pub num_clients: usize,
}

impl DriftReport {
    /// Computes the report for the given client states and global model.
    pub fn compute(clients: &[ClientState], global: &ParamVector) -> Self {
        assert!(
            !clients.is_empty(),
            "a drift report needs at least one client"
        );
        let mut mean_drift = 0.0f64;
        let mut max_drift = 0.0f32;
        let mut mean_dual = 0.0f64;
        let mut max_dual = 0.0f32;
        let mut dual_sum = ParamVector::zeros(global.len());
        let mut ever = 0usize;
        let mut min_sel = usize::MAX;
        let mut max_sel = 0usize;
        for c in clients {
            let drift = c.local_model.dist(global);
            mean_drift += drift as f64;
            max_drift = max_drift.max(drift);
            let dual_norm = c.dual.norm();
            mean_dual += dual_norm as f64;
            max_dual = max_dual.max(dual_norm);
            dual_sum.axpy(1.0, &c.dual);
            if c.times_selected > 0 {
                ever += 1;
            }
            min_sel = min_sel.min(c.times_selected);
            max_sel = max_sel.max(c.times_selected);
        }
        let m = clients.len();
        DriftReport {
            mean_model_drift: (mean_drift / m as f64) as f32,
            max_model_drift: max_drift,
            mean_dual_norm: (mean_dual / m as f64) as f32,
            max_dual_norm: max_dual,
            dual_sum_norm: dual_sum.norm(),
            clients_ever_selected: ever,
            min_times_selected: min_sel,
            max_times_selected: max_sel,
            num_clients: m,
        }
    }

    /// Fraction of clients selected at least once (participation coverage).
    pub fn coverage(&self) -> f64 {
        self.clients_ever_selected as f64 / self.num_clients.max(1) as f64
    }

    /// A one-line human-readable summary for logs and example output.
    pub fn summary(&self) -> String {
        format!(
            "drift mean/max = {:.4}/{:.4}, dual-norm mean/max = {:.4}/{:.4}, ‖Σy‖ = {:.4}, \
             coverage = {:.0}% ({} of {} clients)",
            self.mean_model_drift,
            self.max_model_drift,
            self.mean_dual_norm,
            self.max_dual_norm,
            self.dual_sum_norm,
            100.0 * self.coverage(),
            self.clients_ever_selected,
            self.num_clients
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(id: usize, model: Vec<f32>, dual: Vec<f32>, selected: usize) -> ClientState {
        let theta = ParamVector::zeros(model.len());
        let mut c = ClientState::new(id, vec![0; 3], &theta);
        c.local_model = ParamVector::from_vec(model);
        c.dual = ParamVector::from_vec(dual);
        c.times_selected = selected;
        c
    }

    #[test]
    fn report_on_fresh_clients_is_all_zero_drift() {
        let theta = ParamVector::from_vec(vec![1.0, 2.0, 3.0]);
        let clients: Vec<ClientState> = (0..4)
            .map(|i| ClientState::new(i, vec![0], &theta))
            .collect();
        let report = DriftReport::compute(&clients, &theta);
        assert_eq!(report.mean_model_drift, 0.0);
        assert_eq!(report.max_model_drift, 0.0);
        assert_eq!(report.mean_dual_norm, 0.0);
        assert_eq!(report.dual_sum_norm, 0.0);
        assert_eq!(report.clients_ever_selected, 0);
        assert_eq!(report.coverage(), 0.0);
        assert_eq!(report.num_clients, 4);
    }

    #[test]
    fn report_aggregates_drift_and_dual_norms() {
        let global = ParamVector::zeros(2);
        let clients = vec![
            client(0, vec![3.0, 4.0], vec![1.0, 0.0], 2), // drift 5, dual 1
            client(1, vec![0.0, 0.0], vec![-1.0, 0.0], 0), // drift 0, dual 1
        ];
        let report = DriftReport::compute(&clients, &global);
        assert!((report.mean_model_drift - 2.5).abs() < 1e-6);
        assert_eq!(report.max_model_drift, 5.0);
        assert!((report.mean_dual_norm - 1.0).abs() < 1e-6);
        assert_eq!(report.max_dual_norm, 1.0);
        // Duals cancel: [1,0] + [-1,0] = 0 — the KKT condition Σy = 0.
        assert_eq!(report.dual_sum_norm, 0.0);
        assert_eq!(report.clients_ever_selected, 1);
        assert_eq!(report.min_times_selected, 0);
        assert_eq!(report.max_times_selected, 2);
        assert!((report.coverage() - 0.5).abs() < 1e-12);
        assert!(report.summary().contains("coverage = 50%"));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_client_list_is_rejected() {
        DriftReport::compute(&[], &ParamVector::zeros(1));
    }
}
