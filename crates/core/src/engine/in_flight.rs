//! The in-flight queue of every scheduler.
//!
//! [`SyncRounds`](super::SyncRounds), [`SemiAsync`](super::SemiAsync) and
//! [`BufferedAsync`](super::BufferedAsync) run a job's local update as soon
//! as they dispatch it — a device computes as soon as it has downloaded θ —
//! and hold the resulting message here until it is due: at the dispatch
//! time plus [`EngineCore::job_seconds`] of the message, the epochs it ran
//! and the bytes it sent on its client's device, or at the dispatch time
//! itself without a device model. A client with a job in flight is busy and
//! gets no other work until its message is delivered. The queue holds only
//! the jobs in flight, so a synchronous round builds a fresh one at no cost
//! proportional to the population.

use super::scheduler::{DispatchOrder, EngineCore, StalenessWeight};
use crate::algorithms::ClientMessage;
use fedadmm_tensor::{TensorError, TensorResult};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A client's finished local update, waiting for its due time.
pub(super) struct Job {
    /// Virtual time at which the message reaches the server.
    pub due: f64,
    /// Server version (aggregations, or rounds) the job's θ was taken at.
    pub version: usize,
    /// The client's upload.
    pub message: ClientMessage,
}

impl Job {
    /// Damps the upload by `policy` for its staleness
    /// `version − self.version`. Returns the staleness and the weight; a
    /// zero weight means the message is to be dropped.
    pub fn weigh(&mut self, version: usize, policy: StalenessWeight) -> (usize, f32) {
        let staleness = version - self.version;
        let weight = policy.weight(staleness);
        if weight > 0.0 && weight != 1.0 {
            for p in &mut self.message.payload {
                p.scale(weight);
            }
            // Wire payloads carry the damping in their scale factor (codes
            // cannot be scaled without decoding); the server folds it into
            // the per-message coefficient.
            if let Some(wire) = &mut self.message.wire {
                wire.scale *= weight;
            }
        }
        (staleness, weight)
    }
}

/// Refuses to run an event-driven schedule without a device model: its
/// deadlines and arrivals are virtual times.
pub(super) fn require_devices(core: &EngineCore<'_>) -> TensorResult<()> {
    if core.devices.is_none() {
        return Err(TensorError::InvalidArgument(
            "an event-driven schedule needs a device model \
             (install one with RoundEngine::with_devices)"
                .to_string(),
        ));
    }
    Ok(())
}

/// The jobs in flight, earliest due first (lowest client id on a tie).
#[derive(Default)]
pub(super) struct InFlight {
    /// `(due time bits, client)` per job. Due times are non-negative, so
    /// their bits order as the times do.
    due: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each busy client's job in flight.
    jobs: BTreeMap<usize, Job>,
}

impl InFlight {
    /// Number of jobs in flight.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether `client` has a job in flight.
    pub fn is_busy(&self, client: usize) -> bool {
        self.jobs.contains_key(&client)
    }

    /// Runs `orders` on the engine's dispatch pool now, against θ at server
    /// version `version`, and queues each message until its device has
    /// downloaded, computed and uploaded it. The orders, and with them their
    /// θ snapshots, are dropped on return.
    ///
    /// # Errors
    /// The first failed update's error.
    pub fn dispatch(
        &mut self,
        core: &mut EngineCore<'_>,
        orders: Vec<DispatchOrder>,
        version: usize,
    ) -> TensorResult<()> {
        if orders.is_empty() {
            return Ok(());
        }
        let start = core.now();
        let messages = core.in_span("dispatch", |core| core.dispatch(&orders))?;
        for message in messages {
            let due = start + core.job_seconds(&message).unwrap_or(0.0);
            let client = message.client_id;
            self.due.push(Reverse((due.to_bits(), client)));
            self.jobs.insert(
                client,
                Job {
                    due,
                    version,
                    message,
                },
            );
        }
        Ok(())
    }

    /// When the earliest job in flight is due.
    pub fn earliest(&self) -> Option<f64> {
        let Reverse((due, _)) = self.due.peek()?;
        Some(f64::from_bits(*due))
    }

    /// When the last job in flight is due.
    pub fn latest(&self) -> Option<f64> {
        let due = self.due.iter().map(|Reverse((due, _))| *due).max()?;
        Some(f64::from_bits(due))
    }

    /// Delivers the earliest job in flight, freeing its client.
    pub fn pop(&mut self) -> Option<Job> {
        let Reverse((_, client)) = self.due.pop()?;
        self.jobs.remove(&client)
    }

    /// Delivers every job due by `until`, in client-id order.
    pub fn deliver(&mut self, until: f64) -> Vec<Job> {
        let mut delivered = Vec::new();
        while self.earliest().is_some_and(|due| due <= until) {
            delivered.extend(self.pop());
        }
        delivered.sort_by_key(|job| job.message.client_id);
        delivered
    }
}
