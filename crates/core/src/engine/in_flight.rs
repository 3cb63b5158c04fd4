//! The in-flight queue of the event-driven schedulers.
//!
//! [`SemiAsync`](super::SemiAsync) and [`BufferedAsync`](super::BufferedAsync)
//! run a job's local update as soon as they dispatch it — a device computes
//! as soon as it has downloaded θ — and hold the resulting message here
//! until it is due: at the dispatch time plus [`EngineCore::job_seconds`] of
//! the message, the epochs it ran and the bytes it sent on its client's
//! device. A client with a job in flight is busy and gets no other work
//! until its message is delivered.

use super::scheduler::{DispatchOrder, EngineCore, StalenessWeight};
use crate::algorithms::ClientMessage;
use fedadmm_tensor::{TensorError, TensorResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Accounts the upload and damps it by `policy` for its staleness
    /// `version − self.version`. Returns the staleness and the weight; a
    /// zero weight means the message is to be dropped.
    pub fn weigh(
        &mut self,
        core: &mut EngineCore<'_>,
        version: usize,
        policy: StalenessWeight,
    ) -> (usize, f32) {
        let staleness = version - self.version;
        let weight = policy.weight(staleness);
        core.add_upload(self.message.upload_floats());
        core.add_wire_bytes(self.message.wire_bytes());
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

/// The jobs in flight, earliest due first (lowest client id on a tie).
#[derive(Default)]
pub(super) struct InFlight {
    /// `(due time bits, client)` per job. Due times are non-negative, so
    /// their bits order as the times do.
    due: BinaryHeap<Reverse<(u64, usize)>>,
    /// Each client's job in flight; `Some` marks the client busy.
    jobs: Vec<Option<Job>>,
}

impl InFlight {
    /// An empty queue over `num_clients` idle clients.
    pub fn new(num_clients: usize) -> Self {
        InFlight {
            due: BinaryHeap::new(),
            jobs: std::iter::repeat_with(|| None).take(num_clients).collect(),
        }
    }

    /// Number of jobs in flight.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether `client` has a job in flight.
    pub fn is_busy(&self, client: usize) -> bool {
        self.jobs[client].is_some()
    }

    /// Runs `orders` on the engine's dispatch pool now, against θ at server
    /// version `version`, and queues each message until its device has
    /// downloaded, computed and uploaded it. The orders, and with them their
    /// θ snapshots, are dropped on return.
    ///
    /// # Errors
    /// [`TensorError::InvalidArgument`] without a device model, and the
    /// first failed update's error.
    pub fn dispatch(
        &mut self,
        core: &mut EngineCore<'_>,
        orders: Vec<DispatchOrder>,
        version: usize,
    ) -> TensorResult<()> {
        if core.devices.is_none() {
            return Err(TensorError::InvalidArgument(
                "an event-driven schedule needs a device model \
                 (install one with RoundEngine::with_devices)"
                    .to_string(),
            ));
        }
        if orders.is_empty() {
            return Ok(());
        }
        let start = core.now();
        let messages = core.in_span("dispatch", |core| core.dispatch(&orders))?;
        for message in messages {
            let due = start + core.job_seconds(&message).expect("model checked above");
            let client = message.client_id;
            self.due.push(Reverse((due.to_bits(), client)));
            self.jobs[client] = Some(Job {
                due,
                version,
                message,
            });
        }
        Ok(())
    }

    /// When the earliest job in flight is due.
    pub fn earliest(&self) -> Option<f64> {
        let Reverse((due, _)) = self.due.peek()?;
        Some(f64::from_bits(*due))
    }

    /// Delivers the earliest job in flight, freeing its client.
    pub fn pop(&mut self) -> Option<Job> {
        let Reverse((_, client)) = self.due.pop()?;
        self.jobs[client].take()
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
