//! System-heterogeneity models: how much work each client does, and how
//! fast its device does it.
//!
//! The paper captures variable computational capability across clients by
//! "letting each client select the local epoch number uniformly between 1
//! and E in FedADMM as well as in FedProx. The number of local epochs for
//! FedAvg and SCAFFOLD are fixed to be E" (Section V-A).
//! [`LocalWorkSchedule`] expresses exactly that choice and also provides a
//! deterministic per-client schedule for persistent stragglers.
//!
//! [`DeviceModel`] is the other half, the one behind the engine's virtual
//! clock: per-client seconds per epoch and an optional network link. It
//! answers one question, [`DeviceModel::job_seconds`] — how long a client
//! takes to download θ, run its epochs and upload its message — which is
//! what turns the paper's round counts into time on a heterogeneous fleet
//! (the straggler problem of Section I).

use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A client's network link to the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Uplink bandwidth in megabits per second.
    pub upload_mbps: f64,
    /// Downlink bandwidth in megabits per second.
    pub download_mbps: f64,
    /// One-way latency in milliseconds, paid once per transfer.
    pub latency_ms: f64,
}

impl Link {
    /// Seconds to move `bytes` at `mbps`, latency included.
    fn transfer_seconds(&self, bytes: usize, mbps: f64) -> f64 {
        self.latency_ms / 1e3 + bytes as f64 * 8.0 / (mbps * 1e6)
    }
}

/// One client device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Virtual seconds the device needs for one local epoch.
    pub seconds_per_epoch: f64,
    /// The device's link; `None` makes transfers take no time.
    pub link: Option<Link>,
}

/// How fast each client's work goes: one [`Device`] per client.
///
/// Installed with `RoundEngine::with_devices`, it drives the engine's
/// virtual clock under every scheduler: a synchronous round lasts as long
/// as its slowest client's [`job_seconds`](Self::job_seconds), and the
/// event-driven schedules fix each job's finish time from the same
/// function.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    devices: Vec<Device>,
}

impl DeviceModel {
    /// Compute-only devices: client `i` needs `seconds_per_epoch[i]` per
    /// local epoch and transfers take no time.
    pub fn new(seconds_per_epoch: Vec<f64>) -> Self {
        DeviceModel {
            devices: seconds_per_epoch
                .into_iter()
                .map(|seconds_per_epoch| Device {
                    seconds_per_epoch,
                    link: None,
                })
                .collect(),
        }
    }

    /// A fleet of `num_clients` devices drawn from `(device, fraction)`
    /// tiers: fractions are normalised, each tier gets its rounded share
    /// (the last tier pads any shortfall) and the fleet is shuffled under
    /// `seed`, so tier membership is not correlated with client id (client
    /// ids are also data-partition indices).
    ///
    /// # Panics
    /// Panics if `tiers` is empty or its fractions do not sum to a positive
    /// value.
    pub fn tiered(num_clients: usize, tiers: &[(Device, f64)], seed: u64) -> Self {
        let total: f64 = tiers.iter().map(|(_, f)| f.max(0.0)).sum();
        assert!(total > 0.0, "tier fractions must sum to a positive value");
        let mut devices = Vec::with_capacity(num_clients);
        for (device, fraction) in tiers {
            let count = (fraction.max(0.0) / total * num_clients as f64).round() as usize;
            devices.extend(std::iter::repeat_n(*device, count));
        }
        let last = tiers.last().expect("at least one tier").0;
        devices.resize(num_clients, last);
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..devices.len()).rev() {
            devices.swap(i, rng.gen_range(0..=i));
        }
        DeviceModel { devices }
    }

    /// Virtual seconds client `client` needs to download `download_bytes`,
    /// run `epochs` local epochs (at least one) and upload `upload_bytes`.
    /// A device without a link adds no transfer time at all, so its job
    /// takes exactly `seconds_per_epoch · max(epochs, 1)`.
    pub fn job_seconds(
        &self,
        client: usize,
        epochs: usize,
        download_bytes: usize,
        upload_bytes: usize,
    ) -> f64 {
        let device = &self.devices[client];
        let compute = device.seconds_per_epoch * epochs.max(1) as f64;
        match device.link {
            None => compute,
            Some(link) => {
                link.transfer_seconds(download_bytes, link.download_mbps)
                    + compute
                    + link.transfer_seconds(upload_bytes, link.upload_mbps)
            }
        }
    }

    /// What a virtual clock needs of the model: one device per client, each
    /// epoch finite and positive (a `NaN` never meets a deadline, a negative
    /// duration runs the clock backwards), each link with finite, positive
    /// bandwidths and a finite, non-negative latency. The error names the
    /// first client that fails.
    pub(crate) fn check(&self, num_clients: usize) -> TensorResult<()> {
        if self.devices.len() != num_clients {
            return Err(TensorError::InvalidArgument(format!(
                "the device model has {} devices but there are {num_clients} clients",
                self.devices.len()
            )));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        for (client, device) in self.devices.iter().enumerate() {
            let link_ok = device.link.is_none_or(|l| {
                positive(l.upload_mbps)
                    && positive(l.download_mbps)
                    && l.latency_ms.is_finite()
                    && l.latency_ms >= 0.0
            });
            if !positive(device.seconds_per_epoch) || !link_ok {
                return Err(TensorError::InvalidArgument(format!(
                    "the device of client {client} ({device:?}) needs finite, positive \
                     seconds per epoch and link bandwidths and a finite, non-negative latency"
                )));
            }
        }
        Ok(())
    }
}

/// How many local epochs a selected client runs in a given round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalWorkSchedule {
    /// Every client always runs exactly `E` epochs (FedAvg / SCAFFOLD in the
    /// paper's protocol).
    Fixed(usize),
    /// Each selected client independently draws its epoch count uniformly
    /// from `{1, ..., E}` each round (system heterogeneity; FedADMM and
    /// FedProx in the paper's protocol).
    UniformRandom(usize),
    /// A fixed per-client epoch count (client `i` always runs
    /// `epochs[i % epochs.len()]` epochs) — models persistent speed
    /// differences between devices.
    PerClient(Vec<usize>),
}

impl LocalWorkSchedule {
    /// Builds the schedule the paper uses for a given algorithm:
    /// heterogeneous work when `system_heterogeneity` is on, otherwise the
    /// fixed maximum.
    pub fn from_config(max_epochs: usize, system_heterogeneity: bool) -> Self {
        if system_heterogeneity {
            LocalWorkSchedule::UniformRandom(max_epochs.max(1))
        } else {
            LocalWorkSchedule::Fixed(max_epochs.max(1))
        }
    }

    /// The epoch count for `client` in this round.
    pub fn epochs_for(&self, client: usize, rng: &mut impl Rng) -> usize {
        match self {
            LocalWorkSchedule::Fixed(e) => (*e).max(1),
            LocalWorkSchedule::UniformRandom(e) => rng.gen_range(1..=(*e).max(1)),
            LocalWorkSchedule::PerClient(epochs) => {
                if epochs.is_empty() {
                    1
                } else {
                    epochs[client % epochs.len()].max(1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_always_returns_e() {
        let s = LocalWorkSchedule::Fixed(5);
        let mut rng = SmallRng::seed_from_u64(0);
        for c in 0..20 {
            assert_eq!(s.epochs_for(c, &mut rng), 5);
        }
        assert!(matches!(s, LocalWorkSchedule::Fixed(5)));
    }

    #[test]
    fn uniform_random_stays_in_range_and_varies() {
        let s = LocalWorkSchedule::UniformRandom(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..200).map(|c| s.epochs_for(c, &mut rng)).collect();
        assert!(draws.iter().all(|&e| (1..=20).contains(&e)));
        assert!(draws.iter().collect::<std::collections::HashSet<_>>().len() > 10);
        let mean = draws.iter().sum::<usize>() as f64 / draws.len() as f64;
        assert!((mean - 10.5).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn per_client_schedule_is_deterministic() {
        let s = LocalWorkSchedule::PerClient(vec![1, 2, 3]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(s.epochs_for(0, &mut rng), 1);
        assert_eq!(s.epochs_for(1, &mut rng), 2);
        assert_eq!(s.epochs_for(2, &mut rng), 3);
        assert_eq!(s.epochs_for(3, &mut rng), 1);
        assert!(matches!(&s, LocalWorkSchedule::PerClient(e) if e == &[1, 2, 3]));
    }

    #[test]
    fn degenerate_inputs_clamp_to_one_epoch() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(LocalWorkSchedule::Fixed(0).epochs_for(0, &mut rng), 1);
        assert_eq!(
            LocalWorkSchedule::UniformRandom(0).epochs_for(0, &mut rng),
            1
        );
        assert_eq!(
            LocalWorkSchedule::PerClient(vec![]).epochs_for(0, &mut rng),
            1
        );
    }

    const LINK: Link = Link {
        upload_mbps: 8.0,
        download_mbps: 16.0,
        latency_ms: 50.0,
    };

    #[test]
    fn job_seconds_adds_both_transfers_to_the_compute() {
        let model = DeviceModel {
            devices: vec![Device {
                seconds_per_epoch: 0.5,
                link: Some(LINK),
            }],
        };
        // 1 MB down at 16 Mbit/s (0.5 s) + 4 epochs (2 s) + 1 MB up at
        // 8 Mbit/s (1 s), plus 50 ms of latency per transfer.
        let t = model.job_seconds(0, 4, 1_000_000, 1_000_000);
        assert!((t - 3.6).abs() < 1e-12, "{t}");
        // Zero-byte transfers still pay the latency; zero epochs run one.
        assert!((model.job_seconds(0, 0, 0, 0) - 0.6).abs() < 1e-12);
        // Uploading twice the bytes takes longer by exactly one upload.
        let double = model.job_seconds(0, 4, 1_000_000, 2_000_000);
        assert!((double - t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_device_without_a_link_keeps_the_compute_bits() {
        let model = DeviceModel::new(vec![0.1, 3.0]);
        for epochs in [0usize, 1, 3, 7] {
            for client in 0..2 {
                let compute = [0.1, 3.0][client] * epochs.max(1) as f64;
                let t = model.job_seconds(client, epochs, 31_400, 62_800);
                assert_eq!(t.to_bits(), compute.to_bits());
            }
        }
    }

    #[test]
    fn tiered_fleet_has_requested_size_and_mixture() {
        let tier = |seconds_per_epoch| Device {
            seconds_per_epoch,
            link: Some(LINK),
        };
        let tiers = [(tier(0.5), 0.2), (tier(1.5), 0.5), (tier(6.0), 0.3)];
        let model = DeviceModel::tiered(100, &tiers, 7);
        assert_eq!(model.devices.len(), 100);
        let count = |s: f64| {
            model
                .devices
                .iter()
                .filter(|d| d.seconds_per_epoch == s)
                .count()
        };
        assert_eq!((count(0.5), count(1.5), count(6.0)), (20, 50, 30));
        // Shuffled: the fast tier is not simply the first 20 clients.
        assert!(model.devices[..20]
            .iter()
            .any(|d| d.seconds_per_epoch != 0.5));
        // A rounding shortfall (three thirds of 4 round to 1 + 1 + 1) is
        // padded with the last tier.
        let thirds = [(tier(0.5), 1.0), (tier(1.5), 1.0), (tier(6.0), 1.0)];
        let short = DeviceModel::tiered(4, &thirds, 7);
        let slow = short.devices.iter().filter(|d| d.seconds_per_epoch == 6.0);
        assert_eq!(slow.count(), 2);
        assert!(short.check(4).is_ok());
    }

    #[test]
    fn tiered_fleet_is_deterministic_in_seed() {
        let tiers = [
            (
                Device {
                    seconds_per_epoch: 1.0,
                    link: None,
                },
                0.5,
            ),
            (
                Device {
                    seconds_per_epoch: 8.0,
                    link: Some(LINK),
                },
                0.5,
            ),
        ];
        let a = DeviceModel::tiered(20, &tiers, 3);
        assert_eq!(a, DeviceModel::tiered(20, &tiers, 3));
        assert_ne!(a, DeviceModel::tiered(20, &tiers, 4));
    }

    #[test]
    fn check_refuses_a_malformed_model_naming_the_client() {
        assert!(DeviceModel::new(vec![1.0; 4]).check(4).is_ok());
        let short = DeviceModel::new(vec![1.0; 3]).check(4).unwrap_err();
        assert!(short.to_string().contains("3 devices"), "{short}");
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut seconds = vec![1.0; 4];
            seconds[2] = bad;
            let err = DeviceModel::new(seconds).check(4).unwrap_err();
            assert!(err.to_string().contains("client 2"), "{bad}: {err}");
            for link in [
                Link {
                    upload_mbps: bad,
                    ..LINK
                },
                Link {
                    download_mbps: bad,
                    ..LINK
                },
                Link {
                    latency_ms: if bad == 0.0 { -1.0 } else { bad },
                    ..LINK
                },
            ] {
                let mut model = DeviceModel::new(vec![1.0; 4]);
                model.devices[1].link = Some(link);
                let err = model.check(4).unwrap_err();
                assert!(err.to_string().contains("client 1"), "{link:?}: {err}");
            }
        }
    }

    #[test]
    fn from_config_matches_paper_protocol() {
        assert_eq!(
            LocalWorkSchedule::from_config(20, true),
            LocalWorkSchedule::UniformRandom(20)
        );
        assert_eq!(
            LocalWorkSchedule::from_config(20, false),
            LocalWorkSchedule::Fixed(20)
        );
    }
}
