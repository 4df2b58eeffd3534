//! Broadcast-technology profiles (§3.3).
//!
//! The paper names several one-to-many technologies an OddCI can ride:
//! digital TV "in their different modalities (satellite, terrestrial,
//! cable, mobile)", IPTV/WebTV multicast and mobile-phone broadcast. Each
//! modality has characteristic spare capacity β, return-channel capacity
//! δ, viewer churn and device class. A [`BroadcastTechnology`] bundles
//! defensible 2009-era calibrations of those parameters into a ready
//! [`WorldConfig`], so the same experiment can be swept across modalities
//! (the `technologies` harness does exactly that).

use crate::controller::ControllerPolicy;
use crate::world::{ChurnConfig, WorldConfig};
use oddci_receiver::compute::ComputeModel;
use oddci_types::{Bandwidth, DirectChannelConfig, DtvSystemConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// A broadcast modality from §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BroadcastTechnology {
    /// Terrestrial DTV (ISDB-T/DVB-T): the paper's reference — ~1 Mbps
    /// spare, ADSL return channels, living-room boxes.
    TerrestrialDtv,
    /// Satellite DTV (DVB-S): fat transponders leave more spare capacity;
    /// return channel still terrestrial ADSL.
    SatelliteDtv,
    /// Cable DTV (DVB-C): good spare capacity and a DOCSIS return channel.
    CableDtv,
    /// IPTV multicast over managed broadband: broadcast is just another
    /// multicast group, return channel is the same broadband line.
    IptvMulticast,
    /// Mobile broadcast (DVB-H / MediaFLO class): thin pipes both ways,
    /// battery-driven churn, weaker devices.
    MobileBroadcast,
}

impl BroadcastTechnology {
    /// All modalities, reference first.
    pub const ALL: [BroadcastTechnology; 5] = [
        BroadcastTechnology::TerrestrialDtv,
        BroadcastTechnology::SatelliteDtv,
        BroadcastTechnology::CableDtv,
        BroadcastTechnology::IptvMulticast,
        BroadcastTechnology::MobileBroadcast,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BroadcastTechnology::TerrestrialDtv => "Terrestrial DTV",
            BroadcastTechnology::SatelliteDtv => "Satellite DTV",
            BroadcastTechnology::CableDtv => "Cable DTV",
            BroadcastTechnology::IptvMulticast => "IPTV multicast",
            BroadcastTechnology::MobileBroadcast => "Mobile broadcast",
        }
    }

    /// Spare broadcast capacity β.
    pub fn beta(self) -> Bandwidth {
        match self {
            BroadcastTechnology::TerrestrialDtv => Bandwidth::from_mbps(1.0),
            BroadcastTechnology::SatelliteDtv => Bandwidth::from_mbps(4.0),
            BroadcastTechnology::CableDtv => Bandwidth::from_mbps(2.0),
            BroadcastTechnology::IptvMulticast => Bandwidth::from_mbps(8.0),
            BroadcastTechnology::MobileBroadcast => Bandwidth::from_kbps(384.0),
        }
    }

    /// Return-channel capacity δ.
    pub fn delta(self) -> Bandwidth {
        match self {
            BroadcastTechnology::TerrestrialDtv => Bandwidth::from_kbps(150.0),
            BroadcastTechnology::SatelliteDtv => Bandwidth::from_kbps(150.0),
            BroadcastTechnology::CableDtv => Bandwidth::from_mbps(1.0),
            BroadcastTechnology::IptvMulticast => Bandwidth::from_mbps(2.0),
            BroadcastTechnology::MobileBroadcast => Bandwidth::from_kbps(128.0),
        }
    }

    /// Characteristic viewer churn (mean on / mean off), or `None` for
    /// always-on boxes (cable/IPTV boxes typically stay powered).
    pub fn churn(self) -> Option<ChurnConfig> {
        let mins = |on: u64, off: u64| {
            Some(ChurnConfig {
                mean_on: SimDuration::from_mins(on),
                mean_off: SimDuration::from_mins(off),
            })
        };
        match self {
            BroadcastTechnology::TerrestrialDtv => mins(180, 60),
            BroadcastTechnology::SatelliteDtv => mins(180, 60),
            BroadcastTechnology::CableDtv => None,
            BroadcastTechnology::IptvMulticast => None,
            // Phones hop networks and save battery: short sessions.
            BroadcastTechnology::MobileBroadcast => mins(30, 30),
        }
    }

    /// Compute model: TV boxes use the paper's calibration; phones of the
    /// era are slower still (~2× an STB).
    pub fn compute(self) -> ComputeModel {
        match self {
            BroadcastTechnology::MobileBroadcast => ComputeModel {
                stb_in_use_vs_pc: 41.2, // 2x the STB's 20.6
                in_use_vs_standby: 1.65,
                jitter_cv: 0.0,
            },
            _ => ComputeModel::paper(),
        }
    }

    /// Fraction of powered devices actively used (mobile screens are on
    /// when the device is awake; TV boxes are often on standby).
    pub fn in_use_fraction(self) -> f64 {
        match self {
            BroadcastTechnology::MobileBroadcast => 0.9,
            _ => 0.5,
        }
    }

    /// A ready world configuration for this modality with `audience`
    /// reachable devices.
    pub fn world_config(self, audience: u64) -> WorldConfig {
        WorldConfig {
            nodes: audience,
            dtv: DtvSystemConfig {
                beta: self.beta(),
                ..Default::default()
            },
            direct: DirectChannelConfig {
                delta: self.delta(),
                ..Default::default()
            },
            policy: ControllerPolicy::default(),
            compute: self.compute(),
            churn: self.churn(),
            in_use_fraction: self.in_use_fraction(),
            controller_tick: SimDuration::from_secs(60),
            key: format!("oddci-{}", self.label()).into_bytes(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_analytics::wakeup_mean;
    use oddci_types::DataSize;

    #[test]
    fn all_profiles_produce_valid_configs() {
        for tech in BroadcastTechnology::ALL {
            let cfg = tech.world_config(100);
            cfg.dtv.validate().unwrap();
            cfg.direct.validate().unwrap();
            assert_eq!(cfg.nodes, 100);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            BroadcastTechnology::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), BroadcastTechnology::ALL.len());
    }

    #[test]
    fn wakeup_ordering_follows_beta() {
        // Fatter broadcast pipes wake instances faster.
        let image = DataSize::from_megabytes(8);
        let w = |t: BroadcastTechnology| wakeup_mean(image, t.beta()).as_secs_f64();
        assert!(w(BroadcastTechnology::IptvMulticast) < w(BroadcastTechnology::SatelliteDtv));
        assert!(w(BroadcastTechnology::SatelliteDtv) < w(BroadcastTechnology::TerrestrialDtv));
        assert!(w(BroadcastTechnology::TerrestrialDtv) < w(BroadcastTechnology::MobileBroadcast));
    }

    #[test]
    fn mobile_is_the_weak_profile() {
        let m = BroadcastTechnology::MobileBroadcast;
        assert!(m.compute().stb_in_use_vs_pc > ComputeModel::paper().stb_in_use_vs_pc);
        assert!(m.churn().is_some());
        assert!(m.delta().bps() < BroadcastTechnology::TerrestrialDtv.delta().bps());
    }

    #[test]
    fn a_small_job_completes_on_every_technology() {
        use crate::world::World;
        use oddci_types::{SimDuration as D, SimTime};
        use oddci_workload::JobGenerator;
        for tech in BroadcastTechnology::ALL {
            let mut cfg = tech.world_config(150);
            cfg.policy.heartbeat.interval = D::from_secs(30);
            cfg.controller_tick = D::from_secs(30);
            let job = JobGenerator::homogeneous(
                DataSize::from_megabytes(1),
                DataSize::from_bytes(200),
                DataSize::from_bytes(200),
                D::from_secs(20),
                3,
            )
            .generate(100);
            let mut sim = World::simulation(cfg, 7);
            let request = sim.submit_job(job, 40);
            let report = sim
                .run_request(request, SimTime::from_secs(14 * 24 * 3600))
                .unwrap_or_else(|| panic!("{} run completes", tech.label()));
            assert_eq!(report.tasks_completed, 100, "{}", tech.label());
        }
    }
}
