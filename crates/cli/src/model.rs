//! The closed-form model's commands: `wakeup` (§5.1) and `efficiency`
//! (equations 1 and 2).

use crate::args::{CliError, Parsed};
use oddci_analytics::{efficiency as eq2, makespan, wakeup_envelope, InstanceParams};
use oddci_types::{Bandwidth, DataSize};
use oddci_workload::JobProfile;

/// The commands and every flag each reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag};

    pub const WAKEUP: Command = Command {
        name: "wakeup",
        about: "evaluate the wakeup envelope W = 1.5·I/β",
        flags: &[IMAGE_MB, BETA_MBPS],
        run: super::wakeup,
    };
    pub const IMAGE_MB: Flag = Flag::new("image-mb", "M", "image size MB", "8");
    pub const BETA_MBPS: Flag = Flag::new("beta-mbps", "B", "spare capacity Mbps", "1");

    pub const EFFICIENCY: Command = Command {
        name: "efficiency",
        about: "evaluate equations (1) and (2)",
        flags: &[PHI, RATIO, NODES],
        run: super::efficiency,
    };
    pub const PHI: Flag = Flag::new("phi", "F", "suitability", "1000");
    pub const RATIO: Flag = Flag::new("ratio", "R", "n/N", "100");
    pub const NODES: Flag = Flag::new("nodes", "N", "instance size N", "1000");
}
pub use spec::*;

/// `oddci wakeup`: the §5.1 envelope.
fn wakeup(p: &Parsed) -> Result<String, CliError> {
    let image_mb: u64 = p.num(&IMAGE_MB)?;
    let beta_mbps: f64 = p.positive(&BETA_MBPS)?;
    let image = DataSize::from_megabytes(image_mb);
    let beta = Bandwidth::from_mbps(beta_mbps);
    let (best, mean, worst) = wakeup_envelope(image, beta);
    Ok(format!(
        "wakeup envelope for a {image_mb} MB image at {beta_mbps} Mbps spare capacity:\n  \
         best  (attach at image start) : {:.1}s\n  \
         mean  (W = 1.5·I/β)           : {:.1}s\n  \
         worst (just missed the start) : {:.1}s\n  \
         independent of instance size: broadcast reaches every tuned receiver at once\n",
        best.as_secs_f64(),
        mean.as_secs_f64(),
        worst.as_secs_f64()
    ))
}

/// `oddci efficiency`: equations (1) and (2) at a point.
fn efficiency(p: &Parsed) -> Result<String, CliError> {
    let phi: f64 = p.positive(&PHI)?;
    let ratio: f64 = p.positive(&RATIO)?;
    let nodes: u64 = p.positive(&NODES)?;
    let params = InstanceParams::paper(nodes);
    let n = (ratio * nodes as f64).round() as u64;
    let profile = JobProfile::from_suitability(
        DataSize::from_megabytes(10),
        n.max(1),
        DataSize::from_bytes(1_000),
        params.delta,
        phi,
    );
    let m = makespan(&profile, &params);
    let e = eq2(&profile, &params);
    Ok(format!(
        "paper scenario (I=10MB, β=1Mbps, δ=150Kbps, s+r=1KB):\n  \
         suitability Φ       : {phi}\n  \
         n/N                 : {ratio} ({n} tasks on {nodes} nodes)\n  \
         task cost implied   : {:.1}s\n  \
         makespan (eq. 1)    : {}\n  \
         efficiency (eq. 2)  : {e:.4}\n",
        profile.mean_cost.as_secs_f64(),
        m
    ))
}

#[cfg(test)]
mod tests {
    use crate::testing::oddci;

    #[test]
    fn wakeup_rejects_zero_beta() {
        assert!(oddci("wakeup --beta-mbps 0").is_err());
    }

    #[test]
    fn efficiency_point_matches_paper_trend() {
        let hi = oddci("efficiency --phi 100000 --ratio 100").unwrap();
        let lo = oddci("efficiency --phi 1 --ratio 100").unwrap();
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("efficiency"))
                .and_then(|l| l.split(':').nth(1))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(grab(&hi) > 0.99);
        assert!(grab(&lo) < 0.1);
    }
}
