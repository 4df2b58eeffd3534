//! `oddci top`: a running socket headend's live metrics plane, polled
//! over the wire.

use crate::args::{ArgError, CliError, Parsed};
use crate::socket::{conn_json, CONNECT, CONNECT_TIMEOUT};
use crate::Report;
use oddci_live::runtime::DEFAULT_KEY;
use oddci_telemetry::RegistrySnapshot;
use oddci_wire::{ClientConfig, ConnTraffic, Integrity, WireClient, WireMsg};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// The command and every flag it reads, as `oddci help` lists them.
#[rustfmt::skip]
mod spec {
    use crate::args::{Command, Flag};
    use crate::socket::{CONNECT, CONNECT_TIMEOUT};

    pub const TOP: Command = Command { name: "top", run: super::top,
        about: "poll a running socket headend's live metrics plane (counters/gauges/histograms \
            with deltas and rates, plus per-connection wire counters; no node identity \
            consumed)",
        flags: &[CONNECT, INTERVAL_MS, COUNT, CONNECT_TIMEOUT, JSON] };
    pub const INTERVAL_MS: Flag = Flag::new("interval-ms", "M", "poll period", "1000");
    pub const COUNT: Flag = Flag::new("count", "N", "polls before exiting", "0 = forever");
    pub const JSON: Flag = Flag::new("json", "", "machine-readable output (last poll)", "");
}
pub use spec::*;

/// Renders one `oddci top` refresh: the registry with deltas/rates
/// against the previous poll, then the per-connection rows.
fn render_top(
    reply_registry: &RegistrySnapshot,
    connections: &[ConnTraffic],
    prev: Option<&RegistrySnapshot>,
    elapsed_secs: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>10} {:>10}",
        "counter", "value", "delta", "per sec"
    );
    for (name, value) in &reply_registry.counters {
        // A delta needs two samples *of this counter*. Counters created
        // after the previous poll (e.g. a fault class firing for the
        // first time) have no baseline — deltaing them against zero
        // would report their whole lifetime value as one interval's
        // rate, so they render as `-` until the next poll.
        let delta = prev
            .and_then(|s| s.counters.get(name))
            .map(|&before| value.saturating_sub(before));
        let shown = delta.map_or("-".into(), |d| format!("+{d}"));
        let rate = match delta {
            Some(d) if elapsed_secs > 0.0 => format!("{:.1}", d as f64 / elapsed_secs),
            _ => "-".into(),
        };
        let _ = writeln!(out, "  {name:<34} {value:>12} {shown:>10} {rate:>10}");
    }
    for (name, value) in &reply_registry.gauges {
        let _ = writeln!(out, "  {name:<34} {value:>12.3}");
    }
    if !reply_registry.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &reply_registry.histograms {
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s",
                name, h.count, h.mean, h.p50, h.p99, h.max
            );
        }
    }
    if !connections.is_empty() {
        let _ = writeln!(
            out,
            "  {:<6} {:<6} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8}",
            "conn", "state", "tx fr", "tx B", "rx fr", "rx B", "rejects", "resyncs"
        );
        for c in connections {
            let _ = writeln!(
                out,
                "  #{:<5} {:<6} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8}",
                c.conn,
                if c.open { "open" } else { "closed" },
                c.tx_frames,
                c.tx_bytes,
                c.rx_frames,
                c.rx_bytes,
                c.checksum_rejects,
                c.resyncs
            );
        }
    }
    out
}

/// `oddci top`: poll a running socket headend's live metrics plane.
/// Sends [`StatsQuery`](oddci_wire::WireMsg::StatsQuery) on an interval
/// and renders the registry (with deltas/rates between polls) plus the
/// per-connection wire counters. A monitoring connection never performs
/// the hello handshake, so it does not consume a node identity.
fn top(p: &Parsed) -> Result<String, CliError> {
    let addr = p.addr(&CONNECT)?;
    let count: u64 = p.num(&COUNT)?; // 0 = poll until the headend goes away
    let interval = Duration::from_millis(p.positive(&INTERVAL_MS)?);
    let mut ccfg = ClientConfig::new(Integrity::hmac(DEFAULT_KEY));
    ccfg.connect_timeout = Duration::from_secs(p.num(&CONNECT_TIMEOUT)?);
    let client =
        WireClient::connect(addr, ccfg).map_err(|e| ArgError(format!("top on {addr}: {e}")))?;

    let mut prev: Option<RegistrySnapshot> = None;
    let mut last_poll = Instant::now();
    let mut polls: u64 = 0;
    let mut final_out = String::new();
    // Why polling stopped short of `--count`; an error only before the
    // first reply.
    let ended = loop {
        let corr = polls;
        if !client.send(&WireMsg::StatsQuery { corr }) {
            break "connection closed";
        }
        // The headend broadcasts wakeups/shutdown to every connection;
        // skip that traffic until our correlated reply shows up.
        let deadline = Instant::now() + Duration::from_secs(5);
        let reply = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ArgError(format!("top on {addr}: no StatsReply within 5s")).into());
            }
            match client.receiver().recv_timeout(left) {
                Ok(WireMsg::StatsReply {
                    corr: got,
                    registry,
                    connections,
                }) if got == corr => break Some((registry, connections)),
                Ok(WireMsg::Shutdown) => break None,
                Err(_) if client.is_closed() => break None,
                _ => {}
            }
        };
        let Some((registry, connections)) = reply else {
            break "headend shut down";
        };
        let elapsed = last_poll.elapsed().as_secs_f64();
        last_poll = Instant::now();
        polls += 1;
        let doc = serde_json::json!({
            "addr": addr.to_string(),
            "poll": polls,
            "registry": serde_json::to_value(&registry).expect("registry json"),
            "connections": connections.iter().map(conn_json).collect::<Vec<_>>(),
        });
        let mut r = Report::new(0, format_args!("oddci top — {addr}, poll {polls}"));
        r.text += &render_top(&registry, &connections, prev.as_ref(), elapsed);
        final_out = r.or_json(p.flag(&JSON), &doc);
        prev = Some(registry);
        if count > 0 && polls >= count {
            break "";
        }
        // Streaming mode: show each refresh as it lands; the final one is
        // also the return value.
        println!("{final_out}");
        std::thread::sleep(interval);
    };
    if polls == 0 {
        return Err(ArgError(format!("top on {addr}: {ended}")).into());
    }
    Ok(final_out)
}

#[cfg(test)]
mod tests {
    use super::render_top;

    #[test]
    fn top_renders_dashes_until_a_counter_has_two_samples() {
        use oddci_telemetry::RegistrySnapshot;
        let mut first = RegistrySnapshot::default();
        first.counters.insert("wire.tx_frames".into(), 1_000);

        // First poll: no previous snapshot at all — everything is `-`.
        let out = render_top(&first, &[], None, 0.0);
        let row = out.lines().find(|l| l.contains("wire.tx_frames")).unwrap();
        assert!(row.contains('-'), "{out}");
        assert!(
            !row.contains('+'),
            "first poll must not fake a delta: {out}"
        );

        // Second poll: the counter has a baseline, but a *new* counter
        // (a fault class that just fired) does not. The old one gets a
        // real delta and rate; the new one stays `-` — deltaing its
        // lifetime value against zero would print a garbage rate.
        let mut second = RegistrySnapshot::default();
        second.counters.insert("wire.tx_frames".into(), 1_500);
        second
            .counters
            .insert("faults.airtime_revoked".into(), 7_777);
        let out = render_top(&second, &[], Some(&first), 2.0);
        let old = out.lines().find(|l| l.contains("wire.tx_frames")).unwrap();
        assert!(old.contains("+500"), "{out}");
        assert!(old.contains("250.0"), "{out}");
        let fresh = out
            .lines()
            .find(|l| l.contains("faults.airtime_revoked"))
            .unwrap();
        assert!(!fresh.contains('+'), "{out}");
        assert!(
            !fresh.contains("3888"),
            "7777/2s garbage rate leaked through: {out}"
        );
    }
}
