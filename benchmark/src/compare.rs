//! `oddci-benchmark compare a.json b.json`: one verdict per pairing of
//! end-to-end metric and workload, from two documents `run` wrote.
//!
//! `a` is the base (the parent commit, or the first of two sets of the
//! same commit), `b` the candidate. A metric is `worse` when b's median
//! is worse than a's by more than the metric's bound, `better` when it
//! is better by more than the bound, `same` in between — and
//! `unresolved`, whatever the medians say, when either side's own
//! spread (interquartile distance over median) is wider than the bound:
//! a difference smaller than the noise is not a finding. The bound is the
//! one `run` wrote into a's row, per metric *and* workload
//! (`metrics::bound`).
//!
//! Two documents compare only when their stamps agree on seed, runs per
//! workload, seconds per run and core count: each of those changes the
//! inputs or the sample counts behind the quartiles.

use crate::stats::spread;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of one row.
#[derive(Debug, Clone)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

/// The verdict for one metric on one workload.
pub fn verdict(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    if spread(&a.values) > bound || spread(&b.values) > bound {
        return Verdict::Unresolved;
    }
    // Positive when b is worse, as a share of a's median.
    let worsening = if higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(row: &Value) -> Option<Side> {
    Some(Side {
        median: row["median"].as_f64()?,
        q1: row["q1"].as_f64()?,
        q3: row["q3"].as_f64()?,
        values: row["values"]
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The settings two documents must share, as their stamps name them.
const SHARED_SETTINGS: [&str; 4] = ["seed", "reps", "seconds", "available_parallelism"];

/// Why `a` and `b` cannot be compared, if their stamps say so.
fn settings_differ(a: &Value, b: &Value) -> Option<String> {
    SHARED_SETTINGS.iter().find_map(|key| {
        let (va, vb) = (a["stamp"][*key].as_u64(), b["stamp"][*key].as_u64());
        let show = |v: Option<u64>| v.map_or("unstamped".to_string(), |n| n.to_string());
        (va.is_none() || va != vb).then(|| {
            format!(
                "the sets differ in `{key}` ({} against {}); take them again",
                show(va),
                show(vb)
            )
        })
    })
}

fn failed_share(doc: &Value, workload: &str) -> Option<f64> {
    let row = doc["failures"]
        .as_array()?
        .iter()
        .find(|r| r["workload"].as_str() == Some(workload))?;
    Some(row["failed"].as_f64()? / row["attempted"].as_f64()?.max(1.0))
}

/// Prints the table; `Ok(true)` when nothing is worse and no workload
/// fails a larger share of its operations in `b` than in `a`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    if let Some(why) = settings_differ(&a, &b) {
        return Err(why);
    }
    let rows_a = a["end_to_end"].as_array().ok_or("a: no end_to_end rows")?;
    let rows_b = b["end_to_end"].as_array().ok_or("b: no end_to_end rows")?;
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>12} {:>24} {:>12} {:>24} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "bound"
    );
    for row_a in rows_a {
        let (Some(workload), Some(metric)) = (row_a["workload"].as_str(), row_a["metric"].as_str())
        else {
            return Err("a: a row without workload or metric".into());
        };
        let Some(row_b) = rows_b.iter().find(|r| {
            r["workload"].as_str() == Some(workload) && r["metric"].as_str() == Some(metric)
        }) else {
            println!("{workload:<14} {metric:<12} missing from b");
            ok = false;
            continue;
        };
        let (Some(sa), Some(sb), Some(bound)) = (side(row_a), side(row_b), row_a["bound"].as_f64())
        else {
            return Err(format!("{workload}/{metric}: malformed row"));
        };
        let higher = row_a["better"].as_str() == Some("higher");
        let v = verdict(&sa, &sb, higher, bound);
        ok &= v != Verdict::Worse;
        println!(
            "{:<14} {:<12} {:>12.4} {:>24} {:>12.4} {:>24} {:>5.0}%  {}",
            workload,
            metric,
            sa.median,
            format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
            sb.median,
            format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
            bound * 100.0,
            v.as_str()
        );
    }
    if let Some(failures) = b["failures"].as_array() {
        for row in failures {
            let Some(workload) = row["workload"].as_str() else {
                continue;
            };
            let share_b = failed_share(&b, workload).unwrap_or(0.0);
            let share_a = failed_share(&a, workload).unwrap_or(0.0);
            if share_b > share_a {
                println!("{workload:<14} failed share rose from {share_a:.6} to {share_b:.6}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(around: f64) -> Side {
        let values: Vec<f64> = [0.99, 0.995, 1.0, 1.005, 1.01]
            .iter()
            .map(|k| around * k)
            .collect();
        Side {
            median: around,
            q1: around * 0.995,
            q3: around * 1.005,
            values,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better (a latency), 10 % bound.
        assert_eq!(
            verdict(&tight(100.0), &tight(105.0), false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(115.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(85.0), false, 0.10),
            Verdict::Better
        );
        // Higher is better (a rate): the same numbers flip.
        assert_eq!(
            verdict(&tight(100.0), &tight(115.0), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(85.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(95.0), true, 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn sets_taken_with_different_settings_are_refused() {
        use serde_json::json;
        let stamp = |seed: u64, reps: u64| json!({"stamp": {"seed": seed, "reps": reps, "seconds": 10, "available_parallelism": 2}});
        assert_eq!(settings_differ(&stamp(7, 10), &stamp(7, 10)), None);
        assert!(
            settings_differ(&stamp(7, 10), &stamp(7, 5)).is_some_and(|why| why.contains("`reps`"))
        );
        assert!(
            settings_differ(&stamp(7, 10), &stamp(8, 10)).is_some_and(|why| why.contains("`seed`"))
        );
        // A document without a stamp is not comparable to anything.
        assert!(settings_differ(&json!({}), &json!({})).is_some());
    }

    #[test]
    fn a_noisy_side_is_unresolved_whatever_the_medians() {
        let noisy = Side {
            median: 100.0,
            q1: 80.0,
            q3: 120.0,
            values: vec![70.0, 80.0, 100.0, 120.0, 130.0],
        };
        assert_eq!(
            verdict(&noisy, &tight(100.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&tight(100.0), &noisy, true, 0.10),
            Verdict::Unresolved
        );
        // Its spread is 0.5: only a bound wider than that resolves it.
        assert_eq!(
            verdict(&noisy, &tight(100.0), false, 0.25),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&noisy, &tight(100.0), false, 0.60), Verdict::Same);
    }
}
