//! `check A.json B.json`: do two result files agree within the
//! benchmark's own bounds?
//!
//! Timings and memory must agree within the metric's bound, relative to
//! the smaller of the two values. Metrics that are exact under seed, and
//! the trajectory digest, must be equal when both files ran the same seed.
//! Files from hosts with a different CPU count or model are not compared.
//! On a workload that is reported but not gated, a timing outside its bound
//! is printed and does not make the files disagree.

use crate::spec::END_TO_END;
use crate::workloads;
use serde_json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn workloads(file: &Value) -> &[Value] {
    file.get("workloads")
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice)
}

/// Compares two parsed result files; returns the printed report and
/// whether they agree.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for field in ["logical_cpus", "cpu_model"] {
        let of = |file: &Value| file.get("host").and_then(|h| h.get(field)).cloned();
        let (ha, hb) = (of(a), of(b));
        if ha.is_none() || ha != hb {
            return Err(format!(
                "refusing to compare: host {field} differs ({ha:?} vs {hb:?})"
            ));
        }
    }
    let same_seed = a.get("seed").and_then(Value::as_u64) == b.get("seed").and_then(Value::as_u64);
    let mut out = String::new();
    let mut agree = true;
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            out.push_str(&format!("{name}: missing from the second file\n"));
            agree = false;
            continue;
        };
        let gated = workloads::by_name(name).map_or(true, |w| w.gated);
        out.push_str(&format!(
            "{name}{}\n",
            if gated { "" } else { " (reported, not gated)" }
        ));
        if same_seed {
            let digest = |w: &Value| w.get("digest").and_then(Value::as_str).map(str::to_string);
            let same = digest(wa).is_some() && digest(wa) == digest(wb);
            agree &= same;
            out.push_str(&format!(
                "  {:<22} {}\n",
                "digest",
                if same { "equal" } else { "DIFFERS" }
            ));
        }
        for metric in END_TO_END {
            let value = |w: &Value| w.get("metrics")?.get(metric.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                out.push_str(&format!("  {:<22} missing\n", metric.name));
                agree = false;
                continue;
            };
            let apart = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
            let ok = if metric.exact && same_seed {
                va == vb
            } else {
                apart <= metric.bound
            };
            agree &= ok || !(gated || metric.exact);
            out.push_str(&format!(
                "  {:<22} {:>14.6} {:>14.6} {:<6} {:>6.2}% apart, {} {}\n",
                metric.name,
                va,
                vb,
                metric.unit,
                apart * 100.0,
                if metric.exact && same_seed {
                    "must be equal:".to_string()
                } else {
                    format!("bound {:.0}%:", metric.bound * 100.0)
                },
                match (ok, gated || metric.exact) {
                    (true, _) => "ok",
                    (false, true) => "DISAGREES",
                    (false, false) => "apart (not gated)",
                },
            ));
        }
    }
    for wb in workloads(b) {
        let name = wb.get("name").and_then(Value::as_str);
        if !workloads(a)
            .iter()
            .any(|w| w.get("name").and_then(Value::as_str) == name)
        {
            out.push_str(&format!(
                "{}: missing from the first file\n",
                name.unwrap_or("?")
            ));
            agree = false;
        }
    }
    Ok((out, agree))
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (report, agree) = compare(&load(path_a)?, &load(path_b)?)?;
    print!("{report}");
    println!(
        "{}",
        if agree {
            "the files agree"
        } else {
            "the files DISAGREE"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn file(cpus: u64, seed: u64, digest: &str, p50: f64, rounds_to_target: f64) -> Value {
        file_of("w", cpus, seed, digest, p50, rounds_to_target)
    }

    fn file_of(
        workload: &str,
        cpus: u64,
        seed: u64,
        digest: &str,
        p50: f64,
        rounds_to_target: f64,
    ) -> Value {
        let mut metrics = Vec::new();
        for metric in END_TO_END {
            let value = match metric.name {
                "round_ms_p50" => p50,
                "rounds_to_target" => rounds_to_target,
                _ => 1.0,
            };
            metrics.push((
                metric.name.to_string(),
                json!({"value": value, "unit": metric.unit}),
            ));
        }
        json!({
            "seed": seed,
            "host": {"logical_cpus": cpus, "cpu_model": "test cpu"},
            "workloads": [{"name": workload, "digest": digest, "metrics": Value::Object(metrics)}],
        })
    }

    #[test]
    fn timings_agree_within_their_bound_and_not_beyond() {
        let base = file(2, 42, "aa", 100.0, 10.0);
        assert!(compare(&base, &file(2, 42, "aa", 110.0, 10.0)).unwrap().1);
        assert!(!compare(&base, &file(2, 42, "aa", 130.0, 10.0)).unwrap().1);
    }

    #[test]
    fn exact_metrics_and_digests_must_be_equal_under_one_seed() {
        let base = file(2, 42, "aa", 100.0, 10.0);
        assert!(!compare(&base, &file(2, 42, "aa", 100.0, 11.0)).unwrap().1);
        assert!(!compare(&base, &file(2, 42, "bb", 100.0, 10.0)).unwrap().1);
        // Another seed: the digest is not compared, counts within the bound.
        assert!(compare(&base, &file(2, 7, "bb", 100.0, 11.0)).unwrap().1);
    }

    #[test]
    fn an_ungated_workload_is_held_to_exactness_only() {
        let ungated = workloads::all()
            .into_iter()
            .find(|w| !w.gated)
            .expect("spill-20k is reported, not gated");
        let of = |p50, rounds| file_of(ungated.name, 2, 42, "aa", p50, rounds);
        assert!(compare(&of(100.0, 4.0), &of(130.0, 4.0)).unwrap().1);
        assert!(!compare(&of(100.0, 4.0), &of(100.0, 5.0)).unwrap().1);
    }

    #[test]
    fn different_hosts_are_not_compared() {
        let base = file(2, 42, "aa", 100.0, 10.0);
        assert!(compare(&base, &file(4, 42, "aa", 100.0, 10.0)).is_err());
    }
}
