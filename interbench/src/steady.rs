//! `interbench steady`: run one workload several times (each in its own
//! process, each with the next seed) and print, for every end-to-end
//! metric of `BENCHMARK.json`, the median, the quartiles and the
//! relative spread against the metric's bound. Each run's class lines
//! (sample counts, path shares, path-boundary verdicts) are relayed, so
//! a percentile sitting on a path boundary shows at once.
//!
//! ```text
//! interbench steady --workload crowd [--runs 5] [--seed 1] [--seconds 30]
//! ```
//!
//! Run it from the repository root (where `BENCHMARK.json` lives). The
//! quartiles are those of Python's `statistics.quantiles(values, n=4)`.

use std::process::{Command, ExitCode};

use visdb_service::json::{parse, Json};

/// Python's `statistics.quantiles(data, n=4)` (the default `exclusive`
/// method) over ascending `data` (at least two values).
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    let (ld, n) = (data.len() as i64, 4i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

/// Python's `statistics.median`.
pub fn median(data: &[f64]) -> f64 {
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(workload) = flag(args, "--workload") else {
        eprintln!("steady: missing --workload");
        return ExitCode::from(2);
    };
    let bench = match std::fs::read_to_string("BENCHMARK.json").map(|s| parse(&s)) {
        Ok(Ok(j)) => j,
        _ => {
            eprintln!("steady: run from the directory holding a valid BENCHMARK.json");
            return ExitCode::from(2);
        }
    };
    let num = |name: &str, default: u64| {
        flag(args, name)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(default)
    };
    let runs = num("--runs", 5).max(2);
    let seed0 = num("--seed", 1);
    let seconds = num(
        "--seconds",
        bench
            .get("run_seconds")
            .and_then(Json::as_u64)
            .unwrap_or(30),
    );
    let exe = std::env::current_exe().expect("own executable path");

    let mut results: Vec<Json> = Vec::new();
    let mut healthy = true;
    for r in 0..runs {
        let seed = seed0 + r;
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for l in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("run {r} (seed {seed}) | {l}");
            healthy &= !l.starts_with("path-boundary") && !l.starts_with("check failed");
        }
        match lines.last().map(|l| parse(l)) {
            Some(Ok(j)) if out.status.success() => {
                healthy &= j.get("correct") == Some(&Json::Bool(true));
                let (a, f) = (
                    j.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                    j.get("failed").and_then(Json::as_u64).unwrap_or(0),
                );
                println!("run {r} (seed {seed}) | attempted {a} failed {f}");
                results.push(j);
            }
            _ => {
                healthy = false;
                println!(
                    "run {r} (seed {seed}) | failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
    if results.len() < 2 {
        return ExitCode::FAILURE;
    }
    let Some(Json::Arr(metrics)) = bench.get("end_to_end") else {
        eprintln!("steady: BENCHMARK.json has no end_to_end list");
        return ExitCode::from(2);
    };
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"
    );
    for m in metrics {
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let mut values: Vec<f64> = results
            .iter()
            .filter_map(|j| j.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if values.len() != results.len() {
            healthy = false;
            println!("{name:<20} missing from some runs");
            continue;
        }
        values.sort_by(f64::total_cmp);
        let [q1, _, q3] = quartiles(&values);
        let med = median(&values);
        let spread = (q3 - q1) / med;
        // set-up time is gated on its median, not its spread
        let verdict = if name == "setup_s" {
            "median"
        } else if spread < bound / 3.0 {
            "steady"
        } else if spread <= bound {
            "within"
        } else {
            healthy = false;
            "WIDE"
        };
        println!(
            "{name:<20} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.2} {verdict:>8}"
        );
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }
}
