//! Per-class statistics, the path-boundary rule, and the result line.

use crate::replay::{Path, Sample};
use crate::script::Class;

/// A class needs this many samples in a run before its p90 counts as a
/// tail (at least 20 samples beyond it).
pub const P90_MIN: usize = 200;
/// A reported percentile must sit at least this many points away from
/// the rank where a class's samples switch from one path to the other.
pub const BOUNDARY_MARGIN: f64 = 10.0;

/// Nearest-rank quantile of ascending `sorted` (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The samples of one class in a run.
#[derive(Debug, Clone)]
pub struct ClassStats {
    pub class: Class,
    pub count: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// (path, samples, median ms) — or, for a share only the service's
    /// counters know (render cache hits), a median of NaN.
    pub paths: Vec<(String, usize, f64)>,
}

impl ClassStats {
    fn share(&self, n: usize) -> f64 {
        100.0 * n as f64 / self.count.max(1) as f64
    }

    /// Percentiles this run reports for the class.
    pub fn reported(&self) -> Vec<f64> {
        match self.class {
            Class::Query | Class::Drag | Class::Frame => vec![50.0, 90.0],
            Class::Append => vec![50.0],
            Class::State => vec![],
        }
    }

    /// The rank (in percent) where the samples switch path: the smaller
    /// path's share when it is the faster one, 100 minus it otherwise.
    /// `None` for a single-path class.
    pub fn boundary(&self) -> Option<f64> {
        let present: Vec<_> = self.paths.iter().filter(|p| p.1 > 0).collect();
        if present.len() < 2 {
            return None;
        }
        let small = present.iter().min_by_key(|p| p.1).expect("two paths");
        let big = present.iter().max_by_key(|p| p.1).expect("two paths");
        let s = self.share(small.1);
        // counter-only shares (render cache hits) are faster by nature
        let small_faster = if small.2.is_nan() || big.2.is_nan() {
            small.0 == "hit"
        } else {
            small.2 < big.2
        };
        Some(if small_faster { s } else { 100.0 - s })
    }

    /// Violations of the path-boundary rule and of the p90 sample floor.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let reported = self.reported();
        if reported.contains(&90.0) && self.count < P90_MIN {
            out.push(format!(
                "{}: p90 over {} samples (< {P90_MIN})",
                self.class.name(),
                self.count
            ));
        }
        if let Some(b) = self.boundary() {
            for p in reported {
                if (b - p).abs() < BOUNDARY_MARGIN {
                    out.push(format!(
                        "{}: p{p} within {BOUNDARY_MARGIN} points of the path boundary at {b:.1}",
                        self.class.name()
                    ));
                }
            }
        }
        out
    }
}

fn median_ms(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Statistics of every class present in `samples`.
pub fn class_stats(samples: &[Sample]) -> Vec<ClassStats> {
    Class::ALL
        .iter()
        .filter_map(|&class| {
            let mine: Vec<&Sample> = samples.iter().filter(|s| s.class == class).collect();
            if mine.is_empty() {
                return None;
            }
            let mut ms: Vec<f64> = mine.iter().map(|s| s.nanos as f64 / 1e6).collect();
            ms.sort_by(f64::total_cmp);
            let mut paths: Vec<Path> = mine.iter().map(|s| s.path).collect();
            paths.sort();
            paths.dedup();
            let paths = paths
                .into_iter()
                .map(|p| {
                    let mut v: Vec<f64> = mine
                        .iter()
                        .filter(|s| s.path == p)
                        .map(|s| s.nanos as f64 / 1e6)
                        .collect();
                    (p.name().to_string(), v.len(), median_ms(&mut v))
                })
                .collect();
            Some(ClassStats {
                class,
                count: ms.len(),
                p50_ms: quantile(&ms, 0.5),
                p90_ms: quantile(&ms, 0.9),
                paths,
            })
        })
        .collect()
}

/// Print one class's line: samples, percentiles and path shares.
pub fn print_class(s: &ClassStats) {
    let paths: Vec<String> = s
        .paths
        .iter()
        .map(|(name, n, med)| {
            let share = s.share(*n);
            if med.is_nan() {
                format!("{name} {share:.1}% ({n})")
            } else {
                format!("{name} {share:.1}% ({n}, median {med:.3} ms)")
            }
        })
        .collect();
    let boundary = s
        .boundary()
        .map(|b| format!(" | boundary at rank {b:.1}"))
        .unwrap_or_default();
    println!(
        "class {:<6} n={:<6} p50={:.3} ms p90={:.3} ms | paths: {}{}",
        s.class.name(),
        s.count,
        s.p50_ms,
        s.p90_ms,
        paths.join(", "),
        boundary
    );
}

/// A metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// The machine's (steal, total) CPU ticks from `/proc/stat`: time a
/// virtual machine's CPUs were ready but the host ran something else.
/// Printed with every run, so a run slowed from outside shows as such.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    fn stats(class: Class, paths: Vec<(&str, usize, f64)>) -> ClassStats {
        ClassStats {
            class,
            count: paths.iter().map(|p| p.1).sum(),
            p50_ms: 1.0,
            p90_ms: 2.0,
            paths: paths
                .into_iter()
                .map(|(n, c, m)| (n.into(), c, m))
                .collect(),
        }
    }

    #[test]
    fn boundary_rule() {
        // 30% fast hits: boundary at 30, clear of 50 and 90
        let s = stats(
            Class::Frame,
            vec![("hit", 300, f64::NAN), ("miss", 700, f64::NAN)],
        );
        assert_eq!(s.boundary(), Some(30.0));
        assert!(s.violations().is_empty());
        // 5% slow fallbacks: boundary at 95, within 10 of p90
        let s = stats(
            Class::Drag,
            vec![("incremental", 950, 1.0), ("fallback", 50, 9.0)],
        );
        assert_eq!(s.boundary(), Some(95.0));
        assert_eq!(s.violations().len(), 1);
        // 45% cached: boundary at 45, within 10 of p50
        let s = stats(
            Class::Query,
            vec![("cached", 450, 1.0), ("computed", 550, 5.0)],
        );
        assert_eq!(s.violations().len(), 1);
        // one path, too few samples for a p90
        let s = stats(Class::Query, vec![("computed", 150, 5.0)]);
        assert_eq!(s.boundary(), None);
        assert_eq!(s.violations().len(), 1);
        // appends report the median only
        let s = stats(
            Class::Append,
            vec![("compacted", 12, 9.0), ("migrated", 88, 2.0)],
        );
        assert!(s.violations().is_empty());
    }
}
