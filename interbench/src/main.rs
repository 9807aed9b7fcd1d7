//! `interbench` — the interaction benchmark.
//!
//! ```text
//! interbench --workload <explore|crowd|ingest> --seed <n> --seconds <s> --trace <0|1>
//! interbench steady --workload <w> [--runs 5] [--seed 1] [--seconds <s>]
//! ```
//!
//! A run generates its data with `visdb-data` from the seed, stands up
//! an in-process `visdb_service::Service`, and replays a fixed, seeded
//! script of wire lines through `visdb_service::server::handle_line`.
//! `--seconds` sizes the script (the work is fixed by it, not by a
//! clock). With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` the same script runs traced and the line
//! carries the per-layer metrics. See `README.md`.

mod check;
mod replay;
mod report;
mod script;
mod steady;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use visdb_query::connection::ConnectionRegistry;
use visdb_service::json::Json;
use visdb_service::server::handle_line;
use visdb_service::{Service, ServiceConfig};

use crate::check::{check_reply, Truth};
use crate::replay::{replay, ClientRun};
use crate::report::{class_stats, peak_rss_mb, print_class, result_line, ClassStats, Metric};
use crate::script::{Class, Step, Wire};
use crate::workloads::{Stood, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line of a run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |name: &str, default: Option<u64>| -> Result<u64, String> {
        match flag(args, name) {
            Some(v) => v.parse().map_err(|_| format!("{name} needs a number")),
            None => default.ok_or(format!("missing {name}")),
        }
    };
    Ok(Args {
        workload,
        seed: num("--seed", None)?,
        seconds: num("--seconds", None)?,
        trace: num("--trace", Some(0))? == 1,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("interbench: {e}");
            return ExitCode::from(2);
        }
    };
    if parsed.trace {
        traced::run(&parsed)
    } else {
        run(&parsed)
    }
}

/// Stand the system up: generate and register the data, then replay the
/// set-up lines (sessions, display settings, warm-up).
pub fn stand_up(args: &Args, wire: &mut Wire) -> Stood {
    let loaded = workloads::load(args.workload, args.seed, args.seconds);
    let service = &loaded.service;
    let sessions =
        workloads::setup_lines(args.workload, wire, &mut |line| handle_line(service, line));
    Stood { loaded, sessions }
}

/// Check every reply of the run against the independent computations;
/// returns the number of mismatches (each is printed).
pub fn verify(truth: &Truth, scripts: &[Vec<Step>], runs: &[ClientRun]) -> usize {
    let mut bad = 0;
    for (script, run) in scripts.iter().zip(runs) {
        for (i, (step, reply)) in script.iter().zip(&run.replies).enumerate() {
            if run.failed.contains(&i) {
                continue;
            }
            if let Err(e) = check_reply(truth, &step.expect, reply) {
                bad += 1;
                if bad <= 10 {
                    println!("check failed: {} step {i}: {e}", step.class.name());
                }
            }
        }
    }
    bad
}

/// ingest: build a service from scratch over the final rows, rebuild
/// every session's final state there, and require its summaries and
/// frames to equal the live service's byte for byte.
fn append_equals_rebuild(args: &Args, stood: &Stood, script: &[Step]) -> bool {
    let loaded = &stood.loaded;
    let live = &loaded.service;
    let table = loaded.datasets[0].db.table("Air-Pollution").expect("table");
    let mut rows = table.clone();
    rows.append_rows(
        (0..loaded.held.rows.len())
            .map(|i| loaded.held.rows.row(i).expect("held-back row"))
            .collect(),
    )
    .expect("held-back rows fit the schema");
    let mut db = visdb_storage::Database::new("env");
    db.add_table(rows);
    let fresh = Service::new(ServiceConfig {
        workers: workloads::workers(),
        ..Default::default()
    });
    fresh.register_dataset("env", std::sync::Arc::new(db), ConnectionRegistry::new());
    let mut wire = Wire::default();
    let fresh_sessions = workloads::setup_lines(args.workload, &mut wire, &mut |line| {
        handle_line(&fresh, line)
    });
    let mut ok = true;
    for (k, (session, lines)) in workloads::final_state_lines(script).into_iter().enumerate() {
        let target = fresh_sessions[k];
        for line in &lines {
            let mut msg = visdb_service::json::parse(line).expect("script line parses");
            if let Json::Obj(map) = &mut msg {
                map.insert("session".into(), Json::Num(target as f64));
            }
            handle_line(&fresh, &msg.to_string());
        }
        for (op, body) in [
            ("summary", r#""op":"summary""#),
            ("render", r#""op":"render","format":"ppm""#),
        ] {
            let ask = |s: &Service, id: u64| {
                handle_line(s, &format!(r#"{{"id":1,"session":{id},{body}}}"#)).to_string()
            };
            let (a, b) = (ask(live, session), ask(&fresh, target));
            if a != b {
                ok = false;
                println!("append != rebuild: session {session} {op} differs");
            }
        }
    }
    ok
}

/// crowd: per class, the median and share of each dataset's samples,
/// so a percentile that sits where one dataset's samples give way to
/// another's shows.
fn print_mix(stood: &Stood, scripts: &[Vec<Step>], runs: &[ClientRun]) {
    let names = ["ozone", "cad", "multidb"];
    let dataset_of = |step: &Step| {
        let msg = visdb_service::json::parse(&step.lines[0]).ok()?;
        let session = msg.get("session").and_then(Json::as_u64)?;
        let k = stood.sessions.iter().position(|&s| s == session)?;
        Some(names[k % 3])
    };
    let tagged: Vec<(Option<&str>, &replay::Sample)> = scripts
        .iter()
        .zip(runs)
        .flat_map(|(sc, r)| sc.iter().zip(&r.samples))
        .map(|(st, sa)| (dataset_of(st), sa))
        .collect();
    for class in [Class::Query, Class::Frame, Class::Drag] {
        let mut parts = Vec::new();
        for name in names {
            for path in [None, Some(true), Some(false)] {
                let mut v: Vec<f64> = tagged
                    .iter()
                    .filter(|(d, sa)| {
                        sa.class == class
                            && *d == Some(name)
                            && path.is_none_or(|c| (sa.path == replay::Path::Cached) == c)
                    })
                    .map(|(_, sa)| sa.nanos as f64 / 1e6)
                    .collect();
                if v.is_empty() || (class != Class::Query && path.is_some()) {
                    continue;
                }
                v.sort_by(f64::total_cmp);
                let tag = match path {
                    None => name.to_string(),
                    Some(true) => format!("{name}/cached"),
                    Some(false) => format!("{name}/computed"),
                };
                parts.push(format!(
                    "{tag} {} median {:.3}",
                    v.len(),
                    report::quantile(&v, 0.5)
                ));
            }
        }
        println!("mix {:<6} {}", class.name(), parts.join(", "));
    }
}

/// An untraced run: the end-to-end metrics.
fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut setup_times = Vec::new();
    let mut stood: Option<Stood> = None;
    let mut wire = Wire::default();
    for _ in 0..SETUPS {
        // drop the previous system before building the next one
        drop(stood.take());
        wire = Wire::default();
        let t0 = Instant::now();
        stood = Some(stand_up(args, &mut wire));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let stood = stood.expect("set up at least once");
    let truth = workloads::truth(w, &stood.loaded);
    let scripts = workloads::scripts(w, &stood, &mut wire, args.seed, args.seconds);
    let service = &stood.loaded.service;

    let before = service.telemetry();
    let ticks0 = report::cpu_ticks();
    let (runs, wall) = replay(service, &scripts);
    let ticks1 = report::cpu_ticks();
    let after = service.telemetry();

    let samples: Vec<_> = runs
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let mut stats = class_stats(&samples);
    // every render consults the query-result cache exactly once, so the
    // counters' deltas are the frame class's hit/miss split
    let hits = after.query_cache.hits - before.query_cache.hits;
    let misses = after.query_cache.misses - before.query_cache.misses;
    if let Some(frame) = stats.iter_mut().find(|s| s.class == Class::Frame) {
        frame.paths = vec![
            ("hit".into(), hits, f64::NAN),
            ("miss".into(), misses, f64::NAN),
        ];
    }

    let attempted: usize = scripts.iter().map(Vec::len).sum();
    let failed: usize = runs.iter().map(|r| r.failed.len()).sum();
    let mismatches = verify(&truth, &scripts, &runs);
    let rebuild_ok = w != Workload::Ingest || append_equals_rebuild(args, &stood, &scripts[0]);

    println!(
        "workload {} seed {} seconds {}: {} interactions over {} client(s) in {:.3} s, {} service workers",
        w.name(),
        args.seed,
        args.seconds,
        attempted,
        scripts.len(),
        wall.as_secs_f64(),
        workloads::workers()
    );
    println!(
        "set-up times (s): {}; host steal during the timed phase: {:.1}% of CPU time",
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        100.0 * (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    );
    let mut violations = Vec::new();
    for s in &stats {
        print_class(s);
        violations.extend(s.violations());
    }
    for v in &violations {
        println!("path-boundary: {v}");
    }
    if w == Workload::Crowd {
        print_mix(&stood, &scripts, &runs);
    }
    println!(
        "checks: {} replies checked, {mismatches} mismatches, append==rebuild {rebuild_ok}",
        attempted - failed
    );

    let stat = |c: Class| stats.iter().find(|s| s.class == c);
    let ms = |c: Class, p90: bool| -> f64 {
        stat(c).map_or(
            f64::NAN,
            |s: &ClassStats| if p90 { s.p90_ms } else { s.p50_ms },
        )
    };
    let mut sorted_setup = setup_times.clone();
    sorted_setup.sort_by(f64::total_cmp);
    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let metrics = vec![
        metric("setup_s", report::quantile(&sorted_setup, 0.5), "s"),
        metric("query_ms", ms(Class::Query, false), "ms"),
        metric("query_p90_ms", ms(Class::Query, true), "ms"),
        metric("drag_ms", ms(Class::Drag, false), "ms"),
        metric("drag_p90_ms", ms(Class::Drag, true), "ms"),
        metric("frame_ms", ms(Class::Frame, false), "ms"),
        metric("frame_p90_ms", ms(Class::Frame, true), "ms"),
        metric("append_ms", ms(Class::Append, false), "ms"),
        metric(
            "interactions_per_s",
            attempted as f64 / wall.as_secs_f64(),
            "1/s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let correct = mismatches == 0 && rebuild_ok;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
