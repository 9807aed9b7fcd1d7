//! The timed replay: every client thread hands its script's lines to
//! `visdb_service::server::handle_line` and times each interaction from
//! its first request line until its last reply is encoded to bytes.

use std::time::{Duration, Instant};

use visdb_service::json::Json;
use visdb_service::server::handle_line;
use visdb_service::Service;

use crate::check::compact;
use crate::script::{Class, Step};

/// Which code path served an interaction, read off its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Path {
    /// The class has a single path.
    One,
    /// A query whose every predicate window came from a cache.
    Cached,
    /// A query that evaluated at least one predicate window.
    Computed,
    /// A drag served by the sorted-projection fast path.
    Fast,
    /// A drag that fell back to a full recompute.
    Fallback,
    /// An append that folded the delta chain into a new base.
    Compacted,
    /// An append that migrated the cached state.
    Migrated,
}

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::One => "one",
            Path::Cached => "cached",
            Path::Computed => "computed",
            Path::Fast => "incremental",
            Path::Fallback => "fallback",
            Path::Compacted => "compacted",
            Path::Migrated => "migrated",
        }
    }

    /// The path an interaction of `class` took, from its last reply.
    pub fn of(class: Class, reply: &Json) -> Path {
        let flag = |a: &str, b: &str| reply.get(a).and_then(|j| j.get(b)).cloned();
        match class {
            Class::Query => match reply
                .get("summary")
                .and_then(|s| s.get("trace"))
                .and_then(|t| t.get("windows_evaluated"))
                .and_then(Json::as_u64)
            {
                Some(0) => Path::Cached,
                _ => Path::Computed,
            },
            Class::Drag => match flag("drag", "incremental") {
                Some(Json::Bool(false)) => Path::Fallback,
                _ => Path::Fast,
            },
            Class::Append => match reply.get("compacted") {
                Some(Json::Bool(true)) => Path::Compacted,
                _ => Path::Migrated,
            },
            Class::Frame | Class::State => Path::One,
        }
    }
}

/// One timed interaction.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub nanos: u64,
    pub path: Path,
}

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub samples: Vec<Sample>,
    /// The (compacted) last reply of every step, for the answer checks.
    pub replies: Vec<Json>,
    /// Steps with a reply that was not `ok`.
    pub failed: Vec<usize>,
    pub bytes_out: u64,
}

/// Hand one interaction's lines to the wire; returns its last reply,
/// whether every reply was `ok`, and the bytes encoded.
pub fn interact(service: &Service, step: &Step) -> (Json, bool, u64) {
    let mut ok = true;
    let mut bytes = 0u64;
    let mut last = Json::Null;
    for line in &step.lines {
        let reply = handle_line(service, line);
        let encoded = reply.to_string();
        bytes += encoded.len() as u64 + 1;
        ok &= reply.get("ok") == Some(&Json::Bool(true));
        last = reply;
    }
    (last, ok, bytes)
}

/// Replay every client's script concurrently (closed loop: a client
/// sends its next interaction when the previous one has answered).
/// Returns the per-client results and the wall time of the whole
/// timed phase.
pub fn replay(service: &Service, scripts: &[Vec<Step>]) -> (Vec<ClientRun>, Duration) {
    let started = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    let mut run = ClientRun::default();
                    for (i, step) in script.iter().enumerate() {
                        let t0 = Instant::now();
                        let (reply, ok, bytes) = interact(service, step);
                        let nanos = t0.elapsed().as_nanos() as u64;
                        run.samples.push(Sample {
                            class: step.class,
                            nanos,
                            path: Path::of(step.class, &reply),
                        });
                        if !ok {
                            run.failed.push(i);
                        }
                        run.bytes_out += bytes;
                        run.replies.push(compact(reply));
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (runs, started.elapsed())
}
