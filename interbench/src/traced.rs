//! `--trace 1`: the same set-up and script, traced layer by layer.
//!
//! Spans are recorded from this file, around calls into each layer's
//! public functions, kept in memory and written out when the run ends
//! (`.bench_out/spans-<workload>-<seed>.tsv`: interaction, span, parent,
//! start and end in ns). Per interaction:
//!
//! * the **wire path** splits what `handle_line` does into its calls —
//!   `json::parse` + `Request::from_json` (`wire.parse`),
//!   `Service::submit_opts` (`service.submit`; `service.append` for
//!   appends), `Response::to_json` + the conversion to bytes
//!   (`wire.encode`). The interaction's wall time minus these spans is
//!   its `unattributed` time.
//! * the **core and render split** comes from a twin `Session` per
//!   service session, fed the same requests right after the
//!   interaction: `Session::recalculate` (with `materialize_base` and
//!   `arrange_overall` timed by separate calls on the same inputs, and
//!   the four pipeline phases from its `PipelineTrace` as children),
//!   `Session::drag_slider`, `render_session` and `write_ppm`. Twin
//!   sessions share their own window, projection and render caches of
//!   the service's default sizes; their eviction counts are reported.
//!
//! End-to-end numbers come only from untraced runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use visdb_core::{materialize_base, render_session, JoinOptions, RenderOptions, Session};
use visdb_index::{ProjectionSource, SortedProjection};
use visdb_query::ast::PredicateTarget;
use visdb_query::connection::ConnectionRegistry;
use visdb_relevance::{PredicateWindow, WindowRecipe, WindowSource};
use visdb_service::api::{render_key, RenderFormat, Request, Response, SessionState};
use visdb_service::json::{parse, Json};
use visdb_service::server::handle_line;
use visdb_service::service::{AppendOutcome, SubmitOptions};
use visdb_service::{
    ProjectionCache, QueryCache, Service, ServiceConfig, SessionId, Snapshot, WindowCache,
};
use visdb_storage::Database;
use visdb_types::Value;

use crate::check::compact;
use crate::replay::{ClientRun, Path, Sample};
use crate::report::{result_line, Metric};
use crate::script::{Class, Wire};
use crate::workloads::{self, Loaded, Stood, Workload};
use crate::Args;

// ---- spans -------------------------------------------------------------

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub interaction: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// A client thread's span recorder; every thread shares one epoch.
struct Tracer {
    epoch: Instant,
    interaction: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.add(name, parent, start, 0)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// A span of a duration measured elsewhere, placed at `start`.
    fn add(&mut self, name: &'static str, parent: Option<usize>, start: u64, dur: u64) -> usize {
        self.spans.push(Span {
            interaction: self.interaction,
            name,
            start,
            end: start + dur,
            parent,
        });
        self.spans.len() - 1
    }

    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// `f`'s duration in ns, without recording a span.
    fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.now();
        let out = f();
        (out, self.now() - t0)
    }
}

// ---- twin caches with eviction counts ----------------------------------

/// Counts evictions of a cache as the entries a store displaced.
#[derive(Default)]
struct Evictions {
    count: Mutex<u64>,
}

impl Evictions {
    /// Run a store under the lock (so concurrent stores cannot blur the
    /// before/after sizes) and count the entries it displaced.
    fn store(&self, existed: bool, len: impl Fn() -> usize, store: impl FnOnce()) {
        let mut count = self.count.lock().expect("eviction counter poisoned");
        let before = len();
        store();
        let after = len();
        *count += (before + usize::from(!existed)).saturating_sub(after) as u64;
    }

    fn get(&self) -> u64 {
        *self.count.lock().expect("eviction counter poisoned")
    }
}

struct TwinWindows {
    inner: WindowCache,
    evictions: Evictions,
}

impl WindowSource for TwinWindows {
    fn lookup(&self, key: &str) -> Option<PredicateWindow> {
        self.inner.lookup(key)
    }

    fn store(&self, key: String, window: PredicateWindow, recipe: Option<WindowRecipe>) {
        let existed = self.inner.lookup(&key).is_some();
        self.evictions.store(
            existed,
            || self.inner.len(),
            || self.inner.store(key, window, recipe),
        );
    }
}

struct TwinProjections {
    inner: ProjectionCache,
    evictions: Evictions,
}

impl ProjectionSource for TwinProjections {
    fn lookup(&self, key: &str) -> Option<Arc<SortedProjection>> {
        self.inner.lookup(key)
    }

    fn store(&self, key: String, projection: Arc<SortedProjection>) {
        let existed = self.inner.lookup(&key).is_some();
        self.evictions.store(
            existed,
            || self.inner.len(),
            || self.inner.store(key, projection),
        );
    }
}

// ---- the twin ----------------------------------------------------------

struct TwinData {
    db: Arc<Database>,
    registry: ConnectionRegistry,
    appends: usize,
}

impl TwinData {
    fn scope(&self, name: &str) -> String {
        format!("{name}#{}", self.appends)
    }
}

struct TwinSession {
    state: SessionState,
    dataset: String,
}

/// Twin sessions mirroring the service's, over the same data.
struct Twin {
    datasets: Mutex<HashMap<String, TwinData>>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<TwinSession>>>>,
    windows: Arc<TwinWindows>,
    projections: Arc<TwinProjections>,
    renders: QueryCache,
    render_evictions: Evictions,
    frame_bytes: Mutex<(u64, u64)>,
}

impl Twin {
    fn new(loaded: &Loaded) -> Twin {
        let defaults = ServiceConfig::default();
        let datasets: HashMap<String, TwinData> = loaded
            .datasets
            .iter()
            .map(|d| {
                let data = TwinData {
                    db: Arc::clone(&d.db),
                    registry: d.registry.clone(),
                    appends: 0,
                };
                (d.name.clone(), data)
            })
            .collect();
        Twin {
            datasets: Mutex::new(datasets),
            sessions: Mutex::new(HashMap::new()),
            windows: Arc::new(TwinWindows {
                inner: WindowCache::new(defaults.window_cache_capacity),
                evictions: Evictions::default(),
            }),
            projections: Arc::new(TwinProjections {
                inner: ProjectionCache::new(defaults.projection_cache_capacity),
                evictions: Evictions::default(),
            }),
            renders: QueryCache::new(defaults.cache_capacity),
            render_evictions: Evictions::default(),
            frame_bytes: Mutex::new((0, 0)),
        }
    }

    fn create(&self, id: u64, dataset: &str) {
        let datasets = self.datasets.lock().expect("twin datasets poisoned");
        let d = &datasets[dataset];
        let scope = d.scope(dataset);
        let mut session = Session::new(Arc::clone(&d.db), d.registry.clone());
        // the service's session options
        session.set_auto_recalculate(false);
        session.set_collect_trace(true);
        session.set_shared_windows(
            scope.clone(),
            Arc::clone(&self.windows) as Arc<dyn WindowSource>,
        );
        session.set_shared_projections(
            scope.clone(),
            Arc::clone(&self.projections) as Arc<dyn ProjectionSource>,
        );
        let twin = TwinSession {
            state: SessionState {
                session,
                dataset: scope,
            },
            dataset: dataset.to_string(),
        };
        self.sessions
            .lock()
            .expect("twin sessions poisoned")
            .insert(id, Arc::new(Mutex::new(twin)));
    }

    fn session(&self, id: u64) -> Arc<Mutex<TwinSession>> {
        Arc::clone(&self.sessions.lock().expect("twin sessions poisoned")[&id])
    }

    /// Recalculate with the split: base materialization and overall
    /// arrangement timed by separate calls on the same inputs, the
    /// pipeline phases from the session's trace.
    fn recalculate(&self, tr: &mut Tracer, parent: usize, session: &mut Session) {
        let query = session.query().cloned().expect("query installed");
        let (_, base_ns) =
            tr.measure(|| materialize_base(session.db(), &query, &JoinOptions::default()));
        let id = tr.open("session.recalculate", Some(parent));
        session.recalculate().expect("twin recalculation");
        tr.close(id);
        let mut at = tr.spans[id].start;
        tr.add("joins.materialize_base", Some(id), at, base_ns);
        at += base_ns;
        self.phases(tr, id, session, &mut at);
        let (w, h) = session.window_size();
        let displayed = &session
            .cached_result()
            .expect("just recalculated")
            .pipeline
            .displayed;
        let (_, arrange_ns) = tr.measure(|| visdb_arrange::arrange_overall(displayed, w, h));
        tr.add("arrange.overall", Some(id), at, arrange_ns);
    }

    fn phases(&self, tr: &mut Tracer, parent: usize, session: &Session, at: &mut u64) {
        if let Some(t) = session.last_trace() {
            for (name, d) in [
                ("pipeline.distance", t.phases.distance),
                ("pipeline.fit", t.phases.fit),
                ("pipeline.normalize_combine", t.phases.normalize_combine),
                ("pipeline.rank", t.phases.rank),
            ] {
                let dur = d.as_nanos() as u64;
                tr.add(name, Some(parent), *at, dur);
                *at += dur;
            }
        }
    }

    /// Apply one request to its twin session.
    fn apply(&self, tr: &mut Tracer, root: usize, id: u64, request: &Request) {
        let twin = self.session(id);
        let mut guard = twin.lock().expect("twin session poisoned");
        let state = &mut guard.state;
        match request {
            Request::SetQueryText(text) => tr.time("session.set_query", Some(root), || {
                state.session.set_query_text(text).expect("twin query")
            }),
            Request::SetWeight { window, weight } => {
                tr.time("session.set_weight", Some(root), || {
                    state
                        .session
                        .set_weight(*window, *weight)
                        .expect("twin weight")
                })
            }
            Request::SetDisplayPolicy(p) => state
                .session
                .set_display_policy(p.clone())
                .expect("twin policy"),
            Request::SetWindowSize { w, h } => {
                state.session.set_window_size(*w, *h).expect("twin size")
            }
            Request::Summary { .. } => {
                if state.session.cached_result().is_none() {
                    self.recalculate(tr, root, &mut state.session);
                }
            }
            Request::DragSlider {
                window, op, value, ..
            } => {
                let target = PredicateTarget::Compare {
                    op: *op,
                    value: Value::Float(*value),
                };
                let sid = tr.open("session.drag_slider", Some(root));
                let drag = state
                    .session
                    .drag_slider(*window, target)
                    .expect("twin drag");
                tr.close(sid);
                if !drag.incremental {
                    let mut at = tr.spans[sid].start;
                    self.phases(tr, sid, &state.session, &mut at);
                }
            }
            Request::Render(_) => {
                let key = render_key(state, RenderFormat::Ppm);
                if tr
                    .time("cache.query.lookup", Some(root), || self.renders.get(&key))
                    .is_some()
                {
                    return;
                }
                if state.session.cached_result().is_none() {
                    self.recalculate(tr, root, &mut state.session);
                }
                let fb = tr.time("render.framebuffer", Some(root), || {
                    render_session(&mut state.session, &RenderOptions::default())
                        .expect("twin render")
                });
                let mut out = Vec::new();
                tr.time("render.ppm", Some(root), || {
                    visdb_render::write_ppm(&fb, &mut out).expect("ppm")
                });
                {
                    let mut fbytes = self.frame_bytes.lock().expect("frame bytes poisoned");
                    fbytes.0 += out.len() as u64;
                    fbytes.1 += 1;
                }
                let frame = Response::Frame {
                    format: RenderFormat::Ppm,
                    width: fb.width(),
                    height: fb.height(),
                    bytes: Arc::new(out),
                };
                self.render_evictions.store(
                    false,
                    || self.renders.len(),
                    || self.renders.put(key, frame),
                );
            }
            Request::Ping | Request::MoveSlider { .. } | Request::Metrics => {}
        }
    }

    /// The twin of an append: parse the CSV against the table's schema,
    /// append a copy, and rebase the dataset's twin sessions.
    fn append(&self, tr: &mut Tracer, root: usize, dataset: &str, csv: &str) {
        let mut datasets = self.datasets.lock().expect("twin datasets poisoned");
        let d = datasets.get_mut(dataset).expect("twin dataset");
        let name = d.db.table_names()[0].to_string();
        let table = d.db.table(&name).expect("twin table");
        let parsed = tr.time("storage.csv_parse", Some(root), || {
            visdb_storage::csv::read_csv(&name, table.schema().clone(), csv.as_bytes())
                .expect("csv")
        });
        let mut grown = table.clone();
        grown
            .append_rows(
                (0..parsed.len())
                    .map(|i| parsed.row(i).expect("row"))
                    .collect(),
            )
            .expect("append");
        let mut db = Database::new(d.db.name());
        db.add_table(grown);
        d.db = Arc::new(db);
        d.appends += 1;
        let scope = d.scope(dataset);
        self.windows.inner.invalidate_dataset(dataset);
        self.projections.inner.invalidate_dataset(dataset);
        self.renders.invalidate_dataset(dataset);
        for twin in self
            .sessions
            .lock()
            .expect("twin sessions poisoned")
            .values()
        {
            let mut t = twin.lock().expect("twin session poisoned");
            if t.dataset == dataset {
                t.state.dataset.clone_from(&scope);
                t.state.session.rebase(Arc::clone(&d.db), scope.clone());
            }
        }
    }
}

// ---- the traced wire path ----------------------------------------------

fn append_reply(o: &AppendOutcome) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("dataset", o.dataset.as_str().into()),
        ("table", o.table.as_str().into()),
        ("rows_appended", o.rows_appended.into()),
        ("total_rows", o.total_rows.into()),
        ("base_gen", o.base_gen.into()),
        ("chain_len", o.chain_len.into()),
        ("compacted", Json::Bool(o.compacted)),
        ("windows_extended", o.windows_extended.into()),
        ("windows_declined", o.windows_declined.into()),
        ("projections_merged", o.projections_merged.into()),
        ("bands_repaired", o.bands_repaired.into()),
        ("bands_dropped", o.bands_dropped.into()),
    ])
}

fn error_reply(e: &visdb_types::Error) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", e.to_string().into())])
}

/// What the service handed back, before encoding.
enum Answer {
    Response(Result<Response, visdb_types::Error>),
    Append(Result<AppendOutcome, visdb_types::Error>),
    Json(Json),
}

type TwinWork<'a> = Box<dyn FnOnce(&mut Tracer, usize) + 'a>;

/// One line through the split wire path. Returns the reply, the bytes
/// it encoded to, and the twin's share of the work, which the caller
/// runs once the interaction's wall time is taken.
fn traced_line<'a>(
    service: &Service,
    twin: &'a Twin,
    tr: &mut Tracer,
    root: usize,
    line: &str,
) -> (Json, u64, Option<TwinWork<'a>>) {
    let parse_id = tr.open("wire.parse", Some(root));
    let msg = parse(line).expect("script lines are valid JSON");
    let op = msg
        .get("op")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let session = msg.get("session").and_then(Json::as_u64);
    let (answer, twin_work): (Answer, Option<TwinWork>) = match (op.as_str(), session) {
        ("append_csv", _) => {
            tr.close(parse_id);
            let dataset = msg
                .get("dataset")
                .and_then(Json::as_str)
                .expect("dataset")
                .to_string();
            let csv = msg
                .get("csv")
                .and_then(Json::as_str)
                .expect("csv")
                .to_string();
            let outcome = tr.time("service.append", Some(root), || {
                service.append_csv(&dataset, None, &csv)
            });
            let work: TwinWork = Box::new(move |tr, r| twin.append(tr, r, &dataset, &csv));
            (Answer::Append(outcome), Some(work))
        }
        (_, Some(sid)) => {
            let request = Request::from_json(&msg).expect("script requests decode");
            tr.close(parse_id);
            let opts = SubmitOptions {
                deadline: None,
                request_id: msg.get("id").and_then(Json::as_u64),
            };
            let response = tr.time("service.submit", Some(root), || {
                service.submit_opts(SessionId(sid), request.clone(), opts)
            });
            let work: TwinWork = Box::new(move |tr, r| twin.apply(tr, r, sid, &request));
            (Answer::Response(response), Some(work))
        }
        _ => {
            // service-level set-up ops (create_session) go through the
            // wire entry point whole
            tr.close(parse_id);
            let reply = tr.time("service.submit", Some(root), || handle_line(service, line));
            if let (Some(sid), Some(dataset)) = (
                reply.get("session").and_then(Json::as_u64),
                msg.get("dataset").and_then(Json::as_str),
            ) {
                twin.create(sid, dataset);
            }
            (Answer::Json(reply), None)
        }
    };
    let encode = tr.open("wire.encode", Some(root));
    let mut reply = match answer {
        Answer::Response(Ok(r)) => r.to_json(),
        Answer::Append(Ok(o)) => append_reply(&o),
        Answer::Response(Err(e)) | Answer::Append(Err(e)) => error_reply(&e),
        Answer::Json(j) => j,
    };
    if let (Some(id), Json::Obj(map)) = (msg.get("id").cloned(), &mut reply) {
        map.insert("id".into(), id);
    }
    let bytes = reply.to_string().len() as u64 + 1;
    tr.close(encode);
    (reply, bytes, twin_work)
}

/// Feed the twin its share of an interaction, under a `twin` root span
/// outside the interaction's wall time.
fn run_twin(tr: &mut Tracer, works: Vec<TwinWork>) {
    if works.is_empty() {
        return;
    }
    let root = tr.open("twin", None);
    for work in works {
        work(tr, root);
    }
    tr.close(root);
}

// ---- the traced run ----------------------------------------------------

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn hist_sum_count(s: &Snapshot, name: &str) -> (u64, u64) {
    s.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
}

/// Session ops whose execution the service times itself.
const SESSION_OPS: [&str; 7] = [
    "set_query",
    "set_policy",
    "set_weight",
    "drag_slider",
    "set_window_size",
    "summary",
    "render",
];

pub fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let epoch = Instant::now();
    let loaded = workloads::load(w, args.seed, args.seconds);
    let twin = Twin::new(&loaded);
    let mut wire = Wire::default();
    let mut setup_tracer = Tracer {
        epoch,
        interaction: 0,
        spans: Vec::new(),
    };
    let service = &loaded.service;
    let sessions = workloads::setup_lines(w, &mut wire, &mut |line| {
        let root = setup_tracer.open("setup", None);
        let (reply, _, work) = traced_line(service, &twin, &mut setup_tracer, root, line);
        setup_tracer.close(root);
        run_twin(&mut setup_tracer, work.into_iter().collect());
        reply
    });
    let stood = Stood { loaded, sessions };
    let truth = workloads::truth(w, &stood.loaded);
    let scripts = workloads::scripts(w, &stood, &mut wire, args.seed, args.seconds);
    let service = &stood.loaded.service;

    let before = service.registry().snapshot();
    let twin_ref = &twin;
    let results: Vec<(ClientRun, Tracer, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                scope.spawn(move || {
                    let mut tr = Tracer {
                        epoch,
                        interaction: 0,
                        spans: Vec::new(),
                    };
                    let mut run = ClientRun::default();
                    let mut bytes_total = 0;
                    for (i, step) in script.iter().enumerate() {
                        tr.interaction = ((c as u64) << 32) | (i as u64 + 1);
                        let root = tr.open(step.class.name(), None);
                        let mut last = Json::Null;
                        let mut ok = true;
                        let mut works = Vec::new();
                        for line in &step.lines {
                            let (reply, bytes, work) =
                                traced_line(service, twin_ref, &mut tr, root, line);
                            bytes_total += bytes;
                            ok &= reply.get("ok") == Some(&Json::Bool(true));
                            last = reply;
                            works.extend(work);
                        }
                        tr.close(root);
                        run_twin(&mut tr, works);
                        run.samples.push(Sample {
                            class: step.class,
                            nanos: tr.spans[root].end - tr.spans[root].start,
                            path: Path::of(step.class, &last),
                        });
                        if !ok {
                            run.failed.push(i);
                        }
                        run.replies.push(compact(last));
                    }
                    (run, tr, bytes_total)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client panicked"))
            .collect()
    });
    let after = service.registry().snapshot();

    let mut runs = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut bytes_out = 0;
    for (run, tr, bytes) in results {
        runs.push(run);
        let offset = spans.len();
        spans.extend(tr.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        bytes_out += bytes;
    }
    let attempted: usize = scripts.iter().map(Vec::len).sum();
    let failed: usize = runs.iter().map(|r| r.failed.len()).sum();
    let mismatches = crate::verify(&truth, &scripts, &runs);

    let metrics = layer_metrics(w, &stood, &runs, &spans, &twin, &before, &after, bytes_out);
    write_spans(w, args.seed, &spans);
    for m in &metrics {
        println!("layer {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(mismatches == 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn write_spans(w: Workload, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_out");
    let mut text = String::from("interaction\tspan\tid\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{i}\t{parent}\t{}\t{}",
            s.interaction, s.name, s.start, s.end
        );
    }
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

/// Mean duration of the script's spans named `name` (set-up excluded).
fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == name && s.interaction != 0)
        .fold((0u64, 0u64), |(a, n), s| (a + (s.end - s.start), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The sorted projection a drag run builds, over each column the
/// workload drags (crowd: the window-0 columns), at the final size.
fn projection_build_ns(stood: &Stood, w: Workload) -> f64 {
    let cols: Vec<(usize, &str, &str)> = match w {
        Workload::Explore => vec![(0, "Air-Pollution", "Ozone")],
        Workload::Ingest => vec![(0, "Air-Pollution", "Ozone"), (0, "Air-Pollution", "NO2")],
        Workload::Crowd => vec![
            (0, "Air-Pollution", "Ozone"),
            (1, "Parts", "p00"),
            (2, "CustomersA", "Balance"),
        ],
    };
    let mut total = 0.0;
    for (ds, table, col) in &cols {
        let t = stood.loaded.datasets[*ds].db.table(table).expect("table");
        let c = t.column_by_name(col).expect("column");
        let t0 = Instant::now();
        std::hint::black_box(SortedProjection::build(t.len(), |i| c.get_f64(i)));
        total += t0.elapsed().as_nanos() as f64;
    }
    total / cols.len() as f64
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: Workload,
    stood: &Stood,
    runs: &[ClientRun],
    spans: &[Span],
    twin: &Twin,
    before: &Snapshot,
    after: &Snapshot,
    bytes_out: u64,
) -> Vec<Metric> {
    let delta = |name: &str| counter(after, name) - counter(before, name);
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let replies = spans
        .iter()
        .filter(|s| s.name == "wire.encode" && s.interaction != 0)
        .count()
        .max(1);

    // service: execute time as the service records it, wait = the rest
    let (mut exec_ns, mut exec_n) = (0u64, 0u64);
    for op in SESSION_OPS {
        let name = format!("service.latency_ns.{op}");
        let (s1, c1) = hist_sum_count(after, &name);
        let (s0, c0) = hist_sum_count(before, &name);
        exec_ns += s1 - s0;
        exec_n += c1 - c0;
    }
    let submits: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "service.submit" && s.interaction != 0)
        .collect();
    let submit_ns: u64 = submits.iter().map(|s| s.end - s.start).sum();
    let wait_us = (submit_ns as f64 - exec_ns as f64) / submits.len().max(1) as f64 / 1e3;

    // pipeline phases and counts from the summary replies' traces
    let traces: Vec<&Json> = runs
        .iter()
        .flat_map(|r| &r.replies)
        .filter_map(|j| j.get("summary")?.get("trace"))
        .collect();
    let tsum = |k: &str| -> f64 {
        traces
            .iter()
            .filter_map(|t| t.get(k).and_then(Json::as_f64))
            .sum()
    };
    let per_trace = traces.len().max(1) as f64;

    // drags on the fast path, from the service's replies
    let drags: Vec<&Sample> = runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.class == Class::Drag)
        .collect();
    let fast = drags.iter().filter(|s| s.path == Path::Fast).count();

    // closure: each interaction's wall time minus its wire-path spans
    let mut roots: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        if s.interaction == 0 {
            continue;
        }
        if s.parent.is_none() && s.name != "twin" {
            roots.entry(s.interaction).or_default().0 += s.end - s.start;
        } else if s
            .parent
            .is_some_and(|p| spans[p].parent.is_none() && spans[p].name != "twin")
        {
            roots.entry(s.interaction).or_default().1 += s.end - s.start;
        }
    }
    let unattributed_ms = roots
        .values()
        .map(|(wall, covered)| wall.saturating_sub(*covered) as f64 / 1e6)
        .sum::<f64>()
        / roots.len().max(1) as f64;

    let (fb_bytes, fb_n) = *twin.frame_bytes.lock().expect("frame bytes poisoned");
    vec![
        m("wire.parse_us", mean_ns(spans, "wire.parse") / 1e3, "us"),
        m("wire.encode_us", mean_ns(spans, "wire.encode") / 1e3, "us"),
        m("wire.bytes_out", bytes_out as f64 / replies as f64, "B"),
        m("service.wait_us", wait_us, "us"),
        m(
            "service.execute_ms",
            exec_ns as f64 / exec_n.max(1) as f64 / 1e6,
            "ms",
        ),
        m("exec.jobs", delta("exec.jobs_executed") as f64, "count"),
        m(
            "exec.tasks_stolen",
            delta("exec.tasks_stolen") as f64,
            "count",
        ),
        m(
            "exec.peak_active",
            after.gauge("exec.peak_active").unwrap_or(0) as f64,
            "count",
        ),
        m(
            "cache.query.hit_ratio",
            ratio(delta("cache.query.hits"), delta("cache.query.misses")),
            "ratio",
        ),
        m(
            "cache.window.hit_ratio",
            ratio(delta("cache.window.hits"), delta("cache.window.misses")),
            "ratio",
        ),
        m(
            "cache.projection.hit_ratio",
            ratio(
                delta("cache.projection.hits"),
                delta("cache.projection.misses"),
            ),
            "ratio",
        ),
        m(
            "cache.query.evictions",
            twin.render_evictions.get() as f64,
            "count",
        ),
        m(
            "cache.window.evictions",
            twin.windows.evictions.get() as f64,
            "count",
        ),
        m(
            "cache.projection.evictions",
            twin.projections.evictions.get() as f64,
            "count",
        ),
        m(
            "session.recalculate_ms",
            mean_ns(spans, "session.recalculate") / 1e6,
            "ms",
        ),
        m(
            "joins.materialize_base_ms",
            mean_ns(spans, "joins.materialize_base") / 1e6,
            "ms",
        ),
        m(
            "drag.fast_path_ratio",
            fast as f64 / drags.len().max(1) as f64,
            "ratio",
        ),
        m(
            "index.projection_build_ms",
            projection_build_ns(stood, w) / 1e6,
            "ms",
        ),
        m(
            "pipeline.distance_ms",
            tsum("distance_ns") / per_trace / 1e6,
            "ms",
        ),
        m("pipeline.fit_ms", tsum("fit_ns") / per_trace / 1e6, "ms"),
        m(
            "pipeline.normalize_combine_ms",
            tsum("normalize_combine_ns") / per_trace / 1e6,
            "ms",
        ),
        m("pipeline.rank_ms", tsum("rank_ns") / per_trace / 1e6, "ms"),
        m("pipeline.rows_scanned", tsum("rows_scanned"), "count"),
        m("pipeline.rows_pruned", tsum("rows_pruned"), "count"),
        m(
            "pipeline.windows_evaluated",
            tsum("windows_evaluated"),
            "count",
        ),
        m(
            "pipeline.window_hits",
            tsum("window_cache_hits") + tsum("shared_window_hits"),
            "count",
        ),
        m(
            "arrange.overall_us",
            mean_ns(spans, "arrange.overall") / 1e3,
            "us",
        ),
        m(
            "render.framebuffer_ms",
            mean_ns(spans, "render.framebuffer") / 1e6,
            "ms",
        ),
        m("render.ppm_ms", mean_ns(spans, "render.ppm") / 1e6, "ms"),
        m(
            "render.frame_bytes",
            fb_bytes as f64 / fb_n.max(1) as f64,
            "B",
        ),
        m(
            "storage.csv_parse_ms",
            mean_ns(spans, "storage.csv_parse") / 1e6,
            "ms",
        ),
        m(
            "delta.windows_extended",
            delta("delta.windows_extended") as f64,
            "count",
        ),
        m(
            "delta.windows_recomputed",
            delta("delta.windows_recomputed") as f64,
            "count",
        ),
        m(
            "delta.projections_merged",
            delta("delta.projections_merged") as f64,
            "count",
        ),
        m(
            "delta.bands_repaired",
            delta("delta.bands_repaired") as f64,
            "count",
        ),
        m(
            "delta.bands_dropped",
            delta("delta.bands_dropped") as f64,
            "count",
        ),
        m(
            "delta.compactions",
            delta("delta.compactions") as f64,
            "count",
        ),
        m("unattributed_ms", unattributed_ms, "ms"),
    ]
}
