//! The three workloads: their data (from `visdb-data`, seeded), how the
//! service is stood up, and the seeded script each replays.
//!
//! * `explore` — one analyst session on a ~1M-row `Air-Pollution` table
//!   replays the §4.3 loop: a weighted two-predicate query, a run of
//!   fast-path slider drags on a single-predicate query, a re-weight
//!   every other round, and a frame after the state changes.
//! * `crowd` — 36 sessions over the three §4.5 case studies (ozone
//!   banded `IN` join, CAD `AROUND` similarity, multidb approximate
//!   string join), one closed-loop client, queries from a skewed pool
//!   with a fixed share of repeats and an unbounded tail of fresh ones.
//! * `ingest` — three live sessions on a ~200k-row `Air-Pollution` table
//!   that receives 1% `append_csv` batches, each followed by queries,
//!   drags and frames; compaction every 8 appends.
//!
//! `explore` and `crowd` also append small batches to a side `feed`
//! dataset that no session reads, so `append_ms` measures the append
//! path's fixed costs there and its delta maintenance on `ingest`.

use std::sync::Arc;

use visdb_data::{
    generate_cad, generate_environmental, generate_multidb, CadConfig, EnvConfig, MultiDbConfig,
};
use visdb_query::connection::ConnectionRegistry;
use visdb_service::json::Json;
use visdb_service::{Service, ServiceConfig};
use visdb_storage::{Database, Table};
use visdb_types::DataType;

use crate::check::{Col, Conj, Expect, Pred, Rows, Truth};
use crate::script::{unique, Class, Rng, Step, Wire};

/// Screen pixels of the `FitScreen` display policy every session uses.
pub const PIXELS: usize = 20_000;
/// Items per visualization window side.
pub const WINDOW: usize = 100;
/// Service thread budget (the reference machine has 2 cores).
pub const MAX_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Crowd,
    Ingest,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "explore" => Workload::Explore,
            "crowd" => Workload::Crowd,
            "ingest" => Workload::Ingest,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Crowd => "crowd",
            Workload::Ingest => "ingest",
        }
    }
}

/// The service thread budget: the machine's parallelism, at most
/// [`MAX_WORKERS`].
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

/// A dataset as registered with the service (`explore` and `crowd`
/// end their list with the side `feed`).
pub struct Dataset {
    pub name: String,
    pub db: Arc<Database>,
    pub registry: ConnectionRegistry,
}

/// Rows held back from a registered table, appended during the run.
pub struct Held {
    pub dataset: String,
    pub rows: Table,
    /// Rows the registered table starts with.
    pub start: usize,
}

impl Held {
    /// Headerless CSV of held-back rows `from..to`.
    fn csv(&self, from: usize, to: usize) -> String {
        let mut out = String::new();
        for i in from..to {
            let row = self.rows.row(i).expect("held-back row in range");
            let cells: Vec<String> = row
                .iter()
                .map(|v| visdb_storage::csv::format_cell(v).expect("generated cells format"))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// Data generated and registered: the first half of set-up.
pub struct Loaded {
    pub service: Service,
    pub datasets: Vec<Dataset>,
    pub held: Held,
    /// crowd: the CAD generator's cluster prototypes (query centers).
    pub prototypes: Vec<Vec<f64>>,
}

/// The stood-up system: what `setup_s` times.
pub struct Stood {
    pub loaded: Loaded,
    /// Session ids, in creation order.
    pub sessions: Vec<u64>,
}

fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed, salt).next_u64()
}

fn single(name: &str, table: Table) -> Arc<Database> {
    let mut db = Database::new(name);
    db.add_table(table);
    Arc::new(db)
}

fn prefix(table: &Table, from: usize, to: usize) -> Table {
    let idx: Vec<usize> = (from..to).collect();
    table.gather(table.name().to_string(), &idx)
}

// ---- sizes -------------------------------------------------------------

/// explore: hours per station (two stations: 1M `Air-Pollution` rows).
const EXPLORE_HOURS: usize = 500_000;
const EXPLORE_DRAGS: usize = 8;
/// feed rows registered before the run, and rows per feed append.
const FEED_START: usize = 2_000;
const FEED_BATCH: usize = 25;
/// crowd: sessions per dataset.
const CROWD_SESSIONS_PER_DATASET: usize = 12;
/// crowd: turns (mod 10) that repeat a recent state of the dataset
/// — query-cache and window-cache hits by construction, 40% of turns.
/// The share is fixed, not drawn, so every run splits each class at the
/// same ranks: cached queries fill ranks 0-40, then each dataset's
/// computed queries a band of 20, which puts p50 and p90 mid-band.
const CROWD_REPEAT_TURNS: [usize; 4] = [1, 3, 6, 8];
/// crowd: repeats draw from this many most recent states of a dataset.
const CROWD_HOT: usize = 12;
/// crowd: a feed append every this many turns.
const CROWD_APPEND_EVERY: usize = 6;
/// ingest: rows of the registered table and of each append (1%).
const INGEST_START: usize = 200_000;
const INGEST_DELTA: usize = 2_000;
const INGEST_DRAGS: usize = 6;

/// Rounds of explore / turns of crowd / appends of ingest for a run of
/// `seconds` on the reference 2-core machine (at 30 s: 200 explore
/// rounds, so every class with a p90 has at least 200 samples).
pub fn script_len(w: Workload, seconds: u64) -> usize {
    let s = seconds.max(1) as usize;
    match w {
        Workload::Explore => (20 * s).div_ceil(3),
        Workload::Crowd => 90 * s,
        Workload::Ingest => 3 * s,
    }
}

// ---- set-up ------------------------------------------------------------

/// Generate and register the data (set-up, first half).
pub fn load(w: Workload, seed: u64, seconds: u64) -> Loaded {
    let service = Service::new(ServiceConfig {
        workers: workers(),
        ..Default::default()
    });
    let len = script_len(w, seconds);
    let mut prototypes = Vec::new();
    let (datasets, held) = match w {
        Workload::Explore => {
            let env = generate_environmental(&EnvConfig {
                hours: EXPLORE_HOURS,
                stations: 2,
                seed: mix(seed, 1),
                ..Default::default()
            });
            let mut db = env.db;
            let pollution = db.drop_table("Air-Pollution").expect("generated table");
            let weather = db.drop_table("Weather").expect("generated table");
            let feed_rows = FEED_START + len * FEED_BATCH;
            let datasets = vec![Dataset {
                name: "env".into(),
                db: single("env", pollution),
                registry: ConnectionRegistry::new(),
            }];
            (datasets, feed(&weather, feed_rows))
        }
        Workload::Crowd => {
            let ozone = generate_environmental(&EnvConfig {
                hours: 8_000,
                stations: 2,
                seed: mix(seed, 2),
                pollution_clock_offset: 0,
                ..Default::default()
            });
            let cad = generate_cad(&CadConfig {
                clusters: 8,
                parts_per_cluster: 500,
                near_misses_per_cluster: 2,
                random_parts: 8_000,
                seed: mix(seed, 3),
                ..Default::default()
            });
            let multidb = generate_multidb(&MultiDbConfig {
                customers: 120,
                unmatched_per_side: 30,
                typos: 1,
                seed: mix(seed, 4),
            });
            prototypes = cad.prototypes.clone();
            let weather = ozone.db.table("Weather").expect("generated table").clone();
            let feed_rows = FEED_START + len.div_ceil(CROWD_APPEND_EVERY) * FEED_BATCH;
            let datasets = vec![
                Dataset {
                    name: "ozone".into(),
                    db: Arc::new(ozone.db),
                    registry: ozone.registry,
                },
                Dataset {
                    name: "cad".into(),
                    db: Arc::new(cad.db),
                    registry: ConnectionRegistry::new(),
                },
                Dataset {
                    name: "multidb".into(),
                    db: Arc::new(multidb.db),
                    registry: multidb.registry,
                },
            ];
            (datasets, feed(&weather, feed_rows))
        }
        Workload::Ingest => {
            let total = INGEST_START + len * INGEST_DELTA;
            let env = generate_environmental(&EnvConfig {
                hours: total.div_ceil(2),
                stations: 2,
                seed: mix(seed, 5),
                ..Default::default()
            });
            let mut db = env.db;
            let pollution = db.drop_table("Air-Pollution").expect("generated table");
            let start = INGEST_START;
            let datasets = vec![Dataset {
                name: "env".into(),
                db: single("env", prefix(&pollution, 0, start)),
                registry: ConnectionRegistry::new(),
            }];
            let held = Held {
                dataset: "env".into(),
                rows: prefix(&pollution, start, total),
                start,
            };
            (datasets, held)
        }
    };
    let mut datasets = datasets;
    if held.dataset == "feed" {
        datasets.push(Dataset {
            name: "feed".into(),
            db: single("feed", prefix(&held.rows, 0, held.start)),
            registry: ConnectionRegistry::new(),
        });
    }
    for d in &datasets {
        service.register_dataset(d.name.clone(), Arc::clone(&d.db), d.registry.clone());
    }
    Loaded {
        service,
        datasets,
        held,
        prototypes,
    }
}

/// The side feed: the first [`FEED_START`] weather rows registered, the
/// next ones held back for appends.
fn feed(weather: &Table, rows: usize) -> Held {
    assert!(rows <= weather.len(), "feed needs {rows} weather rows");
    Held {
        dataset: "feed".into(),
        rows: prefix(weather, 0, rows),
        start: FEED_START,
    }
}

/// The wire lines of set-up's second half: sessions, display settings,
/// and warm-up requests (first projection builds, string dictionaries,
/// the first pipeline and render of each dataset). Warm-up states lie
/// outside every range the scripts draw from.
pub fn setup_lines(w: Workload, wire: &mut Wire, send: &mut dyn FnMut(&str) -> Json) -> Vec<u64> {
    let mut create = |dataset: &str, send: &mut dyn FnMut(&str) -> Json| {
        let reply = send(&wire.line(&format!(r#""op":"create_session","dataset":"{dataset}""#)));
        let id = reply
            .get("session")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("create_session failed: {reply}"));
        for line in [
            wire.line(&format!(
                r#""session":{id},"op":"set_policy","pixels":{PIXELS},"pixels_per_item":1"#
            )),
            wire.line(&format!(
                r#""session":{id},"op":"set_window_size","w":{WINDOW},"h":{WINDOW}"#
            )),
        ] {
            expect_ok(&send(&line));
        }
        id
    };
    let warm = |lines: Vec<String>, send: &mut dyn FnMut(&str) -> Json| {
        for line in lines {
            expect_ok(&send(&line));
        }
    };
    match w {
        Workload::Explore => {
            let s = create("env", send);
            let lines = vec![
                wire.set_query(s, "SELECT * FROM Air-Pollution WHERE Ozone >= 15.5"),
                wire.drag(s, 15.75),
                wire.render(s),
                wire.set_query(
                    s,
                    "SELECT * FROM Air-Pollution WHERE Ozone >= 15.5 AND NO2 >= 5.5",
                ),
                wire.summary(s),
            ];
            warm(lines, send);
            vec![s]
        }
        Workload::Crowd => {
            let mut ids = Vec::new();
            for _ in 0..CROWD_SESSIONS_PER_DATASET {
                for d in CrowdSet::ALL {
                    ids.push(create(d.dataset(), send));
                }
            }
            for (k, d) in CrowdSet::ALL.iter().enumerate() {
                let s = ids[k];
                let lines = vec![
                    wire.set_query(s, &d.warm_query()),
                    wire.summary(s),
                    wire.render(s),
                ];
                warm(lines, send);
            }
            ids
        }
        Workload::Ingest => {
            let ids: Vec<u64> = (0..3).map(|_| create("env", send)).collect();
            let lines = vec![
                wire.set_query(ids[0], "SELECT * FROM Air-Pollution WHERE Ozone >= 15.5"),
                wire.drag(ids[0], 15.75),
                wire.set_query(ids[1], "SELECT * FROM Air-Pollution WHERE NO2 >= 5.5"),
                wire.drag(ids[1], 5.75),
                wire.set_query(ids[2], &ingest_standing()),
                wire.summary(ids[2]),
                wire.render(ids[2]),
            ];
            warm(lines, send);
            ids
        }
    }
}

fn expect_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "set-up request failed: {reply}"
    );
}

// ---- truth -------------------------------------------------------------

fn rows_of(tables: &[&Table], cols: &[&str]) -> Rows {
    let mut rows = Rows::default();
    for &c in cols {
        let col = if tables[0].column_by_name(c).expect("column").data_type() == DataType::Str {
            Col::Str(
                tables
                    .iter()
                    .flat_map(|t| {
                        let col = t.column_by_name(c).expect("column");
                        (0..t.len()).map(move |i| col.get_str(i).expect("no NULLs").to_string())
                    })
                    .collect(),
            )
        } else {
            Col::Num(
                tables
                    .iter()
                    .flat_map(|t| {
                        let col = t.column_by_name(c).expect("column");
                        (0..t.len()).map(move |i| col.get_f64(i).expect("no NULLs"))
                    })
                    .collect(),
            )
        };
        rows.cols.insert(c.to_string(), col);
    }
    rows
}

/// The generator's rows the checks read, copied out of the generated
/// tables (for `ingest`, the registered rows followed by the held-back
/// ones, so a prefix is the table as it stood after each append).
pub fn truth(w: Workload, loaded: &Loaded) -> Truth {
    let table = |ds: usize, name: &str| loaded.datasets[ds].db.table(name).expect("table");
    let mut t = Truth::new();
    match w {
        Workload::Explore => {
            t.insert(
                "Air-Pollution".into(),
                rows_of(&[table(0, "Air-Pollution")], &["Ozone", "NO2"]),
            );
        }
        Workload::Crowd => {
            t.insert(
                "Air-Pollution".into(),
                rows_of(&[table(0, "Air-Pollution")], &["Ozone", "DateTime"]),
            );
            t.insert(
                "Weather".into(),
                rows_of(&[table(0, "Weather")], &["Temperature", "DateTime"]),
            );
            let params: Vec<String> = (0..CAD_PARAMS).map(|p| format!("p{p:02}")).collect();
            let params: Vec<&str> = params.iter().map(String::as_str).collect();
            t.insert("Parts".into(), rows_of(&[table(1, "Parts")], &params));
            t.insert(
                "CustomersA".into(),
                rows_of(&[table(2, "CustomersA")], &["Balance", "Name"]),
            );
            t.insert(
                "CustomersB".into(),
                rows_of(&[table(2, "CustomersB")], &["Balance", "Name"]),
            );
        }
        Workload::Ingest => {
            t.insert(
                "Air-Pollution".into(),
                rows_of(
                    &[table(0, "Air-Pollution"), &loaded.held.rows],
                    &["Ozone", "NO2", "SO2"],
                ),
            );
        }
    }
    t
}

// ---- scripts -----------------------------------------------------------

fn conj(table: &str, rows: usize, preds: Vec<Pred>) -> Conj {
    Conj {
        table: table.into(),
        rows,
        preds,
    }
}

fn ge(c: &str, t: f64) -> Pred {
    Pred::Ge(c.into(), t)
}

fn summary_expect(objects: usize, windows: usize, exact: Conj) -> Expect {
    Expect::Summary {
        objects,
        windows,
        pixels: PIXELS,
        exact,
    }
}

fn drag_expect(objects: usize, windows: usize, exact: Conj) -> Expect {
    Expect::Drag {
        objects,
        windows,
        pixels: PIXELS,
        exact,
    }
}

/// A feed append of the next [`FEED_BATCH`] held-back rows.
fn feed_append(wire: &mut Wire, held: &Held, appended: &mut usize) -> Step {
    let from = *appended;
    *appended += FEED_BATCH;
    Step {
        class: Class::Append,
        lines: vec![wire.append_csv(&held.dataset, &held.csv(from, *appended))],
        expect: Expect::Append {
            appended: FEED_BATCH,
            total: held.start + *appended,
        },
    }
}

/// The per-client scripts of a run.
pub fn scripts(
    w: Workload,
    stood: &Stood,
    wire: &mut Wire,
    seed: u64,
    seconds: u64,
) -> Vec<Vec<Step>> {
    let len = script_len(w, seconds);
    match w {
        Workload::Explore => vec![explore(stood, wire, seed, len)],
        Workload::Crowd => vec![crowd(stood, wire, seed, len)],
        Workload::Ingest => vec![ingest(stood, wire, seed, len)],
    }
}

fn explore(stood: &Stood, wire: &mut Wire, seed: u64, rounds: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed, 11);
    let s = stood.sessions[0];
    let n = stood.loaded.datasets[0].db.total_rows();
    let held = &stood.loaded.held;
    let mut fed_rows = 0;
    let mut steps = Vec::new();
    for r in 0..rounds {
        // the weighted two-predicate query
        let (a, b) = (
            unique(rng.pick(40.0, 80.0), r),
            unique(rng.pick(20.0, 35.0), r),
        );
        let (wa, wb) = (rng.pick(0.5, 2.0), rng.pick(0.5, 2.0));
        let text = format!(
            "SELECT * FROM Air-Pollution WHERE Ozone >= {a} WEIGHT {wa} AND NO2 >= {b} WEIGHT {wb}"
        );
        steps.push(Step {
            class: Class::Query,
            lines: vec![wire.set_query(s, &text), wire.summary(s)],
            expect: summary_expect(
                n,
                2,
                conj("Air-Pollution", n, vec![ge("Ozone", a), ge("NO2", b)]),
            ),
        });
        // a run of fast-path drags on a single-predicate query
        let (t, wt) = (unique(rng.pick(85.0, 105.0), r), rng.pick(0.5, 2.0));
        steps.push(Step {
            class: Class::State,
            lines: vec![wire.set_query(
                s,
                &format!("SELECT * FROM Air-Pollution WHERE Ozone >= {t} WEIGHT {wt}"),
            )],
            expect: Expect::Ok,
        });
        for j in 1..=EXPLORE_DRAGS {
            let v = t + j as f64 * 0.2;
            steps.push(Step {
                class: Class::Drag,
                lines: vec![wire.drag(s, v)],
                expect: drag_expect(n, 1, conj("Air-Pollution", n, vec![ge("Ozone", v)])),
            });
        }
        if r % 2 == 1 {
            steps.push(Step {
                class: Class::State,
                lines: vec![wire.set_weight(s, 0, wt * 1.25)],
                expect: Expect::Ok,
            });
        }
        steps.push(Step {
            class: Class::Frame,
            lines: vec![wire.render(s)],
            expect: Expect::Frame,
        });
        steps.push(feed_append(wire, held, &mut fed_rows));
    }
    steps
}

// ---- crowd -------------------------------------------------------------

const CAD_PARAMS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrowdSet {
    Ozone,
    Cad,
    Multidb,
}

impl CrowdSet {
    const ALL: [CrowdSet; 3] = [CrowdSet::Ozone, CrowdSet::Cad, CrowdSet::Multidb];

    fn dataset(self) -> &'static str {
        match self {
            CrowdSet::Ozone => "ozone",
            CrowdSet::Cad => "cad",
            CrowdSet::Multidb => "multidb",
        }
    }

    fn warm_query(self) -> String {
        match self {
            CrowdSet::Ozone => "SELECT * FROM Air-Pollution WHERE Ozone >= 5.5 AND DateTime IN (SELECT DateTime FROM Weather WHERE Temperature >= 5.5)".into(),
            CrowdSet::Cad => "SELECT * FROM Parts WHERE p00 AROUND 0.5 DEV 0.5 AND p01 AROUND 0.5 DEV 0.5".into(),
            CrowdSet::Multidb => "SELECT * FROM CustomersA WHERE Balance >= -900.5 AND Name IN (SELECT Name FROM CustomersB WHERE Balance >= -900.5)".into(),
        }
    }
}

/// One crowd query state.
#[derive(Debug, Clone)]
enum CState {
    Ozone { a: f64, wa: f64, c: f64, wj: f64 },
    Cad { center: Vec<f64>, dev: f64 },
    Multidb { x: f64, wx: f64, y: f64, wn: f64 },
}

impl CState {
    fn fresh(set: CrowdSet, rng: &mut Rng, step: usize, prototypes: &[Vec<f64>]) -> CState {
        match set {
            CrowdSet::Ozone => CState::Ozone {
                a: unique(rng.pick(40.0, 90.0), step),
                wa: rng.pick(0.5, 2.0),
                c: unique(rng.pick(14.0, 24.0), step),
                wj: rng.pick(0.5, 2.0),
            },
            CrowdSet::Cad => CState::Cad {
                center: prototypes[rng.below(prototypes.len())][..CAD_PARAMS].to_vec(),
                dev: unique(rng.pick(0.5, 2.5), step),
            },
            CrowdSet::Multidb => CState::Multidb {
                x: unique(rng.pick(-400.0, 4000.0), step),
                wx: rng.pick(0.5, 2.0),
                y: unique(rng.pick(-400.0, 4000.0), step),
                wn: rng.pick(0.5, 2.0),
            },
        }
    }

    fn windows(&self) -> usize {
        match self {
            CState::Cad { .. } => CAD_PARAMS,
            _ => 2,
        }
    }

    fn text(&self) -> String {
        match self {
            CState::Ozone { a, wa, c, wj } => format!(
                "SELECT * FROM Air-Pollution WHERE Ozone >= {a} WEIGHT {wa} AND DateTime IN (SELECT DateTime FROM Weather WHERE Temperature >= {c}) WEIGHT {wj}"
            ),
            CState::Cad { center, dev } => {
                let preds: Vec<String> = center
                    .iter()
                    .enumerate()
                    .map(|(p, c)| format!("p{p:02} AROUND {c} DEV {dev}"))
                    .collect();
                format!("SELECT * FROM Parts WHERE {}", preds.join(" AND "))
            }
            CState::Multidb { x, wx, y, wn } => format!(
                "SELECT * FROM CustomersA WHERE Balance >= {x} WEIGHT {wx} AND Name IN (SELECT Name FROM CustomersB WHERE Balance >= {y}) WEIGHT {wn}"
            ),
        }
    }

    /// The exact-answer conjunction, with window 0 optionally dragged
    /// to `>= v`.
    fn conj(&self, n: usize, drag: Option<f64>) -> Conj {
        match self {
            CState::Ozone { a, c, .. } => conj(
                "Air-Pollution",
                n,
                vec![
                    ge("Ozone", drag.unwrap_or(*a)),
                    Pred::In {
                        col: "DateTime".into(),
                        table: "Weather".into(),
                        key: "DateTime".into(),
                        inner: vec![ge("Temperature", *c)],
                    },
                ],
            ),
            CState::Cad { center, dev } => conj(
                "Parts",
                n,
                center
                    .iter()
                    .enumerate()
                    .map(|(p, &c)| match (p, drag) {
                        (0, Some(v)) => ge("p00", v),
                        _ => Pred::Around(format!("p{p:02}"), c, *dev),
                    })
                    .collect(),
            ),
            CState::Multidb { x, y, .. } => conj(
                "CustomersA",
                n,
                vec![
                    ge("Balance", drag.unwrap_or(*x)),
                    Pred::In {
                        col: "Name".into(),
                        table: "CustomersB".into(),
                        key: "Name".into(),
                        inner: vec![ge("Balance", *y)],
                    },
                ],
            ),
        }
    }

    /// A drag target for window 0 near the state's own threshold.
    fn drag_value(&self, rng: &mut Rng, step: usize) -> f64 {
        match self {
            CState::Ozone { a, .. } => unique(rng.pick(*a - 10.0, *a + 10.0), step) + 0.005,
            CState::Cad { center, .. } => {
                unique(rng.pick(center[0] - 3.0, center[0] + 3.0), step) + 0.005
            }
            CState::Multidb { x, .. } => unique(rng.pick(*x - 500.0, *x + 500.0), step) + 0.005,
        }
    }
}

/// One client visits the 36 sessions in turn. With two clients, each
/// one's reply encoding on top of the two service workers oversubscribed
/// the two cores, and the queueing that followed made crowd's short
/// tails (`drag_p90_ms`) follow the host's CPU steal from run to run
/// (10-run spreads of 0.13 and 0.28).
fn crowd(stood: &Stood, wire: &mut Wire, seed: u64, turns: usize) -> Vec<Step> {
    let dbs = &stood.loaded.datasets;
    let objects = [
        dbs[0].db.table("Air-Pollution").expect("table").len(),
        dbs[1].db.table("Parts").expect("table").len(),
        dbs[2].db.table("CustomersA").expect("table").len(),
    ];
    let prototypes = &stood.loaded.prototypes;
    let held = &stood.loaded.held;
    let mut fed_rows = 0;
    let mut rng = Rng::new(seed, 20);
    // a repeat is one of the last CROWD_HOT states introduced for its
    // dataset, so it has been rendered before (a query-cache hit) and is
    // still among the recent entries of both shared caches
    let mut recent: [Vec<CState>; 3] = Default::default();
    let mut steps = Vec::new();
    for turn in 0..turns {
        let k = turn % stood.sessions.len();
        let (s, d) = (stood.sessions[k], k % 3);
        let set = CrowdSet::ALL[d];
        let n = objects[d];
        let state = if !recent[d].is_empty() && CROWD_REPEAT_TURNS.contains(&(turn % 10)) {
            // skewed toward the most recent states
            let u = rng.unit();
            let k = ((u * u) * recent[d].len() as f64) as usize;
            recent[d][recent[d].len() - 1 - k].clone()
        } else {
            let st = CState::fresh(set, &mut rng, turn, prototypes);
            recent[d].push(st.clone());
            if recent[d].len() > CROWD_HOT {
                recent[d].remove(0);
            }
            st
        };
        steps.push(Step {
            class: Class::Query,
            lines: vec![wire.set_query(s, &state.text()), wire.summary(s)],
            expect: summary_expect(n, state.windows(), state.conj(n, None)),
        });
        steps.push(Step {
            class: Class::Frame,
            lines: vec![wire.render(s)],
            expect: Expect::Frame,
        });
        let v = state.drag_value(&mut rng, turn);
        steps.push(Step {
            class: Class::Drag,
            lines: vec![wire.drag(s, v)],
            expect: drag_expect(n, state.windows(), state.conj(n, Some(v))),
        });
        if turn % CROWD_APPEND_EVERY == 0 {
            steps.push(feed_append(wire, held, &mut fed_rows));
        }
    }
    steps
}

// ---- ingest ------------------------------------------------------------

fn ingest_standing() -> String {
    "SELECT * FROM Air-Pollution WHERE Ozone >= 30 AND NO2 >= 20".into()
}

fn ingest(stood: &Stood, wire: &mut Wire, seed: u64, appends: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed, 30);
    let held = &stood.loaded.held;
    let [s1, s2, s3] = [stood.sessions[0], stood.sessions[1], stood.sessions[2]];
    let mut n = held.start;
    let mut steps = Vec::new();
    let mut step_no = 0;
    for _ in 0..appends {
        let delta = INGEST_DELTA;
        steps.push(Step {
            class: Class::Append,
            lines: vec![wire.append_csv(
                &held.dataset,
                &held.csv(n - held.start, n - held.start + delta),
            )],
            expect: Expect::Append {
                appended: delta,
                total: n + delta,
            },
        });
        n += delta;
        // the standing query, re-asked after every append (its windows
        // are extended by the append; compaction drops them)
        steps.push(Step {
            class: Class::Query,
            lines: vec![wire.set_query(s3, &ingest_standing()), wire.summary(s3)],
            expect: summary_expect(
                n,
                2,
                conj("Air-Pollution", n, vec![ge("Ozone", 30.0), ge("NO2", 20.0)]),
            ),
        });
        // three fresh queries
        for _ in 0..3 {
            step_no += 1;
            let (a, c) = (
                unique(rng.pick(40.0, 90.0), step_no),
                unique(rng.pick(6.0, 12.0), step_no),
            );
            steps.push(Step {
                class: Class::Query,
                lines: vec![
                    wire.set_query(
                        s3,
                        &format!("SELECT * FROM Air-Pollution WHERE Ozone >= {a} AND SO2 <= {c} WEIGHT 0.75"),
                    ),
                    wire.summary(s3),
                ],
                expect: summary_expect(
                    n,
                    2,
                    conj("Air-Pollution", n, vec![ge("Ozone", a), Pred::Le("SO2".into(), c)]),
                ),
            });
        }
        // each drag session: a monotone drag run, a frame, a re-weight,
        // another frame
        for (s, col, lo, hi) in [(s1, "Ozone", 60.0, 95.0), (s2, "NO2", 32.0, 40.0)] {
            step_no += 1;
            let t = unique(rng.pick(lo, hi), step_no);
            let wt = rng.pick(0.5, 2.0);
            steps.push(Step {
                class: Class::State,
                lines: vec![wire.set_query(
                    s,
                    &format!("SELECT * FROM Air-Pollution WHERE {col} >= {t} WEIGHT {wt}"),
                )],
                expect: Expect::Ok,
            });
            for j in 1..=INGEST_DRAGS {
                let v = t + j as f64 * 0.1;
                steps.push(Step {
                    class: Class::Drag,
                    lines: vec![wire.drag(s, v)],
                    expect: drag_expect(n, 1, conj("Air-Pollution", n, vec![ge(col, v)])),
                });
            }
            steps.push(Step {
                class: Class::Frame,
                lines: vec![wire.render(s)],
                expect: Expect::Frame,
            });
            steps.push(Step {
                class: Class::State,
                lines: vec![wire.set_weight(s, 0, wt * 1.25)],
                expect: Expect::Ok,
            });
            steps.push(Step {
                class: Class::Frame,
                lines: vec![wire.render(s)],
                expect: Expect::Frame,
            });
        }
    }
    steps
}

/// Per session, the lines from its last `set_query` on: replayed on a
/// fresh session they rebuild the session's final state (the
/// append-equals-rebuild check).
pub fn final_state_lines(steps: &[Step]) -> Vec<(u64, Vec<String>)> {
    let mut by_session: Vec<(u64, Vec<String>)> = Vec::new();
    for line in steps.iter().flat_map(|s| &s.lines) {
        let msg = visdb_service::json::parse(line).expect("script line parses");
        let Some(session) = msg.get("session").and_then(Json::as_u64) else {
            continue;
        };
        let restart = msg.get("op").and_then(Json::as_str) == Some("set_query");
        match by_session.iter_mut().find(|(s, _)| *s == session) {
            Some((_, lines)) => {
                if restart {
                    lines.clear();
                }
                lines.push(line.clone());
            }
            None => by_session.push((session, vec![line.clone()])),
        }
    }
    by_session
}
