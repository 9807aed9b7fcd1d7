//! The replayed script: interactions made of wire lines, each with the
//! class it is timed under and the independent expectation its last
//! reply is checked against.

use crate::check::Expect;

/// What an interaction is timed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `set_query` followed by `summary`.
    Query,
    /// One `drag_slider`.
    Drag,
    /// One `render` (`format: ppm`) after a state change.
    Frame,
    /// One `append_csv`.
    Append,
    /// A state change that is not timed on its own (installing the
    /// single-predicate query a drag run works on, a re-weight).
    State,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Query,
        Class::Drag,
        Class::Frame,
        Class::Append,
        Class::State,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Query => "query",
            Class::Drag => "drag",
            Class::Frame => "frame",
            Class::Append => "append",
            Class::State => "state",
        }
    }
}

/// One interaction: the lines handed to the wire in order, and what the
/// last reply must say (every earlier reply must be `ok`).
#[derive(Debug, Clone)]
pub struct Step {
    pub class: Class,
    pub lines: Vec<String>,
    pub expect: Expect,
}

/// Request-id allocator: every line carries a fresh `id`, as a client
/// that may later cancel it would send.
#[derive(Debug, Default)]
pub struct Wire {
    next: u64,
}

impl Wire {
    /// A request line: `{"id":N,<body>}`.
    pub fn line(&mut self, body: &str) -> String {
        self.next += 1;
        format!("{{\"id\":{},{body}}}", self.next)
    }

    pub fn set_query(&mut self, session: u64, text: &str) -> String {
        self.line(&format!(
            r#""session":{session},"op":"set_query","text":"{text}""#
        ))
    }

    pub fn summary(&mut self, session: u64) -> String {
        self.line(&format!(
            r#""session":{session},"op":"summary","trace":true"#
        ))
    }

    pub fn drag(&mut self, session: u64, value: f64) -> String {
        self.line(&format!(
            r#""session":{session},"op":"drag_slider","window":0,"cmp":">=","value":{value}"#
        ))
    }

    pub fn set_weight(&mut self, session: u64, window: usize, weight: f64) -> String {
        self.line(&format!(
            r#""session":{session},"op":"set_weight","window":{window},"weight":{weight}"#
        ))
    }

    pub fn render(&mut self, session: u64) -> String {
        self.line(&format!(
            r#""session":{session},"op":"render","format":"ppm""#
        ))
    }

    pub fn append_csv(&mut self, dataset: &str, csv: &str) -> String {
        self.line(&format!(
            r#""op":"append_csv","dataset":"{dataset}","csv":"{}""#,
            csv.replace('\n', "\\n")
        ))
    }
}

/// A small seeded generator (SplitMix64) for script parameters; the
/// benchmark's own, so scripts do not shift when the program's RNG
/// changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to two decimals.
    pub fn pick(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 100.0).round() / 100.0
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A value on a 0.01 grid made unique per `step` (< 10000): two steps
/// never produce the same value, so no state recurs by accident.
pub fn unique(grid_value: f64, step: usize) -> f64 {
    assert!(step < 10_000, "uniqueness offset needs step < 10000");
    grid_value + step as f64 * 1e-6
}
