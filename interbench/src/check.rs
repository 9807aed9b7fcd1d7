//! Independent answer checks.
//!
//! Every expected value here is computed in plain Rust over the rows the
//! generators produced — never through `visdb-relevance` or the session
//! layer — so a reply the program gets wrong fails a check instead of
//! agreeing with itself:
//!
//! * exact-answer counts of conjunctions (`>=`, `<=`, `AROUND`, and the
//!   exact matches of an `IN (subquery)` join connection);
//! * the displayed count the `FitScreen` policy's §5.1 definition gives
//!   for `n` objects (`p = r / (n·(#windows + 1))`, `⌊p·n⌋` items);
//! * `objects` / `total_rows` after each append against a running tally;
//! * a PPM frame's header, width, height and byte length against the
//!   reply's own `width`/`height`.

use std::collections::{HashMap, HashSet};

use visdb_service::json::Json;

/// One column of generator output, copied out of the generated table.
#[derive(Debug, Clone)]
pub enum Col {
    /// Numeric values (floats, timestamps).
    Num(Vec<f64>),
    /// String values.
    Str(Vec<String>),
}

/// The generator's rows of one table, by column name.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    pub cols: HashMap<String, Col>,
}

impl Rows {
    fn num(&self, name: &str) -> &[f64] {
        match self.cols.get(name) {
            Some(Col::Num(v)) => v,
            _ => panic!("no numeric column {name}"),
        }
    }

    fn key(&self, name: &str, i: usize) -> Key {
        match self.cols.get(name) {
            Some(Col::Num(v)) => Key::Num(v[i].to_bits()),
            Some(Col::Str(v)) => Key::Str(v[i].clone()),
            None => panic!("no column {name}"),
        }
    }
}

/// Every table the checks can read, by table name.
pub type Truth = HashMap<String, Rows>;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Num(u64),
    Str(String),
}

/// One conjunct of a query's condition, in the semantics of its exact
/// answers (distance 0).
#[derive(Debug, Clone)]
pub enum Pred {
    /// `col >= t`
    Ge(String, f64),
    /// `col <= t`
    Le(String, f64),
    /// `col AROUND center DEV deviation`: `|x - center| <= deviation`
    Around(String, f64, f64),
    /// `col IN (SELECT key FROM table WHERE inner)`: an exact match is an
    /// inner row with an equal key whose own condition holds exactly.
    In {
        col: String,
        table: String,
        key: String,
        inner: Vec<Pred>,
    },
}

/// A conjunction over the first `rows` rows of `table`.
#[derive(Debug, Clone)]
pub struct Conj {
    pub table: String,
    pub rows: usize,
    pub preds: Vec<Pred>,
}

/// A conjunct resolved against its columns, so the per-row test is a
/// slice index and a comparison.
enum Test<'a> {
    Ge(&'a [f64], f64),
    Le(&'a [f64], f64),
    Around(&'a [f64], f64, f64),
    In(&'a Rows, &'a str, HashSet<Key>),
}

impl Test<'_> {
    fn holds(&self, i: usize) -> bool {
        match self {
            Test::Ge(v, t) => v[i] >= *t,
            Test::Le(v, t) => v[i] <= *t,
            Test::Around(v, center, dev) => (v[i] - center).abs() <= *dev,
            Test::In(rows, col, set) => set.contains(&rows.key(col, i)),
        }
    }
}

fn compile<'a>(truth: &'a Truth, rows: &'a Rows, p: &'a Pred) -> Test<'a> {
    match p {
        Pred::Ge(c, t) => Test::Ge(rows.num(c), *t),
        Pred::Le(c, t) => Test::Le(rows.num(c), *t),
        Pred::Around(c, center, dev) => Test::Around(rows.num(c), *center, *dev),
        Pred::In {
            col,
            table,
            key,
            inner,
        } => {
            let inner_rows = &truth[table];
            let inner_conj = Conj {
                table: table.clone(),
                rows: inner_len(inner_rows),
                preds: inner.clone(),
            };
            let keys = matching_rows(truth, &inner_conj)
                .into_iter()
                .map(|j| inner_rows.key(key, j))
                .collect();
            Test::In(rows, col, keys)
        }
    }
}

fn matching_rows(truth: &Truth, conj: &Conj) -> Vec<usize> {
    let rows = &truth[&conj.table];
    let tests: Vec<Test> = conj.preds.iter().map(|p| compile(truth, rows, p)).collect();
    (0..conj.rows)
        .filter(|&i| tests.iter().all(|t| t.holds(i)))
        .collect()
}

/// Exact answers of a conjunction, counted row by row.
pub fn exact_count(truth: &Truth, conj: &Conj) -> usize {
    let rows = &truth[&conj.table];
    let tests: Vec<Test> = conj.preds.iter().map(|p| compile(truth, rows, p)).collect();
    match tests.as_slice() {
        // the common single-column case as a plain slice walk
        [Test::Ge(v, t)] => v[..conj.rows].iter().filter(|&&x| x >= *t).count(),
        _ => (0..conj.rows)
            .filter(|&i| tests.iter().all(|t| t.holds(i)))
            .count(),
    }
}

fn inner_len(rows: &Rows) -> usize {
    rows.cols
        .values()
        .map(|c| match c {
            Col::Num(v) => v.len(),
            Col::Str(v) => v.len(),
        })
        .next()
        .unwrap_or(0)
}

/// The §5.1 `FitScreen` display count: `r = pixels / pixels_per_item`
/// items share the screen among the overall window and one window per
/// predicate, so a fraction `p = r / (n·(windows + 1))` (at most 1) of
/// the `n` objects is displayed — `⌊p·n⌋` items. Every generated
/// object has a defined distance, so no cap below `n` applies.
pub fn fit_screen_displayed(
    pixels: usize,
    pixels_per_item: usize,
    n: usize,
    windows: usize,
) -> usize {
    if n == 0 {
        return 0;
    }
    let items = pixels / pixels_per_item;
    let p = (items as f64 / (n as f64 * (windows + 1) as f64)).min(1.0);
    ((p * n as f64).floor() as usize).min(n)
}

/// What a reply must say.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A plain `{"ok":true}` acknowledgement.
    Ok,
    /// A summary: objects, displayed and exact answers.
    Summary {
        objects: usize,
        windows: usize,
        pixels: usize,
        exact: Conj,
    },
    /// A drag: displayed and exact answers after the drag.
    Drag {
        objects: usize,
        windows: usize,
        pixels: usize,
        exact: Conj,
    },
    /// A PPM frame.
    Frame,
    /// An append: rows appended and the running total.
    Append { appended: usize, total: usize },
}

fn field<'a>(j: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = j;
    for p in path {
        cur = cur
            .get(p)
            .ok_or_else(|| format!("reply lacks `{}`: {j}", path.join(".")))?;
    }
    Ok(cur)
}

fn uint(j: &Json, path: &[&str]) -> Result<usize, String> {
    field(j, path)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| format!("`{}` is not a count", path.join(".")))
}

fn expect_eq(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: reply says {got}, independent count is {want}"
        ))
    }
}

/// Check one reply (the last reply of an interaction) against its
/// expectation.
pub fn check_reply(truth: &Truth, expect: &Expect, reply: &Json) -> Result<(), String> {
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request failed: {reply}"));
    }
    match expect {
        Expect::Ok => Ok(()),
        Expect::Summary {
            objects,
            windows,
            pixels,
            exact,
        } => {
            expect_eq(
                "summary.objects",
                uint(reply, &["summary", "objects"])?,
                *objects,
            )?;
            expect_eq(
                "summary.windows",
                uint(reply, &["summary", "windows"])?,
                *windows,
            )?;
            expect_eq(
                "summary.displayed",
                uint(reply, &["summary", "displayed"])?,
                fit_screen_displayed(*pixels, 1, *objects, *windows),
            )?;
            expect_eq(
                "summary.exact",
                uint(reply, &["summary", "exact"])?,
                exact_count(truth, exact),
            )
        }
        Expect::Drag {
            objects,
            windows,
            pixels,
            exact,
        } => {
            expect_eq(
                "drag.displayed",
                uint(reply, &["drag", "displayed"])?,
                fit_screen_displayed(*pixels, 1, *objects, *windows),
            )?;
            expect_eq(
                "drag.exact",
                uint(reply, &["drag", "exact"])?,
                exact_count(truth, exact),
            )
        }
        Expect::Frame => check_frame(reply),
        Expect::Append { appended, total } => {
            expect_eq("rows_appended", uint(reply, &["rows_appended"])?, *appended)?;
            expect_eq("total_rows", uint(reply, &["total_rows"])?, *total)
        }
    }
}

/// Base64 characters of a frame payload kept for the header check (24
/// decoded bytes: longer than any `P6\n{w} {h}\n255\n` header here).
const HEAD_CHARS: usize = 32;

/// Shrink a frame reply to what [`check_frame`] reads: the payload's
/// first [`HEAD_CHARS`] and last 4 base64 characters plus its length
/// replace the payload, so a run can keep every reply until it is
/// checked without holding every frame. Other replies pass unchanged.
pub fn compact(mut reply: Json) -> Json {
    if let Json::Obj(map) = &mut reply {
        if let Some(Json::Obj(frame)) = map.get_mut("frame") {
            if let Some(Json::Str(data)) = frame.remove("data") {
                let head: String = data.chars().take(HEAD_CHARS).collect();
                let tail: String = data.chars().skip(data.len().saturating_sub(4)).collect();
                frame.insert("head".into(), Json::Str(head));
                frame.insert("tail".into(), Json::Str(tail));
                frame.insert("data_len".into(), Json::Num(data.len() as f64));
            }
        }
    }
    reply
}

/// A (compacted) PPM reply: the payload decodes to the header
/// `P6\n{w} {h}\n255\n` followed by exactly `w·h·3` pixel bytes, with
/// `w`/`h` the reply's own fields.
pub fn check_frame(reply: &Json) -> Result<(), String> {
    let frame = field(reply, &["frame"])?;
    if frame.get("format").and_then(Json::as_str) != Some("ppm") {
        return Err("frame is not a ppm".into());
    }
    let w = uint(frame, &["width"])?;
    let h = uint(frame, &["height"])?;
    let text = |k: &str| {
        field(frame, &[k])?
            .as_str()
            .ok_or_else(|| format!("frame.{k} is not a string"))
    };
    let (head, tail) = (text("head")?, text("tail")?);
    let len = uint(frame, &["data_len"])?;
    if len % 4 != 0 || tail.len() != 4.min(len) {
        return Err("frame payload is not padded base64".into());
    }
    let pad = tail.bytes().rev().take_while(|&b| b == b'=').count();
    base64_decode(tail)?;
    let bytes = len / 4 * 3 - pad;
    let header = format!("P6\n{w} {h}\n255\n");
    let head = base64_decode(&head[..head.len() / 4 * 4])?;
    if !head.starts_with(header.as_bytes()) {
        let got: String = head.iter().take(20).map(|&b| b as char).collect();
        return Err(format!("ppm header {got:?} does not match {w}x{h}"));
    }
    expect_eq("ppm byte length", bytes, header.len() + w * h * 3)
}

/// Standard base64 (RFC 4648, padded) decoder.
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    fn val(c: u8) -> Result<u32, String> {
        Ok(match c {
            b'A'..=b'Z' => (c - b'A') as u32,
            b'a'..=b'z' => (c - b'a' + 26) as u32,
            b'0'..=b'9' => (c - b'0' + 52) as u32,
            b'+' => 62,
            b'/' => 63,
            _ => return Err(format!("bad base64 byte {c}")),
        })
    }
    let b = s.as_bytes();
    if !b.len().is_multiple_of(4) {
        return Err("base64 length is not a multiple of 4".into());
    }
    let mut out = Vec::with_capacity(b.len() / 4 * 3);
    for q in b.chunks(4) {
        let pad = q.iter().rev().take_while(|&&c| c == b'=').count();
        let mut n = 0u32;
        for &c in &q[..4 - pad] {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * pad as u32;
        let bytes = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
        out.extend_from_slice(&bytes[..3 - pad]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use visdb_service::json::{base64_encode, parse};

    fn truth() -> Truth {
        let mut t = Truth::new();
        let mut outer = Rows::default();
        outer
            .cols
            .insert("x".into(), Col::Num(vec![1.0, 5.0, 7.0, 9.0, 12.0]));
        outer
            .cols
            .insert("k".into(), Col::Num(vec![10.0, 20.0, 30.0, 40.0, 50.0]));
        outer.cols.insert(
            "name".into(),
            Col::Str(vec![
                "a".into(),
                "b".into(),
                "c".into(),
                "d".into(),
                "e".into(),
            ]),
        );
        t.insert("T".into(), outer);
        let mut inner = Rows::default();
        inner
            .cols
            .insert("k".into(), Col::Num(vec![20.0, 40.0, 41.0, 50.0]));
        inner
            .cols
            .insert("temp".into(), Col::Num(vec![30.0, 10.0, 30.0, 25.0]));
        inner.cols.insert(
            "name".into(),
            Col::Str(vec!["b".into(), "d".into(), "x".into(), "e".into()]),
        );
        t.insert("U".into(), inner);
        t
    }

    fn conj(preds: Vec<Pred>) -> Conj {
        Conj {
            table: "T".into(),
            rows: 5,
            preds,
        }
    }

    #[test]
    fn counts_conjunctions_and_join_matches() {
        let t = truth();
        assert_eq!(exact_count(&t, &conj(vec![Pred::Ge("x".into(), 6.0)])), 3);
        assert_eq!(
            exact_count(
                &t,
                &conj(vec![Pred::Ge("x".into(), 6.0), Pred::Le("x".into(), 9.0)])
            ),
            2
        );
        assert_eq!(
            exact_count(&t, &conj(vec![Pred::Around("x".into(), 6.0, 1.0)])),
            2
        );
        // inner rows with temp >= 20: keys {20, 41, 50} -> outer keys 20, 50
        let join = Pred::In {
            col: "k".into(),
            table: "U".into(),
            key: "k".into(),
            inner: vec![Pred::Ge("temp".into(), 20.0)],
        };
        assert_eq!(exact_count(&t, &conj(vec![join.clone()])), 2);
        assert_eq!(
            exact_count(&t, &conj(vec![Pred::Ge("x".into(), 6.0), join])),
            1
        );
        let strings = Pred::In {
            col: "name".into(),
            table: "U".into(),
            key: "name".into(),
            inner: vec![Pred::Ge("temp".into(), 20.0)],
        };
        assert_eq!(exact_count(&t, &conj(vec![strings])), 2);
        // a prefix of the rows (the table as it stood before appends)
        let mut c = conj(vec![Pred::Ge("x".into(), 6.0)]);
        c.rows = 3;
        assert_eq!(exact_count(&t, &c), 1);
    }

    #[test]
    fn fit_screen_count_follows_the_definition() {
        // r = 20000 items, n = 1M, 2 windows: p = 20000 / 3M
        assert_eq!(fit_screen_displayed(20_000, 1, 1_000_000, 2), 6_666);
        assert_eq!(fit_screen_displayed(20_000, 1, 1_000_000, 1), 10_000);
        // the screen fits everything: p clamps to 1
        assert_eq!(fit_screen_displayed(20_000, 1, 1_800, 2), 1_800);
        assert_eq!(fit_screen_displayed(20_000, 1, 0, 2), 0);
    }

    fn summary_reply(objects: usize, displayed: usize, exact: usize) -> Json {
        parse(&format!(
            r#"{{"ok":true,"summary":{{"objects":{objects},"displayed":{displayed},"exact":{exact},"windows":1}}}}"#
        ))
        .unwrap()
    }

    fn frame_reply(w: usize, h: usize, header: &str, pixels: usize) -> Json {
        let mut bytes = header.as_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(7u8, pixels * 3));
        compact(
            parse(&format!(
                r#"{{"ok":true,"frame":{{"format":"ppm","width":{w},"height":{h},"data":"{}"}}}}"#,
                base64_encode(&bytes)
            ))
            .unwrap(),
        )
    }

    #[test]
    fn perturbed_replies_fail_every_check() {
        let t = truth();
        let summary = Expect::Summary {
            objects: 5,
            windows: 1,
            pixels: 4,
            exact: conj(vec![Pred::Ge("x".into(), 6.0)]),
        };
        // 4 items over 2 windows: p = 4 / 10, 2 displayed; 3 exact
        check_reply(&t, &summary, &summary_reply(5, 2, 3)).unwrap();
        assert!(
            check_reply(&t, &summary, &summary_reply(5, 2, 4)).is_err(),
            "exact"
        );
        assert!(
            check_reply(&t, &summary, &summary_reply(5, 3, 3)).is_err(),
            "displayed"
        );
        assert!(
            check_reply(&t, &summary, &summary_reply(6, 2, 3)).is_err(),
            "objects"
        );

        let drag = Expect::Drag {
            objects: 5,
            windows: 1,
            pixels: 4,
            exact: conj(vec![Pred::Ge("x".into(), 6.0)]),
        };
        let drag_reply = |d: usize, e: usize| {
            parse(&format!(
                r#"{{"ok":true,"drag":{{"displayed":{d},"exact":{e},"incremental":true}}}}"#
            ))
            .unwrap()
        };
        check_reply(&t, &drag, &drag_reply(2, 3)).unwrap();
        assert!(check_reply(&t, &drag, &drag_reply(2, 2)).is_err());
        assert!(check_reply(&t, &drag, &drag_reply(1, 3)).is_err());

        let append = Expect::Append {
            appended: 10,
            total: 110,
        };
        let append_reply = |a: usize, n: usize| {
            parse(&format!(
                r#"{{"ok":true,"rows_appended":{a},"total_rows":{n}}}"#
            ))
            .unwrap()
        };
        check_reply(&t, &append, &append_reply(10, 110)).unwrap();
        assert!(check_reply(&t, &append, &append_reply(10, 109)).is_err());
        assert!(check_reply(&t, &append, &append_reply(9, 110)).is_err());

        check_reply(&t, &Expect::Frame, &frame_reply(4, 3, "P6\n4 3\n255\n", 12)).unwrap();
        for bad in [
            frame_reply(4, 3, "P6\n4 2\n255\n", 12), // header size differs
            frame_reply(4, 3, "P3\n4 3\n255\n", 12), // wrong magic
            frame_reply(4, 3, "P6\n4 3\n255\n", 11), // truncated pixels
            frame_reply(4, 3, "P6\n4 3\n255\n", 13), // extra pixels
            frame_reply(5, 3, "P6\n4 3\n255\n", 12), // reply width differs
        ] {
            assert!(check_reply(&t, &Expect::Frame, &bad).is_err(), "{bad}");
        }

        let failed = parse(r#"{"ok":false,"error":"boom","kind":"internal"}"#).unwrap();
        assert!(check_reply(&t, &Expect::Ok, &failed).is_err());
    }

    #[test]
    fn base64_round_trips() {
        for len in 0..10 {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(base64_decode(&base64_encode(&bytes)).unwrap(), bytes);
        }
        assert!(base64_decode("abc").is_err());
    }
}
