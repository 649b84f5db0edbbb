//! Regression gates over the committed baselines in
//! `crates/bench/baselines/<name>.json`, run by the `gate` binary.
//!
//! A [`Gate`] computes its current document, checks the invariants
//! that document must satisfy on its own, and declares a [`Tolerance`]
//! per field. One engine ([`check`]) does the rest for every gate: a
//! row or field present on one side only fails, in both directions;
//! every shared field is diffed under its tolerance; and `--update`
//! writes the current document as the baseline unless an invariant or
//! a live measurement fails. The gates: [`Obs`], [`Prescreen`],
//! [`Rescue`], [`Tier`], [`Scev`] and [`serve::Serve`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use benchsuite::DataSize;
use obs::json::{parse, quote, Value};
use tvm::{CostModel, HotLocations, Interp, NullSink};

use crate::tables;

pub mod serve;

/// One row of a document as written: a name and its numeric fields in
/// document order.
#[derive(Debug)]
pub struct Row {
    /// Benchmark or section name.
    pub name: &'static str,
    /// `(field, value)` pairs, written in this order.
    pub fields: Vec<(&'static str, f64)>,
}

/// Writes rows as `{"<key>": [{"name": ..., fields...}, ...]}`, one
/// row per line. Integral values print without a fraction, so integer
/// snapshots read back exactly.
pub fn rows_json(key: &str, rows: &[Row]) -> String {
    let mut s = format!("{{\n  {}: [\n", quote(key));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!("    {{\"name\": {}", quote(r.name)));
        for (field, v) in &r.fields {
            debug_assert!(v.is_finite(), "{}.{field} is not finite", r.name);
            s.push_str(&format!(", {}: {v}", quote(field)));
        }
        s.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A document read back for comparison: row name → field → value.
pub type Rows = BTreeMap<String, BTreeMap<String, f64>>;

/// How far a field may move from its baseline value.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Must equal the baseline.
    Exact,
    /// May move at most this fraction of the baseline either way.
    Relative(f64),
    /// May move at most this much either way.
    Absolute(f64),
    /// May fall at most this fraction of the baseline; rises pass.
    MaxDrop(f64),
    /// May grow at most this fraction of the baseline; falls pass.
    MaxGrowth(f64),
    /// Machine-dependent: must be present, any value passes.
    Any,
}

impl Tolerance {
    /// Whether `cur` is within tolerance of `base`.
    pub fn admits(self, base: f64, cur: f64) -> bool {
        match self {
            Tolerance::Exact => cur == base,
            Tolerance::Relative(f) => (cur - base).abs() <= f * base.abs(),
            Tolerance::Absolute(d) => (cur - base).abs() <= d,
            Tolerance::MaxDrop(f) => cur >= base * (1.0 - f),
            Tolerance::MaxGrowth(f) => cur <= base * (1.0 + f),
            Tolerance::Any => true,
        }
    }
}

/// A freshly computed document.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// The document, written as the baseline on `--update`.
    pub doc: String,
    /// Violations found by live measurements that never enter the
    /// document (they also block `--update`).
    pub live: Vec<String>,
    /// One informational line for the report.
    pub note: String,
}

/// One regression gate.
pub trait Gate {
    /// CLI name and baseline file stem.
    fn name(&self) -> &'static str;
    /// Computes the current document.
    fn measure(&self) -> Measured;
    /// Reads a document back into rows. The default takes every object
    /// with a `"name"` in the document's top-level arrays, keeping its
    /// numeric fields.
    fn rows(&self, doc: &Value) -> Result<Rows, String> {
        named_rows(doc)
    }
    /// Violations of the conditions the current document must satisfy
    /// on its own, checked before any diff (see [`broken`]).
    fn invariants(&self, _cur: &Rows) -> Vec<String> {
        Vec::new()
    }
    /// How far `field` may move from the baseline.
    fn tolerance(&self, _field: &str) -> Tolerance {
        Tolerance::Exact
    }
}

fn named_rows(doc: &Value) -> Result<Rows, String> {
    let Value::Obj(top) = doc else {
        return Err("the document is not an object".into());
    };
    let mut out = Rows::new();
    for item in top.values().filter_map(Value::as_arr).flatten() {
        let (Some(name), Value::Obj(fields)) = (item.get("name").and_then(Value::as_str), item)
        else {
            return Err("a row has no name".into());
        };
        let fields = fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
            .collect();
        if out.insert(name.to_string(), fields).is_some() {
            return Err(format!("row {name} appears twice"));
        }
    }
    Ok(out)
}

/// Parses `text` and reads it into rows with `gate`'s reader.
pub fn load(gate: &dyn Gate, text: &str) -> Result<Rows, String> {
    gate.rows(&parse(text).map_err(|e| e.to_string())?)
}

/// Every difference between `base` and `cur` that `gate`'s tolerances
/// do not admit, including rows and fields present on one side only.
pub fn diff(gate: &dyn Gate, base: &Rows, cur: &Rows) -> Vec<String> {
    let mut out = Vec::new();
    for name in base.keys().filter(|n| !cur.contains_key(*n)) {
        out.push(format!("{name} disappeared from the current run"));
    }
    for (name, c) in cur {
        let Some(b) = base.get(name) else {
            out.push(format!("{name} is new (not in the baseline)"));
            continue;
        };
        for (field, &bv) in b {
            match c.get(field) {
                None => out.push(format!("{name}: {field} disappeared (baseline {bv})")),
                Some(&cv) => {
                    let tol = gate.tolerance(field);
                    if !tol.admits(bv, cv) {
                        out.push(format!(
                            "{name}: {field} moved past {tol:?} (baseline {bv}, current {cv})"
                        ));
                    }
                }
            }
        }
        for (field, cv) in c.iter().filter(|(f, _)| !b.contains_key(*f)) {
            out.push(format!(
                "{name}: {field} = {cv} appeared (not in the baseline)"
            ));
        }
    }
    out
}

/// `<dir>/<name>.json`.
pub fn baseline_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.json"))
}

/// The committed baseline directory.
pub fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

/// Judges `m` against `gate`'s baseline in `dir` or, with `update`,
/// writes it there unless something fails. Returns every violation;
/// empty means the gate passed.
pub fn check(gate: &dyn Gate, m: &Measured, dir: &Path, update: bool) -> Vec<String> {
    let mut out = m.live.clone();
    let cur = match load(gate, &m.doc) {
        Ok(cur) => cur,
        Err(e) => {
            out.push(format!("the current document does not read back: {e}"));
            return out;
        }
    };
    out.extend(gate.invariants(&cur));
    let path = baseline_path(dir, gate.name());
    if update {
        if out.is_empty() {
            if let Err(e) = std::fs::write(&path, &m.doc) {
                out.push(format!("cannot write {}: {e}", path.display()));
            }
        }
        return out;
    }
    let base = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| load(gate, &text));
    match base {
        Ok(base) => out.extend(diff(gate, &base, &cur)),
        Err(e) => out.push(format!("baseline {} unreadable: {e}", path.display())),
    }
    out
}

/// Measures and checks one gate, reporting on stderr. Returns whether
/// it passed.
pub fn run(gate: &dyn Gate, dir: &Path, update: bool) -> bool {
    let m = gate.measure();
    let violations = check(gate, &m, dir, update);
    let verdict = match (violations.is_empty(), update) {
        (true, true) => "baseline updated",
        (true, false) => "OK",
        (false, true) => "refusing to update",
        (false, false) => "FAILED",
    };
    eprintln!("gate {}: {verdict} ({})", gate.name(), m.note);
    for v in &violations {
        eprintln!("  {v}");
    }
    if !violations.is_empty() && !update {
        eprintln!(
            "  if the change is intended and every invariant holds, refresh the baseline with \
             `gate --update {}`",
            gate.name()
        );
    }
    violations.is_empty()
}

/// The six gates, in the order `gate` runs them.
pub fn all() -> Vec<Box<dyn Gate>> {
    vec![
        Box::new(Obs),
        Box::new(Prescreen),
        Box::new(Rescue),
        Box::new(Tier),
        Box::new(Scev),
        Box::new(serve::Serve),
    ]
}

/// A condition a gate's current document must satisfy on its own.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// In every row, field `.0` is at least field `.1`.
    AtLeast(&'static str, &'static str),
    /// In every row, field `.0` is the sum of the fields `.1`.
    SumOf(&'static str, &'static [&'static str]),
    /// In every row carrying field `.0`, it equals `.1`.
    Is(&'static str, f64),
    /// In every row carrying field `.0`, it is at most `.1`.
    AtMost(&'static str, f64),
    /// Summed over the rows, field `.0` is positive.
    Somewhere(&'static str),
}

/// `field` of `row`, 0 when absent (the diff reports a missing field).
fn get(row: &BTreeMap<String, f64>, field: &str) -> f64 {
    row.get(field).copied().unwrap_or(0.0)
}

/// Every violation of `rules` in `cur`.
pub fn broken(cur: &Rows, rules: &[Rule]) -> Vec<String> {
    let mut out = Vec::new();
    for rule in rules {
        if let Rule::Somewhere(f) = *rule {
            if cur.values().map(|r| get(r, f)).sum::<f64>() <= 0.0 {
                out.push(format!("{f} is 0 in every row"));
            }
        }
        for (name, r) in cur {
            let v = |f| get(r, f);
            match *rule {
                Rule::AtLeast(a, b) if v(a) < v(b) => {
                    out.push(format!("{name}: {a} {} < {b} {}", v(a), v(b)));
                }
                Rule::SumOf(t, parts) if v(t) != parts.iter().map(|&f| v(f)).sum::<f64>() => {
                    out.push(format!("{name}: {t} {} is not the sum of {parts:?}", v(t)));
                }
                Rule::Is(f, want) if r.contains_key(f) && v(f) != want => {
                    out.push(format!("{name}: {f} is {}, not {want}", v(f)));
                }
                Rule::AtMost(f, max) if v(f) > max => {
                    out.push(format!("{name}: {f} {} exceeds {max}", v(f)));
                }
                _ => {}
            }
        }
    }
    out
}

fn snapshot(rows: impl IntoIterator<Item = Row>) -> Measured {
    let rows: Vec<Row> = rows.into_iter().collect();
    Measured {
        doc: rows_json("benchmarks", &rows),
        live: Vec::new(),
        note: format!("{} benchmarks", rows.len()),
    }
}

/// Maximum relative drift of an `obs` event count.
pub const MAX_COUNT_DRIFT: f64 = 0.20;
/// Maximum absolute drift of an `obs` stage's share of wall time.
pub const MAX_SHARE_DRIFT: f64 = 0.20;

/// One Huffman Small pipeline run ([`tables::obs_json`]): event counts
/// (recorded, per kind, per sink, batches, interpreter passes) may
/// drift 20 %; each stage's share of pipeline wall time (shares, not
/// nanoseconds, so the gate does not depend on machine speed) 0.20.
/// Some event must be recorded.
pub struct Obs;

impl Gate for Obs {
    fn name(&self) -> &'static str {
        "obs"
    }

    fn measure(&self) -> Measured {
        let bench = benchsuite::by_name("Huffman").expect("suite has Huffman");
        let r = crate::run_benchmark(&bench, DataSize::Small).expect("Huffman runs at Small");
        Measured {
            doc: tables::obs_json(&[r]),
            live: Vec::new(),
            note: "Huffman at Small".into(),
        }
    }

    fn rows(&self, doc: &Value) -> Result<Rows, String> {
        let mut out = Rows::new();
        let benches = doc.get("benchmarks").and_then(Value::as_arr);
        for b in benches.ok_or("no benchmarks array")? {
            let mut row = BTreeMap::new();
            let mut put = |key: String, v: Option<f64>| v.map(|v| row.insert(key, v));
            for key in ["interpreter_passes", "recorded_events", "batches"] {
                put(key.into(), b.get(key).and_then(Value::as_f64));
            }
            if let Some(Value::Obj(kinds)) = b.get("events_by_kind") {
                for (kind, n) in kinds {
                    put(format!("events_by_kind.{kind}"), n.as_f64());
                }
            }
            let list = |key| b.get(key).and_then(Value::as_arr).unwrap_or(&[]);
            for (i, sink) in list("sinks").iter().enumerate() {
                for key in ["events", "batches"] {
                    put(
                        format!("sinks[{i}].{key}"),
                        sink.get(key).and_then(Value::as_f64),
                    );
                }
            }
            let nanos = |st: &Value| st.get("nanos").and_then(Value::as_f64).unwrap_or(0.0);
            let wall: f64 = list("stages").iter().map(nanos).sum();
            for st in list("stages") {
                let stage = st.get("stage").and_then(Value::as_str).unwrap_or("?");
                let share = if wall > 0.0 { nanos(st) / wall } else { 0.0 };
                put(format!("stages.{stage}.share"), Some(share));
            }
            let name = b.get("name").and_then(Value::as_str);
            out.insert(name.ok_or("a benchmark has no name")?.to_string(), row);
        }
        Ok(out)
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        broken(cur, &[Rule::Somewhere("recorded_events")])
    }

    fn tolerance(&self, field: &str) -> Tolerance {
        if field.starts_with("stages.") {
            Tolerance::Absolute(MAX_SHARE_DRIFT)
        } else {
            Tolerance::Relative(MAX_COUNT_DRIFT)
        }
    }
}

/// The static pre-screen snapshot ([`tables::prescreen_rows`]), exact.
/// Points-to sharpening only adds independence proofs, and proves some
/// pair the structural rules alone cannot.
pub struct Prescreen;

impl Gate for Prescreen {
    fn name(&self) -> &'static str {
        "prescreen"
    }

    fn measure(&self) -> Measured {
        let rows = tables::prescreen_rows(DataSize::Small);
        snapshot(rows.iter().map(tables::PrescreenRow::row))
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        use Rule::*;
        broken(
            cur,
            &[
                AtLeast("disjoint", "baseline_disjoint"),
                Somewhere("via_pointsto"),
            ],
        )
    }
}

/// The loop-rescue snapshot ([`tables::rescue_rows`]), exact. Rescue
/// only shrinks the demoted set, every rescued loop is a reduction,
/// and some loop is rescued and then selected.
pub struct Rescue;

impl Gate for Rescue {
    fn name(&self) -> &'static str {
        "rescue"
    }

    fn measure(&self) -> Measured {
        let rows = tables::rescue_rows(DataSize::Small);
        snapshot(rows.iter().map(tables::RescueRow::row))
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        use Rule::*;
        broken(
            cur,
            &[
                AtLeast("demoted_before", "demoted_after"),
                SumOf("rescued", &["reductions"]),
                Somewhere("rescued"),
                Somewhere("selected_gain"),
            ],
        )
    }
}

/// Bound on the counting tier's interpretation overhead: a hooked run
/// costs less than this multiple of a plain one.
pub const COUNTING_OVERHEAD_BOUND: f64 = 2.0;

/// The online tier-controller snapshot ([`tables::tier_rows`]), exact.
/// Every loop reaches a terminal tier, the online Selected set equals
/// the offline batch selection, the terminal tiers partition the
/// candidates, and some benchmark has a candidate. Live, never in the
/// baseline: the counting tier's overhead stays under
/// [`COUNTING_OVERHEAD_BOUND`].
pub struct Tier;

impl Gate for Tier {
    fn name(&self) -> &'static str {
        "tier"
    }

    fn measure(&self) -> Measured {
        let mut m = snapshot(
            tables::tier_rows(DataSize::Small)
                .iter()
                .map(tables::TierRow::row),
        );
        let overhead = counting_overhead();
        if overhead >= COUNTING_OVERHEAD_BOUND {
            m.live.push(format!(
                "counting-tier overhead {overhead:.2}x breaches the {COUNTING_OVERHEAD_BOUND}x bound"
            ));
        }
        m.note += &format!(", counting overhead {overhead:.2}x");
        m
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        use Rule::*;
        let tiers = &["selected", "demoted_static", "demoted_dynamic"];
        let rules = [
            Is("terminal", 1.0),
            Is("matches_offline", 1.0),
            SumOf("candidates", tiers),
            Somewhere("candidates"),
        ];
        broken(cur, &rules)
    }
}

/// Worst hooked-vs-plain interpretation slowdown over representative
/// benchmarks, each the least of 3 wall-clock trials.
fn counting_overhead() -> f64 {
    fn least(mut f: impl FnMut() -> u64) -> u64 {
        (0..3).map(|_| f()).min().unwrap_or(u64::MAX)
    }
    let mut worst = 0.0f64;
    for name in ["Huffman", "LuFactor", "compress"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(DataSize::Small);
        let cands = cfgir::extract_candidates(&program);
        let plain = least(|| {
            let t = Instant::now();
            let fuel = Interp::DEFAULT_FUEL;
            Interp::run_to_state(&program, &mut NullSink, CostModel::default(), fuel)
                .expect("plain run");
            t.elapsed().as_nanos() as u64
        });
        let hooked = least(|| {
            // the counting tier's hook population: every candidate
            // loop header is a registered location
            let mut hot = HotLocations::for_program(&program);
            for c in &cands.candidates {
                let fa = &cands.functions[c.func.0 as usize];
                let lp = &fa.forest.loops[c.loop_idx];
                hot.register(c.func.0, fa.cfg.blocks[lp.header.0 as usize].start);
            }
            let t = Instant::now();
            let (sink, cost, fuel) = (&mut NullSink, CostModel::default(), Interp::DEFAULT_FUEL);
            Interp::run_to_state_hooked(&program, sink, cost, fuel, &mut hot).expect("hooked run");
            t.elapsed().as_nanos() as u64
        });
        worst = worst.max(hooked as f64 / plain.max(1) as f64);
    }
    worst
}

/// The scalar-evolution snapshot ([`tables::scev_rows`]), exact. Scev
/// keeps the committed pre-screen baseline's pair universe and only
/// adds disjointness proofs to it, some loop gains a `DistanceAtLeast`
/// verdict, and the value-agreement replay refutes no claim.
pub struct Scev;

impl Gate for Scev {
    fn name(&self) -> &'static str {
        "scev"
    }

    fn measure(&self) -> Measured {
        snapshot(
            tables::scev_rows(DataSize::Small)
                .iter()
                .map(tables::ScevRow::row),
        )
    }

    fn invariants(&self, cur: &Rows) -> Vec<String> {
        use Rule::*;
        let mut out = broken(
            cur,
            &[
                AtLeast("disjoint", "prescreen_disjoint"),
                Is("sound", 1.0),
                Is("slice_violations", 0.0),
                Is("distance_violations", 0.0),
                Somewhere("distance_pairs"),
            ],
        );
        let path = baseline_path(&baseline_dir(), "prescreen");
        let prescreen = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| load(&Prescreen, &text));
        let prescreen = match prescreen {
            Ok(rows) => rows,
            Err(e) => {
                out.push(format!("{} unreadable: {e}", path.display()));
                return out;
            }
        };
        for (name, r) in cur {
            match prescreen.get(name) {
                None => out.push(format!("{name}: missing from the pre-screen baseline")),
                Some(p) if p.get("pairs") != r.get("pairs") => {
                    out.push(format!(
                        "{name}: pair universe differs from the pre-screen's"
                    ));
                }
                Some(p) if get(r, "disjoint") < get(p, "disjoint") => {
                    out.push(format!("{name}: disjoint below the pre-screen baseline's"));
                }
                Some(_) => {}
            }
        }
        out
    }
}
