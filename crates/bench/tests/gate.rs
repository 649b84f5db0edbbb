//! Sabotage tests for the regression gates: each committed baseline
//! passes against itself, and every kind of drift the engine must
//! catch fails — a field moved past its tolerance, a field or a row
//! dropped or added, a document breaking an invariant — without
//! measuring anything, so the tests are deterministic.

use jrpm_bench::gate::{self, Gate, Measured, Rows, Tolerance};
use std::path::PathBuf;

fn committed(g: &dyn Gate) -> (String, Rows) {
    let path = gate::baseline_path(&gate::baseline_dir(), g.name());
    let text = std::fs::read_to_string(&path).expect("committed baseline reads");
    let rows = gate::load(g, &text).expect("committed baseline parses");
    assert!(!rows.is_empty(), "{}: baseline has rows", g.name());
    (text, rows)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gate-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// A value `tol` does not admit against `base`, if there is one.
fn past(tol: Tolerance, base: f64) -> Option<f64> {
    match tol {
        Tolerance::Exact => Some(base + 1.0),
        Tolerance::Relative(f) | Tolerance::MaxGrowth(f) => Some(base * (1.0 + 2.0 * f) + 1.0),
        Tolerance::Absolute(d) => Some(base + 2.0 * d),
        Tolerance::MaxDrop(f) => Some(base * (1.0 - 2.0 * f) - 1.0),
        Tolerance::Any => None,
    }
}

#[test]
fn every_committed_baseline_passes_against_itself() {
    let dir = gate::baseline_dir();
    for g in gate::all() {
        let (doc, _) = committed(g.as_ref());
        let m = Measured {
            doc,
            ..Measured::default()
        };
        let violations = gate::check(g.as_ref(), &m, &dir, false);
        assert!(violations.is_empty(), "{}: {violations:?}", g.name());
    }
}

#[test]
fn every_field_moved_past_its_tolerance_fails() {
    for g in gate::all() {
        let (_, base) = committed(g.as_ref());
        let mut gated = 0;
        for (row, fields) in &base {
            for (field, &v) in fields {
                let Some(moved) = past(g.tolerance(field), v) else {
                    continue;
                };
                let mut cur = base.clone();
                cur.get_mut(row).unwrap().insert(field.clone(), moved);
                let violations = gate::diff(g.as_ref(), &base, &cur);
                assert_eq!(violations.len(), 1, "{}: {row}.{field}", g.name());
                gated += 1;
            }
        }
        assert!(gated > 0, "{}: gates no field", g.name());
    }
}

#[test]
fn a_field_or_row_on_one_side_only_fails_in_both_directions() {
    for g in gate::all() {
        let name = g.name();
        let (_, base) = committed(g.as_ref());
        let (row, fields) = base.iter().next().unwrap();
        let field = fields.keys().next().unwrap();
        let mut fewer_fields = base.clone();
        fewer_fields.get_mut(row).unwrap().remove(field);
        let mut fewer_rows = base.clone();
        fewer_rows.remove(row);
        let mut more_rows = base.clone();
        more_rows.insert("Added".into(), fields.clone());
        for (what, smaller, larger) in [
            ("field", &fewer_fields, &base),
            ("row", &fewer_rows, &base),
            ("added row", &base, &more_rows),
        ] {
            let dropped = gate::diff(g.as_ref(), larger, smaller);
            assert_eq!(dropped.len(), 1, "{name}: dropped {what}: {dropped:?}");
            let appeared = gate::diff(g.as_ref(), smaller, larger);
            assert_eq!(appeared.len(), 1, "{name}: appeared {what}: {appeared:?}");
        }
    }
}

/// Zeroes `field` in the first row carrying it, keeping its old value
/// under `was`.
fn zeroed(field: &str) -> (String, String) {
    let key = format!("\"{field}\": ");
    (key.clone(), format!("{key}0, \"was\": "))
}

#[test]
fn a_document_breaking_an_invariant_fails_and_is_never_written() {
    let text = |from: &str, to: &str| (from.to_string(), to.to_string());
    let sabotage = [
        ("obs", zeroed("recorded_events")),
        (
            "prescreen",
            text(
                "\"baseline_disjoint\": 0, \"disjoint\": 1",
                "\"baseline_disjoint\": 2, \"disjoint\": 1",
            ),
        ),
        ("rescue", text("\"reductions\": 1", "\"reductions\": 2")),
        (
            "tier",
            text("\"matches_offline\": 1", "\"matches_offline\": 0"),
        ),
        ("tier", zeroed("candidates")),
        ("scev", text("\"sound\": 1", "\"sound\": 0")),
        (
            "serve",
            text("\"contained_panics\": 0", "\"contained_panics\": 1"),
        ),
        ("serve", zeroed("server_vs_direct")),
        ("serve", zeroed("replay_vs_pipeline_p50")),
    ];
    let gates = gate::all();
    for g in &gates {
        assert!(sabotage.iter().any(|s| s.0 == g.name()), "{}", g.name());
    }
    let out = scratch("invariant");
    for (name, (from, to)) in &sabotage {
        let g = gates.iter().find(|g| g.name() == *name).unwrap().as_ref();
        let (doc, _) = committed(g);
        assert!(doc.contains(from.as_str()), "{name}: {from} present");
        let m = Measured {
            doc: doc.replacen(from.as_str(), to, 1),
            ..Measured::default()
        };
        assert!(
            !gate::check(g, &m, &gate::baseline_dir(), false).is_empty(),
            "{name}: {to} passed"
        );
        // the invariants alone refuse it, even without a baseline
        assert!(
            !gate::check(g, &m, &out, true).is_empty(),
            "{name}: update accepted {to}"
        );
        assert!(!gate::baseline_path(&out, name).exists(), "{name}: written");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn an_empty_document_fails_every_gate_and_is_never_written() {
    let out = scratch("empty");
    for g in gate::all() {
        let m = Measured {
            doc: gate::rows_json("benchmarks", &[]),
            ..Measured::default()
        };
        let checked = gate::check(g.as_ref(), &m, &gate::baseline_dir(), false);
        assert!(!checked.is_empty(), "{}: empty document passed", g.name());
        let updated = gate::check(g.as_ref(), &m, &out, true);
        assert!(!updated.is_empty(), "{}: update accepted it", g.name());
        assert!(!gate::baseline_path(&out, g.name()).exists());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn update_refuses_a_failed_live_measurement_and_writes_a_clean_one() {
    let out = scratch("update");
    let tier = gate::Tier;
    let (doc, _) = committed(&tier);
    let mut m = Measured {
        doc: doc.clone(),
        live: vec!["counting-tier overhead 2.50x breaches the 2.0x bound".into()],
        ..Measured::default()
    };
    assert_eq!(gate::check(&tier, &m, &out, true).len(), 1);
    assert!(!gate::baseline_path(&out, "tier").exists());
    m.live.clear();
    assert!(gate::check(&tier, &m, &out, true).is_empty());
    let written = std::fs::read_to_string(gate::baseline_path(&out, "tier")).unwrap();
    assert_eq!(written, doc);
    let _ = std::fs::remove_dir_all(&out);
}
