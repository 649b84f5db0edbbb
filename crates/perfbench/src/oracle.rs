//! The output oracle: for every (program, size), the numbers a correct
//! pipeline produces, committed as `expected.json`.
//!
//! Every batch call, tiered call and server response the benchmark
//! makes is checked against it; `perfbench expect --update`
//! regenerates it after an intentional change to the pipeline's
//! output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use benchsuite::DataSize;
use cfgir::{extract_candidates, rescue_program};
use jrpm::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use jrpm::{annotate, AnnotateOptions};
use obs::json::{parse, quote, Value};
use test_tracer::{Profile, TestTracer, TracerConfig};
use tvm::record::{Recording, RecordingSink};
use tvm::{Interp, NullSink, Program, VmError};

/// The committed oracle, compiled into the binary.
pub const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Where `perfbench expect --update` writes the oracle.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// The two input sizes the workloads use.
pub const SIZES: [DataSize; 2] = [DataSize::Small, DataSize::Default];

/// Lower-case name of a data size, as written in `expected.json`.
pub fn size_name(size: DataSize) -> &'static str {
    match size {
        DataSize::Small => "small",
        DataSize::Default => "default",
        DataSize::Large => "large",
    }
}

/// FNV-1a, fed through `fmt::Write` so a value's rendering is hashed
/// as it is formatted, without building the string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A stable 64-bit digest of a tracer profile: FNV-1a over its `Debug`
/// rendering, which walks only ordered maps.
pub fn digest(profile: &Profile) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{profile:?}");
    h.0
}

/// The program the pipeline profiles: the rescued variant when a
/// rescue transform applies, otherwise `program` itself.
pub fn profiled_program(program: &Program) -> Program {
    let rescue = rescue_program(program);
    if rescue.rescued.is_empty() {
        program.clone()
    } else {
        rescue.program
    }
}

/// The event stream of the pipeline's profiling pass over `program`
/// (rescue, extraction, profiling annotation), as a recording — what
/// a `ReplayMapped` request replays.
///
/// # Errors
///
/// Any [`VmError`] from annotation or interpretation.
pub fn profiling_recording(program: &Program) -> Result<Recording, VmError> {
    let program = profiled_program(program);
    let candidates = extract_candidates(&program);
    let annotated = annotate(&program, &candidates, &AnnotateOptions::profiling())?;
    let mut sink = RecordingSink::new();
    Interp::run(&annotated, &mut sink)?;
    Ok(sink.into_recording())
}

/// The expected outputs for one program at one size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Selected loop ids, in selection order.
    pub chosen: Vec<u32>,
    /// Plain sequential cycles of the profiled program.
    pub seq_cycles: u64,
    /// Profiling-run cycles.
    pub profile_cycles: u64,
    /// Events the profiling run recorded.
    pub recorded_events: u64,
    /// Whole-program cycles with the selected loops speculative.
    pub tls_cycles: u64,
    /// [`digest`] of the pipeline's (masked) tracer profile.
    pub profile_digest: u64,
    /// [`digest`] of the profile an unmasked tracer builds from the
    /// profiling recording — what a `ReplayMapped` request returns.
    pub replay_digest: u64,
}

/// The observed outputs of one pipeline-shaped call.
struct Observed<'a> {
    chosen: Vec<u32>,
    seq_cycles: u64,
    profile_cycles: u64,
    recorded_events: u64,
    tls_cycles: u64,
    profile: &'a Profile,
}

impl<'a> From<&'a PipelineReport> for Observed<'a> {
    fn from(r: &'a PipelineReport) -> Observed<'a> {
        Observed {
            chosen: r.selection.chosen.iter().map(|c| c.loop_id.0).collect(),
            seq_cycles: r.seq_cycles,
            profile_cycles: r.profile_cycles,
            recorded_events: r.obs.recorded_events,
            tls_cycles: r.actual.tls_cycles,
            profile: &r.profile,
        }
    }
}

/// Expected outputs by program name and size.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    entries: BTreeMap<(String, &'static str), Expected>,
}

fn mismatch(what: &str, want: impl std::fmt::Debug, got: impl std::fmt::Debug) -> String {
    format!("{what}: expected {want:?}, got {got:?}")
}

impl Oracle {
    /// The oracle compiled into this binary.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn committed() -> Result<Oracle, String> {
        Oracle::parse(EXPECTED_JSON)
    }

    /// Parses an `expected.json` document.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let rows = doc
            .get("programs")
            .and_then(Value::as_arr)
            .ok_or("expected.json: no \"programs\" array")?;
        let mut entries = BTreeMap::new();
        for row in rows {
            let text = |k: &str| row.get(k).and_then(Value::as_str);
            let num = |k: &str| {
                row.get(k)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("expected.json: bad or missing {k}"))
            };
            let hex = |k: &str| {
                text(k)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| format!("expected.json: bad or missing {k}"))
            };
            let name = text("name").ok_or("expected.json: entry without a name")?;
            let size = SIZES
                .into_iter()
                .map(size_name)
                .find(|&s| Some(s) == text("size"))
                .ok_or_else(|| format!("expected.json: {name}: unknown size"))?;
            let chosen = row
                .get("chosen")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("expected.json: {name}: no chosen list"))?
                .iter()
                .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| format!("expected.json: {name}: bad loop id"))?;
            let e = Expected {
                chosen,
                seq_cycles: num("seq_cycles")?,
                profile_cycles: num("profile_cycles")?,
                recorded_events: num("recorded_events")?,
                tls_cycles: num("tls_cycles")?,
                profile_digest: hex("profile_digest")?,
                replay_digest: hex("replay_digest")?,
            };
            entries.insert((name.to_string(), size), e);
        }
        Ok(Oracle { entries })
    }

    /// Recomputes the oracle from the current pipeline: every suite
    /// program at both sizes.
    ///
    /// # Errors
    ///
    /// The failing program's name and its [`VmError`].
    pub fn compute() -> Result<Oracle, String> {
        let cfg = PipelineConfig::default();
        let mut entries = BTreeMap::new();
        for size in SIZES {
            for bench in benchsuite::all() {
                let fail = |e: VmError| format!("{} ({}): {e}", bench.name, size_name(size));
                let program = (bench.build)(size);
                let r = run_pipeline(&program, &cfg).map_err(fail)?;
                let recording = profiling_recording(&program).map_err(fail)?;
                let mut tracer = TestTracer::new(TracerConfig::default());
                recording.replay(&mut tracer);
                let o = Observed::from(&r);
                entries.insert(
                    (bench.name.to_string(), size_name(size)),
                    Expected {
                        chosen: o.chosen,
                        seq_cycles: o.seq_cycles,
                        profile_cycles: o.profile_cycles,
                        recorded_events: o.recorded_events,
                        tls_cycles: o.tls_cycles,
                        profile_digest: digest(o.profile),
                        replay_digest: digest(&tracer.into_profile()),
                    },
                );
            }
        }
        Ok(Oracle { entries })
    }

    /// Renders the oracle as `expected.json`, one program per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|((name, size), e)| {
                let chosen: Vec<String> = e.chosen.iter().map(u32::to_string).collect();
                format!(
                    "    {{\"name\": {}, \"size\": \"{size}\", \"chosen\": [{}], \
                     \"seq_cycles\": {}, \"profile_cycles\": {}, \"recorded_events\": {}, \
                     \"tls_cycles\": {}, \"profile_digest\": \"{:016x}\", \
                     \"replay_digest\": \"{:016x}\"}}",
                    quote(name),
                    chosen.join(", "),
                    e.seq_cycles,
                    e.profile_cycles,
                    e.recorded_events,
                    e.tls_cycles,
                    e.profile_digest,
                    e.replay_digest
                )
            })
            .collect();
        format!("{{\n  \"programs\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }

    /// Human-readable differences from `other`, one per entry.
    pub fn diff(&self, other: &Oracle) -> Vec<String> {
        let mut out = Vec::new();
        for (key, e) in &self.entries {
            match other.entries.get(key) {
                None => out.push(format!("{} ({}): missing", key.0, key.1)),
                Some(o) if o != e => out.push(format!("{} ({}): {e:?} != {o:?}", key.0, key.1)),
                Some(_) => {}
            }
        }
        for key in other.entries.keys() {
            if !self.entries.contains_key(key) {
                out.push(format!("{} ({}): unexpected", key.0, key.1));
            }
        }
        out
    }

    fn get(&self, name: &str, size: DataSize) -> Result<&Expected, String> {
        self.entries
            .get(&(name.to_string(), size_name(size)))
            .ok_or_else(|| format!("no expected outputs for {name} ({})", size_name(size)))
    }

    fn check(&self, name: &str, size: DataSize, o: &Observed<'_>) -> Result<(), String> {
        let e = self.get(name, size)?;
        let checks = [
            (
                e.chosen != o.chosen,
                mismatch("chosen", &e.chosen, &o.chosen),
            ),
            (
                e.seq_cycles != o.seq_cycles,
                mismatch("seq_cycles", e.seq_cycles, o.seq_cycles),
            ),
            (
                e.profile_cycles != o.profile_cycles,
                mismatch("profile_cycles", e.profile_cycles, o.profile_cycles),
            ),
            (
                e.recorded_events != o.recorded_events,
                mismatch("recorded_events", e.recorded_events, o.recorded_events),
            ),
            (
                e.tls_cycles != o.tls_cycles,
                mismatch("tls_cycles", e.tls_cycles, o.tls_cycles),
            ),
        ];
        if let Some((_, msg)) = checks.into_iter().find(|(bad, _)| *bad) {
            return Err(msg);
        }
        let d = digest(o.profile);
        if d != e.profile_digest {
            return Err(format!(
                "profile digest: expected {:016x}, got {d:016x}",
                e.profile_digest
            ));
        }
        Ok(())
    }

    /// Checks a `run_pipeline` or `run_tiered` report.
    ///
    /// # Errors
    ///
    /// The first mismatching field.
    pub fn check_report(
        &self,
        name: &str,
        size: DataSize,
        r: &PipelineReport,
    ) -> Result<(), String> {
        self.check(name, size, &Observed::from(r))
    }

    /// Checks a replay of the profiling recording: its event count,
    /// and the unmasked tracer's profile when one was built.
    ///
    /// # Errors
    ///
    /// A mismatching event count or profile digest.
    pub fn check_replay(
        &self,
        name: &str,
        size: DataSize,
        events: u64,
        profile: Option<&Profile>,
    ) -> Result<(), String> {
        let e = self.get(name, size)?;
        if events != e.recorded_events {
            return Err(mismatch("replayed events", e.recorded_events, events));
        }
        let Some(profile) = profile else {
            return Ok(());
        };
        let d = digest(profile);
        if d != e.replay_digest {
            return Err(format!(
                "replay digest: expected {:016x}, got {d:016x}",
                e.replay_digest
            ));
        }
        Ok(())
    }

    /// Checks `seq_cycles` against an independent plain interpreter run
    /// of the profiled program (`Interp::run` into a `NullSink`).
    ///
    /// # Errors
    ///
    /// A [`VmError`] or a cycle mismatch.
    pub fn check_plain(&self, name: &str, size: DataSize, program: &Program) -> Result<(), String> {
        let e = self.get(name, size)?;
        let plain = Interp::run(&profiled_program(program), &mut NullSink)
            .map_err(|err| format!("plain run: {err}"))?;
        if plain.cycles != e.seq_cycles {
            return Err(mismatch("plain-run cycles", e.seq_cycles, plain.cycles));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_oracle_round_trips() {
        let oracle = Oracle::committed().expect("expected.json parses");
        assert_eq!(oracle.entries.len(), 26 * SIZES.len());
        let again = Oracle::parse(&oracle.to_json()).expect("rendered oracle parses");
        assert!(oracle.diff(&again).is_empty());
    }

    #[test]
    fn digest_separates_profiles() {
        let a = Profile::default();
        let b = Profile {
            events: 1,
            ..Profile::default()
        };
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn small_programs_match_the_committed_oracle() {
        let oracle = Oracle::committed().expect("expected.json parses");
        let cfg = PipelineConfig::default();
        for bench in benchsuite::all() {
            let program = (bench.build)(DataSize::Small);
            let r = run_pipeline(&program, &cfg).expect("pipeline runs");
            oracle
                .check_report(bench.name, DataSize::Small, &r)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            oracle
                .check_plain(bench.name, DataSize::Small, &program)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        }
    }
}
