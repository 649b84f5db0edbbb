//! Stable diagnostic codes shared by `jrpm-lint` and its `--explain`
//! mode.
//!
//! Codes are append-only — downstream tooling keys on them — and every
//! code any binary can emit MUST have an explanation here. The
//! `explanations_cover_every_emittable_code` test pins that
//! self-consistency: adding an emission site means adding the code to
//! [`EMITTABLE`], which fails the test until [`EXPLANATIONS`] gains a
//! matching entry.

/// Stable diagnostic codes with one-paragraph explanations, shown by
/// `jrpm-lint --explain <code>`.
pub const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "PT001",
        "provably-disjoint access pairs: in this loop, N load/store pairs that the \
         structural memory-dependence rules (PR 1) had to treat as may-alias were \
         proven to touch disjoint abstract objects by the Andersen points-to \
         analysis. These pairs no longer mask speculative-thread candidates, so a \
         loop carrying PT001 is analysed more precisely, never less. The count is \
         the `via_pointsto` figure from `cfgir::ProgramCandidates::claims`.",
    ),
    (
        "PT002",
        "allocation site escapes via a static variable: an object or array \
         allocated in this loop's function is reachable from a static (global) \
         variable, so every opaque call in the program may read or write it. \
         Stores through such a site cannot be localised by the points-to escape \
         analysis; keeping the value out of statics (or threading it through \
         parameters) lets the pre-screen shrink call summaries around it.",
    ),
    (
        "TR001",
        "loop rescued: a demoted loop whose recurrence is a reduction over an \
         associative integer operator was rewritten by the loop-rescue pass into \
         private partial results, folded back into the cell on every loop exit. \
         Reduction is rescue's only transform. The diagnostic names the transform, \
         its target cell and the recurrence it removed; the attached legality proof \
         was re-checked by the independent verifier (`cfgir::rescue::verify`) \
         before the variant replaced the loop, so downstream profiling and \
         selection run on the transformed code.",
    ),
    (
        "TR002",
        "rescue rejected: the loop stays demoted as written. Either the reduction \
         matcher examined a static or field recurrence of the loop and could not \
         prove a condition of the rewrite — an integer cell, an associative \
         operator, no other access to the cell (transform `reduction`) — or no \
         recurrence of the loop is a reduction candidate at all, such as an array \
         recurrence (transform `rescue`). The diagnostic carries the transform, the reason, \
         and — when the rejection is dependence-shaped — the violating dependence \
         witness (source/destination pcs and the overlap kind from the \
         memory-dependence pre-screen). Restructuring the loop to break that \
         dependence is what would let the rescue pass lift it.",
    ),
    (
        "TI001",
        "loop stuck in Tracing past its budget: the online tier controller (PR 7) \
         promoted and patched this loop, but across more epochs than the configured \
         trace budget every one of its entries found the TEST comparator banks \
         already held by enclosing loops, so it never produced a banked profile \
         entry. The controller demotes it dynamically. The witness lists, per \
         epoch, the untraced-entry count and the bank capacity; more comparator \
         banks (TracerConfig::n_banks) or demoting the enclosing loop are what \
         would let it trace.",
    ),
    (
        "TI002",
        "selection verdict flapped: windowed Equation 2 re-selection committed \
         opposite verdicts for this loop more times than the flap limit, even \
         through the hysteresis filter. This typically means two decompositions of \
         the same nest predict near-identical speedups, so epoch-level noise (or a \
         promotion wave re-annotating the nest) keeps flipping the winner. The \
         witness quotes each committed flip with its windowed estimate; raising \
         the hysteresis or window size stabilises the choice, and the final \
         full-image selection is authoritative either way.",
    ),
    (
        "SV001",
        "scalar-evolution distance sharpening: the scev analysis (`cfgir::scev`) \
         derived closed-form evolutions for this loop's inductors and proved a \
         dependence *distance vector* for N affine access pairs the boolean \
         pre-screen had to leave may-alias — either the pair can never collide \
         (non-integral distance, now Disjoint) or it collides only across \
         iterations exactly d apart (DistanceAtLeast(d)). Positive-distance RAW \
         chains floor Equation 2's speedup estimate at d-way overlap; \
         anti-dependences impose no floor because TLS versioning absorbs them. \
         The dynamic value-agreement gate replays every benchmark and \
         cross-checks each claimed distance against the recorded address stream.",
    ),
    (
        "SL001",
        "certified pre-computation slices: for N loop-carried scalars of this loop \
         (inductors and static recurrences with closed-form evolutions), \
         `cfgir::slice` extracted a minimal backward pre-computation slice — the \
         instructions a speculative thread would run to pre-compute the scalar's \
         next value, Prophet-style. Each slice carries a machine-checkable \
         certificate (inputs, evolution claim, cost bound) that was re-derived by \
         the independent verifier (`cfgir::slice::verify`); slices the verifier \
         could not re-prove are counted as rejected and never surface. The \
         value-agreement gate replays each benchmark and checks every slice's \
         predicted per-iteration value against the recorded stream.",
    ),
];

/// Every code an emission site in this crate's binaries can produce.
/// Keep in sync with the `diags.push` sites in `src/bin/lint.rs`.
pub const EMITTABLE: &[&str] = &[
    "PT001", "PT002", "TR001", "TR002", "TI001", "TI002", "SV001", "SL001",
];

/// The explanation for one code, if known.
pub fn explain(code: &str) -> Option<&'static str> {
    EXPLANATIONS
        .iter()
        .find(|(c, _)| *c == code)
        .map(|(_, text)| *text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explanations_cover_every_emittable_code() {
        for code in EMITTABLE {
            assert!(
                explain(code).is_some(),
                "diagnostic code {code} is emittable but has no --explain entry"
            );
        }
    }

    #[test]
    fn every_explanation_is_emittable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, text) in EXPLANATIONS {
            assert!(seen.insert(*code), "duplicate explanation for {code}");
            assert!(
                EMITTABLE.contains(code),
                "explanation for {code} but no emission site lists it"
            );
            assert!(!text.is_empty());
        }
    }
}
