//! Property tests over the workload-spec layer, plus replay of committed
//! regression fixtures.
//!
//! The corpus/stress tier leans on two properties proven here for the
//! whole generated space, not just the presets: (1) specs survive a serde
//! round trip unchanged, so a failing spec written to disk reproduces the
//! failure when read back; (2) any spec — generated, mutated, or
//! hand-written — either builds or returns a typed `BuildError`, never
//! panics, so the corpus oracles can treat "panic" as impossible and
//! classify every outcome. The spec file is the only on-disk form of a
//! step stream, so its reader is fuzzed too: byte-level mutants of the
//! committed presets load or fail with a typed `WorkloadError`.

use ace_workloads::{
    gen, minimize, preset_spec, GenParams, WorkloadError, WorkloadRegistry, WorkloadSpec,
};
use proptest::prelude::*;

/// The eight committed preset spec files.
const PRESET_FILES: [&str; 8] = [
    "check", "compress", "db", "jack", "javac", "jess", "mpeg", "mtrt",
];

/// Bytes a substitution mutant writes: digits and JSON punctuation.
const SUBSTITUTES: &[u8] = b"0123456789{}[]:,\"-+.eE ";

fn fuzz_params(raw: [u64; 12]) -> GenParams {
    // Windows straight from raw fuzz values: frequently reversed, zero, or
    // out of percentage range — gen's sanitization contract under test.
    GenParams {
        stages: (raw[0] as u32 % 40, raw[1] as u32 % 40),
        flat_pct: raw[2] as u32 % 300,
        shared_region_pct: raw[3] as u32 % 300,
        children: (raw[4] as u32 % 100, raw[5] as u32 % 100),
        large_children: (raw[6] as u32 % 20, raw[7] as u32 % 20),
        child_instr: (raw[8] % (1 << 44), raw[9] % (1 << 44)),
        ws_bytes: (raw[10] % (1 << 36), raw[11] % (1 << 36)),
        drift_pct: raw[0] as u32 % 200,
        target_total: (raw[1] % (1 << 45), raw[2] % (1 << 45)),
        ..GenParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_specs_round_trip_through_serde(seed in any::<u64>()) {
        let spec = gen(seed, &GenParams::default());
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: WorkloadSpec = serde_json::from_str(&json).expect("spec parses");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn generated_specs_always_validate_and_build(
        seed in any::<u64>(),
        raw in (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(a, b)| {
            let mut r = [0u64; 12];
            for (i, slot) in r.iter_mut().enumerate() {
                *slot = a.rotate_left(5 * i as u32) ^ b.rotate_right(7 * i as u32);
            }
            r
        }),
    ) {
        // Arbitrary degenerate windows: gen must sanitize to a spec that
        // validates and builds — never an error, never a panic.
        let spec = gen(seed, &fuzz_params(raw));
        prop_assert!(spec.validate().is_ok(), "gen produced invalid spec for seed {}", seed);
        let program = spec.build().expect("sanitized specs always build");
        prop_assert!(program.validate().is_ok());
    }

    #[test]
    fn mutated_specs_build_or_fail_typed_never_panic(
        seed in any::<u64>(),
        field in 0u32..12,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        // Clobber one field of a valid generated spec with arbitrary
        // values (reversed ranges, absurd magnitudes, zero counts): build
        // must return Ok or a typed BuildError — a panic fails this test.
        let mut spec = gen(seed, &GenParams::default());
        let stage = &mut spec.stages[0];
        match field {
            0 => spec.outer_iters = a as u32,
            1 => stage.calls_per_outer = a as u32,
            2 => stage.inner_iters = a as u32,
            3 => stage.child_calls = a as u32,
            4 => stage.stream_instr = a,
            5 => stage.region_bytes = a,
            6 => stage.children.instr = (a, b),
            7 => stage.children.ws_bytes = (a, b),
            8 => stage.children.large_ws_bytes = (a, b),
            9 => stage.children.leaf_instr = (a, b),
            10 => stage.children.leaves = (a as u32, b as u32),
            _ => {
                stage.children.random_pct = a as u32;
                stage.children.taken_pct = b as u32;
            }
        }
        match spec.build() {
            Ok(program) => prop_assert!(program.validate().is_ok()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn preset_specs_round_trip_through_serde(pick in 0usize..8) {
        let spec = preset_spec(PRESET_FILES[pick]).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_spec_files_load_or_fail_typed_never_panic(
        pick in 0usize..8,
        edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..4),
    ) {
        // Flip a byte, drop in a digit or a JSON punctuation mark, or cut
        // the file short; then read it as `ace run <spec path>` does. The
        // result builds or is a typed error — a panic fails this test.
        let preset = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("presets")
            .join(format!("{}.json", PRESET_FILES[pick]));
        let mut bytes = std::fs::read(preset).unwrap();
        for (kind, at, value) in edits {
            if bytes.is_empty() {
                break;
            }
            let at = (at % bytes.len() as u64) as usize;
            match kind {
                0 => bytes[at] ^= value.max(1),
                1 => bytes[at] = SUBSTITUTES[value as usize % SUBSTITUTES.len()],
                _ => bytes.truncate(at),
            }
        }
        let path = std::env::temp_dir()
            .join(format!("ace_spec_fuzz_{}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let outcome = WorkloadRegistry::builtin().resolve_program(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        match outcome {
            Ok(program) => prop_assert!(program.validate().is_ok()),
            Err(WorkloadError::Unknown { name, .. }) => {
                prop_assert!(false, "the spec path {} resolved as a name", name)
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

// ---------------------------------------------------------------------------
// Committed regression fixtures.
// ---------------------------------------------------------------------------

fn fixtures_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/regressions")
}

/// The seeded failure behind `reversed-leaf-instr.json`: a corpus workload
/// whose `leaf_instr` window came out reversed (the class of bug
/// `WorkloadSpec::validate` exists for — before it, `DetRng::range`
/// panicked with "empty range" deep inside `build_spec`). The minimizer
/// shrinks the multi-stage original to a single-stage, single-iteration
/// reproducer.
fn seeded_failure() -> WorkloadSpec {
    let mut spec = gen(0x5EED, &GenParams::default());
    spec.stages[0].children.leaf_instr = (12_000, 3_000);
    spec
}

fn leaf_instr_oracle(spec: &WorkloadSpec) -> bool {
    matches!(spec.build(), Err(e) if e.to_string().contains("leaf_instr"))
}

#[test]
fn minimizer_shrinks_the_seeded_failure_to_the_committed_fixture() {
    let original = seeded_failure();
    assert!(
        leaf_instr_oracle(&original),
        "seeded spec fails as intended"
    );
    let out = minimize(&original, &mut leaf_instr_oracle);
    assert!(out.accepted > 0, "minimizer made progress");
    assert_eq!(out.spec.outer_iters, 1);
    assert_eq!(out.spec.stages.len(), 1);
    assert!(
        out.spec.expected_total() * 10 < original.expected_total(),
        "minimal reproducer is much smaller: {} vs {}",
        out.spec.expected_total(),
        original.expected_total()
    );

    let path = fixtures_dir().join("reversed-leaf-instr.json");
    if std::env::var("ACE_BLESS_REGRESSIONS").is_ok() {
        std::fs::create_dir_all(fixtures_dir()).unwrap();
        let json = serde_json::to_string(&out.spec).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
    }
    let committed: WorkloadSpec = serde_json::from_str(
        &std::fs::read_to_string(&path)
            .expect("committed fixture exists (regenerate with ACE_BLESS_REGRESSIONS=1)"),
    )
    .expect("fixture parses");
    assert_eq!(
        committed, out.spec,
        "committed fixture is exactly the minimizer's output"
    );
}

#[test]
fn regression_fixtures_replay_as_typed_errors() {
    // Every committed fixture is a minimal failing spec: it must parse,
    // and building it must return a typed error — not succeed (the bug
    // would be fixed and the fixture stale) and not panic (the regression
    // the fixture pins).
    let dir = fixtures_dir();
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec: WorkloadSpec = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: fixture must parse: {e}", path.display()));
        let err = spec
            .build()
            .expect_err(&format!("{}: fixture must still fail", path.display()));
        assert!(!err.to_string().is_empty());
        replayed += 1;
    }
    assert!(replayed >= 1, "at least one committed regression fixture");
}

#[test]
fn reversed_leaf_instr_fixture_names_the_field() {
    let path = fixtures_dir().join("reversed-leaf-instr.json");
    let spec: WorkloadSpec = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let err = spec.build().unwrap_err();
    assert!(err.to_string().contains("leaf_instr"), "{err}");
}
