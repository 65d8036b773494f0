//! Snapshot compatibility: version-1 snapshot files written *before* the
//! arena-backed column store existed must keep loading, version-2 files
//! (the bulk-arena encoding), version-3 files (codec-negotiated rows +
//! persisted norms) and version-4 files (v3 plus the row-bucket skeleton)
//! must load to the *same bits*, and the arena-backed query kernels must
//! reproduce the pre-arena answers bit-for-bit.
//!
//! `tests/fixtures/v1_grid12.snap` was generated by the pre-arena build
//! (per-column `Vec<SparseVec>` store) from `generators::grid_2d(12, 12,
//! 0.5, 2.0, 9)` with the default config, together with
//! `v1_grid12.expected`: lines of `p q bits` where `bits` is the hex
//! `f64::to_bits` of the resistance that build computed for `(p, q)`.
//! `tests/fixtures/v2_grid12.snap`, `v3_grid12.snap` and `v4_grid12.snap`
//! are the same estimator re-encoded in the v2 / v3 / v4 formats (see the
//! `regenerate_*` tests below; the v4 fixture is also exactly what
//! `effres-cli build v3_grid12.snap --output v4_grid12.snap` writes).

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::snapshot::{
    load_snapshot, read_snapshot, write_snapshot, write_snapshot_v1, write_snapshot_v2,
    write_snapshot_v3,
};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn expected_queries() -> Vec<(usize, usize, f64)> {
    std::fs::read_to_string(fixture("v1_grid12.expected"))
        .expect("expected-values fixture")
        .lines()
        .map(|line| {
            let mut parts = line.split_whitespace();
            let p: usize = parts.next().expect("p").parse().expect("p");
            let q: usize = parts.next().expect("q").parse().expect("q");
            let bits = u64::from_str_radix(parts.next().expect("bits"), 16).expect("bits");
            (p, q, f64::from_bits(bits))
        })
        .collect()
}

#[test]
fn v1_snapshot_loads_into_the_arena_backed_estimator() {
    let snapshot = load_snapshot(fixture("v1_grid12.snap")).expect("v1 snapshot must load");
    let estimator = &snapshot.estimator;
    assert_eq!(estimator.node_count(), 144);
    let labels = snapshot.labels.as_deref().expect("fixture has labels");
    assert_eq!(labels.len(), 144);
    assert_eq!(labels[0], 100);
    assert_eq!(labels[143], 100 + 143 * 3);
    for (p, q, expected) in expected_queries() {
        let got = estimator.query(p, q).expect("in bounds");
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "({p},{q}): arena-backed query {got} differs from pre-arena {expected}"
        );
    }
}

#[test]
fn committed_fixtures_store_only_finite_values_with_the_sign_bit_clear() {
    // Lemma 1: every stored value of Z̃ is nonnegative, and no fixture
    // stores a -0.0 either, so a decoded value with its sign bit set can
    // only be corruption.
    for name in [
        "v1_grid12.snap",
        "v2_grid12.snap",
        "v3_grid12.snap",
        "v4_grid12.snap",
    ] {
        let loaded = load_snapshot(fixture(name)).expect("fixture must load");
        let values = loaded.estimator.approximate_inverse().arena_values();
        assert!(!values.is_empty(), "{name}");
        assert!(
            values
                .iter()
                .all(|v| v.is_finite() && !v.is_sign_negative()),
            "{name}"
        );
    }
}

#[test]
fn v2_and_v3_fixtures_load_bit_identical_to_the_v1_fixture() {
    // The same estimator through every on-disk encoding: the per-column v1
    // records, the v2 bulk arena blocks, the v3 codec-negotiated blocks and
    // v4's v3 plus skeleton must load into byte-identical arenas and answer
    // every pinned query with the same bits.
    let v1 = load_snapshot(fixture("v1_grid12.snap")).expect("v1 snapshot must load");
    let a = v1.estimator.approximate_inverse();
    for name in ["v2_grid12.snap", "v3_grid12.snap", "v4_grid12.snap"] {
        let loaded = load_snapshot(fixture(name)).expect("fixture must load");
        assert_eq!(v1.labels, loaded.labels, "{name}");
        assert_eq!(v1.estimator.stats(), loaded.estimator.stats(), "{name}");
        let b = loaded.estimator.approximate_inverse();
        assert_eq!(a.col_ptr(), b.col_ptr(), "{name}");
        assert_eq!(a.arena_rows(), b.arena_rows(), "{name}");
        assert!(a
            .arena_values()
            .iter()
            .zip(b.arena_values())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        for (p, q, expected) in expected_queries() {
            let got = loaded.estimator.query(p, q).expect("in bounds");
            assert_eq!(got.to_bits(), expected.to_bits(), "{name} ({p},{q})");
        }
    }
    // Only the v3 load arrives with its norm table resident, and that table
    // matches the sweep the older formats would pay for at serve time.
    let v3 = load_snapshot(fixture("v3_grid12.snap")).expect("v3 snapshot must load");
    assert!(v1.estimator.cached_column_norms().is_none());
    let primed = v3
        .estimator
        .cached_column_norms()
        .expect("v3 loads the norms block");
    let swept = v1.estimator.approximate_inverse().column_norms_squared();
    assert_eq!(primed.len(), swept.len());
    assert!(primed
        .iter()
        .zip(&swept)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}

#[test]
fn rebuilding_the_fixture_graph_matches_the_v1_snapshot_bitwise() {
    // The estimator pipeline itself must still agree with what the pre-arena
    // build produced for the same graph and config — the arena refactor, the
    // u32 index narrowing and the selection-based pruning changed the
    // storage and the complexity, not a single output bit.
    let graph = generators::grid_2d(12, 12, 0.5, 2.0, 9).expect("generator");
    let rebuilt =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let snapshot = load_snapshot(fixture("v1_grid12.snap")).expect("v1 snapshot must load");
    for (p, q, expected) in expected_queries() {
        let got = rebuilt.query(p, q).expect("in bounds");
        assert_eq!(got.to_bits(), expected.to_bits(), "({p},{q})");
    }
    let old = snapshot.estimator.approximate_inverse();
    let new = rebuilt.approximate_inverse();
    assert_eq!(old.col_ptr(), new.col_ptr());
    assert_eq!(old.arena_rows(), new.arena_rows());
    assert!(old
        .arena_values()
        .iter()
        .zip(new.arena_values())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn snapshots_written_today_use_v4_and_round_trip() {
    // The writer now emits format version 4 (codec-negotiated row block,
    // persisted norms and skeleton): a snapshot produced by the
    // arena-backed estimator must be readable — via the version
    // auto-detection — answer identically, and hand the loader a ready norm
    // table.
    let graph = generators::grid_2d(9, 9, 1.0, 1.0, 4).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &estimator, None).expect("write");
    assert_eq!(&bytes[..8], b"EFRSNAP\n", "magic");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        4,
        "version"
    );
    let reread = read_snapshot(&mut bytes.as_slice()).expect("read");
    assert!(reread.estimator.cached_column_norms().is_some());
    for &(p, q) in &[(0, 80), (5, 40), (17, 17), (80, 0)] {
        assert_eq!(
            estimator.query(p, q).expect("in bounds").to_bits(),
            reread.estimator.query(p, q).expect("in bounds").to_bits(),
            "({p},{q})"
        );
    }
}

#[test]
fn the_legacy_writers_still_produce_loadable_bytes() {
    // The v1, v2 and v3 writers stay available for compatibility tests and
    // fixture regeneration; fresh legacy bytes must keep round-tripping
    // through the auto-detecting reader.
    let graph = generators::grid_2d(9, 9, 1.0, 1.0, 4).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    for (write, version) in [
        (
            write_snapshot_v1
                as fn(
                    &mut Vec<u8>,
                    &EffectiveResistanceEstimator,
                    Option<&[u64]>,
                ) -> Result<(), effres_io::IoError>,
            1u32,
        ),
        (write_snapshot_v2, 2),
        (write_snapshot_v3, 3),
    ] {
        let mut bytes = Vec::new();
        write(&mut bytes, &estimator, None).expect("write legacy");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            version,
            "version"
        );
        let reread = read_snapshot(&mut bytes.as_slice()).expect("read");
        for &(p, q) in &[(0, 80), (5, 40), (33, 70)] {
            assert_eq!(
                estimator.query(p, q).expect("in bounds").to_bits(),
                reread.estimator.query(p, q).expect("in bounds").to_bits(),
                "v{version} ({p},{q})"
            );
        }
    }
}

/// Regenerates `v2_grid12.snap` from the committed v1 fixture (so both
/// fixtures describe the *same* estimator, labels included). Run manually
/// with `cargo test -p effres-io --test snapshot_migration -- --ignored
/// regenerate_v2_fixture` after an intentional format change, then commit
/// the file.
#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_v2_fixture() {
    let snapshot = load_snapshot(fixture("v1_grid12.snap")).expect("v1 snapshot must load");
    let file = std::fs::File::create(fixture("v2_grid12.snap")).expect("create fixture");
    let mut writer = std::io::BufWriter::new(file);
    write_snapshot_v2(&mut writer, &snapshot.estimator, snapshot.labels.as_deref())
        .expect("write v2 fixture");
    use std::io::Write as _;
    writer.flush().expect("flush fixture");
}

/// Regenerates `v3_grid12.snap` from the committed v1 fixture — same
/// estimator, labels included — in the v3 format. Run manually with
/// `cargo test -p effres-io --test snapshot_migration -- --ignored
/// regenerate_v3_fixture` after an intentional format change, then commit
/// the file.
#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_v3_fixture() {
    let snapshot = load_snapshot(fixture("v1_grid12.snap")).expect("v1 snapshot must load");
    let file = std::fs::File::create(fixture("v3_grid12.snap")).expect("create fixture");
    let mut writer = std::io::BufWriter::new(file);
    write_snapshot_v3(&mut writer, &snapshot.estimator, snapshot.labels.as_deref())
        .expect("write v3 fixture");
    use std::io::Write as _;
    writer.flush().expect("flush fixture");
}

/// Regenerates `v4_grid12.snap` from the committed v3 fixture — same
/// estimator, labels included — in the current format, as `effres-cli
/// build v3_grid12.snap --output v4_grid12.snap` does. Run manually with
/// `cargo test -p effres-io --test snapshot_migration -- --ignored
/// regenerate_v4_fixture` after an intentional format change, then commit
/// the file.
#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_v4_fixture() {
    let snapshot = load_snapshot(fixture("v3_grid12.snap")).expect("v3 snapshot must load");
    let file = std::fs::File::create(fixture("v4_grid12.snap")).expect("create fixture");
    let mut writer = std::io::BufWriter::new(file);
    write_snapshot(&mut writer, &snapshot.estimator, snapshot.labels.as_deref())
        .expect("write v4 fixture");
    use std::io::Write as _;
    writer.flush().expect("flush fixture");
}

#[test]
fn every_older_fixture_reencodes_to_the_v4_fixture_byte_for_byte() {
    // `effres-cli build <old.snap> --output <new.snap>` is a resident load
    // and a `write_snapshot`: from any version it must write exactly the
    // committed v4 bytes, skeleton block included, since the writer takes
    // the skeleton from the loaded arena and the loader derives it from
    // the same rows.
    let v4 = std::fs::read(fixture("v4_grid12.snap")).expect("v4 fixture");
    assert_eq!(
        u32::from_le_bytes(v4[8..12].try_into().expect("4 bytes")),
        4,
        "version"
    );
    for name in ["v1_grid12.snap", "v2_grid12.snap", "v3_grid12.snap"] {
        let loaded = load_snapshot(fixture(name)).expect("fixture must load");
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &loaded.estimator, loaded.labels.as_deref()).expect("re-encode");
        assert!(bytes == v4, "{name} re-encodes to different bytes");
    }
    let v4_loaded = load_snapshot(fixture("v4_grid12.snap")).expect("v4 fixture loads");
    assert_eq!(v4_loaded.version, Some(4));
    let v3 = std::fs::read(fixture("v3_grid12.snap")).expect("v3 fixture");
    assert!(v4.len() > v3.len(), "v4 adds the skeleton block");
}
