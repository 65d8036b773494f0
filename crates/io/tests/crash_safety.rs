//! Crash-safety tests of the snapshot writer: `save_snapshot` commits via
//! staging file + fsync + atomic rename, so a crash at **any** byte of the
//! write must leave the destination either bit-identical to the previous
//! snapshot or absent (when there was none) — never torn. The crash-point
//! harness (`save_snapshot_crashing_at`) runs the exact production staging
//! path and kills the write after a byte budget, leaving the truncated
//! staging file behind just like a real crash would.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::snapshot::{
    load_snapshot, save_snapshot, save_snapshot_crashing_at, write_snapshot,
};
use std::path::PathBuf;

fn estimator(seed: u64) -> EffectiveResistanceEstimator {
    let graph = generators::grid_2d(8, 8, 0.5, 2.0, seed).expect("generator");
    EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("effres-crash-safety");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Crash points covering every 512-byte block boundary (the granularity a
/// real torn write lands on) plus the format's edges: inside the magic,
/// right after it, after the version word, mid-file and the very last byte.
fn crash_points(total: u64) -> Vec<u64> {
    let mut points = vec![0, 1, 7, 8, 12, total / 2, total - 1];
    let mut at = 512;
    while at < total {
        points.push(at - 1);
        points.push(at);
        at += 512;
    }
    points.retain(|&k| k < total);
    points.sort_unstable();
    points.dedup();
    points
}

#[test]
fn no_crash_point_tears_an_existing_snapshot() {
    let dest = temp_path("atomic.snap");
    let _ = std::fs::remove_file(&dest);
    let old = estimator(5);
    let new = estimator(11);
    let labels: Vec<u64> = (0..new.node_count() as u64).map(|i| i * 3 + 1).collect();

    save_snapshot(&dest, &old, Some(&labels)).expect("initial save");
    let committed = std::fs::read(&dest).expect("committed bytes");

    // The new snapshot's full length bounds the crash points to try.
    let mut replacement = Vec::new();
    write_snapshot(&mut replacement, &new, Some(&labels)).expect("serialize");
    let total = replacement.len() as u64;
    assert!(total > 1024, "fixture too small to cover block boundaries");

    for crash_after in crash_points(total) {
        let done = save_snapshot_crashing_at(&dest, &new, Some(&labels), crash_after)
            .expect("only the simulated crash may fail");
        assert!(!done, "budget {crash_after} of {total} must crash");
        let on_disk = std::fs::read(&dest).expect("destination must survive");
        assert_eq!(
            on_disk, committed,
            "crash after {crash_after} bytes tore the destination"
        );
    }
    // And the survivor is not just bit-identical but still loadable.
    let snapshot = load_snapshot(&dest).expect("survivor loads");
    assert_eq!(snapshot.estimator.stats(), old.stats());

    // A budget past the end commits the replacement exactly as the normal
    // save would — same staging path, fsync, rename.
    let done =
        save_snapshot_crashing_at(&dest, &new, Some(&labels), total + 1).expect("clean commit");
    assert!(done);
    assert_eq!(std::fs::read(&dest).expect("new bytes"), replacement);
}

/// A directory of one test's own, removed with everything in it when the
/// guard drops: when its test ends, also on a panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = temp_path(&format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn crash_with_no_preexisting_snapshot_leaves_no_file() {
    // The crash leaves its truncated staging sibling beside `dest`, in a
    // directory that goes when the test ends.
    let dir = TempDir::new("fresh");
    let dest = dir.0.join("fresh.snap");
    let est = estimator(7);
    let done =
        save_snapshot_crashing_at(&dest, &est, None, 64).expect("simulated crash is not an error");
    assert!(!done);
    assert!(
        !dest.exists(),
        "a crashed first save must not leave a destination file"
    );
}

#[test]
fn stale_staging_leftovers_do_not_break_the_next_save() {
    let dest = temp_path("retry.snap");
    let _ = std::fs::remove_file(&dest);
    let est = estimator(13);
    // Crash once: the truncated staging sibling is left behind, as after a
    // real crash...
    assert!(!save_snapshot_crashing_at(&dest, &est, None, 100).expect("crash run"));
    // ...and the next save truncates it, commits, and loads.
    save_snapshot(&dest, &est, None).expect("save over leftovers");
    let snapshot = load_snapshot(&dest).expect("loads");
    assert_eq!(snapshot.estimator.stats(), est.stats());
}
