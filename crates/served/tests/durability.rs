//! File-level snapshot durability: the shard-facing corruption matrix.
//!
//! `ineq::snapshot` has byte-level tests (exhaustive bit-flip,
//! truncation, schema); these exercise the same matrix through the
//! *shard lifecycle*: a shard pointed at a damaged snapshot must
//! cold-start cleanly — serve correct plans, report the rejection —
//! and never panic, and torn-write residue (leftover temp files) must
//! be ignored by loaders and swept by the next writer.

use served::{OptimizeRequest, PlanKind, Service, ServiceClient, ServiceConfig};
use std::path::{Path, PathBuf};

const TINY: &str = "program tiny\n\
sym n\n\
array A(n) block\n\
array B(n) block\n\
doall i = 0, n-1\n\
  B(i) = A(i) * 2.0\n\
end\n\
doall j = 1, n-1\n\
  A(j) = B(j-1) + 1.0\n\
end\n";

fn tiny_request(id: u64) -> OptimizeRequest {
    OptimizeRequest {
        id,
        program: TINY.to_string(),
        nprocs: 4,
        binds: vec![("n".to_string(), 24)],
        plan: PlanKind::Optimized,
        deadline_ms: None,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("beoptd-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Produce a valid snapshot at `dir/shard-0.fme` by running a service
/// to warmth and draining it. Returns the snapshot path.
fn write_valid_snapshot(dir: &Path) -> PathBuf {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        nshards: 1,
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_every: 0,
        ..Default::default()
    })
    .unwrap();
    let client = ServiceClient::new(service.addr.to_string());
    client.optimize(&tiny_request(1)).unwrap();
    service.stop();
    service.wait();
    let snap = dir.join("shard-0.fme");
    assert!(snap.is_file());
    snap
}

/// Start a one-shard service over `dir`, compile once, and return
/// `(warm_hint, entries_loaded, cold_starts, snapshot_rejects,
/// last_reject)` — the shard's verdict on whatever `dir` held.
fn boot_and_probe(dir: &Path) -> (bool, u64, u64, u64, Option<String>) {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        nshards: 1,
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_every: 0,
        ..Default::default()
    })
    .unwrap();
    let client = ServiceClient::new(service.addr.to_string());
    let reply = client.optimize(&tiny_request(1)).unwrap();
    service.stop();
    service.wait();
    let st = &service.stats().shards[0];
    (
        reply.warm_hint,
        st.entries_loaded,
        st.cold_starts,
        st.snapshot_rejects,
        st.last_reject.clone(),
    )
}

#[test]
fn valid_snapshot_rejoins_warm() {
    let dir = tmp_dir("valid");
    write_valid_snapshot(&dir);
    let (warm, loaded, cold, rejects, reject) = boot_and_probe(&dir);
    assert!(warm, "rejoined shard must serve the same program warm");
    assert!(loaded > 0);
    assert_eq!((cold, rejects), (0, 0));
    assert_eq!(reject, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_cold_starts_silently() {
    let dir = tmp_dir("missing");
    let (warm, loaded, cold, rejects, reject) = boot_and_probe(&dir);
    assert!(!warm);
    assert_eq!((loaded, cold, rejects), (0, 1, 0));
    assert_eq!(reject, None, "a missing file is a first boot, not damage");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damage shape: its name and what it does to a snapshot file.
type Damage = (&'static str, fn(&Path));

/// The corruption matrix: each damage shape must produce a clean,
/// reported cold start — never a panic, never a partial load.
#[test]
fn damaged_snapshots_cold_start_with_a_reported_reason() {
    let damage: &[Damage] = &[
        ("truncated", |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
        }),
        ("header bit-flip", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            bytes[3] ^= 0x10; // inside the magic
            std::fs::write(p, bytes).unwrap();
        }),
        ("body bit-flip", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(p, bytes).unwrap();
        }),
        ("schema version from the future", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            bytes[8..12].copy_from_slice(&(ineq::SNAPSHOT_SCHEMA_VERSION + 7).to_le_bytes());
            std::fs::write(p, bytes).unwrap();
        }),
        ("zero-length", |p| {
            std::fs::write(p, b"").unwrap();
        }),
        ("trailing garbage", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            bytes.extend_from_slice(b"junk");
            std::fs::write(p, bytes).unwrap();
        }),
    ];
    for (what, damage_fn) in damage {
        let dir = tmp_dir("matrix");
        let snap = write_valid_snapshot(&dir);
        damage_fn(&snap);
        let (warm, loaded, cold, rejects, reject) = boot_and_probe(&dir);
        assert!(!warm, "{what}: damaged snapshot must not warm anything");
        assert_eq!((loaded, cold, rejects), (0, 1, 1), "{what}");
        assert!(
            reject.is_some(),
            "{what}: the rejection must carry a reason"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn-write residue: a leftover temp file (writer killed mid-write)
/// must never be loaded, must not block the real snapshot, and must be
/// swept by the next successful write.
#[test]
fn leftover_temp_files_are_ignored_and_swept() {
    let dir = tmp_dir("tempfile");
    let snap = write_valid_snapshot(&dir);
    let stale = dir.join("shard-0.fme.tmp.12345");
    std::fs::write(&stale, b"half a snapshot, killed mid-write").unwrap();

    // Loading reads only the real snapshot and leaves the residue be.
    let cache = ineq::FmeCache::new();
    assert!(ineq::load_snapshot(&cache, &snap).entries() > 0);
    assert!(stale.is_file(), "loading must not touch the residue");

    // A full service lifecycle over the directory rejoins warm despite
    // the residue, and its drain-time snapshot write sweeps it.
    let (warm, loaded, _, rejects, _) = boot_and_probe(&dir);
    assert!(warm);
    assert!(loaded > 0);
    assert_eq!(rejects, 0);
    assert!(
        !stale.exists(),
        "the next successful write must sweep stale temps"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
