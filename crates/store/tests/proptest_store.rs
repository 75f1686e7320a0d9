//! Property tests for the session-state store: arbitrary commit
//! histories round-trip through the log bit-for-bit, replay rebuilds the
//! exact plan, and a crash that tears the log's tail — at *any* byte —
//! recovers the longest durable prefix, never garbage.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use teeve_pubsub::Session;
use teeve_runtime::{RuntimeConfig, RuntimeEvent, SessionRuntime};
use teeve_store::SessionStore;
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SessionId, SiteId};

/// A collision-free scratch path per test case (no tempfile dependency;
/// the process id + a counter disambiguate).
fn scratch_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "teeve-store-proptest-{}-{n}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn session(n: usize) -> Session {
    let costs = CostMatrix::from_fn(n, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
    Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(12))
        .build()
}

/// One epoch's event batch over a 4-site session: viewpoint moves and
/// bandwidth samples, the churn a live service actually sees.
fn arb_epoch() -> impl Strategy<Value = Vec<RuntimeEvent>> {
    proptest::collection::vec(
        (0u32..2, (0u32..4, 0u32..2), 0u32..4, 1u32..80).prop_map(
            |(kind, (site, display), target, mbit)| match kind {
                0 => RuntimeEvent::Viewpoint {
                    display: DisplayId::new(SiteId::new(site), display),
                    target: SiteId::new(target),
                },
                _ => RuntimeEvent::BandwidthSample {
                    site: SiteId::new(site),
                    bits_per_sec: f64::from(mbit) * 1e6,
                },
            },
        ),
        0..4usize,
    )
}

/// Drives `epochs` through a fresh runtime, committing every epoch to a
/// new store at `path`. Returns the driven runtime.
fn commit_history(
    path: &std::path::Path,
    id: SessionId,
    epochs: &[Vec<RuntimeEvent>],
) -> SessionRuntime {
    let def = session(4);
    let config = RuntimeConfig::default();
    let store = SessionStore::open(path).expect("open fresh store");
    store.record_opened(id, &def, config).expect("record open");
    let universe = teeve_runtime::subscription_universe(&def).expect("universe");
    let mut runtime = SessionRuntime::new(universe, def, config)
        .expect("runtime")
        .with_scope(id);
    for events in epochs {
        let outcome = runtime.apply_epoch(events);
        store.record_commit(id, &outcome.commit).expect("commit");
    }
    runtime
}

/// A string of arbitrary scalars, weighted towards the ones the JSON
/// codec treats specially: control characters (escaped as `\uXXXX`),
/// ASCII (including `"` and `\`), and multi-byte UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..3, 0u32..0x11_0000), 0..48usize).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(kind, code)| {
                char::from_u32([code % 0x20, code % 0x80, code][kind as usize])
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any string survives the store's JSON codec: `to_string` then
    /// `from_str` gives back the exact string.
    #[test]
    fn strings_roundtrip_through_the_json_codec(text in arb_text()) {
        let json = serde_json::to_string(&text).expect("encode");
        prop_assert_eq!(serde_json::from_str::<String>(&json).expect("decode"), text);
    }

    /// Any commit history round-trips: a reopened store recovers every
    /// record, truncates nothing, and replays to the exact plan the
    /// original runtime holds — revision, scope, and entries included.
    #[test]
    fn histories_roundtrip_and_replay_bit_identically(epochs in proptest::collection::vec(arb_epoch(), 1..6usize)) {
        let path = scratch_path();
        let id = SessionId::new(7);
        let runtime = commit_history(&path, id, &epochs);

        let recovered = SessionStore::open(&path).expect("reopen");
        prop_assert_eq!(recovered.truncated_bytes(), 0);
        prop_assert_eq!(recovered.recovered_records(), 1 + epochs.len() as u64);
        prop_assert_eq!(recovered.open_sessions(), vec![id]);
        prop_assert_eq!(recovered.commit_count(id), Some(epochs.len()));
        prop_assert_eq!(recovered.latest_revision(id), Some(runtime.plan().revision()));

        let restored = recovered.restore(id).expect("restore");
        let replayed = restored.replay().expect("replay");
        prop_assert_eq!(replayed.plan(), runtime.plan());
        prop_assert_eq!(replayed.epoch(), runtime.epoch());

        std::fs::remove_file(&path).ok();
    }

    /// Cutting the log at any byte — mid-header, mid-payload, or on a
    /// record boundary — recovers exactly the commits whose records
    /// survive whole, and a store written *after* the cut continues the
    /// log cleanly.
    #[test]
    fn any_tail_cut_recovers_the_longest_durable_prefix(
        epochs in proptest::collection::vec(arb_epoch(), 1..5usize),
        cut_fraction in 0.0f64..1.0,
    ) {
        let path = scratch_path();
        let id = SessionId::new(3);
        commit_history(&path, id, &epochs);

        let full = std::fs::read(&path).expect("read log");
        // Cut somewhere strictly inside the file (never empty-cut at 0
        // bytes of loss: that case is the round-trip test above).
        let keep = ((full.len() as f64) * cut_fraction) as usize;
        let keep = keep.min(full.len().saturating_sub(1));
        std::fs::write(&path, &full[..keep]).expect("tear the tail");

        let recovered = SessionStore::open(&path).expect("reopen torn log");
        let commits = recovered.commit_count(id).unwrap_or(0);
        prop_assert!(commits <= epochs.len());
        // Whatever survived is a *prefix*: replay succeeds and lands on
        // the revision of the last surviving commit.
        if recovered.contains(id) {
            let restored = recovered.restore(id).expect("restore");
            prop_assert_eq!(restored.commits().len(), commits);
            let replayed = restored.replay().expect("replay survives the cut");
            prop_assert_eq!(replayed.plan().revision(), restored.revision());
        }
        // The torn bytes are gone from disk: the next append continues
        // a clean log (no interleaved garbage to trip a later open).
        let on_disk = std::fs::metadata(&path).expect("metadata").len();
        prop_assert!(on_disk + recovered.truncated_bytes() == keep as u64);

        std::fs::remove_file(&path).ok();
    }

    /// `snapshot(rev)` answers with the latest commit at or below the
    /// asked revision, for every revision the history passed through.
    #[test]
    fn snapshots_answer_every_intermediate_revision(epochs in proptest::collection::vec(arb_epoch(), 1..6usize)) {
        let path = scratch_path();
        let id = SessionId::new(11);
        commit_history(&path, id, &epochs);

        let store = SessionStore::open(&path).expect("reopen");
        let restored = store.restore(id).expect("restore");
        for commit in restored.commits() {
            let snap = store.snapshot(id, commit.revision).expect("snapshot exists");
            prop_assert_eq!(snap.revision, commit.revision);
            prop_assert_eq!(&snap, commit);
            // And restore_at truncates to the same point.
            let at = store.restore_at(id, commit.revision).expect("restore_at");
            prop_assert_eq!(at.revision(), commit.revision);
        }
        prop_assert!(store.snapshot(id, 0).is_none(), "no commit at revision 0");

        std::fs::remove_file(&path).ok();
    }
}
