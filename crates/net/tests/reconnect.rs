//! Coordinator crash/reconnect acceptance on real sockets: an 8-site
//! fleet survives losing its coordinator mid-churn.
//!
//! 1. a live fleet is driven through a publish + quality-churn + publish
//!    sequence, then its coordinator dies (`detach` — control
//!    connections drop, no `Shutdown` cascades);
//! 2. every RP notices (`CoordinatorLost`) and keeps forwarding by its
//!    last-dictated table: frames hand-published during the gap deliver
//!    across the whole dissemination subtree;
//! 3. a reconnect with a *stale* plan is refused — re-dictating it would
//!    rewind the fleet's ack barrier — and leaves the fleet untouched;
//! 4. a reconnect with the latest recovered plan resyncs: its first
//!    dictation is the re-dictation of the latest revision, no RP's
//!    table revision ever regresses, and no data socket is touched;
//! 5. post-resync publishes account exactly — the gap deliveries were
//!    baselined at the barrier — and the final cumulative per-(site,
//!    stream) counts are exact across the coordinator kill.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use teeve_net::wire::{decode, encode, Message};
use teeve_net::{ClusterConfig, ClusterError, Coordinator, Reactor, RpNodeHandle};
use teeve_pubsub::{subscription_universe, Session};
use teeve_runtime::{RuntimeConfig, RuntimeEvent, SessionRuntime};
use teeve_telemetry::FlightEventKind;
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};

const SITES: usize = 8;

/// A bare control client: the minimum needed to stand in for a
/// coordinator against one RP (drive a gap publish, poll stats) without
/// any coordinator state.
struct RawControl {
    conn: TcpStream,
    buf: BytesMut,
}

impl RawControl {
    fn attach(addr: SocketAddr) -> RawControl {
        let conn = TcpStream::connect(addr).expect("raw control connect");
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let mut raw = RawControl {
            conn,
            buf: BytesMut::new(),
        };
        raw.send(&Message::Attach);
        raw
    }

    fn send(&mut self, message: &Message) {
        let mut out = BytesMut::new();
        encode(message, &mut out);
        self.conn.write_all(&out).expect("raw control write");
    }

    fn wait<T>(&mut self, what: &str, mut pred: impl FnMut(&Message) -> Option<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut chunk = [0u8; 64 * 1024];
        loop {
            while let Some(message) = decode(&mut self.buf).expect("decodable control traffic") {
                if let Some(found) = pred(&message) {
                    return found;
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            match self.conn.read(&mut chunk) {
                Ok(0) => panic!("control channel closed waiting for {what}"),
                Ok(read) => self.buf.extend_from_slice(&chunk[..read]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("control read failed waiting for {what}: {e}"),
            }
        }
    }
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn recorded(node: &RpNodeHandle, pred: impl Fn(&FlightEventKind) -> bool) -> bool {
    node.flight_recorder()
        .events()
        .iter()
        .any(|e| pred(&e.kind))
}

#[test]
fn socket_fleet_survives_coordinator_kill_and_resyncs_exactly() {
    let costs = CostMatrix::from_fn(SITES, |i, j| CostMs::new(3 + ((i * 3 + j) % 4) as u32));
    let session = Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(10))
        .build();
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();

    // Epoch 0: a ring of viewpoints — every site's display watches its
    // successor, so all 8 sites both originate and receive streams.
    let ring: Vec<RuntimeEvent> = (0..SITES as u32)
        .map(|s| RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(s), 0),
            target: SiteId::new((s + 1) % SITES as u32),
        })
        .collect();
    let setup = runtime.apply_epoch(&ring);
    assert!(setup.report.accepted >= SITES, "ring demand must admit");
    let base = runtime.plan().clone();

    let reactor = Reactor::new(1).expect("reactor starts");
    let nodes: Vec<RpNodeHandle> = SiteId::all(SITES)
        .map(|s| reactor.bind_node(s).expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
    let config = ClusterConfig {
        frames_per_stream: 3,
        payload_bytes: 512,
        frame_interval: None,
        timeout: Duration::from_secs(20),
    };
    let mut coordinator = Coordinator::connect(&base, &addrs, &config).expect("connect");
    coordinator.publish(3).expect("pre-churn batch");

    // Mid-churn: bandwidth pressure at site 0 emits a quality-only delta
    // the live fleet applies, then another batch delivers degraded.
    let pressured = runtime.apply_epoch(&[RuntimeEvent::BandwidthSample {
        site: SiteId::new(0),
        bits_per_sec: 12_000_000.0,
    }]);
    assert!(
        pressured.delta.is_quality_only(),
        "pressure moves only rungs"
    );
    let applied = coordinator
        .apply_delta(&pressured.delta)
        .expect("live apply");
    assert!(applied.is_socket_free());
    coordinator.publish(2).expect("mid-churn batch");
    let revision = runtime.plan().revision();
    assert_eq!(coordinator.revision(), revision);

    // The coordinator dies mid-run: control connections drop, nothing
    // else. Every RP notices the EOF and detaches its control channel.
    coordinator.detach();
    for node in &nodes {
        wait_until("RP notices the dead coordinator", || {
            recorded(node, |k| matches!(k, FlightEventKind::CoordinatorLost))
        });
    }

    // The headless fleet still delivers: hand-publish a batch at one
    // origin over a bare socket and watch it land at *every* site in the
    // stream's dissemination subtree, by their own stats.
    let receiver = SiteId::new(0);
    let stream = runtime.plan().deliveries_to(receiver)[0];
    let origin = stream.origin();
    let gap_frames = 4u64;
    let mut origin_ctl = RawControl::attach(addrs[origin.index()]);
    origin_ctl.send(&Message::Publish {
        stream,
        base_seq: 1_000,
        frames: gap_frames,
        payload_bytes: 512,
        interval_micros: 0,
    });
    origin_ctl.wait("gap batch completion", |m| match m {
        Message::BatchDone {
            stream: done,
            next_seq,
        } if *done == stream && *next_seq >= 1_000 + gap_frames => Some(()),
        _ => None,
    });
    drop(origin_ctl);
    let gap_goal = 3 + 2 + gap_frames; // both coordinated batches + the gap batch
    let mut probe = 10_000u64;
    for site in SiteId::all(SITES) {
        if !runtime.plan().deliveries_to(site).contains(&stream) {
            continue;
        }
        let mut ctl = RawControl::attach(addrs[site.index()]);
        loop {
            probe += 1;
            ctl.send(&Message::StatsRequest { probe });
            let sent = probe;
            let delivered = ctl.wait("gap stats report", |m| match m {
                Message::StatsReport {
                    probe: p, streams, ..
                } if *p >= sent => Some(
                    streams
                        .iter()
                        .find(|d| d.stream == stream)
                        .map_or(0, |d| d.delivered),
                ),
                _ => None,
            });
            if delivered >= gap_goal {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // A reconnect with a stale plan (the pre-pressure revision) is
    // refused: re-dictating it would rewind the barrier of the RPs that
    // already acked the pressure delta. The refusal detaches — the fleet
    // must survive it.
    match Coordinator::reconnect(&base, &addrs, &config) {
        Ok(_) => panic!("a stale reconnect plan must be refused"),
        Err(err) => assert!(
            matches!(err, ClusterError::Control { .. }),
            "refusal names the ahead RP: {err:?}"
        ),
    }

    // Reconnect with the latest dictated plan: resync rebuilds the view,
    // re-dictates `revision` as the barrier, touches no data socket.
    let mut reconnected =
        Coordinator::reconnect(runtime.plan(), &addrs, &config).expect("reconnect");
    assert_eq!(reconnected.revision(), revision);
    assert_eq!(reconnected.connections_opened(), 0, "resync opens nothing");
    assert_eq!(reconnected.connections_closed(), 0, "resync closes nothing");

    // The first dictation after reconnect is the re-dictation of the
    // latest revision — bracketed by ResyncStart/ResyncComplete, with no
    // other Reconfigure before it.
    let events = reconnected.flight_recorder().events();
    let start = events
        .iter()
        .position(|e| matches!(e.kind, FlightEventKind::ResyncStart))
        .expect("ResyncStart recorded");
    let dictation = events
        .iter()
        .position(
            |e| matches!(e.kind, FlightEventKind::Reconfigure { revision: r, .. } if r == revision),
        )
        .expect("re-dictation recorded");
    let complete = events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                FlightEventKind::ResyncComplete { sites, revision: r }
                    if sites == SITES as u64 && r == revision
            )
        })
        .expect("ResyncComplete recorded");
    assert!(start < dictation && dictation < complete);
    assert!(
        events[..dictation]
            .iter()
            .all(|e| !matches!(e.kind, FlightEventKind::Reconfigure { .. })),
        "nothing may be dictated before the barrier re-dictation"
    );
    let telemetry = reconnected.telemetry().snapshot();
    assert_eq!(telemetry.histograms["coordinator.resync_micros"].count(), 1);

    // RP side: every node served the resync query, and its sequence of
    // applied table revisions never regressed — the re-dictation lands
    // each node at the latest revision (nodes the quality delta never
    // touched catch up from the install revision here).
    for node in &nodes {
        assert!(recorded(node, |k| matches!(
            k,
            FlightEventKind::ResyncStart
        )));
        let revisions: Vec<u64> = node
            .flight_recorder()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FlightEventKind::Reconfigure { revision, .. } => Some(revision),
                _ => None,
            })
            .collect();
        assert!(
            revisions.windows(2).all(|w| w[0] <= w[1]),
            "table watermark regressed at {}: {revisions:?}",
            node.site()
        );
        assert_eq!(revisions.last(), Some(&revision), "barrier re-dictated");
    }

    // Post-resync delivery accounting is exact: the gap deliveries were
    // baselined at the barrier, so this publish blocks on exactly its
    // own frames — and the final cumulative per-(site, stream) counts
    // add up across the coordinator kill.
    reconnected.publish(2).expect("post-resync batch");
    let final_report = reconnected.shutdown();
    assert_eq!(final_report.missing_reports, 0, "all RPs survived the kill");
    assert_eq!(final_report.final_revision, revision);
    for site in SiteId::all(SITES) {
        for s in runtime.plan().deliveries_to(site) {
            let expected = 3 + 2 + 2 + if s == stream { gap_frames } else { 0 };
            assert_eq!(
                final_report.delivered[&(site, s)],
                expected,
                "exact accounting at {site}/{s} across the kill"
            );
        }
    }
    for node in nodes {
        node.stop();
        node.join();
    }
}
