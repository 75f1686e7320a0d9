//! Property tests for the wire protocol: encode → decode round-trips over
//! the **full** [`Message`] enum (including every control message of the
//! process-separable RP redesign), incremental-decode behavior on
//! arbitrary prefixes, and truncation/oversize fuzzing.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use teeve_net::wire::{decode, encode, Message, StreamDelivery, WireError, MAX_MESSAGE_BYTES};
use teeve_pubsub::{ChildLink, ForwardingEntry, SitePlan};
use teeve_types::{Quality, SiteId, StreamId};

fn arb_site() -> impl Strategy<Value = SiteId> {
    (0u32..512).prop_map(SiteId::new)
}

fn arb_stream() -> impl Strategy<Value = StreamId> {
    (0u32..512, 0u32..16).prop_map(|(origin, local)| StreamId::new(SiteId::new(origin), local))
}

fn arb_quality() -> impl Strategy<Value = Quality> {
    (0u8..8).prop_map(Quality::new)
}

fn arb_child() -> impl Strategy<Value = ChildLink> {
    (arb_site(), arb_quality()).prop_map(|(site, quality)| ChildLink { site, quality })
}

fn arb_entry() -> impl Strategy<Value = ForwardingEntry> {
    (
        arb_stream(),
        (0u32..2, arb_site()),
        proptest::collection::vec(arb_child(), 0..5usize),
        arb_quality(),
    )
        .prop_map(
            |(stream, (has_parent, parent), children, quality)| ForwardingEntry {
                stream,
                parent: (has_parent == 1).then_some(parent),
                children,
                quality,
            },
        )
}

fn arb_site_plan() -> impl Strategy<Value = SitePlan> {
    (
        arb_site(),
        proptest::collection::vec(arb_entry(), 0..6usize),
    )
        .prop_map(|(site, entries)| SitePlan { site, entries })
}

fn arb_addr() -> impl Strategy<Value = std::net::SocketAddr> {
    (any::<bool>(), 0u64..u64::MAX, 1u16..u16::MAX).prop_map(|(v6, ip, port)| {
        if v6 {
            std::net::SocketAddr::new(
                std::net::IpAddr::V6(std::net::Ipv6Addr::from(u128::from(ip) << 17 | 1)),
                port,
            )
        } else {
            std::net::SocketAddr::new(
                std::net::IpAddr::V4(std::net::Ipv4Addr::from(ip as u32)),
                port,
            )
        }
    })
}

fn arb_delivery() -> impl Strategy<Value = StreamDelivery> {
    (
        (arb_stream(), 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX),
        proptest::collection::vec(any::<u64>(), 0..12usize),
    )
        .prop_map(
            |((stream, delivered), (delivered_degraded, latency_sum_micros), samples)| {
                // The histogram is built from real recorded samples (its
                // sparse wire form only represents reachable states); the
                // scalar latency sum stays independent, as on a live RP
                // whose counters saturate differently.
                let mut latency = teeve_telemetry::LogHistogram::new();
                for sample in samples {
                    latency.record(sample);
                }
                StreamDelivery {
                    stream,
                    delivered,
                    delivered_degraded,
                    latency_sum_micros,
                    latency,
                }
            },
        )
}

/// Uniformly draws one of the 17 protocol messages with arbitrary field
/// values.
fn arb_message() -> impl Strategy<Value = Message> {
    (
        (0usize..17, arb_site(), arb_stream(), arb_addr()),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        proptest::collection::vec(0u8..255, 0..64usize),
        (
            arb_site_plan(),
            proptest::collection::vec(arb_delivery(), 0..8usize),
            0u32..65_536,
            arb_quality(),
        ),
    )
        .prop_map(
            |(
                (variant, site, stream, addr),
                (a, b, c),
                payload,
                (site_plan, streams, small, quality),
            )| {
                match variant {
                    0 => Message::Hello { site },
                    1 => Message::Frame {
                        stream,
                        quality,
                        seq: a,
                        captured_micros: b,
                        payload: Bytes::from(payload),
                    },
                    2 => Message::End { stream },
                    3 => Message::Reconfigure {
                        revision: a,
                        site_plan,
                    },
                    4 => Message::Ack { revision: a },
                    5 => Message::Attach,
                    6 => Message::OpenLink { child: site, addr },
                    7 => Message::CloseLink { child: site },
                    8 => Message::LinkUp { peer: site },
                    9 => Message::LinkDown { peer: site },
                    10 => Message::Publish {
                        stream,
                        base_seq: a,
                        frames: b,
                        payload_bytes: small,
                        interval_micros: c,
                    },
                    11 => Message::BatchDone {
                        stream,
                        next_seq: a,
                    },
                    12 => Message::StatsRequest { probe: a },
                    13 => Message::StatsReport {
                        probe: a,
                        total: b,
                        max_latency_micros: c,
                        streams,
                    },
                    14 => Message::ResyncQuery { probe: a },
                    15 => Message::ResyncReply {
                        probe: a,
                        revision: b,
                        // Reuse the drawn site plan's child links as an
                        // arbitrary inbound peer set.
                        inbound: site_plan
                            .entries
                            .iter()
                            .flat_map(|e| e.children.iter().map(|c| c.site))
                            .collect(),
                    },
                    _ => Message::Shutdown,
                }
            },
        )
}

proptest! {
    /// Every message round-trips exactly, consuming its full encoding.
    #[test]
    fn every_message_roundtrips(message in arb_message()) {
        let mut buf = BytesMut::new();
        encode(&message, &mut buf);
        let decoded = decode(&mut buf);
        prop_assert_eq!(decoded, Ok(Some(message)));
        prop_assert!(buf.is_empty(), "decoder must consume the full message");
    }

    /// Feeding any strict prefix of an encoding yields "need more bytes",
    /// never an error or a phantom message.
    #[test]
    fn strict_prefixes_decode_to_none(message in arb_message(), cut in 1usize..64) {
        let mut full = BytesMut::new();
        encode(&message, &mut full);
        let keep = full.len() - cut.min(full.len() - 1).max(1);
        let mut partial = BytesMut::from(&full[..keep]);
        prop_assert_eq!(decode(&mut partial), Ok(None));
    }

    /// A length prefix understating the body (the frame cut mid-message
    /// by a corrupt sender) is rejected as an error, never silently
    /// decoded.
    #[test]
    fn understated_lengths_are_rejected(message in arb_message(), cut in 1usize..64) {
        let mut full = BytesMut::new();
        encode(&message, &mut full);
        let length = u32::from_le_bytes([full[0], full[1], full[2], full[3]]) as usize;
        let cut = cut.min(length - 1).max(1);
        let shortened = length - cut;
        let mut corrupt = BytesMut::new();
        corrupt.extend_from_slice(&(shortened as u32).to_le_bytes());
        corrupt.extend_from_slice(&full[4..4 + shortened]);
        let result = decode(&mut corrupt);
        prop_assert!(
            matches!(result, Err(WireError::Truncated | WireError::BadAddress)),
            "cut of {cut} bytes must error, got {result:?}"
        );
    }

    /// A length prefix beyond the protocol maximum is rejected before any
    /// allocation.
    #[test]
    fn oversized_lengths_are_rejected(excess in 1usize..1_000_000) {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&((MAX_MESSAGE_BYTES + excess) as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        prop_assert!(matches!(
            decode(&mut buf),
            Err(WireError::Oversized { .. })
        ));
    }

    /// Quality-only plan deltas survive the wire codec: re-stamping rung
    /// assignments on a fixed forest yields a delta that is provably
    /// socket-free, and pushing the target tables through
    /// `Reconfigure` encode → decode reproduces them bit-for-bit —
    /// including every quality rung — so a live fleet converges on
    /// exactly the re-stamped plan.
    #[test]
    fn quality_only_deltas_roundtrip_through_the_codec(
        rungs in proptest::collection::vec(0u8..3, 1..16usize),
    ) {
        use teeve_overlay::{OverlayManager, ProblemInstance};
        use teeve_pubsub::{DisseminationPlan, PlanDelta, StreamProfile};
        use teeve_types::{CostMatrix, CostMs, Degree};

        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        let mut builder = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(8))
            .streams_per_site(&[2, 1, 0, 0]);
        for (subscriber, origin, local) in
            [(1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 0)]
        {
            builder = builder.subscribe(
                SiteId::new(subscriber),
                StreamId::new(SiteId::new(origin), local),
            );
        }
        let problem = builder.build().expect("valid universe");
        let mut manager = OverlayManager::new(problem.clone());
        for request in problem.requests() {
            manager.subscribe(request.subscriber, request.stream).unwrap();
        }
        let before = DisseminationPlan::from_forest(
            &problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        );

        // Re-stamp delivered entries with the drawn rungs (cycled).
        let mut after = before.clone();
        let mut draws = rungs.iter().copied().cycle();
        for site in (0..4).map(SiteId::new) {
            for stream in before.deliveries_to(site) {
                let rung = draws.next().expect("cycled");
                after.set_quality(site, stream, Quality::new(rung));
            }
        }
        after.set_revision(before.revision() + 1);
        let delta = PlanDelta::diff(&before, &after);
        if delta.is_empty() {
            return Ok(()); // every draw was rung 0: nothing to move
        }
        prop_assert!(delta.is_quality_only());
        // Receiver-side rung moves are reported once each; the parent-side
        // ChildLink mirror rides in the same delta without double counting.
        prop_assert!(!delta.quality_changes().is_empty());
        prop_assert!(delta.quality_changes().len() <= delta.len());

        // Every touched table round-trips through the wire bit-for-bit.
        for &site in &delta.touched_sites() {
            let message = Message::Reconfigure {
                revision: delta.to_revision(),
                site_plan: after.site_plan(site).clone(),
            };
            let mut buf = BytesMut::new();
            encode(&message, &mut buf);
            prop_assert_eq!(decode(&mut buf), Ok(Some(message)));
        }

        // And applying the delta reproduces the re-stamped plan exactly.
        let mut patched = before.clone();
        delta.apply(&mut patched).unwrap();
        prop_assert_eq!(patched, after);
    }

    /// The incremental decoder is split-invariant: feeding an encoded
    /// message stream in arbitrary chunk sizes — exactly how a reactor
    /// read loop buffers whatever the kernel returns — yields the same
    /// message sequence as decoding the whole buffer at once. This is
    /// the property that makes an RP's behaviour independent of TCP
    /// segmentation.
    #[test]
    fn chunked_decoding_is_split_invariant(
        messages in proptest::collection::vec(arb_message(), 1..6usize),
        splits in proptest::collection::vec(1usize..97, 1..32usize),
    ) {
        let mut wire = BytesMut::new();
        for message in &messages {
            encode(message, &mut wire);
        }
        let wire = wire.freeze();

        // Reference: one decode pass over the complete buffer.
        let mut whole_buf = BytesMut::from(&wire[..]);
        let mut whole = Vec::new();
        while let Some(message) = decode(&mut whole_buf).expect("valid stream") {
            whole.push(message);
        }
        prop_assert_eq!(whole.len(), messages.len());

        // Incremental: drive the same bytes in drawn-size chunks
        // (cycled), draining every complete message after each chunk.
        let mut chunked = Vec::new();
        let mut buf = BytesMut::new();
        let mut cursor = 0usize;
        let mut sizes = splits.iter().copied().cycle();
        while cursor < wire.len() {
            let take = sizes.next().expect("cycled").min(wire.len() - cursor);
            buf.extend_from_slice(&wire[cursor..cursor + take]);
            cursor += take;
            loop {
                match decode(&mut buf) {
                    Ok(Some(message)) => chunked.push(message),
                    Ok(None) => break,
                    Err(e) => prop_assert!(false, "chunked decode error {e:?}"),
                }
            }
        }
        prop_assert_eq!(chunked, whole);
        prop_assert!(buf.is_empty(), "no residual bytes after the stream");
    }

    /// Corrupt-input parity across feeding disciplines: a byte stream
    /// the whole-buffer decoder rejects is rejected identically by the
    /// chunked decoder (same error, no phantom messages first), so an
    /// RP drops a corrupt link at the same byte however it arrives.
    #[test]
    fn chunked_decoding_rejects_the_same_corrupt_streams(
        message in arb_message(),
        cut in 1usize..64,
        splits in proptest::collection::vec(1usize..13, 1..8usize),
    ) {
        // Corrupt by understating the length prefix, as in
        // `understated_lengths_are_rejected`.
        let mut full = BytesMut::new();
        encode(&message, &mut full);
        let length = u32::from_le_bytes([full[0], full[1], full[2], full[3]]) as usize;
        let cut = cut.min(length - 1).max(1);
        let shortened = length - cut;
        let mut corrupt = Vec::new();
        corrupt.extend_from_slice(&(shortened as u32).to_le_bytes());
        corrupt.extend_from_slice(&full[4..4 + shortened]);

        let mut whole_buf = BytesMut::from(&corrupt[..]);
        let whole_err = match decode(&mut whole_buf) {
            Err(e) => e,
            other => return Err(TestCaseError::fail(
                format!("corrupt stream must error whole, got {other:?}"),
            )),
        };

        let mut buf = BytesMut::new();
        let mut cursor = 0usize;
        let mut sizes = splits.iter().copied().cycle();
        let mut chunked_err = None;
        'feed: while cursor < corrupt.len() {
            let take = sizes.next().expect("cycled").min(corrupt.len() - cursor);
            buf.extend_from_slice(&corrupt[cursor..cursor + take]);
            cursor += take;
            loop {
                match decode(&mut buf) {
                    Ok(Some(phantom)) => prop_assert!(
                        false,
                        "chunked decode produced a phantom message {phantom:?}"
                    ),
                    Ok(None) => break,
                    Err(e) => {
                        chunked_err = Some(e);
                        break 'feed;
                    }
                }
            }
        }
        prop_assert_eq!(chunked_err, Some(whole_err));
    }

    /// Back-to-back encodings decode in order from one buffer, exactly as
    /// a socket reader sees them.
    #[test]
    fn message_streams_decode_in_order(messages in proptest::collection::vec(arb_message(), 1..8usize)) {
        let mut buf = BytesMut::new();
        for message in &messages {
            encode(message, &mut buf);
        }
        for message in &messages {
            let decoded = decode(&mut buf);
            prop_assert_eq!(decoded, Ok(Some(message.clone())));
        }
        prop_assert_eq!(decode(&mut buf), Ok(None));
        prop_assert!(buf.is_empty());
    }
}
