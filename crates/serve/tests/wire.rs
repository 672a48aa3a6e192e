//! Wire-format guarantees, mirroring the persistence tests: corrupt,
//! truncated, and future-version frames are rejected with the right
//! errors, and nothing malformed reaches the message layer.

use laelaps_serve::wire::{
    encode_message, read_message, write_message, Message, WireSpan, CHECKSUM_LEN, HEADER_LEN,
    MAX_PAYLOAD, WIRE_VERSION,
};
use laelaps_serve::ServeError;

fn hello_frame() -> Vec<u8> {
    encode_message(&Message::Hello {
        patient: "chb01".into(),
        electrodes: 23,
    })
}

#[test]
fn truncation_at_every_boundary_is_corrupt_never_a_panic() {
    let frame = hello_frame();
    // Every strict prefix: inside the header, inside the payload, inside
    // the checksum.
    for cut in 1..frame.len() {
        let err = read_message(&mut &frame[..cut]).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { ref reason } if reason.contains("wire")),
            "cut at {cut}: {err}"
        );
    }
    // The empty prefix is a clean end of stream, not corruption.
    assert_eq!(read_message(&mut &frame[..0]).unwrap(), None);
}

#[test]
fn any_flipped_bit_is_detected_by_the_checksum() {
    let frame = hello_frame();
    // Flip one bit in each region that the checksum covers: the tag,
    // the length field, and the payload. (Byte 0–1 = magic and byte 2 =
    // version are gated by their own checks first.)
    for position in [3, 5, HEADER_LEN + 2, frame.len() - CHECKSUM_LEN - 1] {
        let mut corrupted = frame.clone();
        corrupted[position] ^= 0x40;
        let err = read_message(&mut corrupted.as_slice()).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { .. }),
            "flip at {position}: {err}"
        );
    }
    // A flipped checksum byte itself is also caught.
    let mut corrupted = frame.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x01;
    assert!(matches!(
        read_message(&mut corrupted.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("checksum")
    ));
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut frame = hello_frame();
    frame[0] ^= 0xFF;
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("magic")),
        "{err}"
    );
}

#[test]
fn future_version_is_a_version_mismatch_not_corruption() {
    let mut frame = hello_frame();
    frame[2] = WIRE_VERSION + 41;
    // Deliberately do NOT fix the checksum: the version gate must fire
    // first, mirroring the model-file loader.
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::VersionMismatch {
                found,
                supported,
            } if found == (WIRE_VERSION + 41) as u64 && supported == WIRE_VERSION as u32
        ),
        "{err}"
    );
    // Version 0 is never valid.
    frame[2] = 0;
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::VersionMismatch { found: 0, .. }
    ));
}

#[test]
fn unknown_tag_is_corrupt() {
    let mut frame = encode_message(&Message::Close);
    frame[3] = 0x7C;
    // Re-seal so only the tag is wrong, proving the tag check itself
    // fires (not just the checksum).
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("unknown message type")),
        "{err}"
    );
}

#[test]
fn oversized_length_is_rejected_without_allocating() {
    let mut frame = hello_frame();
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("cap")),
        "{err}"
    );
    assert!(MAX_PAYLOAD < u32::MAX as usize);
}

#[test]
fn payload_length_mismatches_are_corrupt() {
    // A Hello whose inner string length runs past the payload.
    let mut frame = hello_frame();
    frame[HEADER_LEN] = 0xFF; // patient length low byte: 5 → 255
    reseal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("shorter")
    ));

    // A Close with trailing garbage in the payload.
    let mut padded = Vec::new();
    write_message(&mut padded, &Message::Close).unwrap();
    let mut frame = padded.clone();
    // Extend payload by 2 bytes and fix the length field.
    frame.truncate(HEADER_LEN);
    frame[4..8].copy_from_slice(&2u32.to_le_bytes());
    frame.extend_from_slice(&[0xAA, 0xBB]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("longer")
    ));
}

#[test]
fn frames_payload_must_be_whole_samples() {
    let mut frame = Vec::new();
    // Hand-build a Frames frame with a 5-byte payload.
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x02); // Frames tag
    frame.extend_from_slice(&5u32.to_le_bytes());
    frame.extend_from_slice(&[1, 2, 3, 4, 5]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("whole f32")
    ));
}

#[test]
fn oversized_messages_are_refused_before_hitting_the_wire() {
    // One sample past the cap: write_message must reject it (the peer
    // could only ever see it as corrupt) and write nothing.
    let chunk: Box<[f32]> = vec![0.0f32; MAX_PAYLOAD / 4 + 1].into();
    let mut sink = Vec::new();
    let err = write_message(&mut sink, &Message::Frames { chunk }).unwrap_err();
    assert!(
        matches!(err, ServeError::Protocol { ref reason } if reason.contains("frame cap")),
        "{err}"
    );
    assert!(sink.is_empty(), "nothing may reach the transport");

    // Exactly at the cap is fine.
    let chunk: Box<[f32]> = vec![0.0f32; MAX_PAYLOAD / 4].into();
    write_message(&mut sink, &Message::Frames { chunk }).unwrap();
    assert!(matches!(
        read_message(&mut sink.as_slice()).unwrap(),
        Some(Message::Frames { .. })
    ));
}

#[test]
fn feedback_with_out_of_range_label_is_corrupt() {
    // Hand-build a Feedback frame whose label byte is neither 0 nor 1.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04); // Feedback tag
    frame.extend_from_slice(&9u32.to_le_bytes()); // label + 2 samples
    frame.push(7); // out-of-range label
    frame.extend_from_slice(&1.0f32.to_le_bytes());
    frame.extend_from_slice(&2.0f32.to_le_bytes());
    seal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("label")),
        "{err}"
    );
}

#[test]
fn feedback_payload_must_be_whole_samples() {
    // Label byte + 6 bytes of samples: not whole f32s.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04);
    frame.extend_from_slice(&7u32.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&[1, 2, 3, 4, 5, 6]);
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("whole f32")
    ));
    // An entirely empty Feedback payload (no label byte) is short.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"LW");
    frame.push(WIRE_VERSION);
    frame.push(0x04);
    frame.extend_from_slice(&0u32.to_le_bytes());
    seal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap_err(),
        ServeError::Corrupt { ref reason } if reason.contains("shorter")
    ));
}

#[test]
fn version_stamping_supports_rolling_upgrades() {
    // Version-1 messages still go out stamped as version 1, so a
    // not-yet-upgraded peer (which rejects version > 1) keeps reading
    // everything an upgraded peer sends until a v2 feature is used.
    let frame = hello_frame();
    assert_eq!(frame[2], 1, "Hello is a version-1 message");
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap(),
        Some(Message::Hello { electrodes: 23, .. })
    ));
    // The adaptation messages are the version-2 surface: still stamped
    // 2, not WIRE_VERSION, so v2 peers keep reading them.
    let feedback = encode_message(&Message::Feedback {
        label: laelaps_core::Label::Ictal,
        chunk: vec![0.0f32; 4].into(),
    });
    assert_eq!(feedback[2], 2);
    let updated = encode_message(&Message::ModelUpdated { generation: 3 });
    assert_eq!(updated[2], 2);
    // The introspection messages are the version-3 surface: still
    // stamped 3, not WIRE_VERSION, so v3 peers keep reading them.
    assert_eq!(encode_message(&Message::StatsRequest)[2], 3);
    assert_eq!(
        encode_message(&Message::TraceDumpRequest { limit: 16 })[2],
        3
    );
    assert_eq!(
        encode_message(&Message::StatsSnapshot {
            stats: Box::default(),
        })[2],
        3
    );
    assert_eq!(
        encode_message(&Message::TraceDump {
            recorded: 0,
            dropped: 0,
            spans: Vec::new(),
        })[2],
        3
    );
    // The health messages are the version-4 surface.
    assert_eq!(encode_message(&Message::HealthRequest)[2], 4);
    assert_eq!(
        encode_message(&Message::HealthSnapshot {
            health: Box::default(),
        })[2],
        4
    );
    // The per-session messages are the version-5 surface — the newest,
    // so they carry WIRE_VERSION itself.
    assert_eq!(
        encode_message(&Message::SessionStatsRequest { session: None })[2],
        WIRE_VERSION
    );
    assert_eq!(
        encode_message(&Message::SessionStatsSnapshot {
            sessions: Box::default(),
        })[2],
        WIRE_VERSION
    );
    // And a frame explicitly stamped with a newer supported version but
    // a v1 tag still reads.
    let mut frame = hello_frame();
    frame[2] = WIRE_VERSION;
    reseal(&mut frame);
    assert!(matches!(
        read_message(&mut frame.as_slice()).unwrap(),
        Some(Message::Hello { .. })
    ));
}

#[test]
fn back_to_back_frames_parse_in_order_and_eof_is_clean() {
    let mut stream = Vec::new();
    let chunk: Box<[f32]> = (0..256).map(|i| i as f32 * 0.5).collect();
    write_message(
        &mut stream,
        &Message::Hello {
            patient: "P1".into(),
            electrodes: 4,
        },
    )
    .unwrap();
    for _ in 0..3 {
        write_message(
            &mut stream,
            &Message::Frames {
                chunk: chunk.clone(),
            },
        )
        .unwrap();
    }
    write_message(&mut stream, &Message::Close).unwrap();

    let mut reader = stream.as_slice();
    assert!(matches!(
        read_message(&mut reader).unwrap(),
        Some(Message::Hello { .. })
    ));
    for _ in 0..3 {
        let Some(Message::Frames { chunk: got }) = read_message(&mut reader).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(got, chunk);
    }
    assert_eq!(read_message(&mut reader).unwrap(), Some(Message::Close));
    assert_eq!(read_message(&mut reader).unwrap(), None);
    assert_eq!(read_message(&mut reader).unwrap(), None, "EOF is sticky");
}

fn trace_dump_frame() -> Vec<u8> {
    encode_message(&Message::TraceDump {
        recorded: 900,
        dropped: 3,
        spans: vec![
            WireSpan {
                trace_id: 41,
                stage: 0,
                pin: 1,
                shard: 2,
                generation: 7,
                session: 9,
                start_us: 1_000,
                dur_us: 120,
            },
            WireSpan {
                trace_id: 42,
                stage: 3,
                pin: 0,
                shard: 0,
                generation: 7,
                session: 11,
                start_us: 1_200,
                dur_us: 80,
            },
        ],
    })
}

#[test]
fn v3_introspection_frames_survive_truncation_like_v1() {
    // The v1/v2 truncation guarantee holds for the new introspection
    // payloads too: every strict prefix is corruption, never a panic,
    // and the empty prefix is a clean end of stream.
    for frame in [
        trace_dump_frame(),
        encode_message(&Message::StatsSnapshot {
            stats: Box::default(),
        }),
    ] {
        for cut in 1..frame.len() {
            let err = read_message(&mut &frame[..cut]).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { ref reason } if reason.contains("wire")),
                "cut at {cut}: {err}"
            );
        }
        assert_eq!(read_message(&mut &frame[..0]).unwrap(), None);
    }
}

#[test]
fn v3_introspection_frames_detect_bit_flips_like_v1() {
    let frame = trace_dump_frame();
    for position in [3, 5, HEADER_LEN + 2, frame.len() - CHECKSUM_LEN - 1] {
        let mut corrupted = frame.clone();
        corrupted[position] ^= 0x40;
        let err = read_message(&mut corrupted.as_slice()).unwrap_err();
        assert!(
            matches!(err, ServeError::Corrupt { .. }),
            "flip at {position}: {err}"
        );
    }
}

#[test]
fn hostile_span_count_is_rejected_without_allocating() {
    // Patch the span-count word (payload offset 16, after the two u64
    // accounting fields) to a huge value and reseal so the checksum
    // passes: the decoder must fail on the short payload instead of
    // pre-allocating a count's worth of spans.
    let mut frame = trace_dump_frame();
    frame[HEADER_LEN + 16..HEADER_LEN + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut frame);
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { ref reason } if reason.contains("shorter")),
        "unexpected error: {err}"
    );
}

#[test]
fn future_versioned_introspection_frames_hit_the_version_gate_first() {
    // Same guarantee the Hello frame has: a frame stamped beyond
    // WIRE_VERSION is a version mismatch (the upgrade-me signal), fired
    // before the checksum is even verified.
    let mut frame = encode_message(&Message::HealthRequest);
    assert_eq!(frame[2], 4, "HealthRequest is stamped v4");
    frame[2] = WIRE_VERSION + 1;
    // Deliberately not resealed: the version gate must fire first.
    let err = read_message(&mut frame.as_slice()).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::VersionMismatch { found, .. } if found == (WIRE_VERSION + 1) as u64
        ),
        "unexpected error: {err}"
    );
}

/// Recomputes and replaces the trailing checksum of a hand-patched frame
/// (FNV-1a 64, the same digest the writer uses).
fn reseal(frame: &mut Vec<u8>) {
    frame.truncate(frame.len() - CHECKSUM_LEN);
    seal(frame);
}

/// Appends the FNV-1a 64 checksum over the current frame bytes.
fn seal(frame: &mut Vec<u8>) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in frame.iter() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    frame.extend_from_slice(&hash.to_le_bytes());
}
