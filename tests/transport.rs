//! Transport-layer acceptance tests: the same distributed Cholesky, bit
//! for bit, over every `sbc-net` backend — in-process channels, loopback
//! TCP, loopback Unix-domain sockets — with the bytes that actually
//! crossed each transport equal to the analytic schedule-invariant counts
//! of `sbc::dist::comm`.

use sbc::dist::{comm, Distribution, SbcExtended, TwoDBlockCyclic};
use sbc::matrix::{potrf_tiled, random_spd, SymmetricTiledMatrix};
use sbc::net::{inproc_mesh, local_mesh, Backend, FaultConfig, Faulty, Transport, TransportStats};
use sbc::runtime::{CommStats, Run, RunOutput};
use sbc::taskgraph::build_potrf;

const B: usize = 8;
const SEED: u64 = 2022;

/// Runs one rank per thread over a caller-built mesh, returning rank 0's
/// gathered output plus each endpoint's own accounting.
fn run_over<T: Transport, D: Distribution>(
    dist: &D,
    nt: usize,
    mesh: &[T],
) -> (RunOutput, Vec<TransportStats>) {
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .iter()
            .map(|net| {
                scope.spawn(move || {
                    Run::potrf(&dist, nt)
                        .block(B)
                        .seed(SEED)
                        .workers(2)
                        .execute_rank(net)
                        .expect("rank execution failed")
                })
            })
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(o) = h.join().expect("rank thread panicked") {
                out = Some(o);
            }
        }
        out.expect("rank 0 gathered an output")
    });
    (out, mesh.iter().map(|t| t.stats()).collect())
}

fn sequential_factor(nt: usize) -> SymmetricTiledMatrix {
    let mut seq = random_spd(SEED, nt, B);
    potrf_tiled(&mut seq).expect("sequential factorization failed");
    seq
}

fn assert_bitwise(out: &RunOutput, seq: &SymmetricTiledMatrix, label: &str) {
    for (i, j) in seq.tile_coords() {
        assert_eq!(
            out.factor().tile(i, j).max_abs_diff(seq.tile(i, j)),
            0.0,
            "{label}: tile ({i},{j}) differs from sequential"
        );
    }
}

fn assert_analytic<D: Distribution>(
    stats: &CommStats,
    per_rank: &[TransportStats],
    dist: &D,
    nt: usize,
    label: &str,
) {
    let messages = comm::potrf_messages(dist, nt);
    let bytes = comm::messages_to_bytes(messages, B);
    assert_eq!(stats.messages, messages, "{label}: message count");
    assert_eq!(stats.bytes, bytes, "{label}: gathered byte count");
    // what each endpoint itself measured, summed, is the same number
    let wire_payload: u64 = per_rank.iter().map(|s| s.sent_payload_bytes).sum();
    assert_eq!(wire_payload, bytes, "{label}: payload bytes on the wire");
    let wire_recv: u64 = per_rank.iter().map(|s| s.recv_payload_bytes).sum();
    assert_eq!(wire_recv, bytes, "{label}: payload bytes received");
}

/// The acceptance matrix: every backend × every distribution family
/// produces the identical factor and the identical analytic traffic.
#[test]
fn every_backend_matches_sequential_and_analytic_counts() {
    let nt = 10;
    let seq = sequential_factor(nt);
    let dists: Vec<(&str, Box<dyn Distribution + Sync>)> = vec![
        ("SBC r=4", Box::new(SbcExtended::new(4))), // 6 nodes
        ("2DBC 2x3", Box::new(TwoDBlockCyclic::new(2, 3))),
    ];
    for (dname, dist) in &dists {
        let dist = dist.as_ref();
        let n = dist.num_nodes();
        for backend in ["inproc", "tcp", "uds"] {
            let label = format!("{dname} over {backend}");
            let (out, per_rank) = match backend {
                "inproc" => run_over(&dist, nt, &inproc_mesh(n)),
                "tcp" => run_over(&dist, nt, &local_mesh(Backend::Tcp, n).expect("tcp mesh")),
                _ => run_over(&dist, nt, &local_mesh(Backend::Uds, n).expect("uds mesh")),
            };
            assert_bitwise(&out, &seq, &label);
            assert_analytic(&out.stats, &per_rank, &dist, nt, &label);
        }
    }
}

/// Page-sized tiles (b >= 23) over real sockets: every replica is a buffer
/// a socket reader decoded, handed back to the tile free list by a rank
/// thread once its last local reader ran, and refilled by a later decode.
/// With every third payload duplicated and delayed, some duplicates land
/// after their replica was released. The factor stays bit-identical and
/// only first arrivals are applied.
#[test]
fn page_sized_replicas_recycle_under_duplicates_over_uds() {
    const PAGE_B: usize = 32;
    let dist = SbcExtended::new(4);
    let nt = 8;
    let cfg = FaultConfig {
        dup_every: 3,
        delay: Some(std::time::Duration::from_micros(20)),
        ..Default::default()
    };
    let mesh: Vec<_> = local_mesh(Backend::Uds, dist.num_nodes())
        .expect("uds mesh")
        .into_iter()
        .map(|t| Faulty::new(t, cfg))
        .collect();
    let dist = &dist;
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .iter()
            .map(|net| {
                scope.spawn(move || {
                    Run::potrf(dist, nt)
                        .block(PAGE_B)
                        .seed(SEED)
                        .workers(2)
                        .execute_rank(net)
                        .expect("rank execution failed")
                })
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"));
        outs.flatten().next().expect("rank 0 gathered an output")
    });

    let injected: u64 = mesh.iter().map(|t| t.duplicated()).sum();
    assert!(injected > 0, "the fault plan injected nothing");
    let applied: u64 = out.stats.recv_per_node.iter().sum();
    assert_eq!(
        applied,
        comm::potrf_messages(dist, nt),
        "duplicates were applied"
    );
    let mut seq = random_spd(SEED, nt, PAGE_B);
    potrf_tiled(&mut seq).expect("sequential factorization failed");
    assert_bitwise(&out, &seq, "SBC r=4, b=32, over a duplicating uds mesh");
}

/// The tentpole's headline check: a 6-node SBC POTRF over loopback TCP
/// where the frame bytes that really crossed the sockets bound the payload
/// bytes, and the payload bytes equal `sbc::dist::comm`'s analytic count
/// exactly.
#[test]
fn tcp_wire_bytes_equal_analytic_bytes_for_sbc_potrf() {
    let dist = SbcExtended::new(4); // 6 nodes, the paper's smallest SBC
    let nt = 12;
    let mesh = local_mesh(Backend::Tcp, dist.num_nodes()).expect("tcp mesh");
    let (out, per_rank) = run_over(&dist, nt, &mesh);

    let analytic_msgs = comm::potrf_messages(&dist, nt);
    let analytic_bytes = comm::messages_to_bytes(analytic_msgs, B);
    assert_eq!(out.stats.messages, analytic_msgs);
    assert_eq!(out.stats.bytes, analytic_bytes);
    for s in &per_rank {
        // frames add headers/CRC and carry control traffic, so the raw
        // socket volume strictly dominates the payload volume
        assert!(
            s.sent_frame_bytes >= s.sent_payload_bytes,
            "frame bytes below payload bytes"
        );
    }
    let payload: u64 = per_rank.iter().map(|s| s.sent_payload_bytes).sum();
    assert_eq!(payload, analytic_bytes, "wire payload != analytic bytes");
    assert_bitwise(&out, &sequential_factor(nt), "SBC r=4 over tcp");
}

/// A duplicate-injecting, delay-injecting transport changes nothing about
/// the result: receivers deduplicate, so the factor and the applied counts
/// match a clean run while the wire carries the injected excess.
#[test]
fn faulty_transport_is_deduplicated_by_the_runtime() {
    let dist = TwoDBlockCyclic::new(2, 2);
    let nt = 9;
    let g = build_potrf(&dist, nt);
    let exec = Run::graph(&g).block(B).seed(SEED).seed_rhs(7).workers(2);
    let clean = exec.execute().expect("clean run failed");

    let cfg = FaultConfig {
        dup_every: 3,
        delay: Some(std::time::Duration::from_micros(20)),
        ..Default::default()
    };
    let mesh: Vec<_> = inproc_mesh(g.num_nodes())
        .into_iter()
        .map(|t| Faulty::new(t, cfg))
        .collect();
    let exec = &exec;
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .iter()
            .map(|net| scope.spawn(move || exec.execute_rank(net)))
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(o) = h
                .join()
                .expect("rank thread panicked")
                .expect("rank failed")
            {
                out = Some(o);
            }
        }
        out.expect("rank 0 gathered an outcome")
    });

    let injected: u64 = mesh.iter().map(|t| t.duplicated()).sum();
    assert!(injected > 0, "the fault plan injected nothing");
    assert_eq!(out.stats.messages, clean.stats.messages + injected);
    assert_eq!(
        out.stats.recv_per_node, clean.stats.recv_per_node,
        "duplicates were applied instead of dropped"
    );
    for (i, j) in clean.factor().tile_coords() {
        assert_eq!(
            out.factor().tile(i, j),
            clean.factor().tile(i, j),
            "tile ({i},{j}) differs under faults"
        );
    }
}

mod session_frame_props {
    //! Property tests for the reliability session's wire vocabulary: `Seq`
    //! and `Ack` frames round-trip exactly, decode consumes precisely the
    //! encoded length, and every truncation or bit flip is rejected with an
    //! error — never a panic, never a silently wrong frame.

    use proptest::prelude::*;
    use sbc::kernels::Tile;
    use sbc::net::wire::{decode, encode, Frame, FrameError};
    use sbc::net::Payload;
    use sbc::taskgraph::TileRef;

    fn arb_tile() -> impl Strategy<Value = Tile> {
        (0usize..6, any::<u64>()).prop_map(|(dim, seed)| {
            Tile::from_fn(dim, |i, j| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i * 31 + j) as u64);
                (x % 1000) as f64 / 7.0 - 60.0
            })
        })
    }

    fn arb_payload() -> impl Strategy<Value = Payload> {
        prop_oneof![
            (any::<u32>(), arb_tile()).prop_map(|(producer, tile)| Payload::Data {
                job: 0,
                producer,
                tile
            }),
            (0u32..4, 0u32..4, any::<u32>(), any::<u32>(), arb_tile()).prop_map(
                |(phase, slice, i, j, tile)| Payload::Orig {
                    job: 0,
                    tile_ref: TileRef::A {
                        phase: phase as u8,
                        slice: slice as u8,
                        i,
                        j,
                    },
                    tile,
                }
            ),
        ]
    }

    fn arb_session_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            (any::<u32>(), any::<u64>(), arb_payload())
                .prop_map(|(src, seq, payload)| Frame::Seq { src, seq, payload }),
            (any::<u32>(), any::<u64>()).prop_map(|(src, upto)| Frame::Ack { src, upto }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round trip: decode(encode(f)) == f, consuming the whole buffer.
        #[test]
        fn session_frames_roundtrip_exactly(f in arb_session_frame()) {
            let buf = encode(&f);
            let (back, used) = decode(&buf).expect("fresh frame must decode");
            prop_assert_eq!(&back, &f);
            prop_assert_eq!(used, buf.len(), "decode consumed a different byte count");
        }

        /// Every proper prefix of an encoded session frame is `Truncated`.
        #[test]
        fn truncated_session_frames_are_rejected(f in arb_session_frame(), cut in any::<u64>()) {
            let buf = encode(&f);
            let cut = (cut % buf.len() as u64) as usize; // 0..len, never the full frame
            prop_assert_eq!(decode(&buf[..cut]).unwrap_err(), FrameError::Truncated);
        }

        /// Any single bit flip is caught (CRC for body flips, tag/length
        /// validation otherwise) — decode returns an error, never a frame
        /// and never a panic.
        #[test]
        fn bitflipped_session_frames_are_rejected(
            f in arb_session_frame(),
            at in any::<u64>(),
            bit in 0u32..8,
        ) {
            let mut buf = encode(&f);
            let at = (at % buf.len() as u64) as usize;
            buf[at] ^= 1 << bit;
            prop_assert!(
                decode(&buf).is_err(),
                "flipping bit {} of byte {}/{} went undetected",
                bit,
                at,
                buf.len()
            );
        }
    }
}

/// Control traffic (poison/wake/result/done) is never counted as payload on
/// any backend: a single-task-per-rank run's accounting is pure tile bytes.
#[test]
fn gather_control_traffic_is_not_counted_as_payload() {
    let dist = SbcExtended::new(4);
    let nt = 8;
    for backend in [Backend::Tcp, Backend::Uds] {
        let mesh = local_mesh(backend, dist.num_nodes()).expect("mesh");
        let (out, per_rank) = run_over(&dist, nt, &mesh);
        // the gather shipped every remote tile to rank 0 as Result frames,
        // yet payload accounting still equals the analytic count
        assert_analytic(
            &out.stats,
            &per_rank,
            &dist,
            nt,
            &format!("{} gather", backend.name()),
        );
    }
}
