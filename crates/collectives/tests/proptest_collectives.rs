//! Property-based tests for the collective algorithms: every all-reduce
//! variant must equal the element-wise reduction across ranks for arbitrary
//! data, world sizes, and buffer lengths — and the decoupled RS∘AG
//! composition must be *bitwise* identical to the fused ring all-reduce.
//! Every hop is one message carrying one whole slice.

use std::collections::VecDeque;
use std::sync::Mutex;

use dear_collectives::{
    bf16_to_f32, chunk_ranges, double_tree_all_reduce, f16_to_f32, f32_to_bf16, f32_to_f16,
    hierarchical_all_reduce, naive_all_reduce, rhd_all_reduce, ring_all_gather,
    ring_all_gather_on_wire, ring_all_reduce, ring_all_reduce_on_wire, ring_begin, ring_finish,
    ring_owned_chunk, ring_receive, ring_reduce_scatter, ring_reduce_scatter_on_wire,
    round_to_wire, run_cluster, tree_broadcast, tree_reduce, ClusterShape, CollectiveError, DType,
    LocalEndpoint, Message, ReduceOp, RingKind, RingOp, Transport,
};
use proptest::prelude::*;

/// One all-reduce family's entry point; all four share it.
type AllReduce = fn(&LocalEndpoint, &mut [f32], ReduceOp, DType) -> Result<(), CollectiveError>;

/// Every flat all-reduce family, by name.
const FAMILIES: [(&str, AllReduce); 4] = [
    ("ring", ring_all_reduce_on_wire),
    ("rhd", rhd_all_reduce),
    ("double_binary_tree", double_tree_all_reduce),
    ("naive", naive_all_reduce),
];

/// A [`LocalEndpoint`] that logs every send as `(destination, wire bytes)`.
struct Counting {
    inner: LocalEndpoint,
    sends: Mutex<Vec<(usize, usize)>>,
}

impl Counting {
    /// The sends logged since the last call.
    fn take_sends(&self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.sends.lock().unwrap())
    }
}

impl Transport for Counting {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.sends.lock().unwrap().push((to, msg.wire_bytes()));
        self.inner.send(to, msg)
    }
    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.inner.recv(from)
    }
}

/// Per-rank deterministic pseudo-random data.
fn rank_data(rank: usize, d: usize, salt: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(salt | 1);
            // Map to a small range to keep f32 sums exact-ish.
            ((x % 2048) as f32 - 1024.0) / 64.0
        })
        .collect()
}

/// Reference reduction computed serially in the same order as the ring
/// (ascending rank), used for bitwise comparisons where applicable.
fn reference_sum(world: usize, d: usize, salt: u64) -> Vec<f32> {
    let mut acc = vec![0.0f32; d];
    for r in 0..world {
        for (a, b) in acc.iter_mut().zip(rank_data(r, d, salt)) {
            *a += b;
        }
    }
    acc
}

/// Runs `ops` split-phase, up to `window` of them begun ahead of the one
/// being finished, under the ordering rule of `ring_begin`: an op is begun
/// only once every earlier op has posted its last send. `window` 0 is the
/// plain `begin → advance → finish` composition, one op at a time.
fn run_split_phase<T: Transport>(
    t: &T,
    ops: Vec<(RingKind, Vec<f32>)>,
    wire: DType,
    window: usize,
) -> Vec<Vec<f32>> {
    let mut queued: VecDeque<_> = ops.into();
    let mut inflight = VecDeque::new();
    let mut done = Vec::new();
    loop {
        let mut fill = |inflight: &mut VecDeque<(RingOp, Vec<f32>)>| {
            while inflight.len() <= window && inflight.back().is_none_or(|(r, _)| r.all_sent()) {
                let Some((kind, mut data)) = queued.pop_front() else {
                    break;
                };
                // SAFETY: `data` travels with its op and is left alone
                // until the op is finished.
                let ring = unsafe { ring_begin(t, kind, &mut data, wire).unwrap() };
                inflight.push_back((ring, data));
            }
        };
        fill(&mut inflight);
        let Some((ring, data)) = inflight.front_mut() else {
            return done;
        };
        while !ring.all_sent() {
            // SAFETY: as above.
            unsafe { ring_receive(t, ring, data, &mut (), true).unwrap() };
        }
        fill(&mut inflight);
        let (ring, mut data) = inflight.pop_front().unwrap();
        let kind = ring.kind();
        // SAFETY: as above.
        let valid = unsafe { ring_finish(t, ring, &mut data).unwrap() };
        let world = t.world_size();
        let expect = match kind {
            RingKind::ReduceScatter(_) => {
                chunk_ranges(data.len(), world)[ring_owned_chunk(t.rank(), world)].clone()
            }
            _ => 0..data.len(),
        };
        assert_eq!(valid, expect, "{kind:?} reported the wrong valid range");
        done.push(data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_phase_ring_ops_are_bitwise_the_monolithic_calls(
        world in 1usize..7,
        d in 0usize..120,
        wire_idx in 0usize..3,
        window in 0usize..3,
        salt in any::<u64>(),
    ) {
        // All three ring collectives, twice over so that ops of one kind
        // also follow each other: one at a time through the monolithic
        // calls, and split-phase with up to `window` ops begun ahead. Same
        // bits everywhere — partially-reduced garbage outside a
        // reduce-scatter's owned chunk included, so the two paths did the
        // same arithmetic in the same order, not merely reached the same
        // sums. On the f32, bf16 and f16 wires.
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let ops = |rank: usize| -> Vec<(RingKind, Vec<f32>)> {
            let owned_chunk = ring_owned_chunk(rank, world);
            [
                RingKind::ReduceScatter(ReduceOp::Sum),
                RingKind::ReduceScatter(ReduceOp::Max),
                RingKind::AllGather { owned_chunk },
                RingKind::AllGather { owned_chunk },
                RingKind::AllReduce(ReduceOp::Sum),
                RingKind::AllReduce(ReduceOp::Sum),
                RingKind::ReduceScatter(ReduceOp::Sum),
            ]
            .into_iter()
            .enumerate()
            // Buffer lengths differ between ops, as fusion groups' do.
            .map(|(i, kind)| (kind, rank_data(rank, d + 3 * i, salt.wrapping_add(i as u64))))
            .collect()
        };
        let monolithic = run_cluster(world, |ep| {
            ops(ep.rank())
                .into_iter()
                .map(|(kind, mut data)| {
                    match kind {
                        RingKind::ReduceScatter(op) => {
                            ring_reduce_scatter_on_wire(&ep, &mut data, op, wire).map(|_| ())
                        }
                        RingKind::AllGather { owned_chunk } => {
                            ring_all_gather_on_wire(&ep, &mut data, owned_chunk, wire)
                        }
                        RingKind::AllReduce(op) => ring_all_reduce_on_wire(&ep, &mut data, op, wire),
                    }
                    .unwrap();
                    data
                })
                .collect::<Vec<_>>()
        });
        let split = run_cluster(world, |ep| {
            run_split_phase(&ep, ops(ep.rank()), wire, window)
        });
        let bits = |runs: &[Vec<Vec<f32>>]| -> Vec<Vec<Vec<u32>>> {
            runs.iter()
                .map(|ops| ops.iter().map(|d| d.iter().map(|x| x.to_bits()).collect()).collect())
                .collect()
        };
        prop_assert_eq!(bits(&monolithic), bits(&split));
    }

    #[test]
    fn ring_all_reduce_matches_sum(world in 1usize..9, d in 0usize..200, salt in any::<u64>()) {
        let expect = reference_sum(world, d, salt);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        for data in results {
            for (a, b) in data.iter().zip(&expect) {
                prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn all_algorithms_agree_with_each_other(world in 1usize..9, d in 1usize..128, salt in any::<u64>()) {
        let mut outputs = Vec::new();
        for (_, all_reduce) in FAMILIES {
            let results = run_cluster(world, |ep| {
                let mut data = rank_data(ep.rank(), d, salt);
                all_reduce(&ep, &mut data, ReduceOp::Sum, DType::F32).unwrap();
                data
            });
            outputs.push(results[0].clone());
        }
        for pair in outputs.windows(2) {
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn decoupled_rs_ag_is_bitwise_identical_to_fused(world in 1usize..9, d in 0usize..150, salt in any::<u64>()) {
        // The zero-overhead decoupling property at the numerical level:
        // running RS then AG as two separate calls produces the exact same
        // bits as the fused ring all-reduce (same summation order).
        let fused = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_all_reduce(&ep, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        let decoupled = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
            ring_all_gather(&ep, &mut data, ring_owned_chunk(ep.rank(), world)).unwrap();
            data
        });
        prop_assert_eq!(fused, decoupled);
    }

    #[test]
    fn reduce_scatter_chunks_partition_buffer(world in 1usize..9, d in 0usize..100) {
        let ranges = chunk_ranges(d, world);
        let mut covered = vec![false; d];
        for r in &ranges {
            for i in r.clone() {
                prop_assert!(!covered[i], "element {} covered twice", i);
                covered[i] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
        // Owned chunks across ranks are a permutation of all chunks.
        let mut owned: Vec<usize> = (0..world).map(|r| ring_owned_chunk(r, world)).collect();
        owned.sort_unstable();
        prop_assert_eq!(owned, (0..world).collect::<Vec<_>>());
    }

    #[test]
    fn hierarchical_matches_flat(nodes in 1usize..4, g in 1usize..4, d in 1usize..80, salt in any::<u64>()) {
        let shape = ClusterShape::new(nodes, g);
        let world = shape.world();
        let expect = reference_sum(world, d, salt);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            hierarchical_all_reduce(&ep, shape, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        for data in results {
            for (a, b) in data.iter().zip(&expect) {
                prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn max_all_reduce_is_true_elementwise_max(world in 2usize..8, d in 1usize..64, salt in any::<u64>()) {
        let expect: Vec<f32> = (0..d)
            .map(|i| {
                (0..world)
                    .map(|r| rank_data(r, d, salt)[i])
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .collect();
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_all_reduce(&ep, &mut data, ReduceOp::Max).unwrap();
            data
        });
        for data in results {
            prop_assert_eq!(&data, &expect);
        }
    }

    #[test]
    fn manual_rs_then_ag_with_explicit_chunks(world in 2usize..8, d in 1usize..100, salt in any::<u64>()) {
        // Exercise the lower-level entry points the DeAR runtime uses.
        let expect = reference_sum(world, d, salt);
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            let owned_range = ring_reduce_scatter(&ep, &mut data, ReduceOp::Sum).unwrap();
            // Scrub non-owned chunks to prove AG rewrites them all.
            let (a, b) = (owned_range.start, owned_range.end);
            for (i, x) in data.iter_mut().enumerate() {
                if i < a || i >= b {
                    *x = f32::NAN;
                }
            }
            ring_all_gather(&ep, &mut data, ring_owned_chunk(ep.rank(), world)).unwrap();
            data
        });
        for data in results {
            for (a, b) in data.iter().zip(&expect) {
                prop_assert!(a.is_finite());
                prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn bf16_round_trip_error_is_bounded(x in -1.5e38f32..1.5e38) {
        // One wire trip costs at most one unit in the 8-bit significand:
        // |round(x) − x| ≤ 2⁻⁸·|x| for every finite input (bf16 keeps the
        // full f32 exponent range, so nothing overflows), plus a tiny
        // absolute floor for subnormal inputs.
        let rt = bf16_to_f32(f32_to_bf16(x));
        prop_assert!(rt.is_finite());
        prop_assert!(
            (rt - x).abs() <= x.abs() / 256.0 + 1e-38,
            "bf16 round trip {} -> {} drifted past the 2^-8 bound", x, rt
        );
    }

    #[test]
    fn f16_round_trip_error_is_bounded(x in -60_000.0f32..60_000.0) {
        // Inside f16's normal range the trip costs at most 2⁻¹¹ relative
        // error (11-bit significand); below the smallest normal (~6.1e-5)
        // subnormal spacing caps the *absolute* error at 2⁻²⁴.
        let rt = f16_to_f32(f32_to_f16(x));
        prop_assert!(rt.is_finite());
        prop_assert!(
            (rt - x).abs() <= x.abs() / 2048.0 + 1e-7,
            "f16 round trip {} -> {} drifted past the 2^-11 bound", x, rt
        );
    }

    #[test]
    fn narrow_wire_all_reduce_accumulates_in_f32(
        world in 1usize..8,
        d in 0usize..96,
        salt in any::<u64>(),
        wire_idx in 0usize..2,
    ) {
        let wire = [DType::Bf16, DType::F16][wire_idx];
        let results = run_cluster(world, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_all_reduce_on_wire(&ep, &mut data, ReduceOp::Sum, wire).unwrap();
            data
        });
        // Lossy-at-the-sender: every rank must end bit-identical, because
        // the all-gather source rounds itself to exactly what it shipped.
        for (r, data) in results.iter().enumerate().skip(1) {
            for (i, (a, b)) in results[0].iter().zip(data).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "rank {} elem {} diverged from rank 0 on a {} wire", r, i, wire
                );
            }
        }
        // f32 accumulation: the result must track "round each input once,
        // sum exactly" to within the hop roundings — each of the ≤ world
        // partial-sum sends re-rounds at most once, never cascading. A
        // narrow-precision accumulator would blow well past this bound.
        let rel = match wire {
            DType::Bf16 => 1.0 / 256.0,
            _ => 1.0 / 2048.0,
        };
        let mut reference = vec![0.0f32; d];
        let mut sum_abs = vec![0.0f32; d];
        for r in 0..world {
            let mut x = rank_data(r, d, salt);
            round_to_wire(&mut x, wire);
            for i in 0..d {
                reference[i] += x[i];
                sum_abs[i] += x[i].abs();
            }
        }
        round_to_wire(&mut reference, wire);
        for i in 0..d {
            let tol = (world as f32 + 1.0) * sum_abs[i] * rel + 1e-5;
            prop_assert!(
                (results[0][i] - reference[i]).abs() <= tol,
                "elem {}: {} vs f32-accumulated reference {} (tol {})",
                i, results[0][i], reference[i], tol
            );
        }
    }

    #[test]
    fn two_rank_narrow_sum_is_one_cast_per_hop_exactly(
        d in 0usize..80,
        salt in any::<u64>(),
        wire_idx in 0usize..2,
    ) {
        // With two ranks there are no intermediate partial sums, so the
        // result is *bitwise* predictable: the non-owner's chunk crosses
        // the wire once (rounded), the owner accumulates its own
        // **unrounded** f32 values, and the all-gather rounds the final
        // sum exactly once. Any cascaded cast (e.g. accumulating in the
        // narrow type) changes these bits.
        let wire = [DType::Bf16, DType::F16][wire_idx];
        let narrow1 = |v: f32| match wire {
            DType::Bf16 => bf16_to_f32(f32_to_bf16(v)),
            _ => f16_to_f32(f32_to_f16(v)),
        };
        let results = run_cluster(2, |ep| {
            let mut data = rank_data(ep.rank(), d, salt);
            ring_all_reduce_on_wire(&ep, &mut data, ReduceOp::Sum, wire).unwrap();
            data
        });
        let x: Vec<Vec<f32>> = (0..2).map(|r| rank_data(r, d, salt)).collect();
        for (c, range) in chunk_ranges(d, 2).iter().enumerate() {
            let owner = (0..2).find(|r| ring_owned_chunk(*r, 2) == c).unwrap();
            for i in range.clone() {
                let expect = narrow1(x[owner][i] + narrow1(x[1 - owner][i]));
                for (r, data) in results.iter().enumerate() {
                    prop_assert_eq!(
                        data[i].to_bits(), expect.to_bits(),
                        "rank {} elem {} (owner {}): got {}, want {}",
                        r, i, owner, data[i], expect
                    );
                }
            }
        }
    }

    #[test]
    fn every_hop_is_one_message_of_one_whole_slice(
        world in 1usize..9,
        d in 0usize..200,
        wire_idx in 0usize..3,
        root_pick in any::<usize>(),
        salt in any::<u64>(),
    ) {
        // DeAR's Eqs. 3–5 at the message level: a ring reduce-scatter or
        // all-gather is P−1 hops and an all-reduce 2(P−1), each hop one
        // message to the successor carrying one whole chunk; a binomial
        // tree reduce or broadcast is P−1 hops in all, each one message of
        // the whole buffer. d < P (empty chunks) and d = 0 included.
        let wire = [DType::F32, DType::Bf16, DType::F16][wire_idx];
        let root = root_pick % world;
        let bytes = |len: usize| len * wire.size_bytes();
        let chunks = chunk_ranges(d, world);
        let logs = run_cluster(world, |ep| {
            let t = Counting { inner: ep, sends: Mutex::new(Vec::new()) };
            let mut data = rank_data(t.rank(), d, salt);
            let owned = ring_owned_chunk(t.rank(), world);
            ring_reduce_scatter_on_wire(&t, &mut data, ReduceOp::Sum, wire).unwrap();
            let rs = t.take_sends();
            ring_all_gather_on_wire(&t, &mut data, owned, wire).unwrap();
            let ag = t.take_sends();
            ring_all_reduce_on_wire(&t, &mut data, ReduceOp::Sum, wire).unwrap();
            let ar = t.take_sends();
            tree_reduce(&t, &mut data, root, ReduceOp::Sum, wire).unwrap();
            let reduce = t.take_sends();
            tree_broadcast(&t, &mut data, root, wire).unwrap();
            let broadcast = t.take_sends();
            (rs, ag, ar, reduce, broadcast)
        });
        let (mut reduce_sends, mut broadcast_sends) = (Vec::new(), Vec::new());
        for (rank, (rs, ag, ar, reduce, broadcast)) in logs.into_iter().enumerate() {
            // Round r of a ring phase ships chunk (base − r) mod P, where
            // base is the rank itself (reduce-scatter) or its owned chunk
            // (all-gather).
            let next = (rank + 1) % world;
            let phase = |base: usize| -> Vec<(usize, usize)> {
                (0..world - 1)
                    .map(|r| (next, bytes(chunks[(base + world - r) % world].len())))
                    .collect()
            };
            let owned = ring_owned_chunk(rank, world);
            prop_assert_eq!(&rs, &phase(rank), "reduce-scatter, rank {}", rank);
            prop_assert_eq!(&ag, &phase(owned), "all-gather, rank {}", rank);
            let both: Vec<_> = phase(rank).into_iter().chain(phase(owned)).collect();
            prop_assert_eq!(&ar, &both, "all-reduce, rank {}", rank);
            reduce_sends.extend(reduce);
            broadcast_sends.extend(broadcast);
        }
        for (name, sends) in [("reduce", reduce_sends), ("broadcast", broadcast_sends)] {
            prop_assert_eq!(sends.len(), world - 1, "tree {} messages", name);
            for (_, size) in sends {
                prop_assert_eq!(size, bytes(d), "tree {} message bytes", name);
            }
        }
    }
}
