//! The microbench ladder: every layer below the training step, measured
//! from outside by timing calls into its public functions — model compute,
//! SIMD kernels, framing, link α-β per fabric, collectives per fabric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Cursor, Read};
use std::time::Instant;

use dear_collectives::{
    hierarchical_all_reduce, ring_all_gather, ring_all_reduce, ring_owned_chunk,
    ring_reduce_scatter, simd, ClusterShape, CollectiveError, CostModel, LocalFabric, ReduceOp,
    Transport, WireBuf,
};
use dear_minidnn::{softmax_cross_entropy, Sgd};
use dear_net::frame::{read_frame_header, write_data_frame, FrameKind};
use dear_net::{probe_alpha_beta, tcp_loopback, tiered_loopback, ShmFabric};

use crate::spec::{Inputs, Workload};
use crate::stats::median;
use crate::worker::RECV_TIMEOUT;

const MIB: usize = 1 << 20;
/// Collective payload of the `*_4mib_*` rows, in f32 elements.
const BIG: usize = 4 * MIB / 4;
/// Payload of the latency-bound `ar_4kib_us` rows.
const SMALL: usize = 4096 / 4;
const BIG_REPS: usize = 10;
const SMALL_REPS: usize = 50;
const COMPUTE_REPS: usize = 30;
const SINGLE_STEPS: u64 = 40;

/// One learnable layer's measured compute, the activation that follows it
/// folded in.
#[derive(Debug, Clone)]
pub struct LayerTime {
    pub name: String,
    /// Elements of each parameter tensor (weight, bias).
    pub tensors: Vec<usize>,
    pub ff_ns: u64,
    pub bp_ns: u64,
}

#[derive(Debug, Default)]
pub struct Ladder {
    pub rows: BTreeMap<String, f64>,
    /// Sample counts and settings behind the rows, for the printed report.
    pub notes: Vec<String>,
    pub layers: Vec<LayerTime>,
    /// The fitted link model per fabric name.
    pub links: BTreeMap<&'static str, CostModel>,
}

fn gibs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / (1u64 << 30) as f64
}

/// Best-of-5 mean wall time of 64 back-to-back calls, after a warm-up.
fn time_best(mut f: impl FnMut()) -> f64 {
    for _ in 0..4 {
        f();
    }
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..64 {
                f();
            }
            t.elapsed().as_secs_f64() / 64.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic finite f32s in [-0.5, 0.5).
fn fill(buf: &mut [f32], mut seed: u64) {
    for v in buf.iter_mut() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mantissa = ((seed >> 40) & 0x7F_FFFF) as u32;
        *v = f32::from_bits(0x3F80_0000 | mantissa) - 1.5;
    }
}

fn simd_rows(l: &mut Ladder) {
    let elems = MIB / 4;
    let mut src = vec![0.0f32; elems];
    let mut acc = vec![0.0f32; elems];
    fill(&mut src, 0x5EED);
    fill(&mut acc, 0xACC0);
    let acc0 = acc.clone();
    let mut wire = vec![0u8; MIB];
    let mut half = vec![0u8; MIB / 2];
    let mut dec = vec![0.0f32; elems];
    simd::encode_f32(&src, &mut wire);
    simd::encode_bf16(&src, &mut half);
    let bf16 = half.clone();
    let mut row = |name: &str, secs: f64| {
        l.rows
            .insert(format!("collectives.simd.{name}_gibs"), gibs(MIB, secs));
    };
    row(
        "sum_f32_bytes",
        time_best(|| {
            acc.copy_from_slice(&acc0);
            simd::sum_f32_bytes(black_box(&mut acc), black_box(&wire));
        }),
    );
    row(
        "encode_f32",
        time_best(|| simd::encode_f32(black_box(&src), black_box(&mut wire))),
    );
    row(
        "decode_f32",
        time_best(|| simd::decode_f32(black_box(&wire), black_box(&mut dec))),
    );
    row(
        "sum_bf16",
        time_best(|| {
            acc.copy_from_slice(&acc0);
            simd::sum_bf16(black_box(&mut acc), black_box(&bf16));
        }),
    );
    let mut vals = src.clone();
    row(
        "encode_round_bf16",
        time_best(|| {
            vals.copy_from_slice(&src);
            simd::encode_round_bf16(black_box(&mut vals), black_box(&mut half));
        }),
    );
    l.notes.push(format!(
        "simd: 1 MiB buffers, best of 5 x 64 calls, kernel={}",
        simd::active_kernel()
    ));
}

/// Framing CPU only: a data frame written into memory and parsed back.
fn frame_roundtrip(bytes: usize) -> f64 {
    let payload = WireBuf::from_f32(&vec![1.0f32; bytes / 4]);
    let mut wire: Vec<u8> = Vec::with_capacity(bytes + 64);
    let mut body = vec![0u8; bytes + 64];
    time_best(|| {
        wire.clear();
        write_data_frame(&mut wire, 7, black_box(&payload)).expect("writing to memory");
        let mut r = Cursor::new(&wire);
        let (kind, len) = read_frame_header(&mut r).expect("header just written");
        assert_eq!(kind, FrameKind::Data);
        r.read_exact(&mut body[..len]).expect("body just written");
        black_box(&body);
    })
}

fn frame_rows(l: &mut Ladder) {
    l.rows.insert(
        "net.frame.roundtrip_1mib_gibs".into(),
        gibs(MIB, frame_roundtrip(MIB)),
    );
    l.rows.insert(
        "net.frame.roundtrip_1kib_us".into(),
        frame_roundtrip(1024) * 1e6,
    );
    l.notes
        .push("frame: write_data_frame + read_frame_header + body read, in memory".into());
}

/// Runs `f` on every endpoint of a world, one thread per rank, and returns
/// the results in rank order.
fn on_world<T, R>(
    eps: &[T],
    f: impl Fn(&T) -> Result<R, CollectiveError> + Sync,
) -> Result<Vec<R>, String>
where
    T: Transport + Sync,
    R: Send,
{
    let results: Vec<Result<R, CollectiveError>> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter()
            .map(|ep| {
                let f = &f;
                s.spawn(move || {
                    ep.set_recv_timeout(Some(RECV_TIMEOUT));
                    f(ep)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder rank panicked"))
            .collect()
    });
    results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ladder collective failed: {e}"))
}

/// Median wall time of `reps` calls of `op` on a fresh copy of `data`.
fn time_coll<T: Transport>(
    ep: &T,
    elems: usize,
    reps: usize,
    op: impl Fn(&T, &mut [f32]) -> Result<(), CollectiveError>,
) -> Result<f64, CollectiveError> {
    let mut data = vec![ep.rank() as f32 + 1.0; elems];
    op(ep, &mut data)?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        data.fill(1.0);
        let t = Instant::now();
        op(ep, &mut data)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

struct FabricTimes {
    link: CostModel,
    rs: f64,
    ag: f64,
    ar: f64,
    ar_small: f64,
}

fn fabric_rows<T: Transport + Sync>(
    l: &mut Ladder,
    name: &'static str,
    eps: &[T],
) -> Result<(), String> {
    let mut per_rank = on_world(eps, |ep| {
        let peer = 1 - ep.rank();
        // Two sizes, so the least-squares fit is the line through them and
        // cannot come out degenerate (a degenerate fit makes the probe
        // answer with a preset instead of a measurement).
        let link = probe_alpha_beta(ep, peer, &[1024, 4 * MIB], 30)?;
        let rs = time_coll(ep, BIG, BIG_REPS, |ep, d| {
            ring_reduce_scatter(ep, d, ReduceOp::Sum).map(|_| ())
        })?;
        let ag = time_coll(ep, BIG, BIG_REPS, |ep, d| {
            ring_all_gather(ep, d, ring_owned_chunk(ep.rank(), ep.world_size()))
        })?;
        let ar = time_coll(ep, BIG, BIG_REPS, |ep, d| {
            ring_all_reduce(ep, d, ReduceOp::Sum)
        })?;
        let ar_small = time_coll(ep, SMALL, SMALL_REPS, |ep, d| {
            ring_all_reduce(ep, d, ReduceOp::Sum)
        })?;
        Ok(FabricTimes {
            link,
            rs,
            ag,
            ar,
            ar_small,
        })
    })?;
    // Collective times are rank 0's; the link fit is rank 1's, the probe's
    // initiator, which keeps the best of its round trips (the serving rank
    // times a single one).
    let link = per_rank[1].link;
    let t = per_rank.swap_remove(0);
    let mut row = |metric: &str, v: f64| {
        l.rows.insert(metric.replace("{}", name), v);
    };
    row("link.{}.alpha_us", link.alpha_ns / 1e3);
    row("link.{}.beta_ns_per_b", link.beta_ns_per_byte);
    row("coll.{}.rs_4mib_ms", t.rs * 1e3);
    row("coll.{}.ag_4mib_ms", t.ag * 1e3);
    row("coll.{}.ar_4mib_ms", t.ar * 1e3);
    row("coll.{}.ar_4kib_us", t.ar_small * 1e6);
    // The adjacent-layer efficiency: what the link fit predicts for the
    // collective over what the collective took.
    let predicted = link.ring_all_reduce((BIG * 4) as u64, 2).as_secs_f64();
    row("coll.{}.ar_4mib_eff", predicted / t.ar);
    if name == "local" {
        l.rows
            .insert("coll.local.rsag_over_ar".into(), (t.rs + t.ag) / t.ar);
    }
    l.links.insert(name, link);
    Ok(())
}

fn tiered_rows(l: &mut Ladder) -> Result<(), String> {
    let eps = tiered_loopback(2, 2).map_err(|e| format!("tiered loopback world: {e}"))?;
    let shape = ClusterShape::new(2, 2);
    let per_rank = on_world(&eps, |ep| {
        let ring = time_coll(ep, BIG, BIG_REPS, |ep, d| {
            ring_all_reduce(ep, d, ReduceOp::Sum)
        })?;
        let hier = time_coll(ep, BIG, BIG_REPS, |ep, d| {
            hierarchical_all_reduce(ep, shape, d, ReduceOp::Sum)
        })?;
        Ok((ring, hier))
    })?;
    let (ring, hier) = per_rank[0];
    l.rows
        .insert("coll.tiered4.ring_ar_4mib_ms".into(), ring * 1e3);
    l.rows
        .insert("coll.tiered4.hier_ar_4mib_ms".into(), hier * 1e3);
    Ok(())
}

/// The workload's model alone: forward and backward per layer, and a
/// plain one-worker SGD loop of the same task at the same per-rank batch.
fn compute_rows(l: &mut Ladder, w: &Workload, seed: u64) {
    let inputs = Inputs::new(seed);
    let mut net = w.model.build(inputs.init_seed);
    let (x, labels) = inputs.data.batch(0, w.batch);
    let layers = net.len();
    let mut ff: Vec<Vec<f64>> = vec![Vec::new(); layers];
    let mut bp: Vec<Vec<f64>> = vec![Vec::new(); layers];
    let (mut ff_total, mut bp_total) = (Vec::new(), Vec::new());
    let mut stamps: Vec<Instant> = Vec::with_capacity(layers + 1);
    for rep in 0..COMPUTE_REPS + 3 {
        stamps.clear();
        let logits = net.forward_with_hook(&x, |_, _| stamps.push(Instant::now()));
        stamps.push(Instant::now());
        let (_, dloss) = softmax_cross_entropy(&logits, &labels);
        net.zero_grads();
        let fwd = stamps.clone();
        stamps.clear();
        stamps.push(Instant::now());
        net.backward_with_hook(&dloss, |_, _| stamps.push(Instant::now()));
        if rep < 3 {
            continue; // page in and warm the caches
        }
        for li in 0..layers {
            ff[li].push(fwd[li + 1].duration_since(fwd[li]).as_secs_f64());
            // The backward hook fires back to front, after each layer.
            let k = layers - 1 - li;
            bp[li].push(stamps[k + 1].duration_since(stamps[k]).as_secs_f64());
        }
        ff_total.push(fwd[layers].duration_since(fwd[0]).as_secs_f64());
        bp_total.push(stamps[layers].duration_since(stamps[0]).as_secs_f64());
    }
    l.rows
        .insert("minidnn.ff_ms".into(), median(&ff_total) * 1e3);
    l.rows
        .insert("minidnn.bp_ms".into(), median(&bp_total) * 1e3);
    for li in 0..layers {
        let tensors: Vec<usize> = net.layers()[li].params().iter().map(|p| p.len()).collect();
        let (f, b) = (
            (median(&ff[li]) * 1e9) as u64,
            (median(&bp[li]) * 1e9) as u64,
        );
        match (tensors.is_empty(), l.layers.last_mut()) {
            (true, Some(prev)) => {
                prev.ff_ns += f;
                prev.bp_ns += b;
            }
            _ => l.layers.push(LayerTime {
                name: net.layers()[li].name(),
                tensors,
                ff_ns: f.max(1),
                bp_ns: b.max(1),
            }),
        }
    }

    let mut net = w.model.build(inputs.init_seed);
    let mut opt = Sgd::new(0.01);
    let batches: Vec<_> = (0..SINGLE_STEPS + 3)
        .map(|s| inputs.data.batch(s, w.batch))
        .collect();
    let mut t0 = Instant::now();
    for (i, (x, labels)) in batches.iter().enumerate() {
        if i == 3 {
            t0 = Instant::now();
        }
        net.zero_grads();
        let logits = net.forward(x);
        let (_, dloss) = softmax_cross_entropy(&logits, labels);
        net.backward(&dloss);
        opt.step(&mut net);
    }
    let secs = t0.elapsed().as_secs_f64();
    l.rows.insert(
        "minidnn.single_samples_per_s".into(),
        (SINGLE_STEPS as usize * w.batch) as f64 / secs,
    );
    l.notes.push(format!(
        "minidnn: {} at batch {}, ff/bp median of {COMPUTE_REPS}, single-worker loop of {SINGLE_STEPS} steps",
        w.model.name(),
        w.batch
    ));
}

/// Measures every ladder row once.
///
/// # Errors
///
/// Returns a message when a loopback world cannot be built or a
/// collective fails.
pub fn run(w: &Workload, seed: u64) -> Result<Ladder, String> {
    let mut l = Ladder::default();
    compute_rows(&mut l, w, seed);
    simd_rows(&mut l);
    frame_rows(&mut l);
    fabric_rows(&mut l, "local", &LocalFabric::create(2))?;
    fabric_rows(&mut l, "shm", &ShmFabric::create(2))?;
    let tcp = tcp_loopback(2).map_err(|e| format!("tcp loopback world: {e}"))?;
    fabric_rows(&mut l, "tcp", &tcp)?;
    drop(tcp);
    tiered_rows(&mut l)?;
    l.notes.push(format!(
        "links: probe_alpha_beta at 1 KiB and 4 MiB, best of 30; collectives: 2 ranks, 4 MiB median of {BIG_REPS}, 4 KiB median of {SMALL_REPS}; tiered4: tiered_loopback(2,2)"
    ));
    Ok(l)
}
