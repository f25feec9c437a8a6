//! Mixed-precision wire format at the paper's 25 MB fusion-buffer working
//! set: what a bf16/f16 wire saves in bytes and in measured step time,
//! over both fabrics, on the trainer's one-message-per-hop ring.
//!
//! Written to `results/precision.txt`:
//!
//! - **Wire bytes per rank** for one 25 MB ring all-reduce on an f32,
//!   bf16 and f16 wire, counted at the `Message` layer (payload bytes
//!   crossing each rank's outgoing links). The narrow wires must show the
//!   ~2× reduction the format promises.
//! - **Measured all-reduce time** for each wire dtype on a β-charged
//!   [`DelayFabric`] (10 GbE cost model — the regime the paper targets,
//!   where bytes are the bottleneck) and on real TCP loopback sockets
//!   (memcpy-bound, so the saving is smaller but still real).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dear_collectives::{
    ring_all_reduce_on_wire, CollectiveError, CostModel, DType, DelayFabric, LocalFabric, Message,
    ReduceOp, Transport,
};
use dear_net::tcp_loopback_with;

const WORLD: usize = 4;
const BYTES: usize = 25 << 20;
const ELEMS: usize = BYTES / 4;
const ITERS: usize = 3;

/// Counts payload wire bytes on the way out; otherwise a transparent
/// decorator. This is the number the frame layer actually serializes for
/// the payload (dtype-dependent), independent of per-frame header costs.
struct Counting<T> {
    inner: T,
    sent: AtomicU64,
}

impl<T> Counting<T> {
    fn new(inner: T) -> Self {
        Counting {
            inner,
            sent: AtomicU64::new(0),
        }
    }
}

impl<T: Transport> Transport for Counting<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.sent
            .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
        self.inner.send(to, msg)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.inner.recv(from)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }
}

/// One synchronized 25 MB all-reduce across every rank of `eps`; returns
/// the slowest rank's time (the step time a trainer would observe).
fn timed_all_reduce<T: Transport + Sync>(eps: &[T], wire: DType) -> Duration {
    let barrier = Barrier::new(eps.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .iter()
            .map(|ep| {
                let barrier = &barrier;
                s.spawn(move || {
                    let rank = ep.rank();
                    let mut data: Vec<f32> = (0..ELEMS)
                        .map(|i| ((i + rank) % 997) as f32 * 1e-3)
                        .collect();
                    barrier.wait();
                    let t = Instant::now();
                    ring_all_reduce_on_wire(ep, &mut data, ReduceOp::Sum, wire).unwrap();
                    t.elapsed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap()
    })
}

/// Mean measured time plus per-rank wire bytes for one all-reduce on the
/// given (already Counting-wrapped) endpoints.
fn measure<T: Transport + Sync>(eps: &[Counting<T>], wire: DType) -> (f64, u64) {
    let _ = timed_all_reduce(eps, wire); // warm-up: pools, page faults
    for ep in eps {
        ep.sent.store(0, Ordering::Relaxed);
    }
    let mut times = Vec::new();
    for _ in 0..ITERS {
        times.push(timed_all_reduce(eps, wire));
    }
    let mean = times.iter().sum::<Duration>().as_secs_f64() * 1e3 / ITERS as f64;
    let per_rank = eps[0].sent.load(Ordering::Relaxed) / ITERS as u64;
    (mean, per_rank)
}

fn delay_endpoints(
    model: CostModel,
) -> Vec<Counting<DelayFabric<dear_collectives::LocalEndpoint>>> {
    LocalFabric::create(WORLD)
        .into_iter()
        .map(|ep| Counting::new(DelayFabric::new(ep, model)))
        .collect()
}

fn tcp_endpoints() -> Vec<Counting<dear_net::TcpEndpoint>> {
    tcp_loopback_with(WORLD, |mut cfg| {
        cfg.recv_timeout = Some(Duration::from_secs(120)); // hang guard
        cfg
    })
    .expect("loopback rendezvous")
    .into_iter()
    .map(Counting::new)
    .collect()
}

fn main() {
    let wires = [DType::F32, DType::Bf16, DType::F16];
    let mb = BYTES as f64 / (1024.0 * 1024.0);

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# mixed-precision wire at {mb:.0} MB: ring all-reduce, one message \
         per hop, {WORLD} ranks, mean of {ITERS}, {cores} host core(s)"
    );
    let _ = writeln!(
        out,
        "# wire bytes = payload bytes leaving each rank (f32 accumulation \
         on every hop either way)"
    );
    let _ = writeln!(
        out,
        "# all ranks share this host's cores, so rows whose link outruns \
         the scalar casts (10 GbE on a starved host) measure CPU, not wire \
         — delay_1gbe is the bandwidth-bound regime the knob targets"
    );

    // DelayFabric, β-charged at two link speeds: 1 GbE is firmly
    // bandwidth-bound (the regime where you reach for a narrow wire, and
    // where the byte saving converts almost 1:1 into time); 10 GbE shows
    // how much of the saving the scalar cast cost gives back on a fast
    // link.
    let run = |eps: &[Counting<_>]| -> Vec<(DType, f64, u64)> {
        wires
            .iter()
            .map(|&w| {
                let (ms, bytes) = measure(eps, w);
                (w, ms, bytes)
            })
            .collect()
    };
    // 1 Gb/s = 125 MB/s => 8 ns/byte; same α as the 10 GbE model.
    let delay_1g = run(&delay_endpoints(CostModel::new(22_500.0, 8.0, 0.0)));
    let delay_10g = run(&delay_endpoints(CostModel::ten_gbe()));
    // Real TCP loopback sockets: memcpy-bound, so the cast overhead eats
    // into the saving — reported as measured, not assumed.
    let tcp: Vec<(DType, f64, u64)> = {
        let eps = tcp_endpoints();
        wires
            .iter()
            .map(|&w| {
                let (ms, bytes) = measure(&eps, w);
                (w, ms, bytes)
            })
            .collect()
    };

    for (label, rows) in [
        ("delay_1gbe", &delay_1g),
        ("delay_10gbe", &delay_10g),
        ("tcp_loopback", &tcp),
    ] {
        let f32_ms = rows[0].1;
        let f32_bytes = rows[0].2;
        for (w, ms, bytes) in rows {
            let _ = writeln!(out, "{label}_{w}_ms={ms:.2}");
            let _ = writeln!(out, "{label}_{w}_wire_bytes_per_rank={bytes}");
            if *w != DType::F32 {
                let _ = writeln!(
                    out,
                    "{label}_{w}_wire_byte_reduction={:.2}x",
                    f32_bytes as f64 / *bytes as f64
                );
                let _ = writeln!(out, "{label}_{w}_speedup={:.2}x", f32_ms / ms);
            }
        }
    }

    print!("{out}");
    std::fs::create_dir_all("results").expect("cannot create results/");
    std::fs::write("results/precision.txt", out).expect("writing results/precision.txt");
    eprintln!("wrote results/precision.txt");
}
