//! `DelayFabric` hands a message over *at* its delivery stamp: never before
//! it, and not a scheduler wake-up after it. The second half is what keeps
//! the emulated link honest — a receiver that wakes late sends late, an
//! idle link starts from "now", and the α it was asked to model silently
//! grows by the overshoot of `thread::sleep` (DESIGN.md, "DelayFabric").
//!
//! The wait also costs little CPU: a receiver sleeps to just short of the
//! stamp and polls the clock only for the last stretch, so the echoing
//! thread is on a CPU for a small share of its wall time.
//!
//! A test binary of its own, with one test: the upper bounds are timing
//! properties, and neighbours polling on the same two cores would be
//! measured with them.

use std::time::{Duration, Instant};

use dear_collectives::{CostModel, DelayFabric, LocalFabric, Transport};

const ROUNDS: u32 = 200;

/// The share of its wall time the echoing thread may spend on a CPU. With
/// the 50 µs poll tail of a 502 µs wait per 1 ms round trip it measures
/// 5–8 %; with a 250 µs tail, 20–27 %.
const MAX_ECHO_CPU: f64 = 0.12;

/// This thread's time on a CPU: the first field of
/// `/proc/thread-self/schedstat`, or `None` where the file is absent.
fn thread_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let nanos = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(nanos))
}

/// One ping-pong run; every round asserts the lower bound. Returns the
/// total, for the upper one, and the echoing thread's CPU share of its
/// wall time where the host reports it.
fn ping_pong(model: CostModel, wire: Duration) -> (Duration, Option<f64>) {
    let mut eps = LocalFabric::create(2);
    let b = DelayFabric::new(eps.pop().unwrap(), model);
    let a = DelayFabric::new(eps.pop().unwrap(), model);
    let payload = vec![1.0f32; 256]; // 1 KiB on the f32 wire
    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            let (cpu, wall) = (thread_cpu(), Instant::now());
            for _ in 0..ROUNDS {
                let ping = b.recv(0).unwrap();
                b.send(0, ping).unwrap();
            }
            Some((thread_cpu()? - cpu?).as_secs_f64() / wall.elapsed().as_secs_f64())
        });
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let sent = Instant::now();
            a.send(1, payload.clone().into()).unwrap();
            let pong = a.recv(1).unwrap();
            // The ping is stamped `≥ sent + wire`; the echo cannot be sent
            // before that stamp unless `recv` returned early, and is
            // stamped a wire time later itself.
            assert!(
                sent.elapsed() >= 2 * wire,
                "a recv returned before its stamp: round trip {:?} < {:?}",
                sent.elapsed(),
                2 * wire
            );
            assert_eq!(pong, payload);
        }
        let took = start.elapsed();
        (took, echo.join().unwrap())
    })
}

#[test]
fn recv_is_never_early_and_ping_pong_runs_at_link_speed() {
    // α = 400 µs, β = 100 ns/B: 502.4 µs per 1 KiB message, the range of
    // `delay2_*`'s messages, where a late wake-up (≈ 100 µs of a slept
    // wait on the reference host) is a fifth of the link time.
    let model = CostModel::new(400_000.0, 100.0, 0.0);
    let wire = Duration::from_secs_f64(model.p2p(1024).as_secs_f64());
    let link = 2 * ROUNDS * wire;
    // The lower bound holds every time; the upper bound is about what the
    // fabric can do, and a noisy host can only make a run slower — so one
    // run of three on time decides it.
    let mut runs = Vec::new();
    let on_time = (0..3).any(|_| {
        let (took, echo_cpu) = ping_pong(model, wire);
        match echo_cpu {
            Some(share) => assert!(
                share <= MAX_ECHO_CPU,
                "the echoing thread was on a CPU for {:.1} % of its wall time (bound {:.0} %)",
                100.0 * share,
                100.0 * MAX_ECHO_CPU
            ),
            None => eprintln!("no /proc/thread-self/schedstat: the CPU bound is not checked"),
        }
        runs.push(took);
        took <= link + link / 10
    });
    assert!(
        on_time,
        "{ROUNDS} round trips took {runs:?}, each more than 10 % over their {link:?} of link time"
    );
}
