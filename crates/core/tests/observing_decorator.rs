//! A decorator that observes a link and forwards only what a transport
//! must have — `send`, `recv`, the deadline, the pool and the resize —
//! leaves every provided method at its default: `lend_f32` sends a copy,
//! a waiting `recv_parcel` is `recv`, and the poll (`recv_parcel` without
//! `wait`) reports nothing. The training thread then makes no progress at
//! its layer hooks and moves everything in its blocking waits (the
//! feed-forward's wait for a group, the flush, `synchronize`). Training through it must
//! neither hang nor change a bit: DeAR and WFBP on two and four ranks land
//! where the plain fabric lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dear_collectives::{CollectiveError, LocalFabric, Message, Transport, WorldChange};
use dear_core::{run_worker, PipelineMode, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the messages it sends and receives; forwards nothing optional.
struct Observer<T> {
    inner: T,
    messages: AtomicUsize,
}

impl<T: Transport> Transport for Observer<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.inner.send(to, msg)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let msg = self.inner.recv(from)?;
        self.messages.fetch_add(1, Ordering::Relaxed);
        Ok(msg)
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

    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        self.inner.reconfigure(survivors)
    }
}

fn build_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(11);
    Sequential::new()
        .push(Linear::new(6, 24, &mut rng))
        .push(Relu::new())
        .push(Linear::new(24, 12, &mut rng))
        .push(Relu::new())
        .push(Linear::new(12, 3, &mut rng))
}

/// Every rank's parameters after a few steps on a `world`-rank local
/// fabric, each endpoint wrapped in an [`Observer`] if `observed`.
fn train(world: usize, mode: PipelineMode, observed: bool) -> Vec<Vec<u32>> {
    let config = TrainConfig {
        lr: 0.05,
        momentum: 0.9,
        fusion_buffer: Some(256),
        mode,
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(6, 3, 0.4, 5);
    let rank_main = &|handle: dear_core::WorkerHandle| {
        let rank = handle.rank();
        let mut net = build_net();
        let mut optim = handle.into_optim(&net);
        for step in 0..6 {
            let (x, labels) = data.shard(step, 8 * world, rank, world);
            optim.train_step(&mut net, &x, &labels).unwrap();
        }
        optim.synchronize(&mut net).unwrap();
        net.flat_params().iter().map(|x| x.to_bits()).collect()
    };
    std::thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::create(world)
            .into_iter()
            .map(|ep| {
                let config = config.clone();
                s.spawn(move || {
                    if observed {
                        let ep = Observer {
                            inner: ep,
                            messages: AtomicUsize::new(0),
                        };
                        run_worker(ep, config, rank_main)
                    } else {
                        run_worker(ep, config, rank_main)
                    }
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

#[test]
fn a_decorator_that_forwards_no_optional_method_trains_bit_identically() {
    let (done, finished) = mpsc::channel();
    let cases = std::thread::spawn(move || {
        for world in [2, 4] {
            for mode in [PipelineMode::Dear, PipelineMode::Wfbp] {
                let plain = train(world, mode, false);
                let observed = train(world, mode, true);
                assert_eq!(observed, plain, "{mode:?} on {world} ranks");
                for rank in &plain[1..] {
                    assert_eq!(rank, &plain[0], "{mode:?} on {world} ranks: ranks agree");
                }
            }
        }
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("training through the decorator is still running after 120 s");
    }
    cases
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}
