//! `SpanTransport`: the bench-side decorator that measures a link from
//! outside. It wraps the endpoint before `run_worker` gets it, counts calls
//! and wire bytes, and times `send` and the time blocked in `recv`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dear_collectives::{CollectiveError, Message, Transport, WorldChange};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOp {
    Send,
    Recv,
}

/// One `send` or `recv` call that returned `Ok`.
#[derive(Debug, Clone, Copy)]
pub struct LinkEvent {
    pub op: LinkOp,
    pub bytes: usize,
    pub start: Instant,
    pub end: Instant,
}

/// The events of one endpoint, shared with whoever reduces them after the
/// run. Only the comm thread appends, so the lock is never contended.
#[derive(Debug, Default)]
pub struct LinkLog(Mutex<Vec<LinkEvent>>);

impl LinkLog {
    pub fn events(&self) -> Vec<LinkEvent> {
        self.0.lock().expect("link log poisoned").clone()
    }
}

#[derive(Debug)]
pub struct SpanTransport<T> {
    inner: T,
    log: Arc<LinkLog>,
}

impl<T: Transport> SpanTransport<T> {
    pub fn new(inner: T) -> (Self, Arc<LinkLog>) {
        let log = Arc::new(LinkLog::default());
        (
            SpanTransport {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn push(&self, op: LinkOp, bytes: usize, start: Instant) {
        let end = Instant::now();
        self.log
            .0
            .lock()
            .expect("link log poisoned")
            .push(LinkEvent {
                op,
                bytes,
                start,
                end,
            });
    }
}

impl<T: Transport> Transport for SpanTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        let bytes = msg.wire_bytes();
        let start = Instant::now();
        self.inner.send(to, msg)?;
        self.push(LinkOp::Send, bytes, start);
        Ok(())
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let start = Instant::now();
        let msg = self.inner.recv(from)?;
        self.push(LinkOp::Recv, msg.wire_bytes(), start);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dear_collectives::{ring_all_reduce, LocalEndpoint, LocalFabric, ReduceOp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts what reaches the inner transport.
    #[derive(Default)]
    struct Calls {
        sends: AtomicUsize,
        send_bytes: AtomicUsize,
        recvs: AtomicUsize,
        takes: AtomicUsize,
        recycles: AtomicUsize,
        timeouts: AtomicUsize,
        reconfigures: AtomicUsize,
    }

    struct Counting {
        inner: LocalEndpoint,
        calls: Arc<Calls>,
    }

    impl Transport for Counting {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn world_size(&self) -> usize {
            self.inner.world_size()
        }
        fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
            self.calls.sends.fetch_add(1, Ordering::Relaxed);
            self.calls
                .send_bytes
                .fetch_add(msg.wire_bytes(), Ordering::Relaxed);
            self.inner.send(to, msg)
        }
        fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
            self.calls.recvs.fetch_add(1, Ordering::Relaxed);
            self.inner.recv(from)
        }
        fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
            self.calls.timeouts.fetch_add(1, Ordering::Relaxed);
            self.inner.set_recv_timeout(timeout)
        }
        fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
            self.calls.takes.fetch_add(1, Ordering::Relaxed);
            self.inner.take_buffer(capacity_bytes)
        }
        fn recycle_buffer(&self, buf: Vec<u8>) {
            self.calls.recycles.fetch_add(1, Ordering::Relaxed);
            self.inner.recycle_buffer(buf);
        }
        fn reconfigure(
            &mut self,
            survivors: Option<&[usize]>,
        ) -> Result<WorldChange, CollectiveError> {
            self.calls.reconfigures.fetch_add(1, Ordering::Relaxed);
            self.inner.reconfigure(survivors)
        }
    }

    #[test]
    fn forwards_every_call_and_counts_exactly() {
        const ELEMS: usize = 1024;
        let worlds: Vec<_> = LocalFabric::create(2)
            .into_iter()
            .map(|ep| {
                let calls = Arc::new(Calls::default());
                let (t, log) = SpanTransport::new(Counting {
                    inner: ep,
                    calls: Arc::clone(&calls),
                });
                (t, log, calls)
            })
            .collect();
        std::thread::scope(|s| {
            for (t, _, _) in &worlds {
                s.spawn(move || {
                    assert!(t.set_recv_timeout(Some(Duration::from_secs(5))));
                    let mut data = vec![t.rank() as f32 + 1.0; ELEMS];
                    ring_all_reduce(t, &mut data, ReduceOp::Sum).unwrap();
                    assert_eq!(data, vec![3.0; ELEMS]);
                });
            }
        });
        for (mut t, log, calls) in worlds {
            let events = log.events();
            let sends: Vec<_> = events.iter().filter(|e| e.op == LinkOp::Send).collect();
            let recvs: Vec<_> = events.iter().filter(|e| e.op == LinkOp::Recv).collect();
            // A 2-rank ring all-reduce is one reduce-scatter hop and one
            // all-gather hop, half the buffer each.
            assert_eq!(sends.len(), 2);
            assert_eq!(recvs.len(), 2);
            assert!(sends.iter().all(|e| e.bytes == ELEMS / 2 * 4));
            assert!(recvs.iter().all(|e| e.bytes == ELEMS / 2 * 4));
            assert!(events.iter().all(|e| e.end >= e.start));
            assert_eq!(calls.sends.load(Ordering::Relaxed), 2);
            assert_eq!(calls.send_bytes.load(Ordering::Relaxed), ELEMS * 4);
            assert_eq!(calls.recvs.load(Ordering::Relaxed), 2);
            assert_eq!(calls.timeouts.load(Ordering::Relaxed), 1);
            // The ring encodes each outgoing chunk into a pooled buffer and
            // hands each received one back.
            assert_eq!(calls.takes.load(Ordering::Relaxed), 2);
            assert_eq!(calls.recycles.load(Ordering::Relaxed), 2);
            // Forwarded too; the local fabric refuses to discover survivors
            // itself, so this returns at once.
            assert!(t.reconfigure(None).is_err());
            assert_eq!(calls.reconfigures.load(Ordering::Relaxed), 1);
        }
    }
}
