//! Endpoint configuration and the `dear-net` error type.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use dear_collectives::{DType, MIN_LINK_FRAMES};
use dear_core::trace::TRACE_ENV;
use dear_core::ParallelismStrategy;

/// Demo-worker behaviour knobs (checkpointing, failure injection, tuning
/// windows), carried inside [`NetConfig`] so that
/// [`NetConfig::from_env`] is the **only** place in this crate that reads
/// the environment — everything downstream takes the typed struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemoOptions {
    /// Rank that dies abruptly mid-training (failure-propagation tests),
    /// or `None` for a healthy run. Env: `DEAR_DEMO_EXIT_RANK`.
    pub exit_rank: Option<usize>,
    /// Step at which [`DemoOptions::exit_rank`] dies.
    /// Env: `DEAR_DEMO_EXIT_AT_STEP`.
    pub exit_at_step: u64,
    /// World generation the injection fires in (an elastic restart bumps
    /// the generation past it, so the relaunched world survives).
    /// Env: `DEAR_DEMO_EXIT_GEN`.
    pub exit_gen: u64,
    /// Checkpoint directory, or `None` to disable checkpointing.
    /// Env: `DEAR_CKPT_DIR`.
    pub ckpt_dir: Option<String>,
    /// Steps between checkpoints (min 1). Env: `DEAR_CKPT_EVERY`.
    pub ckpt_every: u64,
    /// Steps per throughput-tuning window, 0 = off.
    /// Env: `DEAR_TUNE_WINDOW`.
    pub tune_window: u64,
}

impl Default for DemoOptions {
    fn default() -> Self {
        DemoOptions {
            exit_rank: None,
            exit_at_step: 0,
            exit_gen: 0,
            ckpt_dir: None,
            ckpt_every: 5,
            tune_window: 0,
        }
    }
}

/// Environment variable naming follows the `torchrun` convention (`RANK`,
/// `WORLD_SIZE`, `MASTER_ADDR`, `MASTER_PORT`) plus `DEAR_*` knobs for the
/// timeout/backoff behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of ranks in the job.
    pub world: usize,
    /// This process's rank, or `None` to let the master assign one (rank 0
    /// — the master — must always be explicit).
    pub rank: Option<usize>,
    /// The rendezvous address (`host:port`) — rank 0's listener.
    pub master_addr: String,
    /// Host this rank's own listener binds (and advertises, unless it is
    /// `0.0.0.0`, in which case peers are told the address the master
    /// observed).
    pub listen_host: String,
    /// Total budget for establishing one outgoing connection, including
    /// retries (exponential backoff from [`NetConfig::CONNECT_BACKOFF_MIN`]
    /// to [`NetConfig::CONNECT_BACKOFF_MAX`]).
    pub connect_timeout: Duration,
    /// Per-socket read/write deadline during the rendezvous handshake.
    pub handshake_timeout: Duration,
    /// Deadline for [`send`] against a peer that stopped taking bytes: the
    /// socket write deadline (`SO_SNDTIMEO`) on TCP, the wait on a full
    /// ring on shm.
    ///
    /// [`send`]: dear_collectives::Transport::send
    pub send_timeout: Duration,
    /// Deadline for [`recv`]; `None` blocks forever. Defaults to 30 s so a
    /// dead peer surfaces as [`CollectiveError::Timeout`] instead of a hang.
    ///
    /// [`recv`]: dear_collectives::Transport::recv
    /// [`CollectiveError::Timeout`]: dear_collectives::CollectiveError::Timeout
    pub recv_timeout: Option<Duration>,
    /// Depth of each shm ring, in frames: `send` to a co-located rank only
    /// waits once this many frames are queued on that link. Never below
    /// [`MIN_LINK_FRAMES`]: the communication engine sends that far ahead of its
    /// receives, and two ranks doing so to each other over a shallower
    /// ring would both block in `send`. TCP links do not read it — their
    /// depth is the kernel's socket buffers plus the peer's unbounded inbox.
    pub outbox_frames: usize,
    /// Heartbeat probe interval, or `None` to disable failure detection.
    /// When enabled, a monitor thread sends a liveness frame to every idle
    /// peer each interval and declares a peer dead once nothing (data or
    /// heartbeat) has arrived from it for
    /// [`NetConfig::heartbeat_miss_budget`] consecutive intervals.
    pub heartbeat_interval: Option<Duration>,
    /// Consecutive silent intervals tolerated before a peer is declared
    /// dead and the endpoint aborts.
    pub heartbeat_miss_budget: u32,
    /// The world generation (restart attempt number). Stamped on every
    /// data frame and checked by both the rendezvous handshake and the
    /// data path so traffic from an earlier incarnation of a restarted
    /// world is rejected instead of corrupting collectives.
    pub generation: u64,
    /// Wire dtype for the training data path (`f32`/`bf16`/`f16`): the
    /// mixed-precision knob, passed through to the run's
    /// [`TrainConfig::wire`](dear_core::TrainConfig::wire). Frames are
    /// self-describing, so peers on different settings still interoperate.
    /// Env: `DEAR_WIRE_DTYPE`.
    pub wire: DType,
    /// How long a resize rendezvous master waits for survivor HELLOs
    /// before closing the member list (in-place elastic resize; see
    /// `TcpEndpoint::reconfigure`). Every straggler that misses the window
    /// is treated as lost. Env: `DEAR_RESIZE_WINDOW_MS`.
    pub resize_window: Duration,
    /// Whether a peer failure should be survived by reconfiguring the
    /// world in place (shrink + continue) instead of failing the process
    /// and relying on a supervised restart. Env: `DEAR_ELASTIC_RESIZE`
    /// (`1`/`true` to enable).
    pub elastic_resize: bool,
    /// Physical-host identity of this rank, advertised in the HELLO so the
    /// master can republish host placement in the WELCOME and co-located
    /// ranks can find each other (shared-memory tier, topology-aware
    /// hierarchical groups). `None` means "not configured": the master
    /// assigns a unique pseudo-host per rank ([`NetConfig::UNKNOWN_HOST`]
    /// on the wire), which degrades gracefully to all-TCP.
    /// Env: `DEAR_HOST_ID`.
    pub host_id: Option<u64>,
    /// How model state is partitioned across the world: data parallelism
    /// (`ddp`, the default — under DeAR the optimizer state is already the
    /// owned shard) or ZeRO-2 (`zero2`: the engine's stash between
    /// reduce-scatter and all-gather is sharded too) on the same decoupled
    /// pipeline. Passed
    /// through to the run's
    /// [`TrainConfig::strategy`](dear_core::TrainConfig).
    /// Env: `DEAR_STRATEGY`; CLI: `--strategy NAME`.
    pub strategy: ParallelismStrategy,
    /// Chrome-trace output path prefix, or `None` to leave the recorder
    /// off. The launch layer applies it via
    /// [`trace::configure`](dear_core::trace::configure); each rank then
    /// dumps `<prefix>.rank<R>.json`. Env: `DEAR_TRACE`; CLI: `--trace`.
    pub trace: Option<PathBuf>,
    /// Demo-worker knobs (checkpoints, failure injection, tuning windows).
    pub demo: DemoOptions,
}

impl NetConfig {
    /// First retry delay when a connect is refused (the peer's listener is
    /// not up yet).
    pub const CONNECT_BACKOFF_MIN: Duration = Duration::from_millis(10);
    /// Backoff cap; doubling stops here.
    pub const CONNECT_BACKOFF_MAX: Duration = Duration::from_millis(500);
    /// How many deterministically derived ports a resize walks before
    /// giving up: the first derivation can be owned by an unrelated
    /// process, in which case every survivor fails the handshake against
    /// the foreign listener and advances to the next derived port (the
    /// same sequence on every survivor, so they re-converge without
    /// agreeing on who survived first).
    pub const RESIZE_PORT_PROBES: u32 = 3;
    /// Wire sentinel a rank's HELLO carries when [`NetConfig::host_id`] is
    /// unset. The master never republishes it: each unknown rank gets a
    /// unique pseudo-host (`u64::MAX - 1 - rank`, distinct from this
    /// sentinel) so "unknown" can never read as "co-located".
    pub const UNKNOWN_HOST: u64 = u64::MAX;

    /// A configuration for `world` ranks with rendezvous at `master_addr`,
    /// defaulting to loopback-friendly timeouts (10 s connect/handshake,
    /// 30 s send/recv, 128-frame shm rings).
    #[must_use]
    pub fn new(world: usize, rank: usize, master_addr: impl Into<String>) -> Self {
        NetConfig {
            world,
            rank: Some(rank),
            master_addr: master_addr.into(),
            listen_host: "127.0.0.1".to_string(),
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            send_timeout: Duration::from_secs(30),
            recv_timeout: Some(Duration::from_secs(30)),
            outbox_frames: 128,
            heartbeat_interval: Some(Duration::from_secs(1)),
            heartbeat_miss_budget: 5,
            generation: 0,
            wire: DType::F32,
            resize_window: Duration::from_secs(2),
            elastic_resize: false,
            host_id: None,
            strategy: ParallelismStrategy::Ddp,
            trace: None,
            demo: DemoOptions::default(),
        }
    }

    /// Sets the host this rank's listener binds.
    #[must_use]
    pub fn with_listen_host(mut self, host: impl Into<String>) -> Self {
        self.listen_host = host.into();
        self
    }

    /// Sets the connect **and** handshake deadlines (they travel together:
    /// a rendezvous that out-waits its connects is never useful).
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self.handshake_timeout = timeout;
        self
    }

    /// Sets the send deadline (socket writes, full shm rings).
    #[must_use]
    pub fn with_send_timeout(mut self, timeout: Duration) -> Self {
        self.send_timeout = timeout;
        self
    }

    /// Sets the recv deadline; `None` blocks forever.
    #[must_use]
    pub fn with_recv_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Sets the shm ring depth (min [`MIN_LINK_FRAMES`]).
    #[must_use]
    pub fn with_outbox_frames(mut self, frames: usize) -> Self {
        self.outbox_frames = frames.max(MIN_LINK_FRAMES);
        self
    }

    /// Configures the failure detector: probe every `interval` (`None`
    /// disables it) and declare a peer dead after `miss_budget` silent
    /// intervals (min 1).
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Option<Duration>, miss_budget: u32) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_miss_budget = miss_budget.max(1);
        self
    }

    /// Sets the world generation (elastic restart number).
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// Sets the resize-rendezvous membership window (min 1 ms).
    #[must_use]
    pub fn with_resize_window(mut self, window: Duration) -> Self {
        self.resize_window = window.max(Duration::from_millis(1));
        self
    }

    /// Enables or disables surviving peer loss by in-place world resize.
    #[must_use]
    pub fn with_elastic_resize(mut self, enabled: bool) -> Self {
        self.elastic_resize = enabled;
        self
    }

    /// Sets this rank's physical-host identity (`None` = not configured;
    /// the master then assigns a unique pseudo-host, i.e. no co-location).
    #[must_use]
    pub fn with_host_id(mut self, host_id: Option<u64>) -> Self {
        self.host_id = host_id;
        self
    }

    /// Selects the data-path wire dtype (the mixed-precision knob).
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not numeric — `u8` is an opaque compressor
    /// container, not a training wire format.
    #[must_use]
    pub fn with_wire(mut self, wire: DType) -> Self {
        assert!(
            wire.is_numeric(),
            "wire dtype must be numeric (f32/bf16/f16), not {wire}"
        );
        self.wire = wire;
        self
    }

    /// Selects the parallelism strategy (`ddp`/`zero2`).
    #[must_use]
    pub fn with_strategy(mut self, strategy: ParallelismStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the Chrome-trace output path prefix (`None` = recorder off).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<PathBuf>) -> Self {
        self.trace = trace;
        self
    }

    /// Replaces the demo-worker options.
    #[must_use]
    pub fn with_demo(mut self, demo: DemoOptions) -> Self {
        self.demo = demo;
        self
    }

    /// Builds a configuration from the environment — **the only env reader
    /// in this crate**; every other entry point takes the typed struct.
    ///
    /// Required: `RANK`, `WORLD_SIZE`. Rendezvous: `MASTER_ADDR` (default
    /// `127.0.0.1`), `MASTER_PORT` (default 29400). Endpoint knobs:
    /// `DEAR_LISTEN_HOST`, `DEAR_CONNECT_TIMEOUT_MS`,
    /// `DEAR_SEND_TIMEOUT_MS`, `DEAR_RECV_TIMEOUT_MS` (0 disables the recv
    /// deadline), `DEAR_OUTBOX_FRAMES` (shm ring depth), `DEAR_HEARTBEAT_MS`
    /// (0 disables the failure detector), `DEAR_HEARTBEAT_MISSES`,
    /// `DEAR_GENERATION`
    /// (set by the elastic launcher to the restart attempt number),
    /// `DEAR_WIRE_DTYPE` (`f32`/`bf16`/`f16`, the mixed-precision knob),
    /// `DEAR_RESIZE_WINDOW_MS` (membership window of an in-place resize
    /// rendezvous), `DEAR_ELASTIC_RESIZE` (`1` to survive peer loss by
    /// shrinking the world in place instead of restarting), and
    /// `DEAR_HOST_ID` (this rank's physical-host identity, for the
    /// shared-memory tier; unset = every rank on its own pseudo-host),
    /// `DEAR_STRATEGY`
    /// (`ddp`/`zero2`, the parallelism strategy; an unknown name
    /// is a typed [`NetError::Config`], not a silent fallback), and
    /// `DEAR_TRACE` (Chrome-trace path prefix; empty/unset = recorder
    /// off).
    /// Demo-worker knobs (see [`DemoOptions`]): `DEAR_DEMO_EXIT_RANK`,
    /// `DEAR_DEMO_EXIT_AT_STEP`, `DEAR_DEMO_EXIT_GEN`, `DEAR_CKPT_DIR`,
    /// `DEAR_CKPT_EVERY`, `DEAR_TUNE_WINDOW`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Config`] when a required variable is missing or
    /// unparsable.
    pub fn from_env() -> Result<Self, NetError> {
        fn var(name: &str) -> Result<String, NetError> {
            std::env::var(name).map_err(|_| NetError::Config(format!("{name} is not set")))
        }
        fn parse<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, NetError> {
            raw.parse()
                .map_err(|_| NetError::Config(format!("{name}={raw} is not a valid value")))
        }
        let rank: usize = parse("RANK", &var("RANK")?)?;
        let world: usize = parse("WORLD_SIZE", &var("WORLD_SIZE")?)?;
        if world == 0 || rank >= world {
            return Err(NetError::Config(format!(
                "RANK={rank} out of range for WORLD_SIZE={world}"
            )));
        }
        let host = std::env::var("MASTER_ADDR").unwrap_or_else(|_| "127.0.0.1".to_string());
        let port = std::env::var("MASTER_PORT").unwrap_or_else(|_| "29400".to_string());
        let port: u16 = parse("MASTER_PORT", &port)?;
        let mut cfg = NetConfig::new(world, rank, format!("{host}:{port}"));
        if let Ok(listen) = std::env::var("DEAR_LISTEN_HOST") {
            cfg.listen_host = listen;
        }
        if let Ok(ms) = std::env::var("DEAR_CONNECT_TIMEOUT_MS") {
            cfg.connect_timeout = Duration::from_millis(parse("DEAR_CONNECT_TIMEOUT_MS", &ms)?);
            cfg.handshake_timeout = cfg.connect_timeout;
        }
        if let Ok(ms) = std::env::var("DEAR_SEND_TIMEOUT_MS") {
            cfg.send_timeout = Duration::from_millis(parse("DEAR_SEND_TIMEOUT_MS", &ms)?);
        }
        if let Ok(ms) = std::env::var("DEAR_RECV_TIMEOUT_MS") {
            let ms: u64 = parse("DEAR_RECV_TIMEOUT_MS", &ms)?;
            cfg.recv_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Ok(n) = std::env::var("DEAR_OUTBOX_FRAMES") {
            cfg = cfg.with_outbox_frames(parse("DEAR_OUTBOX_FRAMES", &n)?);
        }
        if let Ok(ms) = std::env::var("DEAR_HEARTBEAT_MS") {
            let ms: u64 = parse("DEAR_HEARTBEAT_MS", &ms)?;
            cfg.heartbeat_interval = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Ok(n) = std::env::var("DEAR_HEARTBEAT_MISSES") {
            cfg.heartbeat_miss_budget = parse::<u32>("DEAR_HEARTBEAT_MISSES", &n)?.max(1);
        }
        if let Ok(g) = std::env::var("DEAR_GENERATION") {
            cfg.generation = parse("DEAR_GENERATION", &g)?;
        }
        if let Ok(ms) = std::env::var("DEAR_RESIZE_WINDOW_MS") {
            let ms: u64 = parse("DEAR_RESIZE_WINDOW_MS", &ms)?;
            cfg.resize_window = Duration::from_millis(ms.max(1));
        }
        if let Ok(v) = std::env::var("DEAR_ELASTIC_RESIZE") {
            cfg.elastic_resize = matches!(v.as_str(), "1" | "true" | "TRUE" | "on");
        }
        if let Ok(h) = std::env::var("DEAR_HOST_ID") {
            cfg.host_id = Some(parse("DEAR_HOST_ID", &h)?);
        }
        if let Ok(name) = std::env::var("DEAR_WIRE_DTYPE") {
            let wire = DType::parse(&name).ok_or_else(|| {
                NetError::Config(format!("DEAR_WIRE_DTYPE={name} is not a known dtype"))
            })?;
            if !wire.is_numeric() {
                return Err(NetError::Config(format!(
                    "DEAR_WIRE_DTYPE={name} is not a numeric wire format"
                )));
            }
            cfg.wire = wire;
        }
        if let Ok(name) = std::env::var("DEAR_STRATEGY") {
            cfg.strategy = name
                .parse::<ParallelismStrategy>()
                .map_err(|e| NetError::Config(format!("DEAR_STRATEGY: {e}")))?;
        }
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                cfg.trace = Some(PathBuf::from(path));
            }
        }
        if let Ok(r) = std::env::var("DEAR_DEMO_EXIT_RANK") {
            cfg.demo.exit_rank = Some(parse("DEAR_DEMO_EXIT_RANK", &r)?);
        }
        if let Ok(s) = std::env::var("DEAR_DEMO_EXIT_AT_STEP") {
            cfg.demo.exit_at_step = parse("DEAR_DEMO_EXIT_AT_STEP", &s)?;
        }
        if let Ok(g) = std::env::var("DEAR_DEMO_EXIT_GEN") {
            cfg.demo.exit_gen = parse("DEAR_DEMO_EXIT_GEN", &g)?;
        }
        if let Ok(dir) = std::env::var("DEAR_CKPT_DIR") {
            cfg.demo.ckpt_dir = Some(dir);
        }
        if let Ok(n) = std::env::var("DEAR_CKPT_EVERY") {
            cfg.demo.ckpt_every = parse::<u64>("DEAR_CKPT_EVERY", &n)?.max(1);
        }
        if let Ok(n) = std::env::var("DEAR_TUNE_WINDOW") {
            cfg.demo.tune_window = parse("DEAR_TUNE_WINDOW", &n)?;
        }
        Ok(cfg)
    }
}

/// Errors raised while establishing or tearing down a TCP cluster (runtime
/// send/recv failures surface as
/// [`CollectiveError`](dear_collectives::CollectiveError) instead, through
/// the `Transport` trait).
#[derive(Debug)]
pub enum NetError {
    /// An I/O operation failed; `context` says which.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A bounded wait expired.
    Timeout {
        /// What was being waited for.
        context: String,
        /// The configured deadline.
        after: Duration,
    },
    /// The remote spoke the protocol incorrectly (bad frame, rank clash…).
    Protocol(String),
    /// The configuration (flags or environment) is invalid.
    Config(String),
}

impl NetError {
    /// Wraps an I/O error with context.
    #[must_use]
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        NetError::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { context, source } => write!(f, "{context}: {source}"),
            NetError::Timeout { context, after } => {
                write!(f, "timed out after {after:?} while {context}")
            }
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = NetConfig::new(4, 1, "127.0.0.1:29400");
        assert_eq!(cfg.world, 4);
        assert_eq!(cfg.rank, Some(1));
        assert!(cfg.recv_timeout.is_some());
        assert!(cfg.outbox_frames > 0);
        assert_eq!(cfg.heartbeat_interval, Some(Duration::from_secs(1)));
        assert!(cfg.heartbeat_miss_budget >= 1);
        assert_eq!(cfg.generation, 0);
        assert_eq!(cfg.resize_window, Duration::from_secs(2));
        assert!(!cfg.elastic_resize, "resize is opt-in");
        assert_eq!(cfg.host_id, None, "host identity is opt-in");
        assert_eq!(cfg.strategy, ParallelismStrategy::Ddp, "DDP is the default");
        assert_eq!(cfg.trace, None, "tracing is opt-in");
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = NetConfig::new(4, 0, "10.0.0.1:29400")
            .with_listen_host("0.0.0.0")
            .with_connect_timeout(Duration::from_secs(3))
            .with_send_timeout(Duration::from_secs(7))
            .with_recv_timeout(None)
            .with_outbox_frames(0) // clamped to MIN_LINK_FRAMES
            .with_heartbeat(Some(Duration::from_millis(250)), 0) // misses clamped
            .with_generation(2)
            .with_resize_window(Duration::ZERO) // clamped to 1 ms
            .with_elastic_resize(true)
            .with_host_id(Some(42))
            .with_wire(DType::Bf16)
            .with_strategy(ParallelismStrategy::Zero2)
            .with_trace(Some(PathBuf::from("/tmp/trace/dear")))
            .with_demo(DemoOptions {
                exit_rank: Some(1),
                exit_at_step: 3,
                ckpt_dir: Some("/tmp/ck".into()),
                tune_window: 8,
                ..DemoOptions::default()
            });
        assert_eq!(cfg.listen_host, "0.0.0.0");
        assert_eq!(cfg.connect_timeout, Duration::from_secs(3));
        assert_eq!(cfg.handshake_timeout, Duration::from_secs(3));
        assert_eq!(cfg.send_timeout, Duration::from_secs(7));
        assert_eq!(cfg.recv_timeout, None);
        assert_eq!(cfg.outbox_frames, MIN_LINK_FRAMES);
        assert_eq!(cfg.heartbeat_interval, Some(Duration::from_millis(250)));
        assert_eq!(cfg.heartbeat_miss_budget, 1);
        assert_eq!(cfg.generation, 2);
        assert_eq!(cfg.resize_window, Duration::from_millis(1));
        assert!(cfg.elastic_resize);
        assert_eq!(cfg.host_id, Some(42));
        assert_eq!(cfg.wire, DType::Bf16);
        assert_eq!(cfg.strategy, ParallelismStrategy::Zero2);
        assert_eq!(cfg.trace, Some(PathBuf::from("/tmp/trace/dear")));
        assert_eq!(cfg.demo.exit_rank, Some(1));
        assert_eq!(cfg.demo.exit_at_step, 3);
        assert_eq!(cfg.demo.ckpt_every, 5, "untouched fields keep defaults");
        assert_eq!(cfg.demo.tune_window, 8);
    }

    #[test]
    fn default_wire_is_f32_and_demo_is_off() {
        let cfg = NetConfig::new(2, 0, "127.0.0.1:29400");
        assert_eq!(cfg.wire, DType::F32);
        assert_eq!(cfg.demo, DemoOptions::default());
        assert_eq!(cfg.demo.exit_rank, None);
        assert_eq!(cfg.demo.ckpt_dir, None);
        assert_eq!(cfg.demo.tune_window, 0);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn opaque_wire_dtype_is_rejected_by_the_builder() {
        let _ = NetConfig::new(2, 0, "127.0.0.1:29400").with_wire(DType::U8);
    }

    #[test]
    fn dear_strategy_env_round_trips_and_rejects_garbage() {
        // One test owns all the env mutation (tests share the process, so
        // interleaving set/remove across tests would race): every runnable
        // strategy round-trips through `DEAR_STRATEGY`, spelling variants
        // land on the canonical value, an unknown name is a typed config
        // error naming the variable, and `DEAR_TRACE` rides along into the
        // typed `trace` field.
        std::env::set_var("RANK", "0");
        std::env::set_var("WORLD_SIZE", "2");
        for (raw, want) in [
            ("ddp", ParallelismStrategy::Ddp),
            ("DDP", ParallelismStrategy::Ddp),
            ("zero2", ParallelismStrategy::Zero2),
            ("Zero-2", ParallelismStrategy::Zero2),
        ] {
            std::env::set_var("DEAR_STRATEGY", raw);
            let cfg = NetConfig::from_env().expect("valid strategy must parse");
            assert_eq!(cfg.strategy, want, "DEAR_STRATEGY={raw}");
            // And the canonical spelling round-trips exactly.
            assert_eq!(
                cfg.strategy
                    .as_str()
                    .parse::<ParallelismStrategy>()
                    .unwrap(),
                want
            );
        }
        // There is no `zero1`: ZeRO-1 is what `ddp` does under DeAR.
        std::env::set_var("DEAR_STRATEGY", "zero1");
        let err = NetConfig::from_env().expect_err("unknown strategy must be rejected");
        match &err {
            NetError::Config(msg) => {
                assert!(
                    msg.contains("DEAR_STRATEGY"),
                    "error names the variable: {msg}"
                );
                assert!(msg.contains("zero1"), "error echoes the bad value: {msg}");
            }
            other => panic!("expected NetError::Config, got {other:?}"),
        }
        std::env::remove_var("DEAR_STRATEGY");
        std::env::set_var("DEAR_TRACE", "/tmp/tr/prefix");
        let cfg = NetConfig::from_env().unwrap();
        assert_eq!(cfg.trace, Some(PathBuf::from("/tmp/tr/prefix")));
        std::env::set_var("DEAR_TRACE", "");
        let cfg = NetConfig::from_env().unwrap();
        assert_eq!(cfg.trace, None, "empty DEAR_TRACE keeps the recorder off");
        std::env::remove_var("DEAR_TRACE");
        std::env::remove_var("RANK");
        std::env::remove_var("WORLD_SIZE");
    }

    #[test]
    fn error_display_carries_context() {
        let e = NetError::io(
            "connecting to 127.0.0.1:1",
            io::Error::new(io::ErrorKind::ConnectionRefused, "refused"),
        );
        assert!(e.to_string().contains("127.0.0.1:1"));
        let t = NetError::Timeout {
            context: "waiting for HELLO".into(),
            after: Duration::from_secs(1),
        };
        assert!(t.to_string().contains("waiting for HELLO"));
    }
}
