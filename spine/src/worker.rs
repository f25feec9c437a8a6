//! The child side of a world: `spine --worker …` is ONE host process. It
//! generates its ranks' inputs, gives every rank thread a transport of the
//! workload's fabric, trains through the real `run_worker`, and writes what
//! it measured to `<out>/host<h>.rec` for the parent to read.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use dear_collectives::{DelayFabric, LocalFabric, Transport};
use dear_core::{run_worker, PipelineMode};
use dear_minidnn::{softmax_cross_entropy, Sequential, Tensor};
use dear_net::{hash_params, NetConfig, ShmFabric, TcpEndpoint, TieredEndpoint};

use crate::link::{LinkLog, SpanTransport};
use crate::spans::{self, RankTrace};
use crate::spec::{self, Fabric, Inputs, Workload};

/// Deadline of every `recv`: a wedged collective fails with a typed error
/// instead of hanging, the step returns `Err`, and the rank reports how
/// far it got.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// What the parent asks one world to do.
#[derive(Debug, Clone)]
pub struct Job {
    pub workload: &'static Workload,
    pub seed: u64,
    pub mode: PipelineMode,
    /// Timed steps, after `spec::WARMUP_STEPS` warm-up steps.
    pub steps: u64,
    pub traced: bool,
}

impl Job {
    /// Rank-steps the world is asked for, warm-up included.
    pub fn rank_steps(&self) -> u64 {
        (spec::WARMUP_STEPS + self.steps) * self.workload.world() as u64
    }

    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--mode".into(),
            spec::mode_name(self.mode).into(),
            "--steps".into(),
            self.steps.to_string(),
            "--trace".into(),
            u8::from(self.traced).to_string(),
        ]
    }

    /// # Errors
    ///
    /// Returns a message naming the missing or malformed argument.
    pub fn from_args(args: &[String]) -> Result<Job, String> {
        let get = |name: &str| {
            crate::flag(args, name).ok_or_else(|| format!("worker: {name} is missing"))
        };
        let name = get("--workload")?;
        Ok(Job {
            workload: spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?,
            seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
            mode: match get("--mode")? {
                "dear" => PipelineMode::Dear,
                "wfbp" => PipelineMode::Wfbp,
                other => return Err(format!("unknown mode {other}")),
            },
            steps: get("--steps")?.parse().map_err(|_| "bad --steps")?,
            traced: get("--trace")? == "1",
        })
    }
}

/// What one rank measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankRecord {
    pub rank: usize,
    /// Steps (warm-up included) that returned `Ok`.
    pub completed: u64,
    pub error: Option<String>,
    /// Seconds since the Unix epoch when warm-up finished.
    pub warm_done_unix_s: f64,
    /// First timed step to the return of the final `synchronize`.
    pub timed_wall_s: f64,
    pub rendezvous_ms: f64,
    /// Held-out loss before training and after the final `synchronize`.
    pub eval_loss0: f32,
    pub eval_loss: f32,
    pub params_hash: u64,
    pub step_ms: Vec<f64>,
    /// The traced pass's rows (global rank 0 only).
    pub rows: Vec<(String, f64)>,
    /// Process CPU seconds at the start and end of the timed window; the
    /// host folds them into `HostRecord::cpu_s` and does not write them.
    pub cpu_window_s: (f64, f64),
}

/// What one host process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostRecord {
    pub host: usize,
    /// Seconds spent generating inputs before any transport was built;
    /// not part of the system's set-up.
    pub gen_s: f64,
    /// utime + stime of the process over its ranks' timed windows.
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub ranks: Vec<RankRecord>,
}

impl HostRecord {
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "host {}", self.host);
        let _ = writeln!(s, "gen_s {}", self.gen_s);
        let _ = writeln!(s, "cpu_s {}", self.cpu_s);
        let _ = writeln!(s, "peak_rss_mib {}", self.peak_rss_mib);
        for r in &self.ranks {
            let _ = writeln!(s, "rank {}", r.rank);
            let _ = writeln!(s, "completed {}", r.completed);
            if let Some(e) = &r.error {
                let _ = writeln!(s, "error {}", e.replace('\n', " "));
            }
            let _ = writeln!(s, "warm_done_unix_s {}", r.warm_done_unix_s);
            let _ = writeln!(s, "timed_wall_s {}", r.timed_wall_s);
            let _ = writeln!(s, "rendezvous_ms {}", r.rendezvous_ms);
            let _ = writeln!(s, "eval_loss0 {}", r.eval_loss0.to_bits());
            let _ = writeln!(s, "eval_loss {}", r.eval_loss.to_bits());
            let _ = writeln!(s, "params_hash {}", r.params_hash);
            let steps: Vec<String> = r.step_ms.iter().map(f64::to_string).collect();
            let _ = writeln!(s, "step_ms {}", steps.join(" "));
            for (name, value) in &r.rows {
                let _ = writeln!(s, "row {name} {value}");
            }
        }
        s
    }

    /// # Errors
    ///
    /// Returns a message naming the first line that does not parse.
    pub fn parse(text: &str) -> Result<HostRecord, String> {
        fn num<T: std::str::FromStr>(line: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad record line: {line}"))
        }
        let mut host = HostRecord::default();
        for line in text.lines() {
            let (key, v) = line.split_once(' ').unwrap_or((line, ""));
            if key == "rank" {
                host.ranks.push(RankRecord {
                    rank: num(line, v)?,
                    ..RankRecord::default()
                });
                continue;
            }
            match (key, host.ranks.last_mut()) {
                ("host", _) => host.host = num(line, v)?,
                ("gen_s", _) => host.gen_s = num(line, v)?,
                ("cpu_s", _) => host.cpu_s = num(line, v)?,
                ("peak_rss_mib", _) => host.peak_rss_mib = num(line, v)?,
                ("completed", Some(r)) => r.completed = num(line, v)?,
                ("error", Some(r)) => r.error = Some(v.to_string()),
                ("warm_done_unix_s", Some(r)) => r.warm_done_unix_s = num(line, v)?,
                ("timed_wall_s", Some(r)) => r.timed_wall_s = num(line, v)?,
                ("rendezvous_ms", Some(r)) => r.rendezvous_ms = num(line, v)?,
                ("eval_loss0", Some(r)) => r.eval_loss0 = f32::from_bits(num(line, v)?),
                ("eval_loss", Some(r)) => r.eval_loss = f32::from_bits(num(line, v)?),
                ("params_hash", Some(r)) => r.params_hash = num(line, v)?,
                ("step_ms", Some(r)) => {
                    r.step_ms = v
                        .split_whitespace()
                        .map(|x| num(line, x))
                        .collect::<Result<_, _>>()?;
                }
                ("row", Some(r)) => {
                    let (name, value) = v
                        .split_once(' ')
                        .ok_or_else(|| format!("bad record line: {line}"))?;
                    r.rows.push((name.to_string(), num(line, value)?));
                }
                _ => return Err(format!("bad record line: {line}")),
            }
        }
        Ok(host)
    }
}

pub fn unix_now_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// utime + stime of this process in seconds. `/proc/self/stat` counts in
/// `USER_HZ` ticks, which the Linux ABI fixes at 100.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one rank thread needs besides its transport.
struct RankJob<'a> {
    job: &'a Job,
    rank: usize,
    init_seed: u64,
    shards: Vec<(Tensor, Vec<usize>)>,
    eval: &'a (Tensor, Vec<usize>),
    /// Steps completed so far; outlives a panic of the rank thread.
    progress: &'a AtomicU64,
    /// What `spans::start_recording` returned, in a traced world.
    anchor: Option<Instant>,
}

fn eval_loss(net: &mut Sequential, eval: &(Tensor, Vec<usize>)) -> f32 {
    let logits = net.forward(&eval.0);
    softmax_cross_entropy(&logits, &eval.1).0
}

/// Trains one rank over `transport` and returns what it measured.
fn run_rank<T: Transport + Send + 'static>(
    transport: T,
    rendezvous_ms: f64,
    rj: &RankJob<'_>,
) -> RankRecord {
    transport.set_recv_timeout(Some(RECV_TIMEOUT));
    let mut rec = match rj.anchor {
        Some(anchor) => {
            let (transport, log) = SpanTransport::new(transport);
            train(transport, rj, Some((anchor, log)))
        }
        None => train(transport, rj, None),
    };
    rec.rendezvous_ms = rendezvous_ms;
    rec
}

fn train<T: Transport + Send + 'static>(
    transport: T,
    rj: &RankJob<'_>,
    trace: Option<(Instant, Arc<LinkLog>)>,
) -> RankRecord {
    let w = rj.job.workload;
    let warmup = spec::WARMUP_STEPS as usize;
    let mut rec = RankRecord {
        rank: rj.rank,
        ..RankRecord::default()
    };
    let mut steps: Vec<(Instant, Instant)> = Vec::with_capacity(rj.shards.len());
    let mut sync_end = None;
    run_worker(transport, w.train_config(rj.job.mode), |handle| {
        let mut net = w.model.build(rj.init_seed);
        rec.eval_loss0 = eval_loss(&mut net, rj.eval);
        let mut optim = handle.into_optim(&net);
        let mut t0 = Instant::now();
        for (i, (x, labels)) in rj.shards.iter().enumerate() {
            if i == warmup {
                rec.warm_done_unix_s = unix_now_s();
                rec.cpu_window_s.0 = process_cpu_s();
                t0 = Instant::now();
            }
            let start = Instant::now();
            if let Err(e) = optim.train_step(&mut net, x, labels) {
                rec.error = Some(format!("step {i}: {e}"));
                return;
            }
            if i >= warmup {
                steps.push((start, Instant::now()));
            }
            rec.completed += 1;
            rj.progress.store(rec.completed, Ordering::SeqCst);
        }
        if let Err(e) = optim.synchronize(&mut net) {
            rec.error = Some(format!("synchronize: {e}"));
            return;
        }
        let end = Instant::now();
        sync_end = Some(end);
        rec.timed_wall_s = end.duration_since(t0).as_secs_f64();
        rec.cpu_window_s.1 = process_cpu_s();
        rec.eval_loss = eval_loss(&mut net, rj.eval);
        rec.params_hash = hash_params(&net.flat_params());
    });
    rec.step_ms = steps
        .iter()
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    if let (Some((anchor, log)), Some(sync_end), 0) = (trace, sync_end, rj.rank) {
        let rt = RankTrace {
            rank: rj.rank,
            warmup: spec::WARMUP_STEPS,
            steps,
            sync_end,
            link: log.events(),
        };
        match spans::reduce(anchor, &rt) {
            Ok(rows) => rec.rows = rows,
            Err(e) => rec.error = Some(format!("trace reduction: {e}")),
        }
    }
    rec
}

/// One rank thread of a `Fabric::Net` host: rendezvous over TCP, then
/// shm to the co-located ranks if there are any.
fn net_rank(
    cfg: &NetConfig,
    shm: Option<dear_net::ShmEndpoint>,
    rj: &RankJob<'_>,
) -> Result<RankRecord, String> {
    let start = Instant::now();
    let tcp = TcpEndpoint::connect(cfg).map_err(|e| format!("rendezvous: {e}"))?;
    match shm {
        None => {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Ok(run_rank(tcp, ms, rj))
        }
        Some(shm) => {
            let ep = TieredEndpoint::compose(tcp, Some(shm)).map_err(|e| format!("tiers: {e}"))?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Ok(run_rank(ep, ms, rj))
        }
    }
}

/// Entry point of `spine --worker`.
///
/// # Errors
///
/// Returns a message when the arguments or the launch environment are
/// unusable. A rank that fails mid-run is not an error here: it is in the
/// record, and the process still exits 0 so its peers' records survive.
pub fn worker_main(args: &[String], out: &Path) -> Result<(), String> {
    let job = Job::from_args(args)?;
    let w = job.workload;
    let k = w.ranks_per_host;
    let base = NetConfig::from_env().map_err(|e| format!("launch environment: {e}"))?;
    let host = base.rank.ok_or("RANK is not set")?;
    if base.world != w.hosts {
        return Err(format!(
            "{} wants {} hosts, got {}",
            w.name, w.hosts, base.world
        ));
    }
    let members: Vec<usize> = (host * k..(host + 1) * k).collect();

    let gen_start = Instant::now();
    let inputs = Inputs::new(job.seed);
    let total = spec::WARMUP_STEPS + job.steps;
    let mut shards: Vec<_> = members
        .iter()
        .map(|&r| inputs.shards(w, r, total))
        .collect();
    let eval = inputs.eval_batch();
    let gen_s = gen_start.elapsed().as_secs_f64();

    let anchor = job.traced.then(spans::start_recording);
    let progress: Vec<AtomicU64> = members.iter().map(|_| AtomicU64::new(0)).collect();
    let rank_jobs: Vec<RankJob<'_>> = members
        .iter()
        .enumerate()
        .map(|(i, &rank)| RankJob {
            job: &job,
            rank,
            init_seed: inputs.init_seed,
            shards: std::mem::take(&mut shards[i]),
            eval: &eval,
            progress: &progress[i],
            anchor,
        })
        .collect();

    let results: Vec<Result<RankRecord, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = match w.fabric {
            Fabric::Delay => {
                let start = Instant::now();
                let eps = LocalFabric::create(k);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                eps.into_iter()
                    .zip(&rank_jobs)
                    .map(|(ep, rj)| {
                        s.spawn(move || {
                            Ok(run_rank(DelayFabric::new(ep, spec::delay_model()), ms, rj))
                        })
                    })
                    .collect()
            }
            Fabric::Net => {
                let world = w.world();
                // One shm fabric per process, shared by its rank threads; a
                // single rank per host is pure TCP.
                let shm: Vec<Option<dear_net::ShmEndpoint>> = if k > 1 {
                    let mut fab = base.clone();
                    fab.world = world;
                    ShmFabric::with_config(&fab, &members)
                        .into_iter()
                        .map(Some)
                        .collect()
                } else {
                    vec![None]
                };
                shm.into_iter()
                    .zip(&rank_jobs)
                    .map(|(shm, rj)| {
                        let mut cfg = base.clone();
                        cfg.world = world;
                        cfg.rank = Some(rj.rank);
                        cfg.host_id = Some(host as u64);
                        cfg.recv_timeout = Some(RECV_TIMEOUT);
                        s.spawn(move || net_rank(&cfg, shm, rj))
                    })
                    .collect()
            }
        };
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("the rank thread panicked".to_string()))
            })
            .collect()
    });

    let ranks: Vec<RankRecord> = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|e| RankRecord {
                rank: members[i],
                completed: progress[i].load(Ordering::SeqCst),
                error: Some(e),
                ..RankRecord::default()
            })
        })
        .collect();
    // The ranks' windows nearly coincide; the process's CPU over their union.
    let cpu_start = ranks
        .iter()
        .map(|r| r.cpu_window_s.0)
        .fold(f64::INFINITY, f64::min);
    let cpu_end = ranks.iter().map(|r| r.cpu_window_s.1).fold(0.0, f64::max);
    let record = HostRecord {
        host,
        gen_s,
        cpu_s: (cpu_end - cpu_start).max(0.0),
        peak_rss_mib: peak_rss_mib(),
        ranks,
    };
    let path = out.join(format!("host{host}.rec"));
    std::fs::write(&path, record.to_text()).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_round_trips_through_text() {
        let rec = HostRecord {
            host: 1,
            gen_s: 0.0123,
            cpu_s: 4.56,
            peak_rss_mib: 78.5,
            ranks: vec![
                RankRecord {
                    rank: 2,
                    completed: 23,
                    error: None,
                    warm_done_unix_s: 1_790_000_000.125,
                    timed_wall_s: 2.5,
                    rendezvous_ms: 31.25,
                    eval_loss0: 2.079_441_5,
                    eval_loss: 0.1 + 0.2,
                    params_hash: u64::MAX - 5,
                    step_ms: vec![18.5, 19.25, 0.1 + 0.2],
                    rows: vec![("link.sends_per_step".into(), 14.0)],
                    cpu_window_s: (0.0, 0.0),
                },
                RankRecord {
                    rank: 3,
                    completed: 4,
                    error: Some("step 4: timed out".into()),
                    ..RankRecord::default()
                },
            ],
        };
        assert_eq!(HostRecord::parse(&rec.to_text()).unwrap(), rec);
        assert!(HostRecord::parse("completed 3").is_err());
    }

    #[test]
    fn job_round_trips_through_argv() {
        let job = Job {
            workload: &spec::WORKLOADS[4],
            seed: 42,
            mode: PipelineMode::Wfbp,
            steps: 150,
            traced: true,
        };
        let back = Job::from_args(&job.to_args()).unwrap();
        assert_eq!(back.workload.name, "delay2_wfbp");
        assert_eq!((back.seed, back.steps, back.traced), (42, 150, true));
        assert_eq!(back.mode, PipelineMode::Wfbp);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
