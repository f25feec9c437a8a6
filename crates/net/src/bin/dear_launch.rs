//! `dear-launch` — spawn and supervise a multi-process DeAR world.
//!
//! ```text
//! dear-launch --world 4 -- ./my-worker --flag     # run any worker command
//! dear-launch --world 4 --demo --steps 30         # built-in training demo
//! dear-launch --world 4 --demo --max-restarts 3 \
//!     --ckpt-dir /tmp/ckpt --chaos 2              # elastic + fault injection
//! ```
//!
//! Every worker is started with `RANK`, `WORLD_SIZE`, `MASTER_ADDR` and
//! `MASTER_PORT` set (the `torchrun` convention); workers build a
//! `TcpEndpoint` from that environment (`NetConfig::from_env`). The first
//! worker to fail gets the rest killed and `dear-launch` exits non-zero.

use std::process::ExitCode;
use std::time::Duration;

use dear_net::{
    launch_world, launch_world_elastic, run_demo_host, run_demo_worker, ChaosPlan, LaunchOptions,
    NetConfig, NetError, RestartPolicy, WorldOutcome,
};

const USAGE: &str = "\
usage: dear-launch --world N [options] -- <worker command...>
       dear-launch --world N [options] --demo

options:
  --world N            total number of ranks (required)
  --hosts H            demo only: split the N ranks over H host
                       processes of N/H rank-threads each; intra-host
                       traffic rides lock-free shared-memory rings and
                       inter-host traffic rides TCP (a TieredEndpoint
                       per rank, host_id = the process's host index);
                       N must divide evenly by H, and the elastic /
                       chaos flags are not supported with --hosts
  --master-addr HOST   rendezvous host (default 127.0.0.1)
  --master-port PORT   rendezvous port (default: pick a free port)
  --timeout-secs T     kill everything after T seconds
  --demo               run the built-in DeAR training demo as the worker
  --steps S            demo training steps (default 30)
  --trace PATH         record per-rank Chrome traces (sets DEAR_TRACE;
                       each rank writes PATH.rank<R>.json, loadable in
                       ui.perfetto.dev, plus an overlap summary on stderr)
  --tune-window K      measure throughput over K-step BO windows in the
                       demo (sets DEAR_TUNE_WINDOW)
  --wire DTYPE         data-path wire precision: f32 (default), bf16 or
                       f16 (sets DEAR_WIRE_DTYPE; gradients cross the
                       socket at the narrow width, accumulated in f32)
  --strategy NAME      parallelism strategy: ddp (default) or zero2
                       (sets DEAR_STRATEGY; under DeAR both keep only the
                       owned shard of the optimizer state, ~1/world of it
                       per rank; zero2 also keeps only the owned
                       parameter shard resident between reduce-scatter
                       and all-gather — same losses bit-for-bit on the
                       f32 wire)

elastic options (any of these selects the supervised-restart path):
  --elastic-resize     survive peer loss by resizing in place: rank
                       deaths are tolerated by the supervisor and the
                       surviving workers re-rendezvous at the next
                       generation and keep training (sets
                       DEAR_ELASTIC_RESIZE=1); restart is the fallback
  --max-restarts R     relaunch a failed world up to R times (default 0)
  --backoff-ms MS      first restart delay, doubling per failure (default 250)
  --ckpt-dir PATH      workers checkpoint here (sets DEAR_CKPT_DIR)
  --ckpt-every K       checkpoint every K steps (sets DEAR_CKPT_EVERY)
  --chaos N            inject N seeded kill/stall faults while supervising
  --chaos-seed S       chaos plan seed (default 42)
  --chaos-window-ms W  spread the faults over the first W ms (default 3000)
";

struct Cli {
    opts: LaunchOptions,
    demo: bool,
    hosts: Option<usize>,
    steps: u64,
    command: Vec<String>,
    elastic: bool,
    policy: RestartPolicy,
    chaos_count: usize,
    chaos_seed: u64,
    chaos_window: Duration,
}

fn parse_cli(mut args: Vec<String>) -> Result<Cli, String> {
    let mut world = None;
    let mut opts = LaunchOptions::new(0);
    let mut demo = false;
    let mut hosts = None;
    let mut steps = 30u64;
    let mut command = Vec::new();
    let mut elastic = false;
    let mut policy = RestartPolicy::new(0);
    let mut chaos_count = 0usize;
    let mut chaos_seed = 42u64;
    let mut chaos_window = Duration::from_millis(3000);
    let mut i = 0;
    let take_value = |args: &Vec<String>, i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--world" => {
                let v = take_value(&args, &mut i, "--world")?;
                world = Some(v.parse().map_err(|_| format!("bad --world {v}"))?);
            }
            "--master-addr" => opts.master_host = take_value(&args, &mut i, "--master-addr")?,
            "--master-port" => {
                let v = take_value(&args, &mut i, "--master-port")?;
                opts.master_port = Some(v.parse().map_err(|_| format!("bad --master-port {v}"))?);
            }
            "--timeout-secs" => {
                let v = take_value(&args, &mut i, "--timeout-secs")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad --timeout-secs {v}"))?;
                opts.timeout = Some(Duration::from_secs(secs));
            }
            "--demo" => demo = true,
            "--hosts" => {
                let v = take_value(&args, &mut i, "--hosts")?;
                let h: usize = v.parse().map_err(|_| format!("bad --hosts {v}"))?;
                if h == 0 {
                    return Err("--hosts must be >= 1".to_string());
                }
                hosts = Some(h);
            }
            "--steps" => {
                let v = take_value(&args, &mut i, "--steps")?;
                steps = v.parse().map_err(|_| format!("bad --steps {v}"))?;
            }
            "--elastic-resize" => {
                opts.env
                    .push(("DEAR_ELASTIC_RESIZE".to_string(), "1".to_string()));
                opts.tolerate_departures = true;
            }
            "--max-restarts" => {
                let v = take_value(&args, &mut i, "--max-restarts")?;
                policy.max_restarts = v.parse().map_err(|_| format!("bad --max-restarts {v}"))?;
                elastic = true;
            }
            "--backoff-ms" => {
                let v = take_value(&args, &mut i, "--backoff-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --backoff-ms {v}"))?;
                policy.backoff = Duration::from_millis(ms);
                elastic = true;
            }
            "--trace" => {
                let v = take_value(&args, &mut i, "--trace")?;
                if v.is_empty() {
                    return Err("--trace needs a non-empty path".to_string());
                }
                opts.env.push(("DEAR_TRACE".to_string(), v));
            }
            "--tune-window" => {
                let v = take_value(&args, &mut i, "--tune-window")?;
                let _: u64 = v.parse().map_err(|_| format!("bad --tune-window {v}"))?;
                opts.env.push(("DEAR_TUNE_WINDOW".to_string(), v));
            }
            "--wire" => {
                let v = take_value(&args, &mut i, "--wire")?;
                match dear_collectives::DType::parse(&v) {
                    Some(d) if d.is_numeric() => {}
                    _ => return Err(format!("bad --wire {v} (want f32, bf16 or f16)")),
                }
                opts.env.push(("DEAR_WIRE_DTYPE".to_string(), v));
            }
            "--strategy" => {
                let v = take_value(&args, &mut i, "--strategy")?;
                // Validate at parse time so a typo dies here with the typed
                // message instead of 4 ranks failing rendezvous later.
                let parsed = v
                    .parse::<dear_core::ParallelismStrategy>()
                    .map_err(|e| format!("bad --strategy {v}: {e}"))?;
                opts.env
                    .push(("DEAR_STRATEGY".to_string(), parsed.as_str().to_string()));
            }
            "--ckpt-dir" => {
                let v = take_value(&args, &mut i, "--ckpt-dir")?;
                opts.env.push(("DEAR_CKPT_DIR".to_string(), v));
            }
            "--ckpt-every" => {
                let v = take_value(&args, &mut i, "--ckpt-every")?;
                let _: u64 = v.parse().map_err(|_| format!("bad --ckpt-every {v}"))?;
                opts.env.push(("DEAR_CKPT_EVERY".to_string(), v));
            }
            "--chaos" => {
                let v = take_value(&args, &mut i, "--chaos")?;
                chaos_count = v.parse().map_err(|_| format!("bad --chaos {v}"))?;
                elastic = true;
            }
            "--chaos-seed" => {
                let v = take_value(&args, &mut i, "--chaos-seed")?;
                chaos_seed = v.parse().map_err(|_| format!("bad --chaos-seed {v}"))?;
            }
            "--chaos-window-ms" => {
                let v = take_value(&args, &mut i, "--chaos-window-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-window-ms {v}"))?;
                chaos_window = Duration::from_millis(ms);
            }
            "--" => {
                command = args.split_off(i + 1);
                break;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let Some(world) = world else {
        return Err("--world is required".to_string());
    };
    opts.world = world;
    if demo != command.is_empty() {
        return Err("pass exactly one of --demo or `-- <worker command>`".to_string());
    }
    if let Some(h) = hosts {
        if !demo {
            return Err("--hosts only works with --demo".to_string());
        }
        if world % h != 0 {
            return Err(format!("--world {world} must divide evenly by --hosts {h}"));
        }
        if elastic || opts.tolerate_departures {
            return Err(
                "--hosts cannot be combined with the elastic / chaos flags (rank \
                 threads share a process, so per-rank kills and restarts do not \
                 apply)"
                    .to_string(),
            );
        }
    }
    Ok(Cli {
        opts,
        demo,
        hosts,
        steps,
        command,
        elastic,
        policy,
        chaos_count,
        chaos_seed,
        chaos_window,
    })
}

fn run() -> Result<(), NetError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal re-entry: `dear-launch` relaunches itself as the demo
    // worker, so `--demo` needs no separate worker binary.
    if args.first().is_some_and(|a| a == "--demo-worker") {
        let steps: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
        let cfg = NetConfig::from_env()?;
        dear_core::trace::configure(cfg.trace.clone());
        let summary = run_demo_worker(&cfg, steps)?;
        println!("{}", summary.to_line());
        return Ok(());
    }
    // Two-tier re-entry for `--hosts`: this process is ONE host running
    // `ranks_per_host` rank threads over a shared shm fabric; its RANK
    // env is the host index.
    if args.first().is_some_and(|a| a == "--demo-host-worker") {
        let steps: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
        let ranks_per_host: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
        let cfg = NetConfig::from_env()?;
        dear_core::trace::configure(cfg.trace.clone());
        for summary in run_demo_host(&cfg, steps, ranks_per_host)? {
            println!("{}", summary.to_line());
        }
        return Ok(());
    }
    let mut cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("dear-launch: {msg}\n\n{USAGE}");
            return Err(NetError::Config(msg));
        }
    };
    let command = if cli.demo {
        let me = std::env::current_exe()
            .map_err(|e| NetError::io("locating the dear-launch binary", e))?;
        let me = me.to_string_lossy().into_owned();
        match cli.hosts {
            // Tiered mode: the supervisor spawns H *host* processes; each
            // re-enters as `--demo-host-worker` and fans out its N/H rank
            // threads itself, so its RANK env is the host index.
            Some(hosts) => {
                let ranks_per_host = cli.opts.world / hosts;
                cli.opts.world = hosts;
                vec![
                    me,
                    "--demo-host-worker".to_string(),
                    cli.steps.to_string(),
                    ranks_per_host.to_string(),
                ]
            }
            None => vec![me, "--demo-worker".to_string(), cli.steps.to_string()],
        }
    } else {
        cli.command
    };
    if cli.elastic {
        let chaos = ChaosPlan::generate(
            cli.chaos_seed,
            cli.opts.world,
            cli.chaos_count,
            cli.chaos_window,
        );
        let outcome = launch_world_elastic(&command, &cli.opts, &cli.policy, &chaos)?;
        eprintln!(
            "dear-launch: all {} ranks exited cleanly (generation {}, {} restart(s))",
            cli.opts.world, outcome.generation, outcome.restarts
        );
    } else {
        match launch_world(&command, &cli.opts)? {
            WorldOutcome::AllExitedCleanly => {
                eprintln!("dear-launch: all {} ranks exited cleanly", cli.opts.world);
            }
            WorldOutcome::SurvivedDepartures { departed } => {
                eprintln!(
                    "dear-launch: {} of {} ranks departed ({departed:?}); \
                     the survivors resized in place and exited cleanly",
                    departed.len(),
                    cli.opts.world
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dear-launch: {e}");
            ExitCode::FAILURE
        }
    }
}
