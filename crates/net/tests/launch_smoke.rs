//! End-to-end multi-process smoke tests: run the real `dear-launch`
//! binary, four OS processes, real sockets, real DeAR training — and
//! assert the trained models agree bit-for-bit across ranks. Also the
//! failure path: killing one worker mid-step must fail the whole launch
//! promptly instead of hanging.

use std::process::Command;
use std::time::{Duration, Instant};

const LAUNCH: &str = env!("CARGO_BIN_EXE_dear-launch");

#[derive(Debug)]
struct RankLine {
    rank: usize,
    world: usize,
    eval_loss: String,
    params_hash: String,
    strategy: String,
    optim_bytes: usize,
}

fn parse_lines(stdout: &str) -> Vec<RankLine> {
    let mut out = Vec::new();
    for line in stdout.lines().filter(|l| l.starts_with("dear-demo rank=")) {
        let field = |key: &str| -> String {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
                .to_string()
        };
        out.push(RankLine {
            rank: field("rank").parse().unwrap(),
            world: field("world").parse().unwrap(),
            eval_loss: field("eval_loss"),
            params_hash: field("params_hash"),
            strategy: field("strategy"),
            optim_bytes: field("optim_bytes").parse().unwrap(),
        });
    }
    out
}

#[test]
fn four_process_training_agrees_across_ranks() {
    let output = Command::new(LAUNCH)
        .args([
            "--world",
            "4",
            "--demo",
            "--steps",
            "25",
            "--timeout-secs",
            "120",
        ])
        .env("DEAR_RECV_TIMEOUT_MS", "60000")
        .output()
        .expect("running dear-launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launch failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let mut lines = parse_lines(&stdout);
    assert_eq!(lines.len(), 4, "expected 4 rank lines in:\n{stdout}");
    lines.sort_by_key(|l| l.rank);
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.rank, i);
        assert_eq!(line.world, 4);
        // Exact string equality == bit-identical loss and parameters.
        assert_eq!(line.eval_loss, lines[0].eval_loss, "losses diverged");
        assert_eq!(line.params_hash, lines[0].params_hash, "params diverged");
    }
}

#[test]
fn zero2_strategy_matches_ddp_losses_and_shards_optimizer_memory() {
    // The strategy API end to end across processes: one DDP run and one
    // `--strategy zero2` run over real sockets must finish with the SAME
    // eval loss and parameter hash, string-exact (bit-identity on the f32
    // wire), and in both every rank's resident optimizer state is its
    // ~1/world shard: under DeAR the shards partition the model whatever
    // the strategy.
    //
    // The demo net is a 6→16→8→3 MLP: 275 parameters in 6 tensors, one
    // SGD velocity vector (the demo trains with momentum; without, SGD
    // keeps no state). A rank owns one chunk of every fusion group, at
    // most one element of rounding per group, and a group holds at least
    // one tensor.
    const MODEL_BYTES: usize = 275 * 4;
    const SHARD_CAP: usize = (275usize.div_ceil(4) + 6) * 4;
    let run = |extra: &[&str]| -> Vec<RankLine> {
        let mut args = vec![
            "--world",
            "4",
            "--demo",
            "--steps",
            "25",
            "--timeout-secs",
            "120",
        ];
        args.extend_from_slice(extra);
        let output = Command::new(LAUNCH)
            .args(&args)
            .env("DEAR_RECV_TIMEOUT_MS", "60000")
            .output()
            .expect("running dear-launch");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "launch {args:?} failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        let mut lines = parse_lines(&stdout);
        assert_eq!(lines.len(), 4, "expected 4 rank lines in:\n{stdout}");
        lines.sort_by_key(|l| l.rank);
        lines
    };
    let ddp = run(&[]);
    let zero2 = run(&["--strategy", "zero2"]);
    for rank in 0..4 {
        assert_eq!(ddp[rank].strategy, "ddp");
        assert_eq!(zero2[rank].strategy, "zero2");
        assert_eq!(
            ddp[rank].eval_loss, zero2[rank].eval_loss,
            "zero2 losses diverged from DDP"
        );
        assert_eq!(
            ddp[rank].params_hash, zero2[rank].params_hash,
            "zero2 parameters diverged from DDP"
        );
        for run in [&ddp, &zero2] {
            let bytes = run[rank].optim_bytes;
            assert!(
                0 < bytes && bytes <= SHARD_CAP,
                "{} rank {rank}: {bytes} resident optimizer bytes, a 1/4 shard is \
                 at most {SHARD_CAP}",
                run[rank].strategy
            );
        }
    }
    for run in [&ddp, &zero2] {
        let resident: usize = run.iter().map(|l| l.optim_bytes).sum();
        assert_eq!(
            resident, MODEL_BYTES,
            "{}: the shards must partition the model",
            run[0].strategy
        );
    }
}

#[test]
fn launcher_rejects_unknown_strategy_at_parse_time() {
    // A typo must die in the CLI parser with the typed message, before any
    // worker process is spawned.
    let output = Command::new(LAUNCH)
        .args(["--world", "4", "--demo", "--strategy", "zero3"])
        .output()
        .expect("running dear-launch");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("bad --strategy zero3") && stderr.contains("unknown strategy"),
        "expected the typed parse error, got:\n{stderr}"
    );
}

#[test]
fn killing_one_worker_fails_the_world_without_hanging() {
    let start = Instant::now();
    let output = Command::new(LAUNCH)
        .args([
            "--world",
            "4",
            "--demo",
            "--steps",
            "400",
            "--timeout-secs",
            "120",
        ])
        // Rank 2 dies abruptly mid-training (process::exit — at the network
        // layer indistinguishable from a kill). Survivors must surface a
        // transport error within the configured recv deadline, and the
        // launcher must kill the rest and exit non-zero.
        .env("DEAR_DEMO_EXIT_RANK", "2")
        .env("DEAR_DEMO_EXIT_AT_STEP", "150")
        .env("DEAR_RECV_TIMEOUT_MS", "10000")
        .output()
        .expect("running dear-launch");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "launch unexpectedly succeeded; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("rank 2 failed") || stderr.contains("rank=2 dying"),
        "failure not attributed to rank 2:\n{stderr}"
    );
    // Well inside the 120 s harness timeout: disconnects propagate
    // immediately; 10 s of recv deadline is the worst case backstop.
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "failure took {:?} to propagate",
        start.elapsed()
    );
}

#[test]
fn launcher_rejects_bad_usage() {
    for args in [&["--world", "2"][..], &["--demo"][..]] {
        let output = Command::new(LAUNCH)
            .args(args)
            .output()
            .expect("running dear-launch");
        assert!(!output.status.success(), "args {args:?} should fail");
    }
}
