//! End-to-end check of the observability layer over a real in-process
//! DeAR run: spans land on the right streams, OP1 spans never overlap on
//! one stream — the update fused into a reduce-scatter's last receive has
//! a span of its own after it, not inside it — and measured exposed
//! communication never exceeds total communication.

use dear_core::trace::{self, OverlapSummary, TaskKind};
use dear_core::{run_training, TrainConfig};
use dear_minidnn::{BlobDataset, Linear, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Linear::new(6, 16, &mut rng))
        .push(Relu::new())
        .push(Linear::new(16, 8, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8, 3, &mut rng))
}

#[test]
fn traced_dear_run_produces_serial_non_empty_streams() {
    trace::set_enabled(true);
    trace::clear();

    let world = 2;
    let steps = 4;
    let global_batch = 16;
    let config = TrainConfig {
        lr: 0.05,
        ..TrainConfig::default()
    };
    let data = BlobDataset::new(6, 3, 0.4, 99);
    run_training(world, config, |handle| {
        let rank = handle.rank();
        let mut net = build_net(7);
        let mut optim = handle.into_optim(&net);
        for step in 0..steps {
            let (x, labels) = data.shard(step, global_batch, rank, world);
            let _ = optim.train_step(&mut net, &x, &labels);
        }
        optim.synchronize(&mut net).unwrap();
    });
    trace::set_enabled(false);

    let groups = trace::timeline_groups();
    assert_eq!(groups.len(), world, "one trace group per rank");
    for (scope, tl) in &groups {
        // Spans recorded through the guard API carry real wall-clock
        // timestamps from one thread each, so every stream must be serial
        // — OP1 reduce-scatter spans in particular never overlap.
        tl.assert_streams_serial();

        let mut op1 = 0usize;
        let mut upd = 0usize;
        let mut op2 = 0usize;
        let mut ff = 0usize;
        let mut bp = 0usize;
        for task in tl.tasks() {
            let stream = tl.stream_name(task.stream);
            if task.label.starts_with("OP1.RS") {
                assert!(
                    stream.ends_with("/comm"),
                    "OP1 span on unexpected stream {stream}"
                );
                assert_eq!(task.kind, TaskKind::Communication);
                op1 += 1;
            }
            if task.label.starts_with("OP1.UPD") {
                assert!(stream.ends_with("/comm"), "OP1.UPD on {stream}");
                upd += 1;
            }
            if task.label.starts_with("OP2.AG") {
                op2 += 1;
            }
            if task.label.starts_with("FF[") {
                assert_eq!(task.kind, TaskKind::FeedForward);
                ff += 1;
            }
            if task.label.starts_with("BP[") {
                assert_eq!(task.kind, TaskKind::Backprop);
                bp += 1;
            }
        }
        assert!(op1 > 0, "{scope}: no OP1 reduce-scatter spans recorded");
        assert_eq!(upd, op1, "{scope}: one OP1.UPD span per OP1.RS span");
        assert!(op2 > 0, "{scope}: no OP2 all-gather spans recorded");
        assert!(ff >= steps as usize, "{scope}: missing feed-forward spans");
        assert_eq!(bp, steps as usize, "{scope}: missing backprop spans");

        let summary = OverlapSummary::from_timeline(tl);
        assert!(
            summary.comm.as_nanos() > 0,
            "{scope}: no communication time measured"
        );
        assert!(
            summary.exposed <= summary.comm,
            "{scope}: exposed comm exceeds total comm"
        );
        assert!(summary.makespan >= summary.compute, "{scope}: bad makespan");
        let line = summary.to_line(scope);
        assert!(line.contains("overlap="), "summary line malformed: {line}");
    }

    trace::clear();
}
