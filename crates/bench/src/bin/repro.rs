//! `repro <name>...` regenerates the named tables and figures of the
//! paper's evaluation: prints each one's rows and writes its artifact to
//! `results/<name>.json`. `repro` alone lists the names; an unknown name
//! fails before anything runs.
//!
//! `trace_export` writes Chrome-tracing JSON of two iterations of each
//! scheduler on ResNet-50 / 64x10GbE instead — load `results/trace_*.json`
//! in `chrome://tracing` or <https://ui.perfetto.dev> to inspect the
//! pipelines (the timelines behind the paper's Figs. 1 and 2).

use std::fs;
use std::process::ExitCode;

use dear_bench::{figures, render, write_json};
use dear_models::Model;
use dear_sched::{ClusterConfig, DearScheduler, Scheduler, WfbpScheduler};
use dear_sim::trace::to_chrome_trace;

const TRACE_EXPORT: &str = "trace_export";

fn trace_export() {
    let model = Model::ResNet50.profile();
    let cluster = ClusterConfig::paper_10gbe();
    let cases: [(&str, Box<dyn Scheduler>); 3] = [
        ("wfbp", Box::new(WfbpScheduler::unfused())),
        ("horovod", Box::new(WfbpScheduler::horovod())),
        (
            "dear_25mb",
            Box::new(DearScheduler::with_buffer("DeAR", 25 << 20)),
        ),
    ];
    fs::create_dir_all("results").expect("cannot create results/");
    for (name, sched) in cases {
        let tl = sched.build(&model, &cluster, 2);
        let path = format!("results/trace_{name}.json");
        fs::write(&path, to_chrome_trace(&tl)).expect("cannot write trace");
        println!("wrote {path} ({} tasks)", tl.tasks().len());
    }
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for (name, _) in figures::ALL {
            println!("{name}");
        }
        println!("{TRACE_EXPORT}");
        return ExitCode::SUCCESS;
    }
    let find = |name: &str| figures::ALL.iter().find(|(n, _)| *n == name);
    if let Some(unknown) = names
        .iter()
        .find(|n| *n != TRACE_EXPORT && find(n).is_none())
    {
        eprintln!("repro: unknown figure `{unknown}`; run `repro` for the list");
        return ExitCode::FAILURE;
    }
    for name in &names {
        println!("== {name} ==\n");
        if name == TRACE_EXPORT {
            trace_export();
        } else {
            let figure = find(name).expect("checked above").1();
            print!("{}", render(&figure.artifact));
            println!("\n{}", figure.note);
            println!("wrote {}", write_json(name, &figure.artifact));
        }
        println!();
    }
    ExitCode::SUCCESS
}
