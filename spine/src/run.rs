//! One run of one workload: the end-to-end pass (`--trace 0`) or the
//! per-layer pass (`--trace 1`), with the correctness checks both make.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use dear_core::{run_training, PipelineMode};
use dear_minidnn::{softmax_cross_entropy, Sgd};
use dear_net::hash_params;

use crate::spec::{self, Fabric, Inputs, MetricSpec, Workload};
use crate::stats::{median, tail_quantile};
use crate::worker::Job;
use crate::world::{check_repeat, run_repeat, Repeat};
use crate::{des, ladder};

/// Relative tolerance between the distributed run's held-out loss and
/// plain single-worker SGD on the global batch (Eq. 2): the arithmetic is
/// the same, only the summation order differs.
const SGD_TOLERANCE: f32 = 1e-4;

/// What a run hands to the driver.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order; a metric is absent
    /// only when no clean repeat could produce it.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON object that ends a run's standard output.
    pub fn to_json_line(&self) -> String {
        use serde_json::{json, Value};
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| (name.clone(), json!({"value": *value, "unit": *unit})))
            .collect();
        let doc = json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&doc).expect("the printer is infallible")
    }
}

/// Tallies repeats: steps attempted and failed, and whether every check
/// passed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn new() -> Self {
        Tally {
            correct: true,
            ..Tally::default()
        }
    }

    /// Books `steps` rank-steps. With findings they are all charged as
    /// failed; returns whether there were none.
    fn charge(&mut self, label: &str, steps: u64, findings: &[String]) -> bool {
        self.attempted += steps;
        for f in findings {
            println!("  FAILED {label}: {f}");
        }
        if !findings.is_empty() {
            self.failed += steps;
            self.correct = false;
        }
        findings.is_empty()
    }

    /// Books one repeat. Returns whether it is clean: it finished, passed
    /// the checks every repeat must pass, and `more` (findings of checks
    /// only this repeat has) is empty.
    fn book(&mut self, label: &str, rep: &Repeat, more: Vec<String>) -> bool {
        let mut findings = rep.errors.clone();
        if rep.ok() {
            findings.extend(check_repeat(rep));
            findings.extend(more);
        }
        self.charge(label, rep.attempted, &findings)
    }

    fn into_outcome(self) -> Outcome {
        Outcome {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

fn other_mode(mode: PipelineMode) -> PipelineMode {
    match mode {
        PipelineMode::Dear => PipelineMode::Wfbp,
        PipelineMode::Wfbp => PipelineMode::Dear,
    }
}

/// Wall-clock cap of a world expected to take `expect_s`.
fn cap(expect_s: f64) -> Duration {
    Duration::from_secs_f64(15.0 + 3.0 * expect_s)
}

/// The pilot's fixed steps on two references computed in this process:
/// the same distributed run over a plain `LocalFabric` (must match bit for
/// bit, whatever fabric the workload uses) and single-worker SGD on the
/// global batch (must match to rounding).
struct Reference {
    params_hash: u64,
    eval_loss: f32,
    sgd_eval_loss: f32,
}

fn reference(w: &Workload, seed: u64) -> Result<Reference, String> {
    let inputs = Inputs::new(seed);
    let total = spec::WARMUP_STEPS + spec::PILOT_STEPS;
    let eval = inputs.eval_batch();
    let per_rank = run_training(w.world(), w.train_config(w.mode), |handle| {
        let rank = handle.rank();
        let shards = inputs.shards(w, rank, total);
        let mut net = w.model.build(inputs.init_seed);
        let mut optim = handle.into_optim(&net);
        for (x, labels) in &shards {
            optim.train_step(&mut net, x, labels)?;
        }
        optim.synchronize(&mut net)?;
        let logits = net.forward(&eval.0);
        let (loss, _) = softmax_cross_entropy(&logits, &eval.1);
        Ok::<_, dear_collectives::CollectiveError>((hash_params(&net.flat_params()), loss))
    });
    let per_rank: Vec<(u64, f32)> = per_rank
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference world: {e}"))?;
    let (params_hash, eval_loss) = per_rank[0];
    if per_rank
        .iter()
        .any(|&(h, l)| h != params_hash || l.to_bits() != eval_loss.to_bits())
    {
        return Err("the reference world's ranks diverged".to_string());
    }

    let mut net = w.model.build(inputs.init_seed);
    let mut opt = Sgd::new(w.train_config(w.mode).lr);
    for step in 0..total {
        let (x, labels) = inputs.data.batch(step, w.batch * w.world());
        net.zero_grads();
        let logits = net.forward(&x);
        let (_, dloss) = softmax_cross_entropy(&logits, &labels);
        net.backward(&dloss);
        opt.step(&mut net);
    }
    let logits = net.forward(&eval.0);
    let (sgd_eval_loss, _) = softmax_cross_entropy(&logits, &eval.1);
    Ok(Reference {
        params_hash,
        eval_loss,
        sgd_eval_loss,
    })
}

/// Runs the pilot world (fixed steps).
fn pilot(w: &'static Workload, seed: u64, scratch: &Path) -> Repeat {
    let job = Job {
        workload: w,
        seed,
        mode: w.mode,
        steps: spec::PILOT_STEPS,
        traced: false,
    };
    run_repeat(&job, scratch, cap(10.0))
}

/// Books the pilot and returns rank 0's median step time in seconds, which
/// sizes the timed worlds; `None` when the pilot is not clean.
fn book_pilot(tally: &mut Tally, rep: &Repeat, more: Vec<String>) -> Option<f64> {
    let clean = tally.book("pilot", rep, more);
    rep.rank0()
        .filter(|_| clean)
        .map(|r| median(&r.step_ms) / 1e3)
}

/// Timed steps per repeat so that one repeat measures `window_s`.
fn steps_for(window_s: f64, step_s: f64) -> u64 {
    ((window_s / step_s).round() as u64).max(spec::PILOT_STEPS)
}

fn push(out: &mut Outcome, spec: &MetricSpec, value: f64, note: &str) {
    println!("  {} = {} {}  ({note})", spec.name, value, spec.unit);
    out.metrics.push((spec.name.clone(), value, spec.unit));
}

/// The end-to-end pass: reference, pilot, then `TIMED_REPEATS` fresh
/// worlds that together measure for `seconds`.
///
/// # Errors
///
/// Returns a message when the reference cannot be computed.
pub fn end_to_end(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::new();
    let refr = reference(w, seed)?;
    let pilot_rep = pilot(w, seed, scratch);
    let mut bad = Vec::new();
    if let Some(p) = pilot_rep.rank0().filter(|_| pilot_rep.ok()) {
        println!(
            "  pilot: steps={}+{} params_hash={:016x} final_loss={} reference_hash={:016x} sgd_loss={}",
            spec::WARMUP_STEPS,
            spec::PILOT_STEPS,
            p.params_hash,
            p.eval_loss,
            refr.params_hash,
            refr.sgd_eval_loss
        );
        if p.params_hash != refr.params_hash || p.eval_loss.to_bits() != refr.eval_loss.to_bits() {
            bad.push(
                "params_hash or held-out loss differs from the LocalFabric reference".to_string(),
            );
        }
        if ((p.eval_loss - refr.sgd_eval_loss) / refr.sgd_eval_loss).abs() > SGD_TOLERANCE {
            bad.push(
                "held-out loss differs from single-worker SGD on the global batch".to_string(),
            );
        }
    }
    let step_s = book_pilot(&mut tally, &pilot_rep, bad);

    let window_s = seconds / spec::TIMED_REPEATS as f64;
    let mut timed: Vec<Repeat> = Vec::new();
    let mut setups: Vec<f64> = pilot_rep
        .ok()
        .then_some(pilot_rep.setup_s)
        .into_iter()
        .collect();
    if let Some(step_s) = step_s {
        let steps = steps_for(window_s, step_s);
        let mut capped = false;
        for i in 0..spec::TIMED_REPEATS {
            let label = format!("repeat {}", i + 1);
            // One more step each repeat: peak memory is chaotic in the step
            // count (allocator layout), so a run samples consecutive counts.
            let job = Job {
                workload: w,
                seed,
                mode: w.mode,
                steps: steps + i as u64,
                traced: false,
            };
            if capped {
                let why = "not run, the world before it hit its wall-clock cap";
                tally.charge(&label, job.rank_steps(), &[why.to_string()]);
                continue;
            }
            let rep = run_repeat(&job, scratch, cap(job.steps as f64 * step_s));
            capped = rep.capped;
            if tally.book(&label, &rep, Vec::new()) {
                println!(
                    "  {label}: steps={} samples_per_s={:.2} setup_s={:.4} peak_rss_mib={:.1} cpu_s_per_ksample={:.4}",
                    job.steps, rep.samples_per_s, rep.setup_s, rep.peak_rss_mib, rep.cpu_s_per_ksample
                );
                setups.push(rep.setup_s);
                timed.push(rep);
            }
        }
    }

    let mut out = tally.into_outcome();
    if timed.is_empty() {
        return Ok(out);
    }
    let of = |f: fn(&Repeat) -> f64| median(&timed.iter().map(f).collect::<Vec<f64>>());
    let pool: Vec<f64> = timed
        .iter()
        .filter_map(Repeat::rank0)
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    let (p95, reported) = tail_quantile(&pool, 0.95, 10);
    let repeats = format!("median of {} repeats", timed.len());
    for s in spec::end_to_end() {
        let (value, note) = match s.name.as_str() {
            "samples_per_s" => (of(|r| r.samples_per_s), repeats.clone()),
            "step_ms_p50" => (
                median(&pool),
                format!("rank 0, {} steps pooled", pool.len()),
            ),
            "step_ms_p95" => (
                p95,
                format!(
                    "rank 0, {} steps pooled, p{:.1} reported",
                    pool.len(),
                    reported * 100.0
                ),
            ),
            "setup_s" => (
                median(&setups),
                format!("median of {} worlds, pilot included", setups.len()),
            ),
            "peak_rss_mib" => (
                timed.iter().map(|r| r.peak_rss_mib).fold(0.0, f64::max),
                format!("max of {} repeats", timed.len()),
            ),
            "cpu_s_per_ksample" => (of(|r| r.cpu_s_per_ksample), repeats.clone()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        push(&mut out, &s, value, &note);
    }
    Ok(out)
}

/// Rounds of the per-layer pass. Each round runs the three worlds back to
/// back, so the ratios between them are taken between neighbours in time
/// and the host's slow phases mostly cancel.
const TRACE_ROUNDS: usize = 3;

/// The per-layer pass: the ladder, a pilot, then `TRACE_ROUNDS` rounds of
/// three fresh worlds — untraced, traced, and untraced in the other
/// pipeline mode — that together measure for three quarters of `seconds`;
/// then the DES prediction of the same configuration. Rows measured once
/// per round are reported as the median over the rounds.
///
/// # Errors
///
/// Returns a message when the ladder fails or a row is missing.
pub fn per_layer(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let lad = ladder::run(w, seed)?;
    for note in &lad.notes {
        println!("  ladder: {note}");
    }
    let mut rows = lad.rows.clone();
    let mut tally = Tally::new();
    let step_s = book_pilot(&mut tally, &pilot(w, seed, scratch), Vec::new());
    // Per-round values of every row that a round measures.
    let mut rounds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut base_steps: Vec<f64> = Vec::new();
    if let Some(step_s) = step_s {
        let steps = steps_for(seconds / (4 * TRACE_ROUNDS) as f64, step_s);
        let expect = steps as f64 * step_s;
        let mut world = |label: String, mode, traced| {
            let job = Job {
                workload: w,
                seed,
                mode,
                steps,
                traced,
            };
            let rep = run_repeat(&job, scratch, cap(expect));
            tally.book(&label, &rep, Vec::new()).then_some(rep)
        };
        for round in 1..=TRACE_ROUNDS {
            let base = world(format!("round {round} untraced world"), w.mode, false);
            let traced = world(format!("round {round} traced world"), w.mode, true);
            let other = world(
                format!("round {round} other-mode world"),
                other_mode(w.mode),
                false,
            );
            let (Some(base), Some(traced), Some(other)) = (base, traced, other) else {
                continue;
            };
            println!(
                "  round {round}: steps={steps} untraced={:.2} traced={:.2} {}={:.2} samples/s",
                base.samples_per_s,
                traced.samples_per_s,
                spec::mode_name(other_mode(w.mode)),
                other.samples_per_s
            );
            let t0 = traced.rank0().ok_or("the traced world lost rank 0")?;
            let (dear, wfbp) = match w.mode {
                PipelineMode::Dear => (&base, &other),
                PipelineMode::Wfbp => (&other, &base),
            };
            let mut measured = t0.rows.clone();
            measured.extend([
                ("net.rendezvous_ms".to_string(), t0.rendezvous_ms),
                (
                    "runtime.dear_over_wfbp".to_string(),
                    dear.samples_per_s / wfbp.samples_per_s,
                ),
                (
                    "trace.overhead_frac".to_string(),
                    1.0 - traced.samples_per_s / base.samples_per_s,
                ),
                (
                    "scaling_eff".to_string(),
                    base.samples_per_s / (w.world() as f64 * rows["minidnn.single_samples_per_s"]),
                ),
            ]);
            for (name, value) in measured {
                rounds.entry(name).or_default().push(value);
            }
            base_steps.extend(
                &base
                    .rank0()
                    .ok_or("the untraced world lost rank 0")?
                    .step_ms,
            );
        }
    }
    rows.extend(rounds.iter().map(|(name, v)| (name.clone(), median(v))));
    if !base_steps.is_empty() {
        let link = match w.fabric {
            Fabric::Delay => spec::delay_model(),
            Fabric::Net => lad.links[w.link()],
        };
        let (pred_dear, pred_wfbp) = des::predict(w, &lad.layers, link);
        let pred = match w.mode {
            PipelineMode::Dear => pred_dear,
            PipelineMode::Wfbp => pred_wfbp,
        };
        let measured = median(&base_steps);
        rows.insert("des.pred_step_ms".into(), pred);
        rows.insert("des.residual".into(), (measured - pred) / measured);
        rows.insert("des.pred_dear_over_wfbp".into(), pred_wfbp / pred_dear);
    }
    let mut out = tally.into_outcome();
    let per_round = format!("median of {TRACE_ROUNDS} rounds");
    for s in spec::per_layer() {
        let note = if rounds.contains_key(&s.name) {
            &per_round
        } else {
            "measured once"
        };
        match rows.get(&s.name) {
            Some(&v) => push(&mut out, &s, v, note),
            None if out.correct => return Err(format!("row {} was not measured", s.name)),
            None => {}
        }
    }
    Ok(out)
}

/// Prints only the ladder's rows.
///
/// # Errors
///
/// As [`ladder::run`].
pub fn ladder_only(w: &Workload, seed: u64) -> Result<(), String> {
    let lad = ladder::run(w, seed)?;
    for note in &lad.notes {
        println!("  ladder: {note}");
    }
    for s in spec::per_layer() {
        if let Some(v) = lad.rows.get(&s.name) {
            println!("  {} = {} {}", s.name, v, s.unit);
        }
    }
    Ok(())
}
