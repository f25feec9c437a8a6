//! The parent side of a world: launch the host processes of one repeat
//! through `dear_net::launch_world` (re-entering this binary as
//! `--worker`), wait for them under a wall-clock cap, and read back what
//! they measured.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dear_net::{launch_world, LaunchOptions, NetError};

use crate::worker::{unix_now_s, HostRecord, Job, RankRecord};

/// What one fresh world (one repeat) produced.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Rank-steps asked for (warm-up included) and how many returned `Ok`.
    pub attempted: u64,
    pub completed: u64,
    /// Why the world did not finish cleanly, one line per finding.
    pub errors: Vec<String>,
    /// The launch hit its wall-clock cap and the host processes were killed.
    pub capped: bool,
    pub ranks: Vec<RankRecord>,
    /// Launch call → last rank finished warm-up, input generation excluded.
    pub setup_s: f64,
    pub samples_per_s: f64,
    pub peak_rss_mib: f64,
    pub cpu_s_per_ksample: f64,
}

impl Repeat {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn rank0(&self) -> Option<&RankRecord> {
        self.ranks.iter().find(|r| r.rank == 0)
    }
}

/// Scratch directory for the workers' records, inside the build directory
/// (and so inside the checkout) next to the running binary; removed when
/// the command ends, however it ends.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created.
    pub fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("spine-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one world to completion. Never hangs: the launch is capped at
/// `cap`, after which every host process is killed; whatever is missing
/// from the records is charged as failed steps.
pub fn run_repeat(job: &Job, scratch: &Path, cap: Duration) -> Repeat {
    let w = job.workload;
    let mut rep = Repeat {
        attempted: job.rank_steps(),
        ..Repeat::default()
    };
    for host in 0..w.hosts {
        let _ = std::fs::remove_file(scratch.join(format!("host{host}.rec")));
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p.to_string_lossy().into_owned(),
        Err(e) => {
            rep.errors.push(format!("locating this binary: {e}"));
            return rep;
        }
    };
    let mut command = vec![
        exe,
        "--worker".to_string(),
        "--out".to_string(),
        scratch.to_string_lossy().into_owned(),
    ];
    command.extend(job.to_args());
    let mut opts = LaunchOptions::new(w.hosts);
    opts.timeout = Some(cap);
    let launched_unix_s = unix_now_s();
    if let Err(e) = launch_world(&command, &opts) {
        rep.capped = matches!(e, NetError::Timeout { .. });
        rep.errors.push(format!("world died: {e}"));
    }

    let mut hosts: Vec<HostRecord> = Vec::new();
    for host in 0..w.hosts {
        let path = scratch.join(format!("host{host}.rec"));
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match HostRecord::parse(&text) {
                Ok(h) => hosts.push(h),
                Err(e) => rep.errors.push(format!("host {host}: {e}")),
            },
            Err(e) => rep.errors.push(format!(
                "host {host} left no record ({e}); its ranks count as failed"
            )),
        }
    }
    for h in &hosts {
        for r in &h.ranks {
            rep.completed += r.completed;
            if let Some(e) = &r.error {
                rep.errors.push(format!(
                    "rank {} failed after {} completed steps: {e}",
                    r.rank, r.completed
                ));
            }
        }
    }
    rep.ranks = hosts.iter().flat_map(|h| h.ranks.clone()).collect();
    rep.ranks.sort_by_key(|r| r.rank);
    if rep.ranks.len() != w.world() && rep.ok() {
        rep.errors.push(format!(
            "{} of {} ranks reported",
            rep.ranks.len(),
            w.world()
        ));
    }
    if !rep.ok() {
        return rep;
    }

    rep.setup_s = hosts
        .iter()
        .map(|h| {
            let warm = h
                .ranks
                .iter()
                .map(|r| r.warm_done_unix_s)
                .fold(0.0, f64::max);
            warm - launched_unix_s - h.gen_s
        })
        .fold(0.0, f64::max);
    let samples = (job.steps * (w.batch * w.world()) as u64) as f64;
    let slowest = rep.ranks.iter().map(|r| r.timed_wall_s).fold(0.0, f64::max);
    rep.samples_per_s = samples / slowest;
    rep.peak_rss_mib = hosts.iter().map(|h| h.peak_rss_mib).fold(0.0, f64::max);
    rep.cpu_s_per_ksample = hosts.iter().map(|h| h.cpu_s).sum::<f64>() / samples * 1e3;
    rep
}

/// The checks every clean repeat must pass: all ranks hold the same
/// parameters and held-out loss, and that loss is finite and below its
/// value before training. Returns the findings (empty = pass).
pub fn check_repeat(rep: &Repeat) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(first) = rep.ranks.first() else {
        return vec!["no rank reported".to_string()];
    };
    for r in &rep.ranks {
        if r.params_hash != first.params_hash {
            bad.push(format!(
                "params_hash differs: rank {} {:016x} vs rank {} {:016x}",
                r.rank, r.params_hash, first.rank, first.params_hash
            ));
        }
        if r.eval_loss.to_bits() != first.eval_loss.to_bits() {
            bad.push(format!(
                "eval loss differs: rank {} {} vs rank {} {}",
                r.rank, r.eval_loss, first.rank, first.eval_loss
            ));
        }
    }
    if !first.eval_loss.is_finite() || first.eval_loss >= first.eval_loss0 {
        bad.push(format!(
            "held-out loss {} is not below its value before training {}",
            first.eval_loss, first.eval_loss0
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(rank: usize, hash: u64, loss: f32) -> RankRecord {
        RankRecord {
            rank,
            params_hash: hash,
            eval_loss0: 2.0,
            eval_loss: loss,
            ..RankRecord::default()
        }
    }

    #[test]
    fn repeat_checks_catch_divergence_and_no_learning() {
        let mut rep = Repeat {
            ranks: vec![rank(0, 7, 1.5), rank(1, 7, 1.5)],
            ..Repeat::default()
        };
        assert!(check_repeat(&rep).is_empty());
        rep.ranks[1].params_hash = 8;
        assert_eq!(check_repeat(&rep).len(), 1);
        rep.ranks[1] = rank(1, 7, 1.5);
        rep.ranks[0].eval_loss = f32::NAN;
        assert!(!check_repeat(&rep).is_empty());
        rep.ranks = vec![rank(0, 7, 2.5)];
        assert_eq!(check_repeat(&rep).len(), 1);
    }
}
