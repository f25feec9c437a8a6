//! The model-vs-run residual: feed the measured per-layer compute and the
//! link's α-β into the discrete-event schedulers and compare their
//! predicted step with the step the runtime took.

use dear_collectives::CostModel;
use dear_models::{LayerProfile, ModelProfile, TensorProfile};
use dear_sched::{ClusterConfig, DearScheduler, Scheduler, WfbpScheduler};
use dear_sim::SimDuration;

use crate::ladder::LayerTime;
use crate::spec::Workload;

pub fn profile(w: &Workload, layers: &[LayerTime]) -> ModelProfile {
    let mut tensors = Vec::new();
    let layers = layers
        .iter()
        .map(|l| {
            let first = tensors.len();
            tensors.extend(l.tensors.iter().map(|&elements| TensorProfile { elements }));
            LayerProfile {
                name: l.name.clone(),
                tensor_ids: (first..tensors.len()).collect(),
                ff_time: SimDuration::from_nanos(l.ff_ns),
                bp_time: SimDuration::from_nanos(l.bp_ns),
            }
        })
        .collect();
    let profile = ModelProfile {
        name: w.model.name().to_string(),
        batch_size: w.batch,
        tensors,
        layers,
    };
    profile.validate();
    profile
}

/// Predicted steady-state step in milliseconds: (DeAR, WFBP), both with
/// the workload's fusion buffer on a flat ring of `w.world()` workers
/// joined by `link`.
pub fn predict(w: &Workload, layers: &[LayerTime], link: CostModel) -> (f64, f64) {
    let model = profile(w, layers);
    let cluster = ClusterConfig::custom(w.world(), link, w.name);
    let buffer = w.model.fusion_buffer();
    let dear = DearScheduler::with_buffer("DeAR", buffer).simulate(&model, &cluster);
    let wfbp = WfbpScheduler::with_buffer("WFBP", buffer).simulate(&model, &cluster);
    (
        dear.iter_time.as_millis_f64(),
        wfbp.iter_time.as_millis_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn a_free_network_predicts_pure_compute() {
        let layers: Vec<LayerTime> = (0..4)
            .map(|i| LayerTime {
                name: format!("linear{i}"),
                tensors: vec![256 * 256, 256],
                ff_ns: 1_000_000,
                bp_ns: 2_000_000,
            })
            .collect();
        let w = &WORKLOADS[3];
        let (dear, wfbp) = predict(w, &layers, CostModel::new(0.0, 0.0, 0.0));
        assert!((dear - 12.0).abs() < 1e-6, "{dear}");
        assert!((wfbp - 12.0).abs() < 1e-6, "{wfbp}");
        // A slow link makes both slower, and never DeAR slower than WFBP.
        let (dear, wfbp) = predict(w, &layers, CostModel::new(50_000.0, 8.0, 0.0));
        assert!(dear > 12.0 && dear <= wfbp + 1e-9, "{dear} vs {wfbp}");
    }
}
