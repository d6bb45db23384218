//! Benchmark-owned wrappers that time calls into the program's public
//! layer APIs: a [`ClientTrainer`] wrapper (one per task) and a timing
//! decorator for the [`Aggregator`] stack.  Both forward every call
//! unchanged and only add spans around it.

use crate::spans::span;
use papaya_core::aggregator::{AccumulateOutcome, Aggregator, AggregatorStats};
use papaya_core::client::{ClientTrainer, ClientUpdate, LocalTrainResult};
use papaya_core::dp::DpTelemetry;
use papaya_core::robust::RobustTelemetry;
use papaya_core::secure::{MaskPlan, PrecomputedMask, SecureTelemetry, SecureTimings};
use papaya_nn::params::ParamVec;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One client update as the trainer produced it, with the index of the
/// model version it trained from (versions numbered in order of first use).
#[derive(Clone, Debug)]
pub struct Recorded {
    /// Client that trained.
    pub client_id: usize,
    /// Model version index the client downloaded.
    pub start_version: u64,
    /// The training result.
    pub result: LocalTrainResult,
}

#[derive(Default)]
struct Recording {
    /// Hash of a downloaded model → its version index.
    versions: BTreeMap<u64, u64>,
    updates: Vec<Recorded>,
}

/// FNV-1a over the bit patterns of a parameter vector.
fn params_hash(params: &ParamVec) -> u64 {
    params
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Times `train` (`client.train`) and `evaluate` (`eval`) of one task's
/// trainer, and optionally records every training result for the
/// aggregator replay.
pub struct TracedTrainer {
    inner: Arc<dyn ClientTrainer>,
    task: u32,
    recording: Option<Mutex<Recording>>,
}

impl TracedTrainer {
    /// Wraps `inner` for task `task`; `record` keeps every training result.
    pub fn new(inner: Arc<dyn ClientTrainer>, task: u32, record: bool) -> Self {
        TracedTrainer {
            inner,
            task,
            recording: record.then(|| Mutex::new(Recording::default())),
        }
    }

    /// The recorded training results, in call order.
    pub fn take_recorded(&self) -> Vec<Recorded> {
        self.recording
            .as_ref()
            .map(|r| std::mem::take(&mut r.lock().expect("recording poisoned").updates))
            .unwrap_or_default()
    }
}

impl ClientTrainer for TracedTrainer {
    fn parameter_count(&self) -> usize {
        self.inner.parameter_count()
    }

    fn initial_parameters(&self) -> ParamVec {
        self.inner.initial_parameters()
    }

    fn train(&self, client_id: usize, global: &ParamVec, seed: u64) -> LocalTrainResult {
        let result = span("client.train", self.task, client_id as u64, || {
            self.inner.train(client_id, global, seed)
        });
        if let Some(recording) = &self.recording {
            span("bench.record", self.task, client_id as u64, || {
                let mut recording = recording.lock().expect("recording poisoned");
                let next = recording.versions.len() as u64;
                let start_version = *recording
                    .versions
                    .entry(params_hash(global))
                    .or_insert(next);
                recording.updates.push(Recorded {
                    client_id,
                    start_version,
                    result: result.clone(),
                });
            });
        }
        result
    }

    fn evaluate(&self, params: &ParamVec, client_ids: &[usize]) -> f64 {
        span("eval", self.task, client_ids.len() as u64, || {
            self.inner.evaluate(params, client_ids)
        })
    }
}

/// The timing decorator `T`: records `accumulate` and `take` of the wrapped
/// layer as spans and forwards every other call untouched.
pub struct Timed {
    inner: Box<dyn Aggregator>,
    accumulate_name: &'static str,
    take_name: &'static str,
    task: u32,
}

impl Timed {
    /// Wraps `inner`, naming its spans after `layer`.
    pub fn wrap(inner: Box<dyn Aggregator>, layer: Layer, task: u32) -> Box<dyn Aggregator> {
        let (accumulate_name, take_name) = layer.span_names();
        Box::new(Timed {
            inner,
            accumulate_name,
            take_name,
            task,
        })
    }
}

/// The aggregator layers the replay times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The aggregation strategy (FedBuff, sync round, timed hybrid).
    Strategy,
    /// The secure-aggregation decorator.
    Secure,
    /// The differential-privacy decorator.
    Dp,
    /// The robust-aggregation decorator.
    Robust,
}

impl Layer {
    /// Every layer, innermost first.
    pub const ALL: [Layer; 4] = [Layer::Strategy, Layer::Secure, Layer::Dp, Layer::Robust];

    /// The `accumulate` and `take` span names of this layer.
    pub fn span_names(self) -> (&'static str, &'static str) {
        match self {
            Layer::Strategy => ("strategy.accumulate", "strategy.take"),
            Layer::Secure => ("secure.accumulate", "secure.take"),
            Layer::Dp => ("dp.accumulate", "dp.take"),
            Layer::Robust => ("robust.accumulate", "robust.take"),
        }
    }
}

impl Aggregator for Timed {
    fn accumulate(
        &mut self,
        update: ClientUpdate,
        current_version: u64,
        now_s: f64,
    ) -> AccumulateOutcome {
        let inner = &mut self.inner;
        span(
            self.accumulate_name,
            self.task,
            update.client_id as u64,
            || inner.accumulate(update, current_version, now_s),
        )
    }

    fn is_ready(&self, now_s: f64) -> bool {
        self.inner.is_ready(now_s)
    }

    fn take(&mut self, now_s: f64) -> Option<ParamVec> {
        let inner = &mut self.inner;
        span(self.take_name, self.task, 0, || inner.take(now_s))
    }

    fn reset(&mut self) -> usize {
        self.inner.reset()
    }

    fn goal(&self) -> usize {
        self.inner.goal()
    }

    fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    fn stats(&self) -> &AggregatorStats {
        self.inner.stats()
    }

    fn max_staleness(&self) -> Option<u64> {
        self.inner.max_staleness()
    }

    fn next_deadline_s(&self) -> Option<f64> {
        self.inner.next_deadline_s()
    }

    fn closes_round_on_release(&self) -> bool {
        self.inner.closes_round_on_release()
    }

    fn update_weight(&self, num_examples: usize, staleness: u64) -> f64 {
        self.inner.update_weight(num_examples, staleness)
    }

    fn secure_telemetry(&self) -> Option<&SecureTelemetry> {
        self.inner.secure_telemetry()
    }

    fn dp_telemetry(&self) -> Option<&DpTelemetry> {
        self.inner.dp_telemetry()
    }

    fn robust_telemetry(&self) -> Option<&RobustTelemetry> {
        self.inner.robust_telemetry()
    }

    fn plan_mask_precompute(&mut self, client_id: usize) -> Option<MaskPlan> {
        self.inner.plan_mask_precompute(client_id)
    }

    fn provide_precomputed_mask(&mut self, client_id: usize, mask: PrecomputedMask) {
        self.inner.provide_precomputed_mask(client_id, mask)
    }

    fn secure_timings(&self) -> Option<SecureTimings> {
        self.inner.secure_timings()
    }
}
