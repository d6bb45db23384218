//! The simulated clock and event queue.
//!
//! Virtual time is measured in seconds as `f64`.  Events are totally ordered
//! by `(time, sequence_number)` so simulations are deterministic even when
//! several events share a timestamp.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Virtual time in seconds.
pub type SimTime = f64;

/// What happens when an event fires.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A client participating in `task` finished local training and
    /// uploads its update.
    ClientFinished {
        /// The task the client trained for.
        task: usize,
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation (ties the finish to its start).
        participation_id: u64,
    },
    /// A client participating in `task` failed (dropout, crash, or timeout
    /// abort).
    ClientFailed {
        /// The task the client was training for.
        task: usize,
        /// Device id of the client.
        client_id: usize,
        /// Identifier of this participation.
        participation_id: u64,
    },
    /// Periodic evaluation of one task's global model.
    Evaluate {
        /// The task to evaluate.
        task: usize,
    },
    /// Fleet-less runs: periodic utilization sample.
    SampleUtilization,
    /// Fleet runs: periodic control-plane sweep — live Aggregators heartbeat,
    /// the Coordinator detects failures and reassigns orphaned tasks, client
    /// demand is pooled and new clients are assigned.
    ControlPlaneTick,
    /// Fleet runs: periodic Selector refresh of the Coordinator's assignment
    /// map (between a reassignment and the next refresh, stale Selectors
    /// refuse to route).
    RefreshSelectors,
    /// Fleet runs: injected failure — the given Aggregator process dies and
    /// stops heartbeating; its buffered state is lost.
    AggregatorCrash {
        /// The Aggregator that dies.
        aggregator: usize,
    },
    /// Fleet runs: injected recovery — a crashed Aggregator comes back and
    /// heartbeats immediately; orphaned tasks are re-placed on it by the
    /// reconcile pass the heartbeat triggers.
    AggregatorRecover {
        /// The Aggregator that comes back.
        aggregator: usize,
    },
    /// Fleet runs: a control-plane reconciliation pass — the Coordinator
    /// diffs desired placement (every task on a healthy Aggregator) against
    /// actual routes and emits corrective placements.  Scheduled only when
    /// the pass would do work, so scenarios that never diverge process no
    /// extra events.
    ReconcileTick,
    /// A deadline-based aggregation strategy may be ready without a new
    /// arrival: check the task's aggregator and release if due.
    AggregatorDeadline {
        /// The task whose aggregator reached its deadline.
        task: usize,
    },
    /// A secure task's buffer closed and the TSA released the aggregated
    /// unmask for it (the per-buffer key release of AsyncSecAgg).  Scheduled
    /// by scenario drivers at release time so every key release is visible
    /// in the event stream; the handler refreshes the task's
    /// secure-aggregation metrics from the aggregator's telemetry.
    TsaKeyRelease {
        /// The task whose buffer was unmasked.
        task: usize,
    },
    /// A DP task released a noised aggregate and the privacy accountant
    /// composed it into the cumulative ε.  Scheduled by scenario drivers at
    /// release time so every privacy-relevant release is visible in the
    /// event stream; the handler refreshes the task's DP metrics from the
    /// aggregator's telemetry and stops the run when the ε budget is
    /// exhausted.
    DpRelease {
        /// The task whose release was noised and accounted.
        task: usize,
    },
    /// A task defended by a robust-aggregation estimator released a server
    /// update (the estimator replaced or passed through the inner strategy's
    /// release).  Scheduled by scenario drivers at release time so every
    /// defense-mediated release is visible in the event stream; the handler
    /// refreshes the task's robustness metrics from the aggregator's
    /// telemetry.
    RobustRelease {
        /// The task whose release went through the robust estimator.
        task: usize,
    },
}

impl fmt::Display for EventKind {
    /// Human-readable event description for logs and example/bench output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::ClientFinished {
                task,
                client_id,
                participation_id,
            } => write!(
                f,
                "task {task}: client {client_id} finished (participation {participation_id})"
            ),
            EventKind::ClientFailed {
                task,
                client_id,
                participation_id,
            } => write!(
                f,
                "task {task}: client {client_id} failed (participation {participation_id})"
            ),
            EventKind::Evaluate { task } => write!(f, "evaluate task {task}"),
            EventKind::SampleUtilization => write!(f, "sample utilization"),
            EventKind::ControlPlaneTick => {
                write!(f, "control-plane sweep (heartbeats, demand, assignment)")
            }
            EventKind::RefreshSelectors => write!(f, "refresh stale selector maps"),
            EventKind::AggregatorCrash { aggregator } => {
                write!(f, "aggregator {aggregator} crashes")
            }
            EventKind::AggregatorRecover { aggregator } => {
                write!(f, "aggregator {aggregator} recovers")
            }
            EventKind::ReconcileTick => {
                write!(f, "control-plane reconcile pass (re-place divergent tasks)")
            }
            EventKind::AggregatorDeadline { task } => {
                write!(f, "task {task}: aggregation deadline check")
            }
            EventKind::TsaKeyRelease { task } => {
                write!(f, "task {task}: TSA key release (buffer unmasked)")
            }
            EventKind::DpRelease { task } => {
                write!(f, "task {task}: DP release (noised and accounted)")
            }
            EventKind::RobustRelease { task } => {
                write!(f, "task {task}: robust release (estimator applied)")
            }
        }
    }
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Firing time in virtual seconds.
    pub time: SimTime,
    /// Monotonic sequence number breaking ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, EventKind::Evaluate { task: 0 });
        q.schedule(1.0, EventKind::SampleUtilization);
        q.schedule(3.0, EventKind::Evaluate { task: 0 });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(
            2.0,
            EventKind::ClientFinished {
                task: 0,
                client_id: 1,
                participation_id: 10,
            },
        );
        q.schedule(
            2.0,
            EventKind::ClientFinished {
                task: 0,
                client_id: 2,
                participation_id: 11,
            },
        );
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_eq!(
            first.kind,
            EventKind::ClientFinished {
                task: 0,
                client_id: 1,
                participation_id: 10
            }
        );
        assert_eq!(
            second.kind,
            EventKind::ClientFinished {
                task: 0,
                client_id: 2,
                participation_id: 11
            }
        );
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, EventKind::Evaluate { task: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn control_plane_events_display_readably() {
        assert_eq!(
            EventKind::AggregatorCrash { aggregator: 2 }.to_string(),
            "aggregator 2 crashes"
        );
        assert_eq!(
            EventKind::ControlPlaneTick.to_string(),
            "control-plane sweep (heartbeats, demand, assignment)"
        );
        assert_eq!(
            EventKind::RefreshSelectors.to_string(),
            "refresh stale selector maps"
        );
        assert_eq!(
            EventKind::ClientFinished {
                task: 1,
                client_id: 7,
                participation_id: 9
            }
            .to_string(),
            "task 1: client 7 finished (participation 9)"
        );
        assert_eq!(
            EventKind::TsaKeyRelease { task: 3 }.to_string(),
            "task 3: TSA key release (buffer unmasked)"
        );
        assert_eq!(
            EventKind::DpRelease { task: 4 }.to_string(),
            "task 4: DP release (noised and accounted)"
        );
        assert_eq!(
            EventKind::RobustRelease { task: 5 }.to_string(),
            "task 5: robust release (estimator applied)"
        );
        assert_eq!(
            EventKind::AggregatorRecover { aggregator: 2 }.to_string(),
            "aggregator 2 recovers"
        );
        assert_eq!(
            EventKind::ReconcileTick.to_string(),
            "control-plane reconcile pass (re-place divergent tasks)"
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, EventKind::Evaluate { task: 0 });
    }
}
