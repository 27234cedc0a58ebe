//! The slot clock: the only instrument the benchmark places inside a
//! simulation.
//!
//! The engine asks its capacity policy for the capacity once at the top of
//! every slot and takes `min(policy, baseline)`. The clock answers
//! `+∞`, so capacity is untouched, and records when each slot began. The
//! gap to the next slot's tick is that slot's wall time; a slot holding a
//! `Declare` or `Escalate` event is a manager response (overload reading
//! to reductions applied).

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mpr_core::Watts;
use mpr_power::CapacityPolicy;
use mpr_sim::{EmergencyEventKind, SimReport};

/// A capacity policy that timestamps every slot and never binds.
#[derive(Debug, Default)]
pub struct SlotClock {
    ticks: Mutex<Vec<(f64, Instant)>>,
}

impl CapacityPolicy for SlotClock {
    fn capacity_at(&self, t_secs: f64) -> Watts {
        let now = Instant::now();
        self.ticks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((t_secs, now));
        Watts::new(f64::INFINITY)
    }
}

/// One slot as the clock saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSpan {
    /// Wall time until the next tick (or the end of the run), seconds.
    pub wall_s: f64,
    /// The slot held a `Declare` or `Escalate` event.
    pub respond: bool,
}

/// What the clock saw over one run.
#[derive(Debug, Clone, Default)]
pub struct SlotTimes {
    /// Every slot the engine stepped, replayed slots included.
    pub spans: Vec<SlotSpan>,
    /// Wall time of the gap across a manager kill: the last slot before
    /// the kill plus crash, scan, restore and the start of re-drive.
    /// `None` when the run was not killed.
    pub recover_s: Option<f64>,
}

impl SlotTimes {
    /// Response latencies in milliseconds.
    #[must_use]
    pub fn respond_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.respond)
            .map(|s| s.wall_s * 1e3)
            .collect()
    }

    /// Slots without a response, wall seconds each.
    #[must_use]
    pub fn quiet_s(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| !s.respond)
            .map(|s| s.wall_s)
            .collect()
    }
}

impl SlotClock {
    /// Empties the clock so it can time another run.
    pub fn reset(&self) {
        self.ticks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Turns the recorded ticks into slot spans. `end` is when the run
    /// returned; `report` says which slots held responses.
    #[must_use]
    pub fn slot_times(&self, end: Instant, report: &SimReport) -> SlotTimes {
        let mut respond_at: Vec<f64> = report
            .events
            .iter()
            .filter(|e| e.kind != EmergencyEventKind::Lift)
            .map(|e| e.t_secs)
            .collect();
        respond_at.sort_by(f64::total_cmp);
        let ticks = self.ticks.lock().unwrap_or_else(PoisonError::into_inner);
        spans_of(&ticks, end, &respond_at)
    }
}

/// Slot spans from `(slot start, tick)` pairs; `respond_at` holds the
/// sorted start times of response slots.
fn spans_of(ticks: &[(f64, Instant)], end: Instant, respond_at: &[f64]) -> SlotTimes {
    let mut out = SlotTimes::default();
    for (i, &(t, at)) in ticks.iter().enumerate() {
        let next = ticks.get(i + 1);
        let until = next.map_or(end, |&(_, n)| n);
        let wall_s = until.saturating_duration_since(at).as_secs_f64();
        // Time runs backwards only where recovery re-drives slots.
        if next.is_some_and(|&(nt, _)| nt <= t) {
            out.recover_s = Some(wall_s);
            continue;
        }
        let respond = respond_at.binary_search_by(|x| x.total_cmp(&t)).is_ok();
        out.spans.push(SlotSpan { wall_s, respond });
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn spans_mark_responses_and_the_recovery_gap() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        // Slots 0, 60, 120, a kill, then 60 and 120 re-driven, then 180.
        let ticks = [
            (0.0, at(0)),
            (60.0, at(1)),
            (120.0, at(11)),
            (60.0, at(111)),
            (120.0, at(121)),
            (180.0, at(122)),
        ];
        let times = spans_of(&ticks, at(125), &[60.0]);
        assert_eq!(times.recover_s, Some(0.1));
        let walls: Vec<(f64, bool)> = times.spans.iter().map(|s| (s.wall_s, s.respond)).collect();
        assert_eq!(
            walls,
            [
                (0.001, false),
                (0.01, true),
                (0.01, true),
                (0.001, false),
                (0.003, false)
            ]
        );
        let ms = times.respond_ms();
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| (m - 10.0).abs() < 1e-9), "{ms:?}");
    }

    #[test]
    fn the_clock_never_binds() {
        let clock = SlotClock::default();
        assert_eq!(clock.capacity_at(0.0).get(), f64::INFINITY);
        assert_eq!(f64::INFINITY.min(42.0), 42.0);
    }
}
