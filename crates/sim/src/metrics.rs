//! Schedule metrics: utilization, idle area, and competitive-ratio helpers.

use crate::schedule::Schedule;
use rigid_dag::{analysis, Instance};
use rigid_time::{Rational, Time};
use serde::{Deserialize, Serialize};

/// Aggregate metrics of one schedule against its instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// Makespan of the schedule.
    pub makespan: Time,
    /// Graham lower bound of the instance.
    pub lower_bound: Time,
    /// Exact ratio makespan / lower bound.
    pub ratio_to_lb: Rational,
    /// Total processor-time in use (the instance area).
    pub busy_area: Time,
    /// Total processor-time idle within `[0, makespan]`.
    pub idle_area: Time,
    /// Average utilization in `[0, 1]` (reporting only).
    pub avg_utilization: f64,
}

/// Computes metrics for a complete, feasible schedule of `instance`.
///
/// # Panics
/// Panics if the schedule is empty.
pub fn metrics(schedule: &Schedule, instance: &Instance) -> ScheduleMetrics {
    assert!(!schedule.is_empty(), "metrics of an empty schedule");
    let makespan = schedule.makespan();
    let lb = analysis::lower_bound(instance);
    let busy_area = analysis::area(instance.graph());
    let capacity = makespan.mul_int(schedule.procs() as i64);
    let idle_area = capacity - busy_area;
    ScheduleMetrics {
        makespan,
        lower_bound: lb,
        ratio_to_lb: makespan.ratio(lb),
        busy_area,
        idle_area,
        avg_utilization: busy_area.to_f64() / capacity.to_f64(),
    }
}

/// Maximal intervals within `[0, makespan]` during which **no** task
/// runs — the full-machine stalls (a schedule that starts after time 0
/// contributes a leading stall). Returned as `(start, end)` pairs.
pub fn idle_intervals(schedule: &Schedule) -> Vec<(Time, Time)> {
    let makespan = schedule.makespan();
    if schedule.is_empty() {
        return Vec::new();
    }
    // The usage profile lists change points; usage is constant between
    // consecutive points. Prepend time 0 with usage 0 if the first
    // placement starts later.
    let profile = schedule.usage_profile();
    let mut points: Vec<(Time, u64)> = Vec::with_capacity(profile.len() + 1);
    if profile
        .first()
        .map(|&(t, _)| t > Time::ZERO)
        .unwrap_or(false)
    {
        points.push((Time::ZERO, 0));
    }
    points.extend(profile);
    let mut out: Vec<(Time, Time)> = Vec::new();
    for w in points.windows(2) {
        let ((start, used), (end, _)) = (w[0], w[1]);
        if used == 0 && end <= makespan && start < end {
            match out.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => out.push((start, end)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::DagBuilder;

    #[test]
    fn metrics_of_perfect_schedule() {
        // Two tasks of 2 procs each on P=4, run in parallel: utilization 1.
        let inst = DagBuilder::new()
            .task("x", Time::from_int(3), 2)
            .task("y", Time::from_int(3), 2)
            .build(4);
        let g = inst.graph();
        let mut s = Schedule::new(4);
        s.place(
            g.find_by_label("x").unwrap(),
            Time::ZERO,
            Time::from_int(3),
            2,
        );
        s.place(
            g.find_by_label("y").unwrap(),
            Time::ZERO,
            Time::from_int(3),
            2,
        );
        let m = metrics(&s, &inst);
        assert_eq!(m.makespan, Time::from_int(3));
        assert_eq!(m.lower_bound, Time::from_int(3));
        assert_eq!(m.ratio_to_lb, Rational::ONE);
        assert_eq!(m.idle_area, Time::ZERO);
        assert!((m.avg_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_intervals_detect_gaps() {
        let mut s = Schedule::new(2);
        s.place(
            rigid_dag::TaskId(0),
            Time::from_int(1),
            Time::from_int(2),
            1,
        );
        s.place(
            rigid_dag::TaskId(1),
            Time::from_int(4),
            Time::from_int(5),
            2,
        );
        // Idle: [0,1) before the first task and [2,4) between them.
        assert_eq!(
            idle_intervals(&s),
            vec![
                (Time::ZERO, Time::from_int(1)),
                (Time::from_int(2), Time::from_int(4)),
            ]
        );
    }

    #[test]
    fn no_idle_in_busy_schedule() {
        let mut s = Schedule::new(2);
        s.place(rigid_dag::TaskId(0), Time::ZERO, Time::from_int(3), 1);
        assert!(idle_intervals(&s).is_empty());
        assert!(idle_intervals(&Schedule::new(2)).is_empty());
    }

    #[test]
    fn metrics_of_sequential_schedule() {
        let inst = DagBuilder::new()
            .task("x", Time::from_int(3), 2)
            .task("y", Time::from_int(3), 2)
            .build(4);
        let g = inst.graph();
        let mut s = Schedule::new(4);
        s.place(
            g.find_by_label("x").unwrap(),
            Time::ZERO,
            Time::from_int(3),
            2,
        );
        s.place(
            g.find_by_label("y").unwrap(),
            Time::from_int(3),
            Time::from_int(6),
            2,
        );
        let m = metrics(&s, &inst);
        assert_eq!(m.makespan, Time::from_int(6));
        assert_eq!(m.ratio_to_lb, Rational::new(2, 1));
        assert_eq!(m.idle_area, Time::from_int(12));
        assert!((m.avg_utilization - 0.5).abs() < 1e-12);
    }
}
