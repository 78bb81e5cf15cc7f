//! E20 — the Section 2.3 online-release-times regime: independent rigid
//! tasks arriving over time, scheduled by greedy list scheduling.
//! Naroska and Schwiegelshohn \[27\] (and independently Johannes \[23\])
//! proved greedy is 2-competitive here; this experiment measures the
//! ratio against the release-time lower bound
//! `max(max_j (r_j + t_j), A/P)` across arrival ensembles.

use crate::harness::{f3, Table};
use rigid_baselines::asap;
use rigid_dag::source::TimedSource;
use rigid_dag::TaskSpec;
use rigid_sim::engine;
use rigid_time::Time;

/// Deterministic arrival workload: `n` tasks with SplitMix64-derived
/// release times, lengths and widths.
fn arrivals(seed: u64, n: usize, procs: u32, burstiness: u64) -> Vec<(Time, TaskSpec)> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut t = Time::ZERO;
    (0..n)
        .map(|_| {
            // Bursty inter-arrival: frequently 0, occasionally a jump.
            if next() % burstiness == 0 {
                t += Time::from_ratio((next() % 32 + 1) as i64, 4);
            }
            let len = Time::from_ratio((next() % 40 + 4) as i64, 8); // [0.5, 5.5)
            let width = (next() % procs as u64 + 1) as u32;
            (t, TaskSpec::new(len, width))
        })
        .collect()
}

/// The release-time lower bound `max(max_j (r_j + t_j), A/P)`.
fn timed_lower_bound(jobs: &[(Time, TaskSpec)], procs: u32) -> Time {
    let rt = jobs
        .iter()
        .map(|(r, s)| *r + s.time)
        .max()
        .expect("non-empty");
    let area: Time = jobs.iter().map(|(_, s)| s.area()).sum();
    rt.max(area.div_int(procs as i64))
}

/// E20 — greedy list scheduling under release times.
pub fn timed_releases() -> String {
    let mut out =
        String::from("== E20 / §2.3 regime: independent rigid tasks with release times ==\n");
    let mut table = Table::new(&["burstiness", "n", "P", "mean ratio", "worst ratio", "runs"]);
    for burst in [1u64, 2, 4] {
        let mut sum = 0.0;
        let mut worst: f64 = 1.0;
        let mut count = 0usize;
        for seed in 900..912u64 {
            let jobs = arrivals(seed, 120, 16, burst);
            let lb = timed_lower_bound(&jobs, 16);
            let mut src = TimedSource::new(jobs, 16);
            let result = engine::EngineConfig::new().run(&mut src, &mut asap());
            let ratio = result.makespan().ratio(lb).to_f64();
            // Naroska–Schwiegelshohn: greedy is 2-competitive vs OPT;
            // the measured ratio vs the *lower bound* stays under 2 on
            // these ensembles as well (asserted — a regression in the
            // timed engine path would break this).
            assert!(ratio < 2.0 + 1e-9, "seed {seed}: ratio {ratio}");
            sum += ratio;
            worst = worst.max(ratio);
            count += 1;
        }
        table.row(vec![
            format!("1/{burst}"),
            "120".into(),
            "16".into(),
            f3(sum / count as f64),
            f3(worst),
            count.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "Greedy list scheduling stays within the classic factor 2 of the\n\
         release-time lower bound max(max_j(r_j + t_j), A/P) — the engine's\n\
         clock-arrival path reproduces the Section 2.3 regime.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_and_valid() {
        let jobs = arrivals(1, 50, 8, 2);
        assert_eq!(jobs.len(), 50);
        for w in jobs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for (r, s) in &jobs {
            assert!(!r.is_negative() && s.procs <= 8);
        }
    }

    #[test]
    fn lower_bound_sane() {
        let jobs = vec![
            (Time::ZERO, TaskSpec::new(Time::from_int(2), 4)),
            (Time::from_int(10), TaskSpec::new(Time::ONE, 1)),
        ];
        // max(r+t) = 11 dominates area/P = 9/4.
        assert_eq!(timed_lower_bound(&jobs, 4), Time::from_int(11));
    }
}
