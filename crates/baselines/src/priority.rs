//! Priority policies for list scheduling.
//!
//! Graham-style list scheduling keeps ready tasks in a priority order and
//! greedily starts whatever fits. The paper (and Li \[25\]) note that for
//! rigid DAGs *every* such ASAP policy is `Θ(P)`-competitive in the worst
//! case — the experiments here sweep several classic orders to show the
//! blow-up is not an artifact of one ordering.

use rigid_dag::TaskSpec;
use rigid_time::Time;
use serde::{Deserialize, Serialize};

/// A list-scheduling priority order over ready tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// First released, first considered.
    Fifo,
    /// Longest execution time first (Turek et al. style).
    LongestFirst,
    /// Shortest execution time first.
    ShortestFirst,
    /// Largest processor requirement first (Baker et al. BL style).
    MostProcsFirst,
    /// Smallest processor requirement first.
    FewestProcsFirst,
    /// Largest area `t·p` first.
    LargestAreaFirst,
}

impl Priority {
    /// All policies, for sweep harnesses.
    pub const ALL: [Priority; 6] = [
        Priority::Fifo,
        Priority::LongestFirst,
        Priority::ShortestFirst,
        Priority::MostProcsFirst,
        Priority::FewestProcsFirst,
        Priority::LargestAreaFirst,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Fifo => "fifo",
            Priority::LongestFirst => "longest",
            Priority::ShortestFirst => "shortest",
            Priority::MostProcsFirst => "most-procs",
            Priority::FewestProcsFirst => "fewest-procs",
            Priority::LargestAreaFirst => "largest-area",
        }
    }

    /// The sort key: ready tasks are kept best first by
    /// [`PriorityKey::better_than`], equal keys in release order.
    pub fn key(&self, spec: &TaskSpec) -> PriorityKey {
        match self {
            Priority::Fifo => PriorityKey::Index,
            Priority::LongestFirst => PriorityKey::TimeDesc(spec.time),
            Priority::ShortestFirst => PriorityKey::TimeAsc(spec.time),
            Priority::MostProcsFirst => PriorityKey::ProcsDesc(spec.procs),
            Priority::FewestProcsFirst => PriorityKey::ProcsAsc(spec.procs),
            Priority::LargestAreaFirst => PriorityKey::TimeDesc(spec.area()),
        }
    }
}

/// A task's priority key, compared with [`PriorityKey::better_than`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityKey {
    /// Neutral: release order decides.
    Index,
    /// Ascending time/area.
    TimeAsc(Time),
    /// Descending time/area: the larger value is better.
    TimeDesc(Time),
    /// Ascending processor count.
    ProcsAsc(u32),
    /// Descending processor count.
    ProcsDesc(u32),
}

impl PriorityKey {
    /// Whether `self` strictly beats `other`, a key of the same variant.
    pub fn better_than(&self, other: &PriorityKey) -> bool {
        use PriorityKey::*;
        match (self, other) {
            (Index, Index) => false,
            (TimeAsc(a), TimeAsc(b)) => a < b,
            (TimeDesc(a), TimeDesc(b)) => a > b,
            (ProcsAsc(a), ProcsAsc(b)) => a < b,
            (ProcsDesc(a), ProcsDesc(b)) => a > b,
            _ => unreachable!("mixed priority key variants"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(t: i64, p: u32) -> TaskSpec {
        TaskSpec::new(Time::from_int(t), p)
    }

    #[test]
    fn longest_first_prefers_longer() {
        let pr = Priority::LongestFirst;
        assert!(pr.key(&spec(5, 1)).better_than(&pr.key(&spec(2, 1))));
        assert!(!pr.key(&spec(2, 1)).better_than(&pr.key(&spec(5, 1))));
    }

    #[test]
    fn shortest_first_prefers_shorter() {
        let pr = Priority::ShortestFirst;
        assert!(pr.key(&spec(2, 1)).better_than(&pr.key(&spec(5, 1))));
    }

    #[test]
    fn most_procs_first() {
        let pr = Priority::MostProcsFirst;
        assert!(pr.key(&spec(1, 8)).better_than(&pr.key(&spec(1, 2))));
    }

    #[test]
    fn area_priority() {
        let pr = Priority::LargestAreaFirst;
        assert!(pr.key(&spec(3, 3)).better_than(&pr.key(&spec(4, 2))));
    }

    #[test]
    fn fifo_is_neutral() {
        let pr = Priority::Fifo;
        assert!(!pr.key(&spec(1, 1)).better_than(&pr.key(&spec(9, 9))));
    }
}
