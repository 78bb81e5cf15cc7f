//! The deterministic shard planner: partitions a campaign's
//! deduplicated seed space across `--shard i/N` processes.
//!
//! Every process is handed the **full** seed list and independently
//! computes the same plan: deduplicate preserving first occurrence
//! (matching the campaign's replay semantics, where a repeated seed is
//! journaled once), then slice into `N` contiguous, balanced chunks.
//! Shard `i` runs chunk `i` and writes its own journal whose
//! [`SHARD_SCHEMA`](crate::journal::SHARD_SCHEMA) header pins the shard
//! coordinates plus a stable fingerprint of the assigned seed sequence,
//! so `merge` can later prove the shard files belong together and are
//! complete. Because the chunks cover the deduplicated list in order,
//! concatenating the shard journals by index reconstitutes the exact
//! byte sequence a single-process run would have written.

use crate::journal::ShardInfo;
use rigid_dag::StableHasher;

/// Which slice of a campaign one process runs: shard `index` of
/// `count`, 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Parses an `i/N` shard argument, rejecting every malformed or
    /// out-of-range shape with an actionable message: `0/N` (the index
    /// is 1-based), `i > N`, and `N = 0` are all errors.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let bad = || format!("bad shard value {s:?}: expected INDEX/COUNT, e.g. 2/8");
        let (index, count) = s.split_once('/').ok_or_else(bad)?;
        let index: usize = index.trim().parse().map_err(|_| bad())?;
        let count: usize = count.trim().parse().map_err(|_| bad())?;
        if count == 0 {
            return Err(format!(
                "bad shard value {s:?}: shard count must be at least 1"
            ));
        }
        if index == 0 {
            return Err(format!(
                "bad shard value {s:?}: shard index is 1-based (the first shard is 1/{count})"
            ));
        }
        if index > count {
            return Err(format!(
                "bad shard value {s:?}: shard index {index} exceeds shard count {count}"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// The seeds this shard runs: deduplicate the full list preserving
    /// first occurrence, then take the `index`-th of `count` balanced
    /// contiguous chunks. Deterministic — every process computes the
    /// same partition from the same seed list.
    pub fn plan(&self, seeds: &[u64]) -> Vec<u64> {
        let deduped = dedup_seeds(seeds);
        let d = deduped.len();
        let lo = (self.index - 1) * d / self.count;
        let hi = self.index * d / self.count;
        deduped[lo..hi].to_vec()
    }

    /// The shard coordinates to pin in the journal header, computed
    /// from the seeds [`plan`](Self::plan) assigned.
    pub fn info(&self, assigned: &[u64]) -> ShardInfo {
        ShardInfo {
            index: self.index,
            count: self.count,
            seed_first: assigned.first().copied().unwrap_or(0),
            seed_last: assigned.last().copied().unwrap_or(0),
            seed_count: assigned.len(),
            seeds_fp: seeds_fingerprint(assigned),
        }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Deduplicates a seed list preserving first occurrence — the order the
/// campaign journals records in.
pub fn dedup_seeds(seeds: &[u64]) -> Vec<u64> {
    let mut seen = std::collections::BTreeSet::new();
    seeds.iter().copied().filter(|s| seen.insert(*s)).collect()
}

/// Stable hex fingerprint of a seed sequence (length plus every seed,
/// in order) — what a shard header pins so `merge` can verify a shard
/// file covers exactly the seeds the plan assigned it.
pub fn seeds_fingerprint(seeds: &[u64]) -> String {
    let mut h = StableHasher::new();
    h.write_u64(seeds.len() as u64);
    for &s in seeds {
        h.write_u64(s);
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_specs() {
        assert_eq!(
            ShardSpec::parse("1/1").unwrap(),
            ShardSpec { index: 1, count: 1 }
        );
        assert_eq!(
            ShardSpec::parse("2/8").unwrap(),
            ShardSpec { index: 2, count: 8 }
        );
        assert_eq!(
            ShardSpec::parse("8/8").unwrap(),
            ShardSpec { index: 8, count: 8 }
        );
    }

    #[test]
    fn parse_rejects_malformed_and_out_of_range() {
        for bad in ["", "3", "/", "2/", "/3", "a/b", "1/0", "0/4", "5/4", "-1/4"] {
            let err = ShardSpec::parse(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
        assert!(ShardSpec::parse("0/4").unwrap_err().contains("1-based"));
        assert!(ShardSpec::parse("5/4").unwrap_err().contains("exceeds"));
        assert!(ShardSpec::parse("1/0").unwrap_err().contains("at least 1"));
    }

    #[test]
    fn plan_partitions_the_dedup_space() {
        let seeds: Vec<u64> = (0..10).chain(3..6).collect(); // dups at the end
        let spec = |i| ShardSpec { index: i, count: 3 };
        let chunks: Vec<Vec<u64>> = (1..=3).map(|i| spec(i).plan(&seeds)).collect();
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        assert_eq!(
            all,
            (0..10).collect::<Vec<u64>>(),
            "chunks cover dedup list in order"
        );
        // Balanced: sizes differ by at most one.
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert!(
            sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1,
            "{sizes:?}"
        );
    }

    #[test]
    fn more_shards_than_seeds_yields_empty_chunks() {
        let seeds = [7u64, 8];
        let plans: Vec<Vec<u64>> = (1..=4)
            .map(|i| ShardSpec { index: i, count: 4 }.plan(&seeds))
            .collect();
        let all: Vec<u64> = plans.iter().flatten().copied().collect();
        assert_eq!(all, vec![7, 8]);
        assert!(plans.iter().any(Vec::is_empty));
    }

    #[test]
    fn info_pins_the_assigned_slice() {
        let spec = ShardSpec { index: 2, count: 2 };
        let assigned = spec.plan(&[5, 6, 7, 8]);
        let info = spec.info(&assigned);
        assert_eq!((info.index, info.count), (2, 2));
        assert_eq!(
            (info.seed_first, info.seed_last, info.seed_count),
            (7, 8, 2)
        );
        assert_eq!(info.seeds_fp, seeds_fingerprint(&[7, 8]));
        assert_ne!(
            info.seeds_fp,
            seeds_fingerprint(&[7]),
            "fingerprint sees length"
        );
        assert_ne!(
            info.seeds_fp,
            seeds_fingerprint(&[8, 7]),
            "fingerprint sees order"
        );
    }

    #[test]
    fn single_shard_covers_everything() {
        let seeds = [4u64, 2, 4, 9];
        let plan = ShardSpec { index: 1, count: 1 }.plan(&seeds);
        assert_eq!(plan, vec![4, 2, 9]);
    }
}
