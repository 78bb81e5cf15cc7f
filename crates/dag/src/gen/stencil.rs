//! Wavefront (stencil) DAG generators — the dependency shape of blocked
//! triangular solves, dynamic programming tables, and Gauss–Seidel
//! sweeps: task `(i, j)` depends on `(i−1, j)` and `(i, j−1)`.
//!
//! Wavefronts are the classic case where parallelism ramps up along
//! anti-diagonals and back down, so both the area and the critical path
//! matter — a good stress shape for the `max(A/P, C)` lower bound.

use super::TaskSampler;
use crate::graph::{Instance, TaskGraph};
use crate::task::TaskId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 2-D wavefront of `rows × cols` tasks: task `(i, j)` waits for its
/// north and west neighbours.
pub fn wavefront_2d(
    seed: u64,
    rows: usize,
    cols: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!(rows >= 1 && cols >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let mut ids = vec![vec![TaskId(0); cols]; rows];
    for (i, row) in ids.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = g.add_task(
                sampler
                    .sample(&mut rng, procs)
                    .with_label(format!("w{i}_{j}")),
            );
        }
    }
    for i in 0..rows {
        for j in 0..cols {
            if i > 0 {
                g.add_edge(ids[i - 1][j], ids[i][j]);
            }
            if j > 0 {
                g.add_edge(ids[i][j - 1], ids[i][j]);
            }
        }
    }
    Instance::new(g, procs)
}

/// A blocked *triangular* wavefront (e.g. a blocked Cholesky-style sweep):
/// only cells with `j ≤ i` exist, same north/west dependencies.
pub fn wavefront_triangular(seed: u64, rows: usize, sampler: &TaskSampler, procs: u32) -> Instance {
    assert!(rows >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = TaskGraph::new();
    let mut ids: Vec<Vec<TaskId>> = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut row = Vec::with_capacity(i + 1);
        for j in 0..=i {
            row.push(
                g.add_task(
                    sampler
                        .sample(&mut rng, procs)
                        .with_label(format!("t{i}_{j}")),
                ),
            );
        }
        ids.push(row);
    }
    for i in 0..rows {
        for j in 0..=i {
            if i > 0 && j < i {
                g.add_edge(ids[i - 1][j], ids[i][j]);
            }
            if j > 0 {
                g.add_edge(ids[i][j - 1], ids[i][j]);
            }
        }
    }
    Instance::new(g, procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{criticalities, depth};
    use crate::gen::{LengthDist, ProcDist};
    use rigid_time::Time;

    fn unit_sampler() -> TaskSampler {
        TaskSampler {
            length: LengthDist::Constant(Time::ONE),
            procs: ProcDist::Constant(1),
        }
    }

    #[test]
    fn wavefront_shape() {
        let inst = wavefront_2d(1, 4, 5, &unit_sampler(), 8);
        assert_eq!(inst.len(), 20);
        // Edges: (rows−1)·cols vertical + rows·(cols−1) horizontal.
        assert_eq!(inst.graph().edge_count(), 3 * 5 + 4 * 4);
        // Depth = rows + cols − 1 for unit tasks.
        assert_eq!(depth(inst.graph()), 8);
        // Exactly one root (0,0) and one sink (rows−1, cols−1).
        assert_eq!(inst.graph().sources().len(), 1);
        assert_eq!(inst.graph().sinks().len(), 1);
    }

    #[test]
    fn wavefront_criticality_is_manhattan_distance() {
        let inst = wavefront_2d(1, 3, 3, &unit_sampler(), 4);
        let g = inst.graph();
        let crit = criticalities(g);
        for i in 0..3 {
            for j in 0..3 {
                let id = g.find_by_label(&format!("w{i}_{j}")).unwrap();
                assert_eq!(
                    crit[id.index()].start,
                    Time::from_int((i + j) as i64),
                    "s∞ of ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn triangular_counts() {
        let inst = wavefront_triangular(1, 5, &unit_sampler(), 4);
        assert_eq!(inst.len(), 15); // 1+2+3+4+5
        assert!(inst.graph().is_acyclic());
        assert_eq!(depth(inst.graph()), 9); // (rows-1) down + (rows-1) right + 1
    }

    #[test]
    fn random_params_still_valid() {
        let inst = wavefront_2d(7, 6, 6, &TaskSampler::default_mix(), 8);
        assert!(inst.graph().is_acyclic());
        for (_, s) in inst.graph().tasks() {
            assert!(s.procs <= 8 && s.time.is_positive());
        }
    }
}
