//! Infeasibility certificates via Hall's theorem.
//!
//! If the schedule-all greedy stalls, some jobs cannot be matched into the
//! currently allowed slots. By Hall's theorem there is then a *deficient* job
//! set `J` with `|N(J) ∩ S| < |J|`. This module extracts such a certificate
//! from the oracle's maximum matching: take any unsaturated job, explore
//! alternating paths (job → slot via any edge into `S`, slot → job via the
//! matching edge); the set of jobs reached is deficient.

use crate::graph::BipartiteGraph;
use crate::oracle::{MatchingOracle, NONE};

/// Returns a Hall violator for the oracle's current slot set `S`: a set of
/// jobs `J` such that the slots of `S` adjacent to `J` number fewer than
/// `|J|`, proving not all jobs in `J` can be simultaneously scheduled.
///
/// Returns `None` when every job is saturated (no violator exists).
pub fn hall_violator(oracle: &MatchingOracle<'_>) -> Option<Vec<u32>> {
    let g: &BipartiteGraph = oracle.graph();
    let start = (0..g.ny()).find(|&y| oracle.matched_slot(y).is_none())?;

    let mut in_j = vec![false; g.ny() as usize];
    let mut slot_seen = vec![false; g.nx() as usize];
    let mut queue = vec![start];
    in_j[start as usize] = true;
    let mut head = 0;
    while head < queue.len() {
        let y = queue[head];
        head += 1;
        for &x in g.adj_y(y) {
            if !oracle.is_allowed(x) || slot_seen[x as usize] {
                continue;
            }
            slot_seen[x as usize] = true;
            let my = oracle
                .matched_job(x)
                .expect("alternating reachability from an unsaturated job visits only matched slots in a maximum matching");
            debug_assert_ne!(my, NONE);
            if !in_j[my as usize] {
                in_j[my as usize] = true;
                queue.push(my);
            }
        }
    }
    Some(queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BipartiteGraph;
    use crate::oracle::MatchingOracle;

    /// |N(J) ∩ S| computed directly.
    fn neighborhood_size(g: &BipartiteGraph, o: &MatchingOracle<'_>, jobs: &[u32]) -> usize {
        let mut seen = vec![false; g.nx() as usize];
        let mut count = 0;
        for &y in jobs {
            for &x in g.adj_y(y) {
                if o.is_allowed(x) && !seen[x as usize] {
                    seen[x as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn no_violator_when_all_matched() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.commit(&[0, 1]);
        assert!(hall_violator(&o).is_none());
    }

    #[test]
    fn two_jobs_one_slot() {
        let g = BipartiteGraph::from_edges(1, 2, &[(0, 0), (0, 1)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.add_slot(0);
        let j = hall_violator(&o).expect("one job must be unsaturated");
        assert_eq!(j.len(), 2, "violator must contain both jobs");
        assert!(neighborhood_size(&g, &o, &j) < j.len());
    }

    #[test]
    fn isolated_job_is_its_own_violator() {
        // job 1 has no edges at all
        let g = BipartiteGraph::from_edges(1, 2, &[(0, 0)]);
        let mut o = MatchingOracle::new_cardinality(&g);
        o.add_slot(0);
        let j = hall_violator(&o).unwrap();
        assert_eq!(j, vec![1]);
        assert_eq!(neighborhood_size(&g, &o, &j), 0);
    }

    #[test]
    fn violator_is_deficient_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut found_any = false;
        for _ in 0..100 {
            let nx = rng.gen_range(1..=6u32);
            let ny = rng.gen_range(1..=8u32);
            let mut e = Vec::new();
            for x in 0..nx {
                for y in 0..ny {
                    if rng.gen_bool(0.3) {
                        e.push((x, y));
                    }
                }
            }
            let g = BipartiteGraph::from_edges(nx, ny, &e);
            let mut o = MatchingOracle::new_cardinality(&g);
            let slots: Vec<u32> = (0..nx).filter(|_| rng.gen_bool(0.6)).collect();
            o.commit(&slots);
            if let Some(j) = hall_violator(&o) {
                found_any = true;
                assert!(
                    neighborhood_size(&g, &o, &j) < j.len(),
                    "certificate is not deficient"
                );
            } else {
                assert_eq!(o.matched_count(), ny as usize);
            }
        }
        assert!(found_any, "test never exercised the violator path");
    }
}
