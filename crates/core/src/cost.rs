//! Energy-cost oracles (the arbitrary per-(processor, interval) costs of
//! Definition 2).
//!
//! The paper stresses three generalizations over the classical
//! `α + length` model, each realized here:
//!
//! 1. **Non-identical processors** — [`ProfileCost`](crate::ProfileCost);
//! 2. **Time-varying energy prices / unavailability** — [`TimeVaryingCost`],
//!    [`UnavailableSlots`] (infinite cost ⇒ the candidate is dropped);
//! 3. **Non-affine growth** (e.g. fan cooling) — [`ConvexCost`];
//!
//! plus [`TableCost`] for fully explicit per-interval costs and
//! [`AffineCost`] for the classical restart-cost model used by all prior
//! work (Baptiste 2006, Demaine et al. 2007).

use std::collections::HashMap;

/// Oracle: cost of keeping processor `proc` awake during `[start, end)`.
///
/// `f64::INFINITY` means "this interval may not be used"; candidate
/// generation drops such intervals. Costs of usable intervals must be
/// strictly positive (the greedy ratio rule divides by them).
pub trait EnergyCost: Sync {
    /// Cost of `[start, end)` on `proc`. `start < end` is required.
    fn cost(&self, proc: u32, start: u32, end: u32) -> f64;

    /// Whether a sub-interval never costs more: `cost(p, s, e) ≥
    /// cost(p, s', e')`, compared as `f64`, whenever `[s', e') ⊆ [s, e)`,
    /// with `∞` allowed on either side. False by default.
    ///
    /// A `true` here lets a warm re-solve price one interval per slot
    /// window instead of enumerating the family
    /// ([`ScheduleReduction::build_windows`](crate::ScheduleReduction::build_windows)),
    /// so an oracle that declares it without honouring it gets wrong
    /// schedules, not slow ones.
    fn inclusion_monotone(&self) -> bool {
        false
    }
}

/// Classical model: `restart + rate · (end − start)`, identical processors.
#[derive(Clone, Copy, Debug)]
pub struct AffineCost {
    /// Fixed wake-up cost `α`.
    pub restart: f64,
    /// Energy per awake slot.
    pub rate: f64,
}

impl AffineCost {
    /// Creates the classical model (`rate = 1` recovers the literature's
    /// scaled setting).
    pub fn new(restart: f64, rate: f64) -> Self {
        assert!(restart >= 0.0 && rate >= 0.0);
        assert!(
            restart + rate > 0.0,
            "cost model must charge something for awake intervals"
        );
        Self { restart, rate }
    }
}

impl EnergyCost for AffineCost {
    fn cost(&self, _proc: u32, start: u32, end: u32) -> f64 {
        debug_assert!(start < end);
        self.restart + self.rate * (end - start) as f64
    }

    /// `rate ≥ 0`, and rounding is monotone: a longer interval never
    /// prices lower.
    fn inclusion_monotone(&self) -> bool {
        true
    }
}

/// Time-varying per-slot prices with a restart cost: models energy markets
/// (day/night tariffs) and per-slot unavailability (infinite price).
///
/// Internally both tables live in single arena-backed row-major buffers
/// (CSR offsets per processor) so an interval query is two subtractions and
/// one compare — O(1), no per-row pointer chase, no per-slot scan:
///
/// * `prefix[off_p + t] = Σ_{u<t} price[p][u]` (finite prices only);
/// * `next_blocked[off_p + t]` = the earliest slot `≥ t` with an infinite
///   price (`u32::MAX` when none), so "does `[start, end)` overlap a blocked
///   slot" is just `next_blocked[off_p + start] < end`.
#[derive(Clone, Debug)]
pub struct TimeVaryingCost {
    restart: f64,
    /// Row-major prefix-sum arena; processor `p` occupies
    /// `row_off[p]..row_off[p + 1]` (row length `T_p + 1`).
    prefix: Vec<f64>,
    /// Row-major next-blocked-slot arena, aligned with `prefix`.
    next_blocked: Vec<u32>,
    /// CSR row offsets into the two arenas, one entry per processor plus a
    /// final sentinel.
    row_off: Vec<u32>,
}

impl TimeVaryingCost {
    /// `prices[p][t]` is the cost of keeping processor `p` awake during slot
    /// `t`; `f64::INFINITY` marks the slot unavailable.
    pub fn new(restart: f64, prices: Vec<Vec<f64>>) -> Self {
        assert!(restart >= 0.0);
        let total: usize = prices.iter().map(|r| r.len() + 1).sum();
        let mut prefix = Vec::with_capacity(total);
        let mut next_blocked = Vec::with_capacity(total);
        let mut row_off = Vec::with_capacity(prices.len() + 1);
        row_off.push(0);
        for row in &prices {
            let base = prefix.len();
            let mut acc = 0.0;
            prefix.push(0.0);
            for &p in row {
                assert!(p >= 0.0, "negative price");
                if !p.is_infinite() {
                    acc += p;
                }
                prefix.push(acc);
            }
            // fill next_blocked back-to-front: sentinel past the row end
            next_blocked.resize(base + row.len() + 1, u32::MAX);
            for (t, &p) in row.iter().enumerate().rev() {
                if p.is_infinite() {
                    next_blocked[base + t] = t as u32;
                } else {
                    next_blocked[base + t] = next_blocked[base + t + 1];
                }
            }
            row_off.push(prefix.len() as u32);
        }
        Self {
            restart,
            prefix,
            next_blocked,
            row_off,
        }
    }
}

impl EnergyCost for TimeVaryingCost {
    fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
        debug_assert!(start < end);
        let base = self.row_off[proc as usize] as usize;
        let row_len = self.row_off[proc as usize + 1] as usize - base;
        assert!(
            (end as usize) < row_len,
            "interval [{start},{end}) outside the {}-slot price row of processor {proc}",
            row_len - 1
        );
        if self.next_blocked[base + start as usize] < end {
            return f64::INFINITY;
        }
        self.restart + self.prefix[base + end as usize] - self.prefix[base + start as usize]
    }

    /// A super-interval overlaps every blocked slot its sub-interval does,
    /// and `(restart + P[e]) − P[s]` is monotone in float: the prefix `P`
    /// is non-decreasing, and rounded addition and subtraction are
    /// monotone in each argument.
    fn inclusion_monotone(&self) -> bool {
        true
    }
}

/// Convex growth: `restart + rate·len + quad·len²` — the "fan spins faster
/// the longer the processor stays awake" example from the paper's
/// introduction. Encourages the greedy to prefer several short awake bursts.
#[derive(Clone, Copy, Debug)]
pub struct ConvexCost {
    /// Fixed wake-up cost.
    pub restart: f64,
    /// Linear energy per slot.
    pub rate: f64,
    /// Quadratic coefficient.
    pub quad: f64,
}

impl ConvexCost {
    /// Creates the convex model.
    pub fn new(restart: f64, rate: f64, quad: f64) -> Self {
        assert!(restart >= 0.0 && rate >= 0.0 && quad >= 0.0);
        assert!(restart + rate + quad > 0.0);
        Self {
            restart,
            rate,
            quad,
        }
    }
}

impl EnergyCost for ConvexCost {
    fn cost(&self, _proc: u32, start: u32, end: u32) -> f64 {
        debug_assert!(start < end);
        let len = (end - start) as f64;
        self.restart + self.rate * len + self.quad * len * len
    }

    /// Non-negative coefficients: every term is non-decreasing in the
    /// length, also after rounding.
    fn inclusion_monotone(&self) -> bool {
        true
    }
}

/// Fully explicit per-interval costs (the "costs explicitly given in the
/// input" reading of Definition 2). Missing entries cost `default`.
#[derive(Clone, Debug)]
pub struct TableCost {
    table: HashMap<(u32, u32, u32), f64>,
    default: f64,
}

impl TableCost {
    /// Creates a table with the given fallback for unlisted intervals
    /// (`f64::INFINITY` forbids them).
    pub fn new(entries: impl IntoIterator<Item = ((u32, u32, u32), f64)>, default: f64) -> Self {
        Self {
            table: entries.into_iter().collect(),
            default,
        }
    }
}

impl EnergyCost for TableCost {
    fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
        *self.table.get(&(proc, start, end)).unwrap_or(&self.default)
    }
}

/// Wrapper marking some (processor, slot) pairs unavailable: any interval
/// overlapping one costs `∞` regardless of the inner model.
///
/// Like [`TimeVaryingCost`], the blocked structure is a flat row-major
/// `next_blocked` arena: the overlap test is one O(1) lookup instead of a
/// per-query binary search over a sorted slot list. Each processor's row
/// only extends to its last blocked slot; queries past the row end trivially
/// see no blocked slot.
#[derive(Clone, Debug)]
pub struct UnavailableSlots<C> {
    inner: C,
    /// Row-major "earliest blocked slot ≥ t" arena; processor `p` occupies
    /// `row_off[p]..row_off[p + 1]`.
    next_blocked: Vec<u32>,
    /// CSR row offsets, one per processor plus a final sentinel.
    row_off: Vec<u32>,
}

impl<C: EnergyCost> UnavailableSlots<C> {
    /// Wraps `inner`, blocking the given (proc, slot) pairs.
    pub fn new(inner: C, num_processors: u32, blocked_pairs: &[(u32, u32)]) -> Self {
        let mut blocked = vec![Vec::new(); num_processors as usize];
        for &(p, t) in blocked_pairs {
            blocked[p as usize].push(t);
        }
        let mut next_blocked = Vec::new();
        let mut row_off = Vec::with_capacity(num_processors as usize + 1);
        row_off.push(0);
        for b in blocked.iter_mut() {
            b.sort_unstable();
            b.dedup();
            // row spans 0..=max blocked slot; next_blocked walks backwards
            if let Some(&max) = b.last() {
                let base = next_blocked.len();
                next_blocked.resize(base + max as usize + 1, u32::MAX);
                let mut next = u32::MAX;
                let mut it = b.iter().rev().peekable();
                for t in (0..=max).rev() {
                    if it.peek() == Some(&&t) {
                        next = t;
                        it.next();
                    }
                    next_blocked[base + t as usize] = next;
                }
            }
            row_off.push(next_blocked.len() as u32);
        }
        Self {
            inner,
            next_blocked,
            row_off,
        }
    }
}

impl<C: EnergyCost> EnergyCost for UnavailableSlots<C> {
    fn cost(&self, proc: u32, start: u32, end: u32) -> f64 {
        let base = self.row_off[proc as usize] as usize;
        let row_len = self.row_off[proc as usize + 1] as usize - base;
        // any blocked slot in [start, end)? O(1): the row's next-blocked
        // pointer at `start` (slots past the row end are never blocked).
        if (start as usize) < row_len && self.next_blocked[base + start as usize] < end {
            return f64::INFINITY;
        }
        self.inner.cost(proc, start, end)
    }

    /// Blocking only raises super-intervals to `∞`, so the wrapper is
    /// monotone exactly when its inner model is.
    fn inclusion_monotone(&self) -> bool {
        self.inner.inclusion_monotone()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn affine() {
        let c = AffineCost::new(3.0, 1.0);
        assert_eq!(c.cost(0, 2, 5), 6.0);
        assert_eq!(c.cost(7, 0, 1), 4.0);
    }

    #[test]
    fn per_processor() {
        use crate::profile::{PowerProfile, ProfileCost};
        let c = ProfileCost::new(&[
            PowerProfile::affine(1.0, 1.0),
            PowerProfile::affine(5.0, 0.5),
        ]);
        assert_eq!(c.cost(0, 0, 2), 3.0);
        assert_eq!(c.cost(1, 0, 2), 6.0);
    }

    #[test]
    fn time_varying_prefix_sums() {
        let c = TimeVaryingCost::new(2.0, vec![vec![1.0, 10.0, 1.0, 1.0]]);
        assert_eq!(c.cost(0, 0, 1), 3.0);
        assert_eq!(c.cost(0, 0, 4), 15.0);
        assert_eq!(c.cost(0, 2, 4), 4.0);
    }

    #[test]
    fn time_varying_infinite_slot_blocks() {
        let c = TimeVaryingCost::new(0.5, vec![vec![1.0, f64::INFINITY, 1.0]]);
        assert_eq!(c.cost(0, 0, 1), 1.5);
        assert!(c.cost(0, 0, 2).is_infinite());
        assert!(c.cost(0, 1, 2).is_infinite());
        assert_eq!(c.cost(0, 2, 3), 1.5);
    }

    #[test]
    fn time_varying_ragged_rows_stay_independent() {
        // rows of different lengths share one arena; offsets must not bleed
        let c = TimeVaryingCost::new(
            1.0,
            vec![vec![1.0, 2.0], vec![5.0, f64::INFINITY, 7.0, 9.0]],
        );
        assert_eq!(c.cost(0, 0, 2), 4.0);
        assert_eq!(c.cost(1, 0, 1), 6.0);
        assert!(c.cost(1, 0, 2).is_infinite());
        assert!(c.cost(1, 1, 3).is_infinite());
        assert_eq!(c.cost(1, 2, 4), 17.0);
    }

    #[test]
    fn convex_superlinear() {
        let c = ConvexCost::new(1.0, 1.0, 0.5);
        assert_eq!(c.cost(0, 0, 1), 2.5);
        assert_eq!(c.cost(0, 0, 2), 5.0);
        // two length-1 intervals (5.0) beat one length-2 + gap? depends; just
        // verify super-linearity:
        assert!(c.cost(0, 0, 4) > 2.0 * c.cost(0, 0, 2));
    }

    #[test]
    fn table_and_default() {
        let c = TableCost::new([((0, 0, 3), 7.0)], f64::INFINITY);
        assert_eq!(c.cost(0, 0, 3), 7.0);
        assert!(c.cost(0, 0, 2).is_infinite());
    }

    #[test]
    fn monotone_declarations() {
        let table = || TableCost::new([((0, 0, 1), 9.0)], 1.0);
        assert!(!table().inclusion_monotone(), "a table is arbitrary");
        assert!(!UnavailableSlots::new(table(), 1, &[(0, 2)]).inclusion_monotone());
        let affine = AffineCost::new(1.0, 0.0);
        assert!(UnavailableSlots::new(affine, 1, &[(0, 2)]).inclusion_monotone());
    }

    /// Parameter values the monotonicity proptests draw from: zero, small
    /// and large ones, and a restart so large that adding a few slots'
    /// rate rounds away.
    const PARAMS: [f64; 6] = [0.0, 0.25, 1.0, 3.7, 1e17, 1e-300];

    /// Four cut points on a 16-slot row.
    fn cuts() -> impl Strategy<Value = (u32, u32, u32, u32)> {
        (0u32..=16, 0u32..=16, 0u32..=16, 0u32..=16)
    }

    /// Asserts that `cost` declares inclusion-monotonicity and that, with
    /// `cuts` sorted into `s ≤ s2 < e2 ≤ e`, `[s, e)` on `proc` costs at
    /// least its sub-interval `[s2, e2)`.
    fn assert_nested_monotone(
        cost: &dyn EnergyCost,
        proc: u32,
        cuts: (u32, u32, u32, u32),
    ) -> Result<(), TestCaseError> {
        let mut v = [cuts.0, cuts.1, cuts.2, cuts.3];
        v.sort_unstable();
        let [s, s2, e2, e] = v;
        prop_assume!(s2 < e2);
        prop_assert!(cost.inclusion_monotone());
        let (outer, inner) = (cost.cost(proc, s, e), cost.cost(proc, s2, e2));
        prop_assert!(
            outer >= inner,
            "[{s},{e}) costs {outer}, below its sub-interval [{s2},{e2}) at {inner}"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn affine_sub_intervals_never_cost_more(r in 0usize..6, q in 0usize..6, cuts in cuts()) {
            prop_assume!(PARAMS[r] + PARAMS[q] > 0.0);
            assert_nested_monotone(&AffineCost::new(PARAMS[r], PARAMS[q]), 0, cuts)?;
        }

        #[test]
        fn profile_sub_intervals_never_cost_more(
            w in (0usize..6, 0usize..6),
            b in (0usize..6, 0usize..6),
            proc in 0u32..2,
            cuts in cuts(),
        ) {
            use crate::profile::{PowerProfile, ProfileCost};
            let fleet = [(w.0, b.0), (w.1, b.1)].map(|(w, b)| (PARAMS[w], PARAMS[b]));
            prop_assume!(fleet.iter().all(|&(w, b)| w + b > 0.0));
            let cost = ProfileCost::new(&fleet.map(|(w, b)| PowerProfile::affine(w, b)));
            assert_nested_monotone(&cost, proc, cuts)?;
        }

        #[test]
        fn convex_sub_intervals_never_cost_more(
            r in 0usize..6,
            q in 0usize..6,
            c in 0usize..6,
            cuts in cuts(),
        ) {
            prop_assume!(PARAMS[r] + PARAMS[q] + PARAMS[c] > 0.0);
            assert_nested_monotone(&ConvexCost::new(PARAMS[r], PARAMS[q], PARAMS[c]), 0, cuts)?;
        }

        #[test]
        fn time_varying_sub_intervals_never_cost_more(
            restart in 0usize..6,
            prices in proptest::collection::vec(0usize..8, 16),
            cuts in cuts(),
        ) {
            // indices past PARAMS block the slot
            let row = prices
                .iter()
                .map(|&k| PARAMS.get(k).copied().unwrap_or(f64::INFINITY))
                .collect();
            assert_nested_monotone(&TimeVaryingCost::new(PARAMS[restart], vec![row]), 0, cuts)?;
        }

        #[test]
        fn unavailable_sub_intervals_never_cost_more(
            r in 0usize..6,
            q in 0usize..6,
            blocked in proptest::collection::vec(0u32..16, 0..4),
            cuts in cuts(),
        ) {
            prop_assume!(PARAMS[r] + PARAMS[q] > 0.0);
            let blocked: Vec<(u32, u32)> = blocked.into_iter().map(|t| (0, t)).collect();
            let cost = UnavailableSlots::new(AffineCost::new(PARAMS[r], PARAMS[q]), 1, &blocked);
            assert_nested_monotone(&cost, 0, cuts)?;
        }
    }

    #[test]
    fn unavailable_slots_block_overlapping() {
        let c = UnavailableSlots::new(AffineCost::new(1.0, 1.0), 2, &[(0, 2), (1, 0)]);
        assert!(c.cost(0, 0, 3).is_infinite());
        assert!(c.cost(0, 2, 3).is_infinite());
        assert_eq!(c.cost(0, 0, 2), 3.0);
        assert_eq!(c.cost(0, 3, 5), 3.0);
        assert!(c.cost(1, 0, 1).is_infinite());
        assert_eq!(c.cost(1, 1, 2), 2.0);
    }
}
