//! Property-based tests of the analytic kernels.

use altroute_teletraffic::birth_death::BirthDeathChain;
use altroute_teletraffic::erlang::{
    carried_traffic, dimension_link, erlang_b, erlang_b_with_derivative, inverse_erlang_b_log_table,
};
use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};
use altroute_teletraffic::loss::{lost_traffic, lost_traffic_with_derivative};
use altroute_teletraffic::overflow::overflow_moments;
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound};
use altroute_teletraffic::shadow::ShadowPriceTable;
use proptest::prelude::*;

proptest! {
    /// B(a, C) is a probability for all valid inputs.
    #[test]
    fn erlang_b_is_probability(a in 0.0f64..500.0, c in 0u32..400) {
        let b = erlang_b(a, c);
        prop_assert!((0.0..=1.0).contains(&b), "B({a}, {c}) = {b}");
    }

    /// B is non-decreasing in load and non-increasing in capacity.
    #[test]
    fn erlang_b_monotonicity(a in 0.1f64..300.0, delta in 0.1f64..50.0, c in 1u32..300) {
        prop_assert!(erlang_b(a + delta, c) >= erlang_b(a, c) - 1e-12);
        prop_assert!(erlang_b(a, c + 1) <= erlang_b(a, c) + 1e-12);
    }

    /// The inverse log table agrees with the direct recursion.
    #[test]
    fn inverse_table_consistency(a in 0.5f64..200.0, c in 1u32..200) {
        let table = inverse_erlang_b_log_table(a, c);
        let b = erlang_b(a, c);
        let from_table = (-table[c as usize]).exp();
        prop_assert!((b - from_table).abs() < 1e-9 * b.max(1e-12),
            "a={a} c={c}: {b} vs {from_table}");
    }

    /// The derivative is non-negative and matches a finite difference.
    #[test]
    fn derivative_is_consistent(a in 1.0f64..200.0, c in 1u32..200) {
        let (_, db) = erlang_b_with_derivative(a, c);
        prop_assert!(db >= -1e-15);
        let h = 1e-5 * a;
        let fd = (erlang_b(a + h, c) - erlang_b(a - h, c)) / (2.0 * h);
        prop_assert!((db - fd).abs() < 1e-4 * db.abs().max(1e-8), "a={a} c={c}: {db} vs {fd}");
    }

    /// Carried traffic never exceeds capacity or offered load.
    #[test]
    fn carried_traffic_bounds(a in 0.0f64..500.0, c in 0u32..300) {
        let carried = carried_traffic(a, c);
        prop_assert!(carried <= a + 1e-9);
        prop_assert!(carried <= f64::from(c) + 1e-9);
        prop_assert!(carried >= -1e-12);
    }

    /// Dimensioning returns the minimal sufficient capacity.
    #[test]
    fn dimensioning_is_minimal(a in 0.5f64..150.0, target in 0.001f64..0.5) {
        if let Some(c) = dimension_link(a, target, 2000) {
            prop_assert!(erlang_b(a, c) <= target);
            if c > 0 {
                prop_assert!(erlang_b(a, c - 1) > target);
            }
        }
    }

    /// Eq. 15 minimality: r satisfies the inequality (when satisfiable)
    /// and r − 1 violates it.
    #[test]
    fn protection_level_minimality(a in 0.5f64..200.0, c in 2u32..200, h in 2u32..50) {
        let r = protection_level(a, c, h);
        prop_assert!(r <= c);
        let hinv = 1.0 / f64::from(h);
        if r < c {
            prop_assert!(shadow_price_bound(a, c, r) <= hinv + 1e-12);
        }
        if r > 0 && shadow_price_bound(a, c, c) <= hinv {
            // Satisfiable: minimality must hold.
            prop_assert!(shadow_price_bound(a, c, r - 1) > hinv);
        }
    }

    /// The Theorem-1 bound decreases in r and is 1 at r = 0.
    #[test]
    fn shadow_bound_monotone(a in 0.5f64..200.0, c in 2u32..150, r in 1u32..100) {
        let r = r.min(c);
        prop_assert!((shadow_price_bound(a, c, 0) - 1.0).abs() < 1e-12);
        prop_assert!(shadow_price_bound(a, c, r) <= shadow_price_bound(a, c, r - 1) + 1e-12);
    }

    /// Shadow prices are monotone in occupancy and end at exactly 1.
    #[test]
    fn shadow_prices_monotone(a in 0.5f64..200.0, c in 1u32..150) {
        let t = ShadowPriceTable::new(a, c);
        let mut prev = 0.0;
        for s in 0..c {
            let p = t.price(s);
            prop_assert!(p >= prev - 1e-15);
            prop_assert!(p <= 1.0 + 1e-12);
            prev = p;
        }
        prop_assert!((t.price(c - 1) - 1.0).abs() < 1e-9);
        prop_assert!(t.price(c).is_infinite());
    }

    /// Lost traffic is convex: midpoint test on random load pairs.
    #[test]
    fn lost_traffic_convexity(a1 in 0.0f64..300.0, a2 in 0.0f64..300.0, c in 1u32..150) {
        let mid = 0.5 * (a1 + a2);
        let lhs = lost_traffic(mid, c);
        let rhs = 0.5 * (lost_traffic(a1, c) + lost_traffic(a2, c));
        prop_assert!(lhs <= rhs + 1e-9, "convexity violated at ({a1}, {a2}, {c})");
    }

    /// The loss derivative lies in [0, 1]: each extra Erlang loses at
    /// most one call per unit time.
    #[test]
    fn loss_derivative_unit_interval(a in 0.0f64..400.0, c in 0u32..200) {
        let (_, d) = lost_traffic_with_derivative(a, c);
        prop_assert!((-1e-12..=1.0 + 1e-9).contains(&d), "d = {d}");
    }

    /// Stationary distributions are probability vectors, and the Erlang
    /// chain matches Erlang-B.
    #[test]
    fn stationary_is_distribution(a in 0.1f64..300.0, c in 1u32..200) {
        let chain = BirthDeathChain::erlang(a, c);
        let pi = chain.stationary();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
        prop_assert!((chain.time_congestion() - erlang_b(a, c)).abs() < 1e-9);
    }

    /// Protected chains: raising the protection level cannot increase
    /// the probability of being full when overflow traffic is present.
    #[test]
    fn protection_never_raises_time_congestion(
        nu in 10.0f64..90.0,
        over in 5.0f64..60.0,
        r in 0u32..50,
    ) {
        let overflow = vec![over; 100];
        let low = BirthDeathChain::protected_link(nu, &overflow, 100, r);
        let high = BirthDeathChain::protected_link(nu, &overflow, 100, r + 5);
        prop_assert!(high.time_congestion() <= low.time_congestion() + 1e-12);
    }

    /// Kaufman–Roberts blocking probabilities are valid and wider calls
    /// never block less than narrower ones.
    #[test]
    fn kaufman_roberts_ordering(
        a1 in 0.1f64..60.0,
        a2 in 0.0f64..20.0,
        b2 in 2u32..8,
        c in 10u32..120,
    ) {
        let classes = [
            TrafficClass { intensity: a1, bandwidth: 1 },
            TrafficClass { intensity: a2, bandwidth: b2.min(c) },
        ];
        let b = kaufman_roberts_blocking(c, &classes);
        prop_assert!(b.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(b[1] >= b[0] - 1e-12, "wider class must block at least as much");
        // Single-class consistency with Erlang-B.
        let single = kaufman_roberts_blocking(c, &[classes[0]]);
        prop_assert!((single[0] - erlang_b(a1, c)).abs() < 1e-9);
    }

    /// Overflow moments: mean equals lost traffic, peakedness >= 1.
    #[test]
    fn overflow_moment_invariants(a in 0.1f64..300.0, c in 0u32..200) {
        let m = overflow_moments(a, c);
        prop_assert!((m.mean - a * erlang_b(a, c)).abs() < 1e-9);
        prop_assert!(m.peakedness() >= 1.0 - 1e-9, "z = {}", m.peakedness());
        prop_assert!(m.variance >= 0.0);
    }

    /// First-passage counts respect the Theorem-1 chain bound (Eq. 9)
    /// for arbitrary non-increasing overflow profiles.
    #[test]
    fn first_passage_bound_eq9(nu in 5.0f64..80.0, base in 0.0f64..50.0, c in 5u32..80) {
        let overflow: Vec<f64> = (0..c).map(|s| base / (1.0 + f64::from(s))).collect();
        let chain = BirthDeathChain::protected_link(nu, &overflow, c, 0);
        let xs = chain.first_passage_up_counts();
        for (s, &x) in xs.iter().enumerate() {
            // The comparison chain drops the overflow: its X values are
            // the Erlang inverse-blocking-like quantities at rate nu.
            let cap = 1.0 / erlang_b(nu, s as u32 + 1);
            prop_assert!(x <= cap * (1.0 + 1e-9), "s={s}: {x} > {cap}");
            prop_assert!(x >= 1.0 - 1e-12);
        }
    }
}

/// The log-table search that defines [`protection_level`]: the level
/// `protection_level` must reproduce bit for bit, kept here as the oracle
/// of its certified linear-domain search.
fn log_table_level(load: f64, capacity: u32, h: u32) -> u32 {
    if load == 0.0 {
        return 0;
    }
    let log_y = inverse_erlang_b_log_table(load, capacity);
    let log_h = f64::from(h).ln();
    let target = log_y[capacity as usize] - log_h;
    if log_y[capacity as usize] < log_h {
        return capacity;
    }
    let (mut lo, mut hi) = (0u32, capacity);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log_y[(capacity - mid) as usize] <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The hop bounds the differential tests sweep (1 is the degenerate
/// `r = 0` case, 2–11 the paper's, 20 a long-path design).
const DIFFERENTIAL_HOPS: [u32; 6] = [1, 2, 3, 6, 11, 20];

/// A seeded uniform draw in `[0, 1)` (splitmix64).
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn protection_level_matches_log_table_on_random_loads() {
    let mut state = 15;
    for c in 1..=2000u32 {
        let cf = f64::from(c);
        // Light, near-capacity and overloaded links, plus one load drawn
        // over twelve decades.
        let loads = [
            unit(&mut state) * cf,
            cf * (0.8 + 0.4 * unit(&mut state)),
            cf * (1.0 + 3.0 * unit(&mut state)),
            10f64.powf(12.0 * unit(&mut state) - 6.0),
        ];
        for load in loads {
            for h in DIFFERENTIAL_HOPS {
                assert_eq!(
                    protection_level(load, c, h),
                    log_table_level(load, c, h),
                    "load={load:e} C={c} H={h}"
                );
            }
        }
    }
}

/// The adjacent floats `(below, above)` between which the oracle level
/// first reaches `r`, by bisection on the bit patterns of positive loads
/// (ordered like the loads themselves).
fn threshold(capacity: u32, h: u32, r: u32) -> (f64, f64) {
    let (mut lo, mut hi) = (1e-300f64.to_bits(), 1e300f64.to_bits());
    assert!(log_table_level(f64::from_bits(lo), capacity, h) < r);
    assert!(log_table_level(f64::from_bits(hi), capacity, h) >= r);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if log_table_level(f64::from_bits(mid), capacity, h) < r {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (f64::from_bits(lo), f64::from_bits(hi))
}

/// Loads one float apart on either side of every level threshold: where
/// the exact ratio sits on `1/H`, and the two searches' roundings differ.
/// Only a sufficient rounding margin keeps the linear search on the
/// log table's side of each of them.
#[test]
fn protection_level_matches_log_table_at_every_threshold() {
    let mut thresholds = 0;
    for c in [2u32, 3, 5, 8, 13, 20, 34, 55, 100, 400, 2000] {
        // Every threshold up to C = 100; a spread of them beyond.
        let step = (c / 100).max(1) * if c > 100 { 25 } else { 1 };
        for h in DIFFERENTIAL_HOPS.into_iter().filter(|&h| h > 1) {
            // Any positive load needs r >= 1, so thresholds start at 2.
            for r in (2..=c).step_by(step as usize).chain([c]).filter(|&r| r > 1) {
                let (below, above) = threshold(c, h, r);
                for load in [below.next_down(), below, above, above.next_up()] {
                    assert_eq!(
                        protection_level(load, c, h),
                        log_table_level(load, c, h),
                        "load={load:e} C={c} H={h} (threshold r={r})"
                    );
                }
                thresholds += 1;
            }
        }
    }
    assert!(thresholds > 1000, "{thresholds} thresholds checked");
}
