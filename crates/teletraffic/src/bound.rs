//! The per-cut term of the Erlang bound (paper §4, displayed equation).
//!
//! The Erlang bound is a lower bound on the average network blocking that
//! *no* routing scheme — even one allowed to re-pack calls — can beat. For
//! a node cut `S`, pool all capacity crossing the cut in each direction and
//! all traffic that must cross it; the blocking of the pooled Erlang links
//! weights the two directions by their share of total network traffic:
//!
//! ```text
//!   T(S→S̄)/T_total · B(T(S→S̄), C(S→S̄))  +  T(S̄→S)/T_total · B(T(S̄→S), C(S̄→S))
//! ```
//!
//! The bound is the maximum of this expression over all cuts; the cut
//! enumeration itself lives with the graph code
//! (`altroute-netgraph::cuts`), this module computes the per-cut value
//! ([`cut_bound`]) and the cheap test that lets the enumeration skip most
//! cuts without changing its result ([`cut_may_exceed`]).

use crate::erlang::erlang_b;

/// Ceiling on the running sum of [`erlang_b_upper_bound`]'s series: far
/// below `f64::MAX`, so neither the sum nor a term can overflow, and its
/// reciprocal stays a normal number.
const SERIES_CEILING: f64 = 1e300;

/// Traffic and pooled capacity crossing a node cut, per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutLoad {
    /// Total traffic (Erlangs) from inside the cut to outside.
    pub traffic_out: f64,
    /// Pooled capacity (circuits) of links from inside to outside.
    pub capacity_out: u32,
    /// Total traffic from outside the cut to inside.
    pub traffic_in: f64,
    /// Pooled capacity of links from outside to inside.
    pub capacity_in: u32,
}

/// The Erlang-bound contribution of one cut, given total network traffic.
///
/// Returns 0 when `total_traffic` is 0. If a direction carries traffic but
/// has zero pooled capacity, its Erlang blocking is 1 (all of it is lost),
/// which the formula handles naturally via `B(a, 0) = 1`.
///
/// # Panics
///
/// Panics if any traffic value is negative/non-finite, or if
/// `total_traffic` is smaller than the cut's own crossing traffic (up to
/// rounding).
pub fn cut_bound(cut: CutLoad, total_traffic: f64) -> f64 {
    if !has_traffic(cut, total_traffic) {
        return 0.0;
    }
    weigh(
        cut,
        total_traffic,
        erlang_b(cut.traffic_out, cut.capacity_out),
        erlang_b(cut.traffic_in, cut.capacity_in),
    )
}

/// Whether [`cut_bound`]`(cut, total_traffic)` may exceed `incumbent`.
///
/// `false` is a proof that `cut_bound` would return a value `≤ incumbent`
/// — bit for bit, as computed, not just in exact arithmetic — so a
/// maximisation over cuts that keeps the first strict improvement can skip
/// the cut without changing its result. `true` means the test could not
/// rule it out.
///
/// Each direction's `B` is replaced by `erlang_b_upper_bound`, which
/// is at least the value [`erlang_b`] computes. Both functions then
/// evaluate the same expression (`weigh`), and IEEE rounding is
/// monotone, so the bound computed here is at least the one `cut_bound`
/// computes. The directions share the incumbent: each aims for
/// `B ≤ incumbent / (w_out + w_in)` with `w = T/T_total`, and whatever the
/// outbound direction leaves unused goes to the inbound one. A direction
/// the series cannot settle costs one exact Erlang-B recurrence.
///
/// # Panics
///
/// As [`cut_bound`].
pub fn cut_may_exceed(cut: CutLoad, total_traffic: f64, incumbent: f64) -> bool {
    if !has_traffic(cut, total_traffic) {
        return 0.0 > incumbent;
    }
    let w_out = cut.traffic_out / total_traffic;
    let w_in = cut.traffic_in / total_traffic;
    let b_out = erlang_b_upper_bound(
        cut.traffic_out,
        cut.capacity_out,
        incumbent / (w_out + w_in),
    );
    let b_in = erlang_b_upper_bound(
        cut.traffic_in,
        cut.capacity_in,
        (incumbent - w_out * b_out) / w_in,
    );
    weigh(cut, total_traffic, b_out, b_in) > incumbent
}

/// Checks the inputs of [`cut_bound`] and [`cut_may_exceed`]; `false`
/// when the network carries no traffic at all.
fn has_traffic(cut: CutLoad, total_traffic: f64) -> bool {
    assert!(
        cut.traffic_out.is_finite() && cut.traffic_out >= 0.0,
        "invalid outbound traffic"
    );
    assert!(
        cut.traffic_in.is_finite() && cut.traffic_in >= 0.0,
        "invalid inbound traffic"
    );
    assert!(
        total_traffic.is_finite() && total_traffic >= 0.0,
        "invalid total traffic"
    );
    if total_traffic == 0.0 {
        return false;
    }
    assert!(
        cut.traffic_out + cut.traffic_in <= total_traffic * (1.0 + 1e-9),
        "cut traffic exceeds network total"
    );
    true
}

/// `T_out/T · b_out + T_in/T · b_in`: the one expression behind both
/// [`cut_bound`] and [`cut_may_exceed`]. Every operation in it rounds
/// monotonically, so larger `b`s never give a smaller result. A
/// direction with no traffic has weight 0 and adds exactly 0.
fn weigh(cut: CutLoad, total_traffic: f64, b_out: f64, b_in: f64) -> f64 {
    cut.traffic_out / total_traffic * b_out + cut.traffic_in / total_traffic * b_in
}

/// An upper bound on [`erlang_b`]`(a, capacity)` as computed, which is at
/// most `target` whenever a prefix of the series below proves that.
///
/// **Series.** Jagerman's inverse recursion unrolls to
/// `1/B(a, C) = Σ_{j=0..C} t_j` with `t_0 = 1` and
/// `t_j = t_{j−1}·(C−j+1)/a`. Every term is positive, so each prefix sum
/// `S_m` gives `B(a, C) ≤ 1/S_m`. The terms are added in order until
/// `slack/S_m ≤ target`, which is then returned. If the sum would pass
/// `SERIES_CEILING` (1e300) first, `slack/S_m` is returned as it stands:
/// never 0, and no term or sum has overflowed. If the series runs to
/// `j = C`, or its terms fall below `ε·S_m`, without reaching `target`,
/// the function returns `erlang_b(a, capacity)` itself, so a cut that
/// must be evaluated gets its exact value.
///
/// **Rounding margin.** With unit roundoff `u = 2⁻⁵³`:
/// - each `t_j` takes `2j` roundings and the running sum `m` more, so the
///   computed `S_m` is at most `S_m·(1+u)^{3m}`;
/// - the forward recurrence in `erlang_b` rounds three times per step and
///   never amplifies an earlier error (it scales it by `k/(k + a·b) ≤ 1`),
///   so its result is at most `B·(1 + 3Cu)` to first order.
///
/// Since `m ≤ C`, `slack = 1 + 4ε(C+2) = 1 + 8u(C+2)` exceeds the
/// combined `(6C+3)u` of these, the division and `slack`'s own rounding,
/// with `(2C+13)u` to spare for second-order terms. That holds for every
/// `u32` capacity, as `6Cu < 3·10⁻⁶` there. Terms that underflow lose at
/// most `2⁻¹⁰⁷⁴` each against a sum of at least 1. The result is capped at
/// 1, which `erlang_b` never exceeds.
///
/// `a == 0` and `capacity == 0` are answered exactly by `erlang_b`.
fn erlang_b_upper_bound(a: f64, capacity: u32, target: f64) -> f64 {
    if a == 0.0 || capacity == 0 {
        return erlang_b(a, capacity);
    }
    if target >= 1.0 {
        return 1.0;
    }
    let slack = 1.0 + 4.0 * f64::EPSILON * (f64::from(capacity) + 2.0);
    let mut term = 1.0_f64;
    let mut sum = 1.0_f64;
    for k in (1..=capacity).rev() {
        term *= f64::from(k) / a;
        if term < sum * f64::EPSILON {
            // The terms now shrink faster than the sum can notice.
            break;
        }
        let next = sum + term;
        if next >= SERIES_CEILING {
            return (slack / sum).min(1.0);
        }
        sum = next;
        let bound = slack / sum;
        if bound <= target {
            return bound;
        }
    }
    erlang_b(a, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_cut_reduces_to_weighted_erlang_b() {
        let cut = CutLoad {
            traffic_out: 90.0,
            capacity_out: 100,
            traffic_in: 90.0,
            capacity_in: 100,
        };
        let total = 360.0;
        let expect = 2.0 * (90.0 / 360.0) * erlang_b(90.0, 100);
        assert!((cut_bound(cut, total) - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_direction_blocks_fully() {
        let cut = CutLoad {
            traffic_out: 10.0,
            capacity_out: 0,
            traffic_in: 0.0,
            capacity_in: 50,
        };
        let total = 20.0;
        assert!((cut_bound(cut, total) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_network_bound_is_zero() {
        let cut = CutLoad {
            traffic_out: 0.0,
            capacity_out: 10,
            traffic_in: 0.0,
            capacity_in: 10,
        };
        assert_eq!(cut_bound(cut, 0.0), 0.0);
    }

    #[test]
    fn bound_grows_with_cut_traffic() {
        let total = 1000.0;
        let mut prev = 0.0;
        for t in [50.0, 100.0, 150.0, 200.0] {
            let cut = CutLoad {
                traffic_out: t,
                capacity_out: 100,
                traffic_in: t,
                capacity_in: 100,
            };
            let b = cut_bound(cut, total);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bound_is_a_probability() {
        let cut = CutLoad {
            traffic_out: 500.0,
            capacity_out: 10,
            traffic_in: 400.0,
            capacity_in: 5,
        };
        let b = cut_bound(cut, 900.0);
        assert!(b > 0.0 && b <= 1.0);
    }

    /// Loads from 1e-3 to 2000 Erlangs, irregular in between.
    const LOADS: [f64; 14] = [
        1e-3, 0.02, 0.3, 1.0, 2.5, 9.0, 37.5, 99.9, 100.0, 250.0, 707.1, 1000.0, 1499.5, 2000.0,
    ];
    /// Capacities from 0 to 2000 circuits.
    const CAPACITIES: [u32; 14] = [0, 1, 2, 3, 7, 10, 50, 99, 100, 101, 500, 1000, 1500, 2000];
    /// Targets: 0, a subnormal, small, moderate, and ≥ 1.
    const TARGETS: [f64; 8] = [0.0, 1e-310, 1e-200, 1e-12, 1e-3, 0.25, 1.0, 3.0];

    #[test]
    fn upper_bound_is_sound_on_the_grid() {
        for a in LOADS {
            for c in CAPACITIES {
                let exact = erlang_b(a, c);
                for target in TARGETS {
                    let ub = erlang_b_upper_bound(a, c, target);
                    assert!(!ub.is_nan(), "NaN at a={a} c={c} target={target}");
                    assert!(
                        ub >= exact,
                        "ub {ub} < B {exact} at a={a} c={c} target={target}"
                    );
                    assert!(ub > 0.0, "ub is 0 at a={a} c={c} target={target}");
                    assert!(ub <= 1.0, "ub {ub} > 1 at a={a} c={c} target={target}");
                }
            }
        }
    }

    #[test]
    fn upper_bound_reaches_every_target_the_exact_value_clears() {
        for a in LOADS {
            for c in CAPACITIES {
                let exact = erlang_b(a, c);
                for target in TARGETS {
                    // Below the ceiling's reciprocal only the exact value
                    // could get there, and the series stops first.
                    if exact <= target && target >= 1e-290 {
                        let ub = erlang_b_upper_bound(a, c, target);
                        assert!(ub <= target, "ub {ub} > {target} at a={a} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn completed_series_agrees_with_erlang_b() {
        for a in LOADS {
            for c in CAPACITIES {
                let exact = erlang_b(a, c);
                // A target of 0 runs the series to its end unless the
                // sum meets the ceiling, i.e. unless B < 1e-300.
                if exact > 1e-290 {
                    let ub = erlang_b_upper_bound(a, c, 0.0);
                    assert!(
                        (ub - exact).abs() <= 1e-12 * exact,
                        "ub {ub} vs B {exact} at a={a} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_load_is_answered_exactly() {
        for target in TARGETS {
            assert_eq!(erlang_b_upper_bound(0.0, 0, target), 1.0);
            assert_eq!(erlang_b_upper_bound(0.0, 10, target), 0.0);
        }
    }

    #[test]
    fn huge_capacities_stay_finite_and_sound() {
        for (a, c) in [
            (1e-300, 3),
            (1e-3, u32::MAX),
            (5e9, 1_000_000),
            (1e12, 1000),
        ] {
            for target in TARGETS {
                let ub = erlang_b_upper_bound(a, c, target);
                assert!(ub > 0.0 && ub <= 1.0, "ub {ub} at a={a} c={c}");
            }
        }
        assert!(erlang_b_upper_bound(1e12, 1000, 0.0) >= erlang_b(1e12, 1000));
    }

    /// Cuts from idle to far overloaded, both directions.
    fn sample_cuts() -> Vec<CutLoad> {
        let mut cuts = Vec::new();
        for (t_out, c_out) in [(0.0, 10), (5.0, 0), (40.0, 100), (90.0, 100), (300.0, 100)] {
            for (t_in, c_in) in [(0.0, 0), (1.0, 20), (85.0, 100), (150.0, 120)] {
                cuts.push(CutLoad {
                    traffic_out: t_out,
                    capacity_out: c_out,
                    traffic_in: t_in,
                    capacity_in: c_in,
                });
            }
        }
        cuts
    }

    #[test]
    fn may_exceed_never_rules_out_a_larger_bound() {
        let total = 1000.0;
        for cut in sample_cuts() {
            let exact = cut_bound(cut, total);
            // Just below the cut's own value the test must let it through.
            if exact > 0.0 {
                let below = f64::from_bits(exact.to_bits() - 1);
                assert!(cut_may_exceed(cut, total, below), "{cut:?}");
                assert!(cut_may_exceed(cut, total, 0.0), "{cut:?}");
            }
            // Whatever it answers above the value is allowed; when it says
            // no, the exact value must agree.
            for incumbent in [exact, exact * 1.5, exact + 1e-3, 0.1, 0.5, 1.0] {
                if !cut_may_exceed(cut, total, incumbent) {
                    assert!(exact <= incumbent, "{cut:?} at {incumbent}");
                }
            }
        }
    }

    #[test]
    fn may_exceed_rules_out_a_lightly_loaded_cut() {
        let cut = CutLoad {
            traffic_out: 40.0,
            capacity_out: 100,
            traffic_in: 1.0,
            capacity_in: 20,
        };
        assert!(!cut_may_exceed(cut, 1000.0, 1e-6));
        assert!(!cut_may_exceed(cut, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "cut traffic exceeds network total")]
    fn inconsistent_totals_panic() {
        let cut = CutLoad {
            traffic_out: 10.0,
            capacity_out: 1,
            traffic_in: 10.0,
            capacity_in: 1,
        };
        cut_bound(cut, 5.0);
    }
}
