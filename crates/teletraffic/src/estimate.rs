//! From measured per-pair rates to per-link `Λ^k` and fresh Eq.-15 levels.
//!
//! The paper computes the protection level `r^k` of Eq. 15 once, from the
//! *engineered* per-link primary loads `Λ^k`. A live controller instead
//! estimates per-pair offered loads from an arrival stream and must map
//! them back onto links before it can re-solve Eq. 15. That mapping is
//! linear: each pair's offered Erlangs land on every link of its primary
//! path (assumption A1 — offered streams are Poisson and independent), so
//!
//! `Λ^k = Σ_{pairs p : k ∈ primary(p)} a_p`
//!
//! where `a_p` is pair `p`'s estimated offered load in Erlangs. This
//! module provides that incidence sum and the vectorized Eq.-15 re-solve
//! over all links, deterministic and allocation-predictable so the
//! control loop can be golden-tested end to end.

use crate::reservation::protection_level;

/// Accumulates per-pair offered-load estimates onto per-link primary
/// loads `Λ^k`.
///
/// `pair_links[p]` lists the link ids of pair `p`'s primary path (empty
/// for pairs with no demand or no path — e.g. the diagonal of a dense
/// `n*n` pair indexing), and `offered[p]` is the pair's estimated
/// offered load in Erlangs. Pairs and links may use any indexing as long
/// as the two arguments agree; link ids must be `< num_links`.
///
/// # Panics
///
/// Panics if `pair_links` and `offered` disagree in length, if any link
/// id is out of range, or if any offered load is negative or non-finite.
pub fn offered_link_loads(
    pair_links: &[Vec<usize>],
    offered: &[f64],
    num_links: usize,
) -> Vec<f64> {
    let mut loads = vec![0.0; num_links];
    offered_link_loads_into(pair_links, offered, &mut loads);
    loads
}

/// [`offered_link_loads`] into a caller-owned buffer, one entry per link
/// (`loads.len()` is the link count), so a controller re-solving every
/// window reuses one allocation. Overwrites every entry.
///
/// # Panics
///
/// As [`offered_link_loads`].
pub fn offered_link_loads_into(pair_links: &[Vec<usize>], offered: &[f64], loads: &mut [f64]) {
    assert_eq!(
        pair_links.len(),
        offered.len(),
        "one offered-load estimate per pair"
    );
    let num_links = loads.len();
    loads.fill(0.0);
    for (links, &a) in pair_links.iter().zip(offered) {
        assert!(
            a >= 0.0 && a.is_finite(),
            "offered load must be finite and non-negative, got {a}"
        );
        for &k in links {
            assert!(k < num_links, "link id {k} out of range (< {num_links})");
            loads[k] += a;
        }
    }
}

/// Re-solves Eq. 15 for every link: `levels[k] = r^k(loads[k],
/// capacities[k], H)`.
///
/// Zero-capacity links get level 0 (nothing to protect — such links
/// carry no calls at all), rather than inheriting
/// [`protection_level`]'s panic; a measured-load controller must not
/// die on a degenerate link.
///
/// # Panics
///
/// Panics if `loads` and `capacities` disagree in length, or on the
/// [`protection_level`] domain violations (negative/non-finite load,
/// `max_alternate_hops == 0`).
pub fn protection_levels_for(
    loads: &[f64],
    capacities: &[u32],
    max_alternate_hops: u32,
) -> Vec<u32> {
    assert_eq!(
        loads.len(),
        capacities.len(),
        "one capacity per estimated link load"
    );
    loads
        .iter()
        .zip(capacities)
        .map(|(&lambda, &c)| {
            if c == 0 {
                0
            } else {
                protection_level(lambda, c, max_alternate_hops)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incidence_sum_matches_hand_computation() {
        // Three pairs over four links: pair 0 -> links {0, 1},
        // pair 1 -> link {1}, pair 2 -> no primary (no demand).
        let pair_links = vec![vec![0, 1], vec![1], vec![]];
        let offered = vec![10.0, 5.0, 99.0];
        let loads = offered_link_loads(&pair_links, &offered, 4);
        assert_eq!(loads, vec![10.0, 15.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_rates_give_zero_loads_and_zero_levels() {
        let pair_links = vec![vec![0], vec![1]];
        let loads = offered_link_loads(&pair_links, &[0.0, 0.0], 2);
        assert_eq!(loads, vec![0.0, 0.0]);
        assert_eq!(protection_levels_for(&loads, &[10, 10], 2), vec![0, 0]);
    }

    #[test]
    fn levels_match_scalar_solver_per_link() {
        let loads = [74.0, 90.0, 0.0, 250.0];
        let caps = [100, 100, 100, 100];
        let levels = protection_levels_for(&loads, &caps, 6);
        for (i, (&l, &c)) in loads.iter().zip(&caps).enumerate() {
            assert_eq!(levels[i], protection_level(l, c, 6));
        }
        assert_eq!(levels[0], 7); // Table 1, link 0->1
        assert_eq!(levels[3], 100); // overload clamps to capacity
    }

    #[test]
    fn zero_capacity_links_are_skipped_not_fatal() {
        assert_eq!(protection_levels_for(&[50.0], &[0], 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "one offered-load estimate per pair")]
    fn mismatched_pairs_panic() {
        offered_link_loads(&[vec![0]], &[1.0, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        offered_link_loads(&[vec![3]], &[1.0], 2);
    }
}
