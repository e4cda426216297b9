//! Pareto-front utilities over N-dimensional objective vectors.
//!
//! Every function here comes in two forms: a `*_in` variant parameterized by
//! an [`ObjectiveSpace`] (the ordered axes selection operates over) and a
//! classic wrapper fixed to the paper's `(accuracy ↑, area ↓)` space. The
//! wrappers are not approximations — the generic code compares **raw measured
//! values** with per-axis direction, so the classic space performs bit-for-bit
//! the comparisons this module always performed.
//!
//! All orderings in this module are **NaN-safe**: a degenerate evaluation
//! whose objectives contain NaN never panics a search — it simply ranks
//! worst (excluded from fronts, last Pareto rank, zero crowding distance,
//! skipped by the hypervolume indicator).

use crate::objective::{DesignMetrics, DesignPoint, ObjectiveKind, ObjectiveSpace};
use std::cmp::Ordering;

/// Descending order with NaN last: larger values first, NaN after everything
/// (used for crowding distances, where NaN must never look "isolated").
pub(crate) fn descending_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// `true` when `a` dominates `b` in the classic `(accuracy ↑, area ↓)` space:
/// at least as good in both objectives and strictly better in at least one.
///
/// A point with a NaN objective never dominates anything, and any well-formed
/// point dominates a NaN point. See [`ObjectiveSpace::dominates`] for the
/// N-dimensional form.
pub fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    ObjectiveSpace::classic().dominates(a, b)
}

/// The axis [`pareto_front_in`] sorts (and deduplicates) a front along: the
/// first minimized objective when the space has one (classic: area),
/// otherwise the first axis.
fn sort_axis(space: &ObjectiveSpace) -> ObjectiveKind {
    space
        .objectives
        .iter()
        .copied()
        .find(|kind| !kind.maximize_raw())
        .unwrap_or(space.objectives[0])
}

/// Extracts the Pareto front (non-dominated set) of `points` in `space`,
/// sorted by increasing value of the first minimized axis (classic: area).
/// Points with NaN objectives are never part of the front.
pub fn pareto_front_in(space: &ObjectiveSpace, points: &[DesignPoint]) -> Vec<DesignPoint> {
    let axis = sort_axis(space);
    let mut front: Vec<DesignPoint> = points
        .iter()
        .filter(|p| !space.has_nan(p) && !points.iter().any(|q| space.dominates(q, p)))
        .cloned()
        .collect();
    front.sort_by(|a, b| axis.raw_value(a).total_cmp(&axis.raw_value(b)));
    // Remove exact duplicates (same config evaluated twice).
    front.dedup_by(|a, b| a.config == b.config && axis.raw_value(a) == axis.raw_value(b));
    front
}

/// Classic-space [`pareto_front_in`]: the non-dominated set under
/// `(accuracy ↑, area ↓)`, sorted by increasing area.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    pareto_front_in(&ObjectiveSpace::classic(), points)
}

/// Non-dominated sorting in `space`: partitions `points` into Pareto ranks
/// (rank 0 = the Pareto front, rank 1 = the front of the remainder, ...).
/// Returns the rank of every input point. Used by NSGA-II.
///
/// Points with NaN objectives are kept out of the well-formed ranking and all
/// share the worst rank, so a single degenerate evaluation can never displace
/// a real design.
pub fn non_dominated_ranks_in(space: &ObjectiveSpace, points: &[DesignPoint]) -> Vec<usize> {
    let n = points.len();
    let clean: Vec<usize> = (0..n).filter(|&i| !space.has_nan(&points[i])).collect();
    let m = clean.len();
    let mut dominated_by_count = vec![0usize; m];
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); m];
    for a in 0..m {
        for b in 0..m {
            if a == b {
                continue;
            }
            if space.dominates(&points[clean[a]], &points[clean[b]]) {
                dominates_list[a].push(b);
            } else if space.dominates(&points[clean[b]], &points[clean[a]]) {
                dominated_by_count[a] += 1;
            }
        }
    }
    let mut ranks = vec![usize::MAX; n];
    let mut current: Vec<usize> = (0..m).filter(|&a| dominated_by_count[a] == 0).collect();
    let mut rank = 0usize;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &a in &current {
            ranks[clean[a]] = rank;
            for &b in &dominates_list[a] {
                dominated_by_count[b] -= 1;
                if dominated_by_count[b] == 0 {
                    next.push(b);
                }
            }
        }
        current = next;
        rank += 1;
    }
    // NaN points rank strictly behind every well-formed rank.
    for r in &mut ranks {
        if *r == usize::MAX {
            *r = rank;
        }
    }
    ranks
}

/// Classic-space [`non_dominated_ranks_in`].
pub fn non_dominated_ranks(points: &[DesignPoint]) -> Vec<usize> {
    non_dominated_ranks_in(&ObjectiveSpace::classic(), points)
}

/// Crowding distance of every point within one Pareto rank (larger = more
/// isolated = preferred by NSGA-II for diversity), computed over the raw
/// objective values of `space`. Boundary points get `f64::INFINITY`; when
/// several points tie an objective's extreme value, **all** of them are
/// treated as boundary points and get infinite distance (so equally-extreme
/// designs are never crowded out arbitrarily). Points with NaN objectives get
/// distance `0.0` (least preferred).
pub fn crowding_distances_in(space: &ObjectiveSpace, points: &[DesignPoint]) -> Vec<f64> {
    let n = points.len();
    let mut distance = vec![0.0_f64; n];
    let clean: Vec<usize> = (0..n).filter(|&i| !space.has_nan(&points[i])).collect();
    let m = clean.len();
    if m <= 2 {
        for &i in &clean {
            distance[i] = f64::INFINITY;
        }
        return distance;
    }
    for kind in &space.objectives {
        let value = |p: &DesignPoint| kind.raw_value(p);
        let mut order: Vec<usize> = clean.clone();
        order.sort_by(|&a, &b| value(&points[a]).total_cmp(&value(&points[b])));
        let min_value = value(&points[order[0]]);
        let max_value = value(&points[order[m - 1]]);
        // Every point tying an extreme is a boundary point.
        for &i in &order {
            let v = value(&points[i]);
            if v == min_value || v == max_value {
                distance[i] = f64::INFINITY;
            }
        }
        let range = max_value - min_value;
        if range <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let prev = value(&points[order[w - 1]]);
            let next = value(&points[order[w + 1]]);
            distance[order[w]] += (next - prev) / range;
        }
    }
    distance
}

/// Classic-space [`crowding_distances_in`].
pub fn crowding_distances(points: &[DesignPoint]) -> Vec<f64> {
    crowding_distances_in(&ObjectiveSpace::classic(), points)
}

/// The largest area-reduction factor achievable while losing at most
/// `max_accuracy_loss` (absolute accuracy points — the definition of
/// [`DesignPoint::accuracy_loss`]) relative to `baseline_accuracy` — the
/// paper's headline "Nx area gain for up to 5 % accuracy loss" metric.
/// Returns `None` when no point meets the constraint.
pub fn area_gain_at_accuracy_loss(
    points: &[DesignPoint],
    baseline_accuracy: f64,
    max_accuracy_loss: f64,
) -> Option<f64> {
    points
        .iter()
        .filter(|p| baseline_accuracy - p.accuracy <= max_accuracy_loss)
        .map(|p| p.area_gain())
        .fold(None, |best, gain| match best {
            Some(b) if b >= gain => Some(b),
            _ => Some(gain),
        })
}

/// Normalizes one point onto the baseline-referenced hypervolume axis of
/// `kind`, as a minimization coordinate clamped to `[0, 1]`:
///
/// * [`ObjectiveKind::AccuracyLoss`] → `baseline.accuracy − accuracy`
///   (absolute accuracy points; a total collapse to zero accuracy of a
///   perfect baseline sits at the reference corner),
/// * every hardware axis → `value / baseline value` (the baseline itself sits
///   exactly on the reference corner and contributes zero volume).
///
/// Returns `None` for NaN values or an unusable (non-positive, non-finite)
/// baseline reference.
fn hypervolume_axis(
    kind: ObjectiveKind,
    point: &DesignPoint,
    baseline: &DesignMetrics,
) -> Option<f64> {
    let (value, reference) = match kind {
        ObjectiveKind::AccuracyLoss => (baseline.accuracy - point.accuracy, 1.0),
        ObjectiveKind::Area => (point.area_mm2, baseline.area_mm2),
        ObjectiveKind::Delay => (point.delay_us, baseline.delay_us),
        ObjectiveKind::EnergyPerInference => (point.energy_pj(), baseline.energy_pj),
    };
    if value.is_nan() || reference <= 0.0 || !reference.is_finite() {
        return None;
    }
    Some((value / reference).clamp(0.0, 1.0))
}

/// Volume of the union of boxes `[vᵢ, 1]^d` over coordinates in `[0, 1]` —
/// the region of the normalized objective box dominated by at least one
/// point. Recursive slicing on the first coordinate; exact, and fast enough
/// for the small fronts (≤ a few dozen points) and dimensions (≤ 5) this
/// workspace produces.
fn dominated_box_volume(mut points: Vec<Vec<f64>>, dim: usize) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if dim == 1 {
        let min = points.iter().map(|p| p[0]).fold(1.0_f64, f64::min);
        return 1.0 - min;
    }
    points.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let mut total = 0.0;
    for i in 0..points.len() {
        let slab_start = points[i][0];
        let slab_end = points.get(i + 1).map(|p| p[0]).unwrap_or(1.0);
        if slab_end <= slab_start {
            continue;
        }
        // Points with a first coordinate ≤ slab_start cover this slab; their
        // cross-sections union in one fewer dimension.
        let projected: Vec<Vec<f64>> = points[..=i].iter().map(|p| p[1..].to_vec()).collect();
        total += (slab_end - slab_start) * dominated_box_volume(projected, dim - 1);
    }
    total
}

/// Baseline-referenced hypervolume indicator of `points` in `space`, in
/// `[0, 1]`.
///
/// Every axis is normalized onto the baseline (see the per-axis rules on the
/// internal normalization) and the reference point is the corner `1.0^d`:
/// the accuracy axis measures absolute loss (so the baseline sits at `0`),
/// every hardware axis measures `value / baseline` (so the baseline sits at
/// `1`, the reference — the baseline alone scores exactly `0`, and the
/// indicator grows as the front pushes below baseline cost at low loss).
/// Values beyond the box are clamped, which keeps the indicator **finite by
/// construction** regardless of how degenerate a front is; points with NaN
/// objectives (or an unusable baseline reference on some axis) are skipped.
///
/// A larger hypervolume means a strictly better front: it is monotone under
/// adding points and under improving any point on any axis.
pub fn hypervolume(
    space: &ObjectiveSpace,
    points: &[DesignPoint],
    baseline: &DesignMetrics,
) -> f64 {
    let coordinates: Vec<Vec<f64>> = points
        .iter()
        .filter_map(|point| {
            space
                .objectives
                .iter()
                .map(|&kind| hypervolume_axis(kind, point, baseline))
                .collect::<Option<Vec<f64>>>()
        })
        .collect();
    dominated_box_volume(coordinates, space.dim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_minimize::MinimizationConfig;

    fn point(accuracy: f64, area: f64) -> DesignPoint {
        DesignPoint {
            config: MinimizationConfig::default(),
            accuracy,
            area_mm2: area,
            power_uw: area * 10.0,
            delay_us: 2.0,
            normalized_accuracy: accuracy,
            normalized_area: area / 100.0,
            sparsity: 0.0,
            gate_count: (area * 10.0) as usize,
        }
    }

    fn baseline_metrics() -> DesignMetrics {
        DesignMetrics {
            accuracy: 0.9,
            area_mm2: 100.0,
            power_uw: 1000.0,
            delay_us: 2.0,
            energy_pj: 2000.0,
        }
    }

    #[test]
    fn dominance_relation() {
        let better = point(0.9, 50.0);
        let worse = point(0.8, 60.0);
        let tradeoff = point(0.95, 70.0);
        assert!(dominates(&better, &worse));
        assert!(!dominates(&worse, &better));
        assert!(!dominates(&better, &tradeoff));
        assert!(!dominates(&tradeoff, &better));
        // A point does not dominate itself.
        assert!(!dominates(&better, &better));
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated() {
        let points = vec![
            point(0.9, 50.0),
            point(0.8, 60.0),
            point(0.95, 70.0),
            point(0.7, 40.0),
        ];
        let front = pareto_front(&points);
        assert_eq!(front.len(), 3);
        assert!(front.iter().all(|p| p.accuracy != 0.8));
        // Sorted by area.
        assert!(front.windows(2).all(|w| w[0].area_mm2 <= w[1].area_mm2));
    }

    #[test]
    fn ranks_are_consistent_with_dominance() {
        let points = vec![
            point(0.9, 50.0),
            point(0.8, 60.0),
            point(0.95, 70.0),
            point(0.85, 55.0),
        ];
        let ranks = non_dominated_ranks(&points);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[2], 0);
        assert!(ranks[1] > 0);
        // A dominated point never has a lower rank than its dominator.
        for i in 0..points.len() {
            for j in 0..points.len() {
                if dominates(&points[i], &points[j]) {
                    assert!(ranks[i] <= ranks[j]);
                }
            }
        }
    }

    #[test]
    fn crowding_prefers_isolated_points() {
        let points = vec![
            point(0.90, 50.0),
            point(0.901, 50.5), // crowded next to the first
            point(0.95, 80.0),  // isolated
            point(0.80, 20.0),  // boundary
        ];
        let d = crowding_distances(&points);
        assert!(d[3].is_infinite());
        assert!(d[2] >= d[1]);
    }

    #[test]
    fn crowding_small_sets_are_all_infinite() {
        let points = vec![point(0.9, 10.0), point(0.8, 5.0)];
        assert!(crowding_distances(&points).iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn crowding_gives_all_tied_extremes_infinite_distance() {
        // Two points tie the minimum area (and two tie the maximum accuracy):
        // every point at an objective extreme must be treated as a boundary
        // point, regardless of where a stable sort happens to place it.
        let points = vec![
            point(0.80, 20.0), // ties min area
            point(0.85, 20.0), // ties min area
            point(0.90, 50.0),
            point(0.95, 80.0), // ties max accuracy (and max area)
            point(0.95, 60.0), // ties max accuracy
        ];
        let d = crowding_distances(&points);
        assert!(d[0].is_infinite(), "tied min-area point crowded out: {d:?}");
        assert!(d[1].is_infinite(), "tied min-area point crowded out: {d:?}");
        assert!(d[3].is_infinite(), "tied max-accuracy point: {d:?}");
        assert!(d[4].is_infinite(), "tied max-accuracy point: {d:?}");
        assert!(d[2].is_finite(), "interior point must stay finite: {d:?}");
    }

    #[test]
    fn crowding_all_equal_points_are_all_boundaries() {
        let points = vec![point(0.9, 10.0); 4];
        assert!(crowding_distances(&points).iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn nan_points_rank_worst_and_never_reach_the_front() {
        let mut points = vec![point(0.9, 50.0), point(0.8, 60.0)];
        points.push(point(f64::NAN, 10.0));
        points.push(point(0.99, f64::NAN));

        // The front contains only well-formed points, sorted without panics.
        let front = pareto_front(&points);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].accuracy, 0.9);

        // NaN points share the worst rank, strictly behind every clean rank.
        let ranks = non_dominated_ranks(&points);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[1], 1);
        assert_eq!(ranks[2], 2);
        assert_eq!(ranks[3], 2);

        // Crowding never rewards a NaN point with infinite distance.
        let d = crowding_distances(&points);
        assert_eq!(d[2], 0.0);
        assert_eq!(d[3], 0.0);
        assert!(d[0].is_infinite() && d[1].is_infinite());

        // Domination involving NaN is one-way: clean beats NaN, never the
        // reverse (and NaN does not dominate NaN).
        assert!(dominates(&points[0], &points[2]));
        assert!(!dominates(&points[2], &points[0]));
        assert!(!dominates(&points[2], &points[3]));
    }

    #[test]
    fn all_nan_input_is_handled_without_panicking() {
        let points = vec![point(f64::NAN, f64::NAN); 3];
        assert!(pareto_front(&points).is_empty());
        assert_eq!(non_dominated_ranks(&points), vec![0, 0, 0]);
        assert!(crowding_distances(&points).iter().all(|&d| d == 0.0));
    }

    #[test]
    fn area_gain_at_loss_respects_threshold() {
        // Baseline accuracy 0.9, baseline area 100 (normalized_area = area/100).
        let points = vec![
            point(0.89, 40.0), // 1% loss, 2.5x gain
            point(0.84, 20.0), // 6% loss, 5x gain (excluded at 5%)
            point(0.86, 25.0), // 4% loss, 4x gain
        ];
        let gain = area_gain_at_accuracy_loss(&points, 0.9, 0.05).unwrap();
        assert!((gain - 4.0).abs() < 1e-9);
        let gain_strict = area_gain_at_accuracy_loss(&points, 0.9, 0.015).unwrap();
        assert!((gain_strict - 2.5).abs() < 1e-9);
        assert!(area_gain_at_accuracy_loss(&points, 0.99, 0.01).is_none());
    }

    #[test]
    fn empty_input_yields_empty_front() {
        assert!(pareto_front(&[]).is_empty());
        assert!(non_dominated_ranks(&[]).is_empty());
        assert!(area_gain_at_accuracy_loss(&[], 0.9, 0.05).is_none());
    }

    #[test]
    fn classic_wrappers_match_space_parameterized_forms() {
        let space = ObjectiveSpace::classic();
        let points = vec![
            point(0.9, 50.0),
            point(0.8, 60.0),
            point(0.95, 70.0),
            point(f64::NAN, 10.0),
        ];
        assert_eq!(pareto_front(&points), pareto_front_in(&space, &points));
        assert_eq!(
            non_dominated_ranks(&points),
            non_dominated_ranks_in(&space, &points)
        );
        assert_eq!(
            crowding_distances(&points),
            crowding_distances_in(&space, &points)
        );
    }

    #[test]
    fn three_dimensional_fronts_keep_tradeoff_points() {
        // b loses on area but wins on energy: dominated in the classic space,
        // non-dominated once energy is an axis.
        let a = point(0.9, 50.0);
        let mut b = point(0.9, 55.0);
        b.delay_us = 0.5;
        let classic_front = pareto_front(&[a.clone(), b.clone()]);
        assert_eq!(classic_front.len(), 1);
        let space = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let front = pareto_front_in(&space, &[a.clone(), b.clone()]);
        assert_eq!(front.len(), 2, "energy win must keep b on the front");
        // Ranks agree: both rank 0 in 3-D, b behind a in 2-D.
        assert_eq!(
            non_dominated_ranks_in(&space, &[a.clone(), b.clone()]),
            vec![0, 0]
        );
        assert_eq!(non_dominated_ranks(&[a, b]), vec![0, 1]);
    }

    #[test]
    fn hypervolume_of_baseline_alone_is_zero() {
        // The baseline projects to the reference corner on every axis.
        let mut base_point = point(0.9, 100.0);
        base_point.power_uw = 1000.0;
        base_point.delay_us = 2.0;
        for spec in ["accuracy,area", "accuracy,area,energy", "loss,delay,energy"] {
            let space = ObjectiveSpace::parse(spec).unwrap();
            let hv = hypervolume(&space, &[base_point.clone()], &baseline_metrics());
            assert!(hv.abs() < 1e-12, "{spec}: {hv}");
        }
    }

    #[test]
    fn hypervolume_rewards_better_fronts() {
        let space = ObjectiveSpace::classic();
        let base = baseline_metrics();
        // Half the area at zero loss dominates a box of 0.5 volume... scaled
        // by the loss axis (full [0,1] width): loss 0, area 0.5 → 1.0 × 0.5.
        let half_area = point(0.9, 50.0);
        let hv = hypervolume(&space, std::slice::from_ref(&half_area), &base);
        assert!((hv - 0.5).abs() < 1e-12, "{hv}");

        // Adding a second, cheaper-but-lossier point only grows the volume.
        let cheap = point(0.86, 20.0);
        let hv2 = hypervolume(&space, &[half_area.clone(), cheap], &base);
        assert!(hv2 > hv);
        assert!(hv2 <= 1.0);

        // A strictly better point gives strictly more volume.
        let better = point(0.9, 40.0);
        assert!(hypervolume(&space, &[better], &base) > hv);
    }

    #[test]
    fn hypervolume_is_finite_and_bounded_for_degenerate_inputs() {
        let base = baseline_metrics();
        for spec in [
            "accuracy,area",
            "accuracy,area,energy",
            "accuracy,area,delay,energy",
        ] {
            let space = ObjectiveSpace::parse(spec).unwrap();
            let mut nan = point(f64::NAN, 1.0);
            nan.delay_us = f64::NAN;
            let worse_than_baseline = point(0.2, 1e9);
            let negative_loss = point(0.99, 1.0); // better than baseline accuracy
            let points = vec![nan, worse_than_baseline, negative_loss];
            let hv = hypervolume(&space, &points, &base);
            assert!(hv.is_finite(), "{spec}");
            assert!((0.0..=1.0).contains(&hv), "{spec}: {hv}");
        }
        // Empty fronts and zero baselines degrade to zero, not NaN/∞.
        assert_eq!(
            hypervolume(&ObjectiveSpace::classic(), &[], &baseline_metrics()),
            0.0
        );
        let dead_baseline = DesignMetrics {
            accuracy: 0.9,
            area_mm2: 0.0,
            power_uw: 0.0,
            delay_us: 0.0,
            energy_pj: 0.0,
        };
        let hv = hypervolume(
            &ObjectiveSpace::classic(),
            &[point(0.9, 50.0)],
            &dead_baseline,
        );
        assert!(hv.is_finite());
    }

    #[test]
    fn hypervolume_three_dimensional_slicing_is_exact() {
        // One point at (loss 0, area 0.5, energy 0.5): volume 1 × 0.5 × 0.5.
        let space = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let base = baseline_metrics();
        let mut p = point(0.9, 50.0); // power = 500 µW
        p.delay_us = 2.0; // energy 1000 pJ = half the baseline's 2000
        let hv = hypervolume(&space, &[p.clone()], &base);
        assert!((hv - 0.25).abs() < 1e-12, "{hv}");

        // A second point trading area for energy: (loss 0, area 0.8,
        // energy 0.2) owns a 1 × 0.2 × 0.8 = 0.16 box; the boxes overlap in
        // 1 × 0.2 × 0.5 = 0.10, so the union is 0.25 + 0.16 − 0.10 = 0.31.
        let mut q = point(0.9, 80.0); // power 800 µW
        q.delay_us = 0.5; // energy 400 pJ = 0.2 of baseline
        let hv2 = hypervolume(&space, &[p, q], &base);
        assert!((hv2 - 0.31).abs() < 1e-12, "{hv2}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pmlp_minimize::MinimizationConfig;
    use proptest::prelude::*;

    fn point(accuracy: f64, area: f64) -> DesignPoint {
        DesignPoint {
            config: MinimizationConfig::default(),
            accuracy,
            area_mm2: area,
            power_uw: 0.0,
            delay_us: 1.0,
            normalized_accuracy: accuracy,
            normalized_area: area,
            sparsity: 0.0,
            gate_count: 0,
        }
    }

    /// A point with independent power/delay axes for N-dimensional checks.
    fn point4(accuracy: f64, area: f64, power: f64, delay: f64) -> DesignPoint {
        DesignPoint {
            power_uw: power,
            delay_us: delay,
            ..point(accuracy, area)
        }
    }

    fn space3() -> ObjectiveSpace {
        ObjectiveSpace::parse("accuracy,area,energy").unwrap()
    }

    fn space4() -> ObjectiveSpace {
        ObjectiveSpace::parse("accuracy,area,delay,energy").unwrap()
    }

    proptest! {
        #[test]
        fn front_members_are_mutually_non_dominated(
            raw in proptest::collection::vec((0.0f64..1.0, 1.0f64..100.0), 1..30)
        ) {
            let points: Vec<DesignPoint> = raw.iter().map(|&(a, ar)| point(a, ar)).collect();
            let front = pareto_front(&points);
            for a in &front {
                for b in &front {
                    prop_assert!(!dominates(a, b) || a.area_mm2 == b.area_mm2 && a.accuracy == b.accuracy);
                }
            }
            // Every original point is dominated by or equal to some front member.
            for p in &points {
                prop_assert!(front.iter().any(|f| !dominates(p, f)));
            }
        }

        #[test]
        fn rank_zero_matches_pareto_front_size(
            raw in proptest::collection::vec((0.0f64..1.0, 1.0f64..100.0), 1..25)
        ) {
            let points: Vec<DesignPoint> = raw.iter().map(|&(a, ar)| point(a, ar)).collect();
            let front = pareto_front(&points);
            let ranks = non_dominated_ranks(&points);
            let rank0 = ranks.iter().filter(|&&r| r == 0).count();
            // The front may deduplicate identical points, so it is never larger.
            prop_assert!(front.len() <= rank0);
        }

        #[test]
        fn high_dimensional_fronts_are_mutually_non_dominated(
            raw in proptest::collection::vec(
                (0.0f64..1.0, 1.0f64..100.0, 1.0f64..50.0, 0.1f64..10.0), 1..25)
        ) {
            let points: Vec<DesignPoint> =
                raw.iter().map(|&(a, ar, p, d)| point4(a, ar, p, d)).collect();
            for space in [space3(), space4()] {
                let front = pareto_front_in(&space, &points);
                prop_assert!(!front.is_empty());
                for a in &front {
                    for b in &front {
                        prop_assert!(
                            !space.dominates(a, b)
                                || space.values(a) == space.values(b)
                        );
                    }
                }
                // Consistency with non-dominated sorting: rank-0 count covers
                // the (deduplicated) front.
                let ranks = non_dominated_ranks_in(&space, &points);
                let rank0 = ranks.iter().filter(|&&r| r == 0).count();
                prop_assert!(front.len() <= rank0);
            }
        }

        #[test]
        fn high_dimensional_crowding_is_nan_safe_and_respects_boundaries(
            raw in proptest::collection::vec(
                (0.0f64..1.0, 1.0f64..100.0, 1.0f64..50.0, 0.1f64..10.0), 3..20),
            nan_delay in 0usize..2,
        ) {
            let mut points: Vec<DesignPoint> =
                raw.iter().map(|&(a, ar, p, d)| point4(a, ar, p, d)).collect();
            if nan_delay == 1 {
                // A degenerate record (no delay measurement) must get zero
                // crowding under delay-aware spaces, never infinite.
                points[0].delay_us = f64::NAN;
            }
            for space in [space3(), space4()] {
                let d = crowding_distances_in(&space, &points);
                prop_assert_eq!(d.len(), points.len());
                for (i, &di) in d.iter().enumerate() {
                    prop_assert!(!di.is_nan());
                    prop_assert!(di >= 0.0);
                    if space.has_nan(&points[i]) {
                        prop_assert_eq!(di, 0.0);
                    }
                }
                // Clean extremes on every axis are boundary points.
                let clean: Vec<usize> = (0..points.len())
                    .filter(|&i| !space.has_nan(&points[i]))
                    .collect();
                if clean.len() > 2 {
                    for kind in &space.objectives {
                        let best = clean
                            .iter()
                            .copied()
                            .min_by(|&a, &b| {
                                kind.raw_value(&points[a]).total_cmp(&kind.raw_value(&points[b]))
                            })
                            .unwrap();
                        prop_assert!(d[best].is_infinite());
                    }
                }
            }
        }

        #[test]
        fn hypervolume_is_bounded_and_monotone_under_adding_points(
            raw in proptest::collection::vec(
                (0.0f64..1.0, 1.0f64..200.0, 1.0f64..100.0, 0.1f64..10.0), 2..16)
        ) {
            let points: Vec<DesignPoint> =
                raw.iter().map(|&(a, ar, p, d)| point4(a, ar, p, d)).collect();
            let baseline = DesignMetrics {
                accuracy: 0.9,
                area_mm2: 100.0,
                power_uw: 50.0,
                delay_us: 5.0,
                energy_pj: 250.0,
            };
            for space in [ObjectiveSpace::classic(), space3(), space4()] {
                let all = hypervolume(&space, &points, &baseline);
                prop_assert!(all.is_finite());
                prop_assert!((0.0..=1.0).contains(&all));
                // Monotone: a prefix of the points never has more volume.
                let prefix = hypervolume(&space, &points[..points.len() - 1], &baseline);
                prop_assert!(prefix <= all + 1e-12);
                // Permutation-invariant.
                let mut reversed = points.clone();
                reversed.reverse();
                let rev = hypervolume(&space, &reversed, &baseline);
                prop_assert!((rev - all).abs() < 1e-9);
            }
        }
    }
}
