//! Evaluation of one minimization configuration: software accuracy plus
//! bespoke-circuit area/power via the hardware model.

use crate::baseline::BaselineDesign;
use crate::bridge::{circuit_spec_from_layers, estimate_area};
use crate::error::CoreError;
use pmlp_hw::{IntInferEngine, SharingStrategy};
use pmlp_minimize::{minimize_with, IntegerLayer, MinimizationConfig, StageMemo, Uncached};
use serde::{Deserialize, Serialize};

/// Which arithmetic measures test accuracy: a property of the baseline
/// ([`crate::baseline::BaselineConfig::accuracy_tier`]), which its candidates
/// are scored in too, so normalized accuracies always compare like with like.
///
/// Both tiers consume the *same* test inputs — features snapped to the
/// circuit's unsigned `input_bits` grid — so the only difference is the
/// arithmetic: `f32` with fake-quantized weights versus the exact integer
/// recurrence the printed circuit implements. The differential suite holds
/// the two together on every registry dataset; the integer tier is
/// additionally proven bit-identical to gate-level netlist simulation by the
/// `intinfer_vs_netlist` battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccuracyTier {
    /// The minimized float model (fake-quantized weights) evaluated in `f32`
    /// on the quantized test set. Kept as the test oracle of the integer
    /// engine.
    Float,
    /// Pure-integer inference over the minimized integer layers
    /// ([`pmlp_hw::intinfer`]) — the exact arithmetic of the bespoke
    /// circuit. The default: search, sweeps and campaigns score candidates
    /// on what the hardware will actually compute.
    #[default]
    Integer,
}

/// Everything needed to evaluate candidate configurations against a baseline.
#[derive(Debug, Clone)]
pub struct EvaluationContext<'a> {
    baseline: &'a BaselineDesign,
    /// Fine-tuning epochs granted to every candidate (kept small inside the
    /// GA loop, larger for the final sweeps).
    pub fine_tune_epochs: usize,
}

impl<'a> EvaluationContext<'a> {
    /// Creates a context with the default fine-tuning budget (8 epochs).
    pub fn new(baseline: &'a BaselineDesign) -> Self {
        EvaluationContext {
            baseline,
            fine_tune_epochs: 8,
        }
    }

    /// Overrides the fine-tuning budget.
    #[must_use]
    pub fn with_fine_tune_epochs(mut self, epochs: usize) -> Self {
        self.fine_tune_epochs = epochs;
        self
    }

    /// The baseline this context evaluates against.
    pub fn baseline(&self) -> &BaselineDesign {
        self.baseline
    }
}

/// One evaluated design: a minimization configuration together with its
/// absolute and baseline-normalized metrics.
///
/// A point always carries the **full** measurement of its circuit — accuracy,
/// area, power and critical-path delay — regardless of which objectives the
/// search that produced it selected. Objective vectors are *projections* of
/// this record (see [`ObjectiveSpace::values`]), taken after cache lookup,
/// which is why a store populated under one objective subset warm-starts a
/// search over any other subset without recomputing anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The configuration that was evaluated.
    pub config: MinimizationConfig,
    /// Test accuracy of the minimized classifier, in `[0, 1]`.
    pub accuracy: f64,
    /// Bespoke-circuit area in mm².
    pub area_mm2: f64,
    /// Bespoke-circuit static power in µW.
    pub power_uw: f64,
    /// Critical-path delay of the bespoke circuit in µs, from the timing
    /// report (fast path and full synthesis agree bit for bit).
    pub delay_us: f64,
    /// Accuracy normalized to the baseline (`1.0` = same as baseline).
    pub normalized_accuracy: f64,
    /// Area normalized to the baseline (`1.0` = same as baseline; smaller is
    /// better).
    pub normalized_area: f64,
    /// Achieved weight sparsity.
    pub sparsity: f64,
    /// Gate count of the synthesized circuit.
    pub gate_count: usize,
}

impl DesignPoint {
    /// Absolute accuracy loss relative to the baseline, in accuracy points
    /// (`0.05` = five percentage points; negative = *better* than baseline).
    ///
    /// This is **the** definition of loss in this workspace —
    /// `baseline_accuracy − accuracy` — shared by report rendering, the
    /// `--max-loss`-style headline filters
    /// ([`crate::pareto::area_gain_at_accuracy_loss`]) and the
    /// [`ObjectiveKind::AccuracyLoss`] axis of the hypervolume indicator.
    pub fn accuracy_loss(&self) -> f64 {
        self.baseline_accuracy() - self.accuracy
    }

    /// The baseline accuracy this point was normalized against, recovered
    /// from the stored normalization (points do not carry their baseline).
    pub fn baseline_accuracy(&self) -> f64 {
        if self.normalized_accuracy > 0.0 {
            self.accuracy / self.normalized_accuracy
        } else {
            self.accuracy
        }
    }

    /// Area reduction factor relative to the baseline (`2.0` = half the area).
    pub fn area_gain(&self) -> f64 {
        if self.normalized_area > 0.0 {
            1.0 / self.normalized_area
        } else {
            f64::INFINITY
        }
    }

    /// Energy per inference in pJ: static power (µW) × critical-path delay
    /// (µs).
    pub fn energy_pj(&self) -> f64 {
        self.power_uw * self.delay_us
    }

    /// The full measurement record of this point, from which any objective
    /// vector is projected.
    pub fn metrics(&self) -> DesignMetrics {
        DesignMetrics {
            accuracy: self.accuracy,
            area_mm2: self.area_mm2,
            power_uw: self.power_uw,
            delay_us: self.delay_us,
            energy_pj: self.energy_pj(),
        }
    }
}

/// The complete measurement of one circuit — every quantity an
/// [`ObjectiveSpace`] can project an objective vector from.
///
/// Derived quantities (energy) are computed, never stored: a
/// [`DesignPoint`] persists only `accuracy`/`area_mm2`/`power_uw`/`delay_us`,
/// so the on-disk record format is independent of which objectives exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignMetrics {
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Cell area in mm².
    pub area_mm2: f64,
    /// Static power in µW.
    pub power_uw: f64,
    /// Critical-path delay in µs.
    pub delay_us: f64,
    /// Energy per inference in pJ (`power_uw × delay_us`).
    pub energy_pj: f64,
}

impl DesignMetrics {
    /// Builds the metrics record from a synthesis summary plus the measured
    /// accuracy — the form used for baselines, whose reference values anchor
    /// hypervolume normalization.
    pub fn from_synthesis(accuracy: f64, synthesis: &crate::bridge::SynthesisSummary) -> Self {
        DesignMetrics {
            accuracy,
            area_mm2: synthesis.area_mm2,
            power_uw: synthesis.power_uw,
            delay_us: synthesis.critical_path_us,
            energy_pj: synthesis.energy_pj(),
        }
    }
}

/// One axis of the multi-objective search space.
///
/// Every kind knows how to read its **raw measured value** off a
/// [`DesignPoint`] and whether larger raw values are better. Selection
/// (dominance, crowding) compares raw values directly — never re-derived
/// losses or ratios — so the classic two-objective space is bit-for-bit the
/// comparison the pipeline always performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectiveKind {
    /// Accuracy loss vs. the baseline, minimized. The raw value compared
    /// during selection is the measured `accuracy` (maximized — identical
    /// ordering, no floating-point re-derivation); the hypervolume axis is
    /// the loss `baseline_accuracy − accuracy`.
    AccuracyLoss,
    /// Cell area in mm², minimized.
    ///
    /// There is no static-power axis: every cell of the one library draws
    /// the same power per mm² of area, so power would rank designs exactly
    /// as area does. [`DesignPoint::power_uw`] is still measured and
    /// reported, and feeds [`ObjectiveKind::EnergyPerInference`].
    Area,
    /// Critical-path delay in µs, minimized.
    Delay,
    /// Energy per inference in pJ (`power × delay`), minimized.
    EnergyPerInference,
}

impl ObjectiveKind {
    /// The raw measured value selection compares for this axis.
    pub fn raw_value(self, point: &DesignPoint) -> f64 {
        match self {
            ObjectiveKind::AccuracyLoss => point.accuracy,
            ObjectiveKind::Area => point.area_mm2,
            ObjectiveKind::Delay => point.delay_us,
            ObjectiveKind::EnergyPerInference => point.energy_pj(),
        }
    }

    /// `true` when larger raw values are better (only the accuracy axis).
    pub fn maximize_raw(self) -> bool {
        matches!(self, ObjectiveKind::AccuracyLoss)
    }

    /// Short CLI/report name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::AccuracyLoss => "accuracy",
            ObjectiveKind::Area => "area",
            ObjectiveKind::Delay => "delay",
            ObjectiveKind::EnergyPerInference => "energy",
        }
    }

    /// Parses one CLI token (`accuracy`/`loss`, `area`, `delay`, `energy`).
    pub fn parse(token: &str) -> Option<Self> {
        match token.trim() {
            "accuracy" | "loss" | "accuracy_loss" => Some(ObjectiveKind::AccuracyLoss),
            "area" => Some(ObjectiveKind::Area),
            "delay" => Some(ObjectiveKind::Delay),
            "energy" | "energy_per_inference" => Some(ObjectiveKind::EnergyPerInference),
            _ => None,
        }
    }
}

/// An ordered list of objectives — the search space NSGA-II fronts, crowding
/// and environmental selection operate over, and the axes of the hypervolume
/// indicator.
///
/// The default (“classic”) space is `(accuracy, area)`, reproducing the
/// paper's fixed trade-off bit for bit. Objective choice never touches the
/// evaluation cache key: every candidate is measured in full and the vector
/// is projected afterwards, so stores and shared servers populated under one
/// space serve every other space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpace {
    /// The ordered objective axes.
    pub objectives: Vec<ObjectiveKind>,
}

impl Default for ObjectiveSpace {
    fn default() -> Self {
        Self::classic()
    }
}

impl std::fmt::Display for ObjectiveSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, kind) in self.objectives.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(kind.name())?;
        }
        Ok(())
    }
}

impl ObjectiveSpace {
    /// The paper's fixed two-objective space: accuracy (loss) vs. area.
    pub fn classic() -> Self {
        ObjectiveSpace {
            objectives: vec![ObjectiveKind::AccuracyLoss, ObjectiveKind::Area],
        }
    }

    /// Builds a space from an explicit axis list.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the list is empty or
    /// contains a duplicate axis.
    pub fn new(objectives: Vec<ObjectiveKind>) -> Result<Self, CoreError> {
        if objectives.is_empty() {
            return Err(CoreError::InvalidConfig {
                context: "objective space must name at least one objective".into(),
            });
        }
        for (i, kind) in objectives.iter().enumerate() {
            if objectives[..i].contains(kind) {
                return Err(CoreError::InvalidConfig {
                    context: format!("duplicate objective `{}`", kind.name()),
                });
            }
        }
        Ok(ObjectiveSpace { objectives })
    }

    /// Parses a comma-separated CLI list, e.g. `accuracy,area,energy`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an unknown token, an empty
    /// list or a duplicate axis.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let objectives = text
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| {
                ObjectiveKind::parse(t).ok_or_else(|| CoreError::InvalidConfig {
                    context: format!(
                        "unknown objective `{}` (expected accuracy, area, delay or energy)",
                        t.trim()
                    ),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(objectives)
    }

    /// Number of objective axes.
    pub fn dim(&self) -> usize {
        self.objectives.len()
    }

    /// Validates the axis list of a space built without
    /// [`ObjectiveSpace::new`] (a struct literal or a deserialized payload).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] as [`ObjectiveSpace::new`] would.
    pub fn validate(&self) -> Result<(), CoreError> {
        Self::new(self.objectives.clone()).map(|_| ())
    }

    /// Projects the raw objective vector selection compares (one entry per
    /// axis, in axis order).
    pub fn values(&self, point: &DesignPoint) -> Vec<f64> {
        self.objectives
            .iter()
            .map(|kind| kind.raw_value(point))
            .collect()
    }

    /// `true` when any axis of `point` is NaN — such points never dominate
    /// anything and sort behind every clean point.
    pub fn has_nan(&self, point: &DesignPoint) -> bool {
        self.objectives
            .iter()
            .any(|kind| kind.raw_value(point).is_nan())
    }

    /// Pareto dominance of `a` over `b` in this space: at least as good on
    /// every axis and strictly better on at least one. NaN-safe: a point
    /// with any NaN axis dominates nothing and is dominated by every clean
    /// point.
    pub fn dominates(&self, a: &DesignPoint, b: &DesignPoint) -> bool {
        if self.has_nan(a) {
            return false;
        }
        if self.has_nan(b) {
            return true;
        }
        let mut strictly_better = false;
        for kind in &self.objectives {
            let (va, vb) = (kind.raw_value(a), kind.raw_value(b));
            let (better, worse) = if kind.maximize_raw() {
                (va > vb, va < vb)
            } else {
                (va < vb, va > vb)
            };
            if worse {
                return false;
            }
            if better {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Evaluates `config` against the baseline in `ctx`.
///
/// The candidate is produced by running the full minimization pipeline
/// (prune → cluster → QAT) on a copy of the baseline's float model, its
/// accuracy is measured on the held-out test split in the baseline's
/// [`AccuracyTier`], and its bespoke circuit is costed by the analytic fast
/// path ([`pmlp_hw::cost`], bit-identical to full synthesis) with multiplier
/// sharing enabled exactly when the configuration clusters weights.
///
/// `salt` perturbs the fine-tuning RNG: the pipeline seed is
/// `baseline.seed ^ salt`, from which every stage seeds its own RNG with its
/// prefix configuration (see [`pmlp_minimize::apply`]), so results stay
/// deterministic per `(config, salt)` pair.
///
/// # Errors
///
/// Propagates minimization and synthesis errors.
pub fn evaluate_config(
    ctx: &EvaluationContext<'_>,
    config: &MinimizationConfig,
    salt: u64,
) -> Result<DesignPoint, CoreError> {
    evaluate_config_detailed(ctx, config, salt).map(|detailed| detailed.point)
}

/// One evaluated design together with the artefacts the engine needs to
/// finalize it later: the minimized integer layers (so Pareto-front
/// finalists can run full synthesis without re-training) and the sharing
/// strategy the hardware model used.
#[derive(Debug, Clone)]
pub struct EvaluatedDesign {
    /// The scored design point.
    pub point: DesignPoint,
    /// Integer layers the minimization pipeline produced.
    pub layers: Vec<IntegerLayer>,
    /// Multiplier-sharing strategy used for the hardware cost.
    pub sharing: SharingStrategy,
}

/// The full-detail form of [`evaluate_config`]: additionally returns the
/// minimized integer layers and the sharing strategy, which the engine caches
/// so finalist verification can re-synthesize without re-running the
/// minimization pipeline.
///
/// Runs every stage of the pipeline; an [`EvalEngine`](crate::EvalEngine)
/// runs the same stages but shares prune and cluster stages among the
/// configurations it evaluates, with bit-identical results.
///
/// # Errors
///
/// Propagates minimization and synthesis errors.
pub fn evaluate_config_detailed(
    ctx: &EvaluationContext<'_>,
    config: &MinimizationConfig,
    salt: u64,
) -> Result<EvaluatedDesign, CoreError> {
    evaluate_staged(ctx, config, salt, &Uncached)
}

/// [`evaluate_config_detailed`] with the prune and cluster stages fetched
/// from, or computed into, `memo`.
pub(crate) fn evaluate_staged(
    ctx: &EvaluationContext<'_>,
    config: &MinimizationConfig,
    salt: u64,
    memo: &dyn StageMemo,
) -> Result<EvaluatedDesign, CoreError> {
    let baseline = ctx.baseline();
    let mut config = *config;
    config.input_bits = baseline.input_bits;
    config.fine_tune_epochs = ctx.fine_tune_epochs;

    let minimized = minimize_with(
        &baseline.model,
        &baseline.train,
        Some(&baseline.test),
        &config,
        baseline.seed ^ salt,
        memo,
    )?;
    // The point records the canonical configuration the pipeline ran.
    let config = minimized.config;
    let sharing = if minimized.shares_multipliers() {
        SharingStrategy::SharedPerInput
    } else {
        SharingStrategy::None
    };
    let accuracy = match baseline.accuracy_tier {
        AccuracyTier::Float => minimized.accuracy(&baseline.quantized_test),
        AccuracyTier::Integer => integer_accuracy(
            &minimized.integer_layers,
            config.input_bits,
            sharing,
            &baseline.test_rows,
            baseline.test.labels(),
        )?,
    };
    let synthesis = estimate_area(
        &minimized.integer_layers,
        config.input_bits,
        &baseline.library,
        sharing,
    )?;

    let point = DesignPoint {
        config,
        accuracy,
        area_mm2: synthesis.area_mm2,
        power_uw: synthesis.power_uw,
        delay_us: synthesis.critical_path_us,
        normalized_accuracy: if baseline.accuracy > 0.0 {
            accuracy / baseline.accuracy
        } else {
            0.0
        },
        normalized_area: if baseline.synthesis.area_mm2 > 0.0 {
            synthesis.area_mm2 / baseline.synthesis.area_mm2
        } else {
            0.0
        },
        sparsity: minimized.sparsity(),
        gate_count: synthesis.gate_count,
    };
    Ok(EvaluatedDesign {
        point,
        layers: minimized.integer_layers,
        sharing,
    })
}

/// Scores minimized integer layers on pre-quantized test rows with the
/// pure-integer inference engine ([`pmlp_hw::intinfer`]) — the exact
/// arithmetic of the bespoke circuit, bit-identical to gate-level netlist
/// simulation.
///
/// `rows` is the flattened sample-major grid view of the test features (see
/// [`pmlp_hw::quantize_rows`]); `sharing` selects the kernel mirroring the
/// circuit's multiplier-sharing structure (it never changes the scores, only
/// which code path computes them).
///
/// # Errors
///
/// Returns [`CoreError::Hw`] when the layers do not form a valid circuit
/// spec or their worst-case accumulator exceeds `i64`.
pub fn integer_accuracy(
    layers: &[IntegerLayer],
    input_bits: u8,
    sharing: SharingStrategy,
    rows: &[u16],
    labels: &[usize],
) -> Result<f64, CoreError> {
    let spec = circuit_spec_from_layers(layers, input_bits)?;
    let engine = IntInferEngine::from_spec_with(&spec, sharing).map_err(CoreError::from)?;
    Ok(engine.accuracy(rows, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineConfig;
    use pmlp_data::UciDataset;

    fn baseline() -> BaselineDesign {
        BaselineDesign::train_with(
            UciDataset::Seeds,
            5,
            &BaselineConfig {
                epochs: 12,
                ..BaselineConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn baseline_config_evaluates_to_unity_normalization() {
        let baseline = baseline();
        let ctx = EvaluationContext::new(&baseline).with_fine_tune_epochs(2);
        let point = evaluate_config(&ctx, &MinimizationConfig::baseline(), 0).unwrap();
        // The baseline configuration reproduces the baseline circuit exactly.
        assert!(
            (point.normalized_area - 1.0).abs() < 1e-9,
            "area {}",
            point.normalized_area
        );
        assert!((point.area_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_reduces_area() {
        let baseline = baseline();
        let ctx = EvaluationContext::new(&baseline).with_fine_tune_epochs(3);
        let q3 =
            evaluate_config(&ctx, &MinimizationConfig::default().with_weight_bits(3), 0).unwrap();
        assert!(
            q3.normalized_area < 0.8,
            "3-bit area ratio {}",
            q3.normalized_area
        );
        assert!(q3.area_gain() > 1.25);
    }

    #[test]
    fn pruning_reduces_area_proportionally() {
        let baseline = baseline();
        let ctx = EvaluationContext::new(&baseline).with_fine_tune_epochs(3);
        let p =
            evaluate_config(&ctx, &MinimizationConfig::default().with_sparsity(0.6), 0).unwrap();
        assert!(p.sparsity >= 0.55);
        assert!(
            p.normalized_area < 0.85,
            "pruned area ratio {}",
            p.normalized_area
        );
    }

    #[test]
    fn fast_path_and_full_synthesis_tiers_agree_exactly() {
        let baseline = baseline();
        let ctx = EvaluationContext::new(&baseline).with_fine_tune_epochs(2);
        let engine = crate::EvalEngine::new(baseline.clone()).with_fine_tune_epochs(2);
        for config in [
            MinimizationConfig::baseline(),
            MinimizationConfig::default().with_weight_bits(3),
            MinimizationConfig::default().with_sparsity(0.5),
            MinimizationConfig::default().with_clusters(3),
        ] {
            let design = evaluate_config_detailed(&ctx, &config, 0).unwrap();
            let (layers, bits, library) = (&design.layers, baseline.input_bits, &baseline.library);
            let full =
                crate::bridge::synthesize_area(layers, bits, library, design.sharing).unwrap();
            let fast = estimate_area(layers, bits, library, design.sharing).unwrap();
            assert_eq!(fast, full, "cost models diverge for {config:?}");
            assert_eq!(design.point.area_mm2, full.area_mm2);
            assert_eq!(design.point.delay_us, full.critical_path_us);

            let finalized = engine.finalize(&config).unwrap();
            assert!(finalized.matches_fast_path, "{config:?}");
            assert_eq!(finalized.point, design.point);
            assert_eq!(finalized.full, full);
        }
    }

    #[test]
    fn evaluation_is_deterministic_per_salt() {
        let baseline = baseline();
        let ctx = EvaluationContext::new(&baseline).with_fine_tune_epochs(2);
        let cfg = MinimizationConfig::default().with_weight_bits(4);
        let a = evaluate_config(&ctx, &cfg, 9).unwrap();
        let b = evaluate_config(&ctx, &cfg, 9).unwrap();
        assert_eq!(a, b);
    }

    fn sample_point(accuracy: f64, area: f64) -> DesignPoint {
        DesignPoint {
            config: MinimizationConfig::default().with_weight_bits(4),
            accuracy,
            area_mm2: area,
            power_uw: area * 10.0,
            delay_us: 2.5,
            normalized_accuracy: accuracy / 0.9,
            normalized_area: area / 100.0,
            sparsity: 0.0,
            gate_count: 123,
        }
    }

    #[test]
    fn design_point_serde_round_trips() {
        let point = sample_point(0.85, 42.0);
        let json = point.serialize_value().render_compact();
        assert!(json.contains("\"delay_us\":2.5"));
        let back = DesignPoint::deserialize_value(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, point);

        // Every field is required: a point without a delay does not parse.
        let delayless = json.replace("\"delay_us\":2.5,", "");
        assert!(DesignPoint::deserialize_value(&serde::json::parse(&delayless).unwrap()).is_err());
    }

    #[test]
    fn accuracy_loss_is_baseline_minus_candidate() {
        let mut point = sample_point(0.85, 42.0);
        point.normalized_accuracy = 0.85 / 0.9;
        assert!((point.baseline_accuracy() - 0.9).abs() < 1e-12);
        assert!((point.accuracy_loss() - (0.9 - 0.85)).abs() < 1e-12);
        // A candidate above baseline has negative loss.
        point.accuracy = 0.95;
        point.normalized_accuracy = 0.95 / 0.9;
        assert!(point.accuracy_loss() < 0.0);
    }

    #[test]
    fn energy_is_power_times_delay() {
        let point = sample_point(0.85, 42.0);
        assert!((point.energy_pj() - 420.0 * 2.5).abs() < 1e-9);
        let metrics = point.metrics();
        assert_eq!(metrics.energy_pj, point.energy_pj());
        assert_eq!(metrics.delay_us, point.delay_us);
    }

    #[test]
    fn objective_space_parses_and_validates_cli_lists() {
        let classic = ObjectiveSpace::parse("accuracy,area").unwrap();
        assert_eq!(classic, ObjectiveSpace::classic());
        assert_eq!(classic, ObjectiveSpace::default());
        assert_eq!(classic.to_string(), "accuracy,area");

        let three = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        assert_eq!(three.dim(), 3);
        assert_eq!(
            three.objectives[2],
            ObjectiveKind::EnergyPerInference,
            "energy maps to energy-per-inference"
        );
        assert_ne!(three, ObjectiveSpace::classic());

        assert!(ObjectiveSpace::parse("").is_err());
        assert!(ObjectiveSpace::parse("accuracy,area,area").is_err());
        assert!(ObjectiveSpace::parse("accuracy,frobnitz").is_err());
        ObjectiveSpace::parse("loss,delay,energy")
            .unwrap()
            .validate()
            .unwrap();
        // Power ranks designs exactly as area does, so it is no axis.
        let err = ObjectiveSpace::parse("accuracy,power").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown objective `power` (expected accuracy, area, delay or energy)"),
            "{err}"
        );
    }

    #[test]
    fn objective_space_serde_round_trips() {
        let space = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let json = space.serialize_value().render_compact();
        let back = ObjectiveSpace::deserialize_value(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, space);
    }

    #[test]
    fn dominance_in_three_dimensions_considers_every_axis() {
        let space = ObjectiveSpace::parse("accuracy,area,energy").unwrap();
        let a = sample_point(0.9, 40.0);
        let mut b = sample_point(0.9, 50.0);
        assert!(space.dominates(&a, &b), "smaller area and energy dominate");
        assert!(!space.dominates(&b, &a));
        // Same accuracy/area, but b is faster: neither dominates in 3-D even
        // though a dominates in the classic space.
        b.area_mm2 = 40.0;
        b.power_uw = 400.0;
        b.delay_us = 1.0;
        assert!(!space.dominates(&a, &b), "b is strictly faster");
        assert!(
            space.dominates(&b, &a),
            "b ties accuracy/area and wins energy"
        );

        // NaN delay: dominated by every clean point under an energy space.
        let mut nan = sample_point(0.99, 1.0);
        nan.delay_us = f64::NAN;
        assert!(space.has_nan(&nan));
        assert!(space.dominates(&a, &nan));
        assert!(!space.dominates(&nan, &a));
        // ... but perfectly healthy in the classic space.
        assert!(!ObjectiveSpace::classic().has_nan(&nan));
        assert!(ObjectiveSpace::classic().dominates(&nan, &a));
    }
}
