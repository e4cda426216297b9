//! Figure/table data structures and text rendering in the format the paper
//! reports (normalized area vs normalized accuracy), including the
//! cross-dataset campaign table.

use crate::campaign::CampaignResult;
use crate::objective::DesignPoint;
use crate::sweep::Technique;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One plotted series of a figure: a technique and its (normalized accuracy,
/// normalized area) points, sorted by area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// The technique this series belongs to.
    pub technique: Technique,
    /// Label of the series (e.g. "quantization").
    pub label: String,
    /// `(normalized accuracy, normalized area, config description)` tuples,
    /// sorted by increasing normalized area.
    pub points: Vec<(f64, f64, String)>,
}

impl FigureSeries {
    /// Builds a series from raw design points (Pareto-filtered by the caller
    /// if desired).
    pub fn from_points(technique: Technique, points: &[DesignPoint]) -> Self {
        let mut tuples: Vec<(f64, f64, String)> = points
            .iter()
            .map(|p| {
                (
                    p.normalized_accuracy,
                    p.normalized_area,
                    p.config.describe(),
                )
            })
            .collect();
        tuples.sort_by(|a, b| a.1.total_cmp(&b.1));
        FigureSeries {
            technique,
            label: technique.name().to_string(),
            points: tuples,
        }
    }
}

impl fmt::Display for FigureSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# series: {}", self.label)?;
        writeln!(
            f,
            "{:<22} {:>18} {:>14}",
            "config", "norm. accuracy", "norm. area"
        )?;
        for (acc, area, config) in &self.points {
            writeln!(f, "{config:<22} {acc:>18.4} {area:>14.4}")?;
        }
        Ok(())
    }
}

/// One row of the headline table: a dataset/technique pair and its area gain
/// at the 5 % accuracy-loss threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineRow {
    /// Dataset name.
    pub dataset: String,
    /// Technique name.
    pub technique: String,
    /// Baseline accuracy (absolute).
    pub baseline_accuracy: f64,
    /// Best area-reduction factor achievable with at most
    /// `max_accuracy_loss` absolute accuracy loss, `None` when the technique
    /// never meets the threshold (as the paper observes for clustering on
    /// Pendigits/Seeds).
    pub area_gain: Option<f64>,
    /// The accuracy-loss threshold used (the paper uses 0.05).
    pub max_accuracy_loss: f64,
}

impl fmt::Display for HeadlineRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.area_gain {
            Some(gain) => write!(
                f,
                "{:<12} {:<18} baseline {:>6.1}%  area gain {:>5.2}x @ <= {:.0}% loss",
                self.dataset,
                self.technique,
                self.baseline_accuracy * 100.0,
                gain,
                self.max_accuracy_loss * 100.0
            ),
            None => write!(
                f,
                "{:<12} {:<18} baseline {:>6.1}%  no design meets the {:.0}% loss threshold",
                self.dataset,
                self.technique,
                self.baseline_accuracy * 100.0,
                self.max_accuracy_loss * 100.0
            ),
        }
    }
}

/// Renders a whole headline table.
pub fn render_headline_table(rows: &[HeadlineRow]) -> String {
    let mut out = String::new();
    out.push_str("=== area gain at <=5% accuracy loss (normalized to the bespoke baseline) ===\n");
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

/// Cross-dataset aggregate of one technique's headline gains, the way the
/// paper quotes per-technique averages in Section III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechniqueSummary {
    /// Technique name.
    pub technique: String,
    /// Mean area gain over the datasets where the technique met the
    /// accuracy-loss threshold, `None` when it met it nowhere.
    pub mean_gain: Option<f64>,
    /// Best area gain over those datasets.
    pub max_gain: Option<f64>,
    /// Number of datasets where the technique met the threshold.
    pub datasets_met: usize,
    /// Number of datasets in the campaign.
    pub datasets_total: usize,
}

impl fmt::Display for TechniqueSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean_gain, self.max_gain) {
            (Some(mean), Some(max)) => write!(
                f,
                "{:<18} avg {:>5.2}x   max {:>5.2}x   ({}/{} datasets)",
                self.technique, mean, max, self.datasets_met, self.datasets_total
            ),
            _ => write!(
                f,
                "{:<18} met the loss threshold on 0/{} datasets",
                self.technique, self.datasets_total
            ),
        }
    }
}

/// Formats an optional area gain for the campaign table (`-` when the
/// technique never met the threshold on that dataset).
fn format_gain(gain: Option<f64>) -> String {
    gain.map_or_else(|| "-".to_string(), |g| format!("{g:.2}x"))
}

/// Renders the aggregate paper-style campaign table: one row per dataset with
/// its topology, baseline accuracy/area and per-technique headline gains,
/// followed by the cross-dataset technique averages.
pub fn render_campaign_table(result: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== cross-dataset campaign ({:?} effort, seed {}, area gain at <={:.0}% accuracy loss) ===\n",
        result.effort,
        result.seed,
        result.max_accuracy_loss * 100.0
    ));
    out.push_str(&format!(
        "{:<14} {:>10} {:>9} {:>10} {:>10} {:>8} {:>11} {:>8}\n",
        "dataset", "topology", "base acc", "area mm2", "power uW", "quant", "prune", "cluster"
    ));
    for report in &result.reports {
        let topology = format!(
            "{}-{}-{}",
            report.feature_count, report.hidden_neurons, report.class_count
        );
        out.push_str(&format!(
            "{:<14} {:>10} {:>8.1}% {:>10.1} {:>10.1} {:>8} {:>11} {:>8}\n",
            report.name,
            topology,
            report.baseline_accuracy * 100.0,
            report.baseline_area_mm2,
            report.baseline_power_uw,
            format_gain(report.gain_for(Technique::Quantization)),
            format_gain(report.gain_for(Technique::Pruning)),
            format_gain(report.gain_for(Technique::Clustering)),
        ));
    }
    out.push_str(&format!(
        "=== evaluation cost and hypervolume (objectives: {}) ===\n",
        result.objectives
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>10} {:>10} {:>11} {:>10} {:>9}\n",
        "dataset", "evals", "cache hit", "fast-path", "full-synth", "hypervol", "secs"
    ));
    for report in &result.reports {
        out.push_str(&format!(
            "{:<14} {:>6} {:>9.0}% {:>10} {:>11} {:>10.4} {:>9.2}\n",
            report.name,
            report.evaluations,
            report.cache_hit_rate * 100.0,
            report.fast_path_evals,
            report.full_synthesis_evals,
            report.hypervolume,
            report.elapsed_secs,
        ));
    }
    out.push_str("=== cross-dataset average area gain per technique ===\n");
    for summary in result.technique_summaries() {
        out.push_str(&summary.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_minimize::MinimizationConfig;

    fn point(acc: f64, area: f64, bits: u8) -> DesignPoint {
        DesignPoint {
            config: MinimizationConfig::default().with_weight_bits(bits),
            accuracy: acc,
            area_mm2: area,
            power_uw: 0.0,
            delay_us: 1.0,
            normalized_accuracy: acc,
            normalized_area: area,
            sparsity: 0.0,
            gate_count: 0,
        }
    }

    #[test]
    fn series_is_sorted_by_area() {
        let series = FigureSeries::from_points(
            Technique::Quantization,
            &[point(0.9, 0.8, 7), point(0.85, 0.3, 3), point(0.88, 0.5, 5)],
        );
        assert_eq!(series.points.len(), 3);
        assert!(series.points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(series.label, "quantization");
    }

    #[test]
    fn series_display_lists_every_point() {
        let series = FigureSeries::from_points(
            Technique::Pruning,
            &[point(0.9, 0.8, 4), point(0.8, 0.5, 4)],
        );
        let text = series.to_string();
        assert!(text.contains("pruning"));
        assert_eq!(text.lines().count(), 2 + 2);
    }

    #[test]
    fn campaign_table_lists_every_dataset_and_every_technique_summary() {
        use crate::campaign::{CampaignResult, DatasetReport};
        use crate::experiment::Effort;
        use pmlp_data::UciDataset;

        let report = DatasetReport {
            dataset: UciDataset::Seeds,
            name: "Seeds".into(),
            feature_count: 7,
            class_count: 3,
            hidden_neurons: 10,
            baseline_accuracy: 0.91,
            baseline_area_mm2: 12.5,
            baseline_power_uw: 80.0,
            series: Vec::new(),
            hypervolume: 0.4375,
            headline: vec![HeadlineRow {
                dataset: "Seeds".into(),
                technique: Technique::Quantization.name().into(),
                baseline_accuracy: 0.91,
                area_gain: Some(4.5),
                max_accuracy_loss: 0.05,
            }],
            evaluations: 5,
            cache_hit_rate: 0.2,
            fast_path_evals: 5,
            full_synthesis_evals: 2,
            multiplier_cache_hit_rate: 0.0,
            elapsed_secs: 1.0,
        };
        let result = CampaignResult {
            effort: Effort::Quick,
            seed: 42,
            max_accuracy_loss: 0.05,
            objectives: "accuracy,area".into(),
            reports: vec![report],
        };
        let table = render_campaign_table(&result);
        assert!(table.contains("Seeds"));
        assert!(table.contains("7-10-3"));
        assert!(table.contains("4.50x"));
        // The evaluation-cost section reports fast-path vs full-synthesis
        // counts.
        assert!(table.contains("evaluation cost"));
        assert!(table.contains("fast-path"));
        // The per-dataset hypervolume and the objective space are reported.
        assert!(table.contains("objectives: accuracy,area"));
        assert!(table.contains("0.4375"));
        // Pruning/clustering have no headline row -> rendered as "-".
        assert!(table.contains('-'));
        for technique in ["quantization", "pruning", "weight clustering"] {
            assert!(table.contains(technique), "missing {technique}");
        }
    }

    #[test]
    fn technique_summary_renders_both_cases() {
        let met = TechniqueSummary {
            technique: "quantization".into(),
            mean_gain: Some(5.0),
            max_gain: Some(6.25),
            datasets_met: 11,
            datasets_total: 12,
        };
        let text = met.to_string();
        assert!(text.contains("5.00x") && text.contains("6.25x") && text.contains("11/12"));
        let unmet = TechniqueSummary {
            technique: "weight clustering".into(),
            mean_gain: None,
            max_gain: None,
            datasets_met: 0,
            datasets_total: 12,
        };
        assert!(unmet.to_string().contains("0/12"));
    }

    #[test]
    fn headline_row_renders_both_cases() {
        let with_gain = HeadlineRow {
            dataset: "WhiteWine".into(),
            technique: "quantization".into(),
            baseline_accuracy: 0.52,
            area_gain: Some(5.2),
            max_accuracy_loss: 0.05,
        };
        assert!(with_gain.to_string().contains("5.20x"));
        let without = HeadlineRow {
            area_gain: None,
            ..with_gain.clone()
        };
        assert!(without.to_string().contains("no design"));
        let table = render_headline_table(&[with_gain, without]);
        assert!(table.lines().count() >= 3);
    }
}
