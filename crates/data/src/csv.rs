//! Minimal CSV reader/writer for the real UCI files' formats.
//!
//! The UCI wine and seeds files use `;`- or whitespace-separated numeric
//! columns with the class label in the last column; this module parses that
//! family of formats without pulling in an external CSV dependency.

use crate::error::DataError;
use pmlp_nn::Dataset;
use std::collections::BTreeMap;

/// Options controlling CSV parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvOptions {
    /// Field separator (`,`, `;`, `\t`, ...).
    pub separator: char,
    /// Skip the first line (header row).
    pub has_header: bool,
    /// Column index of the class label; `None` means the last column.
    pub label_column: Option<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: false,
            label_column: None,
        }
    }
}

/// Parses CSV text into a [`Dataset`].
///
/// Labels may be arbitrary numeric or string values; they are mapped to dense
/// class indices `0..k` in order of first appearance sorted lexicographically,
/// so the mapping is stable across runs.
///
/// # Errors
///
/// Returns [`DataError::ParseCsv`] for malformed rows and
/// [`DataError::InvalidSpec`] when the text contains no data rows.
///
/// # Example
///
/// ```
/// use pmlp_data::csv::{parse_csv, CsvOptions};
///
/// # fn main() -> Result<(), pmlp_data::DataError> {
/// let text = "1.0;2.0;good\n3.0;4.0;bad\n";
/// let data = parse_csv(text, &CsvOptions { separator: ';', ..CsvOptions::default() })?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.feature_count(), 2);
/// assert_eq!(data.class_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_csv(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let mut rows: Vec<(Vec<f32>, String)> = Vec::new();
    let mut expected_fields: Option<usize> = None;

    for (line_index, raw_line) in text.lines().enumerate() {
        let line_no = line_index + 1;
        if options.has_header && line_index == 0 {
            continue;
        }
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = if options.separator == ' ' {
            line.split_whitespace().collect()
        } else {
            line.split(options.separator).map(str::trim).collect()
        };
        if fields.len() < 2 {
            return Err(DataError::ParseCsv {
                line: line_no,
                context: format!("expected at least 2 fields, got {}", fields.len()),
            });
        }
        if let Some(expected) = expected_fields {
            if fields.len() != expected {
                return Err(DataError::ParseCsv {
                    line: line_no,
                    context: format!("expected {expected} fields, got {}", fields.len()),
                });
            }
        } else {
            expected_fields = Some(fields.len());
        }
        let label_col = options.label_column.unwrap_or(fields.len() - 1);
        if label_col >= fields.len() {
            return Err(DataError::ParseCsv {
                line: line_no,
                context: format!("label column {label_col} out of range"),
            });
        }
        let mut features = Vec::with_capacity(fields.len() - 1);
        for (i, field) in fields.iter().enumerate() {
            if i == label_col {
                continue;
            }
            let value: f32 = field.parse().map_err(|_| DataError::ParseCsv {
                line: line_no,
                context: format!("cannot parse '{field}' as a number"),
            })?;
            features.push(value);
        }
        rows.push((features, fields[label_col].to_string()));
    }

    if rows.is_empty() {
        return Err(DataError::InvalidSpec {
            context: "csv contains no data rows".into(),
        });
    }

    // Stable label -> class-index mapping (lexicographic order).
    let mut label_map: BTreeMap<String, usize> = BTreeMap::new();
    for (_, label) in &rows {
        let next = label_map.len();
        label_map.entry(label.clone()).or_insert(next);
    }
    // Re-assign indices in sorted key order so the mapping is lexicographic.
    for (i, (_, v)) in label_map.iter_mut().enumerate() {
        *v = i;
    }

    let class_count = label_map.len();
    let labels: Vec<usize> = rows.iter().map(|(_, l)| label_map[l]).collect();
    // Move the parsed feature rows into the dataset instead of cloning them.
    let features: Vec<Vec<f32>> = rows.into_iter().map(|(f, _)| f).collect();
    Ok(Dataset::from_rows(features, labels, class_count)?)
}

/// Serializes a dataset to CSV text (features then label per row) using the
/// given separator. The inverse of [`parse_csv`] up to label renaming.
pub fn to_csv(data: &Dataset, separator: char) -> String {
    let mut out = String::new();
    for (row, &label) in data.features().iter_rows().zip(data.labels()) {
        let mut fields: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        fields.push(label.to_string());
        out.push_str(&fields.join(&separator.to_string()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_semicolon_separated_wine_style_csv() {
        let text = "fixed;volatile;quality\n7.0;0.27;6\n6.3;0.30;6\n8.1;0.28;5\n";
        let opts = CsvOptions {
            separator: ';',
            has_header: true,
            label_column: None,
        };
        let data = parse_csv(text, &opts).unwrap();
        assert_eq!(data.len(), 3);
        assert_eq!(data.feature_count(), 2);
        assert_eq!(data.class_count(), 2);
    }

    #[test]
    fn parses_whitespace_separated_seeds_style_data() {
        let text = "15.26 14.84 0.871 1\n14.88 14.57 0.881 1\n13.84 13.94 0.895 2\n";
        let opts = CsvOptions {
            separator: ' ',
            has_header: false,
            label_column: None,
        };
        let data = parse_csv(text, &opts).unwrap();
        assert_eq!(data.len(), 3);
        assert_eq!(data.feature_count(), 3);
        assert_eq!(data.class_count(), 2);
    }

    #[test]
    fn label_column_override_works() {
        let text = "a,1.0,2.0\nb,3.0,4.0\n";
        let opts = CsvOptions {
            separator: ',',
            has_header: false,
            label_column: Some(0),
        };
        let data = parse_csv(text, &opts).unwrap();
        assert_eq!(data.feature_count(), 2);
        assert_eq!(data.labels(), &[0, 1]);
    }

    #[test]
    fn rejects_malformed_numbers_with_line_number() {
        let text = "1.0,2.0,0\noops,4.0,1\n";
        let err = parse_csv(text, &CsvOptions::default()).unwrap_err();
        match err {
            DataError::ParseCsv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_inconsistent_field_counts() {
        let text = "1.0,2.0,0\n1.0,1\n";
        assert!(matches!(
            parse_csv(text, &CsvOptions::default()),
            Err(DataError::ParseCsv { .. })
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_csv("", &CsvOptions::default()).is_err());
        assert!(parse_csv("\n\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn label_mapping_is_lexicographic_and_stable() {
        let text = "1.0,zebra\n2.0,apple\n3.0,zebra\n";
        let data = parse_csv(text, &CsvOptions::default()).unwrap();
        // "apple" < "zebra" lexicographically, so apple -> 0, zebra -> 1.
        assert_eq!(data.labels(), &[1, 0, 1]);
    }

    #[test]
    fn round_trip_through_to_csv() {
        let text = "1.0,2.0,0\n3.0,4.0,1\n";
        let data = parse_csv(text, &CsvOptions::default()).unwrap();
        let serialized = to_csv(&data, ',');
        let reparsed = parse_csv(&serialized, &CsvOptions::default()).unwrap();
        assert_eq!(reparsed.len(), data.len());
        assert_eq!(reparsed.labels(), data.labels());
        for (a, b) in reparsed
            .features()
            .as_slice()
            .iter()
            .zip(data.features().as_slice())
        {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn skips_blank_lines() {
        let text = "1.0,0\n\n2.0,1\n\n";
        let data = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(data.len(), 2);
    }
}
