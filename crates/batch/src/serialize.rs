//! Serializer frontends: stream whole columns as CSV or JSON Lines through
//! any [`DigitSink`] — no intermediate `String`s, no per-row allocation.
//!
//! Both frontends drive [`BatchFormatter::format_one_f64`], which runs the
//! context-free shortest tier, so they hold no conversion state. Pair them
//! with [`fpp_core::IoSink`] over a `BufWriter` to export straight to a
//! file or socket.

use crate::formatter::BatchFormatter;
use fpp_core::DigitSink;

/// Policy note — special values:
///
/// * CSV emits the pipeline's own spellings: `NaN`, `inf`, `-inf`, and the
///   signed zero `-0`.
/// * JSON Lines emits `null` for NaN and the infinities (JSON has no
///   non-finite numbers); everything else is emitted verbatim, and every
///   finite spelling the pipeline produces (`-0`, `1e23`, `5e-324`) is a
///   valid JSON number.
impl BatchFormatter {
    /// Streams named columns as CSV: one header row, then one row per
    /// index with comma-separated values and `\n` line ends. Header names
    /// are written verbatim (callers quote them if they contain commas).
    ///
    /// ```
    /// use fpp_batch::BatchFormatter;
    /// let mut fmt = BatchFormatter::new();
    /// let mut out = Vec::new();
    /// fmt.write_csv(
    ///     &[("t", &[0.5, 1.5][..]), ("v", &[0.1, 1e23][..])],
    ///     &mut out,
    /// );
    /// assert_eq!(out, b"t,v\n0.5,0.1\n1.5,1e23\n");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths, and wherever `sink`
    /// panics (a [`fpp_core::SliceSink`] too small for the text). No
    /// [`BatchOutput`](crate::BatchOutput) arena is built, so its 4 GiB
    /// offset range does not apply.
    pub fn write_csv(&mut self, columns: &[(&str, &[f64])], sink: &mut impl DigitSink) {
        let Some(rows) = columns.first().map(|(_, col)| col.len()) else {
            return;
        };
        assert!(
            columns.iter().all(|(_, col)| col.len() == rows),
            "fpp_batch: CSV columns must have equal lengths"
        );
        for (i, (name, _)) in columns.iter().enumerate() {
            if i > 0 {
                sink.push(b',');
            }
            sink.push_slice(name.as_bytes());
        }
        sink.push(b'\n');
        for row in 0..rows {
            for (i, (_, col)) in columns.iter().enumerate() {
                if i > 0 {
                    sink.push(b',');
                }
                self.format_one_f64(col[row], sink);
            }
            sink.push(b'\n');
        }
    }

    /// Streams a column as JSON Lines: one JSON value per line (`\n` line
    /// ends). Finite values use the shortest round-tripping spelling — all
    /// valid JSON numbers — and non-finite values become `null`.
    ///
    /// ```
    /// use fpp_batch::BatchFormatter;
    /// let mut fmt = BatchFormatter::new();
    /// let mut out = Vec::new();
    /// fmt.write_json_lines(&[0.1, f64::NAN, 1e23], &mut out);
    /// assert_eq!(out, b"0.1\nnull\n1e23\n");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics only where `sink` panics (a [`fpp_core::SliceSink`] too small
    /// for the text). No [`BatchOutput`](crate::BatchOutput) arena is
    /// built, so its 4 GiB offset range does not apply.
    pub fn write_json_lines(&mut self, values: &[f64], sink: &mut impl DigitSink) {
        for &v in values {
            if v.is_finite() {
                self.format_one_f64(v, sink);
            } else {
                sink.push_slice(b"null");
            }
            sink.push(b'\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_streams_rows_in_column_order() {
        let mut fmt = BatchFormatter::new();
        let mut out = Vec::new();
        fmt.write_csv(
            &[("a", &[1.0, 0.3][..]), ("b", &[f64::NAN, -0.0][..])],
            &mut out,
        );
        assert_eq!(out, b"a,b\n1,NaN\n0.3,-0\n");
    }

    #[test]
    fn csv_of_no_columns_is_empty() {
        let mut fmt = BatchFormatter::new();
        let mut out = Vec::new();
        fmt.write_csv(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn csv_rejects_ragged_columns() {
        let mut fmt = BatchFormatter::new();
        let mut out = Vec::new();
        fmt.write_csv(&[("a", &[1.0][..]), ("b", &[][..])], &mut out);
    }

    #[test]
    fn json_lines_nulls_non_finite() {
        let mut fmt = BatchFormatter::new();
        let mut out = Vec::new();
        fmt.write_json_lines(&[f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324], &mut out);
        assert_eq!(out, b"null\nnull\n-0\n5e-324\n");
    }
}
