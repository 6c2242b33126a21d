//! Plain-text instance serialization.
//!
//! The classic benchmark distributes each instance as a whitespace-separated
//! stream of `nb_jobs × nb_machines` positive reals in row-major order
//! (job-major), optionally preceded by a header line with the two
//! dimensions. This module reads both layouts and writes the headered one,
//! so genuine `u_x_yyzz.k` files can be dropped into the pipeline in place
//! of regenerated instances.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{EtcMatrix, GridInstance, TIME_RANGE};

/// Errors produced while parsing an instance file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A token could not be parsed as a positive real.
    BadToken {
        /// 1-based token position in the stream.
        position: usize,
        /// The offending token.
        token: String,
    },
    /// A cell lies at or beyond [`TIME_RANGE`] (2³¹ time units), where
    /// the fixed-point tick arithmetic would silently saturate.
    OutOfRange {
        /// 1-based token position in the stream.
        position: usize,
        /// The offending token.
        token: String,
    },
    /// The number of values does not fit the (declared or expected)
    /// dimensions.
    BadShape {
        /// Values found in the stream.
        found: usize,
        /// Values expected from the dimensions.
        expected: usize,
    },
    /// The file is empty or the header is unusable.
    MissingData,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::BadToken { position, token } => {
                write!(f, "token #{position} ({token:?}) is not a positive real")
            }
            ParseError::OutOfRange { position, token } => {
                write!(
                    f,
                    "token #{position} ({token:?}) is not below 2^31 time units"
                )
            }
            ParseError::BadShape { found, expected } => {
                write!(f, "found {found} values, expected {expected}")
            }
            ParseError::MissingData => write!(f, "no data in instance file"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses an ETC matrix from text.
///
/// Accepted layouts:
///
/// * **Headered** — first two whitespace-separated tokens are integers
///   `nb_jobs nb_machines`, followed by exactly `nb_jobs × nb_machines`
///   reals. (A token stream whose first two values are integral *and*
///   whose count matches `2 + rows×cols` is treated as headered.)
/// * **Headerless** — `dims = Some((jobs, machines))` supplies the shape and
///   the stream must contain exactly `jobs × machines` reals.
///
/// Lines starting with `#` or `%` are comments.
pub fn parse_matrix(text: &str, dims: Option<(usize, usize)>) -> Result<EtcMatrix, ParseError> {
    let mut values: Vec<f64> = Vec::new();
    let mut position = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        for token in line.split_whitespace() {
            position += 1;
            let v: f64 = token.parse().map_err(|_| ParseError::BadToken {
                position,
                token: token.to_owned(),
            })?;
            values.push(v);
        }
    }
    if values.is_empty() {
        return Err(ParseError::MissingData);
    }

    // `header` counts the tokens before the first cell, so a cell's
    // stream position is `header + index + 1`.
    let (nb_jobs, nb_machines, header, data) = match dims {
        Some((jobs, machines)) => {
            if values.len() != jobs * machines {
                return Err(ParseError::BadShape {
                    found: values.len(),
                    expected: jobs * machines,
                });
            }
            (jobs, machines, 0, values)
        }
        None => {
            // Detect a header: two leading integral tokens that match the
            // remaining count.
            if values.len() >= 3 {
                let (j, m) = (values[0], values[1]);
                let integral = j.fract() == 0.0 && m.fract() == 0.0 && j >= 1.0 && m >= 1.0;
                let (ju, mu) = (j as usize, m as usize);
                // Checked: a huge header would otherwise overflow (a
                // panic in debug builds, a wrapped shape in release).
                let cells = ju.checked_mul(mu).and_then(|n| n.checked_add(2));
                if integral && cells == Some(values.len()) {
                    (ju, mu, 2, values[2..].to_vec())
                } else {
                    return Err(ParseError::MissingData);
                }
            } else {
                return Err(ParseError::MissingData);
            }
        }
    };

    // Validate positivity here so we can produce a parse error instead of
    // the EtcMatrix constructor panic, and the tick range so an oversized
    // cell cannot saturate silently downstream.
    if let Some(pos) = data.iter().position(|&v| !(v.is_finite() && v > 0.0)) {
        return Err(ParseError::BadToken {
            position: header + pos + 1,
            token: data[pos].to_string(),
        });
    }
    if let Some(pos) = data.iter().position(|&v| v >= TIME_RANGE) {
        return Err(ParseError::OutOfRange {
            position: header + pos + 1,
            token: data[pos].to_string(),
        });
    }
    Ok(EtcMatrix::from_rows(nb_jobs, nb_machines, data))
}

/// Reads an instance from a file. The file stem becomes the instance name.
///
/// `dims` follows the semantics of [`parse_matrix`]; classic 512×16 files
/// without a header need `Some((512, 16))`.
pub fn read_instance(
    path: impl AsRef<Path>,
    dims: Option<(usize, usize)>,
) -> Result<GridInstance, ParseError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    let matrix = parse_matrix(&text, dims)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    Ok(GridInstance::new(name, matrix))
}

/// Serializes a matrix in headered layout (one row per line).
#[must_use]
pub fn format_matrix(matrix: &EtcMatrix) -> String {
    let mut out = String::with_capacity(matrix.nb_jobs() * matrix.nb_machines() * 16);
    let _ = writeln!(out, "{} {}", matrix.nb_jobs(), matrix.nb_machines());
    for row in matrix.rows() {
        let mut first = true;
        for v in row {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{v}");
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Writes a matrix to a file in headered layout.
pub fn write_matrix(path: impl AsRef<Path>, matrix: &EtcMatrix) -> io::Result<()> {
    fs::write(path, format_matrix(matrix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headered_round_trip() {
        let m = EtcMatrix::from_rows(2, 3, vec![1.0, 2.5, 3.0, 4.0, 5.0, 6.25]);
        let text = format_matrix(&m);
        let back = parse_matrix(&text, None).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn headerless_with_dims() {
        let text = "1 2\n3 4\n5 6\n";
        let m = parse_matrix(text, Some((3, 2))).unwrap();
        assert_eq!(m.nb_jobs(), 3);
        assert_eq!(m.get(2, 1), 6.0);
    }

    #[test]
    fn comments_are_skipped() {
        let text = "# braun instance\n2 2\n1 2\n% trailing comment\n3 4\n";
        let m = parse_matrix(text, None).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn bad_token_reports_position() {
        let err = parse_matrix("2 2\n1 x 3 4", None).unwrap_err();
        match err {
            ParseError::BadToken { position, token } => {
                assert_eq!(position, 4);
                assert_eq!(token, "x");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_detected() {
        let err = parse_matrix("1 2 3", Some((2, 2))).unwrap_err();
        match err {
            ParseError::BadShape { found, expected } => {
                assert_eq!((found, expected), (3, 4));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn overflowing_header_is_missing_data() {
        // 10¹⁹ × 10¹⁹ overflows usize; 274177 × 67280421310721 is
        // 2⁶⁴ + 1, which wraps to exactly the one cell that follows.
        for text in ["1e19 1e19 1", "274177 67280421310721 1"] {
            assert!(
                matches!(parse_matrix(text, None), Err(ParseError::MissingData)),
                "{text}"
            );
        }
    }

    #[test]
    fn empty_input_is_missing_data() {
        assert!(matches!(
            parse_matrix("  \n# nothing\n", None),
            Err(ParseError::MissingData)
        ));
    }

    #[test]
    fn non_positive_value_rejected() {
        let err = parse_matrix("2 2\n1 2\n-3 4\n", None).unwrap_err();
        match err {
            ParseError::BadToken { position, token } => {
                assert_eq!(position, 5, "stream position, header included");
                assert_eq!(token, "-3");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cells_beyond_the_tick_range_rejected() {
        // Ticks saturate at 2³¹ units: accepted, this instance would
        // evaluate to makespan 2·2³¹ instead of 7·10⁹.
        let err = parse_matrix("2 2\n3e9 5e9\n4e9 1\n", None).unwrap_err();
        match err {
            ParseError::OutOfRange { position, token } => {
                assert_eq!(position, 3);
                assert_eq!(token, "3000000000");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The bound is exclusive: the largest cell below it still parses.
        let below = TIME_RANGE.next_down().to_string();
        assert!(parse_matrix(&format!("1 1 1 {below}"), Some((2, 2))).is_ok());
        let at = TIME_RANGE.to_string();
        assert!(matches!(
            parse_matrix(&format!("1 1 1 {at}"), Some((2, 2))),
            Err(ParseError::OutOfRange { position: 4, .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cmags-etc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny_instance.txt");
        let m = EtcMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        write_matrix(&path, &m).unwrap();
        let inst = read_instance(&path, None).unwrap();
        assert_eq!(inst.name(), "tiny_instance");
        assert_eq!(inst.etc(), &m);
        std::fs::remove_file(&path).ok();
    }
}
