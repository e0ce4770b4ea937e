//! Text rendering of experiment data: CSV rows and ASCII charts.
//!
//! The bench harness uses these to print figure-shaped output directly in
//! the terminal (log axes, multiple series) and to dump CSV for external
//! plotting.

use std::borrow::Cow;
use std::fmt::Write as _;

/// An axis description for [`AsciiChart`].
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis label, e.g. `"Buffer capacity [kB]"`.
    pub label: String,
    /// Render the axis logarithmically (base 10).
    pub log: bool,
}

impl Axis {
    /// A linear axis.
    #[must_use]
    pub fn linear(label: impl Into<String>) -> Self {
        Axis {
            label: label.into(),
            log: false,
        }
    }

    /// A logarithmic axis.
    #[must_use]
    pub fn log(label: impl Into<String>) -> Self {
        Axis {
            label: label.into(),
            log: true,
        }
    }

    fn transform(&self, v: f64) -> Option<f64> {
        if self.log {
            (v > 0.0).then(|| v.log10())
        } else {
            Some(v)
        }
    }
}

/// A named data series for [`AsciiChart`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
    /// The glyph used to draw the series.
    pub glyph: char,
}

impl Series {
    /// Creates a series with the given glyph.
    #[must_use]
    pub fn new(name: impl Into<String>, glyph: char, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
            glyph,
        }
    }
}

/// A terminal chart: a fixed-size grid onto which series are scattered.
#[derive(Debug, Clone, PartialEq)]
pub struct AsciiChart {
    /// Chart title.
    pub title: String,
    /// Horizontal axis.
    pub x: Axis,
    /// Vertical axis.
    pub y: Axis,
    /// The series to draw.
    pub series: Vec<Series>,
    /// Grid width in characters.
    pub width: usize,
    /// Grid height in characters.
    pub height: usize,
}

impl AsciiChart {
    /// Creates a chart with the default 64×20 grid.
    #[must_use]
    pub fn new(title: impl Into<String>, x: Axis, y: Axis, series: Vec<Series>) -> Self {
        AsciiChart {
            title: title.into(),
            x,
            y,
            series,
            width: 64,
            height: 20,
        }
    }
}

/// Renders the chart to a multi-line string.
///
/// Points with non-positive coordinates on a log axis are dropped. Returns
/// a note instead of a grid if no point survives.
#[must_use]
pub fn render_ascii_chart(chart: &AsciiChart) -> String {
    let mut pts: Vec<(usize, f64, f64)> = Vec::new();
    for (idx, s) in chart.series.iter().enumerate() {
        for &(x, y) in &s.points {
            if let (Some(tx), Some(ty)) = (chart.x.transform(x), chart.y.transform(y)) {
                if tx.is_finite() && ty.is_finite() {
                    pts.push((idx, tx, ty));
                }
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", chart.title);
    if pts.is_empty() {
        let _ = writeln!(out, "(no drawable points)");
        return out;
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, x, y) in &pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }

    let w = chart.width;
    let h = chart.height;
    let mut grid = vec![vec![' '; w]; h];
    for &(idx, x, y) in &pts {
        let cx = (((x - x_min) / (x_max - x_min)) * (w - 1) as f64).round() as usize;
        let cy = (((y - y_min) / (y_max - y_min)) * (h - 1) as f64).round() as usize;
        let row = h - 1 - cy.min(h - 1);
        let col = cx.min(w - 1);
        grid[row][col] = chart.series[idx].glyph;
    }

    let back = |axis: &Axis, v: f64| -> f64 {
        if axis.log {
            10f64.powf(v)
        } else {
            v
        }
    };
    let _ = writeln!(
        out,
        "{} in [{:.3}, {:.3}]{}",
        chart.y.label,
        back(&chart.y, y_min),
        back(&chart.y, y_max),
        if chart.y.log { " (log)" } else { "" }
    );
    for row in &grid {
        let _ = writeln!(out, "|{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "{} in [{:.3}, {:.3}]{}",
        chart.x.label,
        back(&chart.x, x_min),
        back(&chart.x, x_max),
        if chart.x.log { " (log)" } else { "" }
    );
    for s in &chart.series {
        let _ = writeln!(out, "  {} {}", s.glyph, s.name);
    }
    out
}

/// One CSV field as written: quoted, with its quotes doubled, when it
/// holds a comma, a quote or a newline, and borrowed unchanged otherwise.
#[must_use]
pub fn csv_field(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// Appends `value` with `decimals` decimals to `out`: byte for byte what
/// `write!(out, "{value:.decimals$}")` appends, in integer arithmetic.
///
/// A finite `value` is `m·2^e` with an integer `m < 2^53`, so
/// `value·10^d = m·10^d·2^e`: a left shift for `e ≥ 0`, and for `e < 0` a
/// right shift whose remainder rounds half to even, as std's exact mode
/// does. Non-finite values, more than 19 decimals and magnitudes whose
/// digits do not fit a `u64` are written by `write!`.
pub fn write_fixed(out: &mut String, value: f64, decimals: usize) {
    let Some(mut digits) = fixed_digits(value, decimals) else {
        let _ = write!(out, "{value:.decimals$}");
        return;
    };
    // A `u64` has at most 20 digits and `decimals` is at most 19, so the
    // buffer's leading zeros also give a value below one its integer `0`.
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    while digits > 0 {
        start -= 1;
        buf[start] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    let start = start.min(buf.len() - decimals - 1);
    let text = std::str::from_utf8(&buf[start..]).expect("ASCII digits");
    let (int, fraction) = text.split_at(text.len() - decimals);
    if value.is_sign_negative() {
        out.push('-');
    }
    out.push_str(int);
    if decimals > 0 {
        out.push('.');
        out.push_str(fraction);
    }
}

/// `|value|·10^decimals`, rounded half to even, when `value` is finite,
/// `decimals` is at most 19 and the result fits a `u64`.
fn fixed_digits(value: f64, decimals: usize) -> Option<u64> {
    if !value.is_finite() {
        return None;
    }
    let scale = 10u64.checked_pow(u32::try_from(decimals).ok()?)?;
    let bits = value.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // A subnormal has no implicit bit, and the smallest normal's exponent.
    let (mantissa, exponent) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    // Below 2^53 · 10^19 < 2^117.
    let scaled = u128::from(mantissa) * u128::from(scale);
    let shift = exponent.unsigned_abs();
    let digits = if exponent >= 0 {
        if shift > scaled.leading_zeros() {
            return None;
        }
        scaled << shift
    } else if shift >= 128 {
        // Below half a unit of the last decimal: `scaled` < 2^127.
        0
    } else {
        let (quotient, remainder) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        let up = remainder > half || remainder == half && quotient & 1 == 1;
        quotient + u128::from(up)
    };
    u64::try_from(digits).ok()
}

/// Renders rows of pre-formatted cells as CSV (quoting cells that need
/// it, see [`csv_field`]).
#[must_use]
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let cells: Vec<Cow<'_, str>> = row.iter().map(|c| csv_field(c)).collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_chart() -> AsciiChart {
        AsciiChart::new(
            "demo",
            Axis::log("Streaming bit rate [kbps]"),
            Axis::log("Buffer capacity [kB]"),
            vec![
                Series::new(
                    "required",
                    '*',
                    vec![(32.0, 1.0), (1024.0, 90.0), (4096.0, 400.0)],
                ),
                Series::new("energy", 'o', vec![(32.0, 0.1), (1024.0, 10.0)]),
            ],
        )
    }

    #[test]
    fn chart_contains_title_axes_and_legend() {
        let text = render_ascii_chart(&demo_chart());
        assert!(text.contains("== demo =="));
        assert!(text.contains("Streaming bit rate"));
        assert!(text.contains("* required"));
        assert!(text.contains("o energy"));
        assert!(text.contains('*'));
    }

    #[test]
    fn log_axis_drops_non_positive_points() {
        let chart = AsciiChart::new(
            "empty",
            Axis::log("x"),
            Axis::log("y"),
            vec![Series::new("s", '*', vec![(0.0, 1.0), (-1.0, 2.0)])],
        );
        assert!(render_ascii_chart(&chart).contains("no drawable points"));
    }

    #[test]
    fn chart_handles_single_point() {
        let chart = AsciiChart::new(
            "one",
            Axis::linear("x"),
            Axis::linear("y"),
            vec![Series::new("s", '*', vec![(1.0, 1.0)])],
        );
        let text = render_ascii_chart(&chart);
        assert!(text.contains('*'));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let csv = to_csv(&["a", "b"], &[vec!["1,5".to_owned(), "plain".to_owned()]]);
        assert_eq!(csv, "a,b\n\"1,5\",plain\n");
    }

    #[test]
    fn csv_escapes_quotes() {
        let csv = to_csv(&["x"], &[vec!["he said \"hi\"".to_owned()]]);
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }
}
