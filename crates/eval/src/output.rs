//! Experiment output: stdout tables and CSV series.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Prints a section header matching the paper's table/figure ids.
pub fn section(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// Prints an aligned two-column key/value block.
pub fn kv(rows: &[(&str, String)]) {
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<width$}  {v}");
    }
}

/// Renders a report into `out` and flushes it. A reader that stops
/// early (`report <dir> | head`) closes the pipe; that ends the output,
/// not the program, so `BrokenPipe` counts as success.
///
/// # Errors
///
/// Any other error from `render` or the flush.
pub fn emit<W: io::Write>(
    out: &mut W,
    render: impl FnOnce(&mut W) -> io::Result<()>,
) -> io::Result<()> {
    match render(out).and_then(|()| out.flush()) {
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// Writes a CSV file under `out_dir`, creating the directory as needed.
/// Returns the path written.
///
/// # Panics
///
/// Panics if the directory or file cannot be written — experiment output
/// is the whole point of the binaries, so failing loudly is correct.
pub fn write_csv(out_dir: &str, name: &str, header: &str, rows: &[String]) -> PathBuf {
    // crp-lint: allow(CRP001) — documented panic contract, see above.
    try_write_csv(out_dir, name, header, rows).expect("write results csv")
}

/// Fallible form of [`write_csv`] for callers that handle IO errors.
///
/// # Errors
///
/// Returns any error from creating the directory or writing the file.
pub fn try_write_csv(
    out_dir: &str,
    name: &str,
    header: &str,
    rows: &[String],
) -> io::Result<PathBuf> {
    let dir = Path::new(out_dir);
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    println!("  [wrote {}]", path.display());
    Ok(path)
}

/// Writes a gnuplot script rendering a previously-written CSV as the
/// paper-style figure (one line per listed column). Returns the script
/// path; render with `gnuplot results/<name>.gp`.
///
/// # Panics
///
/// Panics if the directory or file cannot be written, or `columns` is
/// empty.
pub fn write_gnuplot(
    out_dir: &str,
    name: &str,
    title: &str,
    ylabel: &str,
    csv_name: &str,
    columns: &[(usize, &str)],
) -> PathBuf {
    assert!(!columns.is_empty(), "need at least one column to plot");
    try_write_gnuplot(out_dir, name, title, ylabel, csv_name, columns)
        // crp-lint: allow(CRP001) — documented panic contract, see above.
        .expect("write gnuplot script")
}

/// Fallible form of [`write_gnuplot`] for callers that handle IO
/// errors. `columns` must be non-empty (checked by the panicking
/// wrapper; here an empty list yields a script with an empty plot
/// list).
///
/// # Errors
///
/// Returns any error from creating the directory or writing the file.
pub fn try_write_gnuplot(
    out_dir: &str,
    name: &str,
    title: &str,
    ylabel: &str,
    csv_name: &str,
    columns: &[(usize, &str)],
) -> io::Result<PathBuf> {
    let dir = Path::new(out_dir);
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.gp"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "set datafile separator ','")?;
    writeln!(f, "set key top left")?;
    writeln!(f, "set title '{title}'")?;
    writeln!(f, "set xlabel 'client (sorted per curve)'")?;
    writeln!(f, "set ylabel '{ylabel}'")?;
    writeln!(f, "set terminal pngcairo size 900,540")?;
    writeln!(f, "set output '{name}.png'")?;
    let plots: Vec<String> = columns
        .iter()
        .map(|(col, label)| format!("'{csv_name}' using 1:{col} with lines lw 2 title '{label}'"))
        .collect();
    writeln!(f, "plot {}", plots.join(", \\\n     "))?;
    println!(
        "  [wrote {} — render with `gnuplot {}`]",
        path.display(),
        path.display()
    );
    Ok(path)
}

/// Sorted copy of a series — the paper plots per-client curves sorted
/// ascending, each curve independently.
pub fn sorted_series(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) of an unsorted series, or `None` if empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let sorted = sorted_series(values);
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx])
}

/// Mean of a series, or `None` if empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Renders a compact quantile summary line for a series.
pub fn summary_line(values: &[f64]) -> String {
    match (
        quantile(values, 0.1),
        quantile(values, 0.5),
        quantile(values, 0.9),
        mean(values),
    ) {
        (Some(p10), Some(p50), Some(p90), Some(m)) => {
            format!(
                "n={} mean={m:.1} p10={p10:.1} p50={p50:.1} p90={p90:.1}",
                values.len()
            )
        }
        _ => "n=0".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_series() {
        let v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(mean(&v), Some(3.0));
    }

    #[test]
    fn empty_series() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(summary_line(&[]), "n=0");
    }

    #[test]
    fn sorted_series_drops_non_finite() {
        let v = vec![2.0, f64::INFINITY, 1.0, f64::NAN];
        assert_eq!(sorted_series(&v), vec![1.0, 2.0]);
    }

    /// A writer whose reader went away, or that fails some other way.
    struct FailingWriter(io::ErrorKind);

    impl io::Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_report_without_an_error() {
        let render = |out: &mut FailingWriter| writeln!(out, "live report: exp");
        let closed = emit(&mut FailingWriter(io::ErrorKind::BrokenPipe), render);
        assert!(closed.is_ok(), "{closed:?}");
        let denied = emit(&mut FailingWriter(io::ErrorKind::PermissionDenied), render);
        assert_eq!(
            denied.map_err(|e| e.kind()),
            Err(io::ErrorKind::PermissionDenied)
        );
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("crp-eval-test");
        let path = write_csv(
            dir.to_str().unwrap(),
            "t.csv",
            "a,b",
            &["1,2".to_owned(), "3,4".to_owned()],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "quantile must be")]
    fn quantile_range_checked() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn gnuplot_script_references_all_columns() {
        let dir = std::env::temp_dir().join("crp-eval-gp-test");
        let path = write_gnuplot(
            dir.to_str().unwrap(),
            "figx",
            "a title",
            "ms",
            "figx.csv",
            &[(2, "alpha"), (3, "beta")],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("using 1:2"));
        assert!(content.contains("using 1:3"));
        assert!(content.contains("'alpha'"));
        assert!(content.contains("set output 'figx.png'"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn gnuplot_requires_columns() {
        let dir = std::env::temp_dir().join("crp-eval-gp-test2");
        let _ = write_gnuplot(dir.to_str().unwrap(), "f", "t", "y", "f.csv", &[]);
    }
}
