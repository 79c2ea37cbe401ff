//! Output plumbing: console tables and CSV files under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hdb_stats::Figure;

/// Locates (and creates) the `results/` directory next to the workspace
/// root, falling back to the current directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    // target layout: <workspace>/results; the binaries run from the
    // workspace root under `cargo run`, so a relative path is fine.
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    dir.to_path_buf()
}

/// Prints a figure as a console table and writes `results/<stem>.csv`.
/// IO failures are reported to stderr but never abort an experiment run.
pub fn emit(figure: &Figure, stem: &str) {
    println!("{}", figure.to_table());
    let path = results_dir().join(format!("{stem}.csv"));
    match fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(figure.to_csv().as_bytes()) {
                eprintln!("warning: failed writing {}: {e}", path.display());
            } else {
                println!("→ wrote {}\n", path.display());
            }
        }
        Err(e) => eprintln!("warning: failed creating {}: {e}", path.display()),
    }
}

/// Where a scale experiment's machine-readable record `name` goes: the
/// workspace root, where the committed perf trajectory lives, for a
/// full-scale run; `results/` (gitignored) for a quick one, so a smoke
/// run never overwrites a committed number with reduced-scale ones.
#[must_use]
pub fn bench_json_path(name: &str, quick: bool) -> PathBuf {
    if quick {
        results_dir().join(name)
    } else {
        PathBuf::from(name)
    }
}

/// Writes a scale experiment's `BENCH_*.json` record to
/// [`bench_json_path`] for this run. IO failures are reported to stderr
/// but never abort an experiment run.
pub fn write_bench_json(name: &str, json: &str) {
    let path = bench_json_path(name, crate::scale::quick_requested());
    match fs::write(&path, json) {
        Ok(()) => println!("→ wrote {}\n", path.display()),
        Err(e) => eprintln!("warning: failed writing {}: {e}", path.display()),
    }
}

/// Prints a free-form note (section header) for experiment logs.
pub fn note(text: &str) {
    println!("=== {text} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_stats::Series;

    #[test]
    fn emit_writes_csv() {
        let mut fig = Figure::new("t", "x", "y");
        fig.add(Series::from_points("s", vec![(1.0, 2.0)]));
        emit(&fig, "unit_test_emit");
        let path = results_dir().join("unit_test_emit.csv");
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,s"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn quick_bench_records_stay_out_of_the_workspace_root() {
        assert_eq!(bench_json_path("BENCH_x.json", false), PathBuf::from("BENCH_x.json"));
        assert_eq!(bench_json_path("BENCH_x.json", true), results_dir().join("BENCH_x.json"));
    }
}
