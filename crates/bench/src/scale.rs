//! Experiment scaling: paper-scale by default, reducible for smoke runs.
//!
//! Every figure binary honours:
//! * `--quick` (or env `HDB_QUICK=1`) — small datasets and few trials, a
//!   couple of seconds per figure; shapes still hold.
//! * env `HDB_ROWS`, `HDB_TRIALS` — explicit overrides.

/// Dataset / trial sizing for one experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Rows for the Boolean synthetic datasets (paper: 200,000).
    pub bool_rows: usize,
    /// Rows for the Yahoo! Auto dataset (paper: 188,790).
    pub yahoo_rows: usize,
    /// Independent trials per configuration (for MSE/error-bar
    /// estimation).
    pub trials: u64,
}

impl Scale {
    /// Paper-scale parameters.
    #[must_use]
    pub fn paper() -> Self {
        Self { bool_rows: 200_000, yahoo_rows: 188_790, trials: 40 }
    }

    /// Smoke-test scale: minutes become seconds, shapes are preserved.
    #[must_use]
    pub fn quick() -> Self {
        Self { bool_rows: 20_000, yahoo_rows: 20_000, trials: 12 }
    }

    /// Resolves the scale from the process arguments and environment.
    #[must_use]
    pub fn from_args() -> Self {
        let mut scale = if quick_requested() { Self::quick() } else { Self::paper() };
        if let Some(rows) = env_usize("HDB_ROWS") {
            scale.bool_rows = rows;
            scale.yahoo_rows = rows;
        }
        if let Some(trials) = env_usize("HDB_TRIALS") {
            scale.trials = trials as u64;
        }
        scale
    }
}

/// Whether this run is a reduced-scale smoke: `--quick` among the
/// process arguments, or `HDB_QUICK=1` (or `true`) in the environment.
#[must_use]
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("HDB_QUICK").is_ok_and(|v| v == "1" || v == "true")
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper() {
        let s = Scale::paper();
        assert_eq!(s.bool_rows, 200_000);
        assert_eq!(s.yahoo_rows, 188_790);
    }

    #[test]
    fn quick_is_smaller() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.bool_rows < p.bool_rows);
        assert!(q.trials < p.trials);
    }
}
