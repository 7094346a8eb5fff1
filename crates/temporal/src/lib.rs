//! # tnet-temporal
//!
//! The temporal mining layer: mines tumbling or sliding windows of
//! hour/day/week units (ROADMAP item 3), each on its own as the paper's
//! §6 mines each temporal partition, and detects *flow patterns* —
//! binned weight moving along short paths across consecutive windows,
//! after Kosyfaki et al.'s spatio-temporal flow model — together with
//! hub surges, deadhead cycles, and air-freight outliers.
//!
//! The driver materializes all units once ([`tnet_partition::unit_partition`]),
//! freezes them into a single CSR [`TxnSet`], and mines each window as a
//! zero-copy contiguous slice of it. Windows share no mining state, so
//! each window's output is exactly what mining that window's graphs
//! alone produces, at any thread count.
//!
//! ```
//! use tnet_data::{binning::BinScheme, generate, SynthConfig};
//! use tnet_fsg::{FsgConfig, Support};
//! use tnet_partition::{Granularity, TemporalOptions, WindowSpec};
//! use tnet_temporal::{run_windows, TemporalConfig};
//!
//! let ds = generate(&SynthConfig::scaled(0.01));
//! let fsg = FsgConfig::default()
//!     .with_support(Support::Count(5))
//!     .with_max_edges(2);
//! let cfg = TemporalConfig::new(WindowSpec::tumbling(Granularity::Week, 1).unwrap())
//!     .with_fsg(fsg);
//! let run = run_windows(
//!     &ds.transactions,
//!     &BinScheme::paper_defaults(),
//!     &TemporalOptions::default(),
//!     &cfg,
//!     &tnet_exec::Exec::sequential(),
//! )
//! .unwrap();
//! assert!(!run.windows.is_empty());
//! ```

pub mod flow;

pub use flow::{
    attribute, detect_flows, CycleEvent, FlowAttribution, FlowConfig, FlowPath, FlowReport,
    HubSurge,
};

use tnet_data::binning::BinScheme;
use tnet_data::model::Transaction;
use tnet_exec::Exec;
use tnet_fsg::{mine_source, FsgConfig, FsgError, FsgOutput};
use tnet_graph::frozen::TxnSet;
use tnet_partition::{unit_partition, Granularity, TemporalError, TemporalOptions, WindowSpec};

/// Errors from the window driver: partitioning (bad dates, degenerate
/// window specs) or mining (memory budget exhaustion).
#[derive(Debug)]
pub enum TemporalRunError {
    Partition(TemporalError),
    Mine(FsgError),
}

impl std::fmt::Display for TemporalRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemporalRunError::Partition(e) => write!(f, "{e}"),
            TemporalRunError::Mine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TemporalRunError {}

impl From<TemporalError> for TemporalRunError {
    fn from(e: TemporalError) -> Self {
        TemporalRunError::Partition(e)
    }
}

impl From<FsgError> for TemporalRunError {
    fn from(e: FsgError) -> Self {
        TemporalRunError::Mine(e)
    }
}

/// Window-driver configuration.
#[derive(Clone, Debug)]
pub struct TemporalConfig {
    /// Granularity, width, and slide of the windows.
    pub spec: WindowSpec,
    /// The per-window miner configuration.
    pub fsg: FsgConfig,
}

impl TemporalConfig {
    /// Window mining with default FSG settings.
    pub fn new(spec: WindowSpec) -> TemporalConfig {
        TemporalConfig {
            spec,
            fsg: FsgConfig::default(),
        }
    }

    pub fn with_fsg(mut self, fsg: FsgConfig) -> TemporalConfig {
        self.fsg = fsg;
        self
    }
}

/// One mined window.
#[derive(Debug)]
pub struct WindowResult {
    /// Unit range `[unit_lo, unit_hi)` relative to the partition's
    /// `first_unit`.
    pub unit_lo: usize,
    pub unit_hi: usize,
    /// Backing transaction range in the frozen universe.
    pub txn_lo: usize,
    pub txn_hi: usize,
    /// Full miner output for this window (window-local TIDs).
    pub output: FsgOutput,
}

/// Everything a windowed run produced.
#[derive(Debug)]
pub struct TemporalRun {
    pub granularity: Granularity,
    /// Absolute unit index of unit 0 (days/hours/weeks since epoch).
    pub first_unit: u64,
    /// Units covered (including empty ones).
    pub units: usize,
    /// Graph transactions across all units.
    pub total_txns: usize,
    pub windows: Vec<WindowResult>,
    /// Window counters (`session.*` metrics).
    pub session: WindowStats,
}

/// Per-run window counters. Every window is mined from scratch, so
/// each one is also a full count: `session.windows` and
/// `session.full_recounts` both read the window count.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Windows mined.
    pub windows: usize,
}

impl WindowStats {
    /// Folds the counters into a metrics registry.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("session.windows", self.windows as u64);
        metrics.add("session.full_recounts", self.windows as u64);
    }
}

impl TemporalRun {
    /// Folds the run's counters into a metrics registry.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        self.session.record_into(metrics);
        metrics.add("window.units", self.units as u64);
        metrics.add("window.txns", self.total_txns as u64);
    }
}

/// Partitions `txns` into units, freezes them once, and mines every
/// window of `cfg.spec` as a slice of that one frozen set. Each
/// window's patterns carry window-local TIDs.
///
/// # Errors
/// [`TemporalRunError::Partition`] on invalid dates or window specs,
/// [`TemporalRunError::Mine`] if a window's mining exceeds the memory
/// budget.
pub fn run_windows(
    txns: &[Transaction],
    scheme: &BinScheme,
    opts: &TemporalOptions,
    cfg: &TemporalConfig,
    exec: &Exec,
) -> Result<TemporalRun, TemporalRunError> {
    let up = unit_partition(txns, scheme, cfg.spec.granularity, opts)?;
    let set = TxnSet::freeze(&up.graphs);
    let mut windows = Vec::new();
    for (ulo, uhi) in cfg.spec.windows(up.units()) {
        let (lo, hi) = up.txn_range(ulo, uhi);
        let output = mine_source(&set.slice(lo, hi), &cfg.fsg, exec)?;
        windows.push(WindowResult {
            unit_lo: ulo,
            unit_hi: uhi,
            txn_lo: lo,
            txn_hi: hi,
            output,
        });
    }
    Ok(TemporalRun {
        granularity: cfg.spec.granularity,
        first_unit: up.first_unit,
        units: up.units(),
        total_txns: up.graphs.len(),
        session: WindowStats {
            windows: windows.len(),
        },
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_data::{generate, SynthConfig};
    use tnet_fsg::{mine_with, Support};

    fn small_dataset() -> Vec<Transaction> {
        generate(&SynthConfig::scaled(0.01)).transactions
    }

    fn fsg_cfg() -> FsgConfig {
        FsgConfig::default()
            .with_support(Support::Count(3))
            .with_max_edges(3)
    }

    #[test]
    fn sliding_day_run_matches_fresh_mining() {
        let txns = small_dataset();
        let scheme = BinScheme::paper_defaults();
        let opts = TemporalOptions::default();
        let exec = Exec::sequential();
        let spec = WindowSpec::new(Granularity::Day, 7, 1).unwrap();
        let cfg = TemporalConfig::new(spec).with_fsg(fsg_cfg());
        let run = run_windows(&txns, &scheme, &opts, &cfg, &exec).unwrap();
        assert_eq!(run.session.windows, run.windows.len());
        // Ground truth: independent full mining of each window's graphs.
        let up = unit_partition(&txns, &scheme, Granularity::Day, &opts).unwrap();
        for w in &run.windows {
            let graphs = up.window_graphs(w.unit_lo, w.unit_hi);
            let full = mine_with(graphs, &fsg_cfg(), &exec).unwrap();
            assert_eq!(w.output.patterns.len(), full.patterns.len());
            for (a, b) in w.output.patterns.iter().zip(&full.patterns) {
                assert_eq!(a.support, b.support);
                assert_eq!(a.tids, b.tids);
            }
        }
    }

    #[test]
    fn inverted_dates_surface_as_partition_error() {
        let mut txns = small_dataset();
        txns[0].req_pickup = tnet_data::Date(40);
        txns[0].req_delivery = tnet_data::Date(2);
        let cfg = TemporalConfig::new(WindowSpec::tumbling(Granularity::Day, 7).unwrap());
        let err = run_windows(
            &txns,
            &BinScheme::paper_defaults(),
            &TemporalOptions::default(),
            &cfg,
            &Exec::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, TemporalRunError::Partition(_)));
    }
}
