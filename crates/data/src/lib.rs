//! # tnet-data
//!
//! Transportation transaction data model, binning, OD-graph construction,
//! and a synthetic generator calibrated to the ICDE 2005 paper's published
//! dataset statistics (the proprietary Schneider National data is not
//! available; see DESIGN.md for the substitution argument).
//!
//! ```
//! use tnet_data::synth::{generate, SynthConfig};
//! use tnet_data::binning::BinScheme;
//! use tnet_data::od_graph::{build_od_graph, EdgeLabeling, VertexLabeling};
//!
//! let ds = generate(&SynthConfig::scaled(0.01));
//! let scheme = BinScheme::paper_defaults();
//! let od_gw = build_od_graph(
//!     &ds.transactions,
//!     &scheme,
//!     EdgeLabeling::GrossWeight,
//!     VertexLabeling::Uniform,
//! );
//! assert!(od_gw.graph.edge_count() == ds.transactions.len());
//! ```

pub mod binning;
pub mod csv;
pub mod geo;
pub mod model;
pub mod od_graph;
pub mod stats;
pub mod synth;

pub use binning::{BinFitError, BinScheme, Binner};
pub use model::{Date, LatLon, RawTransaction, TransMode, Transaction};
pub use od_graph::{build_od_graph, EdgeLabeling, OdGraph, VertexLabeling};
pub use stats::{dataset_stats, DatasetStats};
pub use synth::{generate, try_generate, Dataset, SynthConfig, SynthConfigError};
