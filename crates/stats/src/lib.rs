//! Statistics toolkit for workload characterization studies.
//!
//! This crate provides the numerical machinery behind the IISWC 2010
//! GPGPU workload characterization methodology:
//!
//! * [`Matrix`] — a small dense row-major matrix of `f64`,
//! * [`normalize`] — z-score / min-max column normalization,
//! * [`corr`] — Pearson correlation matrices and correlated-column grouping,
//! * [`pca`] — principal component analysis via cyclic Jacobi
//!   eigendecomposition of the covariance matrix,
//! * [`hclust`] — agglomerative hierarchical clustering with a dendrogram,
//! * [`kmeans`] — k-means (k-means++ seeding) with BIC model selection,
//! * [`describe`] — descriptive statistics helpers.
//!
//! Everything is implemented from scratch on `std` only, so results are
//! fully deterministic and reproducible across platforms.
//!
//! # Example
//!
//! ```
//! use gwc_stats::{Matrix, normalize::zscore, pca::Pca};
//!
//! # fn main() -> Result<(), gwc_stats::StatsError> {
//! // Four observations of three (partly redundant) variables.
//! let data = Matrix::from_rows(&[
//!     vec![1.0, 2.0, 1.0],
//!     vec![2.0, 4.0, 0.5],
//!     vec![3.0, 6.0, 1.5],
//!     vec![4.0, 8.0, 0.0],
//! ])?;
//! let (z, _stats) = zscore(&data);
//! let pca = Pca::fit(&z)?;
//! // Columns 0 and 1 are perfectly correlated: two PCs explain everything.
//! assert!(pca.variance_explained(2) > 0.999);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod corr;
pub mod describe;
pub mod distance;
pub mod hclust;
pub mod kmeans;
pub mod matrix;
pub mod normalize;
pub mod pca;

mod error;
mod rng;

pub use error::StatsError;
pub use matrix::{Matrix, MatrixBuilder};
pub(crate) use rng::SplitMix64;
