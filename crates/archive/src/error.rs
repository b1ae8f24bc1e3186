//! Error type for archive operations.

use std::error::Error;
use std::fmt;

/// Error raised by archive containers and stores.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArchiveError {
    /// A coordinate was outside the container bounds.
    OutOfBounds {
        /// Row (or index) requested.
        row: usize,
        /// Column requested (0 for 1-D containers).
        col: usize,
        /// Number of rows (or length) of the container.
        rows: usize,
        /// Number of columns of the container (1 for 1-D containers).
        cols: usize,
    },
    /// Construction was attempted with dimensions that do not match the
    /// supplied buffer.
    DimensionMismatch {
        /// Expected element count.
        expected: usize,
        /// Supplied element count.
        actual: usize,
    },
    /// A container was constructed with a zero dimension.
    EmptyDimension,
    /// Two datasets that must be aligned (same shape/extent) were not.
    Misaligned(String),
    /// A dataset id was not present in the catalog.
    UnknownDataset(String),
    /// An injected or simulated I/O failure from a fallible page store.
    PageIo {
        /// Page index whose read failed.
        page: usize,
    },
    /// The page's circuit breaker has tripped: enough consecutive failures
    /// were observed that the store refuses further attempts and fails
    /// fast without retrying.
    PageQuarantined {
        /// Page index under quarantine.
        page: usize,
    },
    /// The page was read, but its payload failed checksum verification —
    /// silent corruption detected by the integrity layer
    /// ([`crate::integrity`]).
    PageCorrupt {
        /// Page index whose payload failed verification.
        page: usize,
    },
    /// The append journal's writer crashed mid-write (a torn write, a
    /// partial record, or a device that stopped persisting at a byte
    /// offset — see [`crate::fault::WriteFault`]). The in-memory state is
    /// gone; only the bytes persisted before the crash survive, and
    /// recovery ([`crate::journal::recover`]) restores exactly the
    /// committed prefix.
    JournalCrashed {
        /// Number of journal bytes that made it to stable storage.
        persisted_bytes: usize,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::OutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(f, "coordinate ({row}, {col}) outside bounds {rows}x{cols}"),
            ArchiveError::DimensionMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match expected {expected}"
            ),
            ArchiveError::EmptyDimension => write!(f, "container dimension must be non-zero"),
            ArchiveError::Misaligned(what) => write!(f, "datasets misaligned: {what}"),
            ArchiveError::UnknownDataset(id) => write!(f, "unknown dataset id: {id}"),
            ArchiveError::PageIo { page } => write!(f, "i/o failure reading page {page}"),
            ArchiveError::PageQuarantined { page } => {
                write!(f, "page {page} is quarantined after repeated failures")
            }
            ArchiveError::PageCorrupt { page } => {
                write!(f, "page {page} payload failed checksum verification")
            }
            ArchiveError::JournalCrashed { persisted_bytes } => {
                write!(
                    f,
                    "journal writer crashed; {persisted_bytes} bytes persisted"
                )
            }
        }
    }
}

impl Error for ArchiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ArchiveError::OutOfBounds {
            row: 4,
            col: 7,
            rows: 2,
            cols: 2,
        };
        assert_eq!(e.to_string(), "coordinate (4, 7) outside bounds 2x2");
        let e = ArchiveError::DimensionMismatch {
            expected: 12,
            actual: 10,
        };
        assert!(e.to_string().contains("12"));
        assert!(ArchiveError::EmptyDimension
            .to_string()
            .contains("non-zero"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchiveError>();
    }
}
