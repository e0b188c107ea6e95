//! Device error codes, mirroring OCSSD 2.0 status values.

use crate::addr::{ChunkAddr, Ppa};
use crate::chunk::ChunkState;
use std::fmt;

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// Errors returned by the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The configured geometry fails validation (see `Geometry::validate`).
    InvalidGeometry(String),
    /// Address outside the device geometry.
    InvalidAddress(Ppa),
    /// Write did not start at the chunk's write pointer.
    WritePointerMismatch {
        /// Offending chunk.
        chunk: ChunkAddr,
        /// Where the device expected the write to start.
        expected: u32,
        /// Where the host tried to write.
        got: u32,
    },
    /// Write length is not a positive multiple of `ws_min`, or overflows the
    /// chunk.
    InvalidWriteSize {
        /// Offending chunk.
        chunk: ChunkAddr,
        /// Sectors the host tried to write.
        sectors: u32,
    },
    /// Operation illegal in the chunk's current state (e.g. write to a
    /// closed chunk, reset of a free chunk).
    InvalidChunkState {
        /// Offending chunk.
        chunk: ChunkAddr,
        /// State the chunk was in.
        state: ChunkState,
    },
    /// Read of a logical block that has not been written.
    ReadUnwritten(Ppa),
    /// The chunk has gone offline (worn out or grown bad).
    ChunkOffline(ChunkAddr),
    /// A program or erase failed; the chunk is now offline and the host must
    /// re-place its data elsewhere.
    MediaFailure(ChunkAddr),
    /// A read exhausted ECC correction on this sector. The command may be
    /// retried (read-retry voltages can recover transient exhaustion); data
    /// that stays unreadable must come from higher-level redundancy.
    UncorrectableRead(Ppa),
    /// Buffer length does not match the sector count of the command.
    BufferSizeMismatch {
        /// Bytes expected.
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
}

impl DeviceError {
    /// Whether this error takes the addressed chunk out of circulation: the
    /// program or erase failed, the chunk is offline, or it sits in a state
    /// the command is illegal in (a program failure freezes a written chunk
    /// `Closed`). The host retires the chunk and re-places the data; every
    /// other error says something about the command, not the chunk. The
    /// command-side twin of [`crate::MediaEventKind::retires_chunk`].
    pub fn retires_chunk(&self) -> bool {
        matches!(
            self,
            DeviceError::MediaFailure(_)
                | DeviceError::ChunkOffline(_)
                | DeviceError::InvalidChunkState { .. }
        )
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidGeometry(why) => write!(f, "invalid geometry: {why}"),
            DeviceError::InvalidAddress(p) => write!(f, "invalid address {p}"),
            DeviceError::WritePointerMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "write pointer mismatch on {chunk}: expected sector {expected}, got {got}"
            ),
            DeviceError::InvalidWriteSize { chunk, sectors } => {
                write!(f, "invalid write size on {chunk}: {sectors} sectors")
            }
            DeviceError::InvalidChunkState { chunk, state } => {
                write!(f, "operation illegal on {chunk} in state {state:?}")
            }
            DeviceError::ReadUnwritten(p) => write!(f, "read of unwritten block {p}"),
            DeviceError::ChunkOffline(c) => write!(f, "chunk {c} is offline"),
            DeviceError::MediaFailure(c) => write!(f, "media failure on {c}"),
            DeviceError::UncorrectableRead(p) => {
                write!(f, "uncorrectable read (ECC exhausted) at {p}")
            }
            DeviceError::BufferSizeMismatch { expected, got } => {
                write!(
                    f,
                    "buffer size mismatch: expected {expected} bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_messages() {
        let e = DeviceError::WritePointerMismatch {
            chunk: ChunkAddr::new(1, 2, 3),
            expected: 24,
            got: 48,
        };
        let s = format!("{e}");
        assert!(s.contains("g1p2c3"));
        assert!(s.contains("24"));
        assert!(s.contains("48"));
        let e2 = DeviceError::ReadUnwritten(Ppa::new(0, 0, 0, 9));
        assert!(format!("{e2}").contains("g0p0c0s9"));
    }

    #[test]
    fn only_chunk_failures_retire_the_chunk() {
        let c = ChunkAddr::new(0, 1, 2);
        let state = ChunkState::Closed;
        assert!(DeviceError::MediaFailure(c).retires_chunk());
        assert!(DeviceError::ChunkOffline(c).retires_chunk());
        assert!(DeviceError::InvalidChunkState { chunk: c, state }.retires_chunk());
        assert!(!DeviceError::UncorrectableRead(c.ppa(0)).retires_chunk());
        assert!(!DeviceError::InvalidWriteSize {
            chunk: c,
            sectors: 3
        }
        .retires_chunk());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DeviceError::ChunkOffline(ChunkAddr::new(0, 0, 0)));
    }
}
