//! Typed storage errors and the scrub report.
//!
//! Every fallible operation in this crate reports a [`StorageError`]
//! instead of a bare `String`, and every variant is one the file store
//! produces: an OS I/O failure, a checksum mismatch, damaged geometry, a
//! bad `.meta` header, an unsupported format version or an interrupted
//! mutation. Errors are
//! detected and typed, never retried: no path in this workspace repeats
//! a failed transfer, so a caller sees the first failure as it happened.
//! The legacy `Result<_, String>` surfaces keep working through the
//! `From<StorageError> for String` impl.

use std::fmt;

/// Everything that can go wrong in the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error, with the operation that hit it.
    Io {
        /// What the store was doing (`"read block 7"`, `"fsync meta"`, …).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A block's stored CRC32 does not match its contents.
    Checksum {
        /// The corrupt block's ordinal.
        block: usize,
        /// CRC recorded in the checksum sidecar.
        stored: u32,
        /// CRC computed from the block bytes just read.
        computed: u32,
    },
    /// The blocks (or sidecar) file is smaller than the geometry needs.
    Geometry {
        /// Bytes the declared geometry requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The `.meta` header failed to parse.
    Meta(String),
    /// The `.meta` header declares a format version this build does not
    /// open: the retired checksum-less v1, or one newer than
    /// [`V3_FORMAT_VERSION`](crate::wsfile::V3_FORMAT_VERSION).
    UnsupportedVersion(u32),
    /// The `.meta` header carries the mutation-in-flight mark: blocks
    /// were written after the store's last sync and that mutation never
    /// finished, so the store may equal no state it ever had
    /// (`docs/FORMAT.md` §5).
    Interrupted,
}

impl StorageError {
    /// Convenience constructor for [`StorageError::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        StorageError::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "i/o error ({context}): {source}"),
            StorageError::Checksum {
                block,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in block {block}: sidecar has {stored:#010x}, \
                 contents hash to {computed:#010x}"
            ),
            StorageError::Geometry { expected, actual } => {
                write!(f, "store holds {actual} bytes, geometry needs {expected}")
            }
            StorageError::Meta(msg) => write!(f, "bad meta header: {msg}"),
            StorageError::UnsupportedVersion(v) => write!(
                f,
                "unsupported .ws format version {v} (this build opens versions 2 and 3)"
            ),
            StorageError::Interrupted => write!(
                f,
                "interrupted mutation: blocks were written after the store's last sync \
                 (`.meta` carries `mutating = 1`), so it may hold a torn state; restore \
                 it from a copy or rebuild it"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for String {
    fn from(e: StorageError) -> String {
        e.to_string()
    }
}

/// The result of a full-file scrub ([`WsFile::verify`](crate::WsFile::verify)
/// or [`FileBlockStore::scrub`](crate::FileBlockStore::scrub)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks scanned.
    pub blocks: usize,
    /// Ordinals of blocks whose contents no longer match their CRC.
    pub corrupt: Vec<usize>,
}

impl ScrubReport {
    /// Whether the scan found the store fully intact.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.corrupt.is_empty() {
            write!(f, "{} blocks, all checksums match", self.blocks)
        } else {
            write!(
                f,
                "{} blocks, {} CORRUPT: {:?}",
                self.blocks,
                self.corrupt.len(),
                self.corrupt
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::Checksum {
            block: 5,
            stored: 0xdeadbeef,
            computed: 0x12345678,
        };
        let s = e.to_string();
        assert!(s.contains("block 5") && s.contains("0xdeadbeef"), "{s}");
        let s: String = StorageError::UnsupportedVersion(1).into();
        assert!(s.contains("version 1"));
    }

    #[test]
    fn scrub_report_display() {
        let clean = ScrubReport {
            blocks: 4,
            corrupt: vec![],
        };
        assert!(clean.is_clean());
        assert!(clean.to_string().contains("all checksums match"));
        let bad = ScrubReport {
            blocks: 4,
            corrupt: vec![2],
        };
        assert!(!bad.is_clean());
        assert!(bad.to_string().contains("CORRUPT"));
    }

    #[test]
    fn error_chain_reaches_the_root_cause() {
        use std::error::Error as _;
        let e = StorageError::io(
            "read block 3",
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read"),
        );
        assert!(e.to_string().contains("read block 3"), "{e}");
        assert!(e.source().unwrap().to_string().contains("short read"));
    }
}
