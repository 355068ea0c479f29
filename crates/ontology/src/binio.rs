//! Versioned binary persistence: the compact length-prefixed format behind
//! durable checkpoints and millisecond warm-starts.
//!
//! The text dump ([`crate::io`]) is the human-facing, diff-friendly
//! serialisation; `binio` is the machine-facing one. A checkpoint file is a
//! small container of named **sections**:
//!
//! ```text
//! magic   "GIANTBIN"                     (8 bytes)
//! version u32                           (format version, currently 1)
//! count   u32                           (number of sections)
//! per section:
//!   name      str   (u32 length + UTF-8 bytes)
//!   length    u64   (payload bytes)
//!   checksum  u64   (FNV-1a 64 over the name bytes then the payload)
//!   payload   [u8]
//! ```
//!
//! Every primitive is little-endian and length-prefixed; `f64`/`f32` are
//! serialised as their IEEE-754 bit patterns, so round trips are **bit
//! exact** — the property the incremental subsystem's byte-identical
//! convergence contract leans on. Checksums are validated per section at
//! read time (a truncated or corrupted file fails with a typed
//! [`BinError`], never a panic or a silently wrong ontology). Maps are
//! written in sorted key order, so the same state always produces the same
//! bytes.
//!
//! This module owns the codecs for the two ontology-level payloads —
//! [`write_ontology`]/[`read_ontology`] and the frozen
//! [`write_snapshot`]/[`read_snapshot`] (restore skips re-freezing: the
//! inverted phrase index, CSR adjacency and ranking lists are read back
//! directly) — and exports the primitives ([`Writer`], [`Reader`],
//! [`SectionFile`]) the higher layers (`giant-core` caches, the
//! `giant-incr` `Checkpoint`, the serving frame in `giant-apps`) build
//! their own sections on.
//!
//! It is also the one place each durability decision is made: the
//! checksummed frame the WAL and the network wire share
//! ([`encode_frame`], [`FrameHeader`]; each caller passes its own length
//! cap and maps [`FrameError`] to its own typed error), and the one
//! atomic-replace recipe ([`replace_file`]) behind
//! [`SectionFile::write_file`] and the WAL's rotation.

use crate::edge::EdgeKind;
use crate::node::{AttentionNode, NodeId, NodeKind, Phrase};
use crate::ontology::Ontology;
use crate::snapshot::{Csr, OntologySnapshot, PhraseEntry};
pub use giant_text::fnv1a64;
use giant_text::fnv1a64_extend;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// The 8-byte container magic.
pub const MAGIC: [u8; 8] = *b"GIANTBIN";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// A malformed or corrupted binary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset (within the payload being decoded) where decoding failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl BinError {
    /// An error at byte `at`.
    pub fn new(at: usize, message: impl Into<String>) -> Self {
        Self {
            at,
            message: message.into(),
        }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for BinError {}

/// Reading a checkpoint file: I/O failure or corrupted contents.
#[derive(Debug)]
pub enum FileError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes were read but are not a valid checkpoint.
    Corrupt(BinError),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            FileError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

impl From<BinError> for FileError {
    fn from(e: BinError) -> Self {
        FileError::Corrupt(e)
    }
}

/// Fsyncs a directory so a preceding rename (or create/unlink) in it is
/// durable. Renaming over a file persists the *data* only after the file
/// was fsynced, and the *directory entry* only after the directory is —
/// without this, a power failure can roll the rename back, losing both the
/// old and the new file. No-op on platforms where directories cannot be
/// opened for syncing.
///
/// Called by [`replace_file`] after its rename and by the WAL's in-place
/// create in `giant-incr`.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Fault-injection support for crash-consistency tests: aborts the process
/// (no unwinding, no buffer flushing — the filesystem state is exactly what
/// a `kill -9` at this instant would leave) when the environment variable
/// `GIANT_CRASH_POINT` is set to `"<label>:<n>"` and this is the `n`-th
/// (1-based) hit of that label.
///
/// When the variable is unset the cost is one relaxed atomic load — the
/// hooks stay compiled into release builds so the crash-consistency suite
/// exercises the exact binaries that ship.
pub fn crash_point(label: &str) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static TARGET: OnceLock<Option<(String, u64)>> = OnceLock::new();
    static HITS: AtomicU64 = AtomicU64::new(0);
    let target = TARGET.get_or_init(|| {
        let spec = std::env::var("GIANT_CRASH_POINT").ok()?;
        let (name, nth) = spec.rsplit_once(':')?;
        Some((name.to_owned(), nth.parse().ok()?))
    });
    if let Some((name, nth)) = target {
        if name == label && HITS.fetch_add(1, Ordering::Relaxed) + 1 == *nth {
            std::process::abort();
        }
    }
}

/// Per-section checksum covering the section **name and** payload — a bit
/// flip in the name (which would silently re-route lookups) is caught the
/// same as one in the data.
fn section_checksum(name: &str, payload: &[u8]) -> u64 {
    fnv1a64_extend(fnv1a64(name.as_bytes()), payload)
}

/// Atomically replaces `path` with `bytes`, the one recipe behind every
/// file the durability surface swaps in whole: write a sibling temp file
/// (the full file name plus `tmp_suffix`, so siblings sharing a stem never
/// collide), `fsync` it, rename it over `path`, then `fsync` the
/// directory. A crash at any instant leaves either the old or the new
/// file, never a torn one, and never a rename persisted ahead of its data
/// blocks. The crash points `<label>.pre-rename` and `<label>.post-rename`
/// bracket the rename.
///
/// Returns the open handle of the new file, positioned after `bytes`
/// (the WAL keeps appending through it).
pub fn replace_file(
    path: &Path,
    tmp_suffix: &str,
    bytes: &[u8],
    label: &str,
) -> std::io::Result<std::fs::File> {
    use std::io::Write as _;
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_os_string();
    tmp_name.push(tmp_suffix);
    let tmp = path.with_file_name(tmp_name);
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(bytes)?;
    // Without this, many filesystems may persist the rename before the
    // data, losing BOTH the old and the new file on power failure.
    file.sync_all()?;
    crash_point(&format!("{label}.pre-rename"));
    std::fs::rename(&tmp, path)?;
    crash_point(&format!("{label}.post-rename"));
    // The rename itself is only durable once the directory's own
    // metadata reaches disk.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fsync_dir(dir)?;
    }
    Ok(file)
}

// ---------------------------------------------------------------------------
// The checksummed frame: WAL entries and wire messages.

/// Bytes of a frame header: `len u32 | id u64 | checksum u64`, followed
/// by `len` payload bytes. The one frame layout of the WAL (`id` = sequence
/// number) and the network wire (`id` = request id); each caller passes
/// its own payload cap and maps [`FrameError`] to its own typed error.
pub const FRAME_HEADER: usize = 4 + 8 + 8;

/// Checksum of one `id ‖ payload` frame: FNV-1a over the id's 8
/// little-endian bytes, continued over the payload.
fn frame_checksum(id: u64, payload: &[u8]) -> u64 {
    fnv1a64_extend(fnv1a64(&id.to_le_bytes()), payload)
}

/// A frame that breaks the caller's length cap or its own checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A payload (announced or to be encoded) longer than the cap.
    TooLarge {
        /// The offending payload length.
        len: u64,
        /// The caller's cap.
        max: u32,
    },
    /// The stored checksum does not cover `id ‖ payload`.
    ChecksumMismatch {
        /// The id field as read (untrustworthy, for diagnostics only).
        id: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::ChecksumMismatch { id } => {
                write!(f, "frame checksum mismatch (id field read as {id})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The `len` field for a `len`-byte payload under a `max`-byte cap.
pub fn frame_len(len: usize, max: u32) -> Result<u32, FrameError> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= max)
        .ok_or(FrameError::TooLarge {
            len: len as u64,
            max,
        })
}

/// Builds one complete frame (header + payload), refusing a payload over
/// `max` bytes before anything is allocated.
pub fn encode_frame(id: u64, payload: &[u8], max: u32) -> Result<Vec<u8>, FrameError> {
    let len = frame_len(payload.len(), max)?;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&frame_checksum(id, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// A parsed frame header, not yet checked against its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    len: u32,
    /// The frame's id: WAL sequence number or wire request id.
    pub id: u64,
    checksum: u64,
}

impl FrameHeader {
    /// Parses the header at the start of `bytes`; `None` when fewer than
    /// [`FRAME_HEADER`] bytes are there (a torn frame).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        let h = bytes.get(..FRAME_HEADER)?;
        let u64_at = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
        Some(Self {
            len: u32::from_le_bytes(h[..4].try_into().expect("4 bytes")),
            id: u64_at(4),
            checksum: u64_at(12),
        })
    }

    /// Reads exactly one header from `stream`.
    pub fn read_from(stream: &mut impl std::io::Read) -> std::io::Result<Self> {
        let mut h = [0u8; FRAME_HEADER];
        stream.read_exact(&mut h)?;
        Ok(Self::parse(&h).expect("a full header"))
    }

    /// The announced payload length, checked against the caller's cap
    /// before anything is sized from it.
    pub fn payload_len(&self, max: u32) -> Result<usize, FrameError> {
        if self.len > max {
            return Err(FrameError::TooLarge {
                len: u64::from(self.len),
                max,
            });
        }
        Ok(self.len as usize)
    }

    /// Checks the stored checksum against `id ‖ payload`.
    pub fn verify(&self, payload: &[u8]) -> Result<(), FrameError> {
        if frame_checksum(self.id, payload) == self.checksum {
            Ok(())
        } else {
            Err(FrameError::ChecksumMismatch { id: self.id })
        }
    }
}

/// Little-endian, length-prefixed binary writer.
///
/// Every length prefix in the format is a `u32`. Since sequence lengths
/// arrive as `usize`, the writer checks each cast instead of wrapping: an
/// oversized count records a **sticky overflow** ([`Writer::overflow`])
/// rather than silently truncating the prefix — an unchecked `as u32`
/// here would write a frame that later scans as "corruption" (the
/// checksum holds but the decoded lengths lie). Durability surfaces
/// (checkpoints, the WAL, the network wire codecs) consult the flag via
/// [`Writer::into_bytes_checked`] / [`SectionFile::write_file`] and turn
/// it into their own typed errors before any byte reaches disk or wire.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    overflow: Option<BinError>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far. Callers on durability paths should
    /// prefer [`Writer::into_bytes_checked`], which refuses to hand out
    /// bytes carrying a length-prefix overflow.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Like [`Writer::into_bytes`], but fails if any length prefix
    /// overflowed the `u32` it is stored in.
    pub fn into_bytes_checked(self) -> Result<Vec<u8>, BinError> {
        match self.overflow {
            Some(e) => Err(e),
            None => Ok(self.buf),
        }
    }

    /// The first length-prefix overflow recorded, if any. Sticky: once a
    /// count failed to fit in `u32`, the writer's output is unusable and
    /// every checked consumer will reject it.
    pub fn overflow(&self) -> Option<&BinError> {
        self.overflow.as_ref()
    }

    /// Writes the `u32` length prefix for a sequence of `n` elements,
    /// returning whether it fit. On overflow a zero prefix is written and
    /// the error recorded (see [`Writer::overflow`]) — never a wrapped
    /// count. Exposed so callers encoding their own sequences (WAL
    /// frames, wire messages) share the same checked discipline.
    pub fn len_prefix(&mut self, n: usize, what: &str) -> bool {
        match u32::try_from(n) {
            Ok(v) => {
                self.u32(v);
                true
            }
            Err(_) => {
                if self.overflow.is_none() {
                    self.overflow = Some(BinError::new(
                        self.buf.len(),
                        format!("{what} length {n} overflows the u32 length prefix"),
                    ));
                }
                self.u32(0);
                false
            }
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        if self.len_prefix(s.len(), "string") {
            self.buf.extend_from_slice(s.as_bytes());
        }
    }

    /// Writes a length-prefixed slice of strings.
    pub fn str_slice(&mut self, xs: &[String]) {
        if self.len_prefix(xs.len(), "string slice") {
            for s in xs {
                self.str(s);
            }
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, xs: &[u32]) {
        if self.len_prefix(xs.len(), "u32 slice") {
            for &x in xs {
                self.u32(x);
            }
        }
    }

    /// Writes a length-prefixed `f64` slice (bit patterns).
    pub fn f64_slice(&mut self, xs: &[f64]) {
        if self.len_prefix(xs.len(), "f64 slice") {
            for &x in xs {
                self.f64(x);
            }
        }
    }

    /// Writes a length-prefixed `f32` slice (bit patterns).
    pub fn f32_slice(&mut self, xs: &[f32]) {
        if self.len_prefix(xs.len(), "f32 slice") {
            for &x in xs {
                self.f32(x);
            }
        }
    }
}

/// Bounds-checked reader over a binary payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless every byte has been consumed — catches truncated writes
    /// and trailing garbage alike.
    pub fn expect_exhausted(&self) -> Result<(), BinError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(BinError::new(
                self.pos,
                format!("{} trailing bytes after payload", self.buf.len() - self.pos),
            ))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                BinError::new(self.pos, format!("truncated payload reading {what}"))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, BinError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(BinError::new(self.pos - 1, format!("bad bool byte {v}"))),
        }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (written as `u64`).
    pub fn usize(&mut self) -> Result<usize, BinError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| BinError::new(self.pos - 8, format!("usize {v} overflows this platform")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, BinError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length, sanity-capped by the bytes actually remaining so a
    /// corrupted length can never trigger a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, BinError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(BinError::new(
                self.pos - 4,
                format!("{what} length {n} exceeds remaining {remaining} bytes"),
            ));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, BinError> {
        let n = self.len(1, "string")?;
        let at = self.pos;
        let bytes = self.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BinError::new(at, "invalid UTF-8 in string"))
    }

    /// Reads a length-prefixed vec of strings.
    pub fn str_vec(&mut self) -> Result<Vec<String>, BinError> {
        let n = self.len(4, "string vec")?;
        (0..n).map(|_| self.str()).collect()
    }

    /// Reads a length-prefixed `u32` vec.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, BinError> {
        let n = self.len(4, "u32 vec")?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a length-prefixed `f64` vec.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, BinError> {
        let n = self.len(8, "f64 vec")?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `f32` vec.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, BinError> {
        let n = self.len(4, "f32 vec")?;
        (0..n).map(|_| self.f32()).collect()
    }
}

/// A named-section checkpoint container (see the [module docs](self) for
/// the byte layout).
#[derive(Debug, Default)]
pub struct SectionFile {
    sections: Vec<(String, Vec<u8>)>,
    /// Sticky: the first length-prefix overflow any added [`Writer`]
    /// carried. A container holding one is refused by
    /// [`SectionFile::write_file`] — it would persist lying lengths.
    overflow: Option<BinError>,
}

impl SectionFile {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section (names should be unique; lookup takes the first).
    pub fn add(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push((name.to_owned(), payload));
    }

    /// Appends a section from a [`Writer`], adopting its overflow flag
    /// (see [`SectionFile::overflow`]).
    pub fn add_writer(&mut self, name: &str, w: Writer) {
        if self.overflow.is_none() {
            self.overflow = w.overflow().cloned();
        }
        self.add(name, w.into_bytes());
    }

    /// The first length-prefix overflow recorded by any added writer.
    pub fn overflow(&self) -> Option<&BinError> {
        self.overflow.as_ref()
    }

    /// Names of every section, in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A reader over the named section's payload.
    pub fn section(&self, name: &str) -> Result<Reader<'_>, BinError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| Reader::new(p))
            .ok_or_else(|| BinError::new(0, format!("missing section {name:?}")))
    }

    /// Serialises the container (magic + version + checksummed sections).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.len_prefix(self.sections.len(), "section count");
        for (name, payload) in &self.sections {
            w.str(name);
            w.u64(payload.len() as u64);
            w.u64(section_checksum(name, payload));
            w.buf.extend_from_slice(payload);
        }
        w.into_bytes()
    }

    /// Parses and verifies a container: magic, format version and every
    /// section checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BinError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(BinError::new(0, "bad magic: not a GIANT checkpoint"));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(BinError::new(
                8,
                format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        let n = r.u32()? as usize;
        let mut sections = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = r.str()?;
            let len = r.usize()?;
            let want = r.u64()?;
            let at = r.position();
            let payload = r.take(len, "section payload")?;
            let got = section_checksum(&name, payload);
            if got != want {
                return Err(BinError::new(
                    at,
                    format!(
                        "section {name:?} checksum mismatch \
                         (stored {want:#018x}, computed {got:#018x})"
                    ),
                ));
            }
            sections.push((name, payload.to_vec()));
        }
        r.expect_exhausted()?;
        Ok(Self {
            sections,
            overflow: None,
        })
    }

    /// Writes the container to `path` atomically through [`replace_file`]
    /// (temp file `<name>.tmp-ckpt`, crash points
    /// `binio.write_file.{pre,post}-rename`).
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        // Refuse to persist a container whose sections carry overflowed
        // length prefixes — the checksums would validate but the decoded
        // lengths would lie, surfacing much later as "corruption".
        if let Some(e) = &self.overflow {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("refusing to write checkpoint: {e}"),
            ));
        }
        replace_file(path, ".tmp-ckpt", &self.to_bytes(), "binio.write_file")?;
        Ok(())
    }

    /// Reads and verifies a container from `path`.
    pub fn read_file(path: &Path) -> Result<Self, FileError> {
        let bytes = std::fs::read(path)?;
        Ok(Self::from_bytes(&bytes)?)
    }
}

// ---------------------------------------------------------------------------
// Shared small codecs.

fn write_kind(w: &mut Writer, k: NodeKind) {
    w.u8(k.index() as u8);
}

fn read_kind(r: &mut Reader<'_>) -> Result<NodeKind, BinError> {
    let at = r.position();
    let i = r.u8()? as usize;
    NodeKind::ALL
        .get(i)
        .copied()
        .ok_or_else(|| BinError::new(at, format!("bad node kind {i}")))
}

fn write_edge_kind(w: &mut Writer, k: EdgeKind) {
    w.u8(k.index() as u8);
}

fn read_edge_kind(r: &mut Reader<'_>) -> Result<EdgeKind, BinError> {
    let at = r.position();
    let i = r.u8()? as usize;
    EdgeKind::ALL
        .get(i)
        .copied()
        .ok_or_else(|| BinError::new(at, format!("bad edge kind {i}")))
}

fn write_node(w: &mut Writer, n: &AttentionNode) {
    write_kind(w, n.kind);
    match n.time {
        Some(t) => {
            w.bool(true);
            w.u32(t);
        }
        None => w.bool(false),
    }
    w.f64(n.support);
    w.str_slice(&n.phrase.tokens);
    w.len_prefix(n.aliases.len(), "aliases");
    for a in &n.aliases {
        w.str_slice(&a.tokens);
    }
}

fn read_node(r: &mut Reader<'_>, id: u32) -> Result<AttentionNode, BinError> {
    let kind = read_kind(r)?;
    let time = if r.bool()? { Some(r.u32()?) } else { None };
    let support = r.f64()?;
    let phrase = Phrase::new(r.str_vec()?);
    let n_aliases = r.len(4, "aliases")?;
    let mut aliases = Vec::with_capacity(n_aliases);
    for _ in 0..n_aliases {
        aliases.push(Phrase::new(r.str_vec()?));
    }
    Ok(AttentionNode {
        id: NodeId(id),
        kind,
        phrase,
        aliases,
        support,
        time,
    })
}

fn write_adjacency(w: &mut Writer, table: &[Vec<(NodeId, EdgeKind, f64)>]) {
    w.len_prefix(table.len(), "adjacency");
    for row in table {
        w.len_prefix(row.len(), "adjacency row");
        for &(v, k, weight) in row {
            w.u32(v.0);
            write_edge_kind(w, k);
            w.f64(weight);
        }
    }
}

type AdjacencyTable = Vec<Vec<(NodeId, EdgeKind, f64)>>;

fn read_adjacency(r: &mut Reader<'_>, n_nodes: usize) -> Result<AdjacencyTable, BinError> {
    let n = r.len(4, "adjacency table")?;
    if n != n_nodes {
        return Err(BinError::new(
            r.position(),
            format!("adjacency table rows {n} != node count {n_nodes}"),
        ));
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len(13, "adjacency row")?;
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            let at = r.position();
            let v = r.u32()?;
            if v as usize >= n_nodes {
                return Err(BinError::new(at, format!("edge target {v} out of range")));
            }
            let k = read_edge_kind(r)?;
            let weight = r.f64()?;
            row.push((NodeId(v), k, weight));
        }
        table.push(row);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Ontology.

/// Serialises an [`Ontology`] (nodes + both adjacency tables, bit-exact
/// weights).
pub fn write_ontology(o: &Ontology, w: &mut Writer) {
    let nodes = o.nodes();
    w.len_prefix(nodes.len(), "nodes");
    for n in nodes {
        write_node(w, n);
    }
    write_adjacency(w, o.out_table());
    write_adjacency(w, o.in_table());
}

/// Reads an [`Ontology`] written by [`write_ontology`]. The surface index
/// is rebuilt by replaying registrations in id order (identical to the
/// text loader's replay; see `Ontology::from_parts`).
pub fn read_ontology(r: &mut Reader<'_>) -> Result<Ontology, BinError> {
    let n = r.len(10, "nodes")?;
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        nodes.push(read_node(r, i as u32)?);
    }
    let out = read_adjacency(r, n)?;
    let inc = read_adjacency(r, n)?;
    Ok(Ontology::from_parts(nodes, out, inc))
}

// ---------------------------------------------------------------------------
// Snapshot.

fn write_csr(w: &mut Writer, c: &Csr) {
    w.u32_slice(&c.offsets);
    w.len_prefix(c.targets.len(), "targets");
    for t in &c.targets {
        w.u32(t.0);
    }
    w.f64_slice(&c.weights);
}

fn read_csr(r: &mut Reader<'_>, n_rows: usize) -> Result<Csr, BinError> {
    let offsets = r.u32_vec()?;
    if offsets.len() != n_rows + 1 {
        return Err(BinError::new(
            r.position(),
            format!("csr offsets {} != rows {} + 1", offsets.len(), n_rows),
        ));
    }
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(BinError::new(r.position(), "csr offsets not monotonic from 0"));
    }
    let targets: Vec<NodeId> = r.u32_vec()?.into_iter().map(NodeId).collect();
    let weights = r.f64_vec()?;
    let total = *offsets.last().expect("offsets nonempty") as usize;
    if targets.len() != total || weights.len() != total {
        return Err(BinError::new(
            r.position(),
            format!(
                "csr arrays disagree: {} offsets total, {} targets, {} weights",
                total,
                targets.len(),
                weights.len()
            ),
        ));
    }
    Ok(Csr {
        offsets,
        targets,
        weights,
    })
}

/// Serialises a frozen [`OntologySnapshot`] — every read-optimised
/// structure included, so [`read_snapshot`] restores without re-freezing.
pub fn write_snapshot(s: &OntologySnapshot, w: &mut Writer) {
    w.len_prefix(s.nodes.len(), "nodes");
    for n in &s.nodes {
        write_node(w, n);
    }
    // Surface table, sorted for deterministic bytes.
    let mut surfaces: Vec<(&(NodeKind, String), &NodeId)> = s.by_surface.iter().collect();
    surfaces.sort_by(|a, b| (a.0 .0.index(), &a.0 .1).cmp(&(b.0 .0.index(), &b.0 .1)));
    w.len_prefix(surfaces.len(), "surfaces");
    for ((kind, surface), id) in surfaces {
        write_kind(w, *kind);
        w.str(surface);
        w.u32(id.0);
    }
    for ids in &s.by_kind {
        w.len_prefix(ids.len(), "ids");
        for id in ids {
            w.u32(id.0);
        }
    }
    // Phrase index: sorted first-token keys; bucket order preserved (it is
    // the deterministic freeze-time sort).
    let mut keys: Vec<&String> = s.phrase_index.keys().collect();
    keys.sort();
    w.len_prefix(keys.len(), "keys");
    for key in keys {
        w.str(key);
        let bucket = &s.phrase_index[key];
        w.len_prefix(bucket.len(), "bucket");
        for e in bucket {
            write_kind(w, e.kind);
            w.u32(e.node.0);
            w.str_slice(&e.tokens);
            w.bool(e.alias);
        }
    }
    for csr in s.out.iter().chain(s.inc.iter()) {
        write_csr(w, csr);
    }
    write_csr(w, &s.ranked_children);
    write_csr(w, &s.ranked_correlates);
    let mut tokens: Vec<&String> = s.concept_tokens.keys().collect();
    tokens.sort();
    w.len_prefix(tokens.len(), "tokens");
    for t in tokens {
        w.str(t);
        let postings = &s.concept_tokens[t];
        w.len_prefix(postings.len(), "postings");
        for id in postings {
            w.u32(id.0);
        }
    }
    for c in s.stats.nodes_by_kind {
        w.usize(c);
    }
    for c in s.stats.edges_by_kind {
        w.usize(c);
    }
}

/// Restores a snapshot written by [`write_snapshot`] without re-freezing.
pub fn read_snapshot(r: &mut Reader<'_>) -> Result<OntologySnapshot, BinError> {
    let n = r.len(10, "snapshot nodes")?;
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        nodes.push(read_node(r, i as u32)?);
    }
    let n_surfaces = r.len(10, "surface table")?;
    let mut by_surface = HashMap::with_capacity(n_surfaces);
    for _ in 0..n_surfaces {
        let kind = read_kind(r)?;
        let surface = r.str()?;
        let id = r.u32()?;
        if id as usize >= n {
            return Err(BinError::new(r.position(), format!("surface node {id} out of range")));
        }
        by_surface.insert((kind, surface), NodeId(id));
    }
    let mut by_kind: [Vec<NodeId>; 5] = Default::default();
    for slot in &mut by_kind {
        *slot = r.u32_vec()?.into_iter().map(NodeId).collect();
    }
    let n_keys = r.len(10, "phrase index")?;
    let mut phrase_index = HashMap::with_capacity(n_keys);
    for _ in 0..n_keys {
        let key = r.str()?;
        let n_entries = r.len(10, "phrase bucket")?;
        let mut bucket = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let kind = read_kind(r)?;
            let node = NodeId(r.u32()?);
            let tokens = r.str_vec()?;
            let alias = r.bool()?;
            bucket.push(PhraseEntry {
                kind,
                node,
                tokens,
                alias,
            });
        }
        phrase_index.insert(key, bucket);
    }
    let mut csrs = Vec::with_capacity(6);
    for _ in 0..6 {
        csrs.push(read_csr(r, n)?);
    }
    let mut it = csrs.into_iter();
    let out = [
        it.next().expect("6 csrs"),
        it.next().expect("6 csrs"),
        it.next().expect("6 csrs"),
    ];
    let inc = [
        it.next().expect("6 csrs"),
        it.next().expect("6 csrs"),
        it.next().expect("6 csrs"),
    ];
    let ranked_children = read_csr(r, n)?;
    let ranked_correlates = read_csr(r, n)?;
    let n_tokens = r.len(10, "concept tokens")?;
    let mut concept_tokens = HashMap::with_capacity(n_tokens);
    for _ in 0..n_tokens {
        let t = r.str()?;
        let postings: Vec<NodeId> = r.u32_vec()?.into_iter().map(NodeId).collect();
        concept_tokens.insert(t, postings);
    }
    let mut stats = crate::ontology::OntologyStats::default();
    for c in &mut stats.nodes_by_kind {
        *c = r.usize()?;
    }
    for c in &mut stats.edges_by_kind {
        *c = r.usize()?;
    }
    Ok(OntologySnapshot {
        nodes,
        by_surface,
        by_kind,
        phrase_index,
        out,
        inc,
        ranked_children,
        ranked_correlates,
        concept_tokens,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;

    #[test]
    fn frame_checksum_equals_fnv_of_the_concatenation() {
        // The bytes on disk and on the wire were defined by hashing a
        // concatenated `id_le ‖ payload` buffer; streaming must not move them.
        let payloads: [&[u8]; 4] = [b"", b"\0", b"giant", &[0xff; 300]];
        for id in [0, 1, 0x0102_0304_0506_0708, u64::MAX] {
            for p in payloads {
                let concat = [&id.to_le_bytes()[..], p].concat();
                assert_eq!(frame_checksum(id, p), fnv1a64(&concat), "id={id} len={}", p.len());
            }
        }
        // Known FNV-1a vectors pin the hash itself.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_overflow_is_sticky_and_typed() {
        // Size-faking: `len_prefix` sees only the count, so the overflow
        // path is testable without allocating 4 GiB.
        let mut w = Writer::new();
        w.str("fine");
        assert!(w.overflow().is_none());
        assert!(!w.len_prefix(u32::MAX as usize + 1, "giant vec"));
        let e = w.overflow().expect("overflow recorded").clone();
        assert!(e.message.contains("giant vec"), "{e}");
        // Sticky: later successful writes don't clear it, and the first
        // report wins.
        w.str("still fine");
        w.len_prefix(u32::MAX as usize + 2, "second overflow");
        assert_eq!(w.overflow(), Some(&e), "first overflow is the one reported");
        assert_eq!(w.into_bytes_checked(), Err(e));
    }

    #[test]
    fn section_file_refuses_to_persist_overflowed_writers() {
        let dir = std::env::temp_dir().join("giant-binio-overflow");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.ckpt");
        let mut file = SectionFile::new();
        let mut w = Writer::new();
        w.len_prefix(u32::MAX as usize + 1, "faked oversized section");
        file.add_writer("bad", w);
        assert!(file.overflow().is_some());
        let err = file.write_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!path.exists(), "nothing may reach disk on overflow");
        // A clean container still writes.
        let mut file = SectionFile::new();
        let mut w = Writer::new();
        w.str("payload");
        file.add_writer("good", w);
        file.write_file(&path).unwrap();
        assert!(SectionFile::read_file(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    fn sample() -> Ontology {
        let mut o = Ontology::new();
        let cat = o.add_node(NodeKind::Category, Phrase::from_text("cars"), 5.0);
        let con = o.add_node(NodeKind::Concept, Phrase::from_text("economy cars"), 3.25);
        let ent = o.add_node(NodeKind::Entity, Phrase::from_text("honda civic"), 2.0);
        let ev = o.add_event(Phrase::from_text("honda recalls civic"), 1.0, 17);
        o.add_alias(con, Phrase::from_text("fuel efficient cars"));
        o.add_is_a(cat, con, 1.0).unwrap();
        o.add_is_a(con, ent, 0.8).unwrap();
        o.add_involve(ev, ent, 1.0).unwrap();
        o.add_correlate(ent, cat, 0.5).unwrap();
        o
    }

    #[test]
    fn ontology_round_trips_byte_identically() {
        let o = sample();
        let mut w = Writer::new();
        write_ontology(&o, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let o2 = read_ontology(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        assert_eq!(io::dump(&o), io::dump(&o2));
        // The rebuilt surface index answers lookups identically.
        assert_eq!(
            o.find(NodeKind::Concept, "fuel efficient cars"),
            o2.find(NodeKind::Concept, "fuel efficient cars")
        );
    }

    #[test]
    fn snapshot_round_trips_and_answers_identically() {
        let o = sample();
        let s = OntologySnapshot::freeze(&o);
        let mut w = Writer::new();
        write_snapshot(&s, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let s2 = read_snapshot(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        for i in 0..s.n_nodes() {
            let id = NodeId(i as u32);
            assert_eq!(s.children(id), s2.children(id));
            assert_eq!(s.parents(id), s2.parents(id));
            assert_eq!(s.correlates(id), s2.correlates(id));
            assert_eq!(s.ranked_children(id), s2.ranked_children(id));
            assert_eq!(s.ancestors(id), s2.ancestors(id));
        }
        assert_eq!(s.stats(), s2.stats());
        let toks = giant_text::tokenize("best economy cars 2020");
        assert_eq!(
            s.find_contained(&toks, NodeKind::Concept, false),
            s2.find_contained(&toks, NodeKind::Concept, false)
        );
        // Deterministic bytes: re-serialising the restored snapshot
        // reproduces the original payload exactly.
        let mut w2 = Writer::new();
        write_snapshot(&s2, &mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn section_file_round_trips_and_detects_corruption() {
        let mut f = SectionFile::new();
        let mut w = Writer::new();
        write_ontology(&sample(), &mut w);
        f.add_writer("ontology", w);
        f.add("extra", vec![1, 2, 3]);
        let bytes = f.to_bytes();

        let back = SectionFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.names().collect::<Vec<_>>(), vec!["ontology", "extra"]);
        let o = read_ontology(&mut back.section("ontology").unwrap()).unwrap();
        assert_eq!(io::dump(&o), io::dump(&sample()));
        assert!(back.section("missing").is_err());

        // Flip one payload byte: the checksum must catch it.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        let err = SectionFile::from_bytes(&corrupted).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");

        // Truncation fails typed, not by panic.
        assert!(SectionFile::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        // Bad magic.
        assert!(SectionFile::from_bytes(b"NOTGIANT").is_err());
        // Future format version is rejected.
        let mut future = bytes;
        future[8] = 0xff;
        let err = SectionFile::from_bytes(&future).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
    }

    #[test]
    fn reader_rejects_absurd_lengths_without_allocating() {
        // A tiny buffer claiming a 4-billion-element vec must fail fast.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u32_vec().is_err());
    }

    #[test]
    fn empty_ontology_round_trips() {
        let o = Ontology::new();
        let mut w = Writer::new();
        write_ontology(&o, &mut w);
        let bytes = w.into_bytes();
        let o2 = read_ontology(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(o2.n_nodes(), 0);
        assert_eq!(io::dump(&o), io::dump(&o2));
        let s = OntologySnapshot::freeze(&o);
        let mut w = Writer::new();
        write_snapshot(&s, &mut w);
        let bytes = w.into_bytes();
        let s2 = read_snapshot(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(s2.n_nodes(), 0);
    }
}
