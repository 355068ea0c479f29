//! Append-only write-ahead log of [`DeltaBatch`] entries: the durability
//! layer between checkpoints.
//!
//! A checkpoint ([`crate::Checkpoint`]) is point-in-time; every batch
//! folded after it would die with the process. The WAL closes that window:
//! the driver appends each batch here **before** folding, so after a crash
//! `restore = checkpoint + replay of the WAL tail` reproduces the
//! never-crashed state byte-identically (the fold sequence is the same
//! sequence, so the convergence contract of [`crate`] carries over).
//!
//! ## On-disk format
//!
//! Little-endian throughout. Each entry is one [`binio`] checksummed
//! frame (the same frame the network wire uses, built by
//! [`binio::encode_frame`] and parsed by [`binio::FrameHeader`]) with the
//! sequence number as the frame id and no cap below the `u32` length
//! field:
//!
//! ```text
//! header   := magic "GIANTWAL" (8) | format version u32 (4)
//! entry    := len u32 | seq u64 | checksum u64 | payload (len bytes)
//! payload  := DeltaBatch via the checkpoint codecs (docs, clicks,
//!             sessions, entities)
//! checksum := FNV-1a-64 over seq_le ++ payload
//! ```
//!
//! `seq` starts at 1 and is strictly monotonic **across rotations**: the
//! log is truncated after a successful checkpoint, but sequence numbers
//! keep counting, so a checkpoint's recorded watermark unambiguously says
//! which WAL entries are already folded into it.
//!
//! ## Torn tails vs. corruption
//!
//! A crash mid-append leaves a *torn tail*: the file ends before the final
//! frame completes. That is the expected crash artifact — [`Wal::open`]
//! silently truncates it (the entry was never acknowledged). A frame that
//! is fully present but fails its checksum is *corruption* — bits changed
//! under us — and [`Wal::open`] rejects the log with [`WalError::Corrupt`].
//! [`Wal::recover`] is the lenient path: it truncates at the last valid
//! entry, reports what it dropped, and the log is usable again.
//!
//! ## Sync modes
//!
//! [`SyncMode`] trades append latency for the power-failure window. Note
//! the distinction between *process* death and *power* loss: once
//! `write(2)` returns, the bytes live in the OS page cache and survive
//! `kill -9` in **every** mode; fsync only changes what survives losing
//! the machine. See DESIGN.md §10 for the guarantees table.

use crate::batch::{ClickEvent, DeltaBatch};
use crate::ckpt::{read_docs, read_sessions_entities, write_docs, write_sessions_entities};
use giant_obs::Counter;
use giant_ontology::binio::{self, BinError, FrameHeader, Reader, Writer, FRAME_HEADER};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Process-wide WAL counters, registered once in the global
/// [`giant_obs::registry`] under stable `wal.*` names (DESIGN.md §13).
///
/// These are *cumulative across every log the process opens* — the
/// observability view of the per-handle [`Wal::syncs`] accessor. Counters
/// are plain relaxed atomics, so they stay on even when span recording is
/// disarmed; they never influence what the WAL writes.
#[derive(Debug)]
pub struct WalMetrics {
    /// `wal.appends` — acknowledged [`Wal::append`] calls.
    pub appends: Arc<Counter>,
    /// `wal.syncs` — real `fdatasync` calls (group commit counts once).
    pub syncs: Arc<Counter>,
    /// `wal.rotations` — successful [`Wal::rotate`] truncations.
    pub rotations: Arc<Counter>,
    /// `wal.replayed` — entries decoded by [`Wal::open`] / [`Wal::recover`].
    pub replayed: Arc<Counter>,
    /// `wal.truncations` — opens that cut bytes off the tail, torn or
    /// corrupt (strict opens that *reject* corruption do not count: the
    /// file is left untouched).
    pub truncations: Arc<Counter>,
}

/// The lazily-registered [`WalMetrics`] singleton.
pub fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = giant_obs::registry();
        WalMetrics {
            appends: r.counter("wal.appends"),
            syncs: r.counter("wal.syncs"),
            rotations: r.counter("wal.rotations"),
            replayed: r.counter("wal.replayed"),
            truncations: r.counter("wal.truncations"),
        }
    })
}

/// WAL file magic (first 8 bytes).
pub const WAL_MAGIC: [u8; 8] = *b"GIANTWAL";

/// Bump on incompatible WAL layout changes.
pub const WAL_FORMAT_VERSION: u32 = 1;

/// Byte size of the file header.
const HEADER_LEN: u64 = 8 + 4;

/// The file header: magic, then format version.
fn file_header() -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..].copy_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
    header
}

/// When `append` pushes bytes to stable storage.
///
/// | mode | fsync | survives `kill -9` | survives power loss |
/// |------|-------|--------------------|---------------------|
/// | `Strict` | every append | yes | every acked append |
/// | `Batched(n)` | every `n` appends | yes | up to `n-1` acked appends lost |
/// | `None` | never | yes | anything since open may be lost |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fdatasync` after every append: an acked append is on stable
    /// storage before `append` returns.
    Strict,
    /// Group commit: `fdatasync` once every `n` appends (and on
    /// [`Wal::sync`] / rotation). `Batched(1)` behaves like `Strict`;
    /// `Batched(0)` is normalised to `Batched(1)`.
    Batched(u32),
    /// Never fsync from `append`; the OS flushes on its own schedule.
    None,
}

impl SyncMode {
    /// Parses `"strict"`, `"batched:N"` or `"none"` (the spelling used by
    /// the crash-harness child process env / CLI).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(Self::Strict),
            "none" => Some(Self::None),
            _ => {
                let n = s.strip_prefix("batched:")?.parse().ok()?;
                Some(Self::Batched(n))
            }
        }
    }

    /// Inverse of [`SyncMode::parse`].
    pub fn label(&self) -> String {
        match self {
            Self::Strict => "strict".into(),
            Self::Batched(n) => format!("batched:{n}"),
            Self::None => "none".into(),
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone)]
pub struct WalEntry {
    /// Monotonic sequence number (1-based, survives rotation).
    pub seq: u64,
    /// The logged batch, exactly as appended.
    pub batch: DeltaBatch,
}

/// What [`Wal::recover`] dropped, when it dropped anything.
#[derive(Debug, Clone)]
pub struct WalTruncation {
    /// Byte offset the log was truncated back to.
    pub offset: u64,
    /// Why the scan stopped there.
    pub reason: String,
}

/// Typed WAL failures.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic { found: Vec<u8> },
    /// Unknown [`WAL_FORMAT_VERSION`].
    BadVersion { found: u32 },
    /// A fully-present frame failed its checksum or sequence check —
    /// bits changed after they were acknowledged (strict open only;
    /// [`Wal::recover`] truncates instead).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed the check.
        reason: String,
    },
    /// The frame checksum held but the payload did not decode as a
    /// [`DeltaBatch`] — a writer/reader version skew, not bit rot.
    Decode(BinError),
    /// An append was rejected because a length does not fit the format's
    /// `u32` prefixes — a >4 GiB payload or a >`u32::MAX`-element
    /// collection. The unchecked cast this replaces would have written a
    /// silently truncated length that a later open scans as "corruption";
    /// instead the append fails cleanly and the log on disk stays valid.
    PayloadTooLarge {
        /// What overflowed, with the offending and maximum lengths.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::BadMagic { found } => {
                write!(f, "not a GIANT wal file (magic {found:02x?})")
            }
            Self::BadVersion { found } => {
                write!(f, "unsupported wal format version {found}")
            }
            Self::Corrupt { offset, reason } => {
                write!(f, "wal corrupt at byte {offset}: {reason}")
            }
            Self::Decode(e) => write!(f, "wal entry payload undecodable: {e}"),
            Self::PayloadTooLarge { reason } => {
                write!(f, "wal append rejected, payload too large: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Decode(e) => Some(e),
            _ => Option::None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<BinError> for WalError {
    fn from(e: BinError) -> Self {
        Self::Decode(e)
    }
}

/// Serialises a batch with the same codecs the checkpoint uses, so a WAL
/// payload and a checkpointed corpus can never drift apart byte-wise.
pub(crate) fn write_batch(w: &mut Writer, b: &DeltaBatch) {
    write_docs(w, &b.docs);
    w.len_prefix(b.clicks.len(), "wal clicks");
    for c in &b.clicks {
        w.str(&c.query);
        w.usize(c.doc);
        w.f64(c.count);
    }
    write_sessions_entities(w, &b.sessions, &b.entities);
}

/// Inverse of [`write_batch`].
pub(crate) fn read_batch(r: &mut Reader<'_>) -> Result<DeltaBatch, BinError> {
    let docs = read_docs(r)?;
    let n = r.len(20, "wal clicks")?;
    let mut clicks = Vec::with_capacity(n);
    for _ in 0..n {
        clicks.push(ClickEvent {
            query: r.str()?,
            doc: r.usize()?,
            count: r.f64()?,
        });
    }
    let (sessions, entities) = read_sessions_entities(r)?;
    Ok(DeltaBatch {
        docs,
        clicks,
        sessions,
        entities,
    })
}

/// The canonical WAL payload bytes of a batch — what [`Wal::append`]
/// frames and what replay decodes. Public so tests and benches can
/// byte-compare batches (a [`DeltaBatch`] has no `PartialEq`; two batches
/// are equal iff their encodings are). Fails with
/// [`WalError::PayloadTooLarge`] when a collection in the batch exceeds
/// the format's `u32` length prefixes.
pub fn encode_batch(b: &DeltaBatch) -> Result<Vec<u8>, WalError> {
    let mut w = Writer::new();
    write_batch(&mut w, b);
    w.into_bytes_checked()
        .map_err(|e| WalError::PayloadTooLarge { reason: e.message })
}

/// Outcome of scanning a log image.
struct Scan {
    entries: Vec<WalEntry>,
    /// First byte past the last valid frame — where appends resume.
    valid_end: u64,
    /// Set when the scan stopped before end-of-file.
    stopped: std::option::Option<(u64, String, bool)>, // (offset, reason, is_torn_tail)
}

fn scan(bytes: &[u8]) -> Result<Scan, WalError> {
    if bytes.len() < HEADER_LEN as usize {
        // A header torn mid-write: nothing was ever acknowledged on this
        // log, treat like an empty file.
        return Ok(Scan {
            entries: Vec::new(),
            valid_end: 0,
            stopped: Some((0, "torn header".into(), true)),
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic {
            found: bytes[..8].to_vec(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_FORMAT_VERSION {
        return Err(WalError::BadVersion { found: version });
    }

    let mut entries = Vec::new();
    let mut off = HEADER_LEN as usize;
    let mut expect_seq: std::option::Option<u64> = Option::None;
    // The scan stops before the frame at `off`; `torn` marks the expected
    // crash residue as opposed to corruption.
    let stop = |entries, off: usize, reason: String, torn: bool| {
        Ok(Scan {
            entries,
            valid_end: off as u64,
            stopped: Some((off as u64, reason, torn)),
        })
    };
    while off < bytes.len() {
        let Some(header) = FrameHeader::parse(&bytes[off..]) else {
            return stop(entries, off, "torn frame prefix".into(), true);
        };
        let seq = header.id;
        let len = header
            .payload_len(u32::MAX)
            .expect("u32::MAX caps no u32 length");
        let body = off + FRAME_HEADER;
        if bytes.len() - body < len {
            let reason = format!("torn payload ({} of {len} bytes)", bytes.len() - body);
            return stop(entries, off, reason, true);
        }
        let payload = &bytes[body..body + len];
        if header.verify(payload).is_err() {
            let reason = format!("checksum mismatch on seq {seq}");
            return stop(entries, off, reason, false);
        }
        if let Some(want) = expect_seq.filter(|&want| want != seq) {
            let reason = format!("sequence gap: found {seq}, expected {want}");
            return stop(entries, off, reason, false);
        }
        // A frame no successor can follow was never written by `append`.
        let Some(next) = seq.checked_add(1) else {
            let reason = format!("sequence number {seq} has no successor");
            return stop(entries, off, reason, false);
        };
        expect_seq = Some(next);
        let mut r = Reader::new(payload);
        let batch = read_batch(&mut r)?;
        r.expect_exhausted()?;
        entries.push(WalEntry { seq, batch });
        off = body + len;
    }
    Ok(Scan {
        entries,
        valid_end: off as u64,
        stopped: Option::None,
    })
}

/// What opening a log yields besides the handle: the decoded entries and,
/// on the lenient path, the truncation report.
type Opened = (Vec<WalEntry>, std::option::Option<WalTruncation>);

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncMode,
    next_seq: u64,
    pending: u32,
    syncs: u64,
    /// Byte offset of the most recent append's frame (0 = none since
    /// open/rotate), for [`Wal::rollback_last`].
    last_frame_start: u64,
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing
    /// file), with the header synced to stable storage. `first_seq` is the
    /// sequence number the next append will get — `1` for a brand-new log,
    /// or the continuation point when re-creating after a checkpoint.
    pub fn create(path: &Path, sync: SyncMode, first_seq: u64) -> Result<Self, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&file_header())?;
        file.sync_data()?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            binio::fsync_dir(dir)?;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            sync,
            next_seq: first_seq.max(1),
            pending: 0,
            syncs: 0,
            last_frame_start: 0,
        })
    }

    /// Opens the log at `path` (creating it empty if absent), returning
    /// the decoded entries. A torn tail — the file ends before the final
    /// frame completes — is silently truncated: that entry was never
    /// acknowledged. A *complete* frame failing its checksum or sequence
    /// check is rejected with [`WalError::Corrupt`]; use [`Wal::recover`]
    /// to salvage the valid prefix instead.
    pub fn open(path: &Path, sync: SyncMode) -> Result<(Self, Vec<WalEntry>), WalError> {
        let (wal, (entries, _)) = Self::open_impl(path, sync, true)?;
        Ok((wal, entries))
    }

    /// Lenient open: like [`Wal::open`], but mid-log corruption truncates
    /// the log back to the last valid entry instead of failing, and the
    /// drop is reported so the host can log/alert. Appends then resume at
    /// the sequence number after the last valid entry.
    pub fn recover(
        path: &Path,
        sync: SyncMode,
    ) -> Result<(Self, Vec<WalEntry>, std::option::Option<WalTruncation>), WalError> {
        let (wal, (entries, trunc)) = Self::open_impl(path, sync, false)?;
        Ok((wal, entries, trunc))
    }

    fn open_impl(path: &Path, sync: SyncMode, strict: bool) -> Result<(Self, Opened), WalError> {
        if !path.exists() {
            return Ok((Self::create(path, sync, 1)?, (Vec::new(), Option::None)));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan(&bytes)?;
        let mut truncation = Option::None;
        if let Some((offset, reason, is_torn)) = scan.stopped {
            if strict && !is_torn {
                return Err(WalError::Corrupt { offset, reason });
            }
            if !is_torn {
                truncation = Some(WalTruncation { offset, reason });
            }
            // Past the strict-rejection return: this open WILL cut the
            // tail back to `valid_end` (torn or salvaged-corrupt alike).
            wal_metrics().truncations.inc();
        }
        wal_metrics().replayed.add(scan.entries.len() as u64);
        if scan.valid_end < HEADER_LEN {
            // Torn header: rewrite it from scratch.
            return Ok((Self::create(path, sync, 1)?, (Vec::new(), truncation)));
        }
        if scan.valid_end < bytes.len() as u64 {
            file.set_len(scan.valid_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_end))?;
        let next_seq = scan.entries.last().map_or(1, |e| {
            e.seq.checked_add(1).expect("scan admits no entry without a successor")
        });
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                sync,
                next_seq,
                pending: 0,
                syncs: 0,
                last_frame_start: 0,
            },
            (scan.entries, truncation),
        ))
    }

    /// Appends one batch, returning its sequence number. Bytes reach the
    /// OS before return in every mode (surviving process death); fsync
    /// follows the [`SyncMode`] policy.
    pub fn append(&mut self, batch: &DeltaBatch) -> Result<u64, WalError> {
        let seq = self.next_seq;
        // Oversized payloads/collections are rejected with
        // `PayloadTooLarge` BEFORE any byte reaches the file, so a failed
        // append leaves the log exactly as it was. The WAL caps a payload
        // only by the frame's `u32` length field.
        let frame = binio::encode_frame(seq, &encode_batch(batch)?, u32::MAX).map_err(|e| {
            WalError::PayloadTooLarge {
                reason: e.to_string(),
            }
        })?;
        let start = self.file.stream_position()?;
        // Refused before any byte is written, like an oversized payload: a
        // frame carrying the last sequence number could never be reopened.
        let next_seq = seq.checked_add(1).ok_or_else(|| WalError::Corrupt {
            offset: start,
            reason: format!("sequence space exhausted at {seq}"),
        })?;
        // Split the write so the fault harness can abort with a genuinely
        // torn frame on disk (prefix written, remainder lost).
        let mid = frame.len() / 2;
        self.file.write_all(&frame[..mid])?;
        binio::crash_point("wal.append.mid");
        self.file.write_all(&frame[mid..])?;
        binio::crash_point("wal.append.pre-sync");
        self.next_seq = next_seq;
        self.last_frame_start = start;
        self.pending += 1;
        match self.sync {
            SyncMode::Strict => self.sync_now()?,
            SyncMode::Batched(n) => {
                if self.pending >= n.max(1) {
                    self.sync_now()?;
                }
            }
            SyncMode::None => {}
        }
        wal_metrics().appends.inc();
        Ok(seq)
    }

    /// Forces outstanding appends to stable storage regardless of mode
    /// (a no-op when nothing is unsynced — [`Wal::syncs`] counts real
    /// fsyncs only).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.pending == 0 {
            return Ok(());
        }
        self.sync_now()
    }

    /// Undoes the **most recent** append by truncating its frame off the
    /// tail — the compensation a WAL-first host applies when the fold
    /// rejects a batch it already logged, keeping log and state in
    /// agreement. `seq` must be the value that append returned.
    pub fn rollback_last(&mut self, seq: u64) -> Result<(), WalError> {
        if seq + 1 != self.next_seq || self.last_frame_start == 0 {
            return Err(WalError::Corrupt {
                offset: self.last_frame_start,
                reason: format!(
                    "rollback_last({seq}) does not match the last append (next_seq {})",
                    self.next_seq
                ),
            });
        }
        self.file.set_len(self.last_frame_start)?;
        self.file.seek(SeekFrom::Start(self.last_frame_start))?;
        self.file.sync_data()?;
        self.next_seq = seq;
        self.last_frame_start = 0;
        self.pending = self.pending.saturating_sub(1);
        Ok(())
    }

    fn sync_now(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.pending = 0;
        self.syncs += 1;
        wal_metrics().syncs.inc();
        Ok(())
    }

    /// Truncates the log after a successful checkpoint: atomically
    /// replaces the file with a fresh header-only log through
    /// [`binio::replace_file`] (temp file `<name>.tmp`, crash points
    /// `wal.rotate.{pre,post}-rename`). Sequence numbers continue —
    /// rotation never reuses a seq.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        // The new file's handle IS the new log; the old fd points at the
        // unlinked inode and is dropped here.
        self.file = binio::replace_file(&self.path, ".tmp", &file_header(), "wal.rotate")?;
        self.pending = 0;
        self.last_frame_start = 0;
        wal_metrics().rotations.inc();
        Ok(())
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last acknowledged append (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// fsync calls issued so far (bench/test observability).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_core::pipeline::DocRecord;
    use giant_text::NerTag;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("giant-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn batch(i: usize) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.docs.push(DocRecord {
            id: i,
            title: format!("doc {i} arrives"),
            sentences: vec![format!("sentence for doc {i}")],
            leaf_category: 0,
            day: i as u32,
        });
        b.clicks.push(ClickEvent {
            query: format!("query {i}"),
            doc: i,
            count: 1.5 + i as f64,
        });
        b.sessions.push(vec![format!("query {i}"), "followup".into()]);
        b.entities
            .push((vec![format!("entity{i}")], NerTag::Organization));
        b
    }

    fn encode(b: &DeltaBatch) -> Vec<u8> {
        encode_batch(b).expect("test batches are far below the length caps")
    }

    #[test]
    fn oversized_frame_lengths_are_typed_errors_not_wraps() {
        // Size-faking: the checks are exercised at the length level —
        // a real >4 GiB payload is unbuildable in a unit test, but the
        // guard sees only the length. The WAL's cap is the u32 field.
        assert_eq!(binio::frame_len(0, u32::MAX), Ok(0));
        assert_eq!(binio::frame_len(u32::MAX as usize, u32::MAX), Ok(u32::MAX));
        let over = u32::MAX as u64 + 1;
        let e = binio::frame_len(over as usize, u32::MAX).unwrap_err();
        assert!(e.to_string().contains(&over.to_string()), "reason names the length: {e}");
        // The element-count prefixes inside the payload fail the same way
        // (via the writer's sticky overflow -> encode_batch).
        let mut w = Writer::new();
        w.len_prefix(u32::MAX as usize + 1, "wal clicks");
        let e = w.into_bytes_checked().unwrap_err();
        assert!(e.message.contains("wal clicks"), "{e}");
    }

    #[test]
    fn rejected_append_leaves_the_log_valid() {
        // A PayloadTooLarge rejection must be clean: nothing written, the
        // log still opens, and the next append gets the same seq. Fake the
        // oversize at the writer level (the append itself can't allocate
        // 4 GiB), then assert the log survives an error return mid-stream.
        let path = tmp("reject.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        wal.append(&batch(0)).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        let seq_before = wal.next_seq();
        // encode_batch is the append's first step; its failure path is the
        // append's failure path (no bytes have touched the file yet).
        let mut w = Writer::new();
        w.len_prefix(u32::MAX as usize + 1, "wal sessions");
        assert!(w.into_bytes_checked().is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!(wal.next_seq(), seq_before);
        assert_eq!(wal.append(&batch(1)).unwrap(), seq_before);
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 2, "log stayed valid through the rejection");
    }

    #[test]
    fn append_reopen_round_trips_bit_exactly() {
        let path = tmp("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert!(entries.is_empty());
        for i in 0..4 {
            assert_eq!(wal.append(&batch(i)).unwrap(), i as u64 + 1);
        }
        assert_eq!(wal.syncs(), 4, "strict mode syncs every append");
        drop(wal);
        let (wal, entries) = Wal::open(&path, SyncMode::None).unwrap();
        assert_eq!(entries.len(), 4);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
            assert_eq!(encode(&e.batch), encode(&batch(i)), "payload bit-exact");
        }
        assert_eq!(wal.next_seq(), 5);
    }

    #[test]
    fn batched_mode_groups_syncs() {
        let path = tmp("batched.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Batched(3)).unwrap();
        for i in 0..7 {
            wal.append(&batch(i)).unwrap();
        }
        assert_eq!(wal.syncs(), 2, "7 appends at n=3 -> 2 group commits");
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let path = tmp("torn.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        for i in 0..3 {
            wal.append(&batch(i)).unwrap();
        }
        drop(wal);
        let len = std::fs::metadata(&path).unwrap().len();
        // Chop into the middle of the last frame's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let (mut wal, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 2, "torn final entry discarded");
        assert_eq!(wal.next_seq(), 3, "seq resumes after last valid entry");
        // The truncated log must accept fresh appends at the reused slot.
        assert_eq!(wal.append(&batch(9)).unwrap(), 3);
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(encode(&entries[2].batch), encode(&batch(9)));
    }

    #[test]
    fn flipped_byte_rejected_strict_recovered_lenient() {
        let path = tmp("flip.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        let mut offsets = vec![HEADER_LEN];
        for i in 0..3 {
            wal.append(&batch(i)).unwrap();
            offsets.push(std::fs::metadata(&path).unwrap().len());
        }
        drop(wal);
        // Flip a payload byte inside the *middle* (complete) entry.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid_entry = offsets[1] as usize + FRAME_HEADER + 3;
        bytes[mid_entry] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        match Wal::open(&path, SyncMode::Strict) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, offsets[1]),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        let (mut wal, entries, trunc) = Wal::recover(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 1, "recovery keeps the valid prefix");
        assert_eq!(entries[0].seq, 1);
        let trunc = trunc.expect("recovery reports the drop");
        assert_eq!(trunc.offset, offsets[1]);
        assert_eq!(wal.next_seq(), 2, "appends resume at last valid entry + 1");
        wal.append(&batch(5)).unwrap();
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(encode(&entries[1].batch), encode(&batch(5)));
    }

    #[test]
    fn last_sequence_number_is_corrupt_on_disk_and_refused_on_append() {
        // A well-formed frame (valid checksum) carrying seq = u64::MAX:
        // `seq + 1` used to overflow while scanning it.
        let path = tmp("maxseq.wal");
        let payload = encode(&batch(0));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&binio::encode_frame(u64::MAX, &payload, u32::MAX).unwrap());
        std::fs::write(&path, &bytes).unwrap();

        match Wal::open(&path, SyncMode::Strict) {
            Err(WalError::Corrupt { offset, .. }) => assert_eq!(offset, HEADER_LEN),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let (mut wal, entries, trunc) = Wal::recover(&path, SyncMode::Strict).unwrap();
        assert!(entries.is_empty());
        assert_eq!(trunc.expect("recovery reports the drop").offset, HEADER_LEN);
        assert_eq!(wal.append(&batch(1)).unwrap(), 1, "the truncated log is usable");
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 1);

        // The writer never produces such a frame: the append that would
        // need it is refused with the log untouched.
        let mut wal = Wal::create(&path, SyncMode::Strict, u64::MAX).unwrap();
        assert!(matches!(wal.append(&batch(2)), Err(WalError::Corrupt { .. })));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        assert_eq!(wal.next_seq(), u64::MAX);
    }

    #[test]
    fn rotation_truncates_but_seq_continues() {
        let path = tmp("rotate.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.append(&batch(1)).unwrap();
        wal.rotate().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_LEN,
            "rotation leaves a header-only log"
        );
        assert_eq!(wal.append(&batch(2)).unwrap(), 3, "seq survives rotation");
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 3);
    }

    #[test]
    fn rollback_last_undoes_exactly_one_append() {
        let path = tmp("rollback.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        wal.append(&batch(0)).unwrap();
        let seq = wal.append(&batch(1)).unwrap();
        wal.rollback_last(seq).unwrap();
        assert_eq!(wal.next_seq(), 2);
        // Only the latest append is undoable, and only once.
        assert!(wal.rollback_last(1).is_err());
        assert_eq!(wal.append(&batch(7)).unwrap(), 2, "slot is reused");
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(encode(&entries[1].batch), encode(&batch(7)));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"NOTAGIANTWALFILE").unwrap();
        assert!(matches!(
            Wal::open(&path, SyncMode::None),
            Err(WalError::BadMagic { .. })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&path, SyncMode::None),
            Err(WalError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn wal_metrics_count_appends_syncs_and_replay() {
        // The counters are process-global and other WAL tests run in
        // parallel in this binary, so assert on deltas with `>=`: foreign
        // increments only push the deltas up, never down.
        let path = tmp("metrics.wal");
        std::fs::remove_file(&path).ok();
        let m = wal_metrics();
        let (appends0, syncs0, rotations0, replayed0) = (
            m.appends.get(),
            m.syncs.get(),
            m.rotations.get(),
            m.replayed.get(),
        );
        let (mut wal, _) = Wal::open(&path, SyncMode::Strict).unwrap();
        for i in 0..3 {
            wal.append(&batch(i)).unwrap();
        }
        wal.rotate().unwrap();
        wal.append(&batch(3)).unwrap();
        drop(wal);
        let (_, entries) = Wal::open(&path, SyncMode::Strict).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(m.appends.get() >= appends0 + 4);
        assert!(m.syncs.get() >= syncs0 + 4, "strict mode fsyncs each append");
        assert!(m.rotations.get() > rotations0);
        assert!(m.replayed.get() > replayed0, "the reopen replayed one entry");
    }

    #[test]
    fn sync_mode_labels_round_trip() {
        for mode in [SyncMode::Strict, SyncMode::Batched(8), SyncMode::None] {
            assert_eq!(SyncMode::parse(&mode.label()), Some(mode));
        }
        assert_eq!(SyncMode::parse("bogus"), Option::None);
    }
}
