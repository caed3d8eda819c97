//! Incremental (delta) checkpoints: per-shard dirty-job deltas against
//! a rotating base snapshot.
//!
//! [`Scheduler::checkpoint`](crate::Scheduler::checkpoint) serializes
//! every live job, so its cost grows with fleet size even when almost
//! nothing moved since the last snapshot — fine for one scheduler,
//! ruinous for a sharded fleet snapshotting every few ticks. A
//! [`DeltaCheckpointer`] instead writes a full **base** snapshot once
//! per epoch and then small **delta** segments against it:
//!
//! * **Dirty jobs only.** A job is re-encoded only when its iteration
//!   count moved since the last segment (every state change a cursor
//!   can make advances its iteration counter, so the counter is a
//!   sound one-word fingerprint). Jobs parked in the queue cost
//!   nothing per delta beyond their id.
//! * **Differential queue layout.** The scheduler only ever removes
//!   queue entries in place and appends at the tail, so the queue is
//!   encoded as `(removed ids, deficit updates, appended entries)`
//!   against the previous segment — `O(churn)`, not `O(queue)`. When
//!   an exotic mutation breaks that shape (e.g. a job stolen away and
//!   re-adopted between snapshots), the segment falls back to a full
//!   layout, flagged as such.
//! * **The result log's tail.** Completed-job reports live in an
//!   append-only result log, in completion order, each encoded once
//!   when its job retired. A delta writes the records appended since
//!   the previous segment as one checksummed section (the same codec
//!   the base's whole log goes through), so a snapshot never scans the
//!   finished history. A finished job's metadata retires with it, and
//!   chain replay drops it too.
//! * **Rotation + compaction.** After `deltas_per_base` segments the
//!   next snapshot is a fresh base in a new epoch, and the files of
//!   older epochs are deleted — disk usage is bounded by one base plus
//!   one epoch of deltas. The directory is listed once, when the
//!   checkpointer opens: the first base deletes what that listing found,
//!   and each later one deletes the previous epoch's file and base temp
//!   file, and the temp file of any base that failed since, by name. A
//!   failed snapshot forces the next one to be a fresh base: the
//!   fingerprints have already moved past what reached the disk.
//! * **One body.** A base is a header (magic, config, device specs)
//!   and then the body a delta writes, written against an empty chain:
//!   every live job is dirty, every live job's metadata an upsert, and
//!   the result log's tail is the whole log. One writer produces the
//!   body of both kinds, and of [`FleetCheckpoint::to_bytes`]; one
//!   reader replays it, so the two layouts cannot drift apart.
//!
//! ## On disk
//!
//! Each scheduler has one directory, and each epoch one append-only
//! file in it, `epoch-EEEEEEEE.ckpt`: the magic `LNLSCHN\x01` and the
//! epoch as a `u64`, then one **frame** per segment — the segment's
//! length as a `u64`, its bytes, and a `u64` checksum over the length
//! and the bytes. Frame 0 holds the base (`LNLSFLT…`), frame `i ≥ 1`
//! delta `i` (`LNLSDLT…`, the epoch, the index `i`, the body). The
//! header and frame 0 reach the disk through [`write_atomic`], so an
//! epoch file only ever appears holding a complete base; each delta is
//! one appended frame, and a failed append is cut back off the file.
//!
//! [`CheckpointStore::load_latest`] reads the newest epoch file, walks
//! its frames and replays the chain, returning a [`FleetCheckpoint`]
//! identical to what a full
//! [`checkpoint()`](crate::Scheduler::checkpoint) at the same instant
//! would have produced. A broken chain — a file whose magic or epoch
//! disagrees with its name, a frame cut short or failing its checksum,
//! no base in frame 0, a delta whose header names another place in the
//! chain — comes back as a typed [`CheckpointError`] naming the file or
//! the frame (`epoch-EEEEEEEE.ckpt#i`), so the operator knows *which*
//! segment broke instead of staring at a generic decode failure. A file
//! cut exactly at a frame boundary holds a shorter chain, and loads as
//! one. Every segment, base or delta, passes the same checks once its
//! body is read: no trailing bytes; one clock and one active slot per
//! backend, one ledger per device and at least one device; no job id
//! twice across the queue and active layouts; and every layout id
//! resolving to a job the chain carries, with its metadata. A segment
//! that fails one is refused by name as well.

use crate::exec::JobExec;
use crate::job::JobId;
use crate::persist::{
    checksum, encode_job, read_header, write_header, write_seq, JobRegistry, MAGIC as BASE_MAGIC,
};
use crate::scheduler::{Active, FleetCheckpoint, FleetState, JobMeta, QueueEntry, Scheduler};
use lnls_core::persist::{write_atomic, Persist, PersistError, Reader};
use lnls_gpu_sim::TimeBook;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a delta segment (`LNLSDLT` + format version).
const DELTA_MAGIC: &[u8; 8] = b"LNLSDLT\x03";

/// Magic prefix of an epoch file (`LNLSCHN` + format version).
const EPOCH_MAGIC: &[u8; 8] = b"LNLSCHN\x01";

/// Typed failure modes of checkpoint loading — every variant names the
/// file, or the frame of an epoch file (`epoch-EEEEEEEE.ckpt#i`), that
/// broke the chain.
#[derive(Debug)]
pub enum CheckpointError {
    /// The base snapshot a chain needs is gone: frame 0 of an epoch
    /// file is absent or holds no base (or a directly-loaded checkpoint
    /// file does not exist).
    MissingBase {
        /// Where the base should have been.
        segment: String,
    },
    /// The delta chain has a hole: the frame where delta `index`
    /// belongs holds a later delta of the same epoch.
    MissingDelta {
        /// Where the missing segment should have been.
        segment: String,
        /// Epoch of the broken chain.
        epoch: u64,
        /// The first missing delta index.
        index: u64,
    },
    /// A segment exists but does not decode (truncated, garbled,
    /// misplaced, or referencing a job the chain never carried), or an
    /// epoch file's header does not match its name.
    CorruptSegment {
        /// The file or frame that failed to decode.
        segment: String,
        /// The decoder's diagnosis.
        source: PersistError,
    },
    /// The store directory holds no snapshot at all.
    Empty {
        /// The directory that was scanned.
        dir: String,
    },
    /// An I/O failure outside the not-found case (permissions, disk).
    Io {
        /// Path of the segment being read or written.
        segment: String,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::MissingBase { segment } => {
                write!(f, "missing base checkpoint segment '{segment}'")
            }
            CheckpointError::MissingDelta { segment, epoch, index } => write!(
                f,
                "delta chain of epoch {epoch} has a hole: segment '{segment}' \
                 (delta index {index}) is missing"
            ),
            CheckpointError::CorruptSegment { segment, source } => {
                write!(f, "corrupt checkpoint segment '{segment}': {source}")
            }
            CheckpointError::Empty { dir } => {
                write!(f, "checkpoint store '{dir}' holds no snapshot")
            }
            CheckpointError::Io { segment, source } => {
                write!(f, "i/o error on checkpoint segment '{segment}': {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::CorruptSegment { source, .. } => Some(source),
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A directory of checkpoint segments for one scheduler: one
/// append-only file per epoch, holding its base and the deltas written
/// against it (see the module docs for the layout).
///
/// The store is deliberately dumb — naming, framing and chain replay.
/// Writing segments on a cadence, deciding *what* is dirty and deleting
/// what a new base makes obsolete is [`DeltaCheckpointer`]'s job.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:08}.ckpt"))
    }

    /// The newest epoch with a file on disk (`None` for an empty
    /// store). A re-armed [`DeltaCheckpointer`] starts past it so its
    /// first base never collides with — or appends to — a previous
    /// incarnation's chain.
    pub fn newest_epoch(&self) -> io::Result<Option<u64>> {
        Ok(self.scan()?.0)
    }

    /// One listing of the directory: the newest epoch with a file, and
    /// every epoch file and base temp file it holds.
    fn scan(&self) -> io::Result<(Option<u64>, Vec<PathBuf>)> {
        let (mut newest, mut files) = (None, Vec::new());
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some((epoch, complete)) = parse_epoch_name(&entry.file_name().to_string_lossy())
            {
                if complete {
                    newest = newest.max(Some(epoch));
                }
                files.push(entry.path());
            }
        }
        Ok((newest, files))
    }

    /// Read the newest epoch file and replay its chain: the base in
    /// frame 0, then every delta in frame order. Returns a
    /// [`FleetCheckpoint`] identical to the full checkpoint the
    /// scheduler would have written at the instant of the last frame.
    /// Typed errors name the file or the broken frame (see
    /// [`CheckpointError`]).
    pub fn load_latest(&self, registry: &JobRegistry) -> Result<FleetCheckpoint, CheckpointError> {
        let dir = || self.dir.display().to_string();
        let epoch = self
            .newest_epoch()
            .map_err(|source| CheckpointError::Io { segment: dir(), source })?
            .ok_or_else(|| CheckpointError::Empty { dir: dir() })?;
        let path = self.epoch_path(epoch);
        let file = path.display().to_string();
        let bytes = std::fs::read(&path)
            .map_err(|source| CheckpointError::Io { segment: file.clone(), source })?;
        let mut r = Reader::new(&bytes);
        r.expect_magic(EPOCH_MAGIC, "checkpoint epoch file")
            .and_then(|()| match r.read::<u64>()? {
                e if e == epoch => Ok(()),
                e => Err(PersistError::new(format!("the file holds epoch {e}"))),
            })
            .map_err(|source| CheckpointError::CorruptSegment { segment: file.clone(), source })?;
        let mut chain = None;
        let mut index = 0;
        while r.remaining() > 0 {
            let segment = format!("{file}#{index}");
            let corrupt =
                |source| CheckpointError::CorruptSegment { segment: segment.clone(), source };
            let frame = read_frame(&mut r).map_err(corrupt)?;
            match &mut chain {
                None if !frame.starts_with(BASE_MAGIC) => {
                    return Err(CheckpointError::MissingBase { segment });
                }
                None => chain = Some(ChainState::base(frame, registry).map_err(corrupt)?),
                Some(chain) => {
                    let mut d = Reader::new(frame);
                    match delta_position(&mut d).map_err(corrupt)? {
                        at if at == (epoch, index) => {
                            chain.read_body(&mut d, registry).map_err(corrupt)?;
                        }
                        (e, i) if e == epoch && i > index => {
                            return Err(CheckpointError::MissingDelta { segment, epoch, index });
                        }
                        (e, i) => {
                            let held = format!("the frame holds delta {i} of epoch {e}");
                            return Err(corrupt(PersistError::new(held)));
                        }
                    }
                }
            }
            index += 1;
        }
        chain
            .map(ChainState::into_checkpoint)
            .ok_or_else(|| CheckpointError::MissingBase { segment: format!("{file}#0") })
    }
}

/// `epoch-EEEEEEEE.ckpt` → `(epoch, true)`; `epoch-EEEEEEEE.tmp`, a base
/// write that never reached its rename, → `(epoch, false)`.
fn parse_epoch_name(name: &str) -> Option<(u64, bool)> {
    let (epoch, ext) = name.strip_prefix("epoch-")?.split_once('.')?;
    let complete = match ext {
        "ckpt" => true,
        "tmp" => false,
        _ => return None,
    };
    Some((epoch.parse().ok()?, complete))
}

/// One frame of an epoch file: its length, that many segment bytes and
/// the checksum over both. The length is checked against the bytes
/// left before anything is sliced.
fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    let len: u64 = r.read()?;
    let segment = usize::try_from(len)
        .ok()
        .and_then(|n| r.take(n).ok())
        .ok_or_else(|| PersistError::new(format!("frame of {len} bytes is cut short")))?;
    let stored: u64 = r.read()?;
    if checksum(&[&len.to_le_bytes(), segment]) != stored {
        return Err(PersistError::new("frame checksum mismatch"));
    }
    Ok(segment)
}

/// A delta segment's header: its magic, then the epoch and the index it
/// was written as.
fn delta_position(r: &mut Reader<'_>) -> Result<(u64, u64), PersistError> {
    r.expect_magic(DELTA_MAGIC, "delta checkpoint segment")?;
    Ok((r.read()?, r.read()?))
}

/// What one [`DeltaCheckpointer::snapshot`] call wrote.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A full base snapshot opened a new epoch (and compacted the old).
    Base,
    /// A delta segment extended the current chain.
    Delta,
}

/// Size/churn accounting for one written segment — the raw material of
/// the checkpoint-size-vs-fleet-size bench curve.
#[derive(Copy, Clone, Debug)]
pub struct SnapshotStats {
    /// Whether a base or a delta was written.
    pub kind: SnapshotKind,
    /// Bytes of the written segment, without its frame's length and
    /// checksum (or an epoch file's header).
    pub bytes: u64,
    /// Jobs whose payload was (re-)encoded: every live job for a base,
    /// only the dirty ones for a delta.
    pub dirty_jobs: usize,
    /// Live (queued + running) checkpointable jobs at snapshot time.
    pub live_jobs: usize,
}

/// Writes a scheduler's snapshots as a rotating base + delta chain
/// into a [`CheckpointStore`], tracking per-job fingerprints so a
/// delta re-encodes only what moved. See the module docs for the
/// format and the dirtiness rules.
pub struct DeltaCheckpointer {
    store: CheckpointStore,
    deltas_per_base: u64,
    epoch: u64,
    next_index: u64,
    /// Bytes of the current epoch file up to the end of its last frame.
    file_len: u64,
    written: Written,
    /// Files the next base makes obsolete, deleted by name once it
    /// lands: what the directory held at `open`, then each epoch's file
    /// and base temp file since.
    stale: Vec<PathBuf>,
}

impl DeltaCheckpointer {
    /// Open a checkpointer over `dir`, writing a fresh base every
    /// `deltas_per_base` deltas (clamped to at least 1). The first
    /// [`snapshot`](Self::snapshot) always writes a base. Over a
    /// directory that already holds segments (re-arming after a
    /// restore), that base opens a **new** epoch past everything on
    /// disk, so the new chain never lands in a previous incarnation's
    /// file.
    pub fn open(dir: impl Into<PathBuf>, deltas_per_base: u64) -> io::Result<Self> {
        let store = CheckpointStore::open(dir)?;
        let (newest, stale) = store.scan()?;
        Ok(Self {
            store,
            deltas_per_base: deltas_per_base.max(1),
            epoch: newest.unwrap_or(0),
            next_index: 0,
            file_len: 0,
            written: Written::default(),
            stale,
        })
    }

    /// The underlying segment store (for
    /// [`CheckpointStore::load_latest`] after a crash).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Snapshot `scheduler` now: a base when the epoch is due to
    /// rotate (first call, or `deltas_per_base` deltas written), a
    /// delta otherwise. After a failed snapshot the next one is a base:
    /// the fingerprints already moved past what reached the disk.
    pub fn snapshot(&mut self, scheduler: &Scheduler) -> Result<SnapshotStats, CheckpointError> {
        let written = self.write_segment(scheduler);
        if written.is_err() {
            self.next_index = 0;
        }
        written
    }

    /// Write one segment from the live scheduler, in place, as one frame:
    /// a base opens a new epoch file and resets the fingerprints, so its
    /// body is written against an empty chain; a delta is appended to
    /// the current file.
    fn write_segment(&mut self, s: &Scheduler) -> Result<SnapshotStats, CheckpointError> {
        let base = self.next_index == 0 || self.next_index > self.deltas_per_base;
        let devices = 0..s.devices.len();
        let mut out = Vec::new();
        if base {
            self.epoch += 1;
            self.next_index = 0;
            self.written = Written::default();
            out.extend_from_slice(EPOCH_MAGIC);
            self.epoch.write(&mut out);
        }
        // The frame: the segment's length (patched in below), the
        // segment, then the checksum over both.
        let len_at = out.len();
        0u64.write(&mut out);
        let segment_at = out.len();
        if base {
            write_header(&s.state.cfg, devices.clone().map(|i| s.devices.spec(i)), &mut out);
        } else {
            out.extend_from_slice(DELTA_MAGIC);
            self.epoch.write(&mut out);
            self.next_index.write(&mut out);
        }
        let books = devices.map(|i| s.devices.device(i).book());
        let (dirty_jobs, live_jobs) = write_body(&s.state, books, &mut self.written, &mut out);
        let len = (out.len() - segment_at) as u64;
        out[len_at..segment_at].copy_from_slice(&len.to_le_bytes());
        let sum = checksum(&[&out[len_at..segment_at], &out[segment_at..]]);
        sum.write(&mut out);

        let path = self.store.epoch_path(self.epoch);
        let io_err = |source| CheckpointError::Io { segment: path.display().to_string(), source };
        if base {
            let tmp = path.with_extension("tmp");
            if let Err(source) = write_atomic(&path, &out) {
                // The rename never happened: only the temp file can be left.
                self.stale.push(tmp);
                return Err(io_err(source));
            }
            self.file_len = out.len() as u64;
            // Only compact once the new anchor is on disk; a crash
            // between the two leaves both epochs loadable.
            let removed = remove_stale(&mut self.stale);
            self.stale.extend([path.clone(), tmp]);
            removed.map_err(io_err)?;
        } else {
            append(&path, &out, self.file_len).map_err(io_err)?;
            self.file_len += out.len() as u64;
        }
        self.next_index += 1;
        Ok(SnapshotStats {
            kind: if base { SnapshotKind::Base } else { SnapshotKind::Delta },
            bytes: len,
            dirty_jobs,
            live_jobs,
        })
    }
}

/// Delete each of `stale`, forgetting the ones deleted or already gone;
/// on an error the rest stay for the next base to retry.
fn remove_stale(stale: &mut Vec<PathBuf>) -> io::Result<()> {
    while let Some(file) = stale.last() {
        match std::fs::remove_file(file) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => stale.pop(),
        };
    }
    Ok(())
}

/// Append `frame` to the epoch file at `path` in one write. The file
/// must exist: a vanished one is an error, never a new file without a
/// base. A failed write is cut back off to `good_len`, the end of the
/// last good frame (best effort: the next snapshot opens a new epoch
/// anyway).
fn append(path: &Path, frame: &[u8], good_len: u64) -> io::Result<()> {
    let mut file = OpenOptions::new().append(true).open(path)?;
    let written = file.write_all(frame);
    if written.is_err() {
        let _ = file.set_len(good_len);
    }
    written
}

/// What a chain's segments hold so far, so that the next body writes
/// only what moved. An empty one writes everything: a base.
#[derive(Default)]
pub(crate) struct Written {
    /// iteration count at the last segment, per live job.
    job_fp: BTreeMap<JobId, u64>,
    /// `first_started_s` bits at the last segment, per live job.
    meta_fp: BTreeMap<JobId, u64>,
    /// Result-log records the chain holds.
    logged: usize,
    /// `(id, deficit)` of each queued job at the last segment.
    prev_queue: Vec<(u64, u64)>,
}

fn meta_fingerprint(m: &JobMeta) -> u64 {
    m.first_started_s.map_or(u64::MAX, f64::to_bits)
}

/// Write the body of a segment against what `w` says the chain holds,
/// and move `w` up to it: the scheduler scalars and the device ledgers
/// `books`, the queue and active layouts, the jobs and metadata that
/// moved, and the result log's new tail. Jobs submitted without a
/// checkpoint are left out. Returns the jobs written in full and the
/// live jobs.
pub(crate) fn write_body<'a>(
    s: &FleetState,
    books: impl ExactSizeIterator<Item = &'a TimeBook>,
    w: &mut Written,
    out: &mut Vec<u8>,
) -> (usize, usize) {
    s.clocks.write(out);
    write_seq(books, out);
    s.rr_next.write(out);
    s.next_id.write(out);
    s.next_seq.write(out);
    s.counters.write(out);
    let cancels: Vec<u64> = s.cancel_requested.iter().map(|id| id.0).collect();
    cancels.write(out);

    // Queue layout: differential when the tick's mutations kept the
    // removal+append shape, full otherwise.
    let new_queue: Vec<(u64, u64)> = s
        .queue
        .iter()
        .filter(|e| s.persists(e.job.id()))
        .map(|e| (e.job.id().0, e.deficit))
        .collect();
    match queue_diff(&w.prev_queue, &new_queue) {
        Some((removed, deficits, appended)) => {
            1u8.write(out);
            removed.write(out);
            deficits.write(out);
            appended.write(out);
        }
        None => {
            0u8.write(out);
            new_queue.write(out);
        }
    }
    w.prev_queue = new_queue;

    // Active layout: O(backends), always full.
    s.active.len().write(out);
    for slot in &s.active {
        let jobs: Vec<(u64, u64)> = slot
            .as_ref()
            .map(|a| {
                a.jobs
                    .iter()
                    .filter(|e| s.persists(e.job.id()))
                    .map(|e| (e.job.id().0, e.deficit))
                    .collect()
            })
            .unwrap_or_default();
        match slot {
            Some(a) if !jobs.is_empty() => {
                1u8.write(out);
                a.started_s.write(out);
                a.slice_budget.write(out);
                a.slice_used.write(out);
                jobs.write(out);
            }
            _ => 0u8.write(out),
        }
    }

    // Dirty jobs: live, checkpointable, and moved since the last
    // segment (or new to the chain).
    let mut live_ids: BTreeSet<JobId> = BTreeSet::new();
    let mut dirty: Vec<&dyn JobExec> = Vec::new();
    for QueueEntry { job, .. } in s.live() {
        let id = job.id();
        if !s.persists(id) {
            continue;
        }
        live_ids.insert(id);
        let fp = job.iterations();
        if w.job_fp.get(&id) != Some(&fp) {
            w.job_fp.insert(id, fp);
            dirty.push(&**job);
        }
    }
    w.job_fp.retain(|id, _| live_ids.contains(id));
    dirty.len().write(out);
    for job in &dirty {
        encode_job(*job, out);
    }

    // Meta upserts of the jobs this segment carries: new ids, or
    // the one mutable field (`first_started_s`) moved.
    let mut meta_upserts: Vec<(JobId, &JobMeta)> = Vec::new();
    for (id, m) in s.meta.iter().filter(|(id, _)| live_ids.contains(id)) {
        let fp = meta_fingerprint(m);
        if w.meta_fp.get(id) != Some(&fp) {
            w.meta_fp.insert(*id, fp);
            meta_upserts.push((*id, m));
        }
    }
    w.meta_fp.retain(|id, _| live_ids.contains(id));
    meta_upserts.len().write(out);
    for (id, m) in &meta_upserts {
        id.write(out);
        m.write(out);
    }

    // The result log's new tail.
    s.results.write_section(w.logged, out);
    w.logged = s.results.len();
    (dirty.len(), live_ids.len())
}

/// Try to express `new` as `old` minus removals (order preserved), with
/// in-place deficit updates, plus a tail of appended entries — the only
/// mutations a scheduler tick performs. Returns `None` when the shape
/// does not hold (the writer then falls back to a full layout).
#[allow(clippy::type_complexity)]
fn queue_diff(
    old: &[(u64, u64)],
    new: &[(u64, u64)],
) -> Option<(Vec<u64>, Vec<(u64, u64)>, Vec<(u64, u64)>)> {
    let new_ids: BTreeSet<u64> = new.iter().map(|e| e.0).collect();
    let old_ids: BTreeSet<u64> = old.iter().map(|e| e.0).collect();
    let surviving: Vec<&(u64, u64)> = old.iter().filter(|e| new_ids.contains(&e.0)).collect();
    if new.len() < surviving.len() {
        return None;
    }
    let mut deficits = Vec::new();
    for (kept, fresh) in surviving.iter().zip(new) {
        if kept.0 != fresh.0 {
            return None; // surviving order changed: not removal+append
        }
        if kept.1 != fresh.1 {
            deficits.push(*fresh);
        }
    }
    let appended = &new[surviving.len()..];
    if appended.iter().any(|e| old_ids.contains(&e.0)) {
        return None; // an old id re-appeared at the tail
    }
    let removed: Vec<u64> = old.iter().map(|e| e.0).filter(|id| !new_ids.contains(id)).collect();
    // A diff bigger than the full layout buys nothing.
    if removed.len() + deficits.len() + appended.len() > new.len() {
        return None;
    }
    Some((removed, deficits, appended.to_vec()))
}

/// One decoded active-batch slot: `(started_s, slice_budget,
/// slice_used, [(job id, iters done)])`, or `None` for an idle device.
type ActiveSlot = Option<(f64, u64, u64, Vec<(u64, u64)>)>;

/// Chain replay state: a base's header, then the body of every segment
/// read over it. Queue and active state live as id layouts against a
/// shared job table until [`into_checkpoint`](Self::into_checkpoint)
/// materializes them.
pub(crate) struct ChainState {
    /// Everything but the queue and the active slots.
    checkpoint: FleetCheckpoint,
    jobs: BTreeMap<u64, Box<dyn JobExec>>,
    queue_layout: Vec<(u64, u64)>,
    active_layout: Vec<ActiveSlot>,
}

impl ChainState {
    /// Decode a base segment: its header, then its body against an
    /// empty chain.
    pub(crate) fn base(bytes: &[u8], registry: &JobRegistry) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        let (cfg, specs) = read_header(&mut r)?;
        let state = FleetState::new(cfg, 0);
        let mut chain = Self {
            checkpoint: FleetCheckpoint { specs, device_books: Vec::new(), state },
            jobs: BTreeMap::new(),
            queue_layout: Vec::new(),
            active_layout: Vec::new(),
        };
        chain.read_body(&mut r, registry)?;
        Ok(chain)
    }

    /// Read the base segment at `path`. A vanished file is
    /// [`MissingBase`](CheckpointError::MissingBase), one that does not
    /// decode a [`CorruptSegment`](CheckpointError::CorruptSegment).
    pub(crate) fn load_base(path: &Path, registry: &JobRegistry) -> Result<Self, CheckpointError> {
        let segment = path.display().to_string();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(CheckpointError::MissingBase { segment });
            }
            Err(e) => return Err(CheckpointError::Io { segment, source: e }),
        };
        Self::base(&bytes, registry)
            .map_err(|source| CheckpointError::CorruptSegment { segment, source })
    }

    /// Read what [`write_body`] wrote, then check the chain as it
    /// stands: the checks every segment passes (see the module docs).
    fn read_body(
        &mut self,
        r: &mut Reader<'_>,
        registry: &JobRegistry,
    ) -> Result<(), PersistError> {
        let FleetCheckpoint { specs, device_books, state } = &mut self.checkpoint;
        state.clocks = r.read()?;
        *device_books = r.read()?;
        state.rr_next = r.read()?;
        state.next_id = r.read()?;
        state.next_seq = r.read()?;
        state.counters = r.read()?;
        let cancels: Vec<u64> = r.read()?;
        state.cancel_requested = cancels.into_iter().map(JobId).collect();

        // Queue layout (differential or full).
        let queue_layout: Vec<(u64, u64)> = match u8::read(r)? {
            1 => {
                let removed: Vec<u64> = r.read()?;
                let deficits: Vec<(u64, u64)> = r.read()?;
                let appended: Vec<(u64, u64)> = r.read()?;
                let removed: BTreeSet<u64> = removed.into_iter().collect();
                let mut layout: Vec<(u64, u64)> =
                    self.queue_layout.iter().copied().filter(|e| !removed.contains(&e.0)).collect();
                for (id, deficit) in deficits {
                    match layout.iter_mut().find(|e| e.0 == id) {
                        Some(e) => e.1 = deficit,
                        None => {
                            return Err(PersistError::new(format!(
                                "queue diff updates job #{id} absent from the chain"
                            )));
                        }
                    }
                }
                layout.extend(appended);
                layout
            }
            0 => r.read()?,
            b => return Err(PersistError::new(format!("bad queue-layout tag {b}"))),
        };

        // Active layout.
        let active_len: usize = r.read()?;
        let mut active_layout: Vec<ActiveSlot> = Vec::with_capacity(active_len.min(1024));
        for _ in 0..active_len {
            active_layout.push(match u8::read(r)? {
                0 => None,
                1 => {
                    let started_s: f64 = r.read()?;
                    let slice_budget: u64 = r.read()?;
                    let slice_used: u64 = r.read()?;
                    let jobs: Vec<(u64, u64)> = r.read()?;
                    Some((started_s, slice_budget, slice_used, jobs))
                }
                b => return Err(PersistError::new(format!("bad active-slot tag {b}"))),
            });
        }

        // Dirty job payloads upsert the chain's job table.
        let dirty_len: usize = r.read()?;
        for _ in 0..dirty_len {
            let job = registry.decode_job(r)?;
            self.jobs.insert(job.id().0, job);
        }

        // Meta upserts.
        let meta_upserts: Vec<(JobId, JobMeta)> = r.read()?;
        state.meta.extend(meta_upserts);

        // The result log's tail.
        state.results.read_section(r)?;

        // The checks every segment passes.
        if r.remaining() != 0 {
            return Err(PersistError::new(format!("segment has {} trailing bytes", r.remaining())));
        }
        if specs.is_empty() {
            return Err(PersistError::new("checkpoint holds no device"));
        }
        let backends = specs.len().checked_add(state.cfg.cpu_workers);
        if device_books.len() != specs.len()
            || backends != Some(state.clocks.len())
            || backends != Some(active_layout.len())
        {
            return Err(PersistError::new("inconsistent backend counts"));
        }
        let mut live = BTreeSet::new();
        let layout_ids =
            queue_layout.iter().chain(active_layout.iter().flatten().flat_map(|a| &a.3));
        for &(id, _) in layout_ids {
            if !live.insert(id) {
                return Err(PersistError::new(format!("job #{id} appears twice in the layouts")));
            }
        }
        // Jobs that left every layout retired (or moved to another
        // scheduler): drop their payloads and metadata from the chain.
        self.jobs.retain(|id, _| live.contains(id));
        state.meta.retain(|id, _| live.contains(&id.0));
        for id in live {
            if !self.jobs.contains_key(&id) {
                return Err(PersistError::new(format!(
                    "layout references job #{id} absent from the chain"
                )));
            }
            if !state.meta.contains_key(&JobId(id)) {
                return Err(PersistError::new(format!("job #{id} has no metadata")));
            }
        }
        self.queue_layout = queue_layout;
        self.active_layout = active_layout;
        Ok(())
    }

    /// The checkpoint the chain holds, each job moved out of the table
    /// into its layout slot.
    pub(crate) fn into_checkpoint(self) -> FleetCheckpoint {
        let Self { mut checkpoint, mut jobs, queue_layout, active_layout } = self;
        // `read_body` resolved every layout id, and each one once.
        let mut entries = |layout: Vec<(u64, u64)>| -> Vec<QueueEntry> {
            layout
                .into_iter()
                .map(|(id, deficit)| QueueEntry {
                    job: jobs.remove(&id).expect("a resolved id"),
                    deficit,
                })
                .collect()
        };
        checkpoint.state.queue = entries(queue_layout);
        checkpoint.state.active = active_layout
            .into_iter()
            .map(|slot| {
                slot.map(|(started_s, slice_budget, slice_used, jobs)| Active {
                    jobs: entries(jobs),
                    started_s,
                    slice_budget,
                    slice_used,
                })
            })
            .collect();
        checkpoint
    }
}
