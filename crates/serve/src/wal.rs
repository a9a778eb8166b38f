//! Durable serving state: a checksummed write-ahead log plus generation
//! management for `.gsrv` snapshots.
//!
//! # File layout (`<state-dir>/`)
//!
//! ```text
//! snapshot-00000000.gsrv   generation-0 servable snapshot (bootstrap)
//! snapshot-00000001.gsrv   generation written by the first compaction
//! wal.log                  rows accepted since the newest snapshot
//! ```
//!
//! The WAL is a header plus a flat sequence of records:
//!
//! ```text
//! header: "GWAL" | u32 version | u64 generation          (16 bytes)
//! record: u32 len | len bytes of f32-LE row | u64 fnv1a64(len || payload)
//! ```
//!
//! Every accepted incremental row is appended and fsync'd *before* it is
//! inserted into the live index, so the durable state is always a superset
//! of what the server has acknowledged. The header's `generation` ties the
//! records to the snapshot they extend: after a compaction writes
//! generation `g+1`, a crash before the WAL reset leaves a WAL stamped
//! `g` — recovery sees the stale stamp and discards those records instead
//! of double-applying rows that are already folded into the snapshot.
//!
//! # Torn-tail contract
//!
//! A crash mid-append leaves a torn tail. [`Wal::recover`] replays records
//! until the first length/checksum violation, truncates the file at the
//! last good record, counts the tear (`wal.torn`), and keeps serving — a
//! torn tail is expected operational weather, not corruption worth
//! refusing to start over. Only an unreadable file or a failing
//! [`fault::io_failpoint`] surfaces as a typed error.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use gnn4tdl::servable::ServableModel;
use gnn4tdl_tensor::{fault, fnv1a64, obs, GnnError};

const WAL_MAGIC: &[u8; 4] = b"GWAL";
const WAL_VERSION: u32 = 1;
const WAL_HEADER_LEN: u64 = 16;
/// Per-record overhead: u32 length prefix + u64 checksum.
const RECORD_OVERHEAD: usize = 12;

fn io_err(detail: impl Into<String>) -> GnnError {
    GnnError::Io { detail: detail.into() }
}

/// An open write-ahead log. Appends are length-prefixed, checksummed, and
/// fsync'd; the caller (the engine) serializes access behind a mutex.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Byte length of the valid prefix (header + whole records). A failed
    /// append truncates back to this, so a torn in-process write can never
    /// corrupt later records.
    len: u64,
    records: u64,
    generation: u64,
    /// Feature width every record must have; rows of any other width are
    /// treated as a torn tail at recovery.
    in_dim: usize,
}

/// What [`Wal::recover`] found on disk.
pub struct WalRecovery {
    pub wal: Wal,
    /// Replayable rows, oldest first, each exactly `in_dim` wide.
    pub rows: Vec<Vec<f32>>,
    /// 1 if a torn tail was truncated (0 on a clean log). Also covers a
    /// torn/garbage *header*, which resets the log.
    pub torn: u64,
    /// True when the on-disk log belonged to an older snapshot generation
    /// and its records were discarded instead of replayed.
    pub stale: bool,
}

impl Wal {
    /// Creates a fresh log (truncating anything present) stamped with
    /// `generation`.
    pub fn create(path: &Path, generation: u64, in_dim: usize) -> Result<Self, GnnError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(format!("wal create {}: {e}", path.display())))?;
        let mut wal = Wal { file, path: path.to_path_buf(), len: 0, records: 0, generation, in_dim };
        wal.write_header(generation)?;
        Ok(wal)
    }

    /// Opens an existing log (or creates one), replaying its records. See
    /// the module docs for the torn-tail and stale-generation contracts.
    pub fn recover(path: &Path, generation: u64, in_dim: usize) -> Result<WalRecovery, GnnError> {
        if !path.exists() {
            let wal = Self::create(path, generation, in_dim)?;
            return Ok(WalRecovery { wal, rows: Vec::new(), torn: 0, stale: false });
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(format!("wal open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(format!("wal read {}: {e}", path.display())))?;

        // Header checks. A short or garbage header is a tear at offset 0:
        // reset the log rather than refusing to serve.
        if bytes.len() < WAL_HEADER_LEN as usize
            || &bytes[..4] != WAL_MAGIC
            || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != WAL_VERSION
        {
            drop(file);
            let wal = Self::create(path, generation, in_dim)?;
            obs::counter_add("wal.torn", 1);
            return Ok(WalRecovery { wal, rows: Vec::new(), torn: 1, stale: false });
        }
        let disk_generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if disk_generation != generation {
            // Records extend an older (or, after a botched manual copy, a
            // newer) snapshot than the one we are starting from; replaying
            // them would double-apply or misapply rows. Discard.
            drop(file);
            let wal = Self::create(path, generation, in_dim)?;
            return Ok(WalRecovery { wal, rows: Vec::new(), torn: 0, stale: true });
        }

        let row_bytes = in_dim * 4;
        let mut rows = Vec::new();
        let mut good = WAL_HEADER_LEN as usize;
        let mut torn = 0u64;
        loop {
            let rest = &bytes[good..];
            if rest.is_empty() {
                break;
            }
            if rest.len() < RECORD_OVERHEAD + row_bytes {
                torn = 1; // partial record at the tail
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            if len != row_bytes {
                torn = 1; // length corrupt (or written by a different model)
                break;
            }
            let payload = &rest[4..4 + len];
            let stored = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
            if fnv1a64(&rest[..4 + len]) != stored {
                torn = 1;
                break;
            }
            rows.push(payload.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect());
            good += RECORD_OVERHEAD + len;
        }
        if torn == 1 {
            file.set_len(good as u64).map_err(|e| io_err(format!("wal truncate {}: {e}", path.display())))?;
            file.sync_data().map_err(|e| io_err(format!("wal sync {}: {e}", path.display())))?;
            obs::counter_add("wal.torn", 1);
        }
        file.seek(SeekFrom::Start(good as u64))
            .map_err(|e| io_err(format!("wal seek {}: {e}", path.display())))?;
        let records = rows.len() as u64;
        obs::counter_add("wal.replayed", records);
        let wal = Wal { file, path: path.to_path_buf(), len: good as u64, records, generation, in_dim };
        Ok(WalRecovery { wal, rows, torn, stale: false })
    }

    fn write_header(&mut self, generation: u64) -> Result<(), GnnError> {
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        self.file
            .write_all(&header)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(format!("wal header {}: {e}", self.path.display())))?;
        self.len = WAL_HEADER_LEN;
        self.records = 0;
        self.generation = generation;
        Ok(())
    }

    /// Appends one accepted row and fsyncs: [`Self::append_all`] of one row.
    pub fn append(&mut self, row: &[f32]) -> Result<(), GnnError> {
        self.append_all(&[row])
    }

    /// Appends a batch of accepted rows with one write and one fsync: all
    /// or nothing. The `wal.append` failpoint fires once, *before* any byte
    /// is written (a typed, non-wedging 503: no row is durable or in the
    /// index); a real write error truncates the file back to its pre-batch
    /// length before surfacing.
    pub fn append_all(&mut self, rows: &[impl AsRef<[f32]>]) -> Result<(), GnnError> {
        fault::io_failpoint("wal.append").map_err(|e| io_err(format!("wal append: {e}")))?;
        let mut bytes = Vec::with_capacity(rows.len() * (RECORD_OVERHEAD + self.in_dim * 4));
        for row in rows {
            let row = row.as_ref();
            debug_assert_eq!(row.len(), self.in_dim);
            let start = bytes.len();
            bytes.extend_from_slice(&((row.len() * 4) as u32).to_le_bytes());
            for &x in row {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            let checksum = fnv1a64(&bytes[start..]);
            bytes.extend_from_slice(&checksum.to_le_bytes());
        }
        let wrote = self.file.write_all(&bytes).and_then(|()| self.file.sync_data());
        if let Err(e) = wrote {
            // Leave no torn tail behind for the *next* append to build on.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(io_err(format!("wal append {}: {e}", self.path.display())));
        }
        self.len += bytes.len() as u64;
        self.records += rows.len() as u64;
        obs::counter_add("wal.appends", rows.len() as u64);
        Ok(())
    }

    /// Truncates the log and stamps it with the new snapshot generation —
    /// called after a compacted snapshot has been written *and verified*,
    /// so a crash at any point leaves a recoverable pair (old snapshot +
    /// full WAL, or new snapshot + stale-stamped WAL).
    pub fn reset(&mut self, generation: u64) -> Result<(), GnnError> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .map_err(|e| io_err(format!("wal reset {}: {e}", self.path.display())))?;
        self.write_header(generation)
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A serving state directory: versioned snapshot generations plus the WAL.
pub struct StateDir {
    dir: PathBuf,
}

impl StateDir {
    /// Opens (creating if needed) a state directory.
    pub fn new(dir: &Path) -> Result<Self, GnnError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(format!("state dir {}: {e}", dir.display())))?;
        Ok(StateDir { dir: dir.to_path_buf() })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    pub fn snapshot_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{generation:08}.gsrv"))
    }

    /// Generations present on disk, ascending. Non-snapshot files are
    /// ignored; parse failures are skipped rather than fatal.
    pub fn generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name();
                    let name = name.to_str()?;
                    name.strip_prefix("snapshot-")?.strip_suffix(".gsrv")?.parse::<u64>().ok()
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Loads the newest generation that passes checksum + validation,
    /// falling back to older generations on corruption (`skipped` counts
    /// the corrupt ones). Errors only when no generation loads.
    pub fn load_newest(&self) -> Result<(ServableModel, usize), GnnError> {
        let gens = self.generations();
        if gens.is_empty() {
            return Err(GnnError::Checkpoint {
                detail: format!("no snapshot generations in {}", self.dir.display()),
            });
        }
        let mut skipped = 0usize;
        let mut last_err = None;
        for &gen in gens.iter().rev() {
            match ServableModel::load(&self.snapshot_path(gen)) {
                Ok(mut model) => {
                    // The filename is authoritative for v1 snapshots that
                    // predate embedded generation metadata.
                    if model.generation == 0 {
                        model.generation = gen;
                    }
                    return Ok((model, skipped));
                }
                Err(e) => {
                    skipped += 1;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| GnnError::Checkpoint {
            detail: format!("no loadable snapshot in {}", self.dir.display()),
        }))
    }

    /// Writes `model` as its stamped generation (temp-file + rename via
    /// `atomic_write`), then *verify-loads* it before returning — the old
    /// generation stays on disk until the new one has proven readable, so
    /// a crash or corrupt write can never orphan the serving state.
    pub fn install(&self, model: &ServableModel) -> Result<PathBuf, GnnError> {
        let path = self.snapshot_path(model.generation);
        model.save(&path)?;
        let reread = ServableModel::load(&path)?;
        if reread.generation != model.generation || reread.corpus_len() != model.corpus_len() {
            return Err(GnnError::Checkpoint {
                detail: format!("snapshot {} failed post-write verification", path.display()),
            });
        }
        self.prune(model.generation);
        Ok(path)
    }

    /// Removes generations older than the previous one (keep the newest
    /// two: the live generation and one rollback target). Best-effort —
    /// a failed unlink only costs disk.
    fn prune(&self, newest: u64) {
        for gen in self.generations() {
            if gen + 1 < newest {
                let _ = std::fs::remove_file(self.snapshot_path(gen));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Every test that reaches an io failpoint takes `fault::TEST_MUTEX`:
    //! the fault plan is process-global, so a concurrent test arming
    //! io-fail would otherwise fail its writes.

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnn4tdl-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(step: usize, dim: usize) -> Vec<f32> {
        (0..dim).map(|i| ((i + step) as f32 * 0.17).sin()).collect()
    }

    #[test]
    fn append_then_recover_round_trips() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmp("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 3, 4).unwrap();
        let rows: Vec<Vec<f32>> = (0..5).map(|s| row(s, 4)).collect();
        for r in &rows {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.records(), 5);
        drop(wal);
        let rec = Wal::recover(&path, 3, 4).unwrap();
        assert_eq!(rec.rows, rows);
        assert_eq!(rec.torn, 0);
        assert!(!rec.stale);
        assert_eq!(rec.wal.records(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmp("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 0, 3).unwrap();
        for s in 0..4 {
            wal.append(&row(s, 3)).unwrap();
        }
        drop(wal);
        // Chop 5 bytes off the tail: the last record is torn.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let rec = Wal::recover(&path, 0, 3).unwrap();
        assert_eq!(rec.rows.len(), 3);
        assert_eq!(rec.torn, 1);
        // The truncated log is clean: appending and re-recovering works.
        let mut wal = rec.wal;
        wal.append(&row(9, 3)).unwrap();
        drop(wal);
        let rec = Wal::recover(&path, 0, 3).unwrap();
        assert_eq!(rec.rows.len(), 4);
        assert_eq!(rec.torn, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_mid_log_truncates_at_the_flip() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmp("flip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 0, 3).unwrap();
        for s in 0..4 {
            wal.append(&row(s, 3)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the second record's payload; records 0 survives, 1..
        // are dropped (everything after the flip is untrusted).
        let off = WAL_HEADER_LEN as usize + (RECORD_OVERHEAD + 12) + 6;
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::recover(&path, 0, 3).unwrap();
        assert_eq!(rec.rows.len(), 1);
        assert_eq!(rec.torn, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_is_discarded_not_replayed() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmp("stale");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 0, 3).unwrap();
        for s in 0..3 {
            wal.append(&row(s, 3)).unwrap();
        }
        drop(wal);
        // Simulate "compaction wrote generation 1, crashed before reset".
        let rec = Wal::recover(&path, 1, 3).unwrap();
        assert!(rec.stale);
        assert!(rec.rows.is_empty());
        assert_eq!(rec.wal.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_header_resets_the_log() {
        let dir = tmp("garbage");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"not a wal at all").unwrap();
        let rec = Wal::recover(&path, 2, 3).unwrap();
        assert_eq!(rec.torn, 1);
        assert!(rec.rows.is_empty());
        assert_eq!(rec.wal.generation(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_fault_is_typed_and_leaves_log_clean() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmp("fault");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 0, 3).unwrap();
        wal.append(&row(0, 3)).unwrap();
        {
            let _fault = fault::arm_guard(fault::FaultKind::IoFail, 7, 1.0);
            let err = wal.append(&row(1, 3)).unwrap_err();
            assert!(matches!(err, GnnError::Io { .. }));
        }
        // The failed append wrote nothing: the log recovers with one row.
        wal.append(&row(2, 3)).unwrap();
        drop(wal);
        let rec = Wal::recover(&path, 0, 3).unwrap();
        assert_eq!(rec.rows.len(), 2);
        assert_eq!(rec.torn, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
