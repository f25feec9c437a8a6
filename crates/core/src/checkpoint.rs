//! Versioned, checksummed training checkpoints — the persistence half of
//! the elastic runtime.
//!
//! Each rank periodically serializes a [`TrainCheckpoint`] — model
//! parameters, its shard of the optimizer state that the training thread's
//! communication engine keeps, the step counter, opaque RNG state, and (on
//! rank 0) the Bayesian-optimization tuner snapshot — to a binary file with
//! a trailing FNV-1a checksum.
//! Writes are atomic (temp file + fsync + rename), so a worker killed
//! mid-write never corrupts the previous checkpoint, and
//! [`CheckpointStore::latest_valid`] skips torn or truncated files on
//! resume.
//!
//! The format is deliberately self-contained: a fixed magic, a version
//! word, little-endian scalars, and length-prefixed arrays. Restoring is
//! bit-exact — every `f32`/`f64` round-trips through `to_bits`, so a
//! resumed run continues on the same trajectory as an uninterrupted one.
//!
//! The format is also **strategy-independent**: [`OptimState`] is always
//! the full-length exchange form, keyed by global offset (zeros outside
//! this rank's shard), although the engine keeps the state in group
//! coordinates — only the ranges it updates, group after group — and
//! translates through the layout's items on export and import. A run checkpointed
//! under one strategy therefore resumes under any other without a version
//! bump, and elastic rebalancing re-partitions the same full-length form.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use dear_fusion::{BayesOptSnapshot, Domain};

use crate::comm::OptimState;

/// First eight bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DEARCKPT";

/// Current format version. Bump on any layout change.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything a worker needs to resume training bit-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainCheckpoint {
    /// Training steps completed when the checkpoint was taken.
    pub step: u64,
    /// Flat model parameters (layer order, as `Sequential::flat_params`).
    pub params: Vec<f32>,
    /// This rank's shard of the communication engine's optimizer state.
    pub optim: OptimState,
    /// Opaque serialized RNG / data-order state (may be empty).
    pub rng: Vec<u8>,
    /// The BO tuner snapshot, if this rank drives tuning (rank 0).
    pub tuner: Option<BayesOptSnapshot>,
}

/// Errors loading or saving a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io {
        /// What was being attempted.
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is structurally invalid (bad magic, truncated, trailing
    /// garbage, or an impossible length field).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The payload does not match its recorded checksum — the file was
    /// altered or torn after the length structure was written.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// The version word found in the file.
        found: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { context, source } => {
                write!(f, "checkpoint i/o failed while {context}: {source}")
            }
            CheckpointError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
                )
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty to
/// catch torn writes and bit rot (this guards against accidents, not
/// adversaries).
#[must_use]
pub fn fnv1a64(bytes: impl IntoIterator<Item = impl std::borrow::Borrow<u8>>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b.borrow());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---- serialization helpers -------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    push_u64(buf, vs.len() as u64);
    for v in vs {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn push_bytes(buf: &mut Vec<u8>, vs: &[u8]) {
    push_u64(buf, vs.len() as u64);
    buf.extend_from_slice(vs);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(CheckpointError::Corrupt {
                detail: format!(
                    "truncated while reading {what}: wanted {n} bytes at offset {}, file has {}",
                    self.pos,
                    self.bytes.len()
                ),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn len(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let n = self.u64(what)?;
        // A length can never exceed the bytes remaining; rejecting here
        // turns a corrupted length word into `Corrupt` instead of a huge
        // allocation.
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(CheckpointError::Corrupt {
                detail: format!(
                    "implausible {what} length {n} at offset {} ({} bytes remain)",
                    self.pos - 8,
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(n as usize)
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, CheckpointError> {
        let n = self.len(what)?;
        let raw = self.take(n.saturating_mul(4), what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    fn byte_vec(&mut self, what: &str) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len(what)?;
        Ok(self.take(n, what)?.to_vec())
    }
}

impl TrainCheckpoint {
    /// Serializes to the versioned binary format, checksum included.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            64 + 4
                * (self.params.len() + self.optim.velocity.len() + self.optim.second_moment.len())
                + self.rng.len(),
        );
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        push_u32(&mut buf, CHECKPOINT_VERSION);
        push_u64(&mut buf, self.step);
        push_u64(&mut buf, self.optim.adam_step);
        push_f32s(&mut buf, &self.params);
        push_f32s(&mut buf, &self.optim.velocity);
        push_f32s(&mut buf, &self.optim.second_moment);
        push_bytes(&mut buf, &self.rng);
        match &self.tuner {
            None => buf.push(0),
            Some(t) => {
                buf.push(1);
                push_u64(&mut buf, t.domain.lo.to_bits());
                push_u64(&mut buf, t.domain.hi.to_bits());
                push_u64(&mut buf, t.xi.to_bits());
                push_u64(&mut buf, t.seed);
                push_u64(&mut buf, t.history.len() as u64);
                for &(x, y) in &t.history {
                    push_u64(&mut buf, x.to_bits());
                    push_u64(&mut buf, y.to_bits());
                }
            }
        }
        let checksum = fnv1a64(&buf);
        push_u64(&mut buf, checksum);
        buf
    }

    /// Parses the binary format, verifying magic, version, and checksum.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on structural damage,
    /// [`CheckpointError::UnsupportedVersion`] on a version mismatch, and
    /// [`CheckpointError::ChecksumMismatch`] when the payload does not
    /// hash to the recorded trailer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::Corrupt {
                detail: format!("file too short ({} bytes) to be a checkpoint", bytes.len()),
            });
        }
        if bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Corrupt {
                detail: "bad magic (not a DeAR checkpoint)".to_string(),
            });
        }
        // Checksum covers everything before the 8-byte trailer; verify it
        // first so any flipped byte reports as a checksum failure rather
        // than whatever structural error it happens to masquerade as.
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(trailer.try_into().unwrap());
        let actual = fnv1a64(payload);
        if expected != actual {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        let mut cur = Cursor {
            bytes: payload,
            pos: CHECKPOINT_MAGIC.len(),
        };
        let version = cur.u32("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let step = cur.u64("step")?;
        let adam_step = cur.u64("adam step")?;
        let params = cur.f32s("params")?;
        let velocity = cur.f32s("velocity")?;
        let second_moment = cur.f32s("second moment")?;
        let rng = cur.byte_vec("rng state")?;
        let tuner = match cur.take(1, "tuner flag")?[0] {
            0 => None,
            1 => {
                let lo = cur.f64("tuner domain lo")?;
                let hi = cur.f64("tuner domain hi")?;
                let xi = cur.f64("tuner xi")?;
                let seed = cur.u64("tuner seed")?;
                let n = cur.len("tuner history")?;
                let mut history = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let x = cur.f64("tuner history x")?;
                    let y = cur.f64("tuner history y")?;
                    history.push((x, y));
                }
                Some(BayesOptSnapshot {
                    domain: Domain { lo, hi },
                    xi,
                    seed,
                    history,
                })
            }
            other => {
                return Err(CheckpointError::Corrupt {
                    detail: format!("invalid tuner flag {other}"),
                })
            }
        };
        if cur.pos != payload.len() {
            return Err(CheckpointError::Corrupt {
                detail: format!(
                    "{} trailing bytes after the tuner section",
                    payload.len() - cur.pos
                ),
            });
        }
        Ok(TrainCheckpoint {
            step,
            params,
            optim: OptimState {
                velocity,
                second_moment,
                adam_step,
            },
            rng,
            tuner,
        })
    }

    /// Writes the checkpoint to `path` atomically: the bytes land in a
    /// sibling temp file, are fsynced, and only then renamed into place —
    /// a crash at any point leaves either the old file or the new one,
    /// never a torn mix.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|source| CheckpointError::Io {
                context: "creating the temp file",
                source,
            })?;
            f.write_all(&bytes).map_err(|source| CheckpointError::Io {
                context: "writing the temp file",
                source,
            })?;
            f.sync_all().map_err(|source| CheckpointError::Io {
                context: "syncing the temp file",
                source,
            })?;
        }
        fs::rename(&tmp, path).map_err(|source| CheckpointError::Io {
            context: "renaming the temp file into place",
            source,
        })
    }

    /// Reads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read; otherwise as
    /// [`TrainCheckpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|source| CheckpointError::Io {
                context: "reading the checkpoint file",
                source,
            })?;
        Self::from_bytes(&bytes)
    }
}

/// A per-rank checkpoint directory with retention and resume scanning.
///
/// Files are named `ckpt-r{rank}-s{step:012}.dear`; the zero-padded step
/// makes lexicographic order equal step order. Retention keeps the newest
/// `keep` checkpoints (default 3) — enough that lockstep ranks, which can
/// differ by at most one checkpoint boundary when a failure hits, always
/// share a common resumable step.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: usize,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store rooted at `dir` for `rank`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, rank: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| CheckpointError::Io {
            context: "creating the checkpoint directory",
            source,
        })?;
        Ok(CheckpointStore { dir, rank, keep: 3 })
    }

    /// Sets how many checkpoints to retain (minimum 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The path a checkpoint at `step` is stored at.
    #[must_use]
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir
            .join(format!("ckpt-r{}-s{step:012}.dear", self.rank))
    }

    /// Saves `ckpt` (atomically) and prunes beyond the retention budget.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure. Pruning failures are
    /// ignored — stale extra files cost disk, not correctness.
    pub fn save(&self, ckpt: &TrainCheckpoint) -> Result<PathBuf, CheckpointError> {
        let step = ckpt.step;
        let span = crate::trace::span(dear_sim::TaskKind::Other, || format!("ckpt[{step}]"));
        let path = self.path_for(ckpt.step);
        ckpt.save(&path)?;
        self.prune();
        span.end();
        Ok(path)
    }

    /// All of this rank's checkpoint steps on disk, ascending.
    #[must_use]
    pub fn steps(&self) -> Vec<u64> {
        let prefix = format!("ckpt-r{}-s", self.rank);
        let mut steps: Vec<u64> = fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| {
                    let name = e.ok()?.file_name().into_string().ok()?;
                    let rest = name.strip_prefix(&prefix)?.strip_suffix(".dear")?;
                    rest.parse().ok()
                })
                .collect()
            })
            .unwrap_or_default();
        steps.sort_unstable();
        steps
    }

    /// Loads the newest checkpoint that verifies, quietly skipping any
    /// that are torn or corrupt. Returns `None` when nothing resumable
    /// exists.
    #[must_use]
    pub fn latest_valid(&self) -> Option<TrainCheckpoint> {
        for step in self.steps().into_iter().rev() {
            if let Ok(ckpt) = TrainCheckpoint::load(&self.path_for(step)) {
                return Some(ckpt);
            }
        }
        None
    }

    fn prune(&self) {
        let steps = self.steps();
        if steps.len() > self.keep {
            for &step in &steps[..steps.len() - self.keep] {
                let _ = fs::remove_file(self.path_for(step));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dear-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(step: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            step,
            params: vec![1.5, -0.0, f32::from_bits(0x7f80_0001), 3.25],
            optim: OptimState {
                velocity: vec![0.125, 0.0, -9.5, 2.0],
                second_moment: vec![1e-8, 4.0, 0.5, 0.75],
                adam_step: 17,
            },
            rng: vec![0xde, 0xad, 0xbe, 0xef, 0x00],
            tuner: Some(BayesOptSnapshot {
                domain: Domain { lo: 1.0, hi: 100.0 },
                xi: 0.01,
                seed: 42,
                history: vec![(25.0, 1200.5), (50.0, 900.25)],
            }),
        }
    }

    fn bits32(vs: &[f32]) -> Vec<u32> {
        vs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let ckpt = sample(123);
        let back = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.step, ckpt.step);
        // Compare through bit patterns: an NaN payload (0x7f800001 above)
        // must survive, which `==` on floats cannot check.
        assert_eq!(bits32(&back.params), bits32(&ckpt.params));
        assert_eq!(bits32(&back.optim.velocity), bits32(&ckpt.optim.velocity));
        assert_eq!(
            bits32(&back.optim.second_moment),
            bits32(&ckpt.optim.second_moment)
        );
        assert_eq!(back.optim.adam_step, ckpt.optim.adam_step);
        assert_eq!(back.rng, ckpt.rng);
        assert_eq!(back.tuner, ckpt.tuner);
    }

    #[test]
    fn round_trip_without_tuner_or_second_moment() {
        let ckpt = TrainCheckpoint {
            step: 1,
            params: vec![2.0; 8],
            optim: OptimState {
                velocity: vec![0.5; 8],
                second_moment: Vec::new(),
                adam_step: 0,
            },
            rng: Vec::new(),
            tuner: None,
        };
        let back = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn every_single_byte_flip_fails_the_checksum_or_structure() {
        // Satellite: save → corrupt one byte → load must fail. Flipping a
        // payload byte must surface as ChecksumMismatch specifically; the
        // trailer bytes themselves also fail (as a mismatch). No flipped
        // byte may yield Ok.
        let dir = test_dir("corrupt");
        let path = dir.join("ckpt.dear");
        sample(7).save(&path).unwrap();
        let good = fs::read(&path).unwrap();
        // A byte in the middle of the params payload: strictly a data
        // corruption, no length fields involved.
        let mid = CHECKPOINT_MAGIC.len() + 4 + 8 + 8 + 8 + 2;
        for &pos in &[mid, good.len() - 1, 9] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            let err = TrainCheckpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointError::ChecksumMismatch { .. }),
                "flipping byte {pos} gave {err:?}, expected a checksum mismatch"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bad_magic_are_corrupt() {
        let bytes = sample(3).to_bytes();
        let err = TrainCheckpoint::from_bytes(&bytes[..10]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = TrainCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn future_version_is_rejected_with_its_number() {
        let mut bytes = sample(3).to_bytes();
        let at = CHECKPOINT_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal so only the version differs from a valid file.
        let len = bytes.len();
        let checksum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        let err = TrainCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion { found: 99 }),
            "{err:?}"
        );
    }

    #[test]
    fn io_error_has_a_source_and_others_do_not() {
        use std::error::Error as _;
        let err = TrainCheckpoint::load(Path::new("/nonexistent/ckpt.dear")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        assert!(err.source().is_some());
        let err = TrainCheckpoint::from_bytes(b"short").unwrap_err();
        assert!(err.source().is_none());
    }

    #[test]
    fn store_prunes_to_keep_and_resumes_from_the_newest_valid() {
        let dir = test_dir("store");
        let store = CheckpointStore::new(&dir, 2).unwrap().with_keep(3);
        for step in [5, 10, 15, 20] {
            store.save(&sample(step)).unwrap();
        }
        assert_eq!(store.steps(), vec![10, 15, 20], "keep=3 prunes step 5");
        assert_eq!(store.latest_valid().unwrap().step, 20);
        // Tear the newest file: resume must fall back to step 15.
        let newest = store.path_for(20);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.latest_valid().unwrap().step, 15);
        // Stores are per-rank: rank 3 sees nothing.
        let other = CheckpointStore::new(&dir, 3).unwrap();
        assert!(other.latest_valid().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuner_snapshot_replays_identically_after_disk_round_trip() {
        use dear_fusion::{BayesOpt, Tuner};
        let mut live = BayesOpt::new(Domain::paper_default(), 9);
        for _ in 0..5 {
            let x = live.suggest();
            live.observe(x, -(x - 3e7).abs());
        }
        let ckpt = TrainCheckpoint {
            tuner: Some(live.snapshot()),
            ..TrainCheckpoint::default()
        };
        let back = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let mut revived = BayesOpt::replay(&back.tuner.unwrap());
        for _ in 0..3 {
            let a = live.suggest();
            let b = revived.suggest();
            assert_eq!(a.to_bits(), b.to_bits());
            live.observe(a, -(a - 3e7).abs());
            revived.observe(b, -(b - 3e7).abs());
        }
    }
}
