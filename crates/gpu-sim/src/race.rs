//! Intra-kernel data-race detection (trace mode).
//!
//! CUDA gives no ordering between threads of a launch except at block
//! barriers; a kernel whose result depends on such ordering is buggy on
//! real hardware and — because this simulator interleaves threads in yet
//! another order — would also be silently nondeterministic here. The
//! tracker records, per (buffer, index) and per phase, the first writer
//! and reader, and reports write/write and read/write conflicts between
//! different threads.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Kind of conflict detected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two distinct threads wrote the same element in one phase.
    WriteWrite,
    /// One thread read an element another thread wrote in the same phase.
    ReadWrite,
}

/// One detected conflict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaceEvent {
    /// Buffer id (see [`crate::memory::DeviceBuffer::id`]).
    pub buf: u64,
    /// Element index.
    pub idx: u64,
    /// Conflict kind.
    pub kind: RaceKind,
    /// The two thread ids involved (first recorded, current).
    pub threads: (u64, u64),
}

#[derive(Copy, Clone, Default)]
struct Entry {
    writer: Option<u64>,
    reader: Option<u64>,
}

/// Collects accesses for one launch. Cleared at each phase boundary
/// (barriers order accesses, so cross-phase conflicts are legal).
///
/// A tracker belongs to the one host thread that traces a launch's
/// blocks, so it needs no lock.
pub struct RaceTracker {
    map: HashMap<(u64, u64), Entry, BuildHasherDefault<MulHasher>>,
    events: Vec<RaceEvent>,
    cap: usize,
}

/// A multiplicative hasher for `(buffer, index)` keys: each word is
/// mixed in with a rotate, a xor and one multiplication. The keys come
/// from the kernels' own buffer ids and indices, never from outside the
/// program, so they need no protection against crafted collisions.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl RaceTracker {
    /// Tracker reporting at most `cap` events (further races are counted
    /// as detected but not stored).
    pub fn new(cap: usize) -> Self {
        Self { map: HashMap::default(), events: Vec::new(), cap }
    }

    /// Record an access; returns `true` if it raced.
    pub fn on_access(&mut self, buf: u64, idx: u64, thread: u64, is_write: bool) -> bool {
        let entry = self.map.entry((buf, idx)).or_default();
        let mut event = None;
        if is_write {
            match entry.writer {
                Some(w) if w != thread => {
                    event = Some(RaceEvent {
                        buf,
                        idx,
                        kind: RaceKind::WriteWrite,
                        threads: (w, thread),
                    });
                }
                _ => {}
            }
            if event.is_none() {
                if let Some(r) = entry.reader {
                    if r != thread {
                        event = Some(RaceEvent {
                            buf,
                            idx,
                            kind: RaceKind::ReadWrite,
                            threads: (r, thread),
                        });
                    }
                }
            }
            entry.writer = Some(thread);
        } else {
            if let Some(w) = entry.writer {
                if w != thread {
                    event = Some(RaceEvent {
                        buf,
                        idx,
                        kind: RaceKind::ReadWrite,
                        threads: (w, thread),
                    });
                }
            }
            entry.reader = Some(thread);
        }
        if let Some(e) = event {
            if self.events.len() < self.cap {
                self.events.push(e);
            }
            true
        } else {
            false
        }
    }

    /// Forget all accesses (phase boundary: the barrier orders them).
    pub fn phase_boundary(&mut self) {
        self.map.clear();
    }

    /// Detected events (capped).
    pub fn events(&self) -> Vec<RaceEvent> {
        self.events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_writes_are_clean() {
        let mut t = RaceTracker::new(8);
        assert!(!t.on_access(1, 0, 0, true));
        assert!(!t.on_access(1, 1, 1, true));
        assert!(t.events().is_empty());
    }

    #[test]
    fn write_write_conflict() {
        let mut t = RaceTracker::new(8);
        assert!(!t.on_access(1, 5, 0, true));
        assert!(t.on_access(1, 5, 1, true));
        let ev = t.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, RaceKind::WriteWrite);
        assert_eq!(ev[0].threads, (0, 1));
    }

    #[test]
    fn read_after_foreign_write_conflicts() {
        let mut t = RaceTracker::new(8);
        t.on_access(2, 3, 7, true);
        assert!(t.on_access(2, 3, 8, false));
        assert_eq!(t.events()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn write_after_foreign_read_conflicts() {
        let mut t = RaceTracker::new(8);
        t.on_access(2, 3, 7, false);
        assert!(t.on_access(2, 3, 8, true));
        assert_eq!(t.events()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn same_thread_rmw_is_fine() {
        let mut t = RaceTracker::new(8);
        assert!(!t.on_access(1, 0, 4, false));
        assert!(!t.on_access(1, 0, 4, true));
        assert!(!t.on_access(1, 0, 4, false));
        assert!(t.events().is_empty());
    }

    #[test]
    fn phase_boundary_resets() {
        let mut t = RaceTracker::new(8);
        t.on_access(1, 0, 0, true);
        t.phase_boundary();
        assert!(!t.on_access(1, 0, 1, true), "cross-phase access must not race");
    }

    #[test]
    fn event_cap_respected() {
        let mut t = RaceTracker::new(2);
        for i in 0..10u64 {
            t.on_access(1, 0, i, true);
        }
        assert_eq!(t.events().len(), 2);
    }
}
