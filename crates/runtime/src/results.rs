//! The result log: every finished job's [`JobReport`], encoded once when
//! the job retires and kept as bytes.
//!
//! Records stay in completion order, so a later log always extends an
//! earlier one: a base checkpoint copies the whole log and a delta
//! segment copies the records since the previous segment, both as one
//! checksummed *section* (see [`ResultLog::write_section`]). Reading a
//! section verifies it and indexes its records without decoding any of
//! them; a report decodes on its first access and stays cached. Reports
//! retired in this process keep the object they were built as, so a
//! scheduler that is never restored never decodes, and typed outcome
//! details survive exactly as long as they did before.

use crate::job::{JobId, JobReport, JobStatus};
use crate::persist::{checksum, read_report, write_report};
use lnls_core::persist::{Persist, PersistError, Reader};
use std::cell::OnceCell;

/// How a finished job left the fleet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    Done,
    Cancelled,
    Rejected,
}

impl Fate {
    fn of(report: &JobReport) -> Self {
        if report.rejected {
            Fate::Rejected
        } else if report.cancelled {
            Fate::Cancelled
        } else {
            Fate::Done
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        [Fate::Done, Fate::Cancelled, Fate::Rejected].get(usize::from(tag)).copied()
    }

    pub(crate) fn status(self) -> JobStatus {
        match self {
            Fate::Done => JobStatus::Done,
            Fate::Cancelled => JobStatus::Cancelled,
            Fate::Rejected => JobStatus::Rejected,
        }
    }
}

/// Bytes of one section header: id, fate tag, record length.
const HEADER_BYTES: usize = 8 + 1 + 8;

/// Record `(id, fate, len)`'s section header.
fn header(id: JobId, fate: Fate, len: usize) -> [u8; HEADER_BYTES] {
    let mut h = [0; HEADER_BYTES];
    h[..8].copy_from_slice(&id.0.to_le_bytes());
    h[8] = fate as u8;
    h[9..].copy_from_slice(&(len as u64).to_le_bytes());
    h
}

/// One finished job: where its bytes sit in the log, its fate, and its
/// report once something has asked for it (boxed, so that copying and
/// indexing records stays cheap).
struct Record {
    id: JobId,
    fate: Fate,
    start: usize,
    end: usize,
    report: OnceCell<Box<JobReport>>,
}

/// Finished reports as an append-only byte log with an id index (see
/// the module docs).
#[derive(Default)]
pub(crate) struct ResultLog {
    bytes: Vec<u8>,
    /// Each record's section header, in completion order, encoded once
    /// so that a section copies them.
    headers: Vec<u8>,
    /// Completion order.
    records: Vec<Record>,
    /// `(job id, position in records)`, sorted by id. Jobs finish in
    /// roughly submission order, so a retirement mostly appends, and
    /// sorting after a read section mostly merges two sorted runs.
    index: Vec<(JobId, usize)>,
    /// Records per fate, indexed by `Fate as usize`.
    counts: [u64; 3],
}

impl ResultLog {
    /// Records in the log.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Finished jobs of one fate.
    pub(crate) fn count(&self, fate: Fate) -> u64 {
        self.counts[fate as usize]
    }

    /// Where `id`'s record is, if it finished.
    fn position(&self, id: JobId) -> Option<usize> {
        let at = self.index.binary_search_by_key(&id, |&(k, _)| k).ok()?;
        Some(self.index[at].1)
    }

    /// How `id` finished, if it did.
    pub(crate) fn fate(&self, id: JobId) -> Option<Fate> {
        self.position(id).map(|i| self.records[i].fate)
    }

    /// Retire one report: encode it onto the log once and keep the
    /// object as its decoding.
    ///
    /// # Panics
    /// If the job already has a report.
    pub(crate) fn push(&mut self, report: JobReport) {
        let (id, fate, start) = (report.id, Fate::of(&report), self.bytes.len());
        let at = self.index.binary_search_by_key(&id, |&(k, _)| k).expect_err("a job retires once");
        self.index.insert(at, (id, self.records.len()));
        write_report(&report, &mut self.bytes);
        let end = self.bytes.len();
        self.headers.extend_from_slice(&header(id, fate, end - start));
        self.records.push(Record { id, fate, start, end, report: Box::new(report).into() });
        self.counts[fate as usize] += 1;
    }

    /// `id`'s report, decoded on first access.
    pub(crate) fn report(&self, id: JobId) -> Option<&JobReport> {
        self.position(id).map(|i| self.decoded(i))
    }

    /// Every report in job-id order, each decoded on first access.
    pub(crate) fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.index.iter().map(|&(_, i)| self.decoded(i))
    }

    /// Record `i`'s report. Its bytes passed the section checksum, so a
    /// record that does not decode is a bug in the writer, not
    /// corruption.
    fn decoded(&self, i: usize) -> &JobReport {
        let rec = &self.records[i];
        rec.report.get_or_init(|| {
            let mut r = Reader::new(&self.bytes[rec.start..rec.end]);
            let report = read_report(&mut r)
                .ok()
                .filter(|report| report.id == rec.id && r.remaining() == 0)
                .unwrap_or_else(|| {
                    panic!(
                        "the result-log record of {} passed its checksum but does not decode",
                        rec.id
                    )
                });
            Box::new(report)
        })
    }

    /// A copy of the bytes and the index without the decoded reports:
    /// the copy decodes on its own first access.
    pub(crate) fn uncached_copy(&self) -> Self {
        let records =
            self.records.iter().map(|r| Record { report: OnceCell::new(), ..*r }).collect();
        Self {
            bytes: self.bytes.clone(),
            headers: self.headers.clone(),
            records,
            index: self.index.clone(),
            counts: self.counts,
        }
    }

    /// Write records `from..` as one section: the record count, one
    /// `(id, fate, length)` header per record, the byte count and the
    /// record bytes, then a checksum over all of those.
    ///
    /// # Panics
    /// If `from` is past the end of the log: a delta chain is only ever
    /// extended from the scheduler whose log it holds.
    pub(crate) fn write_section(&self, from: usize, out: &mut Vec<u8>) {
        let records = self.records.get(from..).expect("a section starts inside the log");
        let body = &self.bytes[records.first().map_or(self.bytes.len(), |r| r.start)..];
        let headers = &self.headers[HEADER_BYTES * from..];
        out.reserve(8 + headers.len() + 8 + body.len() + 8);
        let count = records.len() as u64;
        count.write(out);
        out.extend_from_slice(headers);
        let body_len = body.len() as u64;
        let sum = checksum(&[&count.to_le_bytes(), headers, &body_len.to_le_bytes(), body]);
        body_len.write(out);
        out.extend_from_slice(body);
        sum.write(out);
    }

    /// Read one section written by [`write_section`](Self::write_section)
    /// and append its records without decoding any report. The checksum
    /// is verified before any header is trusted; then every fate tag
    /// must be valid, every id new to the log, and the record lengths
    /// must add up to the byte count. On an error the log is left
    /// half-extended; both callers drop it.
    pub(crate) fn read_section(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let count: u64 = r.read()?;
        let headers_len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(HEADER_BYTES))
            .filter(|&n| n <= r.remaining())
            .ok_or_else(|| PersistError::new(format!("result log claims {count} records")))?;
        let headers = r.take(headers_len)?;
        let body_len: usize = r.read()?;
        let body = r.take(body_len)?;
        let stored: u64 = r.read()?;
        let sum =
            checksum(&[&count.to_le_bytes(), headers, &(body_len as u64).to_le_bytes(), body]);
        if sum != stored {
            return Err(PersistError::new("result log checksum mismatch"));
        }
        let (mut start, end) = (self.bytes.len(), self.bytes.len() + body_len);
        self.records.reserve(headers.len() / HEADER_BYTES);
        self.index.reserve(headers.len() / HEADER_BYTES);
        for h in headers.chunks_exact(HEADER_BYTES) {
            let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
            let (id, tag) = (JobId(word(0)), h[8]);
            let len = usize::try_from(word(9)).map_err(|_| PersistError::new("usize overflow"))?;
            let fate = Fate::from_tag(tag)
                .ok_or_else(|| PersistError::new(format!("bad fate tag {tag} for {id}")))?;
            let record_end = start
                .checked_add(len)
                .filter(|&e| e <= end)
                .ok_or_else(|| PersistError::new("result log records overrun its byte count"))?;
            self.index.push((id, self.records.len()));
            self.records.push(Record { id, fate, start, end: record_end, report: OnceCell::new() });
            self.counts[fate as usize] += 1;
            start = record_end;
        }
        if start != end {
            return Err(PersistError::new("result log records fall short of its byte count"));
        }
        self.index.sort_by_key(|&(k, _)| k);
        if let Some(pair) = self.index.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(PersistError::new(format!("result log holds {} twice", pair[0].0)));
        }
        self.bytes.extend_from_slice(body);
        self.headers.extend_from_slice(headers);
        Ok(())
    }

    /// Reports decoded so far.
    #[cfg(test)]
    pub(crate) fn decoded_count(&self) -> usize {
        self.records.iter().filter(|r| r.report.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A section whose checksum holds but whose headers lie is still
    /// refused, each lie with its own error.
    #[test]
    fn headers_are_checked_after_the_checksum() {
        let header = |id: u64, tag: u8, len: usize| {
            let mut h = id.to_bytes();
            tag.write(&mut h);
            len.write(&mut h);
            h
        };
        let section = |headers: &[Vec<u8>]| {
            let (count, headers, body) = (headers.len() as u64, headers.concat(), [0u8; 2]);
            let mut out = count.to_bytes();
            out.extend_from_slice(&headers);
            body.to_vec().write(&mut out);
            checksum(&[&count.to_le_bytes(), &headers, &2u64.to_le_bytes(), &body]).write(&mut out);
            out
        };
        let cases = [
            (section(&[header(1, 3, 2)]), "bad fate tag 3"),
            (section(&[header(1, 0, 3)]), "overrun"),
            (section(&[header(1, 0, 1)]), "fall short"),
            (section(&[header(1, 0, 1), header(1, 1, 1)]), "job#1 twice"),
        ];
        for (bytes, want) in cases {
            let err = ResultLog::default().read_section(&mut Reader::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }
}
