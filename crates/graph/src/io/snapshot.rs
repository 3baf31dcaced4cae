//! The `.bgpq` binary snapshot container.
//!
//! The paper's premise is that preprocessing — interning, sorting, index
//! construction — is paid **once**, after which queries run against
//! ready-made structures. The text loaders in [`crate::io`] re-pay all of it
//! on every start: per-line parsing, id remapping, label re-interning and
//! adjacency re-sorting. This module defines a versioned binary container
//! whose on-disk layout mirrors the in-memory layout, so loading is a bulk
//! read plus validation, with no per-node parsing.
//!
//! # Container layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset 0   magic     8 bytes   b"BGPQSNAP"
//!        8   version   u32       FORMAT_VERSION
//!       12   count     u32       number of sections
//!       16   table     count x 28 bytes: { id: u32, offset: u64,
//!                                          len: u64, checksum: u64 }
//!       ...  payloads  concatenated section bodies (absolute offsets)
//! ```
//!
//! Every section carries an FNV-1a 64 checksum of its payload, verified
//! before any decoding. Unknown section ids are tolerated (skipped), so the
//! container can grow new sections without a version bump; changing the
//! layout of an existing section requires one.
//!
//! ## Graph sections
//!
//! | section        | payload                                                  |
//! |----------------|----------------------------------------------------------|
//! | `Strings`      | label interner: count, then per name `len: u32` + UTF-8  |
//! | `Labels`       | node count, then one `u32` label id per slot (deleted    |
//! |                | slots carry `u32::MAX`, the tombstone sentinel)          |
//! | `Values`       | tag byte per node, a `u64` payload per node, string blob |
//! | `OutAdjacency` | CSR: `offsets: (n+1) x u64`, then targets `m x u32`,     |
//! |                | each row sorted by id                                    |
//! | `InAdjacency`  | same shape as `OutAdjacency`                             |
//! | `LabelIndex`   | CSR of per-label sorted node-id buckets                  |
//!
//! In memory a row is sorted by `(neighbour label, id)` — each label's
//! neighbours one segment, which is what lets the graph answer unary access
//! constraints. The file keeps the id order it has always had: the writer
//! sorts a row by id on the way out, and the reader validates the id order
//! and regroups each row by label. A graph whose labels ascend along the
//! ids (every scenario generator's) is in both orders at once, so its
//! regrouping is one pass over the labels.
//!
//! `Schema` and `Indices` sections are written and read by `bgpq-access`,
//! which layers access-schema and constraint-index serialization on top of
//! this container (the section ids are reserved here so one table names
//! every section). A unary index's entries in `Indices` are derived from
//! the adjacency rows when written, and checked against them and dropped
//! when read, so those bytes are unchanged; dropping them from the format
//! is a later, declared version bump.
//!
//! Section id **9 is retired, never to be reused**: builds that had
//! partitioned execution wrote per-shard index blobs under it. It now
//! decodes as [`Section::Unknown`]`(9)` — checksum-verified and skipped, so
//! those files still open — and a new section must take a fresh id or old
//! files would be misread.
//!
//! Decoding validates structural invariants — adjacency sorted strictly
//! by id, ids in bounds, in == transpose(out), label-index buckets
//! consistent with the label assignment — and reports every failure as a
//! typed [`SnapshotError`] naming the offending [`Section`]. Tombstoned
//! slots are preserved exactly (unlike the text writer, which compacts
//! ids), so a mutated graph round-trips with stable node ids.
//!
//! **A load holds the archive and the graph, nothing twice.** The file is
//! read whole and verified; then each section is decoded in place, straight
//! into the graph's own arrays, validated as it is read: rows are cut from
//! the adjacency bytes by the one CSR-to-rows function the builder uses too,
//! values go straight into their paged array, and the in == transpose(out)
//! check reads the adjacency bytes with one cursor per in-row, before the
//! in-rows are built. At its peak a load holds the archive, the graph, a
//! flat copy of the labels and one row or bucket of scratch: loading the
//! 600k-node benchmark graph's 51.6 MB file peaks at 109 MB of RSS in a
//! fresh process, and the graph alone is 56 MB once the archive is
//! dropped. The archive is not streamed section by section.

use crate::builder::rows_from_csr;
use crate::graph::{by_id, Graph, NodeId, TOMBSTONE};
use crate::label::{Label, LabelInterner};
use crate::label_index::LabelIndex;
use crate::paged::PagedVec;
use crate::row::Row;
use crate::value::Value;
use std::fmt;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

/// The magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"BGPQSNAP";

/// The container format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on the section count a reader accepts, so a corrupt header
/// cannot request a gigantic table allocation.
const MAX_SECTIONS: u32 = 4096;

/// Identifies one region of a snapshot file — a payload section or one of
/// the two fixed framing regions — in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// The fixed magic + version + count header.
    Header,
    /// The section table following the header.
    SectionTable,
    /// The label interner's name list.
    Strings,
    /// Per-node label assignment (tombstones included).
    Labels,
    /// Per-node attribute values.
    Values,
    /// Out-adjacency in CSR form.
    OutAdjacency,
    /// In-adjacency in CSR form.
    InAdjacency,
    /// Label → sorted node-id buckets.
    LabelIndex,
    /// Serialized access schema (written by `bgpq-access`).
    Schema,
    /// Serialized access indices (written by `bgpq-access`).
    Indices,
    /// A section id this build does not know (skipped when reading).
    Unknown(u32),
}

impl Section {
    /// The on-disk id of a payload section. Framing regions have no id.
    pub fn id(self) -> u32 {
        match self {
            Section::Header | Section::SectionTable => 0,
            Section::Strings => 1,
            Section::Labels => 2,
            Section::Values => 3,
            Section::OutAdjacency => 4,
            Section::InAdjacency => 5,
            Section::LabelIndex => 6,
            Section::Schema => 7,
            Section::Indices => 8,
            Section::Unknown(id) => id,
        }
    }

    /// Maps an on-disk id back to a section.
    pub fn from_id(id: u32) -> Section {
        match id {
            1 => Section::Strings,
            2 => Section::Labels,
            3 => Section::Values,
            4 => Section::OutAdjacency,
            5 => Section::InAdjacency,
            6 => Section::LabelIndex,
            7 => Section::Schema,
            8 => Section::Indices,
            other => Section::Unknown(other),
        }
    }

    /// The section's name as used in diagnostics.
    pub fn name(self) -> String {
        match self {
            Section::Header => "header".into(),
            Section::SectionTable => "section table".into(),
            Section::Strings => "strings".into(),
            Section::Labels => "labels".into(),
            Section::Values => "values".into(),
            Section::OutAdjacency => "out-adjacency".into(),
            Section::InAdjacency => "in-adjacency".into(),
            Section::LabelIndex => "label-index".into(),
            Section::Schema => "schema".into(),
            Section::Indices => "indices".into(),
            Section::Unknown(id) => format!("unknown section #{id}"),
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Errors loading or validating a snapshot. Every variant that concerns a
/// region of the file names the [`Section`] involved, so diagnostics point
/// at the corrupt part instead of a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// I/O failure reading or writing the container.
    Io(String),
    /// The file does not start with the snapshot magic bytes.
    NotASnapshot,
    /// The file is a snapshot, but of a format version this build does not
    /// read.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The only version this build supports.
        supported: u32,
    },
    /// The file ends before the named section's recorded extent.
    Truncated {
        /// The first section whose bytes are (partially) missing.
        section: Section,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The damaged section.
        section: Section,
    },
    /// A section required by the reader is absent from the table.
    MissingSection {
        /// The absent section.
        section: Section,
    },
    /// A section decoded, but its content violates a structural invariant.
    Corrupt {
        /// The inconsistent section.
        section: Section,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(message) => write!(f, "snapshot i/o error: {message}"),
            SnapshotError::NotASnapshot => {
                write!(f, "not a snapshot: missing the {:?} magic bytes", {
                    std::str::from_utf8(&MAGIC).unwrap_or("BGPQSNAP")
                })
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this build reads version {supported}); \
                 re-run `bgpq compile` to regenerate the snapshot"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated inside the {section} section")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in the {section} section")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot has no {section} section")
            }
            SnapshotError::Corrupt { section, message } => {
                write!(f, "corrupt {section} section: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err.to_string())
    }
}

/// FNV-1a 64-bit folded over little-endian words — the section checksum.
/// Word-at-a-time keeps the multiply dependency chain 8x shorter than the
/// classic byte-wise FNV, so verifying a snapshot stays far below
/// text-parse cost; the trailing bytes fall back to the byte-wise step.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().unwrap());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Little-endian byte sink used to build one section payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Creates an empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Finishes the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Accumulates sections and writes the framed container.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(Section, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section (sections are laid out in insertion order).
    pub fn add_section(&mut self, section: Section, payload: Vec<u8>) {
        self.sections.push((section, payload));
    }

    /// Writes magic, version, section table and payloads to `w`.
    pub fn write_to<W: Write>(&self, w: W) -> Result<(), SnapshotError> {
        let mut w = std::io::BufWriter::new(w);
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        let mut offset = (16 + self.sections.len() * 28) as u64;
        for (section, payload) in &self.sections {
            w.write_all(&section.id().to_le_bytes())?;
            w.write_all(&offset.to_le_bytes())?;
            w.write_all(&(payload.len() as u64).to_le_bytes())?;
            w.write_all(&checksum(payload).to_le_bytes())?;
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            w.write_all(payload)?;
        }
        w.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A parsed container: the raw bytes plus the verified section table.
/// Construction checks the magic, version, section extents and every
/// section checksum; [`SnapshotArchive::section`] then hands out validated
/// payload slices for decoding.
#[derive(Debug)]
pub struct SnapshotArchive {
    data: Vec<u8>,
    entries: Vec<(Section, Range<usize>)>,
}

impl SnapshotArchive {
    /// Parses and verifies a container held in memory.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, SnapshotError> {
        let magic_len = MAGIC.len().min(data.len());
        if data[..magic_len] != MAGIC[..magic_len] {
            return Err(SnapshotError::NotASnapshot);
        }
        if data.len() < 16 {
            return Err(SnapshotError::Truncated {
                section: Section::Header,
            });
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(data[12..16].try_into().unwrap());
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt {
                section: Section::Header,
                message: format!("implausible section count {count}"),
            });
        }
        let table_end = 16usize + count as usize * 28;
        if data.len() < table_end {
            return Err(SnapshotError::Truncated {
                section: Section::SectionTable,
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let at = 16 + i * 28;
            let entry = &data[at..at + 28];
            let section = Section::from_id(u32::from_le_bytes(entry[0..4].try_into().unwrap()));
            let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
            let len = u64::from_le_bytes(entry[12..20].try_into().unwrap());
            let recorded = u64::from_le_bytes(entry[20..28].try_into().unwrap());
            let end = offset.checked_add(len).ok_or(SnapshotError::Corrupt {
                section: Section::SectionTable,
                message: format!("section {section} extent overflows"),
            })?;
            if (offset as usize) < table_end || end as usize > data.len() || end > usize::MAX as u64
            {
                return Err(SnapshotError::Truncated { section });
            }
            if entries.iter().any(|(s, _)| *s == section) {
                return Err(SnapshotError::Corrupt {
                    section: Section::SectionTable,
                    message: format!("duplicate {section} section"),
                });
            }
            let range = offset as usize..end as usize;
            if checksum(&data[range.clone()]) != recorded {
                return Err(SnapshotError::ChecksumMismatch { section });
            }
            entries.push((section, range));
        }
        Ok(SnapshotArchive { data, entries })
    }

    /// Reads and verifies a container from `r`.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, SnapshotError> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        Self::from_bytes(data)
    }

    /// Opens and verifies a container file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// The payload of `section`, when present.
    pub fn section(&self, section: Section) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(s, _)| *s == section)
            .map(|(_, range)| &self.data[range.clone()])
    }

    /// The payload of `section`, or a [`SnapshotError::MissingSection`].
    pub fn require(&self, section: Section) -> Result<&[u8], SnapshotError> {
        self.section(section)
            .ok_or(SnapshotError::MissingSection { section })
    }

    /// The verified `(section, byte range)` table, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (Section, Range<usize>)> + '_ {
        self.entries.iter().cloned()
    }
}

/// Bounds-checked little-endian cursor over one section payload. Every
/// shortfall or malformed quantity becomes a [`SnapshotError::Corrupt`]
/// naming the section, so decoders never panic on adversarial input.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: Section,
    data: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Starts a cursor over `data`, attributing errors to `section`.
    pub fn new(section: Section, data: &'a [u8]) -> Self {
        SectionReader {
            section,
            data,
            pos: 0,
        }
    }

    /// A [`SnapshotError::Corrupt`] blamed on this reader's section.
    pub fn corrupt(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            section: self.section,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.data.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "section ends early (needed {n} more bytes, {} left)",
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` that must fit a `usize` count.
    pub fn read_count(&mut self) -> Result<usize, SnapshotError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("count {v} exceeds usize")))
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Bulk-reads `count` little-endian `u32`s.
    pub fn read_u32_vec(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        Ok(self.read_u32s(count)?.collect())
    }

    /// `count` little-endian `u32`s, decoded as the iterator is walked:
    /// the bytes are checked to be there first, so a claimed count
    /// allocates nothing.
    pub(crate) fn read_u32s(
        &mut self,
        count: usize,
    ) -> Result<impl DoubleEndedIterator<Item = u32> + Clone + 'a, SnapshotError> {
        Ok(u32s(self.read_array(count, 4)?))
    }

    /// `count` little-endian `u64`s, like [`SectionReader::read_u32s`].
    pub(crate) fn read_u64s(
        &mut self,
        count: usize,
    ) -> Result<impl DoubleEndedIterator<Item = u64> + Clone + 'a, SnapshotError> {
        Ok(u64s(self.read_array(count, 8)?))
    }

    /// The bytes of an array of `count` words of `width` bytes.
    fn read_array(&mut self, count: usize, width: usize) -> Result<&'a [u8], SnapshotError> {
        let len = count.checked_mul(width).ok_or_else(|| {
            self.corrupt(format!("u{} array length {count} overflows", 8 * width))
        })?;
        self.take(len)
    }

    /// Asserts the payload was fully consumed — trailing bytes mean the
    /// writer and reader disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos != self.data.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the last field",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Graph sections
// ---------------------------------------------------------------------------

/// The little-endian `u32`s `bytes` holds, decoded as they are walked.
fn u32s(bytes: &[u8]) -> impl DoubleEndedIterator<Item = u32> + Clone + '_ {
    let words = bytes.chunks_exact(4);
    words.map(|word| u32::from_le_bytes(word.try_into().unwrap()))
}

/// The little-endian `u64`s `bytes` holds, decoded as they are walked.
fn u64s(bytes: &[u8]) -> impl DoubleEndedIterator<Item = u64> + Clone + '_ {
    let words = bytes.chunks_exact(8);
    words.map(|word| u64::from_le_bytes(word.try_into().unwrap()))
}

/// Consecutive pairs `(offsets[i], offsets[i + 1])`: a CSR's row extents.
fn extents(offsets: impl Iterator<Item = u64> + Clone) -> impl Iterator<Item = (u64, u64)> {
    offsets.clone().zip(offsets.skip(1))
}

/// Value tags of the `Values` section.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// Encodes the six graph sections of `graph` into `writer`.
pub fn encode_graph(graph: &Graph, writer: &mut SnapshotWriter) {
    let n = graph.labels.len();

    let mut strings = SectionWriter::new();
    strings.put_u32(graph.interner.len() as u32);
    for (_, name) in graph.interner.iter() {
        strings.put_u32(name.len() as u32);
        strings.put_bytes(name.as_bytes());
    }
    writer.add_section(Section::Strings, strings.into_bytes());

    let mut labels = SectionWriter::new();
    labels.put_u32(n as u32);
    for label in graph.labels.iter() {
        labels.put_u32(label.0);
    }
    writer.add_section(Section::Labels, labels.into_bytes());

    let mut values = SectionWriter::new();
    values.put_u32(n as u32);
    let mut blob: Vec<u8> = Vec::new();
    let mut payloads: Vec<u64> = Vec::with_capacity(n);
    for value in graph.values.iter() {
        let (tag, payload) = match value {
            Value::Null => (TAG_NULL, 0u64),
            Value::Bool(b) => (TAG_BOOL, *b as u64),
            Value::Int(i) => (TAG_INT, *i as u64),
            Value::Float(x) => (TAG_FLOAT, x.to_bits()),
            Value::Str(s) => {
                let offset = blob.len() as u64;
                blob.extend_from_slice(s.as_bytes());
                (TAG_STR, (offset << 32) | s.len() as u64)
            }
        };
        values.put_u8(tag);
        payloads.push(payload);
    }
    for payload in payloads {
        values.put_u64(payload);
    }
    values.put_u64(blob.len() as u64);
    values.put_bytes(&blob);
    writer.add_section(Section::Values, values.into_bytes());

    writer.add_section(
        Section::OutAdjacency,
        encode_adjacency(&graph.out).into_bytes(),
    );
    writer.add_section(
        Section::InAdjacency,
        encode_adjacency(&graph.inc).into_bytes(),
    );

    // A chunked bucket is written as the one contiguous run it stands for.
    let buckets = || graph.label_index.buckets().map(|(_, nodes)| nodes);
    let ids = buckets().flat_map(|nodes| nodes.into_iter().copied());
    let index = encode_csr(buckets().map(|nodes| nodes.len()), ids);
    writer.add_section(Section::LabelIndex, index.into_bytes());
}

/// Writes the rows in id order, the layout the format has always had: a
/// row held in `(label, id)` order is sorted by id on the way out.
fn encode_adjacency(rows: &PagedVec<Row>) -> SectionWriter {
    let ids = rows.iter().flat_map(|row| {
        let row = by_id(row.ids());
        (0..row.len()).map(move |i| row[i])
    });
    encode_csr(rows.iter().map(|row| row.len()), ids)
}

/// The CSR layout shared by the adjacency and label-index sections: row
/// count, id total, `count + 1` offsets, then the ids, `lens[i]` of them
/// for row `i`.
fn encode_csr(
    lens: impl Iterator<Item = usize>,
    ids: impl Iterator<Item = NodeId>,
) -> SectionWriter {
    let lens: Vec<u64> = lens.map(|len| len as u64).collect();
    let mut w = SectionWriter::new();
    w.put_u32(lens.len() as u32);
    w.put_u64(lens.iter().sum());
    let mut offset = 0u64;
    for len in lens {
        w.put_u64(offset);
        offset += len;
    }
    w.put_u64(offset);
    for v in ids {
        w.put_u32(v.0);
    }
    w
}

/// The `i`-th little-endian `u32` of `bytes`.
fn u32_at(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap())
}

/// True when `row`, the bytes of a row sorted by id, lists `id`.
fn sorted_lists(row: &[u8], id: u32) -> bool {
    let (mut lo, mut hi) = (0, row.len() / 4);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match u32_at(row, mid).cmp(&id) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// An adjacency section read in place, its offsets validated: row `v` is
/// the little-endian `u32` ids `targets[offsets[v]..offsets[v + 1]]`,
/// where the offsets are `n + 1` little-endian `u64`s that start at 0,
/// never descend and end at the number of targets.
struct CsrBytes<'a> {
    section: Section,
    offsets: &'a [u8],
    targets: &'a [u8],
}

impl<'a> CsrBytes<'a> {
    /// Reads the section's node count, target total and offsets, checking
    /// them as described on the type, and the extent of its targets.
    fn new(section: Section, payload: &'a [u8], node_count: usize) -> Result<Self, SnapshotError> {
        let mut r = SectionReader::new(section, payload);
        let n = r.read_u32()? as usize;
        if n != node_count {
            return Err(r.corrupt(format!(
                "node count {n} disagrees with the labels section ({node_count})"
            )));
        }
        let total = r.read_u64()?;
        let offsets = r.read_array(n + 1, 8)?;
        if u64s(offsets).next() != Some(0) || u64s(offsets).next_back() != Some(total) {
            return Err(r.corrupt("offset array does not span the target array"));
        }
        let total = usize::try_from(total)
            .map_err(|_| r.corrupt(format!("edge total {total} overflows")))?;
        let targets = r.read_array(total, 4)?;
        r.expect_end()?;
        if let Some(v) = extents(u64s(offsets)).position(|(start, end)| start > end) {
            return Err(r.corrupt(format!("offsets of node {v} are not monotone")));
        }
        Ok(CsrBytes {
            section,
            offsets,
            targets,
        })
    }

    fn offset(&self, v: usize) -> usize {
        let word = &self.offsets[8 * v..8 * v + 8];
        u64::from_le_bytes(word.try_into().unwrap()) as usize
    }

    /// The bytes of row `v`'s ids.
    fn row(&self, v: usize) -> &'a [u8] {
        &self.targets[4 * self.offset(v)..4 * self.offset(v + 1)]
    }

    /// Number of ids in all rows.
    fn total(&self) -> usize {
        self.targets.len() / 4
    }

    /// The graph's rows, cut from these bytes and validated as they are
    /// read: ids sorted strictly, in bounds and live, and no adjacency on
    /// a deleted slot.
    fn rows(&self, labels: &[Label]) -> Result<PagedVec<Row>, SnapshotError> {
        let corrupt = |message: String| SnapshotError::Corrupt {
            section: self.section,
            message,
        };
        rows_from_csr(labels, |v, row| {
            row.extend(u32s(self.row(v)).map(NodeId));
            if row.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(corrupt(format!(
                    "adjacency of node {v} is not sorted strictly"
                )));
            }
            for &t in row.iter() {
                if t.index() >= labels.len() {
                    return Err(corrupt(format!(
                        "node {v} references out-of-bounds node {t}"
                    )));
                }
                if labels[t.index()] == TOMBSTONE {
                    return Err(corrupt(format!("node {v} references deleted node {t}")));
                }
            }
            if !row.is_empty() && labels[v] == TOMBSTONE {
                return Err(corrupt(format!("deleted node {v} still has adjacency")));
            }
            Ok(())
        })
    }

    /// True when these rows, an in-adjacency, are `out`'s rows transposed,
    /// given equal totals and `out`'s ids validated. Walking `out` in
    /// `(src, dst)` order reaches each in-row's sources in ascending order,
    /// so each out-edge must be the next entry of its in-row: one cursor
    /// per row, no search. The ids of these rows need not be validated yet.
    fn is_transpose_of(&self, out: &CsrBytes<'_>) -> bool {
        let n = self.offsets.len() / 8 - 1;
        let mut next: Vec<usize> = (0..n).map(|v| self.offset(v)).collect();
        (0..n).all(|src| {
            u32s(out.row(src)).all(|dst| {
                let (at, end) = (next[dst as usize], self.offset(dst as usize + 1));
                next[dst as usize] += 1;
                at < end && u32_at(self.targets, at) == src as u32
            })
        })
    }

    /// The first out-edge of `out` in `(src, dst)` order that these rows,
    /// an in-adjacency, do not list.
    fn first_missing(&self, out: &CsrBytes<'_>) -> Option<(usize, NodeId)> {
        let n = self.offsets.len() / 8 - 1;
        (0..n).find_map(|src| {
            let mut dsts = u32s(out.row(src));
            let missing = dsts.find(|&dst| !sorted_lists(self.row(dst as usize), src as u32));
            missing.map(|dst| (src, NodeId(dst)))
        })
    }
}

/// Rebuilds a [`Graph`] from the archive's graph sections, validating
/// checksummed payloads against the structural invariants the in-memory
/// graph relies on. Ignores non-graph sections.
///
/// Every section is decoded in place, straight into the graph's own
/// arrays: what a load holds at its peak is the archive plus the graph
/// (plus a flat copy of the labels and one row or bucket of scratch).
pub fn decode_graph(archive: &SnapshotArchive) -> Result<Graph, SnapshotError> {
    // Strings → interner. A name takes at least its 4-byte length.
    let payload = archive.require(Section::Strings)?;
    let mut r = SectionReader::new(Section::Strings, payload);
    let name_count = r.read_u32()? as usize;
    let mut names = Vec::with_capacity(name_count.min(payload.len() / 4));
    for _ in 0..name_count {
        let len = r.read_u32()? as usize;
        let bytes = r.read_bytes(len)?;
        let name = std::str::from_utf8(bytes).map_err(|_| r.corrupt("label name is not UTF-8"))?;
        names.push(name.to_string());
    }
    r.expect_end()?;
    let interner = LabelInterner::from_names(names).map_err(|name| SnapshotError::Corrupt {
        section: Section::Strings,
        message: format!("duplicate label name {name:?}"),
    })?;

    // Labels (tombstones included).
    let mut r = SectionReader::new(Section::Labels, archive.require(Section::Labels)?);
    let node_count = r.read_u32()? as usize;
    let raw_labels = r.read_u32s(node_count)?;
    r.expect_end()?;
    let mut dead_count = 0usize;
    let mut labels = Vec::with_capacity(node_count);
    for (v, id) in raw_labels.enumerate() {
        let label = Label(id);
        if label == TOMBSTONE {
            dead_count += 1;
        } else if !interner.contains(label) {
            return Err(SnapshotError::Corrupt {
                section: Section::Labels,
                message: format!("node {v} carries unknown label id {id}"),
            });
        }
        labels.push(label);
    }

    // Values.
    let mut r = SectionReader::new(Section::Values, archive.require(Section::Values)?);
    let value_count = r.read_u32()? as usize;
    if value_count != node_count {
        return Err(r.corrupt(format!(
            "value count {value_count} disagrees with the labels section ({node_count})"
        )));
    }
    let tags = r.read_bytes(node_count)?;
    let payloads = r.read_u64s(node_count)?;
    let blob_len = r.read_count()?;
    let blob = r.read_bytes(blob_len)?;
    r.expect_end()?;
    let values = tags
        .iter()
        .zip(payloads)
        .enumerate()
        .map(|(v, (&tag, payload))| {
            Ok(match tag {
                TAG_NULL => Value::Null,
                TAG_BOOL => match payload {
                    0 => Value::Bool(false),
                    1 => Value::Bool(true),
                    other => return Err(r.corrupt(format!("node {v} has bool payload {other}"))),
                },
                TAG_INT => Value::Int(payload as i64),
                TAG_FLOAT => Value::Float(f64::from_bits(payload)),
                TAG_STR => {
                    let (offset, len) =
                        ((payload >> 32) as usize, (payload & 0xffff_ffff) as usize);
                    let bytes = blob.get(offset..offset + len).ok_or_else(|| {
                        r.corrupt(format!("string value of node {v} escapes the blob"))
                    })?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| r.corrupt(format!("string value of node {v} is not UTF-8")))?;
                    Value::Str(s.to_string())
                }
                other => return Err(r.corrupt(format!("node {v} has unknown value tag {other}"))),
            })
        });
    let values = PagedVec::try_from_iter(values)?;

    // Adjacency, both directions, validated in the file's id order as the
    // rows are cut; the in-rows must be the out-rows transposed. That is
    // checked on the bytes before the in-rows are cut, so its cursors are
    // not held at the load's peak, and reported after the in-rows' own
    // checks, as when it ran last: the totals first, then the first
    // out-edge missing from the in-adjacency.
    let out_csr = CsrBytes::new(
        Section::OutAdjacency,
        archive.require(Section::OutAdjacency)?,
        node_count,
    )?;
    let out = out_csr.rows(&labels)?;
    let in_csr = CsrBytes::new(
        Section::InAdjacency,
        archive.require(Section::InAdjacency)?,
        node_count,
    )?;
    let (out_total, in_total) = (out_csr.total(), in_csr.total());
    let transposed = out_total == in_total && in_csr.is_transpose_of(&out_csr);
    let inc = in_csr.rows(&labels)?;
    if out_total != in_total {
        return Err(SnapshotError::Corrupt {
            section: Section::InAdjacency,
            message: format!("edge totals disagree: out {out_total}, in {in_total}"),
        });
    }
    if !transposed {
        let (src, dst) = in_csr
            .first_missing(&out_csr)
            .expect("rows that are not the transpose miss an out-edge");
        return Err(SnapshotError::Corrupt {
            section: Section::InAdjacency,
            message: format!("edge ({src}, {dst}) is missing from the in-adjacency"),
        });
    }

    // Label index: buckets must partition exactly the live nodes by label.
    let mut r = SectionReader::new(Section::LabelIndex, archive.require(Section::LabelIndex)?);
    let bucket_count = r.read_u32()? as usize;
    let total = r.read_u64()?;
    let offsets = r.read_u64s(bucket_count + 1)?;
    if offsets.clone().next() != Some(0) || offsets.clone().next_back() != Some(total) {
        return Err(r.corrupt("offset array does not span the id array"));
    }
    let total_usize = usize::try_from(total)
        .map_err(|_| r.corrupt(format!("label-index total {total} overflows")))?;
    let mut ids = r.read_u32s(total_usize)?.map(NodeId);
    r.expect_end()?;
    if total_usize != node_count - dead_count {
        return Err(SnapshotError::Corrupt {
            section: Section::LabelIndex,
            message: format!(
                "index covers {total_usize} nodes but the graph has {} live nodes",
                node_count - dead_count
            ),
        });
    }
    let mut label_index = LabelIndex::default();
    let mut bucket = Vec::new();
    for (b, (start, end)) in extents(offsets).enumerate() {
        if start > end {
            return Err(SnapshotError::Corrupt {
                section: Section::LabelIndex,
                message: format!("offsets of bucket {b} are not monotone"),
            });
        }
        // Buckets are read in order from offset 0, so while the offsets
        // ascend this is `ids[start..end]`.
        bucket.clear();
        bucket.extend(ids.by_ref().take((end - start) as usize));
        if bucket.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(SnapshotError::Corrupt {
                section: Section::LabelIndex,
                message: format!("bucket {b} is not sorted strictly"),
            });
        }
        for &v in &bucket {
            if v.index() >= node_count || labels[v.index()] != Label(b as u32) {
                return Err(SnapshotError::Corrupt {
                    section: Section::LabelIndex,
                    message: format!("bucket {b} lists node {v} which does not carry label {b}"),
                });
            }
        }
        label_index.push_bucket(&bucket);
    }

    Ok(Graph {
        interner,
        out,
        inc,
        labels: labels.into_iter().collect(),
        values,
        edge_count: out_total,
        label_index,
        dead_count,
        row_ids_copied: 0,
        stats: Default::default(),
    })
}

// ---------------------------------------------------------------------------
// Graph-only convenience API
// ---------------------------------------------------------------------------

/// Writes a graph-only snapshot (no schema/index sections) to `w`.
pub fn write_graph_snapshot<W: Write>(graph: &Graph, w: W) -> Result<(), SnapshotError> {
    let mut writer = SnapshotWriter::new();
    encode_graph(graph, &mut writer);
    writer.write_to(w)
}

/// Saves a graph-only snapshot to `path`.
pub fn save_graph_snapshot(graph: &Graph, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let file = std::fs::File::create(path)?;
    write_graph_snapshot(graph, file)
}

/// Reads the graph out of a snapshot produced by [`write_graph_snapshot`]
/// (or any container with the graph sections, e.g. a full `bgpq compile`
/// output).
pub fn read_graph_snapshot<R: Read>(r: R) -> Result<Graph, SnapshotError> {
    decode_graph(&SnapshotArchive::read_from(r)?)
}

/// Loads the graph out of a snapshot file.
pub fn load_graph_snapshot(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    decode_graph(&SnapshotArchive::open(path)?)
}

/// True when `prefix` begins with the snapshot magic bytes. `prefix` may be
/// shorter than the magic (then only a full match of the available bytes
/// counts, and an empty prefix is not a snapshot).
pub fn is_snapshot_bytes(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// Sniffs whether `path` starts with the snapshot magic (format
/// autodetection by content, not file extension).
pub fn sniff_snapshot(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let mut file = std::fs::File::open(path)?;
    let mut prefix = [0u8; 8];
    let mut read = 0;
    while read < prefix.len() {
        match file.read(&mut prefix[read..])? {
            0 => break,
            n => read += n,
        }
    }
    Ok(is_snapshot_bytes(&prefix[..read]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let award = b.add_node("award", Value::str("Oscar"));
        let year = b.add_node("year", Value::Int(2012));
        let movie = b.add_node("movie", Value::str("Argo"));
        let rating = b.add_node("rating", Value::Float(7.7));
        let flag = b.add_node("flag", Value::Bool(true));
        let misc = b.add_node("misc", Value::Null);
        b.add_edge(award, movie).unwrap();
        b.add_edge(year, movie).unwrap();
        b.add_edge(movie, rating).unwrap();
        b.add_edge(movie, flag).unwrap();
        b.add_edge(flag, misc).unwrap();
        b.build()
    }

    fn round_trip(graph: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_graph_snapshot(graph, &mut buf).unwrap();
        read_graph_snapshot(std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn graph_round_trips_exactly() {
        let g = sample_graph();
        let loaded = round_trip(&g);
        assert_eq!(loaded.node_count(), g.node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        assert_eq!(loaded.interner(), g.interner());
        for v in g.nodes() {
            assert_eq!(loaded.label(v), g.label(v));
            assert_eq!(loaded.value(v), g.value(v));
            assert_eq!(loaded.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(loaded.in_neighbors(v), g.in_neighbors(v));
        }
    }

    #[test]
    fn tombstones_and_ids_are_preserved() {
        let mut g = sample_graph();
        let deleted = NodeId(2);
        g.delete_node(deleted).unwrap();
        let loaded = round_trip(&g);
        assert_eq!(loaded.node_count(), g.node_count(), "slots preserved");
        assert!(!loaded.is_live(deleted));
        assert_eq!(loaded.live_node_count(), g.live_node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        // The tombstoned slot can be detected but never matched.
        assert!(loaded.contains_node(deleted));
        assert!(loaded.neighbors(deleted).is_empty());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::empty();
        let loaded = round_trip(&g);
        assert_eq!(loaded.node_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
    }

    #[test]
    fn nan_float_bits_survive() {
        let mut b = GraphBuilder::new();
        b.add_node("x", Value::Float(f64::NAN));
        let g = b.build();
        let loaded = round_trip(&g);
        match loaded.value(NodeId(0)) {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn magic_and_version_are_checked() {
        let mut buf = Vec::new();
        write_graph_snapshot(&sample_graph(), &mut buf).unwrap();
        let mut not_magic = buf.clone();
        not_magic[0] ^= 0xff;
        assert_eq!(
            read_graph_snapshot(std::io::Cursor::new(not_magic)).unwrap_err(),
            SnapshotError::NotASnapshot
        );
        let mut future = buf.clone();
        future[8] = 9;
        assert_eq!(
            read_graph_snapshot(std::io::Cursor::new(future)).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION
            }
        );
        assert!(is_snapshot_bytes(&buf));
        assert!(!is_snapshot_bytes(b"BGPQ"));
        assert!(!is_snapshot_bytes(b"n 0 movie\n"));
    }

    #[test]
    fn section_checksums_are_enforced() {
        let mut buf = Vec::new();
        write_graph_snapshot(&sample_graph(), &mut buf).unwrap();
        let archive = SnapshotArchive::from_bytes(buf.clone()).unwrap();
        let (section, range) = archive
            .sections()
            .find(|(s, _)| *s == Section::Labels)
            .unwrap();
        let mut damaged = buf.clone();
        damaged[range.start + 5] ^= 0x01;
        assert_eq!(
            read_graph_snapshot(std::io::Cursor::new(damaged)).unwrap_err(),
            SnapshotError::ChecksumMismatch { section }
        );
    }

    #[test]
    fn error_display_names_sections() {
        assert!(SnapshotError::ChecksumMismatch {
            section: Section::OutAdjacency
        }
        .to_string()
        .contains("out-adjacency"));
        assert!(SnapshotError::Truncated {
            section: Section::SectionTable
        }
        .to_string()
        .contains("section table"));
        assert!(SnapshotError::UnsupportedVersion {
            found: 3,
            supported: 1
        }
        .to_string()
        .contains("version 3"));
        assert!(SnapshotError::NotASnapshot.to_string().contains("magic"));
        assert_eq!(Section::from_id(42), Section::Unknown(42));
        assert!(Section::Unknown(42).to_string().contains("42"));
    }
}
