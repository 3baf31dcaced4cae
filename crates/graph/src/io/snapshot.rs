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
//! # Container layout (format version 3, all integers little-endian)
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
//!
//! A file stores only what the graph cannot derive: the label buckets
//! (the global access indices) are rebuilt from `Labels` on load, one
//! bucket per interned label, so a label whose last node was deleted keeps
//! its empty bucket.
//!
//! In memory a row is sorted by `(neighbour label, id)` — each label's
//! neighbours one segment, which is what lets the graph answer unary access
//! constraints. The file keeps the id order it has always had: the writer
//! sorts a row by id on the way out, and the reader validates the id order
//! and regroups each row by label. A graph whose labels ascend along the
//! ids (every scenario generator's) is in both orders at once, so its
//! regrouping is one pass over the labels.
//!
//! A bundle adds one section, `Schema`, written and read by `bgpq-access`
//! (the id is reserved here so one table names every section). It stores
//! no index: every access index is a function of the graph, its constraint
//! and the combination cap, and is built when the bundle loads.
//!
//! Section ids **6, 8 and 9 are retired, never to be reused**. Format 1
//! wrote the label buckets under 6 (`Section::LabelIndex`), formats 1 and 2
//! wrote the index entries under 8 (`Section::Indices`), and builds that had
//! partitioned execution wrote per-shard index blobs under 9. All three
//! decode as [`Section::Unknown`] — checksum-verified and skipped — and a
//! new section must take a fresh id. A format-1 or format-2 file is refused
//! as [`SnapshotError::UnsupportedVersion`], whose message says to
//! recompile.
//!
//! Decoding validates structural invariants — adjacency sorted strictly
//! by id, ids in bounds, in == transpose(out) — and reports every failure
//! as a typed [`SnapshotError`] naming the offending [`Section`].
//! Tombstoned slots are preserved exactly (unlike the text writer, which
//! compacts ids), so a mutated graph round-trips with stable node ids.
//!
//! **A load holds the graph and one section, nothing twice.** An archive
//! opened from a file reads its header and section table and keeps the
//! file open; each decoder then reads its section, checksums it, decodes
//! it in place straight into the graph's own arrays and drops it: row
//! pages are cut from the adjacency bytes by the one CSR-to-pages function
//! the builder uses too, values go straight into their paged array, and
//! the in == transpose(out) check reads the in-adjacency bytes with one
//! cursor per in-row against the out-pages already cut, so the
//! out-section is gone by then. At its peak a load holds the graph, one
//! section, a flat copy of the labels and one row of scratch:
//! loading the 600k-node benchmark graph's 31.6 MB file peaks at 49.1 MB of
//! RSS in a fresh process (format 1's 51.6 MB file, 63.9 MB), and the
//! graph alone is 39 MB. An archive held in memory
//! ([`SnapshotArchive::from_bytes`]) is verified whole up front instead;
//! a graph loaded from an opened bundle first checksums the schema it does
//! not decode, so either way a file is refused for the same damage.

use crate::adjacency::Adjacency;
use crate::builder::rows_from_csr;
use crate::graph::{by_id, Graph, NodeId, TOMBSTONE};
use crate::label::{Label, LabelInterner};
use crate::label_index::LabelIndex;
use crate::paged::PagedVec;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// The magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"BGPQSNAP";

/// The container format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 3;

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
    /// Serialized access schema (written by `bgpq-access`).
    Schema,
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
            Section::Schema => 7,
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
            7 => Section::Schema,
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
            Section::Schema => "schema".into(),
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

/// A parsed container: its verified section table, and the payloads —
/// held in memory, or in a file kept open and read a section at a time.
///
/// [`SnapshotArchive::from_bytes`] (and [`SnapshotArchive::read_from`],
/// which reads its reader to the end first) checks the magic, version,
/// section extents and every section checksum before it returns.
/// [`SnapshotArchive::open`] reads only the header and the table: it checks
/// the same things, except that a payload is checksummed when it is read —
/// by [`SnapshotArchive::read`], once per call, so a decoder holds one
/// section at a time and drops it when it is decoded. Sections no decoder
/// reads ([`Section::Unknown`]) are checksummed by `open`, and a bundle's
/// schema by [`load_graph_snapshot`] when it decodes the graph
/// alone, so an opened file is refused for any damage its bytes would be
/// refused for.
#[derive(Debug)]
pub struct SnapshotArchive {
    source: Source,
    entries: Vec<Entry>,
}

/// One row of the section table.
#[derive(Debug)]
struct Entry {
    section: Section,
    range: Range<usize>,
    checksum: u64,
}

#[derive(Debug)]
enum Source {
    /// The whole container, every payload verified.
    Bytes(Vec<u8>),
    /// An open file, read a payload at a time.
    File(Mutex<File>),
}

impl SnapshotArchive {
    /// Parses and verifies a container held in memory.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, SnapshotError> {
        let entries = read_table(
            data.len(),
            |n| Ok(Cow::Borrowed(&data[..n])),
            |entry| match checksum(&data[entry.range.clone()]) == entry.checksum {
                true => Ok(()),
                false => Err(SnapshotError::ChecksumMismatch {
                    section: entry.section,
                }),
            },
        )?;
        Ok(SnapshotArchive {
            source: Source::Bytes(data),
            entries,
        })
    }

    /// Reads and verifies a container from `r`, read to the end into
    /// memory first (a reader cannot be read a section at a time out of
    /// order; open a file with [`SnapshotArchive::open`]).
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, SnapshotError> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        Self::from_bytes(data)
    }

    /// Opens a container file and verifies its header and section table;
    /// the file stays open, and each payload is read and checksummed when
    /// a decoder asks for it (see the type's docs).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let file = Mutex::new(file);
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
            section: Section::Header,
            message: format!("a {len}-byte file overflows"),
        })?;
        let entries = read_table(
            len,
            |n| read_exact_at(&file, 0..n, Section::Header).map(Cow::Owned),
            |entry| match entry.section {
                Section::Unknown(_) => read_payload(&file, entry).map(drop),
                _ => Ok(()),
            },
        )?;
        Ok(SnapshotArchive {
            source: Source::File(file),
            entries,
        })
    }

    /// True when the table lists `section`.
    pub fn contains(&self, section: Section) -> bool {
        self.entry(section).is_some()
    }

    /// The payload of `section`, verified, or `None` when the table does
    /// not list it: borrowed from an archive held in memory, read from the
    /// file (and owned by the caller, who drops it when done) for an
    /// opened one.
    pub fn read(&self, section: Section) -> Result<Option<Cow<'_, [u8]>>, SnapshotError> {
        let Some(entry) = self.entry(section) else {
            return Ok(None);
        };
        Ok(Some(match &self.source {
            Source::Bytes(data) => Cow::Borrowed(&data[entry.range.clone()]),
            Source::File(file) => Cow::Owned(read_payload(file, entry)?),
        }))
    }

    /// The payload of `section`, or a [`SnapshotError::MissingSection`]
    /// (see [`SnapshotArchive::read`]).
    pub fn require(&self, section: Section) -> Result<Cow<'_, [u8]>, SnapshotError> {
        self.read(section)?
            .ok_or(SnapshotError::MissingSection { section })
    }

    /// Reads and checksums, one at a time, the known sections listed here
    /// but not in `decoded`, the sections a decoder reading only those
    /// skips (a bundle's schema, for a graph). An archive held
    /// in memory was verified whole, and an opened one's unknown sections
    /// by `open`.
    fn verify_skipped(&self, decoded: &[Section]) -> Result<(), SnapshotError> {
        let Source::File(file) = &self.source else {
            return Ok(());
        };
        self.entries
            .iter()
            .filter(|e| !decoded.contains(&e.section))
            .filter(|e| !matches!(e.section, Section::Unknown(_)))
            .try_for_each(|entry| read_payload(file, entry).map(drop))
    }

    /// The verified `(section, byte range)` table, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (Section, Range<usize>)> + '_ {
        self.entries.iter().map(|e| (e.section, e.range.clone()))
    }

    fn entry(&self, section: Section) -> Option<&Entry> {
        self.entries.iter().find(|e| e.section == section)
    }
}

/// Parses the header and section table of a container of `len` bytes,
/// whose first `n` bytes `head(n)` reads, checking every entry's extent
/// and then `verify(entry)`, entry by entry in table order.
fn read_table<'a>(
    len: usize,
    mut head: impl FnMut(usize) -> Result<Cow<'a, [u8]>, SnapshotError>,
    mut verify: impl FnMut(&Entry) -> Result<(), SnapshotError>,
) -> Result<Vec<Entry>, SnapshotError> {
    let header = head(len.min(16))?;
    let magic_len = MAGIC.len().min(header.len());
    if header[..magic_len] != MAGIC[..magic_len] {
        return Err(SnapshotError::NotASnapshot);
    }
    if header.len() < 16 {
        return Err(SnapshotError::Truncated {
            section: Section::Header,
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if count > MAX_SECTIONS {
        return Err(SnapshotError::Corrupt {
            section: Section::Header,
            message: format!("implausible section count {count}"),
        });
    }
    let table_end = 16usize + count as usize * 28;
    if len < table_end {
        return Err(SnapshotError::Truncated {
            section: Section::SectionTable,
        });
    }
    let table = head(table_end)?;
    let mut entries: Vec<Entry> = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let at = 16 + i * 28;
        let entry = &table[at..at + 28];
        let section = Section::from_id(u32::from_le_bytes(entry[0..4].try_into().unwrap()));
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
        let size = u64::from_le_bytes(entry[12..20].try_into().unwrap());
        let recorded = u64::from_le_bytes(entry[20..28].try_into().unwrap());
        let end = offset.checked_add(size).ok_or(SnapshotError::Corrupt {
            section: Section::SectionTable,
            message: format!("section {section} extent overflows"),
        })?;
        if (offset as usize) < table_end || end as usize > len || end > usize::MAX as u64 {
            return Err(SnapshotError::Truncated { section });
        }
        if entries.iter().any(|e| e.section == section) {
            return Err(SnapshotError::Corrupt {
                section: Section::SectionTable,
                message: format!("duplicate {section} section"),
            });
        }
        let entry = Entry {
            section,
            range: offset as usize..end as usize,
            checksum: recorded,
        };
        verify(&entry)?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Bytes `range` of `file`, attributed to `section` if the file ends
/// before them.
fn read_exact_at(
    file: &Mutex<File>,
    range: Range<usize>,
    section: Section,
) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = vec![0; range.len()];
    let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
    file.seek(SeekFrom::Start(range.start as u64))?;
    file.read_exact(&mut bytes)
        .map_err(|err| match err.kind() {
            std::io::ErrorKind::UnexpectedEof => SnapshotError::Truncated { section },
            _ => SnapshotError::from(err),
        })?;
    Ok(bytes)
}

/// The payload of `entry`, read from `file` and checked against its
/// recorded checksum.
fn read_payload(file: &Mutex<File>, entry: &Entry) -> Result<Vec<u8>, SnapshotError> {
    let payload = read_exact_at(file, entry.range.clone(), entry.section)?;
    if checksum(&payload) != entry.checksum {
        return Err(SnapshotError::ChecksumMismatch {
            section: entry.section,
        });
    }
    Ok(payload)
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

/// Encodes the five graph sections of `graph` into `writer`.
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
}

/// The CSR layout of an adjacency section: row count, id total, `count +
/// 1` offsets, then the ids of each row in id order, the layout the format
/// has always had — a row held in `(label, id)` order is sorted by id on
/// the way out.
fn encode_adjacency(rows: &Adjacency) -> SectionWriter {
    let lens: Vec<u64> = rows.iter().map(|row| row.len() as u64).collect();
    let mut w = SectionWriter::new();
    w.put_u32(lens.len() as u32);
    w.put_u64(lens.iter().sum());
    let mut offset = 0u64;
    for len in lens {
        w.put_u64(offset);
        offset += len;
    }
    w.put_u64(offset);
    for row in rows.iter() {
        let row = by_id(row);
        (0..row.len()).for_each(|i| w.put_u32(row[i].0));
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
    fn rows(&self, labels: &[Label]) -> Result<Adjacency, SnapshotError> {
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

    /// True when these rows, an in-adjacency, are the rows `out` holds
    /// transposed, given equal totals. Walking `out` by source reaches each
    /// in-row's sources in ascending order, so each out-edge must be the
    /// next entry of its in-row: one cursor per row, no search. The ids of
    /// these rows need not be validated yet.
    fn is_transpose_of(&self, out: &Adjacency) -> bool {
        let n = self.offsets.len() / 8 - 1;
        let mut next: Vec<usize> = (0..n).map(|v| self.offset(v)).collect();
        (0..n).all(|src| {
            out.row(src).iter().all(|&dst| {
                let (at, end) = (next[dst.index()], self.offset(dst.index() + 1));
                next[dst.index()] += 1;
                at < end && u32_at(self.targets, at) == src as u32
            })
        })
    }

    /// The first out-edge of `out` in `(src, dst)` order that these rows,
    /// an in-adjacency, do not list.
    fn first_missing(&self, out: &Adjacency) -> Option<(usize, NodeId)> {
        let n = self.offsets.len() / 8 - 1;
        (0..n).find_map(|src| {
            let dsts = by_id(out.row(src));
            let missing = dsts
                .iter()
                .find(|dst| !sorted_lists(self.row(dst.index()), src as u32));
            missing.map(|&dst| (src, dst))
        })
    }
}

/// The sections [`decode_graph`] reads.
const GRAPH_SECTIONS: [Section; 5] = [
    Section::Strings,
    Section::Labels,
    Section::Values,
    Section::OutAdjacency,
    Section::InAdjacency,
];

/// Rebuilds a [`Graph`] from the archive's graph sections, validating
/// checksummed payloads against the structural invariants the in-memory
/// graph relies on. Ignores non-graph sections.
///
/// Every section is decoded in place, straight into the graph's own
/// arrays: what a load from an opened file holds at its peak is the graph
/// plus the section being decoded (plus a flat copy of the labels and one
/// row of scratch); from bytes, the whole archive. The label buckets are
/// rebuilt from the validated labels, one per interned label.
pub fn decode_graph(archive: &SnapshotArchive) -> Result<Graph, SnapshotError> {
    // Strings → interner. A name takes at least its 4-byte length.
    let payload = archive.require(Section::Strings)?;
    let mut r = SectionReader::new(Section::Strings, &payload);
    let name_count = r.read_u32()? as usize;
    let mut names = Vec::with_capacity(name_count.min(payload.len() / 4));
    for _ in 0..name_count {
        let len = r.read_u32()? as usize;
        let bytes = r.read_bytes(len)?;
        let name = std::str::from_utf8(bytes).map_err(|_| r.corrupt("label name is not UTF-8"))?;
        names.push(name.to_string());
    }
    r.expect_end()?;
    drop(payload);
    let interner = LabelInterner::from_names(names).map_err(|name| SnapshotError::Corrupt {
        section: Section::Strings,
        message: format!("duplicate label name {name:?}"),
    })?;

    // Labels (tombstones included).
    let payload = archive.require(Section::Labels)?;
    let mut r = SectionReader::new(Section::Labels, &payload);
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
    drop(payload);

    // Values.
    let payload = archive.require(Section::Values)?;
    let mut r = SectionReader::new(Section::Values, &payload);
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
    drop(payload);

    // Adjacency, both directions, validated in the file's id order as the
    // rows are cut; the out-section is dropped once its pages are. The
    // in-rows must be the out-rows transposed. That is checked against the
    // out-pages before the in-rows are cut, so its cursors are not held at
    // the load's peak, and reported after the in-rows' own checks, as when
    // it ran last: the totals first, then the first out-edge missing from
    // the in-adjacency.
    let (out, out_total) = {
        let payload = archive.require(Section::OutAdjacency)?;
        let csr = CsrBytes::new(Section::OutAdjacency, &payload, node_count)?;
        (csr.rows(&labels)?, csr.total())
    };
    let payload = archive.require(Section::InAdjacency)?;
    let in_csr = CsrBytes::new(Section::InAdjacency, &payload, node_count)?;
    let in_total = in_csr.total();
    let transposed = out_total == in_total && in_csr.is_transpose_of(&out);
    let inc = in_csr.rows(&labels)?;
    if out_total != in_total {
        return Err(SnapshotError::Corrupt {
            section: Section::InAdjacency,
            message: format!("edge totals disagree: out {out_total}, in {in_total}"),
        });
    }
    if !transposed {
        let (src, dst) = in_csr
            .first_missing(&out)
            .expect("rows that are not the transpose miss an out-edge");
        return Err(SnapshotError::Corrupt {
            section: Section::InAdjacency,
            message: format!("edge ({src}, {dst}) is missing from the in-adjacency"),
        });
    }

    drop(payload);

    Ok(Graph {
        label_index: LabelIndex::build(&labels, interner.len()),
        interner,
        out,
        inc,
        labels: labels.into_iter().collect(),
        values,
        edge_count: out_total,
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

/// Loads the graph out of a snapshot file. The sections the graph does
/// not use (a bundle's schema) are read and checksummed first,
/// one at a time, so the file is refused for what [`read_graph_snapshot`]
/// refuses.
pub fn load_graph_snapshot(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    let archive = SnapshotArchive::open(path)?;
    archive.verify_skipped(&GRAPH_SECTIONS)?;
    decode_graph(&archive)
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

    /// An archive opened from a file reads its payloads a section at a
    /// time, but refuses exactly what the same bytes held in memory refuse:
    /// a damaged payload byte or recorded checksum of every section, a cut
    /// at every section boundary, a damaged bundle section the graph does
    /// not decode, and a damaged section no decoder reads.
    #[test]
    fn an_opened_file_refuses_what_its_bytes_refuse() {
        let mut clean = Vec::new();
        let mut writer = SnapshotWriter::new();
        encode_graph(&sample_graph(), &mut writer);
        writer.add_section(Section::Schema, b"a bundle's schema".to_vec());
        writer.add_section(Section::Unknown(77), b"a later build's section".to_vec());
        writer.write_to(&mut clean).unwrap();
        let table: Vec<_> = SnapshotArchive::from_bytes(clean.clone())
            .unwrap()
            .sections()
            .collect();
        let path = std::env::temp_dir().join(format!("bgpq-opened-{}.bgpq", std::process::id()));
        let from_file = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            load_graph_snapshot(&path)
        };
        let from_bytes = |bytes: &[u8]| read_graph_snapshot(std::io::Cursor::new(bytes));
        let loaded = from_file(&clean).unwrap();
        let archive = SnapshotArchive::open(&path).unwrap();
        assert!(archive.contains(Section::Unknown(77)));
        assert_eq!(
            &*archive.require(Section::Unknown(77)).unwrap(),
            b"a later build's section"
        );
        assert_eq!(archive.read(Section::Unknown(78)).unwrap(), None);
        drop(archive);
        assert_eq!(loaded.edge_count(), sample_graph().edge_count());
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for (i, (_, range)) in table.iter().enumerate() {
            let mut damaged = clean.clone();
            damaged[range.start + range.len() / 2] ^= 0x40;
            cases.push(damaged);
            let mut recorded = clean.clone();
            recorded[16 + i * 28 + 20] ^= 0x01;
            cases.push(recorded);
            cases.push(clean[..range.start].to_vec());
            cases.push(clean[..range.start + 1].to_vec());
        }
        cases.extend([Vec::new(), clean[..7].to_vec(), clean[..20].to_vec()]);
        for (n, bytes) in cases.iter().enumerate() {
            let want = from_bytes(bytes).expect_err("damaged");
            assert_eq!(from_file(bytes).expect_err("damaged"), want, "case {n}");
        }
        std::fs::remove_file(&path).unwrap();
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
        // Retired ids: format 1's label buckets, formats 1 and 2's index
        // entries, and per-shard index blobs.
        assert_eq!(Section::from_id(6), Section::Unknown(6));
        assert_eq!(Section::from_id(8), Section::Unknown(8));
        assert_eq!(Section::from_id(9), Section::Unknown(9));
        assert!(Section::Unknown(42).to_string().contains("42"));
    }
}
