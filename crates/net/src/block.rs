//! Binary row blocks: the payload of a `rows` frame.
//!
//! An answer's rows are node ids — `u32`s — plus, for isomorphism answers,
//! the label and value of each *distinct* matched node. A block ships
//! exactly that: the ids as one bulk little-endian array, then a dictionary
//! with one entry per distinct data node, then the label names the
//! dictionary refers to. Nothing is rendered to display strings on the
//! server and nothing is parsed back from text on the client; a graph-less
//! client still sees the label and the typed value of every matched node.
//!
//! A block payload never starts with `{` (its first byte is a tag), which
//! is how the message layer tells it from a JSON control message. The
//! byte-level layout is specified in `docs/PROTOCOL.md`; every count a
//! block claims is checked against the bytes actually present *before*
//! anything is allocated for it, so a hostile block costs at most
//! `payload.len()` of memory.

use bgpq_engine::Value;
use std::borrow::Cow;

/// First payload byte of a match block.
pub(crate) const TAG_MATCH_BLOCK: u8 = 0x01;
/// First payload byte of a simulation block.
pub(crate) const TAG_SIM_BLOCK: u8 = 0x02;

const VALUE_NULL: u8 = 0;
const VALUE_FALSE: u8 = 1;
const VALUE_TRUE: u8 = 2;
const VALUE_INT: u8 = 3;
const VALUE_FLOAT: u8 = 4;
const VALUE_STR: u8 = 5;

/// Smallest encoding of one dictionary entry: id, label index, value tag.
const MIN_NODE_BYTES: usize = 9;

/// One distinct data node of a block: what a graph-less client needs to
/// display it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEntry {
    /// The data node id.
    pub id: u32,
    /// Index into the block's label table.
    pub label: u32,
    /// The node's attribute value.
    pub value: Value,
}

/// A decoded block of match rows: `rows × cols` data node ids in row-major
/// order (one column per pattern node, in pattern order) and the dictionary
/// of the distinct nodes among them.
///
/// The fields are private because decoding establishes what the accessors
/// rely on: the id array has exactly `rows × cols` cells, the dictionary is
/// strictly ascending by id and holds every id that occurs in a cell, and
/// every label index is inside the label table.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlock {
    rows: u32,
    cols: u32,
    ids: Vec<u32>,
    nodes: Vec<NodeEntry>,
    labels: Vec<String>,
}

/// One chunk of a simulation answer: data node ids simulating the pattern
/// node of one column. Chunks of a column arrive in order and concatenate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimBlock {
    /// The column (pattern-node index) the ids belong to.
    pub column: u32,
    /// The data node ids of this chunk (may be empty).
    pub ids: Vec<u32>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(
        out,
        u32::try_from(len).expect("a block is cut to rows_per_frame rows, far below u32::MAX"),
    );
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(VALUE_NULL),
        Value::Bool(false) => out.push(VALUE_FALSE),
        Value::Bool(true) => out.push(VALUE_TRUE),
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
    }
}

/// Appends one match block to `out` — the only encoder of the row format.
///
/// `ids` holds whole rows of `cols` cells in row-major order; `node`
/// resolves a data node id to its label name and value (the serving
/// snapshot on the server, the block's own dictionary in
/// [`RowBlock::encode_into`]). `distinct` is caller-owned scratch, so a
/// session encodes block after block without allocating for the
/// dictionary.
///
/// # Panics
/// When `ids` is not a whole number of rows.
pub fn encode_match_block<'a>(
    out: &mut Vec<u8>,
    cols: usize,
    ids: &[u32],
    distinct: &mut Vec<u32>,
    node: impl Fn(u32) -> (Cow<'a, str>, &'a Value),
) {
    let rows = ids.len().checked_div(cols).unwrap_or(0);
    assert_eq!(rows * cols, ids.len(), "cells make whole rows");
    distinct.clear();
    distinct.extend_from_slice(ids);
    distinct.sort_unstable();
    distinct.dedup();

    out.push(TAG_MATCH_BLOCK);
    put_len(out, rows);
    put_len(out, cols);
    put_len(out, distinct.len());
    let label_count_at = out.len();
    put_u32(out, 0); // patched below, once the dictionary has named its labels
    put_u32s(out, ids);

    let mut labels: Vec<Cow<'a, str>> = Vec::new();
    for &id in distinct.iter() {
        let (label, value) = node(id);
        let index = labels
            .iter()
            .position(|known| *known == label)
            .unwrap_or_else(|| {
                labels.push(label);
                labels.len() - 1
            });
        put_u32(out, id);
        put_len(out, index);
        put_value(out, value);
    }
    for label in &labels {
        put_str(out, label);
    }
    let label_count = labels.len() as u32; // at most one per dictionary entry
    out[label_count_at..label_count_at + 4].copy_from_slice(&label_count.to_le_bytes());
}

/// A bounds-checked reader over one block payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated row block: {n} bytes wanted at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Bulk-reads `count` little-endian `u32`s; the bytes are claimed from
    /// the payload before the vector is allocated.
    fn u32s(&mut self, count: u64) -> Result<Vec<u32>, String> {
        let bytes = count
            .checked_mul(4)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("id array of {count} cells overflows"))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| "a string in the row block is not valid UTF-8".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.u8()? {
            VALUE_NULL => Value::Null,
            VALUE_FALSE => Value::Bool(false),
            VALUE_TRUE => Value::Bool(true),
            VALUE_INT => Value::Int(self.u64()? as i64),
            VALUE_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            VALUE_STR => Value::Str(self.str()?.to_string()),
            other => return Err(format!("unknown value tag {other:#04x}")),
        })
    }

    /// Rejects a claimed `count` of things that each occupy at least
    /// `min_bytes` when the rest of the payload cannot hold that many — the
    /// check that keeps allocation bounded by the payload, not the claim.
    fn expect_room(&self, what: &str, count: usize, min_bytes: usize) -> Result<(), String> {
        if count > self.remaining() / min_bytes {
            return Err(format!(
                "row block claims {count} {what} but only {} bytes follow",
                self.remaining()
            ));
        }
        Ok(())
    }

    fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the row block")),
        }
    }
}

impl RowBlock {
    /// Builds a block from its parts, checking what [`RowBlock::decode`]
    /// checks: `ids` has `rows × cols` cells, `nodes` is strictly ascending
    /// by id and covers every cell, label indices are inside `labels`.
    pub fn new(
        rows: u32,
        cols: u32,
        ids: Vec<u32>,
        nodes: Vec<NodeEntry>,
        labels: Vec<String>,
    ) -> Result<RowBlock, String> {
        if u64::from(rows) * u64::from(cols) != ids.len() as u64 {
            return Err(format!(
                "{rows} rows x {cols} columns do not make {} cells",
                ids.len()
            ));
        }
        if cols == 0 && rows != 0 {
            return Err(format!("{rows} rows without columns"));
        }
        if !nodes.windows(2).all(|pair| pair[0].id < pair[1].id) {
            return Err("the node dictionary is not strictly ascending by id".into());
        }
        if let Some(entry) = nodes.iter().find(|n| n.label as usize >= labels.len()) {
            return Err(format!(
                "node {} refers to label {} of {}",
                entry.id,
                entry.label,
                labels.len()
            ));
        }
        let block = RowBlock {
            rows,
            cols,
            ids,
            nodes,
            labels,
        };
        if let Some(&id) = block.ids.iter().find(|&&id| block.entry(id).is_none()) {
            return Err(format!("node {id} is missing from the block's dictionary"));
        }
        Ok(block)
    }

    /// Decodes a match-block payload (tag byte included).
    pub fn decode(payload: &[u8]) -> Result<RowBlock, String> {
        let mut r = Cursor {
            bytes: payload,
            pos: 0,
        };
        if r.u8()? != TAG_MATCH_BLOCK {
            return Err("not a match block".into());
        }
        let rows = r.u32()?;
        let cols = r.u32()?;
        let node_count = r.u32()? as usize;
        let label_count = r.u32()? as usize;
        let ids = r.u32s(u64::from(rows) * u64::from(cols))?;
        r.expect_room("nodes", node_count, MIN_NODE_BYTES)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(NodeEntry {
                id: r.u32()?,
                label: r.u32()?,
                value: r.value()?,
            });
        }
        r.expect_room("labels", label_count, 4)?;
        let mut labels = Vec::with_capacity(label_count);
        for _ in 0..label_count {
            labels.push(r.str()?.to_string());
        }
        r.finish()?;
        RowBlock::new(rows, cols, ids, nodes, labels)
    }

    /// Appends this block's payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_match_block(out, self.cols as usize, &self.ids, &mut Vec::new(), |id| {
            let entry = self.entry(id).expect("every cell is in the dictionary");
            (
                Cow::Borrowed(self.labels[entry.label as usize].as_str()),
                &entry.value,
            )
        });
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.rows as usize
    }

    /// True for a block without rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    /// The ids of row `index`, one per column.
    pub fn row(&self, index: usize) -> &[u32] {
        let cols = self.cols as usize;
        &self.ids[index * cols..(index + 1) * cols]
    }

    /// The distinct data nodes of the block, ascending by id.
    pub fn nodes(&self) -> &[NodeEntry] {
        &self.nodes
    }

    /// The label names [`NodeEntry::label`] indexes.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn entry(&self, id: u32) -> Option<&NodeEntry> {
        self.nodes
            .binary_search_by_key(&id, |n| n.id)
            .ok()
            .map(|at| &self.nodes[at])
    }

    /// The label name and value of a node that occurs in this block.
    ///
    /// # Panics
    /// When `id` is not an id of this block.
    pub fn node(&self, id: u32) -> (&str, &Value) {
        let entry = self.entry(id).expect("id occurs in the block");
        (&self.labels[entry.label as usize], &entry.value)
    }
}

impl SimBlock {
    /// Decodes a simulation-block payload (tag byte included).
    pub fn decode(payload: &[u8]) -> Result<SimBlock, String> {
        let mut r = Cursor {
            bytes: payload,
            pos: 0,
        };
        if r.u8()? != TAG_SIM_BLOCK {
            return Err("not a simulation block".into());
        }
        let column = r.u32()?;
        let count = r.u32()?;
        let ids = r.u32s(u64::from(count))?;
        r.finish()?;
        Ok(SimBlock { column, ids })
    }

    /// Appends this block's payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_sim_block(out, self.column as usize, self.ids.iter().copied());
    }
}

/// Appends one simulation block to `out`: `ids` simulate the pattern node
/// of `column`.
pub fn encode_sim_block(out: &mut Vec<u8>, column: usize, ids: impl ExactSizeIterator<Item = u32>) {
    out.push(TAG_SIM_BLOCK);
    put_len(out, column);
    put_len(out, ids.len());
    out.reserve(ids.len() * 4);
    for id in ids {
        put_u32(out, id);
    }
}

/// The match rows of one answer, kept as the server sent them: columnar
/// blocks plus the column names of the `answer` header. Rows are in the
/// server's canonical order; display strings are produced by whoever prints
/// a [`Binding`], not here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchTable {
    columns: Vec<String>,
    blocks: Vec<RowBlock>,
    rows: usize,
}

impl MatchTable {
    /// An empty table over the given column (pattern-node) names.
    pub fn new(columns: Vec<String>) -> Self {
        MatchTable {
            columns,
            blocks: Vec::new(),
            rows: 0,
        }
    }

    /// Appends a block; one whose width is not the table's is handed back.
    pub fn push(&mut self, block: RowBlock) -> Result<(), RowBlock> {
        if block.cols() != self.columns.len() {
            return Err(block);
        }
        self.rows += block.len();
        self.blocks.push(block);
        Ok(())
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows, in the server's canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        self.blocks.iter().flat_map(move |block| {
            (0..block.len()).map(move |index| Row {
                columns: &self.columns,
                block,
                ids: block.row(index),
            })
        })
    }
}

/// One match row: a view into its block.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    columns: &'a [String],
    block: &'a RowBlock,
    ids: &'a [u32],
}

impl<'a> Row<'a> {
    /// The matched data node ids, in pattern-node order.
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The bindings of the row, in pattern-node order.
    pub fn iter(&self) -> impl Iterator<Item = Binding<'a>> + 'a {
        let Row {
            columns,
            block,
            ids,
        } = *self;
        columns.iter().zip(ids).map(move |(node, &id)| {
            let (label, value) = block.node(id);
            Binding {
                node,
                id,
                label,
                value,
            }
        })
    }
}

/// One binding of a match row: a pattern node resolved to a data node,
/// borrowed from the block that carried it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binding<'a> {
    /// Pattern-node display name (`node_name` or the `u{i}` placeholder).
    pub node: &'a str,
    /// The matched data node id.
    pub id: u32,
    /// The data node's label name.
    pub label: &'a str,
    /// The data node's attribute value.
    pub value: &'a Value,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_pattern::DetRng;

    /// The server's `rows_per_frame` default: the block size the codec
    /// meets in practice.
    const ROWS_PER_FRAME: usize = 64;

    fn random_value(rng: &mut DetRng) -> Value {
        const STRINGS: [&str; 6] = ["", "Argo", "héllo wörld", "日本", "😀 \"quoted\"\n", "a\0b"];
        match rng.random_range(0..7) {
            0 => Value::Null,
            1 => Value::Bool(false),
            2 => Value::Bool(true),
            3 => Value::Int(rng.next_u64() as i64),
            4 => Value::Int(rng.random_range(0..3000) as i64 - 1000),
            5 => Value::Float((rng.random_f64() - 0.5) * 1e6),
            _ => Value::str(*rng.choose(&STRINGS).expect("non-empty")),
        }
    }

    /// A random well-formed block of the given shape: ids drawn from a small
    /// universe (so nodes repeat within and across rows), labels shared.
    fn random_block(rng: &mut DetRng, rows: usize, cols: usize) -> RowBlock {
        let universe: Vec<u32> = {
            let mut ids: Vec<u32> = (0..rng.random_range(1..40))
                .map(|_| rng.next_u64() as u32 >> rng.random_range(0..32))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let labels: Vec<String> = ["year", "", "film / фильм", "movie"][..rng.random_range(1..5)]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ids: Vec<u32> = (0..rows * cols)
            .map(|_| *rng.choose(&universe).expect("non-empty"))
            .collect();
        let mut used = ids.clone();
        used.sort_unstable();
        used.dedup();
        let nodes = used
            .into_iter()
            .map(|id| NodeEntry {
                id,
                label: rng.random_range(0..labels.len()) as u32,
                value: random_value(rng),
            })
            .collect();
        RowBlock::new(rows as u32, cols as u32, ids, nodes, labels).expect("well-formed")
    }

    /// `Value`'s `==` follows the numeric tower (`Int(1) == Float(1.0)`);
    /// the wire must keep the variant too, so compare the `Debug` forms.
    fn assert_same(a: &RowBlock, b: &RowBlock) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn match_blocks_round_trip_for_every_shape_and_value() {
        let mut rng = DetRng::seed_from_u64(0x2015_0b10c);
        let shapes = [
            (0, 0),
            (0, 3),
            (1, 1),
            (ROWS_PER_FRAME, 1),
            (ROWS_PER_FRAME, 4),
            (ROWS_PER_FRAME - 1, 5),
        ];
        let random_shapes: Vec<(usize, usize)> = (0..200)
            .map(|_| (rng.random_range(0..=ROWS_PER_FRAME), rng.random_range(1..7)))
            .collect();
        for (rows, cols) in shapes.into_iter().chain(random_shapes) {
            let block = random_block(&mut rng, rows, cols);
            let mut bytes = Vec::new();
            block.encode_into(&mut bytes);
            assert_eq!(bytes[0], TAG_MATCH_BLOCK);
            let decoded = RowBlock::decode(&bytes).expect("decodes");
            assert_eq!(decoded.len(), rows);
            assert_eq!(decoded.cols(), cols);
            // Labels the dictionary never uses are not shipped, so compare
            // what a reader sees: every cell's id, label name and value.
            for r in 0..rows {
                assert_eq!(decoded.row(r), block.row(r));
                for &id in block.row(r) {
                    let (label, value) = block.node(id);
                    let (got_label, got_value) = decoded.node(id);
                    assert_eq!(got_label, label);
                    assert_eq!(format!("{got_value:?}"), format!("{value:?}"));
                }
            }
            // Decoding is the inverse of encoding, byte for byte.
            let mut again = Vec::new();
            decoded.encode_into(&mut again);
            assert_eq!(again, bytes);
            assert_same(&RowBlock::decode(&again).unwrap(), &decoded);
        }
    }

    #[test]
    fn the_dictionary_holds_each_node_once_however_often_it_repeats() {
        let value = Value::str("shared");
        let mut bytes = Vec::new();
        encode_match_block(&mut bytes, 2, &[5, 9, 5, 9, 9, 5], &mut Vec::new(), |id| {
            (Cow::Owned(format!("label-{}", id % 2)), &value)
        });
        let block = RowBlock::decode(&bytes).unwrap();
        assert_eq!(block.nodes().len(), 2);
        assert_eq!(block.labels(), ["label-1"]);
        assert_eq!(block.row(2), [9, 5]);
        assert_eq!(block.node(9), ("label-1", &value));
    }

    #[test]
    fn simulation_blocks_round_trip_including_the_empty_one() {
        let mut rng = DetRng::seed_from_u64(7);
        for len in [0, 1, 8 * ROWS_PER_FRAME, 1000] {
            let block = SimBlock {
                column: rng.random_range(0..9) as u32,
                ids: (0..len).map(|_| rng.next_u64() as u32).collect(),
            };
            let mut bytes = Vec::new();
            block.encode_into(&mut bytes);
            assert_eq!(bytes.len(), 9 + 4 * len);
            assert_eq!(SimBlock::decode(&bytes).unwrap(), block);
        }
    }

    #[test]
    fn constructing_a_block_checks_what_decoding_checks() {
        let node = |id, label| NodeEntry {
            id,
            label,
            value: Value::Null,
        };
        let labels = || vec!["x".to_string()];
        assert!(RowBlock::new(1, 2, vec![1], vec![node(1, 0)], labels()).is_err());
        assert!(RowBlock::new(2, 0, vec![], vec![], vec![]).is_err());
        assert!(RowBlock::new(1, 1, vec![1], vec![node(1, 1)], labels()).is_err());
        assert!(RowBlock::new(1, 1, vec![2], vec![node(1, 0)], labels()).is_err());
        assert!(RowBlock::new(1, 2, vec![1, 2], vec![node(2, 0), node(1, 0)], labels()).is_err());
        assert!(RowBlock::new(1, 2, vec![1, 1], vec![node(1, 0), node(1, 0)], labels()).is_err());
        assert!(RowBlock::new(1, 2, vec![1, 2], vec![node(1, 0), node(2, 0)], labels()).is_ok());
    }

    #[test]
    fn a_table_reads_its_blocks_as_one_sequence_of_rows() {
        let mut rng = DetRng::seed_from_u64(99);
        let mut table = MatchTable::new(vec!["a".into(), "u1".into()]);
        assert!(table.is_empty());
        let blocks = [
            random_block(&mut rng, 3, 2),
            random_block(&mut rng, 0, 2),
            random_block(&mut rng, 2, 2),
        ];
        for block in &blocks {
            table.push(block.clone()).expect("same width");
        }
        assert!(table.push(random_block(&mut rng, 1, 3)).is_err());
        assert_eq!(table.len(), 5);
        let rows: Vec<Vec<u32>> = table.iter().map(|row| row.ids().to_vec()).collect();
        let expected: Vec<Vec<u32>> = blocks
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r).to_vec()))
            .collect();
        assert_eq!(rows, expected);
        for (row, ids) in table.iter().zip(&expected) {
            let bindings: Vec<Binding<'_>> = row.iter().collect();
            assert_eq!(bindings.len(), 2);
            assert_eq!((bindings[0].node, bindings[1].node), ("a", "u1"));
            assert_eq!(bindings.iter().map(|b| b.id).collect::<Vec<_>>(), *ids);
        }
    }
}
