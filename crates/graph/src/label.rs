//! Interned node labels.
//!
//! The paper assumes a finite alphabet `Σ` of labels such as `movie`,
//! `actor`, `award` or `year`. Access constraints, pattern nodes and data
//! nodes all refer to labels, so the whole workspace benefits from comparing
//! labels as small integers rather than strings. [`LabelInterner`] owns the
//! mapping between label names and [`Label`] ids; every [`crate::Graph`]
//! carries one.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compact, interned label identifier.
///
/// `Label` is `Copy` and ordered so that sets of labels (the `S` of an access
/// constraint `S → (l, N)`) can be kept sorted and compared cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(pub u32);

impl Label {
    /// Returns the raw index of this label.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label(v)
    }
}

/// Bidirectional mapping between label names and [`Label`] ids.
///
/// Interners are append-only: once a name is registered its id never changes,
/// which lets graphs, schemas and patterns built against the same interner be
/// compared and combined safely.
///
/// The tables are shared between clones: cloning an interner is one
/// reference-count bump (a graph clone per commit and a pattern parse per
/// wire request both clone one), and only interning a *new* name through a
/// shared interner copies them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelInterner {
    tables: Arc<Tables>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tables {
    names: Vec<String>,
    by_name: HashMap<String, Label>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its existing id if already present.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.tables.by_name.get(name) {
            return label;
        }
        let tables = Arc::make_mut(&mut self.tables);
        let label = Label(tables.names.len() as u32);
        tables.names.push(name.to_string());
        tables.by_name.insert(name.to_string(), label);
        label
    }

    /// Interns every name in `names`, returning the ids in order.
    pub fn intern_all<'a, I>(&mut self, names: I) -> Vec<Label>
    where
        I: IntoIterator<Item = &'a str>,
    {
        names.into_iter().map(|n| self.intern(n)).collect()
    }

    /// Looks up a previously interned name.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.tables.by_name.get(name).copied()
    }

    /// Returns the name of `label`, if it has been interned.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.tables.names.get(label.index()).map(String::as_str)
    }

    /// Returns the name of `label`, or a synthesized placeholder when unknown.
    pub fn name_or_placeholder(&self, label: Label) -> String {
        self.name(label)
            .map(str::to_string)
            .unwrap_or_else(|| format!("<{label}>"))
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.tables.names.len()
    }

    /// True when no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.tables.names.is_empty()
    }

    /// Iterates over `(Label, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> {
        self.tables
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label(i as u32), n.as_str()))
    }

    /// Returns all label ids in id order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.tables.names.len() as u32).map(Label)
    }

    /// True when `label` belongs to this interner.
    pub fn contains(&self, label: Label) -> bool {
        label.index() < self.tables.names.len()
    }

    /// Rebuilds an interner from a name list in id order, as persisted in a
    /// snapshot's string table. Fails with the offending name when the list
    /// contains a duplicate (ids would no longer be bijective).
    pub(crate) fn from_names(names: Vec<String>) -> Result<Self, String> {
        let mut by_name = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            if by_name.insert(name.clone(), Label(i as u32)).is_some() {
                return Err(name.clone());
            }
        }
        Ok(LabelInterner {
            tables: Arc::new(Tables { names, by_name }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("movie");
        let b = interner.intern("actor");
        let a2 = interner.intern("movie");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn clones_share_the_tables_until_one_interns_a_new_name() {
        let mut a = LabelInterner::new();
        a.intern_all(["movie", "actor"]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
        assert_eq!(b.intern("actor"), Label(1));
        assert!(
            Arc::ptr_eq(&a.tables, &b.tables),
            "a known name copies nothing"
        );
        assert_eq!(b.intern("award"), Label(2));
        assert!(!Arc::ptr_eq(&a.tables, &b.tables));
        assert_eq!((a.len(), a.get("award")), (2, None));
        assert_ne!(a, b);
        assert_eq!(a.intern("award"), Label(2));
        assert_eq!(a, b, "equality is by content, not by sharing");
    }

    #[test]
    fn lookup_by_name_and_id() {
        let mut interner = LabelInterner::new();
        let movie = interner.intern("movie");
        assert_eq!(interner.get("movie"), Some(movie));
        assert_eq!(interner.get("award"), None);
        assert_eq!(interner.name(movie), Some("movie"));
        assert_eq!(interner.name(Label(99)), None);
        assert_eq!(interner.name_or_placeholder(Label(99)), "<L99>");
    }

    #[test]
    fn intern_all_preserves_order() {
        let mut interner = LabelInterner::new();
        let labels = interner.intern_all(["a", "b", "c", "b"]);
        assert_eq!(labels.len(), 4);
        assert_eq!(labels[1], labels[3]);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn iteration_matches_contents() {
        let mut interner = LabelInterner::new();
        interner.intern_all(["x", "y"]);
        let pairs: Vec<_> = interner.iter().map(|(l, n)| (l.0, n.to_string())).collect();
        assert_eq!(pairs, vec![(0, "x".to_string()), (1, "y".to_string())]);
        assert!(interner.contains(Label(1)));
        assert!(!interner.contains(Label(2)));
    }

    #[test]
    fn labels_are_ordered_by_id() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        assert!(a < b);
        let collected: Vec<_> = interner.labels().collect();
        assert_eq!(collected, vec![a, b]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Label(5).to_string(), "L5");
        assert_eq!(Label::from(3u32), Label(3));
        assert_eq!(Label(7).index(), 7);
    }
}
