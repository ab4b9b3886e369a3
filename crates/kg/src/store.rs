//! An indexed, append-only triple store with pattern queries and RDFS-style
//! subclass inference.

use crate::ontology::vocab;
use crate::term::{Iri, Term, Triple};
use std::collections::{BTreeMap, BTreeSet};

/// An in-memory triple store indexed by subject, predicate and object.
///
/// ```
/// use kinet_kg::{TripleStore, Triple, Term};
/// let mut store = TripleStore::new();
/// store.insert(Triple::new("lab:cam", "rdf:type", Term::iri("net:device")));
/// assert_eq!(store.len(), 1);
/// let hits = store.query(Some(&"lab:cam".into()), None, None);
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TripleStore {
    triples: Vec<Triple>,
    by_subject: BTreeMap<Iri, Vec<usize>>,
    by_predicate: BTreeMap<Iri, Vec<usize>>,
    by_object: BTreeMap<Term, Vec<usize>>,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored triples (duplicates are not stored twice).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// `true` when no triple is stored.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Inserts a triple; returns `false` if an identical triple already
    /// exists.
    pub fn insert(&mut self, t: Triple) -> bool {
        if self
            .by_subject
            .get(&t.subject)
            .is_some_and(|idxs| idxs.iter().any(|&i| self.triples[i] == t))
        {
            return false;
        }
        let idx = self.triples.len();
        self.by_subject
            .entry(t.subject.clone())
            .or_default()
            .push(idx);
        self.by_predicate
            .entry(t.predicate.clone())
            .or_default()
            .push(idx);
        self.by_object
            .entry(t.object.clone())
            .or_default()
            .push(idx);
        self.triples.push(t);
        true
    }

    /// Convenience insert from parts.
    pub fn add(&mut self, s: impl Into<Iri>, p: impl Into<Iri>, o: impl Into<Term>) -> bool {
        self.insert(Triple::new(s, p, o))
    }

    /// Pattern query; `None` positions match anything. Results are in
    /// insertion order.
    pub fn query(&self, s: Option<&Iri>, p: Option<&Iri>, o: Option<&Term>) -> Vec<&Triple> {
        // Start from the most selective available index.
        let candidates: Box<dyn Iterator<Item = usize>> = match (s, p, o) {
            (Some(s), _, _) => match self.by_subject.get(s) {
                Some(v) => Box::new(v.iter().copied()),
                None => return Vec::new(),
            },
            (None, _, Some(o)) => match self.by_object.get(o) {
                Some(v) => Box::new(v.iter().copied()),
                None => return Vec::new(),
            },
            (None, Some(p), None) => match self.by_predicate.get(p) {
                Some(v) => Box::new(v.iter().copied()),
                None => return Vec::new(),
            },
            (None, None, None) => Box::new(0..self.triples.len()),
        };
        candidates
            .map(|i| &self.triples[i])
            .filter(|t| {
                s.is_none_or(|s| &t.subject == s)
                    && p.is_none_or(|p| &t.predicate == p)
                    && o.is_none_or(|o| &t.object == o)
            })
            .collect()
    }

    /// All objects of `(subject, predicate, ?)`.
    pub fn objects(&self, s: &Iri, p: &Iri) -> Vec<&Term> {
        self.query(Some(s), Some(p), None)
            .into_iter()
            .map(|t| &t.object)
            .collect()
    }

    /// First object of `(subject, predicate, ?)`, if any.
    pub fn object(&self, s: &Iri, p: &Iri) -> Option<&Term> {
        self.objects(s, p).into_iter().next()
    }

    /// All subjects of `(?, predicate, object)`.
    pub fn subjects(&self, p: &Iri, o: &Term) -> Vec<&Iri> {
        self.query(None, Some(p), Some(o))
            .into_iter()
            .map(|t| &t.subject)
            .collect()
    }

    /// Iterates over every stored triple in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Transitive superclasses of `class` via `rdfs:subClassOf`, excluding
    /// `class` itself. Cycle-safe.
    pub fn superclasses(&self, class: &Iri) -> BTreeSet<Iri> {
        let sub = Iri::new(vocab::SUB_CLASS_OF);
        let mut seen = BTreeSet::new();
        let mut stack = vec![class.clone()];
        while let Some(cur) = stack.pop() {
            for obj in self.objects(&cur, &sub) {
                if let Some(parent) = obj.as_iri() {
                    if parent != class && seen.insert(parent.clone()) {
                        stack.push(parent.clone());
                    }
                }
            }
        }
        seen
    }

    /// Instances of `class`, including instances of its transitive
    /// subclasses.
    pub fn instances_of(&self, class: &Iri) -> BTreeSet<Iri> {
        let rdf_type = Iri::new(vocab::RDF_TYPE);
        let sub = Iri::new(vocab::SUB_CLASS_OF);
        // collect class and all transitive subclasses
        let mut classes = BTreeSet::from([class.clone()]);
        let mut stack = vec![class.clone()];
        while let Some(cur) = stack.pop() {
            for child in self.subjects(&sub, &Term::Iri(cur.clone())) {
                if classes.insert(child.clone()) {
                    stack.push(child.clone());
                }
            }
        }
        let mut out = BTreeSet::new();
        for c in &classes {
            for s in self.subjects(&rdf_type, &Term::Iri(c.clone())) {
                out.insert(s.clone());
            }
        }
        out
    }

    /// `true` if `instance` has `class` among its (transitively inferred)
    /// types.
    pub fn is_instance_of(&self, instance: &Iri, class: &Iri) -> bool {
        let rdf_type = Iri::new(vocab::RDF_TYPE);
        for t in self.objects(instance, &rdf_type) {
            if let Some(direct) = t.as_iri() {
                if direct == class || self.superclasses(direct).contains(class) {
                    return true;
                }
            }
        }
        false
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        let mut s = TripleStore::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl Extend<Triple> for TripleStore {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> TripleStore {
        let mut s = TripleStore::new();
        s.add("lab:cam", vocab::RDF_TYPE, Term::iri("net:camera"));
        s.add("net:camera", vocab::SUB_CLASS_OF, Term::iri("net:device"));
        s.add(
            "net:device",
            vocab::SUB_CLASS_OF,
            Term::iri("uco:Observable"),
        );
        s.add("lab:cam", "net:hasIp", "192.168.1.10");
        s.add("lab:plug", vocab::RDF_TYPE, Term::iri("net:device"));
        s
    }

    #[test]
    fn insert_deduplicates() {
        let mut s = TripleStore::new();
        assert!(s.add("a:x", "a:p", 1i64));
        assert!(!s.add("a:x", "a:p", 1i64));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn pattern_queries() {
        let s = sample_store();
        assert_eq!(s.query(None, None, None).len(), 5);
        assert_eq!(s.query(Some(&"lab:cam".into()), None, None).len(), 2);
        let typ = Iri::new(vocab::RDF_TYPE);
        assert_eq!(s.query(None, Some(&typ), None).len(), 2);
        let obj = Term::str("192.168.1.10");
        assert_eq!(s.query(None, None, Some(&obj)).len(), 1);
        assert!(s.query(Some(&"lab:nope".into()), None, None).is_empty());
    }

    #[test]
    fn object_helpers() {
        let s = sample_store();
        let ip = s.object(&"lab:cam".into(), &"net:hasIp".into()).unwrap();
        assert_eq!(ip.as_str_lit(), Some("192.168.1.10"));
        assert!(s.object(&"lab:cam".into(), &"net:missing".into()).is_none());
    }

    #[test]
    fn superclass_transitivity() {
        let s = sample_store();
        let supers = s.superclasses(&"net:camera".into());
        assert!(supers.contains(&Iri::new("net:device")));
        assert!(supers.contains(&Iri::new("uco:Observable")));
        assert_eq!(supers.len(), 2);
    }

    #[test]
    fn instances_include_subclass_members() {
        let s = sample_store();
        let devices = s.instances_of(&"net:device".into());
        assert!(
            devices.contains(&Iri::new("lab:cam")),
            "camera is a device by inference"
        );
        assert!(devices.contains(&Iri::new("lab:plug")));
    }

    #[test]
    fn is_instance_of_inferred() {
        let s = sample_store();
        assert!(s.is_instance_of(&"lab:cam".into(), &"uco:Observable".into()));
        assert!(!s.is_instance_of(&"lab:plug".into(), &"net:camera".into()));
    }

    #[test]
    fn cycle_in_subclass_terminates() {
        let mut s = TripleStore::new();
        s.add("a:A", vocab::SUB_CLASS_OF, Term::iri("a:B"));
        s.add("a:B", vocab::SUB_CLASS_OF, Term::iri("a:A"));
        let supers = s.superclasses(&"a:A".into());
        assert!(supers.contains(&Iri::new("a:B")));
    }
}
