//! Interned cluster labels.
//!
//! Cluster labels ("web", "tenant-3", …) used to be `String`s compared and
//! cloned on hot paths (batch construction, recluster application, chain
//! deployment). [`LabelId`] replaces them with a copyable `u32` handle into
//! a process-wide intern table: comparisons are integer compares, and a
//! label's text is stored exactly once for the lifetime of the process.
//!
//! Conversion is free-form — `&str`, `String`, and `LabelId` all convert
//! via [`Into`] — so every constructor that used to take
//! `label: impl Into<String>` now takes `impl Into<LabelId>` and keeps
//! accepting the same call sites unchanged. Converting an *owned* `String`
//! whose text is already interned is counted on the
//! `alvc_core.label.clones` telemetry counter: that allocation was redundant,
//! and hot paths are expected to keep the counter at zero by passing
//! `LabelId`s (or `&str`) instead.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// An interned cluster label: a copyable handle to a process-wide string.
///
/// # Example
///
/// ```
/// use alvc_core::LabelId;
///
/// let a = LabelId::intern("web");
/// let b: LabelId = "web".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "web");
/// assert_eq!(a, "web");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

struct Interner {
    by_text: HashMap<&'static str, u32>,
    texts: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            by_text: HashMap::new(),
            texts: Vec::new(),
        })
    })
}

impl LabelId {
    /// Interns `text`, allocating its backing storage only on the first
    /// occurrence process-wide.
    pub fn intern(text: &str) -> LabelId {
        let mut int = interner().lock().expect("label interner poisoned");
        if let Some(&id) = int.by_text.get(text) {
            return LabelId(id);
        }
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let id = u32::try_from(int.texts.len()).expect("fewer than 2^32 labels");
        int.texts.push(leaked);
        int.by_text.insert(leaked, id);
        LabelId(id)
    }

    /// Looks up an already-interned label without interning `text`; returns
    /// `None` if no cluster ever used this label. This keeps query paths
    /// (e.g. [`crate::ClusterManager::cluster_by_label`]) from growing the
    /// intern table on misses.
    pub(crate) fn lookup(text: &str) -> Option<LabelId> {
        let int = interner().lock().expect("label interner poisoned");
        int.by_text.get(text).map(|&id| LabelId(id))
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        let int = interner().lock().expect("label interner poisoned");
        int.texts[self.0 as usize]
    }
}

impl From<&str> for LabelId {
    fn from(text: &str) -> Self {
        LabelId::intern(text)
    }
}

impl From<&String> for LabelId {
    fn from(text: &String) -> Self {
        LabelId::intern(text)
    }
}

impl From<String> for LabelId {
    fn from(text: String) -> Self {
        // An owned String for an already-interned label is a redundant
        // allocation — the clone the arena exists to eliminate.
        if let Some(id) = LabelId::lookup(&text) {
            alvc_telemetry::counter!("alvc_core.label.clones").incr();
            return id;
        }
        LabelId::intern(&text)
    }
}

impl From<&LabelId> for LabelId {
    fn from(id: &LabelId) -> Self {
        *id
    }
}

impl std::fmt::Display for LabelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for LabelId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for LabelId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<LabelId> for &str {
    fn eq(&self, other: &LabelId) -> bool {
        *self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = LabelId::intern("label-test-idem");
        let b = LabelId::intern("label-test-idem");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "label-test-idem");
    }

    #[test]
    fn distinct_texts_distinct_ids() {
        let a = LabelId::intern("label-test-a");
        let b = LabelId::intern("label-test-b");
        assert_ne!(a, b);
    }

    #[test]
    fn conversions_accept_all_string_shapes() {
        let from_str: LabelId = "label-test-conv".into();
        let from_string: LabelId = String::from("label-test-conv").into();
        let from_ref: LabelId = (&String::from("label-test-conv")).into();
        let from_id: LabelId = (&from_str).into();
        assert_eq!(from_str, from_string);
        assert_eq!(from_str, from_ref);
        assert_eq!(from_str, from_id);
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(LabelId::lookup("label-test-never-interned"), None);
        let id = LabelId::intern("label-test-looked-up");
        assert_eq!(LabelId::lookup("label-test-looked-up"), Some(id));
    }

    #[test]
    fn display_and_str_compare() {
        let id = LabelId::intern("label-test-display");
        assert_eq!(id.to_string(), "label-test-display");
        assert_eq!(id, "label-test-display");
        assert_eq!("label-test-display", id);
        assert!(id != "something-else");
    }
}
