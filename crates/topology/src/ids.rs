//! Typed identifiers for data center elements.
//!
//! Every element class gets its own newtype so that, e.g., a [`VmId`] can
//! never be used where a [`TorId`] is expected (C-NEWTYPE). Ids are dense
//! indices issued by the [`crate::DataCenter`] that owns them.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub usize);

        impl $name {
            /// Returns the raw index.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(value: usize) -> Self {
                $name(value)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a rack (one ToR per rack).
    RackId,
    "rack-"
);
define_id!(
    /// Identifier of a physical server.
    ServerId,
    "srv-"
);
define_id!(
    /// Identifier of a virtual machine.
    VmId,
    "vm-"
);
define_id!(
    /// Identifier of a Top-of-Rack switch.
    TorId,
    "tor-"
);
define_id!(
    /// Identifier of an optical packet switch (possibly optoelectronic).
    OpsId,
    "ops-"
);
define_id!(
    /// Identifier of a pod: a locality domain grouping racks and OPSs.
    ///
    /// Pods shard the data center for hyperscale state management: every
    /// ToR and OPS belongs to exactly one pod (default `pod-0`), the link
    /// ledger in `alvc-nfv` partitions its state by pod, and layer
    /// construction in `alvc-core` connects pods over their boundary OPSs.
    PodId,
    "pod-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(RackId(3).to_string(), "rack-3");
        assert_eq!(ServerId(0).to_string(), "srv-0");
        assert_eq!(VmId(12).to_string(), "vm-12");
        assert_eq!(TorId(5).to_string(), "tor-5");
        assert_eq!(OpsId(9).to_string(), "ops-9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(VmId(1));
        set.insert(VmId(1));
        set.insert(VmId(2));
        assert_eq!(set.len(), 2);
        assert!(VmId(1) < VmId(2));
    }

    #[test]
    fn from_usize_round_trips() {
        let id: OpsId = 7usize.into();
        assert_eq!(id.index(), 7);
    }
}
