//! Service-based clustering of VMs (§III.A, Figs. 1 and 3).
//!
//! "VMs offering Map-reduce services can be grouped together and VMs
//! offering web services can be grouped separately, and so on. The number of
//! services in a data center is defined by the network operator."

use alvc_topology::{DataCenter, VmId};

use crate::label::LabelId;

/// A named group of VMs destined to become one virtual cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Interned label (service name or tenant id).
    pub label: LabelId,
    /// The member VMs.
    pub vms: Vec<VmId>,
}

impl ClusterSpec {
    /// Creates a spec; VMs are deduplicated and sorted. Accepts `&str`,
    /// `String`, or an already-interned [`LabelId`].
    pub fn new(label: impl Into<LabelId>, mut vms: Vec<VmId>) -> Self {
        vms.sort();
        vms.dedup();
        ClusterSpec {
            label: label.into(),
            vms,
        }
    }

    /// Number of member VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Whether the spec has no VMs.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }
}

/// Groups every VM of `dc` by its service type, producing one
/// [`ClusterSpec`] per service present (sorted by service for determinism).
///
/// This is the paper's default clustering: one virtual cluster per service.
///
/// # Example
///
/// ```
/// use alvc_core::clustering::service_clusters;
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().seed(3).build();
/// let clusters = service_clusters(&dc);
/// let total: usize = clusters.iter().map(|c| c.len()).sum();
/// assert_eq!(total, dc.vm_count());
/// ```
pub fn service_clusters(dc: &DataCenter) -> Vec<ClusterSpec> {
    dc.services()
        .into_iter()
        .map(|service| ClusterSpec::new(service.label(), dc.vms_of_service(service)))
        .collect()
}

/// Splits `vms` into `n` balanced per-tenant groups (round-robin), labeling
/// them `tenant-0..n`. Used by the multi-tenant NFC experiments where one
/// cluster hosts one chain per tenant.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn tenant_clusters(vms: &[VmId], n: usize) -> Vec<ClusterSpec> {
    assert!(n > 0, "tenant count must be positive");
    let mut groups: Vec<Vec<VmId>> = vec![Vec::new(); n];
    for (i, &vm) in vms.iter().enumerate() {
        groups[i % n].push(vm);
    }
    groups
        .into_iter()
        .enumerate()
        .map(|(i, vms)| ClusterSpec::new(LabelId::intern(&format!("tenant-{i}")), vms))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn spec_dedups_and_sorts() {
        let spec = ClusterSpec::new("x", vec![VmId(3), VmId(1), VmId(3)]);
        assert_eq!(spec.vms, vec![VmId(1), VmId(3)]);
        assert_eq!(spec.len(), 2);
        assert!(!spec.is_empty());
    }

    #[test]
    fn service_clusters_partition_all_vms() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(3)
            .vms_per_server(4)
            .seed(5)
            .build();
        let clusters = service_clusters(&dc);
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            for &vm in &c.vms {
                assert!(seen.insert(vm), "vm in two clusters");
            }
        }
        assert_eq!(seen.len(), dc.vm_count());
    }

    #[test]
    fn clusters_are_service_pure() {
        let dc = AlvcTopologyBuilder::new().seed(2).build();
        for c in service_clusters(&dc) {
            let services: std::collections::HashSet<_> =
                c.vms.iter().map(|&vm| dc.service_of_vm(vm)).collect();
            assert_eq!(services.len(), 1, "cluster {} mixes services", c.label);
        }
    }

    #[test]
    fn tenant_clusters_balanced() {
        let vms: Vec<_> = (0..10).map(VmId).collect();
        let groups = tenant_clusters(&vms, 3);
        assert_eq!(groups.len(), 3);
        let sizes: Vec<_> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(groups[0].label, "tenant-0");
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tenant_clusters_zero_rejected() {
        tenant_clusters(&[], 0);
    }

    #[test]
    fn tenant_clusters_more_tenants_than_vms() {
        let groups = tenant_clusters(&[VmId(0)], 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 1);
        assert!(groups[1].is_empty());
    }
}
