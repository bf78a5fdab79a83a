//! Routing-free O/E/O estimation for host assignments.

use alvc_nfv::HostLocation;
use alvc_topology::Domain;

/// Estimated O/E/O conversions of a host assignment: the number of maximal
/// electronic runs among the VNF hosts.
///
/// The model matches Fig. 8: the flow is steered through the optical core;
/// each maximal group of consecutive electronic VNFs forces one dip out of
/// the core and back (one O/E/O conversion), while consecutive electronic
/// VNFs share a dip. Optical VNFs cost nothing.
///
/// The estimate assumes electronic VNFs of one run are reachable without
/// re-entering the core between them — true when they land on the same
/// server, otherwise the routed path (which the orchestrator computes) may
/// dip more often; tests cross-validate the two.
///
/// # Example
///
/// ```
/// use alvc_nfv::HostLocation;
/// use alvc_placement::estimate::estimated_oeo;
/// use alvc_topology::{OpsId, ServerId};
///
/// let hosts = [
///     HostLocation::OptoRouter(OpsId(0)),   // optical
///     HostLocation::Server(ServerId(0)),    // electronic ┐ one run
///     HostLocation::Server(ServerId(0)),    // electronic ┘
///     HostLocation::OptoRouter(OpsId(1)),   // optical
/// ];
/// assert_eq!(estimated_oeo(&hosts), 1);
/// ```
pub fn estimated_oeo(hosts: &[HostLocation]) -> usize {
    let mut runs = 0;
    let mut in_run = false;
    for h in hosts {
        match h.domain() {
            Domain::Electronic => {
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            }
            Domain::Optical => in_run = false,
        }
    }
    runs
}

/// Number of VNFs placed in each domain: `(electronic, optical)`.
pub fn domain_split(hosts: &[HostLocation]) -> (usize, usize) {
    let e = hosts
        .iter()
        .filter(|h| h.domain() == Domain::Electronic)
        .count();
    (e, hosts.len() - e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{OpsId, ServerId};

    fn s(i: usize) -> HostLocation {
        HostLocation::Server(ServerId(i))
    }
    fn o(i: usize) -> HostLocation {
        HostLocation::OptoRouter(OpsId(i))
    }

    #[test]
    fn all_optical_is_zero() {
        assert_eq!(estimated_oeo(&[o(0), o(1), o(2)]), 0);
    }

    #[test]
    fn all_electronic_is_one_run() {
        assert_eq!(estimated_oeo(&[s(0), s(1), s(2)]), 1);
    }

    #[test]
    fn fig8_before_and_after() {
        // Fig. 8 "before": VNF1 optical, VNF2 electronic, VNF3 electronic
        // but separated — two conversions.
        assert_eq!(estimated_oeo(&[s(0), o(0), s(1)]), 2);
        // "after": moving one electronic VNF optical saves a conversion.
        assert_eq!(estimated_oeo(&[o(1), o(0), s(1)]), 1);
        assert_eq!(estimated_oeo(&[o(1), o(0), o(2)]), 0);
    }

    #[test]
    fn empty_chain_zero() {
        assert_eq!(estimated_oeo(&[]), 0);
        assert_eq!(domain_split(&[]), (0, 0));
    }

    #[test]
    fn adjacent_electronic_share_a_run() {
        assert_eq!(estimated_oeo(&[o(0), s(0), s(1), o(1), s(2)]), 2);
    }

    #[test]
    fn split_counts() {
        assert_eq!(domain_split(&[s(0), o(0), s(1)]), (2, 1));
    }
}
