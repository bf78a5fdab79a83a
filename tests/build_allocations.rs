//! Allocations and live heap bytes of a data-center build, and the live
//! bytes of one chain deployed on it, counted by a counting global
//! allocator. The allocator counts for the whole test
//! binary, so this file holds the one test that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alvc::core::construction::PaperGreedy;
use alvc::nfv::chain::fig5;
use alvc::nfv::{ElectronicOnlyPlacer, Orchestrator};
use alvc::topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, as the callers asked for them.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Two pods of the hyperscale ladder's pod (`Scale::DC_LADDER` in
/// `crates/bench`): 96 racks x 28 servers x 4 VMs, 288 OPSs in a full
/// mesh, 12 uplinks per ToR, 8 boundary gateways.
fn two_pods() -> AlvcTopologyBuilder {
    AlvcTopologyBuilder::new()
        .racks(96)
        .servers_per_rack(28)
        .vms_per_server(4)
        .ops_count(288)
        .tor_ops_degree(12)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .pods(2)
        .boundary_gateways(8)
        .seed(1)
}

/// A build sizes each list once: a rack's servers and a ToR's uplinks and
/// adjacency when the rack is added, an OPS's adjacency and switch lists
/// once its uplinks are in. What is left is mostly a server's three small
/// lists (adjacency, ToRs, VMs). An OPS list that grows by doubling again,
/// or a per-link allocation, breaks the bound: 1.05 x the 20,279
/// allocations the build makes.
///
/// The built data center holds 2,462,592 bytes of heap: a pod's full-mesh
/// core is one complete block of its graph, so its 41,328 links take no
/// link record, adjacency entry or switch-list entry. A mesh stored link
/// by link again breaks the bound, 1.05 x that reading, as does any other
/// list that stays resident at a size it no longer needs.
///
/// One chain deployed on the build leaves 8,906 live bytes in its
/// orchestrator: what the chain's slice, hosts, path and rules take, and
/// nothing sized by the data center. The bound is 1.1 x that reading. A
/// per-link table kept for a deploy breaks it: a ledger that mapped every
/// link to its pod read 388,930 bytes, 4 B for each of the build's 94,952
/// links and its pod-split maps.
#[test]
fn a_two_pod_build_sizes_its_lists_once() {
    let builder = two_pods();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let dc = builder.build();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert_eq!(dc.ops_count(), 2 * (288 + 8));
    assert!(
        allocations <= 21_292,
        "a two-pod build made {allocations} allocations"
    );
    assert!(live <= 2_585_721, "a two-pod build holds {live} bytes");

    // The first deploy in the process also registers its telemetry
    // metrics, which stay live; the second reads the orchestrator alone.
    deploy_one(&dc);
    let deployed = deploy_one(&dc);
    assert!(
        deployed <= 9_797,
        "one chain on a two-pod build holds {deployed} bytes"
    );
}

/// The live bytes a fresh orchestrator holds after deploying one chain
/// over the first eight VMs of `dc`.
fn deploy_one(dc: &DataCenter) -> u64 {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut orch = Orchestrator::new();
    let vms: Vec<_> = dc.vm_ids().take(8).collect();
    let spec = fig5::black(vms[0], vms[7]);
    orch.deploy_chain(
        dc,
        "tenant",
        vms,
        spec,
        &PaperGreedy::new(),
        &ElectronicOnlyPlacer::new(),
    )
    .expect("one chain deploys");
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    drop(orch);
    live
}
