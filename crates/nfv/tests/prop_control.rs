//! Control-plane properties: intent-log replay reproduces the live
//! [`StateView`] bit-for-bit, admission rejections leave zero residual
//! state, the deficit-round-robin scheduler starves no tenant,
//! incremental snapshot publication matches a full capture after every
//! batch, and concurrent submission is safe.

use std::sync::Arc;

use alvc_affinity::VmMove;
use alvc_nfv::chain::fig5;
use alvc_nfv::{
    AdmissionError, ChainSpec, ControlPlane, Intent, IntentEffect, IntentOutcome, NfcId,
    SchedulerMode, StateView, TenantQuota, VnfInstanceId, VnfSpec, VnfType,
};
use alvc_topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, PowerState, TorId, VmId,
};
use proptest::prelude::*;

fn dc_for(seed: u64) -> Arc<DataCenter> {
    dc_with_pods(seed, 1)
}

/// The same per-pod shape replicated over `pods` pods.
fn dc_with_pods(seed: u64, pods: usize) -> Arc<DataCenter> {
    Arc::new(
        AlvcTopologyBuilder::new()
            .pods(pods)
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(30)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(seed)
            .build(),
    )
}

fn spec_for(kind: u8, ingress: VmId, egress: VmId) -> ChainSpec {
    match kind % 4 {
        0 => fig5::blue(ingress, egress),
        1 => fig5::black(ingress, egress),
        2 => fig5::green(ingress, egress),
        _ => ChainSpec::builder("fw-only")
            .linear([VnfSpec::of(VnfType::Firewall)])
            .ingress(ingress)
            .egress(egress)
            .build()
            .unwrap(),
    }
}

/// The `kind`-th element of `xs`, wrapping around; `None` if it is empty.
fn pick<T: Copy>(xs: &[T], kind: u8) -> Option<T> {
    xs.get(kind as usize % xs.len().max(1)).copied()
}

fn control_plane(dc: &Arc<DataCenter>, batch_size: usize) -> ControlPlane {
    ControlPlane::builder()
        .batch_size(batch_size)
        .default_quota(TenantQuota::new(2, 3))
        .tenant_quota("operator", TenantQuota::unlimited())
        .build(dc.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance property: running an arbitrary multi-tenant
    /// intent script live, then replaying its log on a fresh control
    /// plane, yields an identical [`StateView`] — same chain set, same
    /// instance map, same integer-kbps bandwidth ledger — and an identical
    /// regenerated log.
    #[test]
    fn replay_reproduces_live_state_view(
        seed in 0u64..100,
        batch_size in 1usize..5,
        script in proptest::collection::vec((0u8..6, 0u8..4), 1..20),
    ) {
        let dc = dc_for(seed);
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let groups = [vms[..half].to_vec(), vms[half..].to_vec()];

        let live = control_plane(&dc, batch_size);
        // Replicas are addressed by the ids scale-out effects returned;
        // track them exactly as a real client would.
        let mut replicas: Vec<VnfInstanceId> = Vec::new();
        for (op, kind) in script {
            let tenant = format!("t{}", kind % 2);
            let group = &groups[(kind % 2) as usize];
            let view = live.view();
            let first_chain: Option<NfcId> = view.chains_of(&tenant).first().copied();
            let intent = match op {
                0 => Intent::DeployChain {
                    vms: group.clone(),
                    spec: spec_for(kind, group[0], *group.last().unwrap()),
                },
                1 => match first_chain {
                    Some(chain) => Intent::TeardownChain { chain },
                    None => Intent::Reoptimize, // rejected: not the operator
                },
                2 => match first_chain {
                    Some(chain) => Intent::ModifyChain {
                        chain,
                        spec: spec_for(kind + 1, group[0], *group.last().unwrap()),
                    },
                    None => Intent::Reoptimize,
                },
                3 => match first_chain {
                    Some(chain) => Intent::ScaleOut { chain, position: 0 },
                    None => Intent::Reoptimize,
                },
                4 => match replicas.pop() {
                    Some(replica) => Intent::ScaleIn { replica },
                    None => Intent::Reoptimize,
                },
                _ => Intent::Reoptimize,
            };
            let tenant = if matches!(intent, Intent::Reoptimize) {
                "operator".to_string()
            } else {
                tenant
            };
            let id = live.submit(&tenant, intent);
            live.process_batch();
            if let Some(IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. })) =
                live.outcome(id)
            {
                replicas.push(replica);
            }
        }
        live.process_all();

        let live_view: Arc<StateView> = live.view();
        let log = live.intent_log();
        prop_assert_eq!(live_view.intents_processed, log.len() as u64);

        // Internal invariants hold on the live orchestrator.
        live.inspect(|orch| {
            assert!(orch.manager().verify_disjoint());
            assert_eq!(orch.chain_count(), live_view.chain_count());
        });

        // Replay on a fresh control plane with the same configuration.
        let fresh = control_plane(&dc, batch_size);
        let replayed = fresh.replay(&log);
        prop_assert_eq!(&*live_view, &*replayed);
        prop_assert_eq!(&live_view.chains, &replayed.chains);
        prop_assert_eq!(&live_view.instances, &replayed.instances);
        prop_assert_eq!(&live_view.link_committed_kbps, &replayed.link_committed_kbps);
        prop_assert_eq!(log, fresh.intent_log());
    }

    /// Scheduler property (no starvation): with weight-1 tenants and a
    /// batch size of at least the tenant count, DRR grants every tenant
    /// with queued work at least one slot per batch — so a light tenant's
    /// queue drains within `light_count` batches no matter how large the
    /// heavy tenant's backlog ahead of it is.
    #[test]
    fn drr_never_starves_a_light_tenant(
        heavy_count in 20usize..120,
        light_tenants in 2usize..5,
        light_count in 1usize..6,
    ) {
        let dc = dc_for(1);
        let batch_size = light_tenants + 1;
        let cp = ControlPlane::builder()
            .batch_size(batch_size)
            .scheduler(SchedulerMode::DeficitRoundRobin)
            .operator("nobody")
            .build(dc.clone());
        // All intents are operator-only reoptimizes from non-operator
        // tenants: deterministic, rejected, zero orchestrator work — the
        // property under test is purely about slot allocation.
        for _ in 0..heavy_count {
            cp.submit("heavy", Intent::Reoptimize);
        }
        let light_tickets: Vec<_> = (0..light_count)
            .flat_map(|_| {
                (0..light_tenants).map(|t| cp.submit(&format!("light-{t}"), Intent::Reoptimize))
            })
            .collect();
        for batch in 0.. {
            prop_assert!(
                batch <= light_count,
                "light tenants starved past {light_count} batches"
            );
            cp.process_batch();
            if light_tickets.iter().all(|&t| cp.outcome(t).is_some()) {
                break;
            }
        }
        // The heavy backlog still drains to completion afterwards.
        cp.process_all();
        prop_assert_eq!(
            cp.intent_log().len(),
            heavy_count + light_count * light_tenants
        );
    }

    /// Scheduler property (replay determinism): an asymmetric multi-tenant
    /// burst drained by DRR — where batch order differs wildly from
    /// submission order — still replays bit-identically from its log on a
    /// fresh control plane.
    #[test]
    fn sharded_queues_replay_bit_identically(
        seed in 0u64..50,
        batch_size in 1usize..6,
        bursts in proptest::collection::vec((0u8..3, 1usize..5), 1..8),
    ) {
        let dc = dc_for(seed);
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let third = vms.len() / 3;
        let groups = [
            vms[..third].to_vec(),
            vms[third..2 * third].to_vec(),
            vms[2 * third..].to_vec(),
        ];
        let build = || {
            ControlPlane::builder()
                .batch_size(batch_size)
                .default_quota(TenantQuota::new(2, 3))
                .build(dc.clone())
        };
        let live = build();
        for &(tenant, count) in &bursts {
            let group = &groups[tenant as usize];
            for i in 0..count {
                let chain = live.view().chains_of(&format!("t{tenant}")).first().copied();
                let intent = match (i + count) % 3 {
                    0 => Intent::DeployChain {
                        vms: group.clone(),
                        spec: spec_for(tenant + i as u8, group[0], *group.last().unwrap()),
                    },
                    1 => match chain {
                        Some(chain) => Intent::TeardownChain { chain },
                        None => Intent::DeployChain {
                            vms: group.clone(),
                            spec: spec_for(tenant, group[0], *group.last().unwrap()),
                        },
                    },
                    _ => match chain {
                        Some(chain) => Intent::ScaleOut { chain, position: 0 },
                        None => Intent::DeployChain {
                            vms: group.clone(),
                            spec: spec_for(tenant + 1, group[0], *group.last().unwrap()),
                        },
                    },
                };
                live.submit(&format!("t{tenant}"), intent);
            }
            // Partial drains leave residual per-tenant queues (and DRR
            // deficit state) across submission waves.
            live.process_batch();
        }
        live.process_all();

        let fresh = build();
        let replayed = fresh.replay(&live.intent_log());
        prop_assert_eq!(&*live.view(), &*replayed);
        prop_assert_eq!(live.intent_log(), fresh.intent_log());
    }

    /// Incremental-publication property: after every batch — tenant
    /// intents and every operator intent alike (server, OPS and ToR
    /// failures and restores, reoptimizes, re-clusterings, power
    /// transitions), on one pod and on two — the published snapshot equals
    /// a from-scratch `StateView::capture` of the live orchestrator. The
    /// script also takes `cp.view()` handles and holds them across 1–4
    /// later batches, so publication patches both a buffer it owns and a
    /// clone of one a reader pins; a held snapshot must keep the value it
    /// had when taken (a reused buffer is never one a reader holds).
    #[test]
    fn incremental_view_equals_full_capture_after_every_batch(
        seed in 0u64..50,
        pods in 1usize..3,
        batch_size in 1usize..5,
        script in proptest::collection::vec((0u8..18, 0u8..4, 0u8..8), 1..40),
    ) {
        let dc = dc_with_pods(seed, pods);
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let groups = [vms[..half].to_vec(), vms[half..].to_vec()];
        // Chain endpoints; re-clustering refuses to move them.
        let pinned = [vms[0], vms[half - 1], vms[half], vms[vms.len() - 1]];
        let cp = control_plane(&dc, batch_size);
        let mut replicas: Vec<VnfInstanceId> = Vec::new();
        let mut powered_off: Vec<OpsId> = Vec::new();
        // Reader handles: the snapshot, a deep copy of what it held when
        // taken, and for how many more batches it stays pinned.
        let mut held: Vec<(Arc<StateView>, StateView, u8)> = Vec::new();
        let operator = |intent: Intent| ("operator".to_string(), intent);
        for (op, kind, hold) in script {
            let tenant = format!("t{}", kind % 2);
            let group = &groups[(kind % 2) as usize];
            let view = cp.view();
            let first_chain: Option<NfcId> = view.chains_of(&tenant).first().copied();
            let (tenant, intent) = match op {
                // Deploys carry extra weight (14..) so that the operator
                // intents below mostly find live chains and clusters.
                0 | 1 | 14.. => (tenant, Intent::DeployChain {
                    vms: group.clone(),
                    spec: spec_for(kind, group[0], *group.last().unwrap()),
                }),
                2 => match first_chain {
                    Some(chain) => (tenant, Intent::TeardownChain { chain }),
                    None => operator(Intent::Reoptimize),
                },
                3 => match first_chain {
                    Some(chain) => (tenant, Intent::ModifyChain {
                        chain,
                        spec: spec_for(kind + 1, group[0], *group.last().unwrap()),
                    }),
                    None => operator(Intent::Reoptimize),
                },
                4 => match first_chain {
                    Some(chain) => (tenant, Intent::ScaleOut { chain, position: 0 }),
                    None => operator(Intent::Reoptimize),
                },
                5 => match replicas.pop() {
                    Some(replica) => (tenant, Intent::ScaleIn { replica }),
                    None => operator(Intent::Reoptimize),
                },
                6 => operator(Intent::FailElement {
                    element: Element::Server(dc.server_of_vm(group[0])),
                }),
                7 => operator(Intent::RestoreElement {
                    element: Element::Server(dc.server_of_vm(group[0])),
                }),
                // An OPS some live cluster's abstraction layer owns: the AL
                // layer shrinks or rebuilds that cluster.
                8 => {
                    let owned: Vec<OpsId> =
                        view.clusters.values().flat_map(|c| c.ops.clone()).collect();
                    operator(pick(&owned, kind).map_or(Intent::Reoptimize, |ops| {
                        Intent::FailElement { element: Element::Ops(ops) }
                    }))
                }
                // A currently failed OPS or ToR (op 7 restores servers).
                9 => {
                    let is_switch = |e: &Element| !matches!(e, Element::Server(_));
                    let down: Vec<Element> =
                        view.failed_elements.iter().copied().filter(is_switch).collect();
                    operator(pick(&down, kind).map_or(Intent::Reoptimize, |element| {
                        Intent::RestoreElement { element }
                    }))
                }
                // A ToR listed by a live abstraction layer.
                10 => {
                    let tors: Vec<TorId> = cp.inspect(|orch| {
                        let layers = orch.manager().clusters();
                        layers.flat_map(|vc| vc.al().tors().to_vec()).collect()
                    });
                    operator(pick(&tors, kind).map_or(Intent::Reoptimize, |tor| {
                        Intent::FailElement { element: Element::Tor(tor) }
                    }))
                }
                // One valid move between the first and the last live
                // cluster (a stale one if there is only one cluster).
                11 => {
                    let from = view.clusters.iter().next();
                    let to = view.clusters.keys().next_back();
                    let vm = from.and_then(|(_, c)| c.vms.iter().find(|vm| !pinned.contains(vm)));
                    match (from, to, vm) {
                        (Some((&from, _)), Some(&to), Some(&vm)) => {
                            operator(Intent::Recluster { moves: vec![VmMove { vm, from, to }] })
                        }
                        _ => operator(Intent::Reoptimize),
                    }
                }
                // Off, then (op 13) back on: an OPS no layer owns.
                12 => {
                    let unowned: Vec<OpsId> = dc
                        .ops_ids()
                        .filter(|o| view.clusters.values().all(|c| !c.ops.contains(o)))
                        .collect();
                    let ops = pick(&unowned, kind).expect("no layer owns every OPS");
                    powered_off.push(ops);
                    operator(Intent::SetPowerState {
                        element: Element::Ops(ops),
                        state: PowerState::PoweredOff,
                    })
                }
                13 => match powered_off.pop() {
                    Some(ops) => operator(Intent::SetPowerState {
                        element: Element::Ops(ops),
                        state: PowerState::Active,
                    }),
                    None => operator(Intent::Reoptimize),
                },
            };
            let id = cp.submit(&tenant, intent);
            cp.process_batch();
            if let Some(IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. })) =
                cp.outcome(id)
            {
                replicas.push(replica);
            }
            // The invariant under test: what was published incrementally
            // is exactly what a full capture of the live world yields.
            prop_assert_eq!(&*cp.view(), &*cp.recompute_view());
            for (handle, taken, batches_left) in &mut held {
                prop_assert_eq!(&**handle, &*taken);
                *batches_left -= 1;
            }
            held.retain(|(_, _, batches_left)| *batches_left > 0);
            if (1..=4).contains(&hold) {
                let handle = cp.view();
                let taken = StateView::clone(&handle);
                held.push((handle, taken, hold));
            }
        }
        cp.process_all();
        prop_assert_eq!(&*cp.view(), &*cp.recompute_view());
        for (handle, taken, _) in &held {
            prop_assert_eq!(&**handle, taken);
        }
    }
}

/// Satellite regression: an admission-rejected intent must leave zero
/// residual state — no SDN rules, no bandwidth ledger entries, no cluster,
/// no instances — exactly the world the previous batch published.
#[test]
fn admission_rejection_leaves_zero_residual_state() {
    let dc = dc_for(3);
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let cp = ControlPlane::builder()
        .default_quota(TenantQuota::new(1, 8))
        .build(dc.clone());

    // Fill the tenant's quota with one real chain.
    let ok = cp.submit(
        "web",
        Intent::DeployChain {
            vms: vms.clone(),
            spec: fig5::black(vms[0], *vms.last().unwrap()),
        },
    );
    cp.process_all();
    assert!(cp.outcome(ok).unwrap().is_completed());
    let before = cp.view();

    // Every rejection family in one batch: over quota, unservable
    // bandwidth, empty group, foreign chain, operator-only.
    let mut fat = fig5::black(vms[0], *vms.last().unwrap());
    fat.bandwidth_gbps = 1e9;
    let rejected = [
        cp.submit(
            "web",
            Intent::DeployChain {
                vms: vms.clone(),
                spec: fig5::blue(vms[0], *vms.last().unwrap()),
            },
        ),
        cp.submit(
            "other",
            Intent::DeployChain {
                vms: vms.clone(),
                spec: fat,
            },
        ),
        cp.submit(
            "other",
            Intent::DeployChain {
                vms: Vec::new(),
                spec: fig5::blue(vms[0], vms[1]),
            },
        ),
        cp.submit(
            "other",
            Intent::TeardownChain {
                chain: before.chains_of("web")[0],
            },
        ),
        cp.submit("web", Intent::Reoptimize),
    ];
    cp.process_all();
    for id in rejected {
        assert!(
            matches!(cp.outcome(id).unwrap(), IntentOutcome::Rejected(_)),
            "{:?}",
            cp.outcome(id)
        );
    }

    let after = cp.view();
    assert_eq!(before.chains, after.chains);
    assert_eq!(before.instances, after.instances);
    assert_eq!(before.link_committed_kbps, after.link_committed_kbps);
    assert_eq!(before.sdn_rules, after.sdn_rules);
    assert_eq!(before.total_committed_kbps, after.total_committed_kbps);
    cp.inspect(|orch| {
        assert_eq!(orch.chain_count(), 1);
        assert_eq!(orch.manager().cluster_count(), 1);
        assert_eq!(orch.sdn().total_rules(), after.sdn_rules);
    });
}

/// Rate-limited intents are also residue-free and deterministic: the
/// batch-scoped limiter rejects the tail of a burst without touching the
/// accepted head.
#[test]
fn rate_limited_burst_executes_exactly_the_budget() {
    let dc = dc_for(7);
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let half = vms.len() / 2;
    let cp = ControlPlane::builder()
        .batch_size(8)
        .default_quota(TenantQuota {
            max_live_chains: None,
            max_intents_per_batch: Some(1),
            weight: 1,
        })
        .build(dc.clone());
    let groups = [vms[..half].to_vec(), vms[half..].to_vec()];
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            let group = &groups[i % 2];
            cp.submit(
                &format!("t{}", i % 2),
                Intent::DeployChain {
                    vms: group.clone(),
                    spec: fig5::black(group[0], *group.last().unwrap()),
                },
            )
        })
        .collect();
    cp.process_batch();
    // Intent 0 and 1 (one per tenant) pass; 2 and 3 are rate-limited.
    assert!(cp.outcome(tickets[0]).unwrap().is_completed());
    assert!(cp.outcome(tickets[1]).unwrap().is_completed());
    for &t in &tickets[2..] {
        assert!(matches!(
            cp.outcome(t).unwrap(),
            IntentOutcome::Rejected(AdmissionError::RateLimited { .. })
        ));
    }
    assert_eq!(cp.view().chain_count(), 2);
}

/// Concurrent submitters against one control plane: every ticket resolves,
/// snapshots stay internally consistent, and the final state matches a
/// replay of the log.
#[test]
fn threaded_submission_is_safe_and_replayable() {
    let dc = dc_for(11);
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let quarter = vms.len() / 4;
    let cp = Arc::new(control_plane(&dc, 8));

    let mut handles = Vec::new();
    for t in 0..4 {
        let cp = cp.clone();
        let group = vms[t * quarter..(t + 1) * quarter].to_vec();
        handles.push(std::thread::spawn(move || {
            let tenant = format!("t{t}");
            let mut tickets = Vec::new();
            for i in 0..6 {
                // A mix of valid deploys and intents destined for
                // rejection (foreign teardown).
                let intent = if i % 3 == 2 {
                    Intent::TeardownChain {
                        chain: NfcId(usize::MAX - t),
                    }
                } else {
                    Intent::DeployChain {
                        vms: group.clone(),
                        spec: spec_for(i as u8, group[0], *group.last().unwrap()),
                    }
                };
                tickets.push(cp.submit(&tenant, intent));
                // Snapshot reads interleave with the driver's writes.
                let view = cp.view();
                assert_eq!(
                    view.chain_count(),
                    view.chains.len(),
                    "snapshot internally consistent"
                );
            }
            tickets
        }));
    }
    // Drive batches while submitters run.
    let mut processed = 0;
    while processed < 24 {
        processed += cp.process_batch();
        std::thread::yield_now();
    }
    let tickets: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    assert_eq!(tickets.len(), 24);
    for t in tickets {
        assert!(cp.outcome(t).is_some(), "every ticket resolved");
    }
    let live_view = cp.view();
    assert_eq!(live_view.intents_processed, 24);
    cp.inspect(|orch| assert!(orch.manager().verify_disjoint()));

    // The interleaving was nondeterministic, but the recorded log replays
    // to the same state.
    let fresh = control_plane(&dc, 8);
    let replayed = fresh.replay(&cp.intent_log());
    assert_eq!(*live_view, *replayed);
}
