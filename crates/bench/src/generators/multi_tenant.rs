//! Multi-tenant traffic on one shared fat-tree fabric.
//!
//! The production analogue of the paper's overlap-between-operations:
//! several concurrent jobs ("tenants") each run their own collective
//! traffic on disjoint rank blocks of one cluster, contending for the
//! shared leaf/spine/core links. For every tenant the driver reports the
//! slowdown of its virtual completion time versus running alone on the
//! same fabric, plus the fabric-level overlap metrics of the shared run
//! (how much of the busy time carried ≥ 2 concurrent transfers).
//!
//! Four tenants × 256 ranks = 1,024 ranks on a 64-host three-level fat
//! tree (4 pods × 4 leaves × 4 hosts, 16 ranks per host) with a 4:1
//! taper (3.125 GB/s links vs 12 GB/s NICs — on a non-oversubscribed
//! fabric the NICs bind first and placement is irrelevant), under both
//! [`GroupPlacement`] policies: `Block` gives each tenant a whole pod —
//! its own traffic concentrates on that pod's tapered leaf links, but
//! tenants can't touch each other, so every slowdown is exactly 1.
//! `RoundRobin` stripes every tenant across all four pods: each tenant
//! alone runs *faster* (its flows spread over all 16 leaves), but the
//! tenants now meet on the shared spine/core layer and slow each other
//! down. The contrast between the two slowdown columns is the point of
//! the artifact.
//!
//! Writes `results/multi_tenant.json` (virtual-time data only;
//! byte-identical across reruns). `--smoke` shrinks iteration counts for
//! CI.

use ovcomm_bench::{metrics_block, write_json, MetricsBlock, Opts, Table};
use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig, SimOutput, VerifyMode};
use ovcomm_simnet::{Fabric, GroupPlacement, MachineProfile, NodeMap};
use serde::Serialize;

const TENANTS: usize = 4;
const RANKS_PER_TENANT: usize = 256;
const PPN: usize = 16;
const PODS: usize = 4;
const HOSTS_PER_POD: usize = 16;

fn fabric() -> Fabric {
    Fabric::FatTree {
        pods: PODS,
        leaves_per_pod: 4,
        hosts_per_leaf: 4,
        spines_per_pod: 2,
        cores_per_spine: 2,
        link_bw: 3.125e9,
    }
}

/// Simulation config for `nranks` ranks placed onto the fat tree with the
/// given pod-grouping policy.
fn cfg(nranks: usize, placement: GroupPlacement) -> SimConfig {
    let map = NodeMap::grouped(nranks, PPN, HOSTS_PER_POD, PODS, placement);
    SimConfig::with_map(map, MachineProfile::stampede2_skylake())
        .with_fabric(fabric())
        .with_verify(VerifyMode::Off)
        .with_fiber_stack(256 << 10)
}

/// One tenant's traffic loop on its own communicator. Each tenant models
/// a different job shape so the shared run mixes heterogeneous traffic.
fn tenant_workload(tenant: usize, comm: &ovcomm_simmpi::Comm, iters: usize) {
    let me = comm.rank();
    let p = comm.size();
    for _ in 0..iters {
        match tenant {
            // Data-parallel job: gradient allreduce.
            0 => {
                let _ = comm.allreduce(Payload::Phantom(256 << 10));
            }
            // Parameter-server job: broadcast out, reduce back.
            1 => {
                let data = (me == 0).then_some(Payload::Phantom(256 << 10));
                let _ = comm.bcast(0, data, 256 << 10);
                let _ = comm.reduce(0, Payload::Phantom(256 << 10));
            }
            // Embedding-style job: allgather of per-rank shards.
            2 => {
                let total = 1 << 20;
                let shard = total / p;
                let _ = comm.allgather(Payload::Phantom(shard), total);
            }
            // Halo-exchange job: nearest-neighbour ring.
            _ => {
                let next = (me + 1) % p;
                let prev = (me + p - 1) % p;
                let _ = comm.sendrecv(next, prev, 9, Payload::Phantom(2 << 20));
            }
        }
    }
}

/// Virtual completion time of one tenant's rank block in a run.
fn tenant_makespan<T>(out: &SimOutput<T>, tenant: usize) -> f64 {
    out.end_times[tenant * RANKS_PER_TENANT..(tenant + 1) * RANKS_PER_TENANT]
        .iter()
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max)
}

#[derive(Serialize)]
struct TenantRecord {
    tenant: usize,
    workload: &'static str,
    ranks: usize,
    isolated_secs: f64,
    shared_secs: f64,
    slowdown: f64,
}

#[derive(Serialize)]
struct PlacementReport {
    placement: &'static str,
    tenants: Vec<TenantRecord>,
    shared_makespan_secs: f64,
    shared_metrics: MetricsBlock,
}

#[derive(Serialize)]
struct MultiTenantReport {
    fabric: &'static str,
    placements: Vec<PlacementReport>,
}

const WORKLOAD_NAMES: [&str; TENANTS] = [
    "allreduce-256K",
    "bcast+reduce-256K",
    "allgather-1M",
    "ring-halo-2M",
];

fn run_placement(placement: GroupPlacement, iters: usize) -> PlacementReport {
    let name = match placement {
        GroupPlacement::Block => "block",
        GroupPlacement::RoundRobin => "round-robin",
    };

    // Shared run: all tenants at once, split off the world communicator.
    let shared = run(
        cfg(TENANTS * RANKS_PER_TENANT, placement),
        move |rc: RankCtx| {
            let w = rc.world();
            let tenant = rc.rank() / RANKS_PER_TENANT;
            let within = rc.rank() % RANKS_PER_TENANT;
            let comm = w
                .split(tenant as i64, within as u64)
                .unwrap_or_else(|| panic!("tenant split"));
            tenant_workload(tenant, &comm, iters);
        },
    )
    .unwrap_or_else(|e| panic!("shared multi-tenant run ({name}): {e}"));

    // Isolated baselines: each tenant alone on the same fabric, with the
    // same placement policy applied to its own ranks (so the slowdown
    // isolates contention, not the placement's own path lengths).
    let mut tenants = Vec::new();
    for (tenant, &workload) in WORKLOAD_NAMES.iter().enumerate() {
        let iso = run(cfg(RANKS_PER_TENANT, placement), move |rc: RankCtx| {
            let w = rc.world();
            tenant_workload(tenant, &w, iters);
        })
        .unwrap_or_else(|e| panic!("isolated run for tenant {tenant} ({name}): {e}"));
        let isolated_secs = iso.makespan.as_secs_f64();
        let shared_secs = tenant_makespan(&shared, tenant);
        tenants.push(TenantRecord {
            tenant,
            workload,
            ranks: RANKS_PER_TENANT,
            isolated_secs,
            shared_secs,
            slowdown: shared_secs / isolated_secs,
        });
    }

    eprintln!("placement: {name}");
    let mut table = Table::new(&["tenant", "workload", "isolated s", "shared s", "slowdown"]);
    for t in &tenants {
        table.row(vec![
            t.tenant.to_string(),
            t.workload.to_string(),
            format!("{:.6}", t.isolated_secs),
            format!("{:.6}", t.shared_secs),
            format!("{:.3}", t.slowdown),
        ]);
    }
    table.print();

    let report = PlacementReport {
        placement: name,
        tenants,
        shared_makespan_secs: shared.makespan.as_secs_f64(),
        shared_metrics: metrics_block(&shared),
    };
    eprintln!(
        "  shared makespan {:.6}s, overlap efficiency {:.3}",
        report.shared_makespan_secs, report.shared_metrics.overlap_efficiency
    );
    report
}

pub fn main(opts: &Opts) {
    let iters = if opts.smoke { 2 } else { 8 };

    let report = MultiTenantReport {
        fabric: "fat-tree 4 pods x 4 leaves x 4 hosts, 16 ranks/host",
        placements: vec![
            run_placement(GroupPlacement::Block, iters),
            run_placement(GroupPlacement::RoundRobin, iters),
        ],
    };
    if !opts.smoke {
        write_json(&opts.out_dir, "multi_tenant", &report);
    }
}
