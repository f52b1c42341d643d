//! The traced run: the same seeded stream replayed through each layer's
//! public entry point, each on a fresh platform built the same way, plus
//! each layer's public counters read around the TCP pass.
//!
//! A layer's self time is the difference between the per-interaction
//! medians at two entry points:
//!
//! | layer   | entry point above        | entry point below        |
//! |---------|--------------------------|--------------------------|
//! | net     | `NetClient`              | `PlatformConnection`     |
//! | core    | `PlatformConnection`     | `cluster::Connection`    |
//! | cluster | `cluster::Connection`    | one replica's `Engine`   |
//! | sql     | `Engine` (parse timed separately)                   |

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tenantdb_cluster::metrics::{
    CTRL_COMMIT_INDEX, POOL_THREADS_SPAWNED, SLA_ADMITTED, SLA_DEFERRED, SLA_REJECTED,
    STMT_READ_LATENCY, STMT_WRITE_LATENCY,
};
use tenantdb_net::{ConnectOptions, NetClient};
use tenantdb_storage::{Engine, EngineConfig, LockMode, ResourceId, TxnId};

use crate::deploy::{Deployment, Workload};
use crate::drive::{run_pass, Level, PassConfig, Span};
use crate::stats::{median, quantile, Metric};

/// Per-layer metrics, in report order, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.self_us", "us"),
    ("net.frames_per_txn", "count"),
    ("net.flushes_per_txn", "count"),
    ("net.frame_p50_us", "us"),
    ("net.connect_us", "us"),
    ("net.connects_per_txn", "count"),
    ("sla.probe_ns", "ns"),
    ("sla.admitted_per_txn", "count"),
    ("sla.deferred_per_txn", "count"),
    ("sla.rejected_per_txn", "count"),
    ("core.self_us", "us"),
    ("core.connect_us", "us"),
    ("core.ship_backlog", "count"),
    ("cluster.self_us", "us"),
    ("cluster.commit_us", "us"),
    ("cluster.stmt_read_p50_us", "us"),
    ("cluster.stmt_write_p50_us", "us"),
    ("cluster.pool_threads_spawned", "count"),
    ("consensus.appends_per_txn", "count"),
    ("sql.parse_us", "us"),
    ("sql.exec_us", "us"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.misses_per_txn", "count"),
    ("storage.lock_acquires_per_txn", "count"),
    ("storage.lock_waits_per_txn", "count"),
    ("storage.deadlocks", "count"),
    ("storage.lock_timeouts", "count"),
    ("storage.wal_records_per_txn", "count"),
    ("host.ping_ns", "ns"),
    ("host.lock_ns", "ns"),
    ("host.steal_frac", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("trace.tps_untraced", "1/s"),
    ("trace.tps_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.tcp_median_us", "us"),
    ("ledger.residual_frac", "ratio"),
];

/// Counter readings around the traced TCP pass.
struct Window {
    pool_threads_base: u64,
    ctrl_index: i64,
    wal_head: u64,
}

fn wal_heads(dep: &Deployment) -> u64 {
    dep.engines().iter().map(|e| e.wal_head_lsn().0).sum()
}

fn ctrl_commit_index(dep: &Deployment) -> i64 {
    dep.primary.sync_ctrl_metrics();
    dep.primary
        .metrics()
        .registry()
        .gauge(CTRL_COMMIT_INDEX, &[])
        .get()
}

impl Window {
    /// Zero every layer's counters and note the levels that only grow.
    fn open(dep: &Deployment) -> Window {
        let registry = dep.primary.metrics().registry();
        let pool_threads_base = registry.counter_sum(POOL_THREADS_SPAWNED, &[]);
        dep.primary.reset_counters();
        dep.server().metrics().reset();
        for e in dep.engines() {
            e.buffer().reset_stats();
            e.locks().reset_stats();
        }
        Window {
            pool_threads_base,
            ctrl_index: ctrl_commit_index(dep),
            wal_head: wal_heads(dep),
        }
    }

    fn close(self, dep: &Deployment, txns: f64, m: &mut BTreeMap<&'static str, f64>) {
        let net = dep.server().metrics();
        m.insert(
            "net.frames_per_txn",
            net.counter_sum("tenantdb_net_frames_total", &[]) as f64 / txns,
        );
        m.insert(
            "net.flushes_per_txn",
            net.counter_value("tenantdb_net_flushes_total", &[]) as f64 / txns,
        );
        m.insert(
            "net.frame_p50_us",
            net.histogram("tenantdb_net_frame_latency_us", &[]).p50(),
        );
        m.insert(
            "net.connects_per_txn",
            net.counter_value("tenantdb_net_connections_total", &[]) as f64 / txns,
        );

        let reg = dep.primary.metrics().registry();
        for (name, series) in [
            ("sla.admitted_per_txn", SLA_ADMITTED),
            ("sla.deferred_per_txn", SLA_DEFERRED),
            ("sla.rejected_per_txn", SLA_REJECTED),
        ] {
            m.insert(name, reg.counter_sum(series, &[]) as f64 / txns);
        }
        m.insert(
            "core.ship_backlog",
            dep.tenants
                .iter()
                .map(|t| dep.system.replication_lag(&t.db))
                .sum::<usize>() as f64,
        );
        m.insert(
            "cluster.stmt_read_p50_us",
            reg.histogram(STMT_READ_LATENCY, &[]).p50(),
        );
        m.insert(
            "cluster.stmt_write_p50_us",
            reg.histogram(STMT_WRITE_LATENCY, &[]).p50(),
        );
        m.insert(
            "cluster.pool_threads_spawned",
            (self.pool_threads_base + reg.counter_sum(POOL_THREADS_SPAWNED, &[])) as f64,
        );
        m.insert(
            "consensus.appends_per_txn",
            (ctrl_commit_index(dep) - self.ctrl_index) as f64 / txns,
        );

        let (mut hits, mut misses) = (0u64, 0u64);
        let (mut acquires, mut waits, mut deadlocks, mut timeouts) = (0u64, 0u64, 0u64, 0u64);
        for e in dep.engines() {
            let b = e.buffer().stats();
            hits += b.hits;
            misses += b.misses;
            let l = e.locks().stats();
            acquires += l.acquisitions;
            waits += l.waits;
            deadlocks += l.deadlocks;
            timeouts += l.timeouts;
        }
        m.insert(
            "storage.buffer_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.insert("storage.misses_per_txn", misses as f64 / txns);
        m.insert("storage.lock_acquires_per_txn", acquires as f64 / txns);
        m.insert("storage.lock_waits_per_txn", waits as f64 / txns);
        m.insert("storage.deadlocks", deadlocks as f64);
        m.insert("storage.lock_timeouts", timeouts as f64);
        m.insert(
            "storage.wal_records_per_txn",
            (wal_heads(dep) - self.wal_head) as f64 / txns,
        );
    }
}

/// Median `NetClient::ping` round trip, ns.
pub fn ping_ns(dep: &Deployment) -> Result<f64, String> {
    let client = NetClient::connect(dep.addr(), &dep.tenants[0].db, ConnectOptions::default())
        .map_err(|e| format!("ping connect: {e}"))?;
    let mut samples = Vec::with_capacity(1000);
    for token in 0..1200u64 {
        let t0 = Instant::now();
        client.ping(token).map_err(|e| format!("ping: {e}"))?;
        if token >= 200 {
            samples.push(t0.elapsed().as_nanos() as f64);
        }
    }
    Ok(median(&samples))
}

/// `LockManager::acquire` plus `release_all` on a private engine, ns per
/// pair (median of 50 batches of 200).
pub fn lock_ns() -> Result<f64, String> {
    let engine = Engine::new(EngineConfig::default());
    let mut batches = Vec::with_capacity(50);
    for b in 0..50u64 {
        let t0 = Instant::now();
        for row in 0..200u64 {
            let txn = TxnId(b * 200 + row + 1);
            engine
                .locks()
                .acquire(txn, ResourceId::Row { table: 1, row }, LockMode::X)
                .map_err(|e| e.to_string())?;
            engine.locks().release_all(txn);
        }
        batches.push(t0.elapsed().as_nanos() as f64 / 200.0);
    }
    Ok(median(&batches))
}

/// `ClusterController::admission_probe` on an armed tenant, ns per call
/// (median of 50 batches of 2000).
fn probe_ns(dep: &Deployment) -> Result<f64, String> {
    let db = &dep.tenants[0].db;
    if dep.primary.sla(db).is_none() {
        return Err(format!("{db} has no SLA armed"));
    }
    let mut batches = Vec::with_capacity(50);
    for _ in 0..50 {
        let t0 = Instant::now();
        for _ in 0..2000 {
            if let Some(e) = std::hint::black_box(dep.primary.admission_probe(db)) {
                return Err(format!("probe shed an armed tenant: {e}"));
            }
        }
        batches.push(t0.elapsed().as_nanos() as f64 / 2000.0);
    }
    Ok(median(&batches))
}

/// Outcome of one set of passes.
#[derive(Default)]
pub struct SetOut {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub errors: Vec<String>,
    /// Spans of the traced passes, by level.
    pub spans: Vec<(Level, Vec<Span>)>,
}

/// `Connection::commit` spans of writing interactions, µs.
fn commit_spans_us(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent != 0 && s.name == "commit" && s.kind.is_write())
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// One set: an untraced TCP pass (closed and paced), then traced closed
/// passes at each entry point, each on a fresh deployment.
pub fn run_set(wl: &Workload, seed: u64) -> Result<SetOut, String> {
    let mut m = BTreeMap::new();
    let mut set = SetOut::default();
    let mut medians = BTreeMap::new();
    for (level, traced) in [
        (Level::Net, false),
        (Level::Net, true),
        (Level::Platform, true),
        (Level::Cluster, true),
        (Level::Engine, true),
    ] {
        let dep = Deployment::build(wl, seed)?;
        let window = (level == Level::Net && traced).then(|| Window::open(&dep));
        let cfg = PassConfig {
            level,
            dep: &dep,
            wl,
            seed,
            closed_txns: wl.closed_txns,
            paced_txns: if traced { 0 } else { wl.paced_txns },
            trace: traced,
        };
        let out = run_pass(&cfg);
        set.attempted += out.attempted;
        set.failed += out.failed;
        set.errors.extend(out.errors.iter().cloned());
        if let Some(w) = window {
            w.close(&dep, out.attempted as f64, &mut m);
        }
        set.problems
            .extend(dep.check(&out.buys, level != Level::Engine));
        match (level, traced) {
            (Level::Net, false) => {
                m.insert("trace.tps_untraced", out.tps());
                m.insert("ledger.tcp_median_us", median(&out.txn_us));
                m.insert("gen.late_p99_ms", quantile(&out.late_ms, 0.99));
                m.insert("host.steal_frac", out.steal);
                m.insert("host.ping_ns", ping_ns(&dep)?);
                m.insert("sla.probe_ns", probe_ns(&dep)?);
            }
            (Level::Net, true) => {
                m.insert("trace.tps_traced", out.tps());
                m.insert("net.connect_us", median(&out.connect_us));
            }
            (Level::Platform, _) => {
                m.insert("core.connect_us", median(&out.connect_us));
            }
            (Level::Cluster, _) => {
                let commits = commit_spans_us(&out.spans);
                m.insert(
                    "cluster.commit_us",
                    if commits.is_empty() {
                        0.0
                    } else {
                        median(&commits)
                    },
                );
            }
            (Level::Engine, _) => {
                m.insert("sql.parse_us", median(&out.parse_us));
            }
        }
        if traced {
            medians.insert(level.name(), median(&out.txn_us));
            set.spans.push((level, out.spans));
        }
        dep.shutdown();
    }
    m.insert("host.lock_ns", lock_ns()?);

    let (net, platform, cluster, engine) = (
        medians["net"],
        medians["platform"],
        medians["cluster"],
        medians["engine"],
    );
    let parse = m["sql.parse_us"];
    m.insert("net.self_us", net - platform);
    m.insert("core.self_us", platform - cluster);
    m.insert("cluster.self_us", cluster - engine);
    m.insert("sql.exec_us", engine - parse);
    m.insert(
        "trace.overhead_frac",
        m["trace.tps_untraced"] / m["trace.tps_traced"] - 1.0,
    );
    let tcp = m["ledger.tcp_median_us"];
    let ledger =
        m["net.self_us"] + m["core.self_us"] + m["cluster.self_us"] + parse + m["sql.exec_us"];
    m.insert("ledger.residual_frac", (tcp - ledger) / tcp);
    set.metrics = m;
    Ok(set)
}

/// Medians across sets, in [`PER_LAYER`] order.
pub fn summarize(sets: &[SetOut]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = sets.iter().map(|s| s.metrics[name]).collect();
            Metric::new(name, median(&values), unit, values.len())
        })
        .collect()
}

/// Write the spans of the last set as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[(Level, Vec<Span>)]) -> Result<(), String> {
    let mut text = String::new();
    for (level, spans) in spans {
        for s in spans {
            let _ = writeln!(
                text,
                "{{\"level\": \"{}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"kind\": \"{:?}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                level.name(),
                s.id,
                s.parent,
                s.name,
                s.kind,
                s.start_ns,
                s.dur_ns
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
