//! Regression tests for per-machine statement ordering under the persistent
//! worker pool.
//!
//! The seed gave every (transaction, machine) pair its own OS thread, which
//! made per-machine FIFO ordering trivial. With sessions multiplexed over a
//! shared pool the same guarantee must come from the session mailbox
//! discipline, under every pool size — including a pool of one thread
//! (maximum multiplexing pressure: every session on a machine shares one
//! executor) — and under both write-acknowledgement policies, where the
//! aggressive mode deliberately leaves background statements still running
//! when the client issues the next one.

use std::sync::Arc;
use std::time::Duration;

use tenantdb_cluster::{
    ClusterConfig, ClusterController, CrashPoint, FaultAction, FaultPlan, PoolConfig, ReadPolicy,
    Trigger, WritePolicy,
};
use tenantdb_storage::{CostModel, EngineConfig, Value};

fn cluster(write: WritePolicy, pool: PoolConfig) -> Arc<ClusterController> {
    let cfg = ClusterConfig {
        read_policy: ReadPolicy::PinnedReplica,
        write_policy: write,
        engine: EngineConfig {
            buffer_pages: 2048,
            cost: CostModel::free(),
            lock_timeout: std::time::Duration::from_millis(500),
        },
        pool,
        seed: 11,
        controllers: 1,
    };
    let c = ClusterController::with_machines(cfg, 2);
    c.create_database("app", 2).unwrap();
    c.ddl(
        "app",
        "CREATE TABLE t (k INT NOT NULL, v TEXT, PRIMARY KEY (k))",
    )
    .unwrap();
    c
}

fn replica_rows(c: &ClusterController, id: tenantdb_cluster::MachineId) -> Vec<Vec<Value>> {
    let m = c.machine(id).unwrap();
    let t = m.engine.begin().unwrap();
    let mut rows: Vec<Vec<Value>> = m
        .engine
        .scan(t, "app", "t")
        .unwrap()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    m.engine.commit(t).unwrap();
    rows.sort_by_key(|row| match row[0] {
        Value::Int(i) => i,
        _ => panic!("non-int key"),
    });
    rows
}

fn assert_replicas_converged(c: &ClusterController) {
    let replicas = c.alive_replicas("app").unwrap();
    let reference = replica_rows(c, replicas[0]);
    for &id in &replicas[1..] {
        assert_eq!(replica_rows(c, id), reference, "replica {id} diverged");
    }
}

/// Dependent updates within one transaction must apply in issue order on
/// every replica, even when the pool has a single thread and the aggressive
/// policy lets the client run ahead of the slower replica.
fn last_write_wins_on_all_replicas(write: WritePolicy, pool: PoolConfig) {
    let c = cluster(write, pool);
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'v0')", &[]).unwrap();
    conn.begin().unwrap();
    for i in 1..=60 {
        conn.execute(
            "UPDATE t SET v = ? WHERE k = 1",
            &[Value::Text(format!("v{i}"))],
        )
        .unwrap();
    }
    conn.commit().unwrap();
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Text("v60".into()));
    assert_replicas_converged(&c);
}

/// Many concurrent transactions on disjoint keys, all multiplexed over the
/// same pool: each transaction's own statement order must hold, and the
/// replicas must converge after all commit.
fn concurrent_lanes_stay_ordered(write: WritePolicy, pool: PoolConfig) {
    let c = cluster(write, pool);
    let setup = c.connect("app").unwrap();
    for k in 0..6i64 {
        setup
            .execute("INSERT INTO t VALUES (?, 'init')", &[Value::Int(k)])
            .unwrap();
    }
    let mut handles = Vec::new();
    for k in 0..6i64 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let conn = c.connect("app").unwrap();
            for round in 0..8 {
                conn.begin().unwrap();
                for step in 0..4 {
                    conn.execute(
                        "UPDATE t SET v = ? WHERE k = ?",
                        &[Value::Text(format!("r{round}s{step}")), Value::Int(k)],
                    )
                    .unwrap();
                }
                conn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every key ends on its writer's final statement.
    let conn = c.connect("app").unwrap();
    for k in 0..6i64 {
        let r = conn
            .execute("SELECT v FROM t WHERE k = ?", &[Value::Int(k)])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("r7s3".into()), "key {k}");
    }
    assert_replicas_converged(&c);
}

macro_rules! ordering_matrix {
    ($($name:ident: $write:expr, $pool:expr;)*) => {$(
        mod $name {
            use super::*;
            #[test]
            fn last_write_wins() {
                last_write_wins_on_all_replicas($write, $pool);
            }
            #[test]
            fn concurrent_lanes() {
                concurrent_lanes_stay_ordered($write, $pool);
            }
        }
    )*};
}

ordering_matrix! {
    conservative_pool1: WritePolicy::Conservative, PoolConfig::fixed(1);
    conservative_pool4: WritePolicy::Conservative, PoolConfig::fixed(4);
    aggressive_pool1: WritePolicy::Aggressive, PoolConfig::fixed(1);
    aggressive_pool4: WritePolicy::Aggressive, PoolConfig::fixed(4);
}

/// A transaction's statements interleaved with its own 2PC must stay ordered:
/// under aggressive acks the PREPARE queues behind the still-running
/// background write in the same session lane, so a commit can never overtake
/// a write it depends on.
#[test]
fn aggressive_prepare_queues_behind_background_writes() {
    let c = cluster(WritePolicy::Aggressive, PoolConfig::fixed(1));
    let conn = c.connect("app").unwrap();
    for i in 0..30i64 {
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (?, 'w')", &[Value::Int(i)])
            .unwrap();
        conn.commit().unwrap();
    }
    // Every committed row is on every replica (the lagging replica's write
    // ran before its PREPARE acknowledged).
    let replicas = c.alive_replicas("app").unwrap();
    for &id in &replicas {
        assert_eq!(
            replica_rows(&c, id).len(),
            30,
            "replica {id} missing committed writes"
        );
    }
}

/// A read on the pinned replica right after an aggressive early-acked write
/// must not overtake that write: while the write is still queued on the
/// pinned replica's lane, the read cannot claim the lane inline, so it goes
/// to the pool behind the write and sees it.
#[test]
fn aggressive_read_waits_behind_write_still_on_pinned_lane() {
    let c = cluster(WritePolicy::Aggressive, PoolConfig::fixed(2));
    let pinned = c.placement("app").unwrap().pinned;
    // Hold the pinned replica's write in the pool before its lane starts
    // draining, so the other replica acks first and the client moves on
    // while the write is still queued.
    c.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::PoolJob,
        machine: Some(pinned),
        after_hits: 0,
        action: FaultAction::Delay(Duration::from_millis(150)),
    }]));
    let conn = c.connect("app").unwrap();
    conn.begin().unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'w')", &[]).unwrap();
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Text("w".into())]]);
    conn.commit().unwrap();
    assert_eq!(c.faults().fired().len(), 1, "the write delay fired");
    assert_replicas_converged(&c);
}

/// An autocommit SELECT and a read-only BEGIN…SELECT…COMMIT on idle lanes
/// run on the calling thread: no pool job runs for either.
#[test]
fn reads_on_idle_lanes_submit_no_pool_job() {
    let c = cluster(WritePolicy::Conservative, PoolConfig::fixed(1));
    let conn = c.connect("app").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
    // Any pool job on any machine from here on fires this trigger.
    c.faults().arm(FaultPlan::new(vec![Trigger {
        point: CrashPoint::PoolJob,
        machine: None,
        after_hits: 0,
        action: FaultAction::Delay(Duration::from_millis(1)),
    }]));
    let r = conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Text("a".into())]]);
    conn.begin().unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    conn.execute("SELECT v FROM t WHERE k = 1", &[]).unwrap();
    conn.commit().unwrap();
    assert!(
        c.faults().fired().is_empty(),
        "a read ran as a pool job: {:?}",
        c.faults().fired()
    );
    // Teeth: a write does go through the pool and fires the trigger.
    conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
    assert_eq!(c.faults().fired().len(), 1);
}
