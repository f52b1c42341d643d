//! Cross-crate integration: the whole stack from the platform API down to
//! the storage engines, exercised together.

use std::sync::Arc;
use std::time::Duration;

use tenantdb::cluster::{ClusterConfig, ClusterController};
use tenantdb::platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb::storage::Value;
use tenantdb::tpcw;

const WEST: (f64, f64) = (0.0, 0.0);

#[test]
fn platform_hosts_many_small_applications() {
    // The paper's headline: many small apps, each with SQL + ACID, sharing
    // the platform.
    let platform = SystemController::new(
        PlatformConfig::for_tests(),
        &[("west", WEST), ("east", (100.0, 0.0))],
    );
    let n_apps = 12;
    for i in 0..n_apps {
        platform
            .create_database(&format!("app{i}"), WEST, CreateOptions::default())
            .unwrap();
        let conn = platform.connect(&format!("app{i}"), WEST).unwrap();
        conn.execute(
            "CREATE TABLE t (id INT NOT NULL, owner TEXT, PRIMARY KEY (id))",
            &[],
        )
        .unwrap();
        conn.begin().unwrap();
        for r in 0..20 {
            conn.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(r), Value::Text(format!("app{i}"))],
            )
            .unwrap();
        }
        conn.commit().unwrap();
    }
    // Each app sees exactly its own data (tenant isolation by database).
    for i in 0..n_apps {
        let conn = platform.connect(&format!("app{i}"), WEST).unwrap();
        let r = conn
            .execute("SELECT COUNT(*), MIN(owner) FROM t", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(20));
        assert_eq!(r.rows[0][1], Value::Text(format!("app{i}")));
    }
    // DR shipping moves everything to the secondary colo: at least each
    // app's 20 inserts travel on its own stream.
    assert!(platform.ship_all() >= 20 * n_apps as usize);
    for i in 0..n_apps {
        let db = format!("app{i}");
        assert_eq!(platform.replication_lag(&db), 0);
        let dr = platform.secondary_colo(&db).unwrap();
        let copy = platform.colo(dr).unwrap().cluster_for(&db).unwrap();
        let r = copy
            .connect(&db)
            .unwrap()
            .execute("SELECT COUNT(*), MIN(owner) FROM t", &[])
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(20), Value::Text(db)]);
    }
}

#[test]
fn tpcw_workload_preserves_replica_consistency_and_invariants() {
    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    let workloads =
        tpcw::setup_tpcw_databases(&cluster, 2, 2, tpcw::Scale::with_items(80), 11).unwrap();
    let report = tpcw::run_workload(
        &cluster,
        &workloads,
        &tpcw::WorkloadConfig {
            mix: &tpcw::ORDERING,
            sessions_per_db: 3,
            duration: Duration::from_millis(800),
            seed: 5,
        },
    );
    assert!(report.committed > 20, "{report:?}");

    for w in &workloads {
        // 1. Replicas logically identical. (Physical row ids may differ for
        //    concurrent non-conflicting inserts — the same artifact MySQL
        //    auto-increment shows under statement-based replication — so the
        //    comparison is over sorted row *values*.)
        let replicas = cluster.alive_replicas(&w.db).unwrap();
        assert_eq!(replicas.len(), 2);
        let mut snapshots = Vec::new();
        for id in &replicas {
            let m = cluster.machine(*id).unwrap();
            let t = m.engine.begin().unwrap();
            let snap: Vec<Vec<Vec<Value>>> = tpcw::schema::TABLES
                .iter()
                .map(|tbl| {
                    let mut rows: Vec<Vec<Value>> = m
                        .engine
                        .scan(t, &w.db, tbl)
                        .unwrap()
                        .into_iter()
                        .map(|(_, r)| r)
                        .collect();
                    rows.sort();
                    rows
                })
                .collect();
            m.engine.commit(t).unwrap();
            snapshots.push(snap);
        }
        assert_eq!(snapshots[0], snapshots[1], "replicas of {} diverged", w.db);

        // 2. Relational invariants: every order has lines and a cc entry;
        //    order totals are non-negative.
        let conn = cluster.connect(&w.db).unwrap();
        let orders = conn
            .execute("SELECT COUNT(*) FROM orders", &[])
            .unwrap()
            .rows[0][0]
            .clone();
        let with_lines = conn
            .execute(
                "SELECT COUNT(*) FROM orders o JOIN order_line ol ON ol.ol_o_id = o.o_id",
                &[],
            )
            .unwrap();
        assert!(with_lines.rows[0][0].as_i64().unwrap() >= orders.as_i64().unwrap());
        let bad_totals = conn
            .execute("SELECT COUNT(*) FROM orders WHERE o_total < 0", &[])
            .unwrap();
        assert_eq!(bad_totals.rows[0][0], Value::Int(0));
    }
}

#[test]
fn machine_failure_is_masked_and_recovered_under_load() {
    use tenantdb::cluster::{recover_machine, CopyGranularity, RecoveryConfig};
    use tenantdb::storage::Throttle;

    let cluster = ClusterController::with_machines(ClusterConfig::for_tests(), 4);
    let workloads =
        tpcw::setup_tpcw_databases(&cluster, 3, 2, tpcw::Scale::with_items(60), 3).unwrap();

    // Run workload in the background.
    let cluster2 = Arc::clone(&cluster);
    let wl: Vec<tpcw::DbWorkload> = workloads
        .iter()
        .map(|w| tpcw::DbWorkload {
            db: w.db.clone(),
            ids: Arc::clone(&w.ids),
            scale: w.scale,
        })
        .collect();
    let bg = std::thread::spawn(move || {
        tpcw::run_workload(
            &cluster2,
            &wl,
            &tpcw::WorkloadConfig {
                mix: &tpcw::SHOPPING,
                sessions_per_db: 2,
                duration: Duration::from_millis(1500),
                seed: 77,
            },
        )
    });
    std::thread::sleep(Duration::from_millis(300));

    let victim = cluster
        .machine_ids()
        .into_iter()
        .max_by_key(|&m| cluster.databases_on(m).len())
        .unwrap();
    let lost = cluster.databases_on(victim);
    assert!(!lost.is_empty());
    cluster.fail_machine(victim).unwrap();

    let report = recover_machine(
        &cluster,
        victim,
        RecoveryConfig {
            granularity: CopyGranularity::TableLevel,
            threads: 2,
            throttle: Throttle::new(20_000),
        },
    );
    assert_eq!(
        report.recovered.len(),
        lost.len(),
        "failed: {:?}",
        report.failed
    );

    let bg_report = bg.join().unwrap();
    assert!(bg_report.committed > 0);

    // Every database is back to 2 replicas and they are identical.
    for w in &workloads {
        let replicas = cluster.alive_replicas(&w.db).unwrap();
        assert_eq!(replicas.len(), 2, "{}", w.db);
        let mut sums = Vec::new();
        let mut per = Vec::new();
        for id in replicas {
            let m = cluster.machine(id).unwrap();
            let t = m.engine.begin().unwrap();
            let counts: Vec<(String, usize)> = tpcw::schema::TABLES
                .iter()
                .map(|tbl| (tbl.to_string(), m.engine.scan(t, &w.db, tbl).unwrap().len()))
                .collect();
            m.engine.commit(t).unwrap();
            sums.push(counts.iter().map(|(_, n)| n).sum::<usize>());
            per.push(counts);
        }
        assert_eq!(
            sums[0], sums[1],
            "replica row counts diverged for {}: {:?} vs {:?}",
            w.db, per[0], per[1]
        );
    }
}

#[test]
fn colo_disaster_recovery_end_to_end() {
    let platform = SystemController::new(
        PlatformConfig::for_tests(),
        &[("west", WEST), ("east", (100.0, 0.0))],
    );
    platform
        .create_database("crit", WEST, CreateOptions::default())
        .unwrap();
    let conn = platform.connect("crit", WEST).unwrap();
    conn.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[])
        .unwrap();
    for i in 0..10 {
        conn.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    assert!(platform.replication_lag("crit") > 0);
    platform.ship("crit").unwrap();
    assert_eq!(platform.replication_lag("crit"), 0);
    // Five more rows never ship.
    for i in 10..15 {
        conn.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    let lag = platform.replication_lag("crit");
    assert!(lag >= 5, "five unshipped commits, lag {lag}");

    let west = platform.primary_colo("crit").unwrap();
    platform.colo(west).unwrap().fail();
    assert_eq!(platform.failover("crit").unwrap(), lag);

    // Exactly the shipped prefix survives the disaster.
    let conn = platform.connect("crit", WEST).unwrap();
    let r = conn.execute("SELECT id FROM t ORDER BY id", &[]).unwrap();
    let ids: Vec<Value> = r.rows.into_iter().map(|row| row[0].clone()).collect();
    assert_eq!(ids, (0..10).map(Value::Int).collect::<Vec<_>>());
    // And the promoted colo serves writes again.
    conn.execute("INSERT INTO t VALUES (100)", &[]).unwrap();
}
