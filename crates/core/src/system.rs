//! The system controller and the platform-level client API (§2).
//!
//! The system controller routes `connect()` calls to the geographically
//! nearest live colo hosting the database, and keeps each database's
//! asynchronous cross-colo copy for disaster recovery: the primary
//! cluster's WAL is shipped through one [`GeoLink`] per database to the
//! DR copy in another colo whenever the operator pumps [`SystemController::ship`].
//! Within a colo the guarantees are strong (synchronous replication + 2PC);
//! across colos they are deliberately weaker — a colo failover loses the
//! records the DR copy has not acked, which the paper accepts for low
//! latency. The unshipped backlog is the WAL the engines already keep, so
//! client writes carry no capture cost.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tenantdb_cluster::{ClusterConfig, ClusterController, ClusterError, Connection};
use tenantdb_sla::{ResourceVector, Sla};

use crate::colo::{Colo, ColoId};
use crate::georep::{promote, Applier, GeoLink, GeoMetrics, Shipper};

/// Platform construction parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub cluster: ClusterConfig,
    pub clusters_per_colo: usize,
    pub machines_per_cluster: usize,
    pub machine_capacity: ResourceVector,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster: ClusterConfig::default(),
            clusters_per_colo: 2,
            machines_per_cluster: 4,
            machine_capacity: ResourceVector::new(1000.0, 100_000.0, 1000.0, 100_000.0),
        }
    }
}

impl PlatformConfig {
    pub fn for_tests() -> Self {
        PlatformConfig {
            cluster: ClusterConfig::for_tests(),
            ..Default::default()
        }
    }
}

/// Options for `create_database`.
#[derive(Debug, Clone)]
pub struct CreateOptions {
    /// Synchronous replicas within the primary colo's cluster.
    pub replicas: usize,
    /// The SLA contract (stored; placement uses `demand`).
    pub sla: Sla,
    /// Observed/estimated resource demand, enabling SLA-driven placement.
    pub demand: Option<ResourceVector>,
    /// Create an asynchronous disaster-recovery replica in a second colo.
    pub cross_colo: bool,
}

impl Default for CreateOptions {
    fn default() -> Self {
        CreateOptions {
            replicas: 2,
            sla: Sla::default(),
            demand: None,
            cross_colo: true,
        }
    }
}

struct DbEntry {
    primary: ColoId,
    sla: Sla,
    /// The DR copy's colo and the stream from the primary cluster to it.
    dr: Option<(ColoId, Mutex<GeoLink>)>,
}

/// The system controller: the top of the §2 hierarchy.
pub struct SystemController {
    colos: Vec<Arc<Colo>>,
    directory: RwLock<HashMap<String, Arc<DbEntry>>>,
    /// Additional metric registries included in [`Self::render_metrics`]:
    /// serving frontends (tenantdb-net servers) register theirs here so one
    /// scrape covers the platform and its network tier.
    extra_metrics: RwLock<Vec<(String, Arc<tenantdb_obs::MetricsRegistry>)>>,
}

impl SystemController {
    /// Build a platform with colos at the given named locations.
    pub fn new(cfg: PlatformConfig, colos: &[(&str, (f64, f64))]) -> Arc<Self> {
        let colos = colos
            .iter()
            .enumerate()
            .map(|(i, (name, loc))| {
                Arc::new(Colo::new(
                    ColoId(i as u32),
                    *name,
                    *loc,
                    cfg.cluster,
                    cfg.clusters_per_colo,
                    cfg.machines_per_cluster,
                    cfg.machine_capacity,
                ))
            })
            .collect();
        Arc::new(SystemController {
            colos,
            directory: RwLock::new(HashMap::new()),
            extra_metrics: RwLock::new(Vec::new()),
        })
    }

    pub fn colo(&self, id: ColoId) -> Option<&Arc<Colo>> {
        self.colos.iter().find(|c| c.id == id)
    }

    pub fn colos(&self) -> &[Arc<Colo>] {
        &self.colos
    }

    fn nearest_colo(&self, from: (f64, f64), exclude: Option<ColoId>) -> Option<&Arc<Colo>> {
        self.colos
            .iter()
            .filter(|c| !c.is_failed() && Some(c.id) != exclude)
            .min_by(|a, b| dist(a.location, from).total_cmp(&dist(b.location, from)))
    }

    /// Create a database with an SLA (§2 API point 1). The primary colo is
    /// the nearest to `owner_location`; the DR secondary (if requested) is
    /// the nearest *other* colo.
    pub fn create_database(
        &self,
        name: &str,
        owner_location: (f64, f64),
        opts: CreateOptions,
    ) -> Result<ColoId, ClusterError> {
        if self.directory.read().contains_key(name) {
            return Err(ClusterError::AlreadyExists(name.to_string()));
        }
        let primary = self
            .nearest_colo(owner_location, None)
            .ok_or(ClusterError::NoMachines)?;
        let cluster = primary.create_database(name, opts.replicas, opts.demand)?;
        let dr = match self.nearest_colo(owner_location, Some(primary.id)) {
            Some(colo) if opts.cross_colo => {
                // The DR copy is a single asynchronous replica.
                let copy = colo.create_database(name, 1, opts.demand)?;
                Some((colo.id, Mutex::new(Self::dr_link(name, cluster, copy)?)))
            }
            _ => None,
        };
        self.directory.write().insert(
            name.to_string(),
            Arc::new(DbEntry {
                primary: primary.id,
                sla: opts.sla,
                dr,
            }),
        );
        Ok(primary.id)
    }

    /// `db`'s DR stream: a [`Shipper`] pinned on the primary cluster,
    /// streaming to an [`Applier`] on the DR copy's cluster, with metrics
    /// on the primary's registry.
    fn dr_link(
        db: &str,
        primary: Arc<ClusterController>,
        dr: Arc<ClusterController>,
    ) -> Result<GeoLink, ClusterError> {
        let metrics = GeoMetrics::new(Arc::clone(primary.metrics().registry()));
        let shipper = Shipper::new(primary, db, metrics.clone())?;
        let applier = Arc::new(Mutex::new(Applier::new(dr, db, 1, metrics.clone())));
        Ok(GeoLink::new(shipper, applier, metrics))
    }

    pub fn sla(&self, db: &str) -> Option<Sla> {
        self.directory.read().get(db).map(|e| e.sla)
    }

    pub fn primary_colo(&self, db: &str) -> Option<ColoId> {
        self.directory.read().get(db).map(|e| e.primary)
    }

    pub fn secondary_colo(&self, db: &str) -> Option<ColoId> {
        self.directory
            .read()
            .get(db)?
            .dr
            .as_ref()
            .map(|(id, _)| *id)
    }

    fn entry(&self, db: &str) -> Result<Arc<DbEntry>, ClusterError> {
        self.directory
            .read()
            .get(db)
            .cloned()
            .ok_or_else(|| ClusterError::NoSuchDatabase(db.to_string()))
    }

    /// The cluster hosting `db` in colo `id`, if that colo is up.
    fn live_cluster(&self, id: ColoId, db: &str) -> Option<Arc<ClusterController>> {
        self.colo(id).filter(|c| !c.is_failed())?.cluster_for(db)
    }

    /// Connect to a database (§2 API point 2). Routed to the primary colo's
    /// hosting cluster; `client_location` is used only to pick among
    /// replicas of equal standing (here: validation + future use).
    pub fn connect(
        &self,
        db: &str,
        _client_location: (f64, f64),
    ) -> Result<PlatformConnection, ClusterError> {
        let entry = self.entry(db)?;
        let cluster = self
            .live_cluster(entry.primary, db)
            .ok_or(ClusterError::NoMachines)?;
        cluster.connect(db)
    }

    /// Ship `db`'s WAL to its DR copy until the stream is drained. Returns
    /// the number of `db`'s WAL records delivered. This is the asynchronous
    /// replication pump; call it periodically (or via
    /// [`SystemController::ship_all`]). Ships nothing while either colo is
    /// down.
    pub fn ship(&self, db: &str) -> Result<usize, ClusterError> {
        let entry = self.entry(db)?;
        let Some((secondary, link)) = &entry.dr else {
            return Ok(0);
        };
        if self.live_cluster(entry.primary, db).is_none()
            || self.live_cluster(*secondary, db).is_none()
        {
            return Ok(0);
        }
        let shipped = link.lock().sync()?;
        Ok(shipped as usize)
    }

    /// Ship every database's WAL; returns the records delivered.
    pub fn ship_all(&self) -> usize {
        let dbs: Vec<String> = self.directory.read().keys().cloned().collect();
        dbs.iter().map(|db| self.ship(db).unwrap_or(0)).sum()
    }

    /// Source WAL records the DR copy has not acked (what a disaster would
    /// lose right now, as an upper bound: the primary engine's WAL also
    /// holds its other databases' records). 0 right after a
    /// [`SystemController::ship`], and for databases without a DR copy.
    pub fn replication_lag(&self, db: &str) -> usize {
        let Ok(entry) = self.entry(db) else {
            return 0;
        };
        entry
            .dr
            .as_ref()
            .map_or(0, |(_, link)| link.lock().lag() as usize)
    }

    /// Disaster failover: promote the DR copy of `db` to primary, then flip
    /// the directory to it. On a live old primary cluster `db` is fenced
    /// first (every write to it there then fails with
    /// [`ClusterError::Fenced`]; reads, and the cluster's other databases,
    /// stay up); a failed one fences itself on its next stream exchange.
    /// Records the DR copy never acked are lost; returns their count (the
    /// replication lag at failover) — the §2 trade-off of asynchronous
    /// cross-colo replication. A failed promotion leaves the stream in
    /// place, so the call can be retried.
    pub fn failover(&self, db: &str) -> Result<usize, ClusterError> {
        let entry = self.entry(db)?;
        let (secondary, link) = entry.dr.as_ref().ok_or(ClusterError::NoMachines)?;
        let standby = self
            .live_cluster(*secondary, db)
            .ok_or(ClusterError::NoMachines)?;
        let (lost, applier) = {
            let link = link.lock();
            (
                link.shipper().lag(link.acked())?,
                Arc::clone(link.standby()),
            )
        };
        let old_primary = self.live_cluster(entry.primary, db);
        let metrics = GeoMetrics::new(Arc::clone(standby.metrics().registry()));
        promote(db, &standby, old_primary.as_ref(), &[applier], &metrics)?;
        let new_entry = Arc::new(DbEntry {
            primary: *secondary,
            sla: entry.sla,
            dr: None,
        });
        self.directory.write().insert(db.to_string(), new_entry);
        Ok(lost as usize)
    }

    /// Platform-wide metrics scrape: every cluster's text exposition,
    /// grouped under a comment header naming its colo and cluster index.
    /// Each cluster keeps its own registry, so series from different
    /// clusters never collide even when label sets match.
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for colo in &self.colos {
            for (i, cluster) in colo.clusters().iter().enumerate() {
                let _ = writeln!(out, "# ==== {} ({}) cluster {}", colo.name, colo.id, i);
                // Refresh the tenantdb_ctrl_* gauges (and drain pending
                // ctrl_elected events) — they are views of the consensus
                // group, not ledgers, so a scrape is the natural sync point.
                cluster.sync_ctrl_metrics();
                out.push_str(&cluster.metrics().registry().render_text());
            }
        }
        for (label, reg) in self.extra_metrics.read().iter() {
            let _ = writeln!(out, "# ==== net ({label})");
            out.push_str(&reg.render_text());
        }
        out
    }

    /// Include an external metric registry in [`Self::render_metrics`]
    /// scrapes under a `# ==== net (<label>)` header. Used by serving
    /// frontends (tenantdb-net) so wire metrics appear alongside the
    /// clusters they front.
    pub fn register_metrics_source(
        &self,
        label: impl Into<String>,
        registry: Arc<tenantdb_obs::MetricsRegistry>,
    ) {
        self.extra_metrics.write().push((label.into(), registry));
    }

    /// Live §4.1 compliance verdict for `db` over `window`, checked against
    /// its stored SLA using the primary colo's live outcome counters.
    /// `None` when the database is unknown or its primary colo is down.
    pub fn sla_compliance(
        &self,
        db: &str,
        window: std::time::Duration,
    ) -> Option<tenantdb_sla::Compliance> {
        let entry = self.directory.read().get(db).cloned()?;
        let colo = self.colo(entry.primary).filter(|c| !c.is_failed())?;
        let cluster = colo.cluster_for(db)?;
        Some(cluster.sla_compliance(db, &entry.sla, window))
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    (dx * dx + dy * dy).sqrt()
}

/// A platform-level connection: a cluster connection at the primary colo.
/// Writes reach the DR colo through the WAL, so the platform adds nothing
/// to the statement path.
pub type PlatformConnection = Connection;

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::Value;

    const WEST: (f64, f64) = (0.0, 0.0);
    const EAST: (f64, f64) = (100.0, 0.0);

    fn platform() -> Arc<SystemController> {
        SystemController::new(
            PlatformConfig::for_tests(),
            &[("west", WEST), ("east", EAST)],
        )
    }

    #[test]
    fn primary_is_nearest_colo() {
        let p = platform();
        p.create_database("app", (10.0, 0.0), CreateOptions::default())
            .unwrap();
        assert_eq!(p.primary_colo("app"), Some(ColoId(0)));
        assert_eq!(p.secondary_colo("app"), Some(ColoId(1)));
        p.create_database("app2", (90.0, 0.0), CreateOptions::default())
            .unwrap();
        assert_eq!(p.primary_colo("app2"), Some(ColoId(1)));
    }

    #[test]
    fn end_to_end_sql_through_platform() {
        let p = platform();
        let conn = with_table(&p, "notes");
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'hello')", &[])
            .unwrap();
        conn.commit().unwrap();
        let r = conn.execute("SELECT v FROM t WHERE id = 1", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::from("hello"));
    }

    /// Ids in `db`'s table `t` on the cluster hosting it in colo `id`
    /// (the DR copy before a failover).
    fn ids_in(p: &SystemController, id: ColoId, db: &str) -> Vec<i64> {
        let cluster = p.colo(id).unwrap().cluster_for(db).unwrap();
        let r = cluster
            .connect(db)
            .unwrap()
            .execute("SELECT id FROM t ORDER BY id", &[])
            .unwrap();
        r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect()
    }

    fn with_table(p: &SystemController, db: &str) -> PlatformConnection {
        p.create_database(db, WEST, CreateOptions::default())
            .unwrap();
        let conn = p.connect(db, WEST).unwrap();
        conn.execute(
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
            &[],
        )
        .unwrap();
        conn
    }

    #[test]
    fn async_replication_ships_committed_writes() {
        let p = platform();
        let conn = with_table(&p, "app");
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        conn.commit().unwrap();
        assert!(p.replication_lag("app") > 0);
        assert!(p.ship("app").unwrap() > 0);
        assert_eq!(p.replication_lag("app"), 0);
        // The secondary colo now has the rows.
        assert_eq!(ids_in(&p, ColoId(1), "app"), vec![1, 2]);
    }

    #[test]
    fn rolled_back_writes_are_not_shipped() {
        let p = platform();
        let conn = with_table(&p, "app");
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        conn.rollback().unwrap();
        p.ship("app").unwrap();
        assert_eq!(p.replication_lag("app"), 0);
        assert_eq!(
            ids_in(&p, ColoId(1), "app"),
            vec![1],
            "aborted txn must not ship"
        );
    }

    #[test]
    fn colo_failover_loses_only_unshipped_tail() {
        let p = platform();
        let conn = with_table(&p, "app");
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        p.ship("app").unwrap();
        // One more committed txn that never ships.
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        assert!(p.replication_lag("app") > 0);
        // Disaster strikes the west colo.
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p.failover("app").unwrap() > 0, "the unshipped tail is lost");
        assert_eq!(p.primary_colo("app"), Some(ColoId(1)));
        // Clients reconnect and see exactly the shipped prefix.
        let conn2 = p.connect("app", WEST).unwrap();
        let r = conn2.execute("SELECT id FROM t", &[]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        conn2.execute("INSERT INTO t VALUES (3, 'c')", &[]).unwrap();
    }

    #[test]
    fn failover_before_any_ship_reports_the_whole_backlog_lost() {
        let p = platform();
        let conn = with_table(&p, "app");
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p.replication_lag("app") > 0);
        assert!(p.failover("app").unwrap() > 0, "nothing ever shipped");
    }

    #[test]
    fn connect_to_failed_primary_errors_until_failover() {
        let p = platform();
        p.create_database("app", WEST, CreateOptions::default())
            .unwrap();
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p.connect("app", WEST).is_err());
        p.failover("app").unwrap();
        assert!(p.connect("app", WEST).is_ok());
    }

    /// One 2-machine cluster per colo: every tenant's replicas share the
    /// primary engines (and its DR copy the one DR cluster).
    fn shared_platform() -> Arc<SystemController> {
        let cfg = PlatformConfig {
            clusters_per_colo: 1,
            machines_per_cluster: 2,
            ..PlatformConfig::for_tests()
        };
        SystemController::new(cfg, &[("west", WEST), ("east", EAST)])
    }

    #[test]
    fn tenants_sharing_a_primary_engine_ship_only_their_own_rows() {
        // Each stream filters the other tenant's records.
        let p = shared_platform();
        let a = with_table(&p, "a");
        let b = with_table(&p, "b");
        a.execute("CREATE INDEX t_v ON t (v)", &[]).unwrap();
        for i in 0..5 {
            a.execute("INSERT INTO t VALUES (?, 'a')", &[Value::Int(i)])
                .unwrap();
            b.execute("INSERT INTO t VALUES (?, 'b')", &[Value::Int(100 + i)])
                .unwrap();
        }
        p.ship("a").unwrap();
        p.ship("b").unwrap();
        assert_eq!(p.replication_lag("a"), 0);
        assert_eq!(p.replication_lag("b"), 0);
        assert_eq!(ids_in(&p, ColoId(1), "a"), vec![0, 1, 2, 3, 4]);
        assert_eq!(ids_in(&p, ColoId(1), "b"), vec![100, 101, 102, 103, 104]);

        // The index reached a's DR copy, and only a's.
        let dr = p.colo(ColoId(1)).unwrap().cluster_for("a").unwrap();
        let engine = &dr
            .machine(dr.alive_replicas("a").unwrap()[0])
            .unwrap()
            .engine;
        let txn = engine.begin().unwrap();
        let hits = engine.index_lookup(txn, "a", "t", "t_v", &[Value::from("a")], false);
        assert_eq!(hits.unwrap().len(), 5);
        assert!(engine
            .index_lookup(txn, "b", "t", "t_v", &[Value::from("b")], false)
            .is_err());
        engine.commit(txn).unwrap();
    }

    #[test]
    fn failover_with_primary_colo_up_fences_the_old_primary() {
        let p = shared_platform();
        let conn = with_table(&p, "app");
        let b = with_table(&p, "b");
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        p.ship("app").unwrap();
        let old = p.colo(ColoId(0)).unwrap().cluster_for("app").unwrap();
        assert!(Arc::ptr_eq(
            &old,
            &p.colo(ColoId(0)).unwrap().cluster_for("b").unwrap()
        ));
        assert_eq!(p.failover("app").unwrap(), 0, "nothing unshipped");
        assert!(old.is_geo_fenced("app"));

        // The old primary refuses writes but still serves reads.
        let stale = old.connect("app").unwrap();
        assert!(matches!(
            stale.execute("INSERT INTO t VALUES (2, 'b')", &[]),
            Err(ClusterError::Fenced { .. })
        ));
        assert_eq!(ids_in(&p, ColoId(0), "app"), vec![1]);

        // The promoted copy takes the writes.
        let conn = p.connect("app", WEST).unwrap();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        assert_eq!(ids_in(&p, ColoId(1), "app"), vec![1, 2]);

        // The fence is app's alone: b, on the same clusters, still writes
        // on the old primary and ships to the promoted cluster.
        assert!(!old.is_geo_fenced("b"));
        b.execute("INSERT INTO t VALUES (7, 'b')", &[]).unwrap();
        b.execute("CREATE INDEX t_v ON t (v)", &[]).unwrap();
        assert!(p.replication_lag("b") > 0);
        assert!(p.ship("b").unwrap() > 0);
        assert_eq!(p.replication_lag("b"), 0);
        assert_eq!(ids_in(&p, ColoId(1), "b"), vec![7]);
    }

    #[test]
    fn platform_metrics_and_compliance_come_from_live_clusters() {
        let p = platform();
        let sla = Sla::new(0.01, 0.01, std::time::Duration::from_secs(60));
        p.create_database(
            "app",
            WEST,
            CreateOptions {
                sla,
                ..Default::default()
            },
        )
        .unwrap();
        let conn = p.connect("app", WEST).unwrap();
        conn.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", &[])
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1)", &[]).unwrap();

        // The scrape covers every cluster in every colo, and the primary's
        // committed counter reflects the work just done.
        let text = p.render_metrics();
        assert!(text.contains("# ==== west (colo0) cluster 0"), "{text}");
        assert!(text.contains("# ==== east (colo1) cluster 0"));
        assert!(
            text.contains("tenantdb_txn_outcomes_total{db=\"app\",outcome=\"committed\"}"),
            "{text}"
        );

        // Compliance reads the same counters: ≥1 commit in 60s ≥ 0.01 TPS.
        let c = p.sla_compliance("app", std::time::Duration::from_secs(60));
        assert!(c.expect("known db").ok());
        assert!(p
            .sla_compliance("nope", std::time::Duration::from_secs(60))
            .is_none());

        // After the primary colo fails there is no live registry to judge.
        p.colo(ColoId(0)).unwrap().fail();
        assert!(p
            .sla_compliance("app", std::time::Duration::from_secs(60))
            .is_none());
    }

    #[test]
    fn sla_is_stored() {
        let p = platform();
        let sla = Sla::new(5.0, 0.001, std::time::Duration::from_secs(60));
        p.create_database(
            "app",
            WEST,
            CreateOptions {
                sla,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(p.sla("app"), Some(sla));
        assert_eq!(p.sla("nope"), None);
    }
}
