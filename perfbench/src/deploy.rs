//! The three workloads and the deployment every run builds.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenantdb_cluster::{ClusterConfig, ClusterController};
use tenantdb_net::{Server, ServerConfig};
use tenantdb_platform::{CreateOptions, PlatformConfig, SystemController};
use tenantdb_sla::Sla;
use tenantdb_storage::{CostModel, Engine, EngineConfig};
use tenantdb_tpcw::schema::TABLES;
use tenantdb_tpcw::{setup_database, IdCounters, Mix, Scale, BROWSING, ORDERING};

/// Client threads, and open TCP connections at any moment.
pub const CLIENTS: usize = 2;

/// One named workload. Each phase runs a fixed number of interactions, so
/// two commits do the same work even though inserts grow the tables.
pub struct Workload {
    pub name: &'static str,
    pub mix: &'static Mix,
    pub tenants: usize,
    /// TPC-W items per tenant (the other tables scale from it).
    pub items: usize,
    /// Buffer-pool capacity of every machine, in pages.
    pub buffer_pages: usize,
    /// Interactions per visit. `None`: one persistent connection per
    /// tenant, opened before the measured phases.
    pub visit_len: Option<usize>,
    /// Interactions in the closed-loop phase, over both clients.
    pub closed_txns: usize,
    /// Interactions in the paced (open-loop) phase, over both clients.
    pub paced_txns: usize,
    /// Offered rate of the paced phase, interactions per second. A
    /// constant, never derived at run time.
    pub paced_rate: f64,
    /// Zipf skew of tenant popularity across visits.
    pub zipf_skew: f64,
}

pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "browse-fit" => Some(Workload {
            name: "browse-fit",
            mix: &BROWSING,
            tenants: 2,
            items: 1000,
            buffer_pages: 4096,
            visit_len: None,
            closed_txns: 4000,
            paced_txns: 300,
            paced_rate: 400.0,
            zipf_skew: 0.0,
        }),
        "order-2pc" => Some(Workload {
            name: "order-2pc",
            mix: &ORDERING,
            tenants: 2,
            items: 1000,
            buffer_pages: 4096,
            visit_len: None,
            closed_txns: 2000,
            paced_txns: 300,
            paced_rate: 300.0,
            zipf_skew: 0.0,
        }),
        "tenants-cold" => Some(Workload {
            name: "tenants-cold",
            mix: &BROWSING,
            tenants: 300,
            items: 10,
            buffer_pages: 128,
            visit_len: Some(4),
            closed_txns: 1500,
            paced_txns: 200,
            paced_rate: 200.0,
            zipf_skew: 1.1,
        }),
        _ => None,
    }
}

pub const WORKLOAD_NAMES: [&str; 3] = ["browse-fit", "order-2pc", "tenants-cold"];

pub struct Tenant {
    pub db: String,
    pub ids: Arc<IdCounters>,
    pub scale: Scale,
}

/// A running platform: two colos (primary and DR) of one 4-machine
/// cluster each, every tenant loaded, SLAs armed, served on loopback.
pub struct Deployment {
    pub system: Arc<SystemController>,
    /// The primary colo's cluster; it hosts every tenant's primary copy.
    pub primary: Arc<ClusterController>,
    pub tenants: Vec<Tenant>,
    server: Option<Server>,
    /// Wall time to build, load, arm and start serving.
    pub setup: Duration,
}

/// An SLA no benchmark load reaches: every transaction passes the
/// admission gate and none is shed.
fn generous_sla() -> Sla {
    Sla::new(1_000_000.0, 0.9, Duration::from_secs(60))
}

impl Deployment {
    pub fn build(wl: &Workload, seed: u64) -> Result<Deployment, String> {
        let started = Instant::now();
        let cfg = PlatformConfig {
            cluster: ClusterConfig {
                engine: EngineConfig {
                    buffer_pages: wl.buffer_pages,
                    cost: CostModel::free(),
                    ..EngineConfig::default()
                },
                ..ClusterConfig::default()
            },
            clusters_per_colo: 1,
            machines_per_cluster: 4,
            ..PlatformConfig::default()
        };
        let system = SystemController::new(cfg, &[("primary", (0.0, 0.0)), ("dr", (100.0, 0.0))]);
        let mut tenants = Vec::with_capacity(wl.tenants);
        let mut primary: Option<Arc<ClusterController>> = None;
        for i in 0..wl.tenants {
            let db = format!("t{i:03}");
            let colo = system
                .create_database(&db, (0.0, 0.0), CreateOptions::default())
                .map_err(|e| format!("create {db}: {e}"))?;
            let cluster = system
                .colo(colo)
                .and_then(|c| c.cluster_for(&db))
                .ok_or_else(|| format!("{db} has no primary cluster"))?;
            let scale = Scale::with_items(wl.items);
            let ids = setup_database(&cluster, &db, scale, seed.wrapping_add(i as u64))
                .map_err(|e| format!("load {db}: {e}"))?;
            if let Some(p) = &primary {
                if !Arc::ptr_eq(p, &cluster) {
                    return Err(format!("{db} landed on a second primary cluster"));
                }
            }
            primary = Some(cluster);
            tenants.push(Tenant {
                db,
                ids: IdCounters::from_space(ids),
                scale,
            });
        }
        let primary = primary.ok_or("workload has no tenants")?;
        for colo in system.colos() {
            for cluster in colo.clusters() {
                for m in cluster.machines() {
                    m.engine.set_page_costs(CostModel::default_model());
                }
                for t in &tenants {
                    if cluster.placement(&t.db).is_ok() {
                        cluster
                            .set_sla(&t.db, generous_sla())
                            .map_err(|e| format!("arm sla on {}: {e}", t.db))?;
                    }
                }
            }
        }
        let server = Server::start("127.0.0.1:0", Arc::clone(&system), ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        Ok(Deployment {
            system,
            primary,
            tenants,
            server: Some(server),
            setup: started.elapsed(),
        })
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until shutdown")
    }

    pub fn addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    /// Engines of the primary cluster's machines.
    pub fn engines(&self) -> Vec<Arc<Engine>> {
        self.primary
            .machines()
            .into_iter()
            .map(|m| Arc::clone(&m.engine))
            .collect()
    }

    /// Engine of the first replica of tenant `t`.
    pub fn first_replica(&self, t: usize) -> Result<Arc<Engine>, String> {
        let db = &self.tenants[t].db;
        let placement = self.primary.placement(db).map_err(|e| e.to_string())?;
        let m = self
            .primary
            .machine(placement.replicas[0])
            .map_err(|e| e.to_string())?;
        Ok(Arc::clone(&m.engine))
    }

    /// Output checks after a pass. `buys[t]` is the number of committed
    /// BuyConfirm interactions that placed an order on tenant `t`. With
    /// `all_replicas`, every replica of every tenant must hold the same row
    /// count per table, and `orders` must have grown by exactly `buys[t]`;
    /// otherwise only the first replica's `orders` is checked (a pass that
    /// drove one replica's engine directly). Returns one line per mismatch.
    pub fn check(&self, buys: &[u64], all_replicas: bool) -> Vec<String> {
        let mut problems = Vec::new();
        for m in self.primary.machines() {
            m.engine.set_page_costs(CostModel::free());
        }
        for (t, tenant) in self.tenants.iter().enumerate() {
            let machines = match self.primary.placement(&tenant.db) {
                Ok(p) if all_replicas => p.replicas,
                Ok(p) => p.replicas[..1].to_vec(),
                Err(e) => {
                    problems.push(format!("{}: {e}", tenant.db));
                    continue;
                }
            };
            let mut first: Option<Vec<usize>> = None;
            for id in machines {
                let counts = match self.row_counts(id, &tenant.db) {
                    Ok(c) => c,
                    Err(e) => {
                        problems.push(format!("{} on {id}: {e}", tenant.db));
                        continue;
                    }
                };
                let orders = counts[TABLES.iter().position(|&n| n == "orders").expect("orders")];
                let want = tenant.scale.initial_orders + buys[t] as usize;
                if orders != want {
                    problems.push(format!(
                        "{} on {id}: orders holds {orders} rows, expected {want}",
                        tenant.db
                    ));
                }
                match &first {
                    None => first = Some(counts),
                    Some(f) if *f != counts => problems.push(format!(
                        "{} on {id}: row counts {counts:?} differ from {f:?}",
                        tenant.db
                    )),
                    Some(_) => {}
                }
            }
        }
        for m in self.primary.machines() {
            m.engine.set_page_costs(CostModel::default_model());
        }
        problems
    }

    fn row_counts(&self, id: tenantdb_cluster::MachineId, db: &str) -> Result<Vec<usize>, String> {
        let engine = &self.primary.machine(id).map_err(|e| e.to_string())?.engine;
        let txn = engine.begin().map_err(|e| e.to_string())?;
        let counts: Result<Vec<usize>, String> = TABLES
            .iter()
            .map(|table| {
                engine
                    .scan(txn, db, table)
                    .map(|rows| rows.len())
                    .map_err(|e| e.to_string())
            })
            .collect();
        match &counts {
            Ok(_) => engine.commit(txn).map_err(|e| e.to_string())?,
            Err(_) => engine.abort(txn).map_err(|e| e.to_string())?,
        }
        counts
    }

    /// Stop the server (clients must have disconnected) and drop the
    /// platform.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
