//! Load generation: the seeded interaction streams, the entry points they
//! are replayed through, the span recorder, and the closed-loop and paced
//! phases.

use std::cell::{Cell, RefCell};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenantdb_cluster::{BatchMode, BatchStmt, ClusterError, Connection, Transport};
use tenantdb_net::{ConnectOptions, NetClient};
use tenantdb_platform::PlatformConnection;
use tenantdb_sla::Zipf;
use tenantdb_sql::QueryResult;
use tenantdb_storage::{Engine, TxnId, Value};
use tenantdb_tpcw::{run_txn, Session, TxnType};

use crate::deploy::{Deployment, Workload, CLIENTS};
use crate::host::StealMeter;

/// The public entry point a pass drives the interaction stream through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `NetClient` over loopback TCP to the serving tier.
    Net,
    /// In-process `PlatformConnection` (core: routing, DR capture).
    Platform,
    /// In-process `cluster::Connection` (admission, routing, 2PC).
    Cluster,
    /// One replica's `Engine`, statements run by `tenantdb_sql::execute_stmt`.
    Engine,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Net => "net",
            Level::Platform => "platform",
            Level::Cluster => "cluster",
            Level::Engine => "engine",
        }
    }
}

/// A session on one tenant at one level.
enum Conn {
    Net(NetClient),
    Platform(PlatformConnection),
    Cluster(Connection),
    Engine(EngineConn),
}

impl Conn {
    fn open(level: Level, dep: &Deployment, tenant: usize) -> Result<Conn, ClusterError> {
        let db = &dep.tenants[tenant].db;
        Ok(match level {
            Level::Net => Conn::Net(
                NetClient::connect(dep.addr(), db, ConnectOptions::default())
                    .map_err(|e| ClusterError::TxnAborted(format!("connect: {e}")))?,
            ),
            Level::Platform => Conn::Platform(dep.system.connect(db, (0.0, 0.0))?),
            Level::Cluster => Conn::Cluster(dep.primary.connect(db)?),
            Level::Engine => Conn::Engine(EngineConn {
                engine: dep
                    .first_replica(tenant)
                    .map_err(ClusterError::TxnAborted)?,
                db: db.clone(),
                txn: Cell::new(None),
                parse: Cell::new(Duration::ZERO),
            }),
        })
    }

    fn transport(&self) -> &dyn Transport {
        match self {
            Conn::Net(c) => c,
            Conn::Platform(c) => c,
            Conn::Cluster(c) => c,
            Conn::Engine(c) => c,
        }
    }
}

impl Transport for Conn {
    fn begin(&self) -> Result<(), ClusterError> {
        self.transport().begin()
    }
    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        self.transport().execute(sql, params)
    }
    fn commit(&self) -> Result<(), ClusterError> {
        self.transport().commit()
    }
    fn rollback(&self) -> Result<(), ClusterError> {
        self.transport().rollback()
    }
    fn in_txn(&self) -> bool {
        self.transport().in_txn()
    }
    fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>, ClusterError> {
        self.transport().execute_batch(stmts, mode)
    }
}

/// The engine-level entry point: `Engine::begin`/`commit` around
/// `tenantdb_sql::parse` + `execute_stmt`, outside a transaction each
/// statement commits on its own. Parse time is kept apart.
struct EngineConn {
    engine: std::sync::Arc<Engine>,
    db: String,
    txn: Cell<Option<TxnId>>,
    parse: Cell<Duration>,
}

impl EngineConn {
    fn run(&self, txn: TxnId, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        let t0 = Instant::now();
        let stmt = tenantdb_sql::parse(sql)?;
        self.parse.set(self.parse.get() + t0.elapsed());
        Ok(tenantdb_sql::execute_stmt(
            &self.engine,
            txn,
            &self.db,
            &stmt,
            params,
        )?)
    }
}

impl Transport for EngineConn {
    fn begin(&self) -> Result<(), ClusterError> {
        if self.txn.get().is_some() {
            return Err(ClusterError::TxnAborted("transaction already open".into()));
        }
        self.txn.set(Some(self.engine.begin()?));
        Ok(())
    }
    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        if let Some(txn) = self.txn.get() {
            return self.run(txn, sql, params);
        }
        let txn = self.engine.begin()?;
        match self.run(txn, sql, params) {
            Ok(r) => {
                self.engine.commit(txn)?;
                Ok(r)
            }
            Err(e) => {
                self.engine.abort(txn)?;
                Err(e)
            }
        }
    }
    fn commit(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.commit(txn)?)
    }
    fn rollback(&self) -> Result<(), ClusterError> {
        let txn = self.txn.take().ok_or(ClusterError::NoActiveTxn)?;
        Ok(self.engine.abort(txn)?)
    }
    fn in_txn(&self) -> bool {
        self.txn.get().is_some()
    }
}

/// One recorded span. Interaction spans have `parent == 0`; each call
/// span's parent is the interaction it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// The interaction's type (also set on its call spans).
    pub kind: TxnType,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-client span store. Spans stay in memory until the run ends.
struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<(u64, TxnType)>,
    next_id: Cell<u64>,
}

impl Tracer {
    fn new(epoch: Instant, client: usize) -> Self {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::new()),
            current: Cell::new((0, TxnType::Home)),
            next_id: Cell::new(((client as u64) << 48) + 1),
        }
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    fn record(&self, id: u64, parent: u64, name: &'static str, kind: TxnType, start: Instant) {
        let dur = start.elapsed();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            kind,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, kind) = self.current.get();
        let id = self.fresh_id();
        let start = Instant::now();
        let r = f();
        self.record(id, parent, name, kind, start);
        r
    }
}

/// Records one span per `begin`/`execute`/`execute_batch`/`commit`/
/// `rollback` call. In process a batch runs as its begin, statements and
/// commit (what the trait's default does), so each of those gets a span;
/// over TCP the batch is one frame and one span.
struct Traced<'a> {
    conn: &'a Conn,
    tracer: &'a Tracer,
}

impl Transport for Traced<'_> {
    fn begin(&self) -> Result<(), ClusterError> {
        self.tracer.call("begin", || self.conn.begin())
    }
    fn execute(&self, sql: &str, params: &[Value]) -> Result<QueryResult, ClusterError> {
        self.tracer
            .call("execute", || self.conn.execute(sql, params))
    }
    fn commit(&self) -> Result<(), ClusterError> {
        self.tracer.call("commit", || self.conn.commit())
    }
    fn rollback(&self) -> Result<(), ClusterError> {
        self.tracer.call("rollback", || self.conn.rollback())
    }
    fn in_txn(&self) -> bool {
        self.conn.in_txn()
    }
    fn execute_batch(
        &self,
        stmts: &[BatchStmt],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>, ClusterError> {
        if matches!(self.conn, Conn::Net(_)) {
            return self
                .tracer
                .call("execute_batch", || self.conn.execute_batch(stmts, mode));
        }
        if mode == BatchMode::WholeTxn {
            self.begin()?;
        }
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match self.execute(&s.sql, &s.params) {
                Ok(r) => out.push(r),
                Err(e) => {
                    if mode != BatchMode::Statements && self.in_txn() {
                        let _ = self.rollback();
                    }
                    return Err(e);
                }
            }
        }
        if mode != BatchMode::Statements {
            self.commit()?;
        }
        Ok(out)
    }
}

/// What one pass asks of the clients.
pub struct PassConfig<'a> {
    pub level: Level,
    pub dep: &'a Deployment,
    pub wl: &'a Workload,
    pub seed: u64,
    /// Closed-loop interactions, over both clients.
    pub closed_txns: usize,
    /// Paced interactions, over both clients (0 skips the phase).
    pub paced_txns: usize,
    pub trace: bool,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct PassOut {
    /// Closed loop, per interaction, ms: connect (when the interaction
    /// opened a visit) plus the interaction. Failures are `INFINITY`.
    pub closed_ms: Vec<f64>,
    /// Closed loop, per interaction, µs, the interaction alone (the span
    /// the layer ledger compares across entry points). Failures excluded.
    pub txn_us: Vec<f64>,
    pub closed_committed: u64,
    pub closed_wall: Duration,
    /// Host steal fraction during the closed-loop phase.
    pub steal: f64,
    /// Paced phase: ms from each interaction's due time to its reply.
    pub paced_ms: Vec<f64>,
    /// Paced phase: ms the generator sent after the due time.
    pub late_ms: Vec<f64>,
    /// Connect calls, µs.
    pub connect_us: Vec<f64>,
    /// Engine level only: parse time per interaction, µs.
    pub parse_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Orders placed per tenant by committed BuyConfirm interactions.
    pub buys: Vec<u64>,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

impl PassOut {
    pub fn tps(&self) -> f64 {
        self.closed_committed as f64 / self.closed_wall.as_secs_f64()
    }

    fn absorb(&mut self, o: PassOut) {
        self.steal += o.steal;
        self.closed_ms.extend(o.closed_ms);
        self.txn_us.extend(o.txn_us);
        self.closed_committed += o.closed_committed;
        self.paced_ms.extend(o.paced_ms);
        self.late_ms.extend(o.late_ms);
        self.connect_us.extend(o.connect_us);
        self.parse_us.extend(o.parse_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (b, x) in self.buys.iter_mut().zip(o.buys) {
            *b += x;
        }
        self.spans.extend(o.spans);
        self.errors.extend(o.errors);
    }
}

/// How long before an interaction's due time a paced client wakes.
const PACED_WAKE_EARLY: Duration = Duration::from_micros(500);

/// One client thread: its seeded stream, its tenants, its open session.
struct Client<'a> {
    cfg: &'a PassConfig<'a>,
    rng: StdRng,
    /// Tenants this client serves (disjoint between clients, so no two
    /// clients ever touch one tenant and no interaction can conflict).
    tenants: Vec<usize>,
    zipf: Zipf,
    conn: Option<(usize, Conn)>,
    session: Session,
    visit_left: usize,
    tracer: Option<Tracer>,
    out: PassOut,
}

/// Result of one interaction: ok, connect time, interaction time.
struct Step {
    ok: bool,
    connect: Duration,
    txn: Duration,
}

impl<'a> Client<'a> {
    fn new(cfg: &'a PassConfig<'a>, id: usize, epoch: Instant) -> Self {
        let tenants: Vec<usize> = (id..cfg.wl.tenants).step_by(CLIENTS).collect();
        let n = tenants.len().max(1);
        Client {
            cfg,
            rng: StdRng::seed_from_u64(
                cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1),
            ),
            zipf: Zipf::new(0.0, (n - 1) as f64, cfg.wl.zipf_skew, n),
            tenants,
            conn: None,
            session: Session {
                customer: 0,
                cart: None,
            },
            visit_left: 0,
            tracer: cfg.trace.then(|| Tracer::new(epoch, id)),
            out: PassOut {
                buys: vec![0; cfg.wl.tenants],
                ..PassOut::default()
            },
        }
    }

    fn fail(&mut self, e: &ClusterError) {
        self.out.failed += 1;
        if self.out.errors.len() < 5 {
            self.out.errors.push(e.to_string());
        }
    }

    /// Open a session on the next tenant: the client's only tenant with
    /// persistent connections, a Zipf draw for visits.
    fn connect(&mut self) -> Result<Duration, ClusterError> {
        self.conn = None;
        let rank = if self.cfg.wl.visit_len.is_some() {
            self.zipf.sample(&mut self.rng).round() as usize
        } else {
            0
        };
        let tenant = self.tenants[rank.min(self.tenants.len() - 1)];
        let customers = self.cfg.dep.tenants[tenant].scale.customers.max(1) as i64;
        self.session = Session {
            customer: self.rng.gen_range(0..customers),
            cart: None,
        };
        self.visit_left = self.cfg.wl.visit_len.unwrap_or(usize::MAX);
        let t0 = Instant::now();
        let conn = Conn::open(self.cfg.level, self.cfg.dep, tenant)?;
        let took = t0.elapsed();
        self.out.connect_us.push(took.as_secs_f64() * 1e6);
        self.conn = Some((tenant, conn));
        Ok(took)
    }

    /// One interaction, opening a visit first when one is due.
    fn step(&mut self) -> Step {
        self.out.attempted += 1;
        let mut connect = Duration::ZERO;
        if self.conn.is_none() || self.visit_left == 0 {
            match self.connect() {
                Ok(d) => connect = d,
                Err(e) => {
                    self.fail(&e);
                    return Step {
                        ok: false,
                        connect,
                        txn: Duration::ZERO,
                    };
                }
            }
        }
        self.visit_left -= 1;
        let kind = self.cfg.wl.mix.pick(&mut self.rng);
        let places_order = kind == TxnType::BuyConfirm && self.session.cart.is_some();
        let (tenant, conn) = self.conn.as_ref().expect("connected above");
        let t = &self.cfg.dep.tenants[*tenant];
        let t0 = Instant::now();
        let r = match &self.tracer {
            None => run_txn(
                kind,
                conn,
                &t.ids,
                t.scale,
                &mut self.session,
                &mut self.rng,
            ),
            Some(tracer) => {
                let id = tracer.fresh_id();
                tracer.current.set((id, kind));
                let r = run_txn(
                    kind,
                    &Traced { conn, tracer },
                    &t.ids,
                    t.scale,
                    &mut self.session,
                    &mut self.rng,
                );
                tracer.record(id, 0, "interaction", kind, t0);
                r
            }
        };
        let txn = t0.elapsed();
        if let Conn::Engine(e) = conn {
            self.out.parse_us.push(e.parse.take().as_secs_f64() * 1e6);
        }
        match r {
            Ok(()) => {
                if places_order {
                    self.out.buys[*tenant] += 1;
                }
                Step {
                    ok: true,
                    connect,
                    txn,
                }
            }
            Err(e) => {
                self.fail(&e);
                // A failed session may be unusable (a dropped socket);
                // the next interaction reconnects.
                self.conn = None;
                Step {
                    ok: false,
                    connect,
                    txn,
                }
            }
        }
    }

    fn closed(&mut self, n: usize) {
        for _ in 0..n {
            let s = self.step();
            if s.ok {
                self.out.closed_committed += 1;
                self.out
                    .closed_ms
                    .push((s.connect + s.txn).as_secs_f64() * 1e3);
                self.out.txn_us.push(s.txn.as_secs_f64() * 1e6);
            } else {
                self.out.closed_ms.push(f64::INFINITY);
            }
        }
    }

    /// This client's share of the paced schedule: interaction `k` is due
    /// at `t0 + k / rate`, and the clients take alternate `k`.
    ///
    /// The client sleeps until [`PACED_WAKE_EARLY`] before the due time and
    /// yields the CPU until it comes. Waking an idle virtual CPU from a
    /// timer takes the host anywhere from tens of µs to over a millisecond;
    /// slept to the due time, that wake-up of the generator itself was
    /// timed as the program's latency. The platform's own thread wake-ups
    /// stay in the measurement.
    fn paced(&mut self, id: usize, t0: Instant) {
        let rate = self.cfg.wl.paced_rate;
        for k in (id..self.cfg.paced_txns).step_by(CLIENTS) {
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            if let Some(nap) = due
                .checked_duration_since(Instant::now())
                .and_then(|d| d.checked_sub(PACED_WAKE_EARLY))
            {
                std::thread::sleep(nap);
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
            self.out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let s = self.step();
            self.out.paced_ms.push(if s.ok {
                due.elapsed().as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            });
        }
    }
}

/// Run one pass: both clients through the closed-loop phase, then (if
/// asked) the paced phase.
pub fn run_pass(cfg: &PassConfig) -> PassOut {
    let epoch = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let paced_t0: Mutex<Option<Instant>> = Mutex::new(None);
    let results: Vec<(PassOut, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (barrier, paced_t0) = (&barrier, &paced_t0);
                s.spawn(move || {
                    let mut c = Client::new(cfg, id, epoch);
                    if cfg.wl.visit_len.is_none() {
                        // A failed connect leaves no session; the first
                        // interaction then connects again and counts it.
                        let _ = c.connect();
                    }
                    barrier.wait();
                    let start = Instant::now();
                    let steal = StealMeter::start();
                    c.closed(cfg.closed_txns / CLIENTS);
                    let end = Instant::now();
                    if id == 0 {
                        c.out.steal = steal.fraction();
                    }
                    if cfg.paced_txns > 0 {
                        if barrier.wait().is_leader() {
                            *paced_t0.lock().expect("no client panics holding it") =
                                Some(Instant::now() + Duration::from_millis(1));
                        }
                        barrier.wait();
                        let t0 = paced_t0
                            .lock()
                            .expect("no client panics holding it")
                            .expect("set by the barrier leader");
                        c.paced(id, t0);
                    }
                    c.conn = None;
                    if let Some(t) = c.tracer.take() {
                        c.out.spans = t.spans.into_inner();
                    }
                    (c.out, start, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = PassOut {
        buys: vec![0; cfg.wl.tenants],
        ..PassOut::default()
    };
    let start = results.iter().map(|r| r.1).min().expect("clients");
    let end = results.iter().map(|r| r.2).max().expect("clients");
    out.closed_wall = end - start;
    for (o, _, _) in results {
        out.absorb(o);
    }
    out
}
