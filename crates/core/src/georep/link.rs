//! The stream pump: one [`Shipper`] driving one standby endpoint through
//! the handshake / batch / ack / fence exchange.
//!
//! ```text
//! shipper                                standby
//!   | -- open{db, lsn, epoch, source} ---> |   pin (db, source) under epoch
//!   | <- resume_lsn ---------------------- |   or Fenced{epoch}
//!   | -- batch{epoch, [recs]} -----------> |   epoch restated per batch
//!   | <- applied_lsn --------------------- |   cumulative watermark
//! ```
//!
//! The endpoint is a [`Standby`]: an in-process [`Applier`] (the system
//! controller's DR pump and the deterministic sim scenarios), or a TCP
//! connection speaking the `Geo*` frames (`tenantdb-georep`). Disconnects
//! are ordinary: the next sync re-opens the stream, the standby answers
//! with its resume watermark, and the shipper rewinds — no record is lost
//! and re-sent overlap is deduplicated by the applier. The epoch check
//! runs on the open *and* on every batch, so a promotion fences an
//! in-flight stream at the very next exchange.

use std::sync::Arc;

use parking_lot::Mutex;
use tenantdb_cluster::MachineId;
use tenantdb_storage::{LogRecord, Lsn};

use crate::georep::applier::Applier;
use crate::georep::metrics::GeoMetrics;
use crate::georep::shipper::Shipper;
use crate::georep::GeoError;

/// The standby end of a stream, as the shipper sees it.
pub trait Standby {
    /// Open (or re-open) `db`'s stream from source engine `source` under
    /// `epoch`, proposing `start`; returns the LSN the standby wants the
    /// shipper to resume from.
    fn open_stream(
        &mut self,
        db: &str,
        start: Lsn,
        source: MachineId,
        epoch: u64,
    ) -> Result<Lsn, GeoError>;

    /// Deliver one batch; returns the standby's cumulative ack.
    fn ship_batch(&mut self, epoch: u64, records: Vec<LogRecord>) -> Result<Lsn, GeoError>;

    /// Drop the connection, if any; the next batch needs a new open.
    fn drop_stream(&mut self) {}
}

/// The in-process standby: direct calls into a shared [`Applier`].
impl Standby for Arc<Mutex<Applier>> {
    fn open_stream(
        &mut self,
        _: &str,
        _: Lsn,
        source: MachineId,
        epoch: u64,
    ) -> Result<Lsn, GeoError> {
        self.lock().handshake(source, epoch)
    }

    fn ship_batch(&mut self, epoch: u64, records: Vec<LogRecord>) -> Result<Lsn, GeoError> {
        self.lock().ingest(epoch, &records)
    }
}

/// One database's stream from a [`Shipper`] to a [`Standby`] — by default
/// the in-process one.
pub struct GeoLink<S = Arc<Mutex<Applier>>> {
    shipper: Shipper,
    standby: S,
    /// `Some(pin)` while the stream is open for that source replica.
    session: Option<MachineId>,
    acked: Lsn,
    metrics: GeoMetrics,
    /// Streams opened (the first is counted; later ones are reconnects).
    dials: u64,
}

impl<S: Standby> GeoLink<S> {
    /// Wire `shipper` to `standby`.
    pub fn new(shipper: Shipper, standby: S, metrics: GeoMetrics) -> Self {
        GeoLink {
            shipper,
            standby,
            session: None,
            acked: Lsn::ZERO,
            metrics,
            dials: 0,
        }
    }

    /// The standby endpoint (in process: the promotion work list).
    pub fn standby(&self) -> &S {
        &self.standby
    }

    /// The primary-side shipper.
    pub fn shipper(&self) -> &Shipper {
        &self.shipper
    }

    /// The standby's last cumulative ack.
    pub fn acked(&self) -> Lsn {
        self.acked
    }

    /// Source WAL records the standby has not acked (see
    /// [`Shipper::lag`]); 0 once a sync drained the stream.
    pub fn lag(&self) -> u64 {
        self.shipper.lag(self.acked).unwrap_or(0)
    }

    /// Sever the stream (a colo partition). The next sync re-opens it and
    /// resumes from the standby's watermark.
    pub fn sever(&mut self) {
        self.session = None;
        self.standby.drop_stream();
    }

    /// Pump the stream until the source is drained, returning the number
    /// of records the standby acked a batch of (re-ships count again).
    /// Re-opens the stream as needed; any error severs it so the next call
    /// starts clean.
    pub fn sync(&mut self) -> Result<u64, GeoError> {
        let out = self.pump_stream();
        if out.is_err() {
            self.sever();
        }
        out
    }

    fn pump_stream(&mut self) -> Result<u64, GeoError> {
        let mut shipped = 0;
        loop {
            let pin = self.shipper.pin()?;
            if self.session != Some(pin) {
                let (db, cursor, epoch) = (
                    self.shipper.db(),
                    self.shipper.cursor(),
                    self.shipper.epoch(),
                );
                let resume = self.standby.open_stream(db, cursor, pin, epoch)?;
                self.shipper.rewind(resume);
                self.acked = resume;
                self.dials += 1;
                if self.dials > 1 {
                    self.metrics.note_reconnect(self.shipper.db());
                }
                self.session = Some(pin);
            }
            let batch = self.shipper.next_batch()?;
            if batch.is_empty() {
                self.shipper.note_acked(self.acked)?;
                return Ok(shipped);
            }
            shipped += batch.len() as u64;
            self.acked = self.standby.ship_batch(self.shipper.epoch(), batch)?;
            self.shipper.note_acked(self.acked)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::georep::metrics::GEOREP_LAG_RECORDS;
    use tenantdb_cluster::controller::ClusterConfig;
    use tenantdb_cluster::ClusterController;
    use tenantdb_obs::MetricsRegistry;
    use tenantdb_storage::Value;

    fn primary() -> Arc<ClusterController> {
        let c = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        c.create_database("app", 2).unwrap();
        c.ddl(
            "app",
            "CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        )
        .unwrap();
        c
    }

    fn link(p: &Arc<ClusterController>) -> (Arc<ClusterController>, GeoLink) {
        let s = ClusterController::with_machines(ClusterConfig::for_tests(), 2);
        let m = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
        let shipper = Shipper::new(Arc::clone(p), "app", m.clone()).unwrap();
        let applier = Applier::new(Arc::clone(&s), "app", 2, m.clone());
        (s, GeoLink::new(shipper, Arc::new(Mutex::new(applier)), m))
    }

    fn count(c: &Arc<ClusterController>) -> i64 {
        let conn = c.connect("app").unwrap();
        match conn.execute("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0] {
            Value::Int(n) => n,
            ref v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn in_process_link_replicates_and_survives_sever() {
        let p = primary();
        let (s, mut link) = link(&p);
        let conn = p.connect("app").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
        link.sync().unwrap();
        assert_eq!(count(&s), 1);
        assert_eq!(link.lag(), 0);

        // Partition, write more, heal: the stream resumes from the ack.
        link.sever();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        link.sync().unwrap();
        assert_eq!(count(&s), 2);
    }

    /// Filtered records at the WAL tail never move the standby's ack, so a
    /// lag of head minus ack never returned to zero on a shared engine.
    #[test]
    fn drained_stream_reports_zero_lag_past_filtered_tail() {
        let p = primary();
        p.create_database("other", 2).unwrap();
        p.ddl(
            "other",
            "CREATE TABLE o (id INT NOT NULL, PRIMARY KEY (id))",
        )
        .unwrap();
        let (_s, mut link) = link(&p);
        p.connect("app")
            .unwrap()
            .execute("INSERT INTO t VALUES (1, 'a')", &[])
            .unwrap();
        link.sync().unwrap();
        assert_eq!(link.lag(), 0);

        // A neighbour's writes on the same engine: lag is an upper bound
        // until the next sync scans past them.
        let other = p.connect("other").unwrap();
        for i in 0..5 {
            other
                .execute("INSERT INTO o VALUES (?)", &[Value::Int(i)])
                .unwrap();
        }
        assert!(link.lag() > 0);
        link.sync().unwrap();
        assert_eq!(link.lag(), 0, "drained stream, nothing of app unacked");

        // A read-only transaction's commit marker is filtered as well.
        p.connect("app")
            .unwrap()
            .execute("SELECT COUNT(*) FROM t", &[])
            .unwrap();
        link.sync().unwrap();
        assert_eq!(link.lag(), 0);
        let gauge = link
            .metrics
            .registry()
            .gauge(GEOREP_LAG_RECORDS, &[("db", "app")]);
        assert_eq!(gauge.get(), 0);

        // An undecided transaction holds the ack back: lag stays positive.
        let conn = p.connect("app").unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t VALUES (2, 'b')", &[]).unwrap();
        link.sync().unwrap();
        assert!(link.lag() > 0, "open txn's redo is shipped but unacked");
        conn.commit().unwrap();
        link.sync().unwrap();
        assert_eq!(link.lag(), 0);
    }
}
