//! # tenantdb-georep — the cross-colo log stream over TCP
//!
//! Cross-colo disaster recovery lives in `tenantdb_platform::georep`: the
//! WAL shipper, the standby [`Applier`], the [`GeoLink`] pump, promotion,
//! and metrics, driven by the system controller in process. This crate
//! carries the same exchange over real loopback TCP with the `Geo*` frames
//! of [`tenantdb_net::wire`]: [`GeoStandbyServer`] serves the standby side
//! and [`TcpStandby`] is the [`Standby`] endpoint a [`GeoTcpLink`] ships to.
//!
//! ```text
//! shipper                                standby
//!   | -- GeoHello{v, db, lsn, epoch, src} -> |   pin (db, source) under epoch
//!   | <- GeoHelloOk{v, resume_lsn} --------- |   or GeoFenced{epoch}
//!   | -- GeoRecords{epoch, [recs]} --------> |   epoch restated per batch
//!   | <- GeoAck{applied_lsn} --------------- |   cumulative watermark
//!   |              ...                       |
//!   | <- GeoFenced{epoch} ------------------ |   a promotion happened
//! ```
//!
//! A severed connection is an ordinary reconnect: the next sync dials
//! again and resumes from the standby's watermark.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use tenantdb_cluster::{ClusterController, MachineId};
use tenantdb_net::wire::{self, Frame, WireError, GEOREP_PROTOCOL_VERSION};
use tenantdb_platform::georep::{Applier, GeoError, GeoLink, GeoMetrics, Standby};
use tenantdb_storage::{LogRecord, Lsn};

/// Socket timeouts for stream I/O: a WAN hiccup beyond this severs the
/// stream, which the shipper treats as an ordinary reconnect.
const STREAM_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How often the standby accept loop re-checks the shutdown flag.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

fn protocol(e: WireError) -> GeoError {
    GeoError::Protocol(e.to_string())
}

/// Write one frame; a codec failure is a protocol error.
fn send_geo(stream: &mut TcpStream, frame: &Frame) -> Result<(), GeoError> {
    wire::write_frame(stream, frame)
        .map(|_| ())
        .map_err(protocol)
}

/// Read one frame (`None` on a clean disconnect).
fn recv_geo(stream: &mut TcpStream) -> Result<Option<Frame>, GeoError> {
    wire::read_frame(stream).map_err(protocol)
}

// ---------------------------------------------------------------- standby

/// The standby colo's stream endpoint: accepts shipper connections on a
/// loopback TCP listener and replays each database's stream through a
/// shared per-database [`Applier`].
pub struct GeoStandbyServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    appliers: Arc<Mutex<HashMap<String, Arc<Mutex<Applier>>>>>,
}

impl GeoStandbyServer {
    /// Bind a listener on an ephemeral loopback port and serve streams
    /// into `standby`. `replicas` is the placement width for databases the
    /// stream creates.
    pub fn serve(
        standby: Arc<ClusterController>,
        replicas: usize,
        metrics: GeoMetrics,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let appliers: Arc<Mutex<HashMap<String, Arc<Mutex<Applier>>>>> =
            Arc::new(Mutex::new(HashMap::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let appliers = Arc::clone(&appliers);
            std::thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                // ordering: Relaxed — shutdown flag; the join below is the
                // synchronization point.
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let standby = Arc::clone(&standby);
                            let appliers = Arc::clone(&appliers);
                            let metrics = metrics.clone();
                            conns.push(std::thread::spawn(move || {
                                let _ = serve_stream(stream, standby, replicas, appliers, metrics);
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_TICK);
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    let _ = c.join();
                }
            })
        };

        Ok(GeoStandbyServer {
            addr,
            stop,
            accept: Some(accept),
            appliers,
        })
    }

    /// The listener's loopback address for shippers to dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared applier for `db`, if a stream has pinned it.
    pub fn applier(&self, db: &str) -> Option<Arc<Mutex<Applier>>> {
        self.appliers.lock().get(db).cloned()
    }

    /// Every per-database applier — the promotion work list.
    pub fn appliers(&self) -> Vec<Arc<Mutex<Applier>>> {
        self.appliers.lock().values().cloned().collect()
    }

    /// Stop accepting and join the accept loop. Streams in flight are
    /// severed by their socket timeouts.
    pub fn shutdown(&mut self) {
        // ordering: Relaxed — flag polled by the accept loop; join below
        // synchronizes.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GeoStandbyServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted stream: handshake, then batches until disconnect or fence.
fn serve_stream(
    mut stream: TcpStream,
    standby: Arc<ClusterController>,
    replicas: usize,
    appliers: Arc<Mutex<HashMap<String, Arc<Mutex<Applier>>>>>,
    metrics: GeoMetrics,
) -> Result<(), GeoError> {
    stream.set_read_timeout(Some(STREAM_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_IO_TIMEOUT))?;

    let (db, source, epoch) = match recv_geo(&mut stream)? {
        Some(Frame::GeoHello {
            version: _,
            db,
            start_lsn: _,
            epoch,
            source,
        }) => (db, MachineId(source), epoch),
        _ => return Err(GeoError::Protocol("expected GeoHello".into())),
    };

    let applier = Arc::clone(appliers.lock().entry(db.clone()).or_insert_with(|| {
        Arc::new(Mutex::new(Applier::new(
            Arc::clone(&standby),
            &db,
            replicas,
            metrics.clone(),
        )))
    }));

    let resume = match applier.lock().handshake(source, epoch) {
        Ok(lsn) => lsn,
        Err(GeoError::Fenced { epoch }) => {
            send_geo(&mut stream, &Frame::GeoFenced { epoch })?;
            return Err(GeoError::Fenced { epoch });
        }
        Err(e) => return Err(e),
    };
    send_geo(
        &mut stream,
        &Frame::GeoHelloOk {
            version: GEOREP_PROTOCOL_VERSION,
            resume_lsn: resume,
        },
    )?;

    loop {
        match recv_geo(&mut stream)? {
            Some(Frame::GeoRecords { epoch, records }) => {
                match applier.lock().ingest(epoch, &records) {
                    Ok(watermark) => {
                        send_geo(
                            &mut stream,
                            &Frame::GeoAck {
                                applied_lsn: watermark,
                            },
                        )?;
                    }
                    Err(GeoError::Fenced { epoch }) => {
                        send_geo(&mut stream, &Frame::GeoFenced { epoch })?;
                        return Err(GeoError::Fenced { epoch });
                    }
                    // Crash-point sever: drop without acking — the shipper
                    // re-ships from the previous watermark.
                    Err(e) => return Err(e),
                }
            }
            Some(other) => {
                return Err(GeoError::Protocol(format!(
                    "unexpected frame {}",
                    other.kind()
                )))
            }
            None => return Ok(()), // clean disconnect
        }
    }
}

// ---------------------------------------------------------------- shipper

/// The primary side of the TCP stream: a [`GeoLink`] whose standby is
/// reached over a socket.
pub type GeoTcpLink = GeoLink<TcpStandby>;

/// A standby endpoint at a [`GeoStandbyServer`] address: each stream open
/// dials a fresh connection and handshakes.
pub struct TcpStandby {
    addr: SocketAddr,
    conn: Option<TcpStream>,
}

impl TcpStandby {
    /// The endpoint at `addr`; nothing is dialed until the stream opens.
    pub fn new(addr: SocketAddr) -> Self {
        TcpStandby { addr, conn: None }
    }
}

impl Standby for TcpStandby {
    fn open_stream(
        &mut self,
        db: &str,
        start: Lsn,
        source: MachineId,
        epoch: u64,
    ) -> Result<Lsn, GeoError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(STREAM_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(STREAM_IO_TIMEOUT))?;
        let hello = Frame::GeoHello {
            version: GEOREP_PROTOCOL_VERSION,
            db: db.to_string(),
            start_lsn: start,
            epoch,
            source: source.0,
        };
        send_geo(&mut stream, &hello)?;
        match recv_geo(&mut stream)? {
            Some(Frame::GeoHelloOk { resume_lsn, .. }) => {
                self.conn = Some(stream);
                Ok(resume_lsn)
            }
            Some(Frame::GeoFenced { epoch }) => Err(GeoError::Fenced { epoch }),
            _ => Err(GeoError::Protocol("expected GeoHelloOk".into())),
        }
    }

    fn ship_batch(&mut self, epoch: u64, records: Vec<LogRecord>) -> Result<Lsn, GeoError> {
        let stream = self
            .conn
            .as_mut()
            .ok_or_else(|| GeoError::Severed("stream dropped mid-sync".into()))?;
        send_geo(stream, &Frame::GeoRecords { epoch, records })?;
        match recv_geo(stream)? {
            Some(Frame::GeoAck { applied_lsn }) => Ok(applied_lsn),
            Some(Frame::GeoFenced { epoch }) => Err(GeoError::Fenced { epoch }),
            Some(other) => Err(GeoError::Protocol(format!(
                "unexpected frame {}",
                other.kind()
            ))),
            None => Err(GeoError::Severed("standby closed mid-batch".into())),
        }
    }

    fn drop_stream(&mut self) {
        self.conn = None;
    }
}
