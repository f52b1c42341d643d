//! Cluster-level errors.

use std::fmt;

use tenantdb_sql::SqlError;
use tenantdb_storage::StorageError;

/// Errors surfaced to clients of the cluster controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// SQL parse/plan/eval error, or a storage error from one replica.
    Sql(SqlError),
    /// No machine currently hosts this database.
    NoSuchDatabase(String),
    /// All replicas of the database are unavailable.
    NoReplicas(String),
    /// The cluster has no machines (or none that can host a new database).
    NoMachines,
    /// The write was proactively rejected — Algorithm 1 rejects writes to a
    /// table while it is being copied to a new replica.
    WriteRejected {
        /// Database the write targeted.
        db: String,
        /// Table whose copy is in flight (`"<ddl>"` for DDL statements).
        table: String,
    },
    /// The transaction was aborted (reason attached). The client must retry.
    TxnAborted(String),
    /// `commit`/`rollback` without an active transaction.
    NoActiveTxn,
    /// A database with this name already exists.
    AlreadyExists(String),
    /// The controller replica contacted is not the metadata leader (or the
    /// controller group is mid-election / lost its quorum). Retryable: the
    /// hint, when present, is the replica id believed to be the leader
    /// (DESIGN.md §12).
    NotLeader {
        /// Controller replica id to redirect to, if known.
        hint: Option<u32>,
    },
    /// The transaction's commit outcome is unknown: the commit decision may
    /// or may not be durable on the controller group (quorum lost at the
    /// decision point, after a proposal was already in flight). The
    /// transaction is **not** known to be aborted — blind retries can
    /// double-apply; recovery resolves the participants once the group
    /// heals.
    InDoubt(String),
    /// The transaction was shed by SLA admission control before it started:
    /// the tenant is past its provisioned rate (§4's proactive-rejection
    /// knob). Counted against the tenant's `max_rejected_frac`; the client
    /// should back off rather than retry immediately.
    AdmissionRejected {
        /// Database whose admission gate shed the transaction.
        db: String,
    },
    /// The database has been fenced on this cluster by a cross-colo
    /// failover: its standby copy was promoted at `epoch`, which is newer
    /// than this cluster's write authority for it, so every write to it
    /// here is rejected (the split-brain guard of the georep promotion
    /// protocol). Not retryable against this cluster — the client must
    /// reconnect to the promoted colo.
    Fenced {
        /// The fencing epoch that superseded this cluster's authority.
        epoch: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Sql(e) => write!(f, "{e}"),
            ClusterError::NoSuchDatabase(db) => write!(f, "no such database: {db}"),
            ClusterError::NoReplicas(db) => write!(f, "no live replicas for database: {db}"),
            ClusterError::NoMachines => f.write_str("no machines available"),
            ClusterError::WriteRejected { db, table } => {
                write!(f, "write to {db}.{table} rejected: table is being copied")
            }
            ClusterError::TxnAborted(why) => write!(f, "transaction aborted: {why}"),
            ClusterError::NoActiveTxn => f.write_str("no active transaction"),
            ClusterError::AlreadyExists(db) => write!(f, "database already exists: {db}"),
            ClusterError::NotLeader { hint: Some(h) } => {
                write!(f, "not the controller leader (try controller {h})")
            }
            ClusterError::NotLeader { hint: None } => {
                f.write_str("not the controller leader (no leader elected)")
            }
            ClusterError::InDoubt(why) => {
                write!(f, "transaction outcome unknown: {why}")
            }
            ClusterError::AdmissionRejected { db } => {
                write!(
                    f,
                    "admission rejected for {db}: tenant over provisioned SLA rate"
                )
            }
            ClusterError::Fenced { epoch } => {
                write!(
                    f,
                    "database fenced: its standby copy was promoted at epoch {epoch}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SqlError> for ClusterError {
    fn from(e: SqlError) -> Self {
        ClusterError::Sql(e)
    }
}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Sql(SqlError::Storage(e))
    }
}

impl ClusterError {
    /// The underlying storage error, if any.
    pub fn as_storage(&self) -> Option<&StorageError> {
        match self {
            ClusterError::Sql(e) => e.as_storage(),
            _ => None,
        }
    }

    /// Was this caused by a deadlock (workload-inherent, not counted against
    /// the SLA)?
    pub fn is_deadlock(&self) -> bool {
        matches!(self.as_storage(), Some(StorageError::Deadlock(_)))
            || matches!(self, ClusterError::TxnAborted(m) if m.contains("deadlock"))
    }

    /// Was this a lock timeout (includes distributed deadlocks resolved by
    /// timeout)?
    pub fn is_timeout(&self) -> bool {
        matches!(self.as_storage(), Some(StorageError::LockTimeout(_)))
            || matches!(self, ClusterError::TxnAborted(m) if m.contains("timeout"))
    }

    /// Counted as a *proactive rejection* in the §4.1 SLA model: rejections
    /// caused by the platform (machine failures, replica copies) rather than
    /// the workload.
    pub fn is_proactive_rejection(&self) -> bool {
        match self {
            ClusterError::WriteRejected { .. }
            | ClusterError::NoReplicas(_)
            | ClusterError::AdmissionRejected { .. } => true,
            ClusterError::Sql(e) => {
                e.as_storage().is_some_and(|s| s.is_proactive_rejection())
                    || matches!(e.as_storage(), Some(StorageError::Unavailable))
            }
            ClusterError::TxnAborted(m) => m.contains("unavailable") || m.contains("rejected"),
            _ => false,
        }
    }

    /// Was this a controller-leadership redirect (retryable after the
    /// controller group re-elects)?
    pub fn is_not_leader(&self) -> bool {
        matches!(self, ClusterError::NotLeader { .. })
    }

    /// Was this write rejected because a newer colo holds the fencing
    /// epoch? Not retryable against this cluster.
    pub fn is_fenced(&self) -> bool {
        matches!(self, ClusterError::Fenced { .. })
    }
}

/// Shorthand for results carrying a [`ClusterError`].
pub type Result<T> = std::result::Result<T, ClusterError>;

#[cfg(test)]
mod tests {
    use super::*;
    use tenantdb_storage::TxnId;

    #[test]
    fn classification() {
        let dl: ClusterError = StorageError::Deadlock(TxnId(1)).into();
        assert!(dl.is_deadlock());
        assert!(!dl.is_proactive_rejection());

        let rej = ClusterError::WriteRejected {
            db: "d".into(),
            table: "t".into(),
        };
        assert!(rej.is_proactive_rejection());
        assert!(!rej.is_deadlock());

        let unav: ClusterError = StorageError::Unavailable.into();
        assert!(unav.is_proactive_rejection());

        let to: ClusterError = StorageError::LockTimeout(TxnId(2)).into();
        assert!(to.is_timeout());

        let adm = ClusterError::AdmissionRejected { db: "d".into() };
        assert!(adm.is_proactive_rejection());
        assert!(!adm.is_deadlock());
        assert!(!adm.is_timeout());
    }

    #[test]
    fn display() {
        let rej = ClusterError::WriteRejected {
            db: "app".into(),
            table: "items".into(),
        };
        assert_eq!(
            rej.to_string(),
            "write to app.items rejected: table is being copied"
        );
    }
}
