//! Cross-colo disaster-recovery experiment — the georep stream under the
//! TPC-W shopping mix.
//!
//! One measured section, written into `BENCH_georep.json` (validated by
//! `cargo xtask bench-check`):
//!
//! * `georep_dr` — a primary cluster runs the TPC-W shopping mix while a
//!   standby colo's applier drains the WAL stream in the background
//!   through an in-process `GeoLink` (shipper → applier). The
//!   **primary-side** cost of shipping — the WAL tail scan, the
//!   per-database filter, and the batch clone; everything the primary colo
//!   itself does for the stream — is measured by re-scanning exactly the
//!   window's WAL span with a fresh shipper once the system is quiescent,
//!   so scheduler preemption on small bench machines can't be
//!   misattributed to the shipper. That duty cycle (scan time over the
//!   window's wall time) is `shipper_overhead_pct`, gated at ≤ 2%
//!   (`overhead_budget_violations = 0`); frame encode and socket costs are
//!   covered by the net bench, and the standby's apply cost belongs to the
//!   other colo. The workload is additionally sliced into interleaved ABBA
//!   windows with the pump paused (baseline) or active (shipping); the
//!   throughput delta is reported as `colocated_interference_pct` but not
//!   gated — the harness colocates both colos and the workload on the
//!   bench machine, so on small containers that delta is mostly CPU steal
//!   the real deployment spreads across colos. The section also records
//!   the steady-state ship lag sampled during the active slices, the
//!   planned-promotion time, and — after a full drain — that not a single
//!   acknowledged commit is missing on the promoted standby
//!   (`lost_acked_commits = 0`).
//!
//! Fast mode (`TENANTDB_BENCH_FAST=1`) shrinks the scale and windows and
//! skips the overhead gate (sub-second windows are all noise); the
//! committed snapshot is generated in full mode.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tenantdb_bench::fast_mode;
use tenantdb_bench::snapshot::{update_section, SnapValue};
use tenantdb_cluster::controller::ClusterConfig;
use tenantdb_cluster::ClusterController;
use tenantdb_obs::MetricsRegistry;
use tenantdb_platform::georep::{promote, Applier, GeoLink, GeoMetrics, Shipper};
use tenantdb_tpcw::driver::{run_workload, setup_tpcw_databases, DbWorkload, WorkloadConfig};
use tenantdb_tpcw::generator::Scale;
use tenantdb_tpcw::mix::SHOPPING;

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_georep.json");
const SCHEMA: &str = "tenantdb-bench-georep/v1";

/// The primary-side duty-cycle budget for the shipper.
const OVERHEAD_BUDGET_PCT: f64 = 2.0;

fn main() {
    georep_dr();
}

fn orders_count(cluster: &Arc<ClusterController>, db: &str) -> i64 {
    let conn = cluster.connect(db).expect("connect");
    let r = conn
        .execute("SELECT COUNT(*) FROM orders", &[])
        .expect("count orders");
    r.rows[0][0].as_i64().expect("count is an int")
}

/// One workload slice; returns (committed, elapsed seconds).
fn slice(cluster: &Arc<ClusterController>, w: &[DbWorkload], d: Duration, seed: u64) -> (u64, f64) {
    let report = run_workload(
        cluster,
        w,
        &WorkloadConfig {
            mix: &SHOPPING,
            sessions_per_db: 2,
            duration: d,
            seed,
        },
    );
    (report.committed, report.elapsed.as_secs_f64())
}

fn georep_dr() {
    let items = if fast_mode() { 40 } else { 100 };
    let slice_dur = if fast_mode() {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(400)
    };
    // ABBA repetitions: each slice is baseline (pump paused) or shipping
    // (pump active); the palindrome cancels the workload's upward trend
    // (TPC-W contention drops as the order tables grow).
    let reps = if fast_mode() { 2 } else { 4 };
    println!(
        "# georep DR: TPC-W shopping on the primary, {items} items, {reps}x ABBA x {}ms slices",
        slice_dur.as_millis()
    );

    let primary = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    let workloads =
        setup_tpcw_databases(&primary, 1, 2, Scale::with_items(items), 0xd15a).expect("setup");

    // Attach the standby colo and drain the setup backlog, then warm the
    // workload up before the measured slices.
    let standby = ClusterController::with_machines(ClusterConfig::for_tests(), 3);
    let metrics = GeoMetrics::new(Arc::new(MetricsRegistry::new()));
    let applier = Arc::new(Mutex::new(Applier::new(
        Arc::clone(&standby),
        "tpcw0",
        2,
        metrics.clone(),
    )));
    let shipper = Shipper::new(Arc::clone(&primary), "tpcw0", metrics.clone()).expect("shipper");
    let mut pump = GeoLink::new(shipper, Arc::clone(&applier), metrics.clone());
    pump.sync().expect("initial drain");
    slice(&primary, &workloads, 4 * slice_dur, 1);
    let window_start = pump.shipper().head_lsn().expect("head at window start");

    // The pump thread chases the WAL head whenever unpaused, sampling the
    // backlog before each drain.
    let stop = Arc::new(AtomicBool::new(false));
    let paused = Arc::new(AtomicBool::new(true));
    let pump = {
        let stop = Arc::clone(&stop);
        let paused = Arc::clone(&paused);
        std::thread::spawn(move || {
            let mut samples: Vec<u64> = Vec::new();
            let mut caught_up = false;
            while !stop.load(Ordering::Relaxed) {
                if !paused.load(Ordering::Relaxed) {
                    // The first drain after unpausing clears the paused
                    // slices' backlog — not a steady-state lag sample.
                    if caught_up {
                        samples.push(pump.lag());
                    }
                    pump.sync().expect("pump sync");
                    caught_up = true;
                } else {
                    caught_up = false;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            pump.sync().expect("final drain");
            (pump, samples)
        })
    };
    let started = Instant::now();
    let (mut base_txns, mut base_secs) = (0u64, 0f64);
    let (mut ship_txns, mut ship_secs) = (0u64, 0f64);
    for rep in 0..reps {
        for (i, ship) in [false, true, true, false].into_iter().enumerate() {
            paused.store(!ship, Ordering::Relaxed);
            let (txns, secs) = slice(&primary, &workloads, slice_dur, 100 + 4 * rep + i as u64);
            if ship {
                ship_txns += txns;
                ship_secs += secs;
            } else {
                base_txns += txns;
                base_secs += secs;
            }
        }
    }
    let window_seconds = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let (pump, samples) = pump.join().expect("pump thread");
    assert_eq!(pump.lag(), 0, "stream fully drained after the window");
    let baseline_tps = base_txns as f64 / base_secs;
    let shipping_tps = ship_txns as f64 / ship_secs;

    // The gated number: re-scan exactly the window's WAL span with a
    // fresh shipper now that the system is quiescent — the same
    // `next_batch` calls over the same records, with no workload threads
    // for the scheduler to misattribute to the timed region. Scan time
    // over the window's wall time is the duty cycle a dedicated shipper
    // thread needs to keep up with this traffic.
    let mut meter = Shipper::new(Arc::clone(&primary), "tpcw0", metrics.clone()).expect("meter");
    meter.rewind(window_start);
    let started = Instant::now();
    while !meter.next_batch().expect("meter batch").is_empty() {}
    let overhead_pct = started.elapsed().as_secs_f64() / window_seconds * 100.0;
    let overhead_violations = if !fast_mode() && overhead_pct > OVERHEAD_BUDGET_PCT {
        1
    } else {
        0
    };
    let interference_pct = ((baseline_tps - shipping_tps) / baseline_tps * 100.0).max(0.0);
    let lag_max = samples.iter().copied().max().unwrap_or(0);
    let lag_mean = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
    println!(
        "baseline {baseline_tps:.1} tps, shipping {shipping_tps:.1} tps \
         (interference {interference_pct:.2}%), primary-side overhead {overhead_pct:.3}%, \
         lag mean {lag_mean:.1} / max {lag_max} over {} samples",
        samples.len()
    );

    // Planned promotion: fence the primary, promote the standby, and
    // demand every acknowledged (= drained) commit is readable there.
    let primary_orders = orders_count(&primary, "tpcw0");
    let started = Instant::now();
    let out = promote("tpcw0", &standby, Some(&primary), &[applier], &metrics).expect("promote");
    let promotion_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert!(
        out.fenced_old_primary,
        "planned promotion fences the primary"
    );
    let standby_orders = orders_count(&standby, "tpcw0");
    let lost_acked = (primary_orders - standby_orders).max(0);
    println!(
        "promotion: epoch {} in {promotion_ms:.1}ms; orders {primary_orders} primary / \
         {standby_orders} standby (lost {lost_acked})",
        out.epoch
    );

    update_section(
        Path::new(SNAPSHOT),
        SCHEMA,
        "georep_dr",
        &[
            ("fast_mode".to_string(), SnapValue::Bool(fast_mode())),
            ("items".to_string(), SnapValue::Int(items as i64)),
            ("window_seconds".to_string(), SnapValue::Num(window_seconds)),
            ("baseline_tps".to_string(), SnapValue::Num(baseline_tps)),
            ("shipping_tps".to_string(), SnapValue::Num(shipping_tps)),
            (
                "shipper_overhead_pct".to_string(),
                SnapValue::Num(overhead_pct),
            ),
            (
                "colocated_interference_pct".to_string(),
                SnapValue::Num(interference_pct),
            ),
            (
                "overhead_budget_violations".to_string(),
                SnapValue::Int(overhead_violations),
            ),
            ("steady_lag_mean".to_string(), SnapValue::Num(lag_mean)),
            ("steady_lag_max".to_string(), SnapValue::Int(lag_max as i64)),
            ("promotion_ms".to_string(), SnapValue::Num(promotion_ms)),
            ("primary_orders".to_string(), SnapValue::Int(primary_orders)),
            ("standby_orders".to_string(), SnapValue::Int(standby_orders)),
            ("lost_acked_commits".to_string(), SnapValue::Int(lost_acked)),
        ],
    );
}
