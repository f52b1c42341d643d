//! Randomized tests over the stack's core invariants: fixed-seed loops, so
//! a failure replays exactly (the failing input is in the panic message).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use rand::{Rng, SeedableRng, StdRng};

use tenantdb::sql::execute;
use tenantdb::storage::{Engine, EngineConfig, Value};

/// Cases per property.
const CASES: u64 = 64;

#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, v: i64 },
    Update { k: i64, v: i64 },
    Delete { k: i64 },
    Get { k: i64 },
    CountAll,
    SumAll,
}

fn rand_op(rng: &mut StdRng) -> Op {
    let k = rng.gen_range(0i64..12);
    let v = rng.gen_range(-100i64..100);
    match rng.gen_range(0..6u32) {
        0 => Op::Insert { k, v },
        1 => Op::Update { k, v },
        2 => Op::Delete { k },
        3 => Op::Get { k },
        4 => Op::CountAll,
        _ => Op::SumAll,
    }
}

fn rand_ops(rng: &mut StdRng, max: usize) -> Vec<Op> {
    (0..rng.gen_range(1..max)).map(|_| rand_op(rng)).collect()
}

/// Run `property` on `CASES` generators seeded `seed`, `seed + 1`, ….
fn for_cases(seed: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed + case);
        property(&mut rng);
    }
}

/// An engine with database `db` holding the keyed table `kv`.
fn kv_engine() -> Engine {
    let engine = Engine::new(EngineConfig::for_tests());
    engine.create_database("db").unwrap();
    let t = engine.begin().unwrap();
    let ddl = "CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k))";
    execute(&engine, t, "db", ddl, &[]).unwrap();
    engine.commit(t).unwrap();
    engine
}

fn scan_kv(engine: &Engine) -> Vec<(u64, Vec<Value>)> {
    let t = engine.begin().unwrap();
    let rows = engine.scan(t, "db", "kv").unwrap();
    engine.commit(t).unwrap();
    rows
}

// 1. The SQL engine agrees with a trivial in-memory model for arbitrary
//    sequences of single-row operations on a keyed table.
#[test]
fn sql_matches_model() {
    for_cases(0x5a1, |rng| {
        let ops = rand_ops(rng, 60);
        let engine = kv_engine();
        let txn = engine.begin().unwrap();
        let run = |sql: &str, params: &[Value]| execute(&engine, txn, "db", sql, params);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert { k, v } => {
                    let r = run(
                        "INSERT INTO kv VALUES (?, ?)",
                        &[Value::Int(k), Value::Int(v)],
                    );
                    match model.entry(k) {
                        Entry::Occupied(_) => {
                            assert!(r.is_err(), "duplicate insert must fail: {ops:?}")
                        }
                        Entry::Vacant(slot) => {
                            assert!(r.is_ok(), "insert failed: {r:?} in {ops:?}");
                            slot.insert(v);
                        }
                    }
                }
                Op::Update { k, v } => {
                    let sql = "UPDATE kv SET v = ? WHERE k = ?";
                    let r = run(sql, &[Value::Int(v), Value::Int(k)]).unwrap();
                    assert_eq!(r.rows_affected, u64::from(model.contains_key(&k)));
                    if let Some(slot) = model.get_mut(&k) {
                        *slot = v;
                    }
                }
                Op::Delete { k } => {
                    let r = run("DELETE FROM kv WHERE k = ?", &[Value::Int(k)]).unwrap();
                    assert_eq!(r.rows_affected, u64::from(model.remove(&k).is_some()));
                }
                Op::Get { k } => {
                    let r = run("SELECT v FROM kv WHERE k = ?", &[Value::Int(k)]).unwrap();
                    let want: Vec<Vec<Value>> = model
                        .get(&k)
                        .map(|v| vec![Value::Int(*v)])
                        .into_iter()
                        .collect();
                    assert_eq!(r.rows, want, "{ops:?}");
                }
                Op::CountAll => {
                    let r = run("SELECT COUNT(*) FROM kv", &[]).unwrap();
                    assert_eq!(r.rows[0][0], Value::Int(model.len() as i64));
                }
                Op::SumAll => {
                    let r = run("SELECT SUM(v) FROM kv", &[]).unwrap();
                    let expected = if model.is_empty() {
                        Value::Null
                    } else {
                        Value::Int(model.values().sum())
                    };
                    assert_eq!(r.rows[0][0], expected, "{ops:?}");
                }
            }
        }
        engine.commit(txn).unwrap();
    });
}

// 2. Abort really undoes arbitrary write sequences.
#[test]
fn abort_restores_pre_transaction_state() {
    for_cases(0xab0, |rng| {
        let seed_rows: BTreeMap<i64, i64> = (0..rng.gen_range(0..8usize))
            .map(|_| (rng.gen_range(0i64..10), rng.gen_range(-50i64..50)))
            .collect();
        let ops = rand_ops(rng, 30);
        let engine = kv_engine();
        engine
            .with_txn(|t| {
                for (k, v) in &seed_rows {
                    engine.insert(t, "db", "kv", vec![Value::Int(*k), Value::Int(*v)])?;
                }
                Ok(())
            })
            .unwrap();

        // Snapshot, then run a txn with arbitrary writes and abort it.
        let before = scan_kv(&engine);
        let txn = engine.begin().unwrap();
        for op in &ops {
            let (sql, params) = match *op {
                Op::Insert { k, v } => ("INSERT INTO kv VALUES (?, ?)", vec![k, v]),
                Op::Update { k, v } => ("UPDATE kv SET v = ? WHERE k = ?", vec![v, k]),
                Op::Delete { k } => ("DELETE FROM kv WHERE k = ?", vec![k]),
                _ => continue,
            };
            let params: Vec<Value> = params.into_iter().map(Value::Int).collect();
            let _ = execute(&engine, txn, "db", sql, &params);
        }
        engine.abort(txn).unwrap();
        assert_eq!(before, scan_kv(&engine), "{seed_rows:?} then {ops:?}");
    });
}

// 3. Crash-restart preserves exactly the committed prefix.
#[test]
fn restart_preserves_committed_prefix() {
    for_cases(0xc4a, |rng| {
        let committed: Vec<(i64, i64)> = (0..rng.gen_range(1..15usize))
            .map(|_| (rng.gen_range(0i64..20), rng.gen_range(-50i64..50)))
            .collect();
        let uncommitted: Vec<(i64, i64)> = (0..rng.gen_range(0..8usize))
            .map(|_| (rng.gen_range(100i64..120), rng.gen_range(-50i64..50)))
            .collect();
        let engine = kv_engine();
        let mut model = BTreeMap::new();
        for (k, v) in &committed {
            let r = engine
                .with_txn(|t| engine.insert(t, "db", "kv", vec![Value::Int(*k), Value::Int(*v)]));
            if r.is_ok() {
                model.insert(*k, *v);
            }
        }
        // In-flight txn lost at the crash.
        let t = engine.begin().unwrap();
        for (k, v) in &uncommitted {
            let _ = engine.insert(t, "db", "kv", vec![Value::Int(*k), Value::Int(*v)]);
        }
        engine.crash();
        engine.restart();
        let got: BTreeMap<i64, i64> = scan_kv(&engine)
            .iter()
            .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(got, model, "{committed:?} / {uncommitted:?}");
    });
}

// 4. ORDER BY really sorts, for arbitrary data.
#[test]
fn order_by_sorts() {
    for_cases(0x0b5, |rng| {
        let vals: Vec<i64> = (0..rng.gen_range(1..40usize))
            .map(|_| rng.gen_range(-1000i64..1000))
            .collect();
        let engine = Engine::new(EngineConfig::for_tests());
        engine.create_database("db").unwrap();
        let txn = engine.begin().unwrap();
        let run = |sql: &str, params: &[Value]| execute(&engine, txn, "db", sql, params).unwrap();
        run(
            "CREATE TABLE t (id INT NOT NULL, x INT, PRIMARY KEY (id))",
            &[],
        );
        for (i, v) in vals.iter().enumerate() {
            run(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            );
        }
        let r = run("SELECT x FROM t ORDER BY x", &[]);
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        let mut expected = vals.clone();
        expected.sort();
        assert_eq!(got, expected);
        engine.commit(txn).unwrap();
    });
}
