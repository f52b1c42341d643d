//! Randomized round-trip test: printing any generated statement yields SQL
//! that reparses to the same printed form (print ∘ parse is a fixpoint on
//! printer output). This pins the parser's precedence, quoting, and
//! keyword handling against the serializer. Fixed-seed loops: a failure
//! replays exactly.

use rand::{Rng, SeedableRng, StdRng};

use tenantdb_sql::ast::*;
use tenantdb_sql::parse;
use tenantdb_storage::Value;

/// Cases per property.
const CASES: u64 = 256;

/// Words an identifier must avoid (the lexer reserves them).
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "for", "update",
    "delete", "insert", "into", "values", "create", "table", "index", "on", "join", "inner",
    "left", "outer", "and", "or", "not", "in", "like", "between", "is", "null", "as", "set",
    "distinct", "primary", "key", "unique", "count", "sum", "avg", "min", "max", "true", "false",
    "coalesce", "abs", "length", "upper", "lower", "substr", "desc", "asc", "int", "text", "float",
    "bool",
];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn string_of(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len).map(|_| pick(rng, alphabet) as char).collect()
}

/// `[a-z][a-z0-9_]{0,6}`, not a keyword.
fn ident(rng: &mut StdRng) -> String {
    loop {
        let first = string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1);
        let len = rng.gen_range(0..=6usize);
        let s = first + &string_of(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_", len);
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

fn maybe<T>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| f(rng))
}

fn literal(rng: &mut StdRng) -> Expr {
    Expr::Literal(match rng.gen_range(0..5u32) {
        0 => Value::Int(i64::from(rng.gen::<i32>())),
        // Finite floats with short decimal forms survive the text roundtrip.
        1 => Value::Float(
            f64::from(rng.gen_range(-1000i32..1000)) + f64::from(rng.gen_range(1u32..100)) / 100.0,
        ),
        2 => {
            let len = rng.gen_range(0..=8usize);
            Value::Text(string_of(rng, b"abcdefghijklmnopqrstuvwxyz '", len))
        }
        3 => Value::Null,
        _ => Value::Bool(rng.gen_bool(0.5)),
    })
}

/// An expression tree at most `depth` levels above its leaves.
fn expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.5) {
        return match rng.gen_range(0..3u32) {
            0 => literal(rng),
            1 => Expr::Column {
                table: None,
                name: ident(rng),
            },
            _ => Expr::Column {
                table: Some(ident(rng)),
                name: ident(rng),
            },
        };
    }
    let sub = |rng: &mut StdRng| Box::new(expr(rng, depth - 1));
    match rng.gen_range(0..5u32) {
        0 => Expr::Binary {
            left: sub(rng),
            right: sub(rng),
            op: pick(
                rng,
                &[
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::LtEq,
                    BinOp::Gt,
                    BinOp::GtEq,
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                ],
            ),
        },
        1 => Expr::Unary {
            op: UnaryOp::Not,
            expr: sub(rng),
        },
        2 => Expr::IsNull {
            expr: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        3 => Expr::InList {
            expr: sub(rng),
            list: (0..rng.gen_range(1..3usize))
                .map(|_| literal(rng))
                .collect(),
            negated: rng.gen_bool(0.5),
        },
        _ => Expr::Func {
            args: (0..rng.gen_range(1..3usize))
                .map(|_| expr(rng, depth - 1))
                .collect(),
            func: pick(
                rng,
                &[
                    ScalarFunc::Coalesce,
                    ScalarFunc::Abs,
                    ScalarFunc::Length,
                    ScalarFunc::Upper,
                    ScalarFunc::Lower,
                ],
            ),
        },
    }
}

fn select(rng: &mut StdRng) -> Statement {
    Statement::Select(SelectStmt {
        distinct: rng.gen_bool(0.5),
        items: (0..rng.gen_range(1..4usize))
            .map(|_| SelectItem::Expr {
                expr: expr(rng, 2),
                alias: maybe(rng, ident),
            })
            .collect(),
        from: TableRef {
            name: ident(rng),
            alias: None,
        },
        joins: vec![],
        filter: maybe(rng, |rng| expr(rng, 3)),
        group_by: vec![],
        having: None,
        order_by: (0..rng.gen_range(0..3usize))
            .map(|_| OrderKey {
                expr: Expr::Column {
                    table: None,
                    name: ident(rng),
                },
                desc: rng.gen_bool(0.5),
            })
            .collect(),
        limit: maybe(rng, |rng| rng.gen_range(0u64..100)),
        for_update: rng.gen_bool(0.5),
    })
}

fn update(rng: &mut StdRng) -> Statement {
    Statement::Update {
        table: ident(rng),
        sets: (0..rng.gen_range(1..3usize))
            .map(|_| (ident(rng), expr(rng, 2)))
            .collect(),
        filter: maybe(rng, |rng| expr(rng, 2)),
    }
}

/// `printed` reparses to a statement that prints as `printed` again.
fn assert_reprints(printed: &str) {
    let reparsed = parse(printed)
        .unwrap_or_else(|e| panic!("printer produced unparseable SQL: {printed}\n{e}"));
    assert_eq!(reparsed.to_string(), printed);
}

fn for_cases(seed: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        property(&mut StdRng::seed_from_u64(seed + case));
    }
}

#[test]
fn printed_select_reparses_to_fixpoint() {
    for_cases(0x5e1, |rng| assert_reprints(&select(rng).to_string()));
}

#[test]
fn printed_update_reparses_to_fixpoint() {
    for_cases(0x0d4, |rng| assert_reprints(&update(rng).to_string()));
}

#[test]
fn printed_expr_roundtrips_inside_where() {
    for_cases(0xe4b, |rng| {
        let sql = format!("SELECT x FROM t WHERE {}", expr(rng, 4));
        let parsed = parse(&sql).unwrap_or_else(|e| panic!("unparseable: {sql}\n{e}"));
        assert_reprints(&parsed.to_string());
    });
}
