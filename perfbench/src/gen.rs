//! Seeded operation lists and the model they are checked against.
//!
//! The generator walks a model of the `orders`/`lineitem` state forward
//! while it emits operations, so every operation carries its exact expected
//! outcome: the rows a commit inserts and deletes, the assertion a
//! violating transaction must be rejected by, the price a point read must
//! return. The program under test only ever sees the rendered SQL.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write;
use tintin_engine::{Database, Value};
use tintin_tpch::{suppliers_of_part, TpchCounts};

/// What a transaction must do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Commit, inserting and deleting exactly these many rows, which hold
    /// `bytes` of user data (`tintin_tpch::sizing::row_bytes`).
    Commit {
        inserted: usize,
        deleted: usize,
        bytes: usize,
    },
    /// Be rejected, with this assertion among the violations.
    Reject { assertion: &'static str },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A `BEGIN … COMMIT` script.
    Txn { script: String, expect: Expect },
    /// A point `SELECT` by primary key and the price it must return.
    Read {
        sql: String,
        key: i64,
        price_cents: i64,
    },
}

/// The kinds of violating transaction, used in rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Violation {
    /// An order loses all its line items but stays.
    Stranded,
    /// A new line item with quantity 0.
    ZeroQuantity,
    /// A new line item whose (part, supplier) pair is not in `partsupp`.
    MissingPartsupp,
}

const VIOLATIONS: [Violation; 3] = [
    Violation::Stranded,
    Violation::ZeroQuantity,
    Violation::MissingPartsupp,
];

impl Violation {
    fn assertion(self) -> &'static str {
        match self {
            Violation::Stranded => "atLeastOneLineItem",
            Violation::ZeroQuantity => "quantityInRange",
            Violation::MissingPartsupp => "lineitemHasPartsupp",
        }
    }
}

/// Committed `orders` state: key → (price in cents, line items).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    orders: HashMap<i64, (i64, usize)>,
    /// Live keys in a generator-defined order, for O(1) random picks.
    live: Vec<i64>,
    pub lineitems: usize,
}

impl Model {
    /// The model of a loaded TPC-H database.
    pub fn from_database(db: &Database) -> Model {
        let mut lines: HashMap<i64, usize> = HashMap::new();
        let li = db.table("lineitem").expect("lineitem table");
        for (_, row) in li.scan() {
            *lines.entry(int(&row[0])).or_default() += 1;
        }
        let mut keyed: Vec<(i64, i64)> = db
            .table("orders")
            .expect("orders table")
            .scan()
            .map(|(_, row)| (int(&row[0]), cents(&row[2]).expect("generated price")))
            .collect();
        keyed.sort_unstable();
        let mut m = Model::default();
        for (k, price) in keyed {
            m.insert(k, price, lines.get(&k).copied().unwrap_or(0));
        }
        m
    }

    /// The orders whose key is `offset` modulo `stride` (a client's
    /// disjoint share of the data).
    pub fn partition(&self, stride: i64, offset: i64) -> Model {
        let mut m = Model::default();
        for &k in &self.live {
            if k.rem_euclid(stride) == offset {
                let (p, n) = self.orders[&k];
                m.insert(k, p, n);
            }
        }
        m
    }

    /// Merge another (disjoint) model into this one.
    pub fn absorb(&mut self, other: Model) {
        for k in other.live {
            let (p, n) = other.orders[&k];
            self.insert(k, p, n);
        }
    }

    pub fn orders(&self) -> usize {
        self.live.len()
    }

    pub fn max_key(&self) -> i64 {
        self.live.iter().copied().max().unwrap_or(0)
    }

    pub fn price(&self, key: i64) -> Option<i64> {
        self.orders.get(&key).map(|&(p, _)| p)
    }

    /// Every live key with its price, sorted by key.
    pub fn prices(&self) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = self.orders.iter().map(|(&k, &(p, _))| (k, p)).collect();
        v.sort_unstable();
        v
    }

    fn insert(&mut self, key: i64, price: i64, lines: usize) {
        let old = self.orders.insert(key, (price, lines));
        assert!(old.is_none(), "order {key} inserted twice");
        self.live.push(key);
        self.lineitems += lines;
    }

    /// Remove and return a random live order: (key, price, lines).
    fn take_random(&mut self, rng: &mut StdRng) -> (i64, i64, usize) {
        let i = rng.gen_range(0..self.live.len());
        let key = self.live.swap_remove(i);
        let (price, lines) = self.orders.remove(&key).expect("live key in model");
        self.lineitems -= lines;
        (key, price, lines)
    }

    fn random_key(&self, rng: &mut StdRng) -> i64 {
        self.live[rng.gen_range(0..self.live.len())]
    }

    fn set_price(&mut self, key: i64, price: i64) {
        self.orders.get_mut(&key).expect("live key").0 = price;
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// A price value in whole cents; `None` for a value that is not a price.
pub fn cents(v: &Value) -> Option<i64> {
    match v {
        Value::Real(r) => Some((r.get() * 100.0).round() as i64),
        Value::Int(i) => Some(i * 100),
        _ => None,
    }
}

/// `tintin_tpch::sizing::row_bytes` of an `orders` and a `lineitem` row.
pub const ORDER_ROW_BYTES: usize = 40;
pub const LINE_ROW_BYTES: usize = 56;

fn row_bytes(orders: usize, lines: usize) -> usize {
    orders * ORDER_ROW_BYTES + lines * LINE_ROW_BYTES
}

fn price_sql(cents: i64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// The shape of a workload's operation list.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Transactions in the list.
    pub txns: usize,
    /// New and deleted orders per transaction (1: the OLTP mix of single
    /// new-order / delete / reprice transactions; more: ETL batches that
    /// each replace this many orders).
    pub batch: usize,
    /// One transaction in `violate_every` is violating.
    pub violate_every: usize,
    /// Point reads issued after each transaction, on average.
    pub reads_per_txn: f64,
}

/// Key allocation for new orders: `next`, `next + stride`, … so that
/// concurrent clients with distinct offsets never collide.
#[derive(Debug, Clone, Copy)]
pub struct Keys {
    pub next: i64,
    pub stride: i64,
}

struct Gen<'a> {
    rng: StdRng,
    counts: TpchCounts,
    model: &'a mut Model,
    keys: Keys,
    violations: usize,
}

/// A new order's rows, rendered as SQL value tuples.
struct NewOrder {
    order: String,
    lines: Vec<String>,
    key: i64,
    price: i64,
}

impl Gen<'_> {
    fn fresh_key(&mut self) -> i64 {
        let k = self.keys.next;
        self.keys.next += self.keys.stride;
        k
    }

    fn part_supp(&mut self) -> (i64, i64) {
        let p = self.rng.gen_range(1..=self.counts.parts);
        let per = self.counts.partsupps_per_part.min(self.counts.suppliers);
        let pick = self.rng.gen_range(0..per) as usize;
        let s = suppliers_of_part(&self.counts, p)
            .nth(pick)
            .expect("pick in range");
        (p, s)
    }

    /// A (part, supplier) pair with no `partsupp` row.
    fn missing_part_supp(&mut self) -> (i64, i64) {
        let p = self.rng.gen_range(1..=self.counts.parts);
        let taken: Vec<i64> = suppliers_of_part(&self.counts, p).collect();
        let s = (1..=self.counts.suppliers)
            .find(|s| !taken.contains(s))
            .expect("fewer partsupp rows per part than suppliers");
        (p, s)
    }

    fn new_order(&mut self, bad: Option<Violation>) -> NewOrder {
        let key = self.fresh_key();
        let cust = self.rng.gen_range(1..=self.counts.customers);
        let price = self.rng.gen_range(1_000..5_000_000i64);
        let n = self.rng.gen_range(1..=self.counts.max_lines_per_order);
        let bad_line = (n + 1) / 2;
        let lines = (1..=n)
            .map(|ln| {
                let mut qty = self.rng.gen_range(1..=50i64);
                let (mut p, mut s) = self.part_supp();
                if ln == bad_line {
                    match bad {
                        Some(Violation::ZeroQuantity) => qty = 0,
                        Some(Violation::MissingPartsupp) => (p, s) = self.missing_part_supp(),
                        _ => {}
                    }
                }
                format!("({key}, {ln}, {qty}, {p}, {s})")
            })
            .collect();
        NewOrder {
            order: format!("({key}, {cust}, {})", price_sql(price)),
            lines,
            key,
            price,
        }
    }

    fn next_violation(&mut self) -> Violation {
        let v = VIOLATIONS[self.violations % VIOLATIONS.len()];
        self.violations += 1;
        v
    }

    /// One OLTP transaction: a new order, a whole-order delete, a reprice,
    /// or (every `violate_every`-th) a violating one.
    fn oltp_txn(&mut self, violating: bool) -> Op {
        if violating {
            let v = self.next_violation();
            let script = match v {
                Violation::Stranded => {
                    let key = self.model.random_key(&mut self.rng);
                    format!("BEGIN; DELETE FROM lineitem WHERE l_orderkey = {key}; COMMIT;")
                }
                _ => {
                    let o = self.new_order(Some(v));
                    format!(
                        "BEGIN; INSERT INTO orders VALUES {}; INSERT INTO lineitem VALUES {}; COMMIT;",
                        o.order,
                        o.lines.join(", ")
                    )
                }
            };
            return Op::Txn {
                script,
                expect: Expect::Reject {
                    assertion: v.assertion(),
                },
            };
        }
        let roll = self.rng.gen_range(0..9);
        if roll < 4 {
            let o = self.new_order(None);
            self.model.insert(o.key, o.price, o.lines.len());
            Op::Txn {
                script: format!(
                    "BEGIN; INSERT INTO orders VALUES {}; INSERT INTO lineitem VALUES {}; COMMIT;",
                    o.order,
                    o.lines.join(", ")
                ),
                expect: Expect::Commit {
                    inserted: 1 + o.lines.len(),
                    deleted: 0,
                    bytes: row_bytes(1, o.lines.len()),
                },
            }
        } else if roll < 8 {
            let (key, _, lines) = self.model.take_random(&mut self.rng);
            Op::Txn {
                script: format!(
                    "BEGIN; DELETE FROM lineitem WHERE l_orderkey = {key}; \
                     DELETE FROM orders WHERE o_orderkey = {key}; COMMIT;"
                ),
                expect: Expect::Commit {
                    inserted: 0,
                    deleted: 1 + lines,
                    bytes: row_bytes(1, lines),
                },
            }
        } else {
            let key = self.model.random_key(&mut self.rng);
            let price = self.rng.gen_range(1_000..5_000_000i64);
            self.model.set_price(key, price);
            Op::Txn {
                script: format!(
                    "BEGIN; UPDATE orders SET o_totalprice = {} WHERE o_orderkey = {key}; COMMIT;",
                    price_sql(price)
                ),
                expect: Expect::Commit {
                    inserted: 1,
                    deleted: 1,
                    bytes: row_bytes(2, 0),
                },
            }
        }
    }

    /// One ETL batch: `n` new orders with their line items and `n` whole
    /// existing orders deleted. A violating batch carries its bad row in
    /// the middle: a bad line item of the middle new order, or the middle
    /// deleted order keeping its `orders` row.
    fn batch_txn(&mut self, n: usize, violating: bool) -> Op {
        let bad = violating.then(|| self.next_violation());
        let mut orders = Vec::with_capacity(n);
        let mut lines = Vec::with_capacity(4 * n);
        let mut new = Vec::with_capacity(n);
        for i in 0..n {
            let kind = bad.filter(|v| *v != Violation::Stranded && i == n / 2);
            let o = self.new_order(kind);
            orders.push(o.order);
            new.push((o.key, o.price, o.lines.len()));
            lines.extend(o.lines);
        }
        let taken: Vec<(i64, i64, usize)> = (0..n)
            .map(|_| self.model.take_random(&mut self.rng))
            .collect();
        // One keyed DELETE per order: the engine plans `= key` through the
        // primary-key and foreign-key indexes.
        let mut deletes = String::new();
        for (i, t) in taken.iter().enumerate() {
            write!(deletes, "DELETE FROM lineitem WHERE l_orderkey = {}; ", t.0)
                .expect("write to a String");
            if !(bad == Some(Violation::Stranded) && i == n / 2) {
                write!(deletes, "DELETE FROM orders WHERE o_orderkey = {}; ", t.0)
                    .expect("write to a String");
            }
        }
        let script = format!(
            "BEGIN; INSERT INTO orders VALUES {}; INSERT INTO lineitem VALUES {}; {deletes}COMMIT;",
            orders.join(", "),
            lines.join(", "),
        );
        let expect = match bad {
            Some(v) => {
                // Rolled back: the deleted orders stay.
                for (k, p, l) in taken {
                    self.model.insert(k, p, l);
                }
                Expect::Reject {
                    assertion: v.assertion(),
                }
            }
            None => {
                let deleted_lines: usize = taken.iter().map(|t| t.2).sum();
                for (k, p, l) in new {
                    self.model.insert(k, p, l);
                }
                Expect::Commit {
                    inserted: n + lines.len(),
                    deleted: n + deleted_lines,
                    bytes: row_bytes(2 * n, lines.len() + deleted_lines),
                }
            }
        };
        Op::Txn { script, expect }
    }

    fn read(&mut self) -> Op {
        let key = self.model.random_key(&mut self.rng);
        Op::Read {
            sql: format!("SELECT o_totalprice FROM orders WHERE o_orderkey = {key}"),
            key,
            price_cents: self.model.price(key).expect("live key"),
        }
    }
}

/// Generate a workload's operation list from `seed`, walking `model`
/// forward to the state the list leaves behind.
pub fn operations(
    seed: u64,
    counts: TpchCounts,
    model: &mut Model,
    keys: Keys,
    mix: Mix,
) -> Vec<Op> {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        counts,
        model,
        keys,
        violations: 0,
    };
    let mut ops = Vec::new();
    let mut reads_owed = 0.0;
    for i in 0..mix.txns {
        let violating = i % mix.violate_every == mix.violate_every - 1;
        ops.push(if mix.batch == 1 {
            g.oltp_txn(violating)
        } else {
            g.batch_txn(mix.batch, violating)
        });
        reads_owed += mix.reads_per_txn;
        while reads_owed >= 1.0 {
            ops.push(g.read());
            reads_owed -= 1.0;
        }
    }
    ops
}

/// Flip the first violating transaction's expectation to "commits" — the
/// oracle self-test: a run with this list must fail.
pub fn flip_first_violation(ops: &mut [Op]) -> bool {
    for op in ops {
        if let Op::Txn { expect, .. } = op {
            if matches!(expect, Expect::Reject { .. }) {
                *expect = Expect::Commit {
                    inserted: 0,
                    deleted: 0,
                    bytes: 0,
                };
                return true;
            }
        }
    }
    false
}

/// Render rows as multi-row `INSERT` statements of at most `chunk` rows.
pub fn insert_statements(table: &str, rows: &[Box<[Value]>], chunk: usize) -> Vec<String> {
    rows.chunks(chunk)
        .map(|c| {
            let mut s = format!("INSERT INTO {table} VALUES ");
            for (i, row) in c.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('(');
                for (j, v) in row.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    match v {
                        Value::Str(t) => write!(s, "'{}'", t.replace('\'', "''")),
                        Value::Real(r) => write!(s, "{:?}", r.get()),
                        other => write!(s, "{other}"),
                    }
                    .expect("write to a String");
                }
                s.push(')');
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tintin_tpch::Dbgen;

    fn setup() -> (TpchCounts, Model) {
        let gen = Dbgen::new(0.001).with_seed(5);
        let db = gen.generate();
        (gen.counts(), Model::from_database(&db))
    }

    const OLTP: Mix = Mix {
        txns: 300,
        batch: 1,
        violate_every: 10,
        reads_per_txn: 0.25,
    };

    #[test]
    fn same_seed_gives_the_same_operation_list() {
        let (counts, model) = setup();
        let keys = Keys {
            next: model.max_key() + 1,
            stride: 1,
        };
        let (mut m1, mut m2, mut m3) = (model.clone(), model.clone(), model.clone());
        let a = operations(9, counts, &mut m1, keys, OLTP);
        let b = operations(9, counts, &mut m2, keys, OLTP);
        let c = operations(10, counts, &mut m3, keys, OLTP);
        assert_eq!(a, b);
        assert_eq!(m1, m2);
        assert_ne!(a, c);
        let batch = Mix {
            txns: 16,
            batch: 20,
            violate_every: 8,
            reads_per_txn: 4.0,
        };
        let (mut m1, mut m2) = (model.clone(), model);
        assert_eq!(
            operations(3, counts, &mut m1, keys, batch),
            operations(3, counts, &mut m2, keys, batch)
        );
    }

    #[test]
    fn mix_is_balanced_and_violations_rotate() {
        let (counts, mut model) = setup();
        let start = model.orders();
        let keys = Keys {
            next: model.max_key() + 1,
            stride: 1,
        };
        let ops = operations(1, counts, &mut model, keys, OLTP);
        let rejects: Vec<&str> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Txn {
                    expect: Expect::Reject { assertion },
                    ..
                } => Some(*assertion),
                _ => None,
            })
            .collect();
        assert_eq!(rejects.len(), 30);
        assert_eq!(
            &rejects[..3],
            &[
                "atLeastOneLineItem",
                "quantityInRange",
                "lineitemHasPartsupp"
            ]
        );
        let reads = ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 75);
        // Inserts and deletes balance: the order count stays near its start.
        let drift = (model.orders() as f64 - start as f64).abs() / start as f64;
        assert!(drift < 0.1, "order count drifted by {drift}");
    }

    #[test]
    fn flipping_marks_one_violation_valid() {
        let (counts, mut model) = setup();
        let keys = Keys {
            next: model.max_key() + 1,
            stride: 1,
        };
        let mut ops = operations(2, counts, &mut model, keys, OLTP);
        assert!(flip_first_violation(&mut ops));
        let rejects = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Txn {
                        expect: Expect::Reject { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(rejects, 29);
    }

    #[test]
    fn row_byte_constants_match_the_sizing_rule() {
        let (o, l) = (
            vec![Value::Int(1), Value::Int(2), Value::real(3.5)],
            vec![Value::Int(1); 5],
        );
        assert_eq!(tintin_tpch::sizing::row_bytes(&o), ORDER_ROW_BYTES);
        assert_eq!(tintin_tpch::sizing::row_bytes(&l), LINE_ROW_BYTES);
    }

    #[test]
    fn partitions_are_disjoint() {
        let (_, model) = setup();
        let (a, b) = (model.partition(2, 0), model.partition(2, 1));
        assert_eq!(a.orders() + b.orders(), model.orders());
        assert_eq!(a.lineitems + b.lineitems, model.lineitems);
        assert!(a.prices().iter().all(|(k, _)| k % 2 == 0));
    }
}
