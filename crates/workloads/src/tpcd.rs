//! TPCD-Skew-shaped data generation (Section 7.1).
//!
//! The paper evaluates on a 10 GB TPCD-Skew database \[8\]: the TPC-D schema
//! with Zipfian-distributed values, skew `z ∈ {1,2,3,4}` (`z = 2` unless
//! noted). We reproduce the schema shape and skew at an in-memory scale:
//! `scale = 1.0` ≈ 60k lineitems, with the standard TPC-H row-count ratios.
//! Only `lineitem` and `orders` receive updates, exactly as in the TPC-D
//! spec ("two tables receive insertions and updates", Section 7.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use svc_storage::{DataType, Database, Deltas, ForeignKey, Result, Schema, Table, Value};

use crate::zipf::Zipf;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpcdConfig {
    /// Scale factor: 1.0 ≈ 60k lineitems, 15k orders, 1.5k customers.
    pub scale: f64,
    /// Zipf skew `z` (1 = plain TPCD).
    pub skew: f64,
    /// RNG seed for deterministic data.
    pub seed: u64,
}

impl Default for TpcdConfig {
    fn default() -> Self {
        TpcdConfig { scale: 0.2, skew: 2.0, seed: 42 }
    }
}

/// The generated database plus the counters needed to create update
/// workloads later.
#[derive(Debug, Clone)]
pub struct TpcdData {
    /// The database with all seven base relations and their foreign keys.
    pub db: Database,
    /// Generator configuration.
    pub config: TpcdConfig,
    next_orderkey: i64,
    lineitem_rows: usize,
}

const MKT_SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];
const NATIONS: usize = 25;
const REGIONS: usize = 5;

impl TpcdData {
    /// Row counts derived from the scale factor.
    fn counts(config: &TpcdConfig) -> (usize, usize, usize, usize, usize) {
        let s = config.scale;
        let customers = ((1_500.0 * s) as usize).max(50);
        let orders = ((15_000.0 * s) as usize).max(500);
        let parts = ((2_000.0 * s) as usize).max(80);
        let suppliers = ((100.0 * s) as usize).max(10);
        let lines_per_order = 4; // TPC-H averages ~4 lineitems per order
        (customers, orders, parts, suppliers, lines_per_order)
    }

    /// Generate the full database.
    pub fn generate(config: TpcdConfig) -> Result<TpcdData> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (n_cust, n_orders, n_parts, n_supp, lines_per_order) = Self::counts(&config);
        let zip_cust = Zipf::new(n_cust, config.skew);
        let zip_part = Zipf::new(n_parts, config.skew);
        let zip_supp = Zipf::new(n_supp, config.skew);
        let zip_qty = Zipf::new(50, config.skew);
        let zip_rank = Zipf::new(100, 1.1);

        let mut db = Database::new();

        let mut region = Table::new(
            Schema::from_pairs(&[("r_regionkey", DataType::Int), ("r_name", DataType::Str)])?,
            &["r_regionkey"],
        )?;
        for r in 0..REGIONS as i64 {
            region.insert(vec![Value::Int(r), Value::str(format!("REGION#{r}"))])?;
        }
        db.create_table("region", region);

        let mut nation = Table::new(
            Schema::from_pairs(&[
                ("n_nationkey", DataType::Int),
                ("n_name", DataType::Str),
                ("n_regionkey", DataType::Int),
            ])?,
            &["n_nationkey"],
        )?;
        for n in 0..NATIONS as i64 {
            nation.insert(vec![
                Value::Int(n),
                Value::str(format!("NATION#{n}")),
                Value::Int(n % REGIONS as i64),
            ])?;
        }
        db.create_table("nation", nation);

        let mut supplier = Table::new(
            Schema::from_pairs(&[("s_suppkey", DataType::Int), ("s_nationkey", DataType::Int)])?,
            &["s_suppkey"],
        )?;
        for s in 0..n_supp as i64 {
            supplier
                .insert(vec![Value::Int(s), Value::Int(rng.random_range(0..NATIONS as i64))])?;
        }
        db.create_table("supplier", supplier);

        let mut part = Table::new(
            Schema::from_pairs(&[
                ("p_partkey", DataType::Int),
                ("p_brand", DataType::Str),
                ("p_retailprice", DataType::Float),
            ])?,
            &["p_partkey"],
        )?;
        for p in 0..n_parts as i64 {
            part.insert(vec![
                Value::Int(p),
                Value::str(format!("Brand#{}", p % 25)),
                Value::Float(900.0 + (p % 200) as f64 * 5.0),
            ])?;
        }
        db.create_table("part", part);

        let mut customer = Table::new(
            Schema::from_pairs(&[
                ("c_custkey", DataType::Int),
                ("c_nationkey", DataType::Int),
                ("c_mktsegment", DataType::Str),
                ("c_acctbal", DataType::Float),
            ])?,
            &["c_custkey"],
        )?;
        for c in 0..n_cust as i64 {
            customer.insert(vec![
                Value::Int(c),
                Value::Int(rng.random_range(0..NATIONS as i64)),
                Value::str(MKT_SEGMENTS[rng.random_range(0..MKT_SEGMENTS.len())]),
                Value::Float(rng.random_range(-999.0..9999.0)),
            ])?;
        }
        db.create_table("customer", customer);

        let mut orders = Table::new(
            Schema::from_pairs(&[
                ("o_orderkey", DataType::Int),
                ("o_custkey", DataType::Int),
                ("o_orderdate", DataType::Int),
                ("o_orderpriority", DataType::Str),
                ("o_totalprice", DataType::Float),
            ])?,
            &["o_orderkey"],
        )?;
        let mut lineitem = Table::new(
            Schema::from_pairs(&[
                ("l_orderkey", DataType::Int),
                ("l_linenumber", DataType::Int),
                ("l_partkey", DataType::Int),
                ("l_suppkey", DataType::Int),
                ("l_quantity", DataType::Float),
                ("l_extendedprice", DataType::Float),
                ("l_discount", DataType::Float),
                ("l_returnflag", DataType::Str),
                ("l_shipdate", DataType::Int),
                ("l_shipmode", DataType::Str),
            ])?,
            &["l_orderkey", "l_linenumber"],
        )?;

        let mut lineitem_rows = 0usize;
        for o in 0..n_orders as i64 {
            let (orow, lrows) = Self::make_order(
                o,
                &mut rng,
                config.skew,
                &zip_rank,
                &zip_cust,
                &zip_part,
                &zip_supp,
                &zip_qty,
                lines_per_order,
            );
            orders.insert(orow)?;
            for l in lrows {
                lineitem.insert(l)?;
                lineitem_rows += 1;
            }
        }
        db.create_table("orders", orders);
        db.create_table("lineitem", lineitem);

        for (from, fk, to, pk) in [
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
            ("lineitem", "l_partkey", "part", "p_partkey"),
            ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            ("orders", "o_custkey", "customer", "c_custkey"),
            ("customer", "c_nationkey", "nation", "n_nationkey"),
            ("nation", "n_regionkey", "region", "r_regionkey"),
        ] {
            db.add_foreign_key(ForeignKey {
                from_table: from.into(),
                from_cols: vec![fk.into()],
                to_table: to.into(),
                to_cols: vec![pk.into()],
            })?;
        }

        Ok(TpcdData { db, config, next_orderkey: n_orders as i64, lineitem_rows })
    }

    #[allow(clippy::too_many_arguments)]
    fn make_order(
        o: i64,
        rng: &mut StdRng,
        skew: f64,
        zip_rank: &Zipf,
        zip_cust: &Zipf,
        zip_part: &Zipf,
        zip_supp: &Zipf,
        zip_qty: &Zipf,
        lines_per_order: usize,
    ) -> (Vec<Value>, Vec<Vec<Value>>) {
        let orderdate = rng.random_range(0..2556i64); // ~7 years of days
        let n_lines = rng.random_range(1..=(lines_per_order * 2 - 1));
        let mut total = 0.0;
        let mut lrows = Vec::with_capacity(n_lines);
        for ln in 0..n_lines as i64 {
            let qty = zip_qty.sample(rng) as f64;
            // Skewed price: a power-law value tail whose heaviness grows
            // with z (TPCD-Skew's "larger value means a more extreme tail").
            // A rank is drawn from a fixed mild Zipf; the rank→value map
            // exponentiates with z, so z=1 gives a gentle tail and z=4 an
            // extreme one — the Figure 8 regime where a handful of records
            // dominate sums.
            let rank = zip_rank.sample(rng) as f64;
            let unit = 10.0 * rank.powf((skew + 1.0) / 2.0);
            let price = qty * unit;
            total += price;
            lrows.push(vec![
                Value::Int(o),
                Value::Int(ln),
                Value::Int(zip_part.sample(rng) as i64 - 1),
                Value::Int(zip_supp.sample(rng) as i64 - 1),
                Value::Float(qty),
                Value::Float(price),
                Value::Float(rng.random_range(0..10) as f64 / 100.0),
                Value::str(RETURN_FLAGS[rng.random_range(0..RETURN_FLAGS.len())]),
                Value::Int(orderdate + rng.random_range(1..120)),
                Value::str(SHIP_MODES[rng.random_range(0..SHIP_MODES.len())]),
            ]);
        }
        let orow = vec![
            Value::Int(o),
            Value::Int(zip_cust.sample(rng) as i64 - 1),
            Value::Int(orderdate),
            Value::str(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
            Value::Float(total),
        ];
        (orow, lrows)
    }

    /// Generate an update workload: `fraction` of the base data volume as
    /// new orders + lineitems (insertions), with 20% of the volume instead
    /// spent on updates to existing lineitems (update = delete + insert),
    /// following the Section 7.2 workload ("insertions and updates to
    /// existing records"). Deterministic for a given `seed`.
    pub fn updates(&self, fraction: f64, seed: u64) -> Result<Deltas> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let (n_cust, _, n_parts, n_supp, lines_per_order) = Self::counts(&self.config);
        let zip_cust = Zipf::new(n_cust, self.config.skew);
        let zip_part = Zipf::new(n_parts, self.config.skew);
        let zip_supp = Zipf::new(n_supp, self.config.skew);
        let zip_qty = Zipf::new(50, self.config.skew);
        let zip_rank = Zipf::new(100, 1.1);

        let mut deltas = Deltas::new();
        let target_lines = (self.lineitem_rows as f64 * fraction) as usize;
        let insert_lines = (target_lines as f64 * 0.8) as usize;
        let update_lines = target_lines - insert_lines;

        // Insertions: new orders with fresh keys.
        let mut ok = self.next_orderkey;
        let mut inserted = 0usize;
        while inserted < insert_lines {
            let (orow, lrows) = Self::make_order(
                ok,
                &mut rng,
                self.config.skew,
                &zip_rank,
                &zip_cust,
                &zip_part,
                &zip_supp,
                &zip_qty,
                lines_per_order,
            );
            deltas.insert(&self.db, "orders", orow)?;
            for l in lrows {
                deltas.insert(&self.db, "lineitem", l)?;
                inserted += 1;
            }
            ok += 1;
        }

        // Updates: re-price random existing lineitems (delete + insert with
        // the same key).
        let lineitem = self.db.table("lineitem")?;
        let n = lineitem.len();
        let mut touched = std::collections::HashSet::new();
        let mut updated = 0usize;
        while updated < update_lines && touched.len() < n / 2 {
            let i = rng.random_range(0..n);
            if !touched.insert(i) {
                continue;
            }
            let mut row = lineitem.rows()[i].clone();
            let qty = zip_qty.sample(&mut rng) as f64;
            let rank = zip_rank.sample(&mut rng) as f64;
            row[4] = Value::Float(qty);
            row[5] = Value::Float(qty * 10.0 * rank.powf((self.config.skew + 1.0) / 2.0));
            deltas.update(&self.db, "lineitem", row)?;
            updated += 1;
        }
        Ok(deltas)
    }

    /// Number of lineitem rows in the base data.
    pub fn lineitem_rows(&self) -> usize {
        self.lineitem_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_database() {
        let data = TpcdData::generate(TpcdConfig { scale: 0.05, skew: 2.0, seed: 1 }).unwrap();
        let db = &data.db;
        assert_eq!(db.table("region").unwrap().len(), 5);
        assert_eq!(db.table("nation").unwrap().len(), 25);
        let orders = db.table("orders").unwrap();
        let lineitem = db.table("lineitem").unwrap();
        assert!(orders.len() >= 500);
        assert!(lineitem.len() > orders.len());
        assert_eq!(db.foreign_keys().len(), 6);

        // Referential integrity: every lineitem references a real order.
        let ok_idx = lineitem.schema().resolve("l_orderkey").unwrap();
        for row in lineitem.rows().iter().take(500) {
            let key = svc_storage::KeyTuple(vec![row[ok_idx].clone()]);
            assert!(orders.get(&key).is_some());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpcdData::generate(TpcdConfig { scale: 0.02, skew: 2.0, seed: 9 }).unwrap();
        let b = TpcdData::generate(TpcdConfig { scale: 0.02, skew: 2.0, seed: 9 }).unwrap();
        assert!(a.db.table("lineitem").unwrap().same_contents(b.db.table("lineitem").unwrap()));
        let c = TpcdData::generate(TpcdConfig { scale: 0.02, skew: 2.0, seed: 10 }).unwrap();
        assert!(!a.db.table("lineitem").unwrap().same_contents(c.db.table("lineitem").unwrap()));
    }

    #[test]
    fn skew_concentrates_customers() {
        let skewed = TpcdData::generate(TpcdConfig { scale: 0.05, skew: 3.0, seed: 5 }).unwrap();
        let orders = skewed.db.table("orders").unwrap();
        let ck = orders.schema().resolve("o_custkey").unwrap();
        let hot = orders.rows().iter().filter(|r| r[ck].as_i64().unwrap() == 0).count() as f64
            / orders.len() as f64;
        assert!(hot > 0.5, "z=3 should send most orders to customer 0, got {hot}");
    }

    #[test]
    fn update_workload_has_requested_volume() {
        let data = TpcdData::generate(TpcdConfig { scale: 0.05, skew: 2.0, seed: 2 }).unwrap();
        let deltas = data.updates(0.1, 7).unwrap();
        let li = deltas.get("lineitem").unwrap();
        let total_new = li.insertions.len();
        let expected = (data.lineitem_rows() as f64 * 0.1) as usize;
        assert!(
            total_new >= expected * 9 / 10 && total_new <= expected * 13 / 10,
            "lineitem delta volume {total_new} vs target {expected}"
        );
        // Updates produce matching deletions.
        assert!(!li.deletions.is_empty());
        assert!(deltas.get("orders").unwrap().deletions.is_empty());

        // Applying the deltas must succeed (keys are consistent).
        let mut db2 = data.db;
        deltas.clone().apply_to(&mut db2).unwrap();
    }
}
