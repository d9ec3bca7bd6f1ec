//! A maintained view's reads cost its edits. After `maintain_full` commits
//! a fold's output, the stale sample is redrawn from the previous draw —
//! only the edited rows' keys are hashed — and is the whole draw bit for
//! bit; the first exact query on the new state derives the columns it
//! names from the previous state's, which the new state holds across the
//! commit, instead of extracting them from every row. The fold itself
//! hashes each change row's key once, by the view's own key hasher, and
//! carries that hash into the commit. The delta plan reads each inserted
//! row once, and deltas that are no valid edit stay an error.

use std::collections::BTreeMap;

use stale_view_cleaning::catalog::Catalog;
use stale_view_cleaning::core::{AggQuery, SvcConfig, SvcView};
use stale_view_cleaning::ivm::delta::DeltaInfo;
use stale_view_cleaning::ivm::strategy::ViewDelta;
use stale_view_cleaning::ivm::view::ViewState;
use stale_view_cleaning::relalg::exec::leaf_scan_counts;
use stale_view_cleaning::relalg::plan::Plan;
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::sampling::operator::{eta_hash_count, sample_by_key};
use stale_view_cleaning::storage::{Database, Deltas, KeyTuple, StorageError, Table, Value};
use stale_view_cleaning::workloads::tpcd::{TpcdConfig, TpcdData};
use stale_view_cleaning::workloads::tpcd_views::{complex_views, join_view};

fn tpcd() -> TpcdData {
    TpcdData::generate(TpcdConfig { scale: 0.01, skew: 2.0, seed: 42 }).unwrap()
}

fn complex(id: &str) -> Plan {
    complex_views().into_iter().find(|v| v.id == id).unwrap().plan
}

/// Re-priced and inserted lineitems, new orders, and every 40th order
/// deleted (so V3's groups die and swap-remove relocates rows), split by
/// sign: insertions of new keys only, deletions only, and all of it. The
/// first two touch disjoint keys, so the deletions still apply after the
/// insertions.
fn by_sign(data: &TpcdData) -> [(&'static str, Deltas); 3] {
    let db = &data.db;
    let mut mixed = data.updates(0.1, 7).unwrap();
    for row in db.table("orders").unwrap().rows().iter().step_by(40) {
        mixed.delete(db, "orders", row).unwrap();
    }
    let (mut ins, mut del) = (Deltas::new(), Deltas::new());
    for (name, set) in mixed.iter() {
        let base = db.table(name).unwrap();
        for row in set.insertions.rows().iter().filter(|r| !base.contains_key(&base.key_of(r))) {
            ins.insert(db, name, row.clone()).unwrap();
        }
        for row in set.deletions.rows() {
            del.delete(db, name, row).unwrap();
        }
    }
    [("insert-only", ins), ("delete-only", del), ("mixed", mixed)]
}

/// `db` with `deltas` applied.
fn applied(db: &Database, deltas: &Deltas) -> Database {
    let mut next = db.clone();
    deltas.clone().apply_to(&mut next).unwrap();
    next
}

/// Each row's cells, floats by their bits, so NaN payloads and the sign of
/// zero count.
fn bits(t: &Table) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(x) => format!("f{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    t.rows().iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// `svc`'s stale sample is the whole draw of its view, row for row and bit
/// for bit.
fn assert_whole_draw(svc: &SvcView, what: &str) {
    let whole = sample_by_key(svc.view.table(), svc.config.ratio, svc.config.hash_spec());
    assert!(!whole.is_empty(), "{what}: an empty sample");
    assert!(bits(svc.stale_sample()) == bits(&whole), "{what}: not the whole draw bit for bit");
}

/// The rows of the keyed pair — both sides — that `maintain` folds into
/// `svc`'s view for `deltas`.
fn change_rows(svc: &SvcView, db: &Database, deltas: &Deltas) -> usize {
    let view = &svc.view;
    let plan = view.delta_plan(db, &DeltaInfo::of(deltas), None, None).unwrap().plan;
    let ViewDelta::Keyed { change, .. } = &plan.delta else { panic!("a keyed pair") };
    let bindings = view.delta_bindings(db, deltas, view.table());
    [&change.ins, &change.del]
        .into_iter()
        .flatten()
        .map(|side| side.run(&bindings).unwrap().len())
        .sum()
}

/// `svc.resample()`, asserting it drew whole: it hashed every row's key.
fn resample_whole(svc: &mut SvcView, what: &str) {
    let hashes = eta_hash_count();
    svc.resample();
    assert_eq!(eta_hash_count() - hashes, svc.view.len(), "{what}: drawn whole");
    assert_whole_draw(svc, what);
}

/// The derived resample equals the whole draw bit for bit on the SPJ join
/// view, V3 and V21 (through its auxiliary table), under insert-only,
/// delete-only and mixed deltas, hashing only the edited rows. It draws
/// whole, and still equals the whole draw, after a reseed, a ratio change,
/// a recompute (no lineage) and two maintenances without a redraw.
#[test]
fn a_maintained_views_resample_is_the_whole_draw_bit_for_bit() {
    let data = tpcd();
    let db = &data.db;
    let signs = by_sign(&data);
    // V21 holds one row per distinct per-supplier line count: a few dozen.
    let views =
        [("joinView", join_view(), 0.2), ("V3", complex("V3"), 0.2), ("V21", complex("V21"), 0.6)];
    for (id, plan, ratio) in views {
        for (sign, deltas) in &signs {
            let what = format!("{id} {sign}");
            let mut svc =
                SvcView::create(id, plan.clone(), db, SvcConfig::with_ratio(ratio)).unwrap();
            let origin = svc.view.table().state_id();
            let hashes = eta_hash_count();
            svc.maintain_full(db, deltas).unwrap();
            let edited = svc.view.table().edited_since(origin).expect("a fold's lineage");
            assert!(!edited.is_empty(), "{what}: the deltas reach the view");
            assert!(eta_hash_count() - hashes <= edited.len(), "{what}: hashed past the edits");
            assert_whole_draw(&svc, &what);

            // Each fallback, on a view maintained since the last draw.
            let config = svc.config;
            svc.view.maintain(db, deltas).unwrap();
            svc.config = config.reseeded(11);
            resample_whole(&mut svc, &format!("{what} reseeded"));
            svc.view.maintain(db, deltas).unwrap();
            svc.config = SvcConfig { ratio: ratio + 0.1, ..svc.config };
            resample_whole(&mut svc, &format!("{what} ratio changed"));
            let fresh = svc.view.recompute_fresh(db, deltas).unwrap();
            svc.view.commit(ViewState { table: fresh, aux: None });
            resample_whole(&mut svc, &format!("{what} recomputed"));
        }
        // Two maintenances with no redraw between them: the view's state
        // descends from the drawn one by two lineages, not one.
        let (ins, del) = (&signs[0].1, &signs[1].1);
        let mut svc = SvcView::create(id, plan, db, SvcConfig::with_ratio(ratio)).unwrap();
        svc.view.maintain(db, ins).unwrap();
        svc.view.maintain(&applied(db, ins), del).unwrap();
        resample_whole(&mut svc, &format!("{id} maintained twice"));
    }
}

/// Cost shape, no wall clock, on the join view and V3: `maintain_full`
/// makes one table clone, its fold hashes at most one key per change row
/// against the view's index plus one per row a swap-remove moves (the
/// commit reuses the staged hashes), its redraw η-hashes at most the edited
/// rows' keys, and the first exact query on the maintained state builds
/// the columns it names by derivation, extracting none. Twice in a row,
/// once while another handle holds the drawn state and once with the view
/// its only holder, so the columns cross the commit on their own.
#[test]
fn maintaining_a_view_costs_its_edits() {
    let data = tpcd();
    let db = &data.db;
    let [(_, ins), (_, del), _] = by_sign(&data);
    let after_ins = applied(db, &ins);
    let views = [
        (
            "joinView",
            join_view(),
            AggQuery::sum(col("l_extendedprice")).filter(col("l_quantity").gt(lit(20.0))),
        ),
        ("V3", complex("V3"), AggQuery::sum(col("revenue")).filter(col("n").gt(lit(2i64)))),
    ];
    for (id, plan, q) in views {
        for other_holder in [true, false] {
            let mut svc =
                SvcView::create(id, plan.clone(), db, SvcConfig::with_ratio(0.1)).unwrap();
            let builds = Table::column_build_count();
            svc.query_stale(&q).unwrap();
            let named = Table::column_build_count() - builds;
            assert!(named >= 2, "{id}: the query names {named} columns");
            let other = other_holder.then(|| svc.clone());
            for (round, (db, deltas)) in [(db, &ins), (&after_ins, &del)].into_iter().enumerate() {
                let what = format!("{id} round {round} other holder {other_holder}");
                let origin = svc.view.table().state_id();
                let change = change_rows(&svc, db, deltas);
                let keys: Vec<KeyTuple> = svc.view.table().iter_keyed().map(|(k, _)| k).collect();
                let (clones, hashes) = (Table::clone_count(), eta_hash_count());
                let key_hashes = Table::key_hash_count();
                svc.maintain_full(db, deltas).unwrap();
                let key_hashes = Table::key_hash_count() - key_hashes;
                assert_eq!(Table::clone_count() - clones, 1, "{what}: the one folded copy");
                let removed = keys.iter().filter(|k| !svc.view.table().contains_key(k)).count();
                assert!(
                    0 < key_hashes && key_hashes <= change + removed,
                    "{what}: {key_hashes} key hashes for {change} change rows and {removed} \
                     removed rows"
                );
                let edited = svc.view.table().edited_since(origin).expect("a fold's lineage");
                assert!(2 * edited.len() < svc.view.len(), "{what}: {} edits", edited.len());
                assert!(eta_hash_count() - hashes <= edited.len(), "{what}: hashed past the edits");
                let (builds, extracts) =
                    (Table::column_build_count(), Table::column_extract_count());
                svc.query_stale(&q).unwrap();
                assert_eq!(
                    Table::column_build_count() - builds,
                    named,
                    "{what}: the named columns"
                );
                assert_eq!(
                    Table::column_extract_count(),
                    extracts,
                    "{what}: derived, not extracted"
                );
            }
            drop(other);
        }
    }
}

/// Cost shape, no wall clock: the join view's `maintain` and its clean, with
/// and without a catalog, each read `__ins.lineitem` once, under deltas
/// that insert, update and delete lineitems and orders alike: every inserted
/// lineitem is scanned and η-hashed once and meets orders' new state in one
/// probe, not once per branch of `orders′ = (orders ▷ ∇orders) ∪ ∆orders`.
#[test]
fn each_inserted_lineitem_is_read_once() {
    let data = tpcd();
    let db = &data.db;
    let [_, _, (_, mixed)] = by_sign(&data);
    let info = DeltaInfo::of(&mixed);
    assert!(info.ins.contains("orders") && info.del.contains("orders"), "setup");
    let catalog = Catalog::build(db);
    let mut svc = SvcView::create("joinView", join_view(), db, SvcConfig::with_ratio(0.1)).unwrap();
    let reads = |before: &BTreeMap<String, u64>| {
        leaf_scan_counts().get("__ins.lineitem").copied().unwrap_or(0)
            - before.get("__ins.lineitem").copied().unwrap_or(0)
    };
    for catalog in [None, Some(&catalog)] {
        let before = leaf_scan_counts();
        svc.clean_sample_with(db, &mixed, catalog).unwrap();
        assert_eq!(reads(&before), 1, "clean, catalog {}", catalog.is_some());
    }
    let before = leaf_scan_counts();
    svc.view.maintain(db, &mixed).unwrap();
    assert_eq!(reads(&before), 1, "maintain");
}

/// An insertion under a key `orders` already holds, with no deletion of
/// it, is not an update: `Deltas::apply_to` rejects it, and so do the join
/// view's `maintain` and `clean_sample`, which leave the view at its epoch.
/// A new lineitem of that order makes the probe of orders' new state meet
/// both rows.
#[test]
fn an_insertion_under_a_held_key_stays_an_error() {
    let data = tpcd();
    let db = &data.db;
    let order = db.table("orders").unwrap().rows()[3].clone();
    let mut deltas = Deltas::new();
    let mut twin = order.to_vec();
    twin[4] = Value::Float(-1.0);
    deltas.insert(db, "orders", twin).unwrap();
    let mut line = db.table("lineitem").unwrap().rows()[0].to_vec();
    line[0] = order[0].clone();
    line[1] = Value::Int(1_000);
    deltas.insert(db, "lineitem", line).unwrap();
    assert!(deltas.clone().apply_to(&mut db.clone()).is_err(), "apply_to rejects it");

    let mut svc = SvcView::create("joinView", join_view(), db, SvcConfig::with_ratio(1.0)).unwrap();
    let (epoch, rows) = (svc.view.epoch(), svc.view.len());
    let twice = StorageError::DuplicateKey("(3, 1000)".into());
    assert_eq!(svc.clean_sample(db, &deltas).err(), Some(twice.clone()), "clean");
    assert_eq!(svc.view.maintain(db, &deltas).err(), Some(twice), "maintain");
    assert_eq!((svc.view.epoch(), svc.view.len()), (epoch, rows), "the view stands");
}
