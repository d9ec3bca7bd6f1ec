//! Property test: change-table / delta-apply maintenance agrees with full
//! recomputation for randomized insert/update/delete workloads.

use proptest::prelude::*;

use stale_view_cleaning::ivm::view::MaterializedView;
use stale_view_cleaning::relalg::aggregate::{AggFunc, AggSpec};
use stale_view_cleaning::relalg::plan::{JoinKind, Plan};
use stale_view_cleaning::relalg::scalar::{col, lit};
use stale_view_cleaning::storage::{DataType, Database, Deltas, Schema, Table, Value};

fn video_db(n_videos: usize, n_sessions: usize, seed: u64) -> Database {
    let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut db = Database::new();
    let mut video = Table::new(
        Schema::from_pairs(&[("videoId", DataType::Int), ("duration", DataType::Float)]).unwrap(),
        &["videoId"],
    )
    .unwrap();
    for v in 0..n_videos as i64 {
        video.insert(vec![Value::Int(v), Value::Float((next() % 300) as f64 / 100.0)]).unwrap();
    }
    let mut log = Table::new(
        Schema::from_pairs(&[("sessionId", DataType::Int), ("videoId", DataType::Int)]).unwrap(),
        &["sessionId"],
    )
    .unwrap();
    for s_id in 0..n_sessions as i64 {
        log.insert(vec![Value::Int(s_id), Value::Int((next() % n_videos as u64) as i64)]).unwrap();
    }
    db.create_table("video", video);
    db.create_table("log", log);
    db
}

fn random_deltas(db: &Database, ops: &[(u8, u64)]) -> Deltas {
    let mut deltas = Deltas::new();
    let n_sessions = db.table("log").unwrap().len() as i64;
    let n_videos = db.table("video").unwrap().len() as i64;
    let mut next_session = 1_000_000i64;
    for &(op, r) in ops {
        match op % 3 {
            0 => {
                // insert a new session
                deltas
                    .insert(
                        db,
                        "log",
                        vec![Value::Int(next_session), Value::Int((r % n_videos as u64) as i64)],
                    )
                    .unwrap();
                next_session += 1;
            }
            1 => {
                // delete an existing session (if not already deleted)
                let sid = (r % n_sessions as u64) as i64;
                let _ = deltas.delete(db, "log", &[Value::Int(sid), Value::Null]);
            }
            _ => {
                // update an existing session to a different video
                let sid = (r % n_sessions as u64) as i64;
                let vid = ((r / 7) % n_videos as u64) as i64;
                let _ = deltas.update(db, "log", vec![Value::Int(sid), Value::Int(vid)]);
            }
        }
    }
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn change_table_agrees_with_recompute(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..60),
    ) {
        let db = video_db(25, 300, seed);
        let view_def = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .aggregate(
                &["videoId"],
                vec![
                    AggSpec::count_all("visits"),
                    AggSpec::new("avgDur", AggFunc::Avg, col("duration")),
                ],
            );
        let mut view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        view.maintain(&db, &deltas).unwrap();
        prop_assert!(
            view.table().approx_same_contents(&expected, 1e-9),
            "IVM diverged: {} vs {} rows",
            view.len(),
            expected.len()
        );
    }

    #[test]
    fn spj_delta_apply_agrees_with_recompute(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 1..40),
    ) {
        let db = video_db(20, 200, seed);
        let view_def = Plan::scan("log")
            .join(Plan::scan("video"), JoinKind::Inner, &[("videoId", "videoId")])
            .select(col("duration").gt(lit(1.0)));
        let mut view = MaterializedView::create("v", view_def, &db).unwrap();
        let deltas = random_deltas(&db, &ops);
        let expected = view.recompute_fresh(&db, &deltas).unwrap();
        view.maintain(&db, &deltas).unwrap();
        prop_assert!(view.table().same_contents(&expected));
    }
}
