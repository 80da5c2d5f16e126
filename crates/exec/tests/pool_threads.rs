//! The pool's helper threads start once: repeated drives reuse them. This
//! is the only test in its binary, so no other drive widens the set.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use dash_common::StatementContext;
use dash_exec::pool::run_morsels;

#[test]
fn width_four_drives_run_on_at_most_four_threads() {
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let stmt = StatementContext::unbounded();
    for _ in 0..200 {
        let run = run_morsels(32, 4, &stmt, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            Ok(i)
        })
        .unwrap();
        assert_eq!(run.results, (0..32).collect::<Vec<_>>());
        assert_eq!(run.workers_used, 4);
    }
    let ids = ids.into_inner().unwrap();
    assert!(
        ids.len() <= 4,
        "{} distinct worker threads across 200 drives",
        ids.len()
    );
}
