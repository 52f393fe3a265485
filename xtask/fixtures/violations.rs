//! Lint self-test fixture: every content rule must fire somewhere in
//! this file. Never compiled — read by xtask's unit tests only.

use std::collections::HashMap;
use std::time::Instant;

fn nondeterministic_everything() {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    seen.insert(1, 2);
    let started = Instant::now();
    let coin: f64 = rand::random();
    let mut rng = thread_rng();
    let who: ThreadId = thread::current().id();
    println!("{seen:?} {started:?} {coin} {rng:?} {who:?}");
    let _ = run_path(&topo, proto, &pattern, 64);
    let next_hop_table = vec![u32::MAX; n * n];
}

impl Serialize for HandWrittenSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}
