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
    let _ = run_pattern(topo, proto, &pattern, 64);
    let _ = run_source(topo, proto, source, 64);
    let _ = run_source_capacity(topo, proto, source, 64, config, policy);
    let _ = measured_sigma(n, &pattern, rate);
    let _ = measured_sigma_on(&topo, &pattern, rate);
    let _ = run_scenarios(&scenarios);
    let _ = run_scenarios_with_threads(&scenarios, 2);
    let _ = run_monitored(topo, proto, &pattern, 64, monitors);
    let _ = SweepAggregate::from_summaries(&summaries);
    let next_hop_table = vec![u32::MAX; n * n];
}

impl Serialize for HandWrittenSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}
