//! Experiment runner: regenerates every paper claim as a table.
//!
//! ```text
//! cargo run -p aqt-bench --release --bin experiments            # all, full size
//! cargo run -p aqt-bench --release --bin experiments -- e4 e5   # a subset
//! cargo run -p aqt-bench --release --bin experiments -- --quick # smaller instances
//! cargo run -p aqt-bench --release --bin experiments -- --csv e2
//! cargo run -p aqt-bench --release --bin experiments -- --list
//! cargo run -p aqt-bench --release --bin experiments -- e10 --bench-json BENCH_engine.json
//! ```

use aqt_bench::{
    bench_delta_table, bench_regressions, engine_bench_json, measure_engine,
    parse_engine_bench_json, render_e10, run_experiment, EXPERIMENT_IDS, EXPERIMENT_INDEX,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("Usage: experiments [--quick] [--csv] [--list] [--threads N]");
        println!("                   [--bench-json PATH] [--bench-baseline PATH] [ID ...]");
        println!();
        println!("Regenerates the paper's claims as measured tables.");
        println!();
        println!("Options:");
        println!("  --quick                run smaller instances (CI-sized)");
        println!("  --csv                  emit CSV instead of rendered tables");
        println!("  --list                 print the experiment-id -> claim -> function index");
        println!("  --threads N            worker count for every parallel sweep");
        println!("                         (default: all cores)");
        println!("  --bench-json PATH      write E10's engine measurements as JSON");
        println!("                         (the perf-trajectory artifact; implies e10 runs)");
        println!("  --bench-baseline PATH  print the delta vs a committed BENCH_engine.json");
        println!("                         baseline (implies e10 runs)");
        println!("  --fail-on-regression PCT");
        println!("                         exit 1 if any baseline metric regressed more");
        println!("                         than PCT percent (requires --bench-baseline)");
        println!("  -h, --help             print this message");
        println!();
        println!("Exit status: 1 if a table has a VIOLATED verdict or a metric regressed");
        println!("past --fail-on-regression; 2 on a bad option or experiment id.");
        println!();
        println!(
            "Experiment ids (default: all): {}",
            EXPERIMENT_IDS.join(" ")
        );
        return;
    }
    if args.iter().any(|a| a == "--list") {
        let id_w = EXPERIMENT_INDEX
            .iter()
            .map(|e| e.0.len())
            .max()
            .unwrap_or(3);
        let claim_w = EXPERIMENT_INDEX
            .iter()
            .map(|e| e.1.len())
            .max()
            .unwrap_or(5);
        println!("{:<id_w$}  {:<claim_w$}  function", "id", "claim");
        println!(
            "{}  {}  {}",
            "-".repeat(id_w),
            "-".repeat(claim_w),
            "-".repeat(8)
        );
        for (id, claim, function) in EXPERIMENT_INDEX {
            println!("{id:<id_w$}  {claim:<claim_w$}  {function}");
        }
        return;
    }
    let mut quick = false;
    let mut csv = false;
    let mut bench_json: Option<String> = None;
    let mut bench_baseline: Option<String> = None;
    let mut fail_on_regression: Option<f64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--bench-json" => match iter.next() {
                Some(path) if !path.starts_with('-') => bench_json = Some(path.clone()),
                _ => {
                    eprintln!("error: --bench-json needs a path (try --help)");
                    std::process::exit(2);
                }
            },
            "--bench-baseline" => match iter.next() {
                Some(path) if !path.starts_with('-') => bench_baseline = Some(path.clone()),
                _ => {
                    eprintln!("error: --bench-baseline needs a path (try --help)");
                    std::process::exit(2);
                }
            },
            "--fail-on-regression" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => fail_on_regression = Some(pct),
                _ => {
                    eprintln!(
                        "error: --fail-on-regression needs a non-negative percentage (try --help)"
                    );
                    std::process::exit(2);
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => aqt_analysis::sweep::set_default_threads(n),
                _ => {
                    eprintln!("error: --threads needs a positive integer (try --help)");
                    std::process::exit(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown option `{other}` (try --help)");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
    }
    // Unknown experiment ids are an error, not a late panic: validate the
    // whole list upfront against the index.
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !EXPERIMENT_IDS.contains(&id.as_str()))
        .collect();
    if !unknown.is_empty() {
        for id in &unknown {
            eprintln!("error: unknown experiment id `{id}`");
        }
        eprintln!("valid ids: {}", EXPERIMENT_IDS.join(" "));
        std::process::exit(2);
    }
    let mut ids: Vec<&str> = if ids.is_empty() {
        EXPERIMENT_IDS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if (bench_json.is_some() || bench_baseline.is_some()) && !ids.contains(&"e10") {
        ids.push("e10");
    }
    if fail_on_regression.is_some() && bench_baseline.is_none() {
        eprintln!("error: --fail-on-regression requires --bench-baseline (try --help)");
        std::process::exit(2);
    }
    let mut regressed = false;
    let mut violated = false;
    let started = std::time::Instant::now();
    for id in &ids {
        let t0 = std::time::Instant::now();
        // E10 is special-cased so its measurement can also feed the JSON
        // artifact without running twice.
        let tables = if *id == "e10" {
            let report = measure_engine(quick);
            if let Some(path) = &bench_json {
                std::fs::write(path, engine_bench_json(&report))
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("[e10] wrote {path}");
            }
            let mut tables = render_e10(&report);
            if let Some(path) = &bench_baseline {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
                let baseline = parse_engine_bench_json(&text)
                    .unwrap_or_else(|e| panic!("baseline {path} is not a bench report: {e}"));
                tables.push(bench_delta_table(&report, &baseline));
                if let Some(pct) = fail_on_regression {
                    for (metric, delta) in bench_regressions(&report, &baseline, pct) {
                        eprintln!(
                            "[e10] REGRESSION: {metric} is {delta:+.1}% vs baseline \
                             (threshold -{pct}%)"
                        );
                        regressed = true;
                    }
                }
            }
            tables
        } else {
            run_experiment(id, quick)
        };
        for table in &tables {
            if table.violated() {
                eprintln!("[{id}] VIOLATED: a bound failed in {:?}", table.title());
                violated = true;
            }
            if csv {
                println!("# {}", table.title());
                print!("{}", table.to_csv());
                println!();
            } else {
                println!("{}", table.render());
            }
        }
        eprintln!("[{id}] finished in {:.1?}", t0.elapsed());
    }
    eprintln!("all experiments finished in {:.1?}", started.elapsed());
    if regressed || violated {
        std::process::exit(1);
    }
}
