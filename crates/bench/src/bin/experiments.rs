//! Experiment runner: regenerates every paper claim as a table.
//!
//! ```text
//! cargo run -p aqt-bench --release --bin experiments            # all, full size
//! cargo run -p aqt-bench --release --bin experiments -- e4 e5   # a subset
//! cargo run -p aqt-bench --release --bin experiments -- --quick # smaller instances
//! cargo run -p aqt-bench --release --bin experiments -- --csv e2
//! cargo run -p aqt-bench --release --bin experiments -- --list
//! cargo run -p aqt-bench --release --bin experiments -- --quick --bench-json BENCH_engine.json e10
//! ```

use std::io::Write;

use aqt_bench::{experiment, EngineBench, EXPERIMENTS};

/// Prints `error: {message}` and exits 2, the status for bad input.
fn bad_input(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all_ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
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
        println!("  --bench-json PATH      write the engine records of e10 e13 e14 e16 as JSON");
        println!("                         (the perf-trajectory artifact; implies they run)");
        println!("  --bench-baseline PATH  print the delta vs a committed BENCH_engine.json");
        println!("                         baseline, record by record (implies e10 e13 e14 e16)");
        println!("  --fail-on-regression PCT");
        println!("                         exit 1 if the instance differs from the baseline's,");
        println!("                         a baseline record is missing, a count differs, or");
        println!("                         a record's stepping is more than PCT percent slower");
        println!("                         (requires --bench-baseline)");
        println!("  -h, --help             print this message");
        println!();
        println!("Exit status: 1 if a table has a VIOLATED verdict or the regression gate");
        println!("fails; 2 on a bad option, experiment id, baseline or --bench-json path.");
        println!();
        println!("Experiment ids (default: all): {}", all_ids.join(" "));
        return;
    }
    if args.iter().any(|a| a == "--list") {
        let id_w = EXPERIMENTS.iter().map(|e| e.id.len()).max().unwrap_or(3);
        let claim_w = EXPERIMENTS.iter().map(|e| e.claim.len()).max().unwrap_or(5);
        println!("{:<id_w$}  {:<claim_w$}  function", "id", "claim");
        println!(
            "{}  {}  {}",
            "-".repeat(id_w),
            "-".repeat(claim_w),
            "-".repeat(8)
        );
        for e in &EXPERIMENTS {
            println!("{:<id_w$}  {:<claim_w$}  {}", e.id, e.claim, e.function);
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
                _ => bad_input("--bench-json needs a path (try --help)"),
            },
            "--bench-baseline" => match iter.next() {
                Some(path) if !path.starts_with('-') => bench_baseline = Some(path.clone()),
                _ => bad_input("--bench-baseline needs a path (try --help)"),
            },
            "--fail-on-regression" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => fail_on_regression = Some(pct),
                _ => bad_input("--fail-on-regression needs a non-negative percentage (try --help)"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => aqt_analysis::sweep::set_default_threads(n),
                _ => bad_input("--threads needs a positive integer (try --help)"),
            },
            other if other.starts_with('-') => {
                bad_input(format!("unknown option `{other}` (try --help)"))
            }
            id => ids.push(id.to_string()),
        }
    }
    // Unknown experiment ids are an error, not a late panic: validate the
    // whole list upfront against the index.
    let unknown: Vec<&String> = ids.iter().filter(|id| experiment(id).is_none()).collect();
    if !unknown.is_empty() {
        for id in &unknown {
            eprintln!("error: unknown experiment id `{id}`");
        }
        eprintln!("valid ids: {}", all_ids.join(" "));
        std::process::exit(2);
    }
    let mut ids: Vec<&str> = if ids.is_empty() {
        all_ids
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if fail_on_regression.is_some() && bench_baseline.is_none() {
        bad_input("--fail-on-regression requires --bench-baseline (try --help)");
    }
    // Bad bench input fails here, before any experiment runs.
    let baseline = bench_baseline.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| bad_input(format!("cannot read baseline {path}: {e}")));
        serde_json::from_str::<EngineBench>(&text).unwrap_or_else(|e| {
            bad_input(format!(
                "baseline {path} is not an engine bench record: {e}"
            ))
        })
    });
    let bench_file = bench_json.map(|path| {
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| bad_input(format!("cannot create {path}: {e}")));
        (path, file)
    });
    if baseline.is_some() || bench_file.is_some() {
        for e in EXPERIMENTS.iter().filter(|e| e.is_engine()) {
            if !ids.contains(&e.id) {
                ids.push(e.id);
            }
        }
    }
    let print = |table: &aqt_analysis::Table| {
        if csv {
            println!("# {}", table.title());
            print!("{}", table.to_csv());
            println!();
        } else {
            println!("{}", table.render());
        }
    };
    let mut violated = false;
    let mut bench = EngineBench {
        quick,
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        runs: Vec::new(),
    };
    let started = std::time::Instant::now();
    for id in &ids {
        let t0 = std::time::Instant::now();
        let (runs, tables) = experiment(id).expect("ids were checked").run(quick);
        bench.runs.extend(runs);
        for table in &tables {
            if table.violated() {
                eprintln!("[{id}] VIOLATED: a bound failed in {:?}", table.title());
                violated = true;
            }
            print(table);
        }
        eprintln!("[{id}] finished in {:.1?}", t0.elapsed());
    }
    eprintln!("all experiments finished in {:.1?}", started.elapsed());
    if let Some((path, mut file)) = bench_file {
        let json = serde_json::to_string_pretty(&bench).expect("records serialize");
        file.write_all(json.as_bytes())
            .unwrap_or_else(|e| bad_input(format!("cannot write {path}: {e}")));
        eprintln!("[bench] wrote {path}");
    }
    let mut regressed = false;
    if let Some(baseline) = baseline {
        let (table, failures) =
            bench.compare(&baseline, fail_on_regression.unwrap_or(f64::INFINITY));
        print(&table);
        if let Some(pct) = fail_on_regression {
            for failure in failures {
                eprintln!("[bench] REGRESSION (gate -{pct}%): {failure}");
                regressed = true;
            }
        }
    }
    if regressed || violated {
        std::process::exit(1);
    }
}
