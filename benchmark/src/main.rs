//! Command line of the end-to-end benchmark. `benchmark/run.sh` builds
//! this binary and forwards its arguments; see `benchmark/README.md`.

use ps_benchmark::report;
use ps_benchmark::run::{run, Budget, Plan};
use ps_benchmark::workloads::{workload, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ps-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                    [--quick] [--out DIR]
       ps-benchmark --compare FIRST.tsv SECOND.tsv

  --workload NAME  run one workload and end with the one-line JSON result
                   (without it: every workload, reps interleaved)
  --seed N         seed of the generated schedules and simulated runs (default 1)
  --seconds S      seconds to measure per workload (default 20)
  --trace [0|1]    also run the layer drives and a traced twin of every rep;
                   prints per-layer metrics and writes DIR/trace.jsonl
  --quick          2 reps of 3 simulated seconds / 0.7 s of loopback traffic
  --out DIR        where results.tsv, results.json and trace.jsonl go
  --compare A B    A/A check of two results.tsv files; exit 1 on FAIL";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the contract passes 0 or 1.
                args.traced = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("a directory")?.into()),
            "--compare" => {
                args.compare = Some((value("a file")?.into(), value("two files")?.into()))
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &Args) -> Result<ExitCode, String> {
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let (table, pass) = report::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        println!("A/A {}", if pass { "PASS" } else { "FAIL" });
        return Ok(if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }

    let workloads = match &args.workload {
        Some(name) => vec![workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    let plan = Plan {
        workloads,
        seed: args.seed,
        scale: if args.quick { Scale::QUICK } else { Scale::FULL },
        budget: if args.quick { Budget::Reps(2) } else { Budget::Seconds(args.seconds) },
        traced: args.traced,
    };
    let result = run(&plan);

    print!("{}", report::human(&result, args.traced));
    if let Some(dir) = &args.out {
        let write = |name: &str, text: String| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(name), text))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        write("results.tsv", report::results_tsv(&result))?;
        write("results.json", report::results_json(&result, args.seed, args.traced))?;
        if args.traced {
            let mut buf = Vec::new();
            result.tracer.write_jsonl(&mut buf).map_err(|e| e.to_string())?;
            write("trace.jsonl", String::from_utf8(buf).map_err(|e| e.to_string())?)?;
            println!(
                "wrote {} spans to {}",
                result.tracer.spans().len(),
                dir.join("trace.jsonl").display()
            );
        }
    }

    if args.workload.is_some() {
        // Contract mode: the verdict travels in the JSON, the exit code
        // only says the benchmark itself ran.
        println!("{}", report::contract_line(&result, &result.workloads[0], args.traced));
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
