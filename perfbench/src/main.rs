//! Benchmark entry point; see the library docs.

use std::process::ExitCode;

use perfbench::{catalog, config::Config, parse_args, run};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                catalog::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = run(&args, &Config::committed());
    let specs = if args.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    eprint!("{}", out.table(&args.workload, &specs));
    println!("{}", out.json_line(&specs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
