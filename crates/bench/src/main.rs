//! `cpr-bench` — regenerates every table and figure of the CPR paper's
//! evaluation (Sec. 7 and Appendix E) on laptop-scale parameters.
//!
//! ```text
//! cpr-bench <experiment> [--seconds S] [--threads 1,2,4] [--keys N] [--part P]
//! ```
//!
//! See DESIGN.md for the experiment ↔ figure mapping and EXPERIMENTS.md
//! for paper-vs-measured results.

mod args;
mod experiments;
mod faster_run;
mod memdb_run;
mod report;

use args::{usage, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    match args.experiment.as_str() {
        "fig02" => experiments::memdb_figs::fig02(&args),
        "fig10" => experiments::memdb_figs::fig10(&args),
        "fig11" => experiments::memdb_figs::fig11(&args),
        "fig12" => experiments::faster_figs::fig12(&args),
        "fig13" => experiments::faster_figs::fig13(&args),
        "fig14" => experiments::faster_figs::fig14(&args),
        "fig15" => experiments::faster_figs::fig15(&args),
        "fig16" => experiments::memdb_figs::fig16(&args),
        "fig17" => experiments::memdb_figs::fig17(&args),
        "fig18" => experiments::faster_figs::fig18(&args),
        "phases" => experiments::faster_figs::phases(&args),
        "ablation" => experiments::ablation::ablation(&args),
        "extra" => experiments::extra::extra(&args),
        "stragglers" => experiments::stragglers::stragglers(&args),
        "net" => experiments::net::net(&args),
        "ycsb" => experiments::ycsb::ycsb(&args),
        "recovery" => experiments::recovery::recovery(&args),
        "all" => {
            experiments::memdb_figs::fig02(&args);
            experiments::memdb_figs::fig10(&args);
            experiments::memdb_figs::fig11(&args);
            experiments::faster_figs::fig12(&args);
            experiments::faster_figs::fig13(&args);
            experiments::faster_figs::fig14(&args);
            experiments::faster_figs::fig15(&args);
            experiments::memdb_figs::fig16(&args);
            experiments::memdb_figs::fig17(&args);
            experiments::faster_figs::fig18(&args);
            experiments::faster_figs::phases(&args);
            experiments::ablation::ablation(&args);
            experiments::extra::extra(&args);
        }
        other => {
            eprintln!("unknown experiment '{other}'\n{}", usage());
            std::process::exit(2);
        }
    }
    eprintln!("[cpr-bench] done in {:.1}s", t0.elapsed().as_secs_f64());
}
