//! `perfbench-harness`: the in-process half of the end-to-end SND
//! benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-harness gen   --workload W --seed S --dir D
//! perfbench-harness trace --workload W --seed S --dir D [--baseline]
//! SND_APPROX_TRACE=1 perfbench-harness approx-phases --workload approx_series --seed S --dir D
//! ```
//!
//! `gen` writes the workload's dataset (`D/data.json`), its set-up probe
//! (`D/probe.json`) and `D/gen.json`: the input's shape and the oracle
//! the CLI output is gated against. `trace` regenerates the same input
//! from the seed, replays the workload through the library's public
//! functions with a timed span around each layer, and writes
//! `D/trace.json`. Thread count is rayon's, so run it once plainly and
//! once under `RAYON_NUM_THREADS=1 ... --baseline` (the single-threaded
//! baseline, which skips the in-process orchestration). `approx-phases`
//! is the child process the `approx_series` trace starts to read the
//! approximate tier's own sketch-phase accounting.

mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use workload::{oracle_json, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = Workload::parse(value("--workload")?)?;
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|_| "bad --seed (want an integer)".to_string())?;
    let dir = PathBuf::from(value("--dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    match args.first().map(String::as_str) {
        Some("gen") => gen(workload, seed, &dir),
        Some("trace") => {
            let inst = workload.generate(seed);
            let baseline = args.iter().any(|a| a == "--baseline");
            let json = trace::run(workload, &inst, seed, &dir, baseline)?;
            write(&dir.join("trace.json"), &json)
        }
        Some("approx-phases") if workload == Workload::ApproxSeries => {
            trace::approx_phases(&workload.generate(seed))
        }
        _ => Err("usage: perfbench-harness gen|trace --workload W --seed S --dir D".into()),
    }
}

/// Writes the dataset, the probe, and the shape-plus-oracle record.
fn gen(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let inst = workload.generate(seed);
    write(&dir.join("data.json"), &inst.to_json())?;
    // `snd anomaly` needs three states and `snd shard` two.
    let copies = if workload.all_pairs() { 2 } else { 3 };
    write(&dir.join("probe.json"), &inst.probe(copies).to_json())?;

    let started = Instant::now();
    let oracle = oracle_json(workload, &inst);
    let oracle_s = started.elapsed().as_secs_f64();
    let deltas = inst.n_deltas();
    let k = inst.states.len();
    let evals = if workload.all_pairs() {
        k * (k - 1) / 2
    } else {
        k - 1
    };
    let record = format!(
        "{{\"threads\":{},\"nodes\":{},\"edges\":{},\"snapshots\":{k},\"evals\":{evals},\
         \"n_delta_mean\":{:?},\"n_delta_max\":{},\"n_delta\":{:?},\
         \"oracle_s\":{oracle_s:?},{oracle}}}",
        rayon::current_num_threads(),
        inst.nodes,
        inst.edges.len(),
        deltas.iter().sum::<usize>() as f64 / deltas.len().max(1) as f64,
        deltas.iter().max().copied().unwrap_or(0),
        deltas,
    );
    write(&dir.join("gen.json"), &record)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
