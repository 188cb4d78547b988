//! `snd` — command-line interface to the Social Network Distance library.
//!
//! ```text
//! snd generate --nodes 2000 --steps 20 --out data.json   # synthetic series
//! snd generate --twitter --out data.json                 # simulated Twitter
//! snd simulate --list                                    # scenario registry
//! snd simulate --scenario majority-consensus \
//!              --seed 3 --out data.json                  # any dynamics model
//! snd distance --data data.json --t1 0 --t2 1            # all measures
//! snd distance --data data.json --ground icc             # ICC ground costs
//! snd distance --data data.json --approx --epsilon 0.05  # certified interval
//! snd distance --data data.json --approx --series        # certified series
//! snd anomaly --data data.json                           # score the series
//! snd predict --data data.json                           # hide & recover opinions
//! snd intervene --scenario voting --budget 2             # plan calming edits
//! snd shard --data data.json --shard 0/2 \
//!           --checkpoint part0.snd                       # one resumable shard
//! snd shard merge --out matrix.json part0.snd part1.snd  # reassemble
//! snd orchestrate --data data.json --checkpoint run.snd \
//!                 --workers 4                            # distributed all-pairs
//! snd work --data data.json --addr host:7070            # one remote worker
//! ```

use std::process::ExitCode;

mod commands;
mod dataset;
mod orchestrate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "simulate" => commands::simulate(rest),
        "distance" => commands::distance(rest),
        "anomaly" => commands::anomaly(rest),
        "predict" => commands::predict(rest),
        "intervene" => commands::intervene(rest),
        "shard" => commands::shard(rest),
        "orchestrate" => orchestrate::orchestrate(rest),
        "work" => orchestrate::work(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "snd — Social Network Distance (ICDE 2017 reproduction)\n\
         \n\
         USAGE:\n\
         \u{20}  snd generate [--nodes N] [--steps S] [--twitter] [--seed K] --out FILE\n\
         \u{20}  snd simulate --scenario NAME [--nodes N] [--steps T] [--seed S] --out FILE\n\
         \u{20}  snd simulate --list\n\
         \u{20}  snd distance --data FILE [--t1 I] [--t2 J] [--ground MODEL] [APPROX]\n\
         \u{20}  snd distance --data FILE --series [--ground MODEL] [APPROX]\n\
         \u{20}  snd anomaly  --data FILE [--top K] [--ground MODEL] [APPROX]\n\
         \u{20}      (--ground: agnostic | icc | ltc | a model family from --list)\n\
         \u{20}  snd predict  --data FILE [--targets K] [--candidates C]\n\
         \u{20}  snd intervene --scenario NAME [--budget K] [--beam B] [--nodes N]\n\
         \u{20}      [--steps T] [--rollouts R] [--horizon H] [--seed S]\n\
         \u{20}  snd shard    --data FILE --shard I/N --checkpoint FILE [--tile T] [APPROX]\n\
         \u{20}  snd shard merge --out FILE PART...\n\
         \u{20}  snd orchestrate --data FILE --checkpoint FILE [--workers N] [--listen ADDR]\n\
         \u{20}      [--tile T] [--lease-timeout S] [--target-lease S] [--out FILE]\n\
         \u{20}      [--ground MODEL] [APPROX]\n\
         \u{20}  snd work --data FILE --addr ADDR [--connect-retry S]\n\
         \u{20}      [--read-timeout S] [--ground MODEL] [APPROX]\n\
         \n\
         APPROX (certified [lower, upper] intervals instead of exact SND):\n\
         \u{20}  --approx [--epsilon E] [--landmarks L] [--budget B]\n"
    );
}
