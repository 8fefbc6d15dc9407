//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hd-bench --bin experiments -- all
//! cargo run --release -p hd-bench --bin experiments -- table1 glb figs
//! cargo run --release -p hd-bench --bin experiments -- --fast all
//! ```

use hd_adversarial::Epsilon;
use hd_bench::experiments::*;
use hd_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let scale = if fast { Scale::Fast } else { Scale::Full };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "table1",
            "observability",
            "prober",
            "glb",
            "finalize",
            "figs",
            "ablations",
            "prune_matrix",
            "channel_matrix",
            "quantized",
        ]
    } else {
        wanted
    };

    for name in wanted {
        #[expect(clippy::disallowed_methods, reason = "prints wall time only")]
        let t0 = std::time::Instant::now();
        match name {
            "table1" => println!("{}", table1(scale)),
            "observability" => println!("{}", observability_table(scale)),
            "prober" => println!("{}", prober_table(scale)),
            "glb" => println!("{}", glb_bound_table(scale)),
            "finalize" => println!("{}", final_solution_table(scale)),
            "figs" | "fig4" | "fig5" | "fig6" => {
                let prepared = prepare_models(scale, 42);
                if name == "figs" || name == "fig4" {
                    println!("{}", fig4_accuracy(&prepared));
                }
                if name == "figs" || name == "fig5" {
                    println!("{}", fig5_fig6_transfer(&prepared, Epsilon::fig5()));
                }
                if name == "figs" || name == "fig6" {
                    println!("{}", fig5_fig6_transfer(&prepared, Epsilon::fig6()));
                }
            }
            "prune_matrix" => println!("{}", prune_matrix(scale)),
            "channel_matrix" => println!("{}", channel_matrix(scale)),
            "quantized" => println!("{}", quantized_table(scale)),
            "ablations" => {
                println!("{}", codec_ablation(scale));
                println!("{}", defence_ablation(scale));
                println!("{}", probe_budget_ablation(scale));
                println!("{}", generality_sweep(scale));
            }
            other => {
                eprintln!("unknown experiment `{other}`; known: table1 observability prober glb finalize figs fig4 fig5 fig6 ablations prune_matrix channel_matrix quantized all");
                std::process::exit(2);
            }
        }
        eprintln!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
