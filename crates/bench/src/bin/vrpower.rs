//! `vrpower` — command-line power estimator for virtualized FPGA routers.
//!
//! The downstream-user entry point: feed it routing tables (real dumps or
//! a synthetic family) and get the paper's model outputs for any scheme.
//!
//! ```text
//! vrpower [--k N] [--prefixes N] [--shared F] [--seed S] [--stages N]
//!         [--scheme nv|vs|vm|all] [--grade -2|-1L]
//!         [--tables dump1,dump2,...]
//!
//!   --tables   comma-separated table dump files (one per virtual network,
//!              `prefix [next-hop]` per line); overrides the synthetic
//!              workload flags
//! ```

use std::process::ExitCode;
use vr_fpga::par::ParSimulator;
use vr_net::synth::{FamilySpec, PrefixLenDistribution};
use vr_net::RoutingTable;
use vr_power::efficiency::efficiency_point;
use vr_power::models::{analytical_power, experimental_power_w};
use vr_power::{Device, Scenario, ScenarioSpec, SchemeKind, SpeedGrade};

#[derive(Debug)]
struct Args {
    k: usize,
    prefixes: usize,
    shared: f64,
    seed: u64,
    stages: usize,
    scheme: Option<SchemeKind>, // None = all
    grade: SpeedGrade,
    tables: Option<Vec<String>>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            k: 4,
            prefixes: 3725,
            shared: 0.6,
            seed: 2012,
            stages: 28,
            scheme: None,
            grade: SpeedGrade::Minus2,
            tables: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--k" => args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--prefixes" => {
                args.prefixes = value("--prefixes")?
                    .parse()
                    .map_err(|e| format!("--prefixes: {e}"))?;
            }
            "--shared" => {
                args.shared = value("--shared")?
                    .parse()
                    .map_err(|e| format!("--shared: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--stages" => {
                args.stages = value("--stages")?
                    .parse()
                    .map_err(|e| format!("--stages: {e}"))?;
            }
            "--scheme" => {
                args.scheme = match value("--scheme")?.to_lowercase().as_str() {
                    "nv" => Some(SchemeKind::NonVirtualized),
                    "vs" => Some(SchemeKind::Separate),
                    "vm" => Some(SchemeKind::Merged),
                    "all" => None,
                    other => return Err(format!("unknown scheme {other:?} (nv|vs|vm|all)")),
                };
            }
            "--grade" => {
                args.grade = match value("--grade")?.as_str() {
                    "-2" | "2" => SpeedGrade::Minus2,
                    "-1L" | "-1l" | "1L" | "1l" => SpeedGrade::Minus1L,
                    other => return Err(format!("unknown grade {other:?} (-2|-1L)")),
                };
            }
            "--tables" => {
                args.tables = Some(value("--tables")?.split(',').map(str::to_owned).collect());
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "vrpower — power estimator for virtualized FPGA routers
  --k N            virtual networks for the synthetic workload (default 4)
  --prefixes N     prefixes per table (default 3725, the paper's worst case)
  --shared F       shared-prefix fraction in [0,1] controlling overlap (0.6)
  --seed S         workload seed (2012)
  --stages N       pipeline stages (28)
  --scheme S       nv | vs | vm | all (default all)
  --grade G        -2 | -1L (default -2)
  --tables F1,F2   load real table dumps instead of the synthetic workload";

fn load_tables(args: &Args) -> Result<Vec<RoutingTable>, String> {
    match &args.tables {
        Some(paths) => paths
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                vr_net::parser::parse_dump(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect(),
        None => FamilySpec {
            k: args.k,
            prefixes_per_table: args.prefixes,
            shared_fraction: args.shared,
            seed: args.seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 16,
        }
        .generate()
        .map_err(|e| e.to_string()),
    }
}

fn report(tables: &[RoutingTable], scheme: SchemeKind, args: &Args) -> Result<(), String> {
    let spec = ScenarioSpec {
        stages: args.stages,
        ..ScenarioSpec::paper_default(scheme, args.grade)
    };
    let scenario = Scenario::build(tables, spec, Device::xc6vlx760()).map_err(|e| e.to_string())?;
    let model = analytical_power(&scenario);
    let measured = experimental_power_w(&scenario, &ParSimulator::default());
    let eff = efficiency_point(&scenario);
    let usage = scenario.resources();
    println!("\n{scheme} ({})", args.grade);
    println!("  devices               {}", usage.devices);
    println!("  clock                 {:.1} MHz", scenario.freq_mhz());
    if let Some(alpha) = scenario.alpha() {
        println!("  merging efficiency α  {alpha:.3}");
    }
    println!(
        "  BRAM                  {} × 18Kb blocks/device",
        usage.bram_blocks_per_device
    );
    println!(
        "  power (model)         {:.3} W  (static {:.2} + logic {:.4} + memory {:.4})",
        model.total_w(),
        model.static_w,
        model.logic_w,
        model.memory_w
    );
    println!("  power (post-PAR sim)  {measured:.3} W");
    println!(
        "  capacity              {:.1} Gbps @ 40 B packets",
        eff.capacity_gbps
    );
    println!("  efficiency            {:.2} mW/Gbps", eff.mw_per_gbps);
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let tables = load_tables(&args)?;
    println!(
        "workload: K = {} tables, {} routes each (max {})",
        tables.len(),
        tables.first().map_or(0, RoutingTable::len),
        tables.iter().map(RoutingTable::len).max().unwrap_or(0),
    );
    match args.scheme {
        Some(scheme) => report(&tables, scheme, &args)?,
        None => {
            for scheme in SchemeKind::ALL {
                report(&tables, scheme, &args)?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vrpower: {msg}");
            ExitCode::FAILURE
        }
    }
}
