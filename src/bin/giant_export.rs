//! `giant-export` — schema-checked JSON export of an Attention Ontology.
//!
//! Where the ontology comes from, in priority order:
//!
//! * `--checkpoint PATH` — read it out of a binary checkpoint: a
//!   driver/state checkpoint's `incr.ontology` section, or the plain
//!   `ontology` section `giant-import --checkpoint` writes;
//! * otherwise build a world fresh — `--world tiny|experiment` (default
//!   `tiny`), `--seed U64` (default 42) — through the same
//!   generate → train → mine path `giant-server` cold-starts with.
//!
//! The export validates against the builtin GIANT schema
//! (`--permissive` switches to the open-world schema) and renders the
//! interchange JSON document to `--out PATH` (default: stdout). The
//! contract, pinned by `tests/schema_interchange.rs`: feeding the output
//! to `giant-import` reproduces the ontology byte-identically.
//!
//! Every failure is a typed message on stderr and exit code 1.

use giant::adapter::{GiantSetup, ModelTrainConfig};
use giant::data::WorldConfig;
use giant::ontology::binio::{self, SectionFile};
use giant::ontology::Ontology;
use giant::schema::{export_json, Schema};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    checkpoint: Option<PathBuf>,
    world: String,
    seed: u64,
    out: Option<PathBuf>,
    permissive: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| giant::cli::flag_value(&argv, flag);
    Args {
        checkpoint: get("--checkpoint").map(PathBuf::from),
        world: get("--world").unwrap_or_else(|| "tiny".into()),
        seed: get("--seed").map_or(42, |s| s.parse().expect("--seed u64")),
        out: get("--out").map(PathBuf::from),
        permissive: argv.iter().any(|a| a == "--permissive"),
    }
}

/// Loads the ontology from a checkpoint's `incr.ontology` (driver/state
/// image) or `ontology` (import image) section.
fn load_checkpoint(path: &Path) -> Result<Ontology, String> {
    let file = SectionFile::read_file(path)
        .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
    let mut r = file
        .section("incr.ontology")
        .or_else(|_| file.section("ontology"))
        .map_err(|e| {
            format!(
                "{}: no `incr.ontology` or `ontology` section ({e})",
                path.display()
            )
        })?;
    let o = binio::read_ontology(&mut r)
        .map_err(|e| format!("decode ontology from {}: {e}", path.display()))?;
    r.expect_exhausted()
        .map_err(|e| format!("trailing bytes after ontology in {}: {e}", path.display()))?;
    Ok(o)
}

/// Builds the world fresh, exactly like `giant-server`'s cold start.
fn build_world(args: &Args) -> Result<Ontology, String> {
    let world = match args.world.as_str() {
        "tiny" => WorldConfig {
            seed: args.seed,
            ..WorldConfig::tiny()
        },
        "experiment" => WorldConfig {
            seed: args.seed,
            ..WorldConfig::experiment()
        },
        other => return Err(format!("--world must be tiny|experiment, got {other}")),
    };
    let t = Instant::now();
    eprintln!(
        "[giant-export] building {} world (seed {})...",
        args.world, args.seed
    );
    let setup = GiantSetup::generate(world);
    let (models, _) = setup.train_models(&ModelTrainConfig::small());
    let output = setup.run_pipeline(&models, &Default::default());
    eprintln!("[giant-export] built in {:.1?}", t.elapsed());
    Ok(output.ontology)
}

fn run(args: &Args) -> Result<(), String> {
    let ontology = match &args.checkpoint {
        Some(path) => load_checkpoint(path)?,
        None => build_world(args)?,
    };
    let schema = if args.permissive {
        Schema::permissive()
    } else {
        Schema::builtin()
    };
    let json = export_json(&ontology, &schema).map_err(|e| format!("export: {e}"))?;
    eprintln!(
        "[giant-export] {} nodes, schema `{}` v{}, {} bytes of JSON",
        ontology.n_nodes(),
        schema.name(),
        schema.version(),
        json.len()
    );
    match &args.out {
        Some(path) => std::fs::write(path, &json)
            .map_err(|e| format!("write {}: {e}", path.display()))?,
        None => println!("{json}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[giant-export] error: {msg}");
            ExitCode::FAILURE
        }
    }
}
