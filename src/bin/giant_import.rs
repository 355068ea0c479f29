//! `giant-import` — schema-checked JSON import of an Attention Ontology.
//!
//! Reads an interchange document (`giant-export`'s output, possibly
//! hand-edited), validates every node and edge against the builtin GIANT
//! schema (`--permissive` for the open-world schema), and rebuilds the
//! ontology through the same registration paths the pipeline uses — so a
//! document that survives import is a real, servable ontology, not just
//! well-formed JSON.
//!
//! Flags:
//!
//! * `--in PATH` — the JSON document (required)
//! * `--dump PATH` — write the text dump (`ontology::io::dump`) to PATH
//! * `--checkpoint PATH` — write a binary checkpoint holding the imported
//!   ontology (an `ontology` section; `giant-export --checkpoint` reads
//!   it back)
//! * `--permissive` — validate against `Schema::permissive()`
//!
//! With neither `--dump` nor `--checkpoint`, the dump goes to stdout.
//! Every failure — malformed JSON, a schema violation, a graph error — is
//! a typed message on stderr and exit code 1.

use giant::ontology::binio::{self, SectionFile, Writer};
use giant::ontology::io;
use giant::schema::{import_json, Schema};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    input: PathBuf,
    dump: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    permissive: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| giant::cli::flag_value(&argv, flag);
    Ok(Args {
        input: get("--in").map(PathBuf::from).ok_or("--in PATH is required")?,
        dump: get("--dump").map(PathBuf::from),
        checkpoint: get("--checkpoint").map(PathBuf::from),
        permissive: argv.iter().any(|a| a == "--permissive"),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("read {}: {e}", args.input.display()))?;
    let schema = if args.permissive {
        Schema::permissive()
    } else {
        Schema::builtin()
    };
    let ontology = import_json(&text, &schema).map_err(|e| format!("import: {e}"))?;
    eprintln!(
        "[giant-import] {} nodes imported against schema `{}` v{}",
        ontology.n_nodes(),
        schema.name(),
        schema.version()
    );
    if let Some(path) = &args.checkpoint {
        let mut file = SectionFile::new();
        let mut w = Writer::new();
        binio::write_ontology(&ontology, &mut w);
        file.add_writer("ontology", w);
        file.write_file(path)
            .map_err(|e| format!("write checkpoint {}: {e}", path.display()))?;
        eprintln!("[giant-import] checkpoint written to {}", path.display());
    }
    let dump = io::dump(&ontology);
    match &args.dump {
        Some(path) => {
            std::fs::write(path, &dump).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[giant-import] dump written to {}", path.display());
        }
        None => {
            if args.checkpoint.is_none() {
                print!("{dump}");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("[giant-import] error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[giant-import] error: {msg}");
            ExitCode::FAILURE
        }
    }
}
