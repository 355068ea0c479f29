//! # giant-schema — typed schema layer for the Attention Ontology
//!
//! The ontology's "types" were implicit in pipeline code; this crate makes
//! them explicit and checkable (DESIGN.md §12):
//!
//! * [`types`] — the type model: [`ObjectType`]s declare what a node of
//!   some [`NodeKind`](giant_ontology::NodeKind) may look like
//!   (required/optional typed properties with value constraints);
//!   [`LinkType`]s declare which endpoint kinds an edge kind may connect,
//!   with cardinality hints;
//! * [`schema`] — the [`Schema`] registry (validated invariants, binio
//!   codec, file persistence) plus the stock schemas:
//!   [`Schema::builtin`], derived from the structure the GIANT pipeline
//!   actually builds, and [`Schema::permissive`] for open-world use;
//! * [`validate`] — the [`Validator`]: per-node / per-edge checks and a
//!   whole-graph audit, every failure a typed [`Violation`];
//! * [`interchange`] — schema-checked JSON export/import in the
//!   `OntologyNode`/`OntologyEdge` visualizer shape, with the contract
//!   `dump(import_json(export_json(o))) == dump(o)` byte-identical.

#![forbid(unsafe_code)]

pub mod interchange;
pub mod schema;
pub mod types;
pub mod validate;

pub use interchange::{export_json, export_json_view, import_json, ExportError, ImportError};
pub use schema::{Schema, SchemaError};
pub use types::{
    node_properties, Cardinality, LinkType, ObjectType, PropType, PropValue, PropertySpec,
};
pub use validate::{Validator, Violation};
