//! # giant-nn — learning substrate for the GIANT reproduction
//!
//! The paper's models (GCTSP-Net's R-GCN, the LSTM-CRF baselines, the
//! TextSummary seq2seq, the Duet matcher, the concept–entity GBDT) were built
//! on production deep-learning stacks. Mature GNN crates are not available in
//! this environment (DESIGN.md S4), so this crate implements the required
//! layers from scratch with *manually derived backward passes*, each verified
//! against finite differences in unit tests.
//!
//! Design notes:
//! * `f64` everywhere — model sizes are tiny (hidden 32, graphs < 200 nodes),
//!   so we buy exact reproducibility and tight gradient checks for free.
//! * No autograd tape: each module caches its forward activations and exposes
//!   `backward`, which accumulates into [`Parameter::grad`]. This keeps the
//!   code auditable — every gradient formula is written out.
//! * Deterministic: all initialisation flows from a caller-provided RNG.
//!
//! Modules:
//! * [`matrix`] — dense row-major matrix with the linear algebra the layers need.
//! * [`param`] / [`optim`] — parameters and SGD/Adam.
//! * [`act`] / [`loss`] — activations and losses (softmax CE, BCE, hinge).
//! * [`linear`] / [`embedding_layer`] — dense layer and embedding tables.
//! * [`lstm`] — LSTM / BiLSTM with full BPTT.
//! * [`crf`] — linear-chain CRF (log-forward, Viterbi, exact NLL gradient).
//! * [`rgcn`] — relational graph convolution with basis decomposition (eq. 5–6).
//! * [`gbdt`] — gradient-boosted trees with logistic loss.
//! * [`gradcheck`] — finite-difference verification helpers used by tests.

#![forbid(unsafe_code)]

pub mod act;
pub mod crf;
pub mod embedding_layer;
pub mod gbdt;
pub mod gradcheck;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod optim;
pub mod param;
pub mod rgcn;

pub use act::{relu, relu_backward, sigmoid, softmax_rows, tanh};
pub use crf::LinearChainCrf;
pub use embedding_layer::EmbeddingLayer;
pub use gbdt::{Gbdt, GbdtConfig};
pub use linear::Linear;
pub use loss::{bce_with_logits, softmax_cross_entropy};
pub use lstm::{BiLstm, Lstm};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use param::Parameter;
pub use rgcn::{EdgeGroups, FrozenRgcn, RgcnLayer, TypedEdge};
