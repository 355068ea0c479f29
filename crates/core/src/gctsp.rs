//! GCTSP-Net (paper §3.1): feature embeddings → stacked R-GCN → per-node
//! softmax classifier, plus the training loop.
//!
//! "For each node in the graph, we represent it by a feature vector
//! consisting of the embeddings of the token's NER tag, POS tag, whether it
//! is a stop word, number of characters in the token, as well as the
//! sequential id… we stack 5-layer R-GCN with hidden size 32 and number of
//! bases B = 5."
//!
//! The same network handles both tasks: binary node classification for
//! phrase mining (n_classes = 2) and 4-class event key-element recognition
//! (n_classes = 4, §3.2) — "we reuse our GCTSP-Net and train it without
//! ATSP-decoding".

use crate::qtig::{Qtig, QtigNode};
use giant_nn::{
    act, loss, Adam, EdgeGroups, EmbeddingLayer, FrozenRgcn, Linear, Matrix, Parameter, RgcnLayer,
    TypedEdge,
};
use giant_text::ner::NerTag;
use giant_text::pos::PosTag;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// GCTSP-Net hyper-parameters (defaults follow §5.2).
#[derive(Debug, Clone, Copy)]
pub struct GctspConfig {
    /// R-GCN hidden width (paper: 32).
    pub hidden: usize,
    /// Number of R-GCN layers (paper: 5).
    pub layers: usize,
    /// Basis-decomposition bases (paper: B = 5).
    pub n_bases: usize,
    /// Output classes (2 for phrase mining, 4 for key elements).
    pub n_classes: usize,
    /// Embedding width per feature.
    pub feat_dim: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs over the example set.
    pub epochs: usize,
    /// Loss weight multiplier for non-background classes (class imbalance:
    /// most QTIG nodes are negatives).
    pub positive_weight: f64,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for GctspConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            layers: 5,
            n_bases: 5,
            n_classes: 2,
            feat_dim: 8,
            lr: 0.01,
            epochs: 12,
            positive_weight: 2.0,
            seed: 42,
        }
    }
}

/// Bucket sizes for the two integer features.
const CHAR_BUCKETS: usize = 16;
const SEQ_BUCKETS: usize = 64;
const STOP_VALUES: usize = 2;

/// The GCTSP-Net model.
#[derive(Debug, Clone)]
pub struct GctspNet {
    cfg: GctspConfig,
    emb_pos: EmbeddingLayer,
    emb_ner: EmbeddingLayer,
    emb_stop: EmbeddingLayer,
    emb_char: EmbeddingLayer,
    emb_seq: EmbeddingLayer,
    layers: Vec<RgcnLayer>,
    head: Linear,
    /// Cached pre-activation inputs of each R-GCN layer (for ReLU backward).
    cache_pre: Vec<Matrix>,
    /// Inference weights of `layers`, frozen by the first inference after a
    /// weight change. Every `&mut self` method drops them, so they can never
    /// be stale.
    frozen: OnceLock<Vec<FrozenRgcn>>,
}

/// Workspace of the inference kernel. One per worker, reused from graph to
/// graph of any size: nothing an inference leaves behind is read by the
/// next, and after the largest graph nothing is allocated.
#[derive(Debug, Default)]
pub struct InferScratch {
    groups: EdgeGroups,
    /// Activations entering the current layer, row-major.
    h: Vec<f64>,
    /// Activations leaving it; swapped with `h` after each layer.
    h_next: Vec<f64>,
    work: Vec<f64>,
    logits: Vec<f64>,
}

impl GctspNet {
    /// Builds the network.
    pub fn new(cfg: GctspConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.feat_dim;
        let emb_pos = EmbeddingLayer::new(PosTag::ALL.len(), d, &mut rng);
        let emb_ner = EmbeddingLayer::new(NerTag::ALL.len(), d, &mut rng);
        let emb_stop = EmbeddingLayer::new(STOP_VALUES, d / 2, &mut rng);
        let emb_char = EmbeddingLayer::new(CHAR_BUCKETS, d / 2, &mut rng);
        let emb_seq = EmbeddingLayer::new(SEQ_BUCKETS, d, &mut rng);
        let d_in = d * 3 + d / 2 * 2;
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let input = if l == 0 { d_in } else { cfg.hidden };
            layers.push(RgcnLayer::new(
                input,
                cfg.hidden,
                crate::qtig::QtigRelation::COUNT,
                cfg.n_bases,
                &mut rng,
            ));
        }
        let head = Linear::new(cfg.hidden, cfg.n_classes, &mut rng);
        Self {
            cfg,
            emb_pos,
            emb_ner,
            emb_stop,
            emb_char,
            emb_seq,
            layers,
            head,
            cache_pre: Vec::new(),
            frozen: OnceLock::new(),
        }
    }

    /// The configuration used to build the model.
    pub fn config(&self) -> &GctspConfig {
        &self.cfg
    }

    /// Embedding ids of one node, in feature order: POS, NER, stop-word
    /// flag, character-count bucket, sequential-id bucket.
    fn node_feature_ids(n: &QtigNode) -> [usize; 5] {
        [
            n.pos.index(),
            n.ner.index(),
            usize::from(n.is_stop),
            n.char_count.min(CHAR_BUCKETS - 1),
            n.seq_id.min(SEQ_BUCKETS - 1),
        ]
    }

    fn feature_ids(qtig: &Qtig) -> [Vec<usize>; 5] {
        let mut ids: [Vec<usize>; 5] =
            std::array::from_fn(|_| Vec::with_capacity(qtig.n_nodes()));
        for n in &qtig.nodes {
            for (column, id) in ids.iter_mut().zip(Self::node_feature_ids(n)) {
                column.push(id);
            }
        }
        ids
    }

    fn edges(qtig: &Qtig) -> impl Iterator<Item = TypedEdge> + '_ {
        qtig.edges.iter().map(|&(src, dst, rel)| TypedEdge {
            src,
            dst,
            rel: rel.index(),
        })
    }

    /// Training forward pass with caching; returns per-node logits
    /// `(N × n_classes)`. The oracle the inference kernel is tested against.
    pub fn forward(&mut self, qtig: &Qtig) -> Matrix {
        self.frozen.take();
        let [pos, ner, stop, chars, seq] = Self::feature_ids(qtig);
        let x = Matrix::hcat(
            &Matrix::hcat(
                &Matrix::hcat(&self.emb_pos.forward(&pos), &self.emb_ner.forward(&ner)),
                &Matrix::hcat(&self.emb_stop.forward(&stop), &self.emb_char.forward(&chars)),
            ),
            &self.emb_seq.forward(&seq),
        );
        let edges: Vec<TypedEdge> = Self::edges(qtig).collect();
        self.cache_pre.clear();
        let mut h = x;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let pre = layer.forward(&h, &edges);
            if li + 1 < self.cfg.layers {
                self.cache_pre.push(pre.clone());
                h = act::relu(&pre);
            } else {
                h = pre;
            }
        }
        self.head.forward(&h)
    }

    /// The inference kernel: per-node logits, row-major `N × n_classes`, out
    /// of a caller-kept workspace; bit-equal to [`forward`](Self::forward)
    /// on the same weights.
    ///
    /// Feature rows are copied straight from the five embedding tables
    /// (`pos | ner | stop | char | seq`, the order `forward` concatenates
    /// them in), each layer runs [`FrozenRgcn::forward`] over the graph's
    /// `(dst, rel)` groups, and the head is [`Linear::forward_rows`] — each
    /// of them element for element the training pass's operations.
    pub fn logits_with<'s>(&self, scratch: &'s mut InferScratch, qtig: &Qtig) -> &'s [f64] {
        let frozen = self
            .frozen
            .get_or_init(|| self.layers.iter().map(RgcnLayer::freeze).collect());
        let s = scratch;
        s.groups.rebuild(qtig.n_nodes(), Self::edges(qtig));
        let tables = [
            &self.emb_pos,
            &self.emb_ner,
            &self.emb_stop,
            &self.emb_char,
            &self.emb_seq,
        ];
        s.h.clear();
        for n in &qtig.nodes {
            for (emb, id) in tables.iter().zip(Self::node_feature_ids(n)) {
                s.h.extend_from_slice(emb.table.value.row(id));
            }
        }
        for (li, layer) in frozen.iter().enumerate() {
            let relu = li + 1 < frozen.len();
            layer.forward(&s.h, &s.groups, relu, &mut s.work, &mut s.h_next);
            std::mem::swap(&mut s.h, &mut s.h_next);
        }
        self.head.forward_rows(&s.h, &mut s.logits);
        &s.logits
    }

    /// Inference-only forward: per-node logits `(N × n_classes)`.
    pub fn forward_inference(&self, qtig: &Qtig) -> Matrix {
        let mut scratch = InferScratch::default();
        self.logits_with(&mut scratch, qtig);
        Matrix::from_vec(qtig.n_nodes(), self.cfg.n_classes, scratch.logits)
    }

    /// Backward pass from `d_logits`; accumulates all parameter gradients.
    pub fn backward(&mut self, d_logits: &Matrix) {
        self.frozen.take();
        let mut dh = self.head.backward(d_logits);
        for li in (0..self.layers.len()).rev() {
            if li + 1 < self.cfg.layers {
                dh = act::relu_backward(&self.cache_pre[li], &dh);
            }
            dh = self.layers[li].backward(&dh);
        }
        // Split dX back into the five embedding slices.
        let d = self.cfg.feat_dim;
        let (left, dseq) = dh.hsplit(d * 2 + d / 2 * 2);
        let (l2, dstop_char) = left.hsplit(d * 2);
        let (dpos, dner) = l2.hsplit(d);
        let (dstop, dchar) = dstop_char.hsplit(d / 2);
        self.emb_pos.backward(&dpos);
        self.emb_ner.backward(&dner);
        self.emb_stop.backward(&dstop);
        self.emb_char.backward(&dchar);
        self.emb_seq.backward(&dseq);
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.frozen.take();
        let mut p = vec![
            &mut self.emb_pos.table,
            &mut self.emb_ner.table,
            &mut self.emb_stop.table,
            &mut self.emb_char.table,
            &mut self.emb_seq.table,
        ];
        for l in &mut self.layers {
            p.extend(l.params_mut());
        }
        p.extend(self.head.params_mut());
        p
    }

    /// Trains on `(qtig, per-node class labels)` examples with Adam,
    /// returning the mean loss of the final epoch.
    pub fn train(&mut self, examples: &[(Qtig, Vec<usize>)]) -> f64 {
        let mut opt = Adam::new(self.cfg.lr);
        let mut last_epoch_loss = 0.0;
        for _epoch in 0..self.cfg.epochs {
            let mut total = 0.0;
            for (qtig, labels) in examples {
                assert_eq!(labels.len(), qtig.n_nodes());
                let logits = self.forward(qtig);
                let weights: Vec<f64> = labels
                    .iter()
                    .map(|&c| if c > 0 { self.cfg.positive_weight } else { 1.0 })
                    .collect();
                let (l, dlogits) = loss::softmax_cross_entropy(&logits, labels, Some(&weights));
                self.backward(&dlogits);
                opt.step(&mut self.params_mut());
                total += l;
            }
            last_epoch_loss = total / examples.len().max(1) as f64;
        }
        last_epoch_loss
    }

    /// Per-node argmax class prediction.
    pub fn predict_classes(&self, qtig: &Qtig) -> Vec<usize> {
        self.predict_classes_with(&mut InferScratch::default(), qtig)
    }

    /// [`predict_classes`](Self::predict_classes) out of a caller-kept
    /// workspace.
    pub fn predict_classes_with(&self, scratch: &mut InferScratch, qtig: &Qtig) -> Vec<usize> {
        self.logits_with(scratch, qtig)
            .chunks_exact(self.cfg.n_classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Node ids predicted positive (class ≠ 0), excluding sos/eos.
    pub fn predict_positive_nodes(&self, qtig: &Qtig) -> Vec<usize> {
        self.predict_positive_nodes_with(&mut InferScratch::default(), qtig)
    }

    /// [`predict_positive_nodes`](Self::predict_positive_nodes) out of a
    /// caller-kept workspace.
    pub fn predict_positive_nodes_with(
        &self,
        scratch: &mut InferScratch,
        qtig: &Qtig,
    ) -> Vec<usize> {
        self.predict_classes_with(scratch, qtig)
            .into_iter()
            .enumerate()
            .skip(2) // sos, eos
            .filter(|(_, c)| *c != 0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_text::Annotator;

    fn qtig_of(texts: &[&str]) -> Qtig {
        let ann = Annotator::default();
        let inputs: Vec<_> = texts.iter().map(|t| ann.annotate(t)).collect();
        Qtig::build(&inputs)
    }

    fn small_cfg(n_classes: usize) -> GctspConfig {
        GctspConfig {
            hidden: 12,
            layers: 3,
            n_bases: 3,
            n_classes,
            feat_dim: 6,
            epochs: 40,
            ..GctspConfig::default()
        }
    }

    #[test]
    fn forward_shapes() {
        let q = qtig_of(&["miyazaki animated films", "famous miyazaki films"]);
        let mut net = GctspNet::new(small_cfg(2));
        let logits = net.forward(&q);
        assert_eq!(logits.rows(), q.n_nodes());
        assert_eq!(logits.cols(), 2);
        // Inference forward is identical, to the bit.
        let logits2 = net.forward_inference(&q);
        for (a, b) in logits.data().iter().zip(logits2.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let q = qtig_of(&["alpha beta gamma"]);
        let mut net = GctspNet::new(GctspConfig {
            hidden: 5,
            layers: 2,
            n_bases: 2,
            feat_dim: 4,
            ..small_cfg(2)
        });
        let labels = vec![0usize; q.n_nodes()];
        let logits = net.forward(&q);
        let (_, dlogits) = loss::softmax_cross_entropy(&logits, &labels, None);
        net.backward(&dlogits);
        giant_nn::gradcheck::check_param_grads(
            &mut net,
            |n| {
                let lg = n.forward_inference(&q);
                loss::softmax_cross_entropy(&lg, &labels, None).0
            },
            |n| n.params_mut(),
            1e-6,
            1e-4,
        );
    }

    #[test]
    fn learns_to_separate_content_from_wrappers() {
        // Train on clusters where the gold phrase is the content tokens;
        // wrapper words ("best", "what", …) are negative. The network must
        // generalise to an unseen cluster with the same structure.
        let make = |concept: &str| {
            let q1 = format!("best {concept}");
            let q2 = format!("what are the {concept}");
            let t1 = format!("top 10 {concept} of 2018");
            qtig_of(&[&q1, &q2, &t1])
        };
        let concepts_train = ["electric cars", "animated films", "marathon runners", "pop singers"];
        let mut examples = Vec::new();
        for c in concepts_train {
            let q = make(c);
            let gold: Vec<String> = giant_text::tokenize(c);
            let labels = q.binary_labels(&gold);
            examples.push((q, labels));
        }
        let mut net = GctspNet::new(small_cfg(2));
        let final_loss = net.train(&examples);
        assert!(final_loss < 0.5, "training did not converge: {final_loss}");
        // Held-out cluster.
        let q = make("budget phones");
        let pos = net.predict_positive_nodes(&q);
        let tokens: Vec<&str> = pos.iter().map(|&i| q.nodes[i].token.as_str()).collect();
        assert!(tokens.contains(&"budget"), "got {tokens:?}");
        assert!(tokens.contains(&"phones"), "got {tokens:?}");
        assert!(!tokens.contains(&"best"), "got {tokens:?}");
        assert!(!tokens.contains(&"what"), "got {tokens:?}");
    }

    #[test]
    fn four_class_mode_has_four_logits() {
        let q = qtig_of(&["quanta corp launches q7"]);
        let mut net = GctspNet::new(small_cfg(4));
        let logits = net.forward(&q);
        assert_eq!(logits.cols(), 4);
        let classes = net.predict_classes(&q);
        assert!(classes.iter().all(|&c| c < 4));
    }

    #[test]
    fn training_is_deterministic() {
        let q = qtig_of(&["alpha beta gamma delta"]);
        let labels = q.binary_labels(&["beta".to_owned(), "gamma".to_owned()]);
        let run = || {
            let mut net = GctspNet::new(small_cfg(2));
            net.train(&[(q.clone(), labels.clone())]);
            net.forward_inference(&q).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_training_reproduces_the_pinned_parameters() {
        // The pin is the hash of a build whose `backward` rebuilt every
        // `W_r` from the bases: reusing the ones `forward` built for the
        // same step must not move a bit of any trained weight.
        let clusters = [
            vec!["best electric cars", "electric cars list", "top 10 electric cars of 2018"],
            vec!["quanta corp launches q7", "q7 launch by quanta corp"],
            vec!["what are the animated films", "famous miyazaki animated films"],
        ];
        let examples: Vec<(Qtig, Vec<usize>)> = clusters
            .iter()
            .map(|texts| {
                let q = qtig_of(texts);
                let labels = (0..q.n_nodes()).map(|i| (i * 7 + 3) % 4).collect();
                (q, labels)
            })
            .collect();
        let mut net = GctspNet::new(GctspConfig {
            epochs: 5,
            ..small_cfg(4)
        });
        net.train(&examples);
        let mut hash = giant_text::fnv1a64(&[]);
        for p in net.params_mut() {
            for v in p.value.data() {
                hash = giant_text::fnv1a64_extend(hash, &v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(hash, 0x9745_7b6d_7fb9_5955, "trained parameters moved: {hash:#018x}");
    }
}
