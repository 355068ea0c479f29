//! The annotation table of one pipeline run.
//!
//! Mining reads each query and title through `Annotator::annotate` — every
//! cluster's QTIG, every merge context and every event-role QTIG. A text
//! belongs to many clusters, so the table annotates each distinct text the
//! run needs once, on the run's workers, and those readers borrow from it.
//! `Annotator::annotate` is a pure function of the text, so a borrowed
//! annotation is the one a fresh call returns.
//!
//! Queries are keyed by click-graph id and titles by doc id. The table is
//! stored flat — token texts in one string, tags and arcs in two arrays —
//! because it holds every text of the corpus at once: one `AnnotatedText`
//! per text costs an allocation per token.

use crate::pipeline::PipelineInput;
use crate::qtig::{Qtig, QtigInput, QtigToken};
use giant_graph::QueryId;
use giant_text::dep::DepRel;
use giant_text::{AnnotatedText, NerTag, PosTag};

/// The slot of a text that is not annotated.
const NOT_ANNOTATED: u32 = u32::MAX;

/// Fewest texts a worker of [`AnnotationTable::extend`] annotates: about
/// a quarter millisecond of annotation, several times a thread's start.
const MIN_SHARE: usize = 64;

/// A text the table holds: a query or a document title.
#[derive(Debug, Clone, Copy)]
enum TextKey {
    Query(u32),
    Title(u32),
}

/// One annotated token; its text ends at `end` in the table's `chars` and
/// starts where the token before it ends.
#[derive(Debug, Clone, Copy)]
struct TableToken {
    end: u32,
    pos: PosTag,
    ner: NerTag,
    is_stop: bool,
}

/// Annotations of the texts one pipeline run reads (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct AnnotationTable {
    /// Query id → text slot, [`NOT_ANNOTATED`] for the rest.
    query_slot: Vec<u32>,
    /// Doc id → text slot, [`NOT_ANNOTATED`] for the rest.
    doc_slot: Vec<u32>,
    /// The texts in slot order, in parts: each worker of an extension
    /// annotates one contiguous run of slots into a part of its own, and
    /// the part is kept as the worker built it.
    parts: Vec<Part>,
    /// The first slot of each part.
    bases: Vec<u32>,
}

/// A run of annotated texts, stored flat.
#[derive(Debug)]
struct Part {
    /// Per text `s`, its first token and first arc; its tokens and arcs
    /// end where text `s + 1`'s start (one entry more than texts).
    starts: Vec<(u32, u32)>,
    chars: String,
    tokens: Vec<TableToken>,
    /// `(head, dep, rel)` over the text's token indices.
    arcs: Vec<(u32, u32, DepRel)>,
}

/// The texts one mined attention's role inference reads, as table keys:
/// the query ids behind its `source_queries` and the doc ids behind its
/// `top_titles`, in the same order.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextRefs {
    pub(crate) queries: Vec<u32>,
    pub(crate) top_docs: Vec<u32>,
}

impl AnnotationTable {
    /// Annotates, on `threads` workers, every query in `queries` and every
    /// title in `docs` that the table does not hold yet. Doc ids past the
    /// corpus are skipped: they have no title.
    pub(crate) fn extend(
        &mut self,
        input: &PipelineInput,
        threads: usize,
        queries: impl IntoIterator<Item = u32>,
        docs: impl IntoIterator<Item = u32>,
    ) {
        self.query_slot
            .resize(input.click_graph.n_queries(), NOT_ANNOTATED);
        self.doc_slot.resize(input.docs.len(), NOT_ANNOTATED);
        let mut missing = Vec::new();
        let texts: usize = self.parts.iter().map(Part::len).sum();
        let mut claim = |slot: &mut u32, key: TextKey| {
            if *slot == NOT_ANNOTATED {
                *slot = (texts + missing.len()) as u32;
                missing.push(key);
            }
        };
        for q in queries {
            claim(&mut self.query_slot[q as usize], TextKey::Query(q));
        }
        for d in docs {
            if let Some(slot) = self.doc_slot.get_mut(d as usize) {
                claim(slot, TextKey::Title(d));
            }
        }
        // Each worker annotates one contiguous share of the missing texts,
        // holding one `AnnotatedText` at a time; a share is never so small
        // that starting its thread costs more than annotating it.
        let threads = threads.min(missing.len() / MIN_SHARE).max(1);
        let share = missing.len().div_ceil(threads).max(1);
        let shares: Vec<&[TextKey]> = missing.chunks(share).collect();
        let parts = giant_exec::run_ordered(&shares, threads, |_, keys| {
            let mut part = Part {
                starts: vec![(0, 0)],
                chars: String::new(),
                tokens: Vec::new(),
                arcs: Vec::new(),
            };
            for &key in *keys {
                part.push(&input.annotator.annotate(match key {
                    TextKey::Query(q) => input.click_graph.query_text(QueryId(q)),
                    TextKey::Title(d) => &input.docs[d as usize].title,
                }));
            }
            // The part lives through mining: no growth slack.
            part.starts.shrink_to_fit();
            part.chars.shrink_to_fit();
            part.tokens.shrink_to_fit();
            part.arcs.shrink_to_fit();
            part
        });
        let mut base = texts as u32;
        for part in parts {
            self.bases.push(base);
            base += part.len() as u32;
            self.parts.push(part);
        }
    }

    fn text(&self, slot: u32) -> TableText<'_> {
        assert_ne!(slot, NOT_ANNOTATED, "text not annotated");
        let p = self.bases.partition_point(|&b| b <= slot) - 1;
        TableText {
            part: &self.parts[p],
            text: (slot - self.bases[p]) as usize,
        }
    }

    /// The annotation of query `q`.
    pub(crate) fn query(&self, q: u32) -> TableText<'_> {
        self.text(self.query_slot[q as usize])
    }

    /// The annotation of doc `d`'s title.
    pub(crate) fn title(&self, d: u32) -> TableText<'_> {
        self.text(self.doc_slot[d as usize])
    }

    /// The QTIG of the queries, then the titles — what
    /// [`crate::train::build_cluster_qtig`] builds from their texts.
    pub(crate) fn qtig(&self, queries: &[u32], docs: &[u32]) -> Qtig {
        let texts: Vec<TableText<'_>> = queries
            .iter()
            .map(|&q| self.query(q))
            .chain(docs.iter().map(|&d| self.title(d)))
            .collect();
        Qtig::build(&texts)
    }
}

impl Part {
    /// Number of texts.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Appends one annotated text.
    fn push(&mut self, text: &AnnotatedText) {
        for t in &text.tokens {
            self.chars.push_str(&t.text);
            self.tokens.push(TableToken {
                end: self.chars.len() as u32,
                pos: t.pos,
                ner: t.ner,
                is_stop: t.is_stop,
            });
        }
        self.arcs.extend(
            text.arcs
                .iter()
                .map(|a| (a.head as u32, a.dep as u32, a.rel)),
        );
        self.starts
            .push((self.tokens.len() as u32, self.arcs.len() as u32));
    }
}

/// One annotated text of an [`AnnotationTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableText<'t> {
    part: &'t Part,
    text: usize,
}

impl<'t> TableText<'t> {
    fn token_range(&self) -> std::ops::Range<usize> {
        let s = &self.part.starts;
        s[self.text].0 as usize..s[self.text + 1].0 as usize
    }

    fn token_text(&self, j: usize) -> &'t str {
        let p = self.part;
        let start = if j == 0 {
            0
        } else {
            p.tokens[j - 1].end as usize
        };
        &p.chars[start..p.tokens[j].end as usize]
    }

    /// The token texts — `giant_text::tokenize` of the text.
    pub(crate) fn token_texts(self) -> impl Iterator<Item = &'t str> {
        self.token_range().map(move |j| self.token_text(j))
    }
}

impl QtigInput for TableText<'_> {
    fn n_tokens(&self) -> usize {
        self.token_range().len()
    }

    fn token(&self, i: usize) -> QtigToken<'_> {
        let j = self.token_range().start + i;
        let t = self.part.tokens[j];
        QtigToken {
            text: self.token_text(j),
            pos: t.pos,
            ner: t.ner,
            is_stop: t.is_stop,
        }
    }

    fn arcs(&self) -> impl Iterator<Item = (usize, usize, DepRel)> + '_ {
        let s = &self.part.starts;
        self.part.arcs[s[self.text].1 as usize..s[self.text + 1].1 as usize]
            .iter()
            .map(|&(h, d, rel)| (h as usize, d as usize, rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DocRecord;
    use giant_graph::ClickGraph;
    use giant_text::Annotator;

    #[test]
    fn table_texts_build_the_qtig_of_fresh_annotations() {
        let titles = [
            "Top 10 animated films of 2018",
            "",
            "Miyazaki's animated films, ranked!",
        ];
        let queries = ["animated films", "best miyazaki films", "films"];
        let mut graph = ClickGraph::new();
        for (i, q) in queries.iter().enumerate() {
            graph.add_clicks(q, giant_graph::DocId(i as u32), 1.0);
        }
        let input = PipelineInput {
            click_graph: graph,
            docs: titles
                .iter()
                .enumerate()
                .map(|(id, t)| DocRecord {
                    id,
                    title: (*t).to_owned(),
                    sentences: Vec::new(),
                    leaf_category: 0,
                    day: 0,
                })
                .collect(),
            categories: Vec::new(),
            sessions: Vec::new(),
            entities: Vec::new(),
            annotator: Annotator::default(),
        };
        let mut table = AnnotationTable::default();
        // Two extensions, overlapping, one naming a doc past the corpus.
        table.extend(&input, 2, [2, 0], [1, 9]);
        table.extend(&input, 1, [0, 1, 2], [0, 1, 2]);
        let texts: usize = table.parts.iter().map(Part::len).sum();
        assert_eq!(texts, 6, "each text annotated once");
        let (qs, ds): (Vec<u32>, Vec<u32>) = ([1, 0, 2].into(), [2, 1, 0].into());
        let got = table.qtig(&qs, &ds);
        let want = crate::train::build_cluster_qtig(
            &input.annotator,
            &qs.iter()
                .map(|&q| queries[q as usize].to_owned())
                .collect::<Vec<_>>(),
            &ds.iter()
                .map(|&d| titles[d as usize].to_owned())
                .collect::<Vec<_>>(),
        );
        assert_eq!(format!("{:?}", got.nodes), format!("{:?}", want.nodes));
        assert_eq!(got.edges, want.edges);
        assert_eq!(got.inputs, want.inputs);
        for (d, title) in titles.iter().enumerate() {
            let toks: Vec<&str> = table.title(d as u32).token_texts().collect();
            assert_eq!(toks, giant_text::tokenize(title));
        }
    }
}
