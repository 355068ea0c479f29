//! Binary checkpoint codec for the cross-run [`PipelineCaches`] — the warm
//! state a restarted incremental process needs to resume delta folding
//! without re-mining.
//!
//! Built on `giant_ontology::binio` primitives; every float is serialised
//! as its bit pattern and every map in sorted key order, so the restored
//! caches are **bit-identical** to the captured ones (the cache soundness
//! contract of [`crate::cache`] then carries over unchanged: a restored
//! hit returns exactly what a fresh computation would).

use crate::cache::{
    EntityLookupCache, MineEntry, MineFingerprint, MineOutcome, PipelineCaches, TextCache,
};
use crate::pipeline::ClusterCandidate;
use giant_graph::cluster::QueryDocCluster;
use giant_graph::plan::PlanCache;
use giant_graph::walk::WalkFootprint;
use giant_graph::{DocId, QueryId};
use giant_ontology::binio::{BinError, Reader, Writer};
use giant_ontology::EventRole;
use giant_text::TfIdf;

fn write_weighted_u32s<T: Copy, F: Fn(T) -> u32>(w: &mut Writer, xs: &[(T, f64)], id: F) {
    w.len_prefix(xs.len(), "weighted ids");
    for &(x, weight) in xs {
        w.u32(id(x));
        w.f64(weight);
    }
}

fn read_weighted<T, F: Fn(u32) -> T>(r: &mut Reader<'_>, make: F) -> Result<Vec<(T, f64)>, BinError> {
    let n = r.len(12, "weighted id list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let weight = r.f64()?;
        out.push((make(id), weight));
    }
    Ok(out)
}

fn write_cluster(w: &mut Writer, c: &QueryDocCluster) {
    w.u32(c.seed.0);
    write_weighted_u32s(w, &c.queries, |q: QueryId| q.0);
    write_weighted_u32s(w, &c.docs, |d: DocId| d.0);
}

fn read_cluster(r: &mut Reader<'_>) -> Result<QueryDocCluster, BinError> {
    let seed = QueryId(r.u32()?);
    let queries = read_weighted(r, QueryId)?;
    let docs = read_weighted(r, DocId)?;
    Ok(QueryDocCluster { seed, queries, docs })
}

fn write_plan_cache(w: &mut Writer, cache: &PlanCache) {
    w.usize(cache.reused);
    w.usize(cache.walked);
    let entries = cache.entries();
    w.len_prefix(entries.len(), "plan cache entries");
    for (seed, cluster, footprint) in entries {
        w.u32(seed);
        write_cluster(w, cluster);
        w.u32_slice(&footprint.queries);
        w.u32_slice(&footprint.docs);
    }
}

fn read_plan_cache(r: &mut Reader<'_>) -> Result<PlanCache, BinError> {
    let reused = r.usize()?;
    let walked = r.usize()?;
    let n = r.len(13, "plan cache entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let seed = r.u32()?;
        let cluster = read_cluster(r)?;
        let footprint = WalkFootprint {
            queries: r.u32_vec()?,
            docs: r.u32_vec()?,
        };
        entries.push((seed, cluster, footprint));
    }
    Ok(PlanCache::from_entries(entries, reused, walked))
}

fn write_candidate(w: &mut Writer, c: &ClusterCandidate) {
    w.str_slice(&c.tokens);
    w.bool(c.is_event);
    w.f64(c.support);
    w.str_slice(&c.queries);
    w.str_slice(&c.top_titles);
    w.len_prefix(c.clicked.len(), "clicked");
    for &d in &c.clicked {
        w.usize(d);
    }
    match c.day {
        Some(d) => {
            w.bool(true);
            w.u32(d);
        }
        None => w.bool(false),
    }
    w.str_slice(&c.context);
}

fn read_candidate(r: &mut Reader<'_>) -> Result<ClusterCandidate, BinError> {
    let tokens = r.str_vec()?;
    let is_event = r.bool()?;
    let support = r.f64()?;
    let queries = r.str_vec()?;
    let top_titles = r.str_vec()?;
    let n_clicked = r.len(8, "clicked docs")?;
    let mut clicked = Vec::with_capacity(n_clicked);
    for _ in 0..n_clicked {
        clicked.push(r.usize()?);
    }
    let day = if r.bool()? { Some(r.u32()?) } else { None };
    let context = r.str_vec()?;
    Ok(ClusterCandidate {
        tokens,
        is_event,
        support,
        queries,
        top_titles,
        clicked,
        day,
        context,
    })
}

fn write_mine_cache(
    w: &mut Writer,
    mine: &std::collections::HashMap<u32, MineEntry>,
) {
    let mut seeds: Vec<u32> = mine.keys().copied().collect();
    seeds.sort_unstable();
    w.len_prefix(seeds.len(), "mine cache seeds");
    for seed in seeds {
        let e = &mine[&seed];
        w.u32(seed);
        w.u32_slice(&e.fp.queries);
        w.u32_slice(&e.fp.docs);
        w.u64(e.fp.seed_total);
        match &e.outcome {
            MineOutcome::Dead => w.u8(0),
            MineOutcome::Decoded { surface, cand } => {
                w.u8(1);
                w.str(surface);
                write_candidate(w, cand);
            }
        }
    }
}

fn read_mine_cache(
    r: &mut Reader<'_>,
) -> Result<std::collections::HashMap<u32, MineEntry>, BinError> {
    let n = r.len(21, "mine cache entries")?;
    let mut mine = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        let seed = r.u32()?;
        let fp = MineFingerprint {
            queries: r.u32_vec()?,
            docs: r.u32_vec()?,
            seed_total: r.u64()?,
        };
        let at = r.position();
        let outcome = match r.u8()? {
            0 => MineOutcome::Dead,
            1 => {
                let surface = r.str()?;
                let cand = read_candidate(r)?;
                MineOutcome::Decoded { surface, cand }
            }
            t => return Err(BinError { at, message: format!("bad mine outcome tag {t}") }),
        };
        mine.insert(seed, MineEntry { fp, outcome });
    }
    Ok(mine)
}

/// Serialises a TF-IDF table: sorted `(term, df)` pairs plus the doc
/// count. The one byte-format definition for `TfIdf` — the serving-frame
/// codec in `giant-apps` reuses it.
pub fn write_tfidf(w: &mut Writer, t: &TfIdf) {
    let df = t.doc_frequencies();
    w.len_prefix(df.len(), "tfidf terms");
    for (term, count) in df {
        w.str(term);
        w.u32(count);
    }
    w.u32(t.n_docs());
}

/// Restores a table written by [`write_tfidf`] (bit-exact IDF: both
/// inputs of the formula are carried verbatim).
pub fn read_tfidf(r: &mut Reader<'_>) -> Result<TfIdf, BinError> {
    let n = r.len(9, "tfidf terms")?;
    let mut df = Vec::with_capacity(n);
    for _ in 0..n {
        let term = r.str()?;
        let count = r.u32()?;
        df.push((term, count));
    }
    let n_docs = r.u32()?;
    Ok(TfIdf::from_parts(df, n_docs))
}

fn write_text_cache(w: &mut Writer, t: &TextCache) {
    write_tfidf(w, &t.tfidf);
    w.len_prefix(t.titles.len(), "titles");
    for title in &t.titles {
        w.str_slice(title);
    }
    w.len_prefix(t.sentences.len(), "sentences");
    for doc in &t.sentences {
        w.len_prefix(doc.len(), "doc sentences");
        for sent in doc {
            w.str_slice(sent);
        }
    }
    w.len_prefix(t.entity_presence.len(), "entity presence");
    for doc in &t.entity_presence {
        w.len_prefix(doc.len(), "doc entity rows");
        for row in doc {
            w.u32_slice(row);
        }
    }
    w.usize(t.entities_seen);
}

fn read_text_cache(r: &mut Reader<'_>) -> Result<TextCache, BinError> {
    let tfidf = read_tfidf(r)?;
    let n_titles = r.len(4, "titles")?;
    let mut titles = Vec::with_capacity(n_titles);
    for _ in 0..n_titles {
        titles.push(r.str_vec()?);
    }
    let n_sent_docs = r.len(4, "sentence docs")?;
    let mut sentences = Vec::with_capacity(n_sent_docs);
    for _ in 0..n_sent_docs {
        let n_sents = r.len(4, "sentences")?;
        let mut doc = Vec::with_capacity(n_sents);
        for _ in 0..n_sents {
            doc.push(r.str_vec()?);
        }
        sentences.push(doc);
    }
    let n_pres_docs = r.len(4, "presence docs")?;
    let mut entity_presence = Vec::with_capacity(n_pres_docs);
    for _ in 0..n_pres_docs {
        let n_rows = r.len(4, "presence rows")?;
        let mut doc = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            doc.push(r.u32_vec()?);
        }
        entity_presence.push(doc);
    }
    let entities_seen = r.usize()?;
    Ok(TextCache {
        tfidf,
        titles,
        sentences,
        entity_presence,
        entities_seen,
    })
}

impl PipelineCaches {
    /// Serialises every cache (plan, mine, text, roles, entity lookup),
    /// bit-exact and byte-deterministic.
    pub fn write_checkpoint(&self, w: &mut Writer) {
        write_plan_cache(w, &self.plan);
        write_mine_cache(w, &self.mine);
        write_text_cache(w, &self.text);
        let mut role_keys: Vec<&String> = self.roles.keys().collect();
        role_keys.sort();
        w.len_prefix(role_keys.len(), "role keys");
        for key in role_keys {
            w.str(key);
            let roles = &self.roles[key];
            w.len_prefix(roles.len(), "roles");
            for role in roles {
                w.u8(role.index() as u8);
            }
        }
        let mut lookup_keys: Vec<&String> = self.entity_lookup.map.keys().collect();
        lookup_keys.sort();
        w.len_prefix(lookup_keys.len(), "lookup keys");
        for key in lookup_keys {
            w.str(key);
            let (hit, checked) = self.entity_lookup.map[key];
            match hit {
                Some(i) => {
                    w.bool(true);
                    w.u32(i);
                }
                None => w.bool(false),
            }
            w.usize(checked);
        }
    }

    /// Restores caches written by [`PipelineCaches::write_checkpoint`].
    pub fn read_checkpoint(r: &mut Reader<'_>) -> Result<Self, BinError> {
        let plan = read_plan_cache(r)?;
        let mine = read_mine_cache(r)?;
        let text = read_text_cache(r)?;
        let n_roles = r.len(9, "role memo")?;
        let mut roles = std::collections::HashMap::with_capacity(n_roles);
        for _ in 0..n_roles {
            let key = r.str()?;
            let n = r.len(1, "roles")?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                let at = r.position();
                let i = r.u8()? as usize;
                let role = EventRole::ALL.get(i).copied().ok_or_else(|| BinError {
                    at,
                    message: format!("bad event role {i}"),
                })?;
                rs.push(role);
            }
            roles.insert(key, rs);
        }
        let n_lookup = r.len(14, "entity lookup memo")?;
        let mut map = std::collections::HashMap::with_capacity(n_lookup);
        for _ in 0..n_lookup {
            let key = r.str()?;
            let hit = if r.bool()? { Some(r.u32()?) } else { None };
            let checked = r.usize()?;
            map.insert(key, (hit, checked));
        }
        Ok(Self {
            plan,
            mine,
            text,
            roles,
            entity_lookup: EntityLookupCache { map },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giant_graph::plan::DirtySet;

    fn sample_caches() -> PipelineCaches {
        let mut c = PipelineCaches::new();
        c.plan = PlanCache::from_entries(
            vec![(
                3,
                QueryDocCluster {
                    seed: QueryId(3),
                    queries: vec![(QueryId(3), 0.6), (QueryId(5), 0.25)],
                    docs: vec![(DocId(1), 0.5)],
                },
                WalkFootprint {
                    queries: vec![3, 5],
                    docs: vec![1],
                },
            )],
            2,
            7,
        );
        c.mine.insert(
            3,
            MineEntry {
                fp: MineFingerprint {
                    queries: vec![3, 5],
                    docs: vec![1],
                    seed_total: 4.75f64.to_bits(),
                },
                outcome: MineOutcome::Decoded {
                    surface: "solar panels".into(),
                    cand: ClusterCandidate {
                        tokens: vec!["solar".into(), "panels".into()],
                        is_event: false,
                        support: 4.75,
                        queries: vec!["cheap solar panels".into()],
                        top_titles: vec!["best solar panels".into()],
                        clicked: vec![1],
                        day: Some(9),
                        context: vec!["solar".into(), "panels".into(), "best".into()],
                    },
                },
            },
        );
        c.mine.insert(
            9,
            MineEntry {
                fp: MineFingerprint {
                    queries: vec![9],
                    docs: vec![],
                    seed_total: 0,
                },
                outcome: MineOutcome::Dead,
            },
        );
        c.text.tfidf.add_doc(["solar", "panels"]);
        c.text.titles.push(vec!["solar".into(), "panels".into()]);
        c.text.sentences.push(vec![vec!["great".into(), "panels".into()]]);
        c.text.entity_presence.push(vec![vec![0, 2]]);
        c.text.entities_seen = 3;
        c.roles.insert(
            "k".into(),
            vec![EventRole::Trigger, EventRole::Entity, EventRole::Other],
        );
        c.entity_lookup.map.insert("solar panels".into(), (Some(0), 3));
        c.entity_lookup.map.insert("nothing here".into(), (None, 3));
        c
    }

    #[test]
    fn caches_round_trip_bit_exactly() {
        let c = sample_caches();
        let mut w = Writer::new();
        c.write_checkpoint(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let c2 = PipelineCaches::read_checkpoint(&mut r).unwrap();
        r.expect_exhausted().unwrap();

        assert_eq!(c.cached_plans(), c2.cached_plans());
        assert_eq!(c.cached_minings(), c2.cached_minings());
        assert_eq!(format!("{:?}", c.plan.entries()), format!("{:?}", c2.plan.entries()));
        assert_eq!(c.roles, c2.roles);
        assert_eq!(c.entity_lookup.map, c2.entity_lookup.map);
        assert_eq!(c.text.titles, c2.text.titles);
        assert_eq!(c.text.sentences, c2.text.sentences);
        assert_eq!(c.text.entity_presence, c2.text.entity_presence);
        assert_eq!(c.text.entities_seen, c2.text.entities_seen);
        assert_eq!(c.text.tfidf.n_docs(), c2.text.tfidf.n_docs());
        assert_eq!(c.text.tfidf.doc_frequencies(), c2.text.tfidf.doc_frequencies());
        assert_eq!(
            c.text.tfidf.idf("solar").to_bits(),
            c2.text.tfidf.idf("solar").to_bits(),
            "idf must be bit-exact after restore"
        );
        // Mine entries compare by fingerprint + rendered outcome.
        for seed in [3u32, 9] {
            let a = &c.mine[&seed];
            let b = &c2.mine[&seed];
            assert_eq!(a.fp, b.fp);
            assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
        }
        // Serialisation is deterministic: same state, same bytes.
        let mut w2 = Writer::new();
        c2.write_checkpoint(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn restored_plan_cache_still_invalidates_by_footprint() {
        let c = sample_caches();
        let mut w = Writer::new();
        c.write_checkpoint(&mut w);
        let bytes = w.into_bytes();
        let mut c2 = PipelineCaches::read_checkpoint(&mut Reader::new(&bytes)).unwrap();
        let mut dirty = DirtySet::new();
        dirty.mark_query(5);
        assert_eq!(c2.invalidate(&dirty), 1, "restored footprints must still evict");
        assert_eq!(c2.cached_plans(), 0);
    }

    #[test]
    fn empty_caches_round_trip() {
        let c = PipelineCaches::new();
        let mut w = Writer::new();
        c.write_checkpoint(&mut w);
        let bytes = w.into_bytes();
        let c2 = PipelineCaches::read_checkpoint(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(c2.cached_plans(), 0);
        assert_eq!(c2.cached_minings(), 0);
    }
}
