//! `Similarity Score` — sparse document similarity.
//!
//! Each thread scores one document against a query document: a two-pointer
//! merge intersection over sorted sparse term vectors — every comparison
//! is a data-dependent branch, and document lengths follow a Zipf-like
//! distribution, so warps diverge wildly. The paper highlights Similarity
//! Score as diverse in *both* the divergence and coalescing subspaces.
//!
//! *Substitution note:* the original's document corpus is replaced by
//! seeded synthetic term vectors with Zipf-distributed lengths; the
//! merge-loop control structure and gather pattern are preserved.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// See the [module docs](self).
///
/// Two kernel instances score the corpus against two query documents — a
/// long, dense one and a short, sparse one — because the merge loop's
/// divergence profile swings with the query length; this input-driven
/// spread is the intra-workload variation the paper reports.
#[derive(Debug)]
pub struct SimilarityScore {
    seed: u64,
    scores: Vec<BufferHandle>,
    queries: Vec<(Vec<u32>, Vec<f32>)>,
    docs: Vec<(Vec<u32>, Vec<f32>)>,
}

impl SimilarityScore {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            scores: Vec::new(),
            queries: Vec::new(),
            docs: Vec::new(),
        }
    }
}

/// Generates a sorted sparse term vector with a Zipf-ish length.
fn gen_doc(rng: &mut SeededRng, vocab: u32, max_len: usize) -> (Vec<u32>, Vec<f32>) {
    // Zipf-like: length = max_len / rank, rank uniform in 1..=8.
    let rank = rng.gen_range(1usize..=8);
    gen_doc_len(rng, vocab, (max_len / rank).max(2))
}

/// Generates a sorted sparse term vector of (roughly) an exact length.
fn gen_doc_len(rng: &mut SeededRng, vocab: u32, len: usize) -> (Vec<u32>, Vec<f32>) {
    let len = len.max(2);
    let mut terms: Vec<u32> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
    terms.sort_unstable();
    terms.dedup();
    let weights = terms.iter().map(|_| rng.gen_range(0.1..1.0)).collect();
    (terms, weights)
}

impl Workload for SimilarityScore {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "similarity_score",
            suite: Suite::Other,
            description: "sparse document similarity via two-pointer merge intersection",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n_docs = scale.pick(256, 1024, 4096);
        let vocab = scale.pick(512, 2048, 8192) as u32;
        let max_len = scale.pick(32, 64, 128);
        let mut rng = SeededRng::seed_from_u64(self.seed);

        // Dense and sparse query documents (lengths forced, not Zipf).
        let (q_long_terms, q_long_weights) = gen_doc_len(&mut rng, vocab, max_len * 4);
        let (q_short_terms, q_short_weights) = gen_doc_len(&mut rng, vocab, 3);
        let queries = [
            (q_long_terms, q_long_weights),
            (q_short_terms, q_short_weights),
        ];

        let mut doc_ptr = vec![0u32];
        let mut terms = Vec::new();
        let mut weights = Vec::new();
        let mut docs = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            let (t, w) = gen_doc(&mut rng, vocab, max_len);
            terms.extend_from_slice(&t);
            weights.extend_from_slice(&w);
            doc_ptr.push(terms.len() as u32);
            docs.push((t, w));
        }

        let hqueries: Vec<_> = queries
            .iter()
            .map(|(t, w)| (device.alloc_u32(t), device.alloc_f32(w), t.len() as u32))
            .collect();
        let hptr = device.alloc_u32(&doc_ptr);
        let hterms = device.alloc_u32(&terms);
        let hweights = device.alloc_f32(&weights);
        self.scores = (0..queries.len())
            .map(|_| device.alloc_zeroed_f32(n_docs))
            .collect();
        self.queries = queries.into();
        self.docs = docs;

        let mut b = KernelBuilder::new("similarity_score");
        let pqt = b.param_u32("q_terms");
        let pqw = b.param_u32("q_weights");
        let pqlen = b.param_u32("q_len");
        let pptr = b.param_u32("doc_ptr");
        let pterms = b.param_u32("terms");
        let pweights = b.param_u32("weights");
        let pscores = b.param_u32("scores");
        let pn = b.param_u32("n");
        let d = b.global_tid_x();
        let in_range = b.lt_u32(d, pn);
        b.if_(in_range, |b| {
            let sa = b.index(pptr, d, 4);
            let start = b.ld_global_u32(sa);
            let d1 = b.add_u32(d, Value::U32(1));
            let ea = b.index(pptr, d1, 4);
            let end = b.ld_global_u32(ea);
            let i = b.var_u32(start);
            let j = b.var_u32(Value::U32(0));
            let score = b.var_f32(Value::F32(0.0));
            b.while_(
                |b| {
                    let more_i = b.lt_u32(i, end);
                    let more_j = b.lt_u32(j, pqlen);
                    b.and_pred(more_i, more_j)
                },
                |b| {
                    let ta = b.index(pterms, i, 4);
                    let t = b.ld_global_u32(ta);
                    let qa = b.index(pqt, j, 4);
                    let q = b.ld_global_u32(qa);
                    let t_lt = b.lt_u32(t, q);
                    b.if_else(
                        t_lt,
                        |b| {
                            let ni = b.add_u32(i, Value::U32(1));
                            b.assign(i, ni);
                        },
                        |b| {
                            let q_lt = b.lt_u32(q, t);
                            b.if_else(
                                q_lt,
                                |b| {
                                    let nj = b.add_u32(j, Value::U32(1));
                                    b.assign(j, nj);
                                },
                                |b| {
                                    let wa = b.index(pweights, i, 4);
                                    let w = b.ld_global_f32(wa);
                                    let qwa = b.index(pqw, j, 4);
                                    let qw = b.ld_global_f32(qwa);
                                    let ns = b.mad_f32(w, qw, score);
                                    b.assign(score, ns);
                                    let ni = b.add_u32(i, Value::U32(1));
                                    b.assign(i, ni);
                                    let nj = b.add_u32(j, Value::U32(1));
                                    b.assign(j, nj);
                                },
                            );
                        },
                    );
                },
            );
            let oa = b.index(pscores, d, 4);
            b.st_global_f32(oa, score);
        });
        let kernel = b.build()?;

        Ok(["score_dense_query", "score_sparse_query"]
            .iter()
            .enumerate()
            .map(|(i, label)| LaunchSpec {
                label: (*label).into(),
                kernel: kernel.clone(),
                config: LaunchConfig::linear(n_docs as u32, 128),
                args: vec![
                    hqueries[i].0.arg(),
                    hqueries[i].1.arg(),
                    Value::U32(hqueries[i].2),
                    hptr.arg(),
                    hterms.arg(),
                    hweights.arg(),
                    self.scores[i].arg(),
                    Value::U32(n_docs as u32),
                ],
            })
            .collect())
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        for (i, (out, (q_terms, q_weights))) in self.scores.iter().zip(&self.queries).enumerate() {
            // CPU reference: merge intersection dot product per document,
            // mirroring the kernel's MAD accumulate.
            let want: Vec<f32> = self
                .docs
                .iter()
                .map(|(t, w)| {
                    let (mut i, mut j, mut score) = (0usize, 0usize, 0.0f32);
                    while i < t.len() && j < q_terms.len() {
                        match t[i].cmp(&q_terms[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                score = w[i].mul_add(q_weights[j], score);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    score
                })
                .collect();
            let got = device.read_f32(out);
            check_f32(&format!("similarity query {i}"), &got, &want, 1e-4)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut SimilarityScore::new(29), Scale::Tiny).unwrap();
    }

    #[test]
    fn gen_doc_is_sorted_unique() {
        let mut rng = SeededRng::seed_from_u64(0);
        for _ in 0..10 {
            let (t, w) = gen_doc(&mut rng, 100, 32);
            assert_eq!(t.len(), w.len());
            assert!(t.windows(2).all(|p| p[0] < p[1]));
        }
    }
}
