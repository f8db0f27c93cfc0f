//! `MUMmerGPU` — DNA sequence matching against a suffix trie.
//!
//! The reference genome's suffix trie is built on the host (as MUMmerGPU
//! builds its suffix tree) and uploaded as a node table; each GPU thread
//! then walks the trie for one query, chasing child pointers until a
//! mismatch. Data-dependent walk depths and pointer-chasing gathers make
//! this the divergence/irregularity extreme of the workload population —
//! the paper singles it out for branch-divergence variation.
//!
//! *Substitution note:* real genome inputs are replaced by seeded random
//! DNA strings; the trie structure, walk loop and access patterns are the
//! ones that matter for characterization.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// Maximum trie depth (longest match we report).
const MAX_DEPTH: usize = 12;

/// See the [module docs](self).
///
/// Two query batches run as separate kernel instances — a reference-rich
/// batch (deep trie walks) and a random batch (shallow walks) — because
/// MUMmerGPU's divergence profile swings with query composition; this is
/// the intra-workload variation the paper reports.
#[derive(Debug)]
pub struct MummerGpu {
    seed: u64,
    match_len: Vec<BufferHandle>,
    trie: SuffixTrie,
    batches: Vec<Vec<u8>>,
}

impl MummerGpu {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            match_len: Vec::new(),
            trie: SuffixTrie::default(),
            batches: Vec::new(),
        }
    }
}

/// A suffix trie over the 4-letter DNA alphabet, stored as a flat node
/// table (`children[node * 4 + base]`, 0 = absent).
#[derive(Debug, Default)]
struct SuffixTrie {
    children: Vec<u32>,
}

impl SuffixTrie {
    fn build(reference: &[u8], max_depth: usize) -> Self {
        let mut children = vec![0u32; 4];
        let mut node_count = 1u32;
        for start in 0..reference.len() {
            let mut node = 0u32;
            for &c in reference.iter().skip(start).take(max_depth) {
                let slot = (node * 4 + c as u32) as usize;
                if children[slot] == 0 {
                    children[slot] = node_count;
                    children.extend_from_slice(&[0, 0, 0, 0]);
                    node_count += 1;
                }
                node = children[slot];
            }
        }
        Self { children }
    }

    fn match_len(&self, query: &[u8]) -> u32 {
        let mut node = 0u32;
        let mut len = 0u32;
        for &c in query.iter().take(MAX_DEPTH) {
            let next = self.children[(node * 4 + c as u32) as usize];
            if next == 0 {
                break;
            }
            node = next;
            len += 1;
        }
        len
    }
}

impl Workload for MummerGpu {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "mummer_gpu",
            suite: Suite::Other,
            description: "suffix-trie DNA matching; pointer chasing with data-dependent depth",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let ref_len = scale.pick(256, 1024, 4096);
        let n_queries = scale.pick(256, 1024, 8192);
        let query_len = MAX_DEPTH;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let reference: Vec<u8> = (0..ref_len).map(|_| rng.gen_range(0..4u8)).collect();
        let trie = SuffixTrie::build(&reference, MAX_DEPTH);

        // Two query batches with opposite match profiles: one mostly
        // reference substrings (deep walks), one mostly random (shallow).
        let mut gen_batch = |substring_percent: u32| -> Vec<u8> {
            let mut queries = vec![0u8; n_queries * query_len];
            for q in 0..n_queries {
                if (q as u32 % 100) < substring_percent && ref_len > query_len {
                    let start = rng.gen_range(0..ref_len - query_len);
                    queries[q * query_len..(q + 1) * query_len]
                        .copy_from_slice(&reference[start..start + query_len]);
                } else {
                    for c in queries[q * query_len..(q + 1) * query_len].iter_mut() {
                        *c = rng.gen_range(0..4u8);
                    }
                }
            }
            queries
        };
        let batches = [gen_batch(90), gen_batch(10)];

        let htrie = device.alloc_u32(&trie.children);
        let hqueries: Vec<_> = batches
            .iter()
            .map(|queries| {
                let as_u32: Vec<u32> = queries.iter().map(|&c| c as u32).collect();
                device.alloc_u32(&as_u32)
            })
            .collect();
        self.match_len = (0..batches.len())
            .map(|_| device.alloc_zeroed_u32(n_queries))
            .collect();
        self.trie = trie;
        self.batches = batches.into();

        let mut b = KernelBuilder::new("mummer_match");
        let ptrie = b.param_u32("trie");
        let pq = b.param_u32("queries");
        let pout = b.param_u32("out");
        let pn = b.param_u32("n");
        let plen = b.param_u32("qlen");
        let q = b.global_tid_x();
        let in_range = b.lt_u32(q, pn);
        b.if_(in_range, |b| {
            let base = b.mul_u32(q, plen);
            let node = b.var_u32(Value::U32(0));
            let len = b.var_u32(Value::U32(0));
            let pos = b.var_u32(Value::U32(0));
            let alive = b.var_u32(Value::U32(1));
            b.while_(
                |b| {
                    let more = b.lt_u32(pos, plen);
                    let live = b.eq_u32(alive, Value::U32(1));
                    b.and_pred(more, live)
                },
                |b| {
                    let qidx = b.add_u32(base, pos);
                    let qa = b.index(pq, qidx, 4);
                    let c = b.ld_global_u32(qa);
                    let slot = b.mad_u32(node, Value::U32(4), c);
                    let ta = b.index(ptrie, slot, 4);
                    let next = b.ld_global_u32(ta);
                    let dead = b.eq_u32(next, Value::U32(0));
                    b.if_else(
                        dead,
                        |b| {
                            b.assign(alive, Value::U32(0));
                        },
                        |b| {
                            b.assign(node, next);
                            let nl = b.add_u32(len, Value::U32(1));
                            b.assign(len, nl);
                        },
                    );
                    let np = b.add_u32(pos, Value::U32(1));
                    b.assign(pos, np);
                },
            );
            let oa = b.index(pout, q, 4);
            b.st_global_u32(oa, len);
        });
        let kernel = b.build()?;

        Ok(["mummer_match_deep", "mummer_match_shallow"]
            .iter()
            .enumerate()
            .map(|(i, label)| LaunchSpec {
                label: (*label).into(),
                kernel: kernel.clone(),
                config: LaunchConfig::linear(n_queries as u32, 128),
                args: vec![
                    htrie.arg(),
                    hqueries[i].arg(),
                    self.match_len[i].arg(),
                    Value::U32(n_queries as u32),
                    Value::U32(query_len as u32),
                ],
            })
            .collect())
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        for (i, (out, queries)) in self.match_len.iter().zip(&self.batches).enumerate() {
            let want: Vec<u32> = queries
                .chunks(MAX_DEPTH)
                .map(|q| self.trie.match_len(q))
                .collect();
            let got = device.read_u32(out);
            check_u32(&format!("mummer batch {i}"), &got, &want)?;
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
        run_workload(&mut MummerGpu::new(28), Scale::Tiny).unwrap();
    }

    #[test]
    fn trie_matches_substrings_fully() {
        let reference = vec![0u8, 1, 2, 3, 0, 1];
        let trie = SuffixTrie::build(&reference, 4);
        assert_eq!(trie.match_len(&[0, 1, 2, 3]), 4);
        assert_eq!(trie.match_len(&[1, 2, 3, 0]), 4);
        assert_eq!(trie.match_len(&[3, 3, 3, 3]), 1, "only '3' prefix exists");
    }
}
