//! `bfs` — breadth-first search on an irregular graph (Rodinia).
//!
//! Level-synchronous frontier expansion with the original's two kernels:
//! kernel 1 visits each frontier node's neighbours (data-dependent edge
//! loops, scattered reads) and marks an *updating* mask; kernel 2 promotes
//! the updating mask to the next frontier and raises a "still work"
//! flag. The host relaunches until the flag stays down.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// Sentinel cost for unreached nodes.
const UNREACHED: u32 = u32::MAX;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Bfs {
    seed: u64,
    cost: Option<BufferHandle>,
    expected: Vec<u32>,
}

impl Bfs {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            cost: None,
            expected: Vec::new(),
        }
    }
}

fn cpu_bfs(row_ptr: &[u32], edges: &[u32], n: usize, src: usize) -> Vec<u32> {
    let mut cost = vec![UNREACHED; n];
    cost[src] = 0;
    let mut frontier = vec![src];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &eu in &edges[row_ptr[v] as usize..row_ptr[v + 1] as usize] {
                let u = eu as usize;
                if cost[u] == UNREACHED {
                    cost[u] = level;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    cost
}

impl Workload for Bfs {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "bfs",
            suite: Suite::Rodinia,
            description: "level-synchronous BFS with frontier masks over a CSR graph",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(256, 1024, 8192);
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Random graph with average degree ~4 plus a ring for connectivity.
        let mut adj: Vec<Vec<u32>> = (0..n).map(|v| vec![((v + 1) % n) as u32]).collect();
        for _ in 0..3 * n {
            let a = rng.gen_range(0..n);
            let bn = rng.gen_range(0..n);
            adj[a].push(bn as u32);
        }
        let mut row_ptr = vec![0u32];
        let mut edges = Vec::new();
        for v in &adj {
            edges.extend_from_slice(v);
            row_ptr.push(edges.len() as u32);
        }
        // The BFS depth sets the launch count, so the CPU search runs here
        // rather than in `verify`; its costs are kept as the reference.
        self.expected = cpu_bfs(&row_ptr, &edges, n, 0);
        let depth = *self
            .expected
            .iter()
            .filter(|&&c| c != UNREACHED)
            .max()
            .expect("source reached") as usize;

        let hrp = device.alloc_u32(&row_ptr);
        let hedges = device.alloc_u32(&edges);
        let mut mask = vec![0u32; n];
        mask[0] = 1;
        let hmask = device.alloc_u32(&mask);
        let hupdating = device.alloc_zeroed_u32(n);
        let mut cost = vec![UNREACHED; n];
        cost[0] = 0;
        let hcost = device.alloc_u32(&cost);
        let hflag = device.alloc_zeroed_u32(1);
        self.cost = Some(hcost);

        // --- kernel 1: expand frontier ------------------------------------------
        let mut b = KernelBuilder::new("bfs_expand");
        let prp = b.param_u32("row_ptr");
        let pedges = b.param_u32("edges");
        let pmask = b.param_u32("mask");
        let pupd = b.param_u32("updating");
        let pcost = b.param_u32("cost");
        let pn = b.param_u32("n");
        let v = b.global_tid_x();
        let in_range = b.lt_u32(v, pn);
        b.if_(in_range, |b| {
            let ma = b.index(pmask, v, 4);
            let m = b.ld_global_u32(ma);
            let active = b.eq_u32(m, Value::U32(1));
            b.if_(active, |b| {
                b.st_global_u32(ma, Value::U32(0));
                let ca = b.index(pcost, v, 4);
                let my_cost = b.ld_global_u32(ca);
                let next_cost = b.add_u32(my_cost, Value::U32(1));
                let sa = b.index(prp, v, 4);
                let start = b.ld_global_u32(sa);
                let v1 = b.add_u32(v, Value::U32(1));
                let ea = b.index(prp, v1, 4);
                let end = b.ld_global_u32(ea);
                let e = b.var_u32(start);
                b.while_(
                    |b| b.lt_u32(e, end),
                    |b| {
                        let eaddr = b.index(pedges, e, 4);
                        let u = b.ld_global_u32(eaddr);
                        let uca = b.index(pcost, u, 4);
                        let ucost = b.ld_global_u32(uca);
                        let unvisited = b.eq_u32(ucost, Value::U32(UNREACHED));
                        b.if_(unvisited, |b| {
                            b.st_global_u32(uca, next_cost);
                            let ua = b.index(pupd, u, 4);
                            b.st_global_u32(ua, Value::U32(1));
                        });
                        let ne = b.add_u32(e, Value::U32(1));
                        b.assign(e, ne);
                    },
                );
            });
        });
        let expand = b.build()?;

        // --- kernel 2: promote updating mask --------------------------------------
        let mut b = KernelBuilder::new("bfs_update");
        let pmask = b.param_u32("mask");
        let pupd = b.param_u32("updating");
        let pflag = b.param_u32("flag");
        let pn = b.param_u32("n");
        let v = b.global_tid_x();
        let in_range = b.lt_u32(v, pn);
        b.if_(in_range, |b| {
            let ua = b.index(pupd, v, 4);
            let u = b.ld_global_u32(ua);
            let set = b.eq_u32(u, Value::U32(1));
            b.if_(set, |b| {
                let ma = b.index(pmask, v, 4);
                b.st_global_u32(ma, Value::U32(1));
                b.st_global_u32(ua, Value::U32(0));
                let fa = b.offset(pflag, 0);
                b.st_global_u32(fa, Value::U32(1));
            });
        });
        let update = b.build()?;

        // The true host loop polls the flag; we know the BFS depth from the
        // reference, so emit exactly `depth` rounds (the final round finds
        // nothing and leaves the flag down).
        let cfg = LaunchConfig::linear(n as u32, 128);
        let mut launches = Vec::new();
        for _ in 0..=depth {
            launches.push(LaunchSpec {
                label: "bfs_expand".into(),
                kernel: expand.clone(),
                config: cfg,
                args: vec![
                    hrp.arg(),
                    hedges.arg(),
                    hmask.arg(),
                    hupdating.arg(),
                    hcost.arg(),
                    Value::U32(n as u32),
                ],
            });
            launches.push(LaunchSpec {
                label: "bfs_update".into(),
                kernel: update.clone(),
                config: cfg,
                args: vec![
                    hmask.arg(),
                    hupdating.arg(),
                    hflag.arg(),
                    Value::U32(n as u32),
                ],
            });
        }
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let got = device.read_u32(self.cost.as_ref().expect("setup"));
        check_u32("bfs cost", &got, &self.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Bfs::new(25), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_bfs_ring() {
        // Pure ring of 4 nodes: distances 0,1,2,3.
        let row_ptr = vec![0, 1, 2, 3, 4];
        let edges = vec![1, 2, 3, 0];
        assert_eq!(cpu_bfs(&row_ptr, &edges, 4, 0), vec![0, 1, 2, 3]);
    }
}
