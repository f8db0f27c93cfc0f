//! Agglomerative hierarchical clustering with dendrograms.
//!
//! The study uses hierarchical clustering to visualize how kernels group in
//! the PCA-reduced characteristic space: the dendrogram's linkage heights
//! show *how* similar two kernels are, not just which cluster they land in.

use crate::distance::euclidean;
use crate::{Matrix, StatsError};

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Minimum pairwise distance between members.
    Single,
    /// Maximum pairwise distance between members.
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
}

impl std::fmt::Display for Linkage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Linkage::Single => write!(f, "single"),
            Linkage::Complete => write!(f, "complete"),
            Linkage::Average => write!(f, "average"),
        }
    }
}

/// One merge step: clusters `a` and `b` join at distance `height`.
///
/// Cluster ids follow the SciPy convention: ids `0..n` are the original
/// observations (leaves); id `n + i` is the cluster created by merge `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub height: f64,
    /// Number of leaves in the merged cluster.
    pub size: usize,
}

/// Result of hierarchical clustering: the full merge tree.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of original observations (leaves).
    pub fn leaves(&self) -> usize {
        self.n
    }

    /// The merge steps, in the order they occurred (ascending height for
    /// single/complete/average linkage on a metric space).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the tree into exactly `k` clusters and returns a label per leaf.
    /// Labels are renumbered `0..k` in order of first appearance.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadClusterCount`] if `k` is 0 or exceeds the
    /// number of leaves.
    pub fn cut(&self, k: usize) -> Result<Vec<usize>, StatsError> {
        if k == 0 || k > self.n {
            return Err(StatsError::BadClusterCount { k, n: self.n });
        }
        // Applying the first n - k merges yields exactly k clusters.
        let mut parent: Vec<usize> = (0..(self.n + self.merges.len())).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for (i, m) in self.merges.iter().take(self.n - k).enumerate() {
            let new_id = self.n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        let mut label_of_root = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(self.n);
        for leaf in 0..self.n {
            let root = find(&mut parent, leaf);
            let next = label_of_root.len();
            let label = *label_of_root.entry(root).or_insert(next);
            labels.push(label);
        }
        Ok(labels)
    }

    /// Renders the dendrogram as ASCII art, one leaf per line, with merge
    /// heights shown on the internal nodes. `names[i]` labels leaf `i`.
    ///
    /// # Panics
    ///
    /// Panics if `names.len()` differs from the leaf count.
    pub fn render(&self, names: &[String]) -> String {
        assert_eq!(names.len(), self.n, "one name per leaf required");
        if self.n == 1 {
            return format!("{}\n", names[0]);
        }
        // Recursive textual tree: children indented under their merge node.
        let mut out = String::new();
        let root = self.n + self.merges.len() - 1;
        self.render_node(root, 0, names, &mut out);
        out
    }

    fn render_node(&self, id: usize, depth: usize, names: &[String], out: &mut String) {
        let pad = "  ".repeat(depth);
        if id < self.n {
            out.push_str(&format!("{pad}- {}\n", names[id]));
        } else {
            let m = &self.merges[id - self.n];
            out.push_str(&format!("{pad}+ h={:.3} (n={})\n", m.height, m.size));
            self.render_node(m.a, depth + 1, names, out);
            self.render_node(m.b, depth + 1, names, out);
        }
    }
}

/// Runs agglomerative clustering on the rows of `data` with the given
/// linkage, using Euclidean distance and Lance–Williams updates.
///
/// Each step merges the closest pair of clusters. A cluster is numbered
/// by its smallest leaf; among equally close pairs the step takes the
/// first `(i, j)`, `i < j`, in row-major order of those numbers, and
/// reports cluster `i` as the merge's `a`. The closest pair comes from a
/// cached nearest-later-neighbour per cluster, refreshed after a merge
/// only where the merge can have changed it, so a run costs O(n²) on
/// typical data rather than the O(n³) of rescanning every pair.
///
/// # Errors
///
/// * [`StatsError::Empty`] when `data` has no rows.
/// * [`StatsError::NonFinite`] if `data` contains NaN/inf.
pub fn hierarchical(data: &Matrix, linkage: Linkage) -> Result<Dendrogram, StatsError> {
    if data.rows() == 0 {
        return Err(StatsError::Empty);
    }
    data.check_finite()?;
    let n = data.rows();

    // A live cluster occupies the slot of its smallest leaf. `dist` is the
    // symmetric n × n slot matrix; retired slots' rows and columns go stale.
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = euclidean(data.row(i), data.row(j));
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    let mut live: Vec<usize> = (0..n).collect();
    let mut id: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    // The first later live slot at the least finite distance from the slot
    // at `live[pos]`, or `(usize::MAX, ∞)` when there is none.
    let nearest = |dist: &[f64], live: &[usize], pos: usize| {
        let row = &dist[live[pos] * n..][..n];
        let mut best = (usize::MAX, f64::INFINITY);
        for &j in &live[pos + 1..] {
            if row[j] < best.1 {
                best = (j, row[j]);
            }
        }
        best
    };
    let mut nn: Vec<(usize, f64)> = (0..n).map(|pos| nearest(&dist, &live, pos)).collect();

    let mut merges = Vec::with_capacity(n - 1);
    while live.len() > 1 {
        // The first slot at the least neighbour distance; the first two
        // live slots if every distance is infinite.
        let (mut a, mut b, mut height) = (live[0], live[1], f64::INFINITY);
        for &i in &live {
            if nn[i].1 < height {
                (a, b, height) = (i, nn[i].0, nn[i].1);
            }
        }
        let (size_a, size_b) = (size[a] as f64, size[b] as f64);
        let new_size = size[a] + size[b];
        merges.push(Merge {
            a: id[a],
            b: id[b],
            height,
            size: new_size,
        });

        // Lance–Williams distance update from the merged cluster, which
        // keeps slot `a`, to the others; slot `b` retires.
        live.retain(|&k| k != b);
        for &k in &live {
            if k == a {
                continue;
            }
            let (dak, dbk) = (dist[a * n + k], dist[b * n + k]);
            let d = match linkage {
                Linkage::Single => dak.min(dbk),
                Linkage::Complete => dak.max(dbk),
                Linkage::Average => (size_a * dak + size_b * dbk) / new_size as f64,
            };
            dist[a * n + k] = d;
            dist[k * n + a] = d;
        }
        id[a] = n + merges.len() - 1;
        size[a] = new_size;

        // Only slot `a`'s row and column changed: rescan the rows that
        // lost their neighbour or are `a`'s own, and let rows before `a`
        // take it as their neighbour if it is now at least as close.
        for (pos, &i) in live.iter().enumerate() {
            let (j, d) = nn[i];
            if i == a || j == a || j == b {
                nn[i] = nearest(&dist, &live, pos);
            } else if i < a {
                let d_ia = dist[i * n + a];
                if d_ia < d || (d_ia == d && a < j) {
                    nn[i] = (a, d_ia);
                }
            }
        }
    }

    Ok(Dendrogram { n, merges })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference [`hierarchical`] is checked against: rescan every
    /// pair for the closest on each merge, and delete the merged-away
    /// cluster's row and column from a nested distance matrix.
    fn naive(data: &Matrix, linkage: Linkage) -> Vec<Merge> {
        let n = data.rows();
        // Active cluster set: (current cluster id, leaf count).
        let mut active: Vec<(usize, usize)> = (0..n).map(|i| (i, 1)).collect();
        let mut dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| euclidean(data.row(i), data.row(j)))
                    .collect()
            })
            .collect();
        let mut merges = Vec::with_capacity(n.saturating_sub(1));
        while active.len() > 1 {
            // Find the closest pair (deterministic tie-break on indices).
            let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::INFINITY);
            for (i, row) in dist.iter().enumerate().take(active.len()) {
                for (j, &d) in row.iter().enumerate().take(active.len()).skip(i + 1) {
                    if d < best {
                        best = d;
                        bi = i;
                        bj = j;
                    }
                }
            }
            let (id_a, size_a) = active[bi];
            let (id_b, size_b) = active[bj];
            let new_id = n + merges.len();
            let new_size = size_a + size_b;
            merges.push(Merge {
                a: id_a,
                b: id_b,
                height: best,
                size: new_size,
            });
            // Lance–Williams distance update from the merged cluster.
            let mut new_row = Vec::with_capacity(active.len());
            for (k, (&dak, &dbk)) in dist[bi]
                .iter()
                .zip(&dist[bj])
                .enumerate()
                .take(active.len())
            {
                if k == bi || k == bj {
                    new_row.push(0.0);
                    continue;
                }
                new_row.push(match linkage {
                    Linkage::Single => dak.min(dbk),
                    Linkage::Complete => dak.max(dbk),
                    Linkage::Average => {
                        (size_a as f64 * dak + size_b as f64 * dbk) / new_size as f64
                    }
                });
            }
            // Cluster bi becomes the merged cluster; bj (> bi) goes.
            active[bi] = (new_id, new_size);
            active.remove(bj);
            for k in 0..dist.len() {
                dist[bi][k] = new_row[k];
                dist[k][bi] = new_row[k];
            }
            dist.remove(bj);
            for row in &mut dist {
                row.remove(bj);
            }
        }
        merges
    }

    #[test]
    fn merges_match_the_naive_reference() {
        let mut rng = crate::SplitMix64::new(0x6c1);
        for case in 0..300 {
            let rows = 1 + rng.next_below(40);
            let cols = 1 + rng.next_below(4);
            // Small integer coordinates make equal distances common, so
            // the tie-break is exercised as much as the ordering.
            let integers = case % 2 == 0;
            let data = (0..rows * cols)
                .map(|_| {
                    if integers {
                        rng.next_below(4) as f64
                    } else {
                        rng.next_f64() * 200.0 - 100.0
                    }
                })
                .collect();
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                let want = naive(&m, linkage);
                let got = hierarchical(&m, linkage).unwrap();
                assert_eq!(got.merges().len(), want.len());
                for (step, (g, w)) in got.merges().iter().zip(&want).enumerate() {
                    assert_eq!(
                        (g.a, g.b, g.size, g.height.to_bits()),
                        (w.a, w.b, w.size, w.height.to_bits()),
                        "case {case} ({rows}x{cols}), {linkage}, merge {step}"
                    );
                }
            }
        }
    }

    fn two_blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
            vec![5.0, 5.1],
        ])
        .unwrap()
    }

    #[test]
    fn merges_count() {
        let d = hierarchical(&two_blobs(), Linkage::Average).unwrap();
        assert_eq!(d.leaves(), 6);
        assert_eq!(d.merges().len(), 5);
    }

    #[test]
    fn cut_recovers_blobs() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = hierarchical(&two_blobs(), linkage).unwrap();
            let labels = d.cut(2).unwrap();
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[0], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_eq!(labels[3], labels[5]);
            assert_ne!(labels[0], labels[3], "{linkage} linkage failed");
        }
    }

    #[test]
    fn cut_k_equals_n_gives_singletons() {
        let d = hierarchical(&two_blobs(), Linkage::Average).unwrap();
        let labels = d.cut(6).unwrap();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn random_cuts_give_exactly_k_clusters_for_every_linkage() {
        let mut rng = crate::SplitMix64::new(0x4c1);
        for case in 0..64 {
            let m = rng.matrix(10, 4);
            for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                let d = hierarchical(&m, linkage).unwrap();
                for k in 1..=m.rows() {
                    let labels = d.cut(k).unwrap();
                    let mut distinct = labels.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), k, "case {case}, {linkage}, k = {k}");
                    assert!(labels.iter().all(|&l| l < k), "case {case}, {linkage}");
                }
            }
        }
    }

    #[test]
    fn cut_one_gives_single_cluster() {
        let d = hierarchical(&two_blobs(), Linkage::Single).unwrap();
        let labels = d.cut(1).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn cut_rejects_bad_k() {
        let d = hierarchical(&two_blobs(), Linkage::Single).unwrap();
        assert!(d.cut(0).is_err());
        assert!(d.cut(7).is_err());
    }

    #[test]
    fn heights_nondecreasing_for_complete_linkage() {
        let d = hierarchical(&two_blobs(), Linkage::Complete).unwrap();
        let heights: Vec<f64> = d.merges().iter().map(|m| m.height).collect();
        for w in heights.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "heights {heights:?}");
        }
    }

    #[test]
    fn last_merge_contains_all_leaves() {
        let d = hierarchical(&two_blobs(), Linkage::Average).unwrap();
        assert_eq!(d.merges().last().unwrap().size, 6);
    }

    #[test]
    fn single_point_dendrogram() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let d = hierarchical(&m, Linkage::Average).unwrap();
        assert_eq!(d.merges().len(), 0);
        assert_eq!(d.cut(1).unwrap(), vec![0]);
    }

    #[test]
    fn render_mentions_all_names() {
        let d = hierarchical(&two_blobs(), Linkage::Average).unwrap();
        let names: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
        let art = d.render(&names);
        for n in &names {
            assert!(art.contains(n.as_str()), "missing {n} in:\n{art}");
        }
    }

    #[test]
    fn rejects_nan() {
        let mut m = two_blobs();
        m.set(0, 0, f64::NAN);
        assert!(hierarchical(&m, Linkage::Average).is_err());
    }
}
