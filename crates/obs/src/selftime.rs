//! Self-time trees: folding a run's span events into a wall/busy/
//! exclusive cost tree.
//!
//! A run's [`SpanEvent`]s carry `/`-separated paths (`study`,
//! `study/workload/fft`, …) and their intervals. [`fold`] turns them
//! into a tree where every node knows three times:
//!
//! - **busy** — its events' summed durations: time summed over threads,
//!   which can exceed the wall clock when a span recorded on several
//!   pool workers at once;
//! - **wall** — the length of the union of its events' intervals;
//! - **exclusive** — the part of that wall time that no child's interval
//!   covers: time no finer-grained span explains.
//!
//! A node with no span of its own (e.g. `study/workload`, implied by
//! `study/workload/fft`) takes its children's intervals as its own, so
//! its busy time is its children's sum, its wall time their union, and
//! its exclusive time 0.
//!
//! On one thread, spans of one path never overlap, so busy equals wall
//! at every node, and a node's exclusive time plus its children's wall
//! times is its own wall time. When children run on pool workers their
//! busy times can add up past their parent's wall time; exclusive time
//! stays the parent's own uncovered wall time, with no clamp.
//!
//! The fold is what a flamegraph renders, so [`collapsed_stacks`]
//! exports the tree in the collapsed-stack format `flamegraph.pl` and
//! inferno consume: one `seg;seg;seg <exclusive>` line per node with
//! nonzero exclusive time.

use std::collections::{BTreeMap, HashMap};

use crate::metrics::SpanEvent;

/// One node of a folded self-time tree, in depth-first pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTimeNode {
    /// Full `/`-separated span path.
    pub path: String,
    /// Depth in the tree (top-level spans are 0).
    pub depth: usize,
    /// Times the span itself closed (0 for a node with no span of its
    /// own).
    pub count: u64,
    /// Summed duration of the node's intervals.
    pub busy_ns: u64,
    /// Length of the union of the node's intervals.
    pub wall_ns: u64,
    /// Wall time no child interval covers.
    pub exclusive_ns: u64,
}

/// A folded span tree in depth-first pre-order (children in path
/// order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfTimeTree {
    /// Nodes in pre-order; a node's children are the following nodes
    /// with `depth + 1` until the next node at `depth` or less.
    pub nodes: Vec<SelfTimeNode>,
}

/// Folds span events into a [`SelfTimeTree`]. Empty input returns an
/// empty tree without allocating.
pub fn fold(events: &[SpanEvent]) -> SelfTimeTree {
    if events.is_empty() {
        return SelfTimeTree::default();
    }
    // Every path's own intervals, plus an empty list for each ancestor
    // a path implies.
    let mut own: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        own.entry(&e.path)
            .or_default()
            .push((e.start_ns, e.start_ns + e.dur_ns()));
        let mut path = e.path.as_str();
        while let Some((parent, _)) = path.rsplit_once('/') {
            own.entry(parent).or_default();
            path = parent;
        }
    }
    // Segment-wise order is pre-order (plain string order is not:
    // `a#1` would sort between `a` and `a/b`).
    let mut own: Vec<(&str, Vec<(u64, u64)>)> = own.into_iter().collect();
    own.sort_by(|a, b| a.0.split('/').cmp(b.0.split('/')));
    let index: HashMap<&str, usize> = own.iter().enumerate().map(|(i, n)| (n.0, i)).collect();

    // Bottom-up in reverse pre-order: each node hands its busy time and
    // the union of its intervals and its descendants' up to its parent.
    let mut nodes: Vec<SelfTimeNode> = Vec::with_capacity(own.len());
    let mut child_cover: Vec<Vec<(u64, u64)>> = vec![Vec::new(); own.len()];
    let mut child_busy = vec![0u64; own.len()];
    for (i, (path, intervals)) in own.iter().enumerate().rev() {
        let children = union(std::mem::take(&mut child_cover[i]));
        let (busy_ns, wall_ns, exclusive_ns, cover) = if intervals.is_empty() {
            (child_busy[i], length(&children), 0, children)
        } else {
            let busy: u64 = intervals.iter().map(|(s, e)| e - s).sum();
            let mine = union(intervals.clone());
            let wall = length(&mine);
            let cover = union(mine.into_iter().chain(children.iter().copied()).collect());
            (busy, wall, length(&cover) - length(&children), cover)
        };
        if let Some((parent, _)) = path.rsplit_once('/') {
            let p = index[parent];
            child_cover[p].extend(cover);
            child_busy[p] += busy_ns;
        }
        nodes.push(SelfTimeNode {
            path: path.to_string(),
            depth: path.matches('/').count(),
            count: intervals.len() as u64,
            busy_ns,
            wall_ns,
            exclusive_ns,
        });
    }
    nodes.reverse();
    SelfTimeTree { nodes }
}

/// Sorts and merges intervals into disjoint ones.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// Total length of disjoint intervals.
fn length(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|(s, e)| e - s).sum()
}

/// Renders a tree in the collapsed-stack format (`a;b;c <exclusive>`
/// per node, skipping zero-exclusive nodes). Frame separators inside
/// span names are replaced (`;` → `:`, space → `_`) so the output stays
/// parseable by `flamegraph.pl` / inferno.
pub fn collapsed_stacks(tree: &SelfTimeTree) -> String {
    let mut out = String::new();
    for node in &tree.nodes {
        if node.exclusive_ns == 0 {
            continue;
        }
        for (i, seg) in node.path.split('/').enumerate() {
            if i > 0 {
                out.push(';');
            }
            for ch in seg.chars() {
                out.push(match ch {
                    ';' => ':',
                    ' ' => '_',
                    c => c,
                });
            }
        }
        out.push(' ');
        out.push_str(&node.exclusive_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, thread: u64, start_ns: u64, end_ns: u64) -> SpanEvent {
        SpanEvent {
            path: path.to_string(),
            thread,
            start_ns,
            end_ns,
        }
    }

    fn node<'a>(tree: &'a SelfTimeTree, path: &str) -> &'a SelfTimeNode {
        tree.nodes
            .iter()
            .find(|n| n.path == path)
            .unwrap_or_else(|| panic!("no node `{path}`"))
    }

    #[test]
    fn empty_input_folds_to_empty_tree() {
        let tree = fold(&[]);
        assert!(tree.nodes.is_empty());
        assert_eq!(collapsed_stacks(&tree), "");
    }

    #[test]
    fn nested_spans_get_exclusive_times() {
        let tree = fold(&[
            span("study", 1, 0, 100),
            span("study/observe", 1, 10, 40),
            span("study/observe", 1, 50, 80),
            span("study/merge", 1, 80, 95),
        ]);
        let paths: Vec<&str> = tree.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, ["study", "study/merge", "study/observe"]);
        let study = &tree.nodes[0];
        assert_eq!((study.busy_ns, study.wall_ns), (100, 100));
        assert_eq!(study.exclusive_ns, 25, "100 - (60 + 15)");
        assert_eq!(tree.nodes[1].exclusive_ns, 15);
        let observe = &tree.nodes[2];
        assert_eq!(observe.count, 2);
        assert_eq!((observe.busy_ns, observe.wall_ns), (60, 60));
        assert_eq!(observe.exclusive_ns, 60);
    }

    #[test]
    fn synthetic_intermediate_nodes_carry_no_exclusive_time() {
        let tree = fold(&[
            span("study", 1, 0, 100),
            span("study/workload/fft", 1, 10, 30),
            span("study/workload/bfs", 1, 40, 60),
        ]);
        let mid = node(&tree, "study/workload");
        assert_eq!(mid.count, 0);
        assert_eq!(mid.depth, 1);
        assert_eq!((mid.busy_ns, mid.wall_ns, mid.exclusive_ns), (40, 40, 0));
        assert_eq!(node(&tree, "study").exclusive_ns, 60);
    }

    #[test]
    fn exclusive_times_sum_to_inclusive_root() {
        // One thread: busy equals wall everywhere, and each node's
        // exclusive time plus its children's wall times is its own, so
        // a subtree's exclusive times sum to its root's wall time.
        let tree = fold(&[
            span("cluster", 1, 1_000, 1_009),
            span("study", 1, 0, 900),
            span("study/merge", 1, 700, 800),
            span("study/observe", 1, 0, 300),
            span("study/observe", 1, 350, 650),
            span("study/observe/decode", 1, 10, 60),
            span("study/workload/a", 1, 800, 890),
        ]);
        for (i, node) in tree.nodes.iter().enumerate() {
            assert_eq!(node.busy_ns, node.wall_ns, "busy vs wall at {}", node.path);
            let children: u64 = tree.nodes[i + 1..]
                .iter()
                .take_while(|m| m.depth > node.depth)
                .filter(|m| m.depth == node.depth + 1)
                .map(|m| m.wall_ns)
                .sum();
            assert_eq!(
                node.exclusive_ns + children,
                node.wall_ns,
                "invariant broken at {}",
                node.path
            );
        }
        assert_eq!(node(&tree, "study").exclusive_ns, 900 - 600 - 100 - 90);
        let exclusive: u64 = tree.nodes.iter().map(|n| n.exclusive_ns).sum();
        let roots: u64 = tree
            .nodes
            .iter()
            .filter(|n| n.depth == 0)
            .map(|n| n.wall_ns)
            .sum();
        assert_eq!(exclusive, roots);
    }

    #[test]
    fn overlapping_children_split_busy_from_wall() {
        // Two workers each ran 60ns of a 70ns parent's 10..70: the
        // children's busy time sums past the parent's wall time, their
        // union covers 10..70, and the parent keeps its own 10ns.
        let tree = fold(&[
            span("study", 1, 0, 70),
            span("study/workload/a", 2, 10, 70),
            span("study/workload/b", 3, 10, 70),
        ]);
        let study = node(&tree, "study");
        assert_eq!((study.busy_ns, study.wall_ns), (70, 70));
        assert_eq!(study.exclusive_ns, 10);
        let mid = node(&tree, "study/workload");
        assert_eq!((mid.busy_ns, mid.wall_ns, mid.exclusive_ns), (120, 60, 0));
    }

    #[test]
    fn overlapping_events_of_one_path_count_once_in_wall() {
        let tree = fold(&[
            span("pairs", 1, 0, 50),
            span("pairs/s", 2, 0, 40),
            span("pairs/s", 3, 10, 50),
        ]);
        let s = node(&tree, "pairs/s");
        assert_eq!((s.busy_ns, s.wall_ns, s.exclusive_ns), (80, 50, 50));
        assert_eq!(node(&tree, "pairs").exclusive_ns, 0);
    }

    #[test]
    fn children_stay_under_their_own_parent() {
        // `bfs#1` sorts between `bfs` and `bfs/launch` as a plain string;
        // the launch must still fold into `bfs`.
        let tree = fold(&[
            span("study/workload/bfs", 1, 0, 100),
            span("study/workload/bfs/launch/k", 1, 10, 90),
            span("study/workload/bfs#1", 1, 100, 150),
            span("study/workload/bfs#1/launch/k", 1, 110, 140),
        ]);
        let paths: Vec<&str> = tree.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "study",
                "study/workload",
                "study/workload/bfs",
                "study/workload/bfs/launch",
                "study/workload/bfs/launch/k",
                "study/workload/bfs#1",
                "study/workload/bfs#1/launch",
                "study/workload/bfs#1/launch/k",
            ]
        );
        assert_eq!(node(&tree, "study/workload/bfs").exclusive_ns, 20);
        assert_eq!(node(&tree, "study/workload/bfs#1").exclusive_ns, 20);
    }

    #[test]
    fn collapsed_stacks_format() {
        let tree = fold(&[
            span("study", 1, 0, 100),
            span("study/launch/my kernel;v2", 1, 10, 30),
            span("study/launch/my kernel;v2", 1, 40, 60),
        ]);
        let out = collapsed_stacks(&tree);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, ["study 60", "study;launch;my_kernel:v2 40"]);
    }
}
