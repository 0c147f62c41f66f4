//! Logical binary trees for tree-based AllReduce.
//!
//! The single [`BinaryTree`] is the in-order balanced layout (each node
//! has at most two children, depth `⌈log2(P+1)⌉`). The
//! [`DoubleBinaryTree`] pairs it with its mirror image — "the first tree
//! is flipped to invert the nodes and leaves to create the second tree"
//! (paper footnote 4, after Sanders et al.'s two-tree algorithm) — so
//! that the two trees together keep every rank busy and double the
//! usable bandwidth.

use crate::rank::Rank;
use std::error::Error;
use std::fmt;

/// Errors from tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// Trees need at least two ranks.
    TooFewRanks(usize),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::TooFewRanks(p) => {
                write!(f, "tree collective needs at least 2 ranks, got {p}")
            }
        }
    }
}

impl Error for TreeError {}

/// A rooted binary tree over ranks `0..P`, the logical topology of the
/// tree AllReduce.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{BinaryTree, Rank};
/// let t = BinaryTree::inorder(8).unwrap();
/// assert_eq!(t.root(), Rank(4));
/// assert!(t.depth() <= 4);
/// // every non-root rank has a parent
/// for r in 0..8 {
///     assert_eq!(t.parent(Rank(r)).is_none(), Rank(r) == t.root());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTree {
    root: Rank,
    parent: Vec<Option<Rank>>,
    children: Vec<Vec<Rank>>,
}

impl BinaryTree {
    /// Builds the balanced in-order tree on `p` ranks: the root is the
    /// midpoint rank and each half recurses, so an in-order traversal
    /// visits ranks `0, 1, …, p-1`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooFewRanks`] if `p < 2`.
    pub fn inorder(p: usize) -> Result<Self, TreeError> {
        if p < 2 {
            return Err(TreeError::TooFewRanks(p));
        }
        let mut parent = vec![None; p];
        let mut children = vec![Vec::new(); p];
        let root = Self::build(0, p, None, &mut parent, &mut children);
        Ok(BinaryTree {
            root,
            parent,
            children,
        })
    }

    fn build(
        lo: usize,
        hi: usize,
        up: Option<Rank>,
        parent: &mut [Option<Rank>],
        children: &mut [Vec<Rank>],
    ) -> Rank {
        debug_assert!(lo < hi);
        let mid = (lo + hi) / 2;
        let node = Rank(mid as u32);
        parent[mid] = up;
        if let Some(p) = up {
            children[p.index()].push(node);
        }
        if lo < mid {
            Self::build(lo, mid, Some(node), parent, children);
        }
        if mid + 1 < hi {
            Self::build(mid + 1, hi, Some(node), parent, children);
        }
        node
    }

    /// Builds the mirror image of `tree`: rank `r` takes the role of rank
    /// `P-1-r`. Leaves of the original become (mostly) internal nodes of
    /// the mirror, balancing work across ranks when both trees run.
    pub fn mirror(tree: &BinaryTree) -> Self {
        let p = tree.num_ranks();
        let flip = |r: Rank| Rank((p - 1 - r.index()) as u32);
        let mut parent = vec![None; p];
        let mut children = vec![Vec::new(); p];
        for r in Rank::all(p) {
            if let Some(q) = tree.parent(r) {
                parent[flip(r).index()] = Some(flip(q));
            }
        }
        for r in Rank::all(p) {
            for &c in tree.children(r) {
                children[flip(r).index()].push(flip(c));
            }
        }
        BinaryTree {
            root: flip(tree.root()),
            parent,
            children,
        }
    }

    /// Number of ranks in the tree.
    pub fn num_ranks(&self) -> usize {
        self.parent.len()
    }

    /// The root rank.
    pub fn root(&self) -> Rank {
        self.root
    }

    /// The parent of `r`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn parent(&self, r: Rank) -> Option<Rank> {
        self.parent[r.index()]
    }

    /// The children of `r` (0, 1 or 2 of them).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn children(&self, r: Rank) -> &[Rank] {
        &self.children[r.index()]
    }

    /// True if `r` is a leaf.
    pub fn is_leaf(&self, r: Rank) -> bool {
        self.children(r).is_empty()
    }

    /// The depth of the tree: number of edges on the longest root-to-leaf
    /// path. This is the `log(P)` of the paper's cost model.
    pub fn depth(&self) -> usize {
        fn go(t: &BinaryTree, r: Rank) -> usize {
            t.children(r)
                .iter()
                .map(|&c| 1 + go(t, c))
                .max()
                .unwrap_or(0)
        }
        go(self, self.root)
    }

    /// The depth of rank `r` (root is 0).
    pub fn depth_of(&self, r: Rank) -> usize {
        let mut d = 0;
        let mut cur = r;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// All directed "uplink" edges `(child, parent)` in rank order.
    pub fn up_edges(&self) -> Vec<(Rank, Rank)> {
        Rank::all(self.num_ranks())
            .filter_map(|r| self.parent(r).map(|p| (r, p)))
            .collect()
    }

    /// Ranks in bottom-up order: every rank appears after all of its
    /// children (used by reduction schedule builders).
    pub fn bottom_up(&self) -> Vec<Rank> {
        let mut order = Vec::with_capacity(self.num_ranks());
        fn go(t: &BinaryTree, r: Rank, out: &mut Vec<Rank>) {
            for &c in t.children(r) {
                go(t, c, out);
            }
            out.push(r);
        }
        go(self, self.root, &mut order);
        order
    }

    /// Ranks in top-down order: every rank appears before its children.
    pub fn top_down(&self) -> Vec<Rank> {
        let mut order = self.bottom_up();
        order.reverse();
        order
    }
}

impl fmt::Display for BinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "binary tree (p={}, root={}, depth={})",
            self.num_ranks(),
            self.root,
            self.depth()
        )
    }
}

/// The two-tree pair used by the double(-binary)-tree AllReduce: the
/// in-order tree and its mirror.
///
/// # Examples
///
/// ```
/// use ccube_collectives::DoubleBinaryTree;
/// let dt = DoubleBinaryTree::new(8).unwrap();
/// assert_ne!(dt.tree(0).root(), dt.tree(1).root());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoubleBinaryTree {
    trees: [BinaryTree; 2],
}

impl DoubleBinaryTree {
    /// Builds the two-tree pair on `p` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooFewRanks`] if `p < 2`.
    pub fn new(p: usize) -> Result<Self, TreeError> {
        let t0 = BinaryTree::inorder(p)?;
        let t1 = BinaryTree::mirror(&t0);
        Ok(DoubleBinaryTree { trees: [t0, t1] })
    }

    /// The tree with the given index (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn tree(&self, i: usize) -> &BinaryTree {
        &self.trees[i]
    }

    /// Both trees as a slice.
    pub fn trees(&self) -> &[BinaryTree] {
        &self.trees
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.trees[0].num_ranks()
    }
}

impl fmt::Display for DoubleBinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "double binary tree (p={})", self.num_ranks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_all(t: &BinaryTree) {
        let p = t.num_ranks();
        let mut seen = vec![false; p];
        let mut stack = vec![t.root()];
        while let Some(r) = stack.pop() {
            assert!(!seen[r.index()], "rank {r} visited twice");
            seen[r.index()] = true;
            stack.extend(t.children(r).iter().copied());
        }
        assert!(seen.iter().all(|&s| s), "tree does not span all ranks");
    }

    #[test]
    fn inorder_tree_spans_and_is_binary() {
        for p in 2..40 {
            let t = BinaryTree::inorder(p).unwrap();
            spans_all(&t);
            for r in Rank::all(p) {
                assert!(t.children(r).len() <= 2);
            }
        }
    }

    #[test]
    fn inorder_depth_is_logarithmic() {
        for p in [2usize, 4, 8, 16, 64, 256, 1024] {
            let t = BinaryTree::inorder(p).unwrap();
            let bound = ((p + 1) as f64).log2().ceil() as usize;
            assert!(
                t.depth() <= bound,
                "p={p}: depth {} > bound {bound}",
                t.depth()
            );
        }
    }

    #[test]
    fn too_few_ranks_is_rejected() {
        assert_eq!(
            BinaryTree::inorder(1).unwrap_err(),
            TreeError::TooFewRanks(1)
        );
        assert!(DoubleBinaryTree::new(0).is_err());
    }

    #[test]
    fn mirror_is_valid_and_distinct() {
        for p in 2..20 {
            let t0 = BinaryTree::inorder(p).unwrap();
            let t1 = BinaryTree::mirror(&t0);
            spans_all(&t1);
            assert_eq!(t1.depth(), t0.depth());
            assert_eq!(t1.root(), Rank((p - 1 - t0.root().index()) as u32));
        }
    }

    #[test]
    fn mirror_rebalances_leaf_roles() {
        // In the two-tree algorithm most leaves of one tree should be
        // internal in the other so bandwidth is used by all ranks.
        let t0 = BinaryTree::inorder(8).unwrap();
        let t1 = BinaryTree::mirror(&t0);
        let both_leaf = Rank::all(8)
            .filter(|&r| t0.is_leaf(r) && t1.is_leaf(r))
            .count();
        assert!(both_leaf <= 2, "{both_leaf} ranks are leaves in both trees");
    }

    #[test]
    fn bottom_up_respects_child_order() {
        let t = BinaryTree::inorder(11).unwrap();
        let order = t.bottom_up();
        let mut pos = [usize::MAX; 11];
        for (i, &r) in order.iter().enumerate() {
            pos[r.index()] = i;
        }
        for r in Rank::all(11) {
            for &c in t.children(r) {
                assert!(pos[c.index()] < pos[r.index()]);
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn depth_of_matches_parent_chain() {
        let t = BinaryTree::inorder(8).unwrap();
        assert_eq!(t.depth_of(t.root()), 0);
        let max = Rank::all(8).map(|r| t.depth_of(r)).max().unwrap();
        assert_eq!(max, t.depth());
    }

    #[test]
    fn up_edges_count_is_p_minus_1() {
        for p in 2..20 {
            let t = BinaryTree::inorder(p).unwrap();
            assert_eq!(t.up_edges().len(), p - 1);
        }
    }
}
