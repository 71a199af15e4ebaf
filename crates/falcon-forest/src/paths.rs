//! Extraction of negative tree paths as candidate blocking rules.
//!
//! Section 3.2 / Figure 2 of the paper: every root→"No"-leaf branch of a
//! decision tree is a conjunction of threshold predicates that, when
//! satisfied, predicts *no match* — i.e. a candidate blocking rule
//! `p_1 ∧ ... ∧ p_m → drop (a, b)`.

use crate::tree::{Node, Tree};
use crate::Forest;

/// Comparison operator on a feature threshold along a tree path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitOp {
    /// Feature value `<=` threshold (left branch).
    Le,
    /// Feature value `>` threshold (right branch).
    Gt,
}

impl SplitOp {
    /// Evaluate `value op threshold`; missing (`NaN`) values satisfy `Le`
    /// (consistent with trees routing missing values left).
    pub fn eval(self, value: f64, threshold: f64) -> bool {
        match self {
            SplitOp::Le => value <= threshold || value.is_nan(),
            SplitOp::Gt => value > threshold, // NaN -> false
        }
    }

    /// The complementary operator.
    pub fn complement(self) -> SplitOp {
        match self {
            SplitOp::Le => SplitOp::Gt,
            SplitOp::Gt => SplitOp::Le,
        }
    }
}

/// One predicate along a negative path: `feature op threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathPredicate {
    /// Feature index into the feature vector.
    pub feature: usize,
    /// Comparison operator.
    pub op: SplitOp,
    /// Threshold value.
    pub threshold: f64,
}

impl PathPredicate {
    /// Evaluate against a feature vector.
    pub fn eval(&self, features: &[f64]) -> bool {
        let v = features.get(self.feature).copied().unwrap_or(f64::NAN);
        self.op.eval(v, self.threshold)
    }
}

/// A root→No-leaf path: a conjunction of predicates plus the number of
/// negative training examples the leaf covered (used to rank candidate
/// rules before crowd evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct NegativePath {
    /// Conjunction of threshold predicates.
    pub predicates: Vec<PathPredicate>,
    /// Negative training examples at the leaf.
    pub leaf_neg: usize,
    /// Positive training examples at the leaf (impurity signal).
    pub leaf_pos: usize,
}

impl NegativePath {
    /// True iff every predicate holds, i.e. the path would *drop* the pair.
    pub fn fires(&self, features: &[f64]) -> bool {
        self.predicates.iter().all(|p| p.eval(features))
    }
}

/// Extract all negative paths from one tree.
pub fn extract_tree_paths(tree: &Tree) -> Vec<NegativePath> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    walk(&tree.root, &mut stack, &mut out);
    out
}

/// Extract all negative paths from every tree in a forest.
pub fn extract_forest_paths(forest: &Forest) -> Vec<NegativePath> {
    forest.trees.iter().flat_map(extract_tree_paths).collect()
}

fn walk(node: &Node, stack: &mut Vec<PathPredicate>, out: &mut Vec<NegativePath>) {
    match node {
        Node::Leaf { label, pos, neg } => {
            if !*label && !stack.is_empty() {
                out.push(NegativePath {
                    predicates: stack.clone(),
                    leaf_neg: *neg,
                    leaf_pos: *pos,
                });
            }
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            stack.push(PathPredicate {
                feature: *feature,
                op: SplitOp::Le,
                threshold: *threshold,
            });
            walk(left, stack, out);
            stack.pop();
            stack.push(PathPredicate {
                feature: *feature,
                op: SplitOp::Gt,
                threshold: *threshold,
            });
            walk(right, stack, out);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;

    /// The Figure 2.a tree: isbn_match (feature 0) then #pages match
    /// (feature 1); "No" leaves at (isbn <= 0.5) and (isbn > 0.5, pages <=
    /// 0.5).
    fn figure2_tree() -> Tree {
        Tree {
            root: Node::Split {
                feature: 0,
                threshold: 0.5,
                left: Box::new(Node::Leaf {
                    label: false,
                    pos: 0,
                    neg: 80,
                }),
                right: Box::new(Node::Split {
                    feature: 1,
                    threshold: 0.5,
                    left: Box::new(Node::Leaf {
                        label: false,
                        pos: 1,
                        neg: 9,
                    }),
                    right: Box::new(Node::Leaf {
                        label: true,
                        pos: 10,
                        neg: 0,
                    }),
                }),
            },
            arity: 2,
        }
    }

    #[test]
    fn extracts_both_no_paths() {
        let paths = extract_tree_paths(&figure2_tree());
        assert_eq!(paths.len(), 2);
        // Rule 1: isbn_match <= 0.5 -> No.
        assert_eq!(paths[0].predicates.len(), 1);
        assert_eq!(paths[0].predicates[0].feature, 0);
        assert_eq!(paths[0].predicates[0].op, SplitOp::Le);
        assert_eq!(paths[0].leaf_neg, 80);
        // Rule 2: isbn_match > 0.5 AND pages <= 0.5 -> No.
        assert_eq!(paths[1].predicates.len(), 2);
        assert_eq!(paths[1].predicates[0].op, SplitOp::Gt);
        assert_eq!(paths[1].predicates[1].op, SplitOp::Le);
    }

    #[test]
    fn fires_matches_tree_negative_prediction() {
        let tree = figure2_tree();
        let paths = extract_tree_paths(&tree);
        for fv in [
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![f64::NAN, 1.0],
        ] {
            let tree_no = !tree.predict(&fv);
            let any_fires = paths.iter().any(|p| p.fires(&fv));
            assert_eq!(tree_no, any_fires, "fv={fv:?}");
        }
    }

    #[test]
    fn all_positive_tree_has_no_paths() {
        let tree = Tree {
            root: Node::Leaf {
                label: true,
                pos: 5,
                neg: 0,
            },
            arity: 1,
        };
        assert!(extract_tree_paths(&tree).is_empty());
    }

    #[test]
    fn split_op_nan_semantics() {
        assert!(SplitOp::Le.eval(f64::NAN, 0.5));
        assert!(!SplitOp::Gt.eval(f64::NAN, 0.5));
        assert_eq!(SplitOp::Le.complement(), SplitOp::Gt);
    }
}
