//! Feature-vector sets: the unit flowing between `gen_fvs`, `al_matcher`
//! and `apply_matcher`.

use falcon_table::IdPair;

/// A set of tuple pairs with their feature vectors (`NaN` = missing).
#[derive(Debug, Clone, Default)]
pub struct FvSet {
    /// The pairs.
    pub pairs: Vec<IdPair>,
    /// One feature vector per pair, aligned with `pairs`.
    pub fvs: Vec<Vec<f64>>,
}

impl FvSet {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Feature arity (0 when empty).
    pub fn arity(&self) -> usize {
        self.fvs.first().map_or(0, Vec::len)
    }

    /// Iterate `(pair, fv)`.
    pub fn iter(&self) -> impl Iterator<Item = (IdPair, &[f64])> {
        self.pairs
            .iter()
            .copied()
            .zip(self.fvs.iter().map(Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = FvSet {
            pairs: vec![(0, 1), (2, 3)],
            fvs: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 2);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected[1].0, (2, 3));
        assert_eq!(collected[1].1, &[3.0, 4.0]);
    }
}
