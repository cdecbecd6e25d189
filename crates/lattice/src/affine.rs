//! Affine subspaces of the Boolean cube over GF(2).
//!
//! D-reducible functions (paper Sec. III-B-2, after Bernasconi–Ciriani) are
//! functions whose ON-set lies in an affine space `A` strictly smaller than
//! the whole cube. This module computes the affine hull of an ON-set by
//! Gaussian elimination over GF(2), derives the parity constraints defining
//! it, and produces the decomposition `f = χ_A · f_A`.

use nanoxbar_logic::TruthTable;

/// An affine subspace `A = offset ⊕ span(basis)` of `GF(2)^n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineSpace {
    num_vars: usize,
    offset: u64,
    /// Reduced-row-echelon basis of the direction space; each vector has a
    /// distinct pivot (lowest set bit not present in the others).
    basis: Vec<u64>,
    /// Pivot variable of each basis vector (ascending).
    pivots: Vec<usize>,
}

/// One GF(2) parity constraint `mask · x = value` (inner product mod 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityConstraint {
    /// Variables participating in the parity.
    pub mask: u64,
    /// Required parity.
    pub value: bool,
}

impl ParityConstraint {
    /// Evaluates the constraint on minterm `m`.
    pub fn holds(&self, m: u64) -> bool {
        ((m & self.mask).count_ones() % 2 == 1) == self.value
    }
}

impl AffineSpace {
    /// The affine hull of the ON-set of `f`.
    ///
    /// Returns `None` for the constant-false function (empty hull).
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar_lattice::affine::AffineSpace;
    /// use nanoxbar_logic::TruthTable;
    ///
    /// // ON-set {000, 011}: a 1-dimensional affine line.
    /// let f = TruthTable::from_minterms(3, &[0b000, 0b011])?;
    /// let hull = AffineSpace::hull_of(&f).expect("non-empty");
    /// assert_eq!(hull.dimension(), 1);
    /// assert!(hull.contains(0b000) && hull.contains(0b011));
    /// assert!(!hull.contains(0b001));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn hull_of(f: &TruthTable) -> Option<AffineSpace> {
        let mut minterms = f.minterms();
        let offset = minterms.next()?;
        let mut basis: Vec<u64> = Vec::new();
        for m in minterms {
            let mut v = m ^ offset;
            // Reduce v against the current basis.
            for &b in &basis {
                let pivot = 1u64 << (63 - b.leading_zeros());
                if v & pivot != 0 {
                    v ^= b;
                }
            }
            if v != 0 {
                basis.push(v);
            }
        }
        // Bring to reduced row echelon form: sort by pivot descending, then
        // eliminate pivots from the other rows.
        basis.sort_by_key(|b| std::cmp::Reverse(*b));
        let snapshot = basis.clone();
        for (i, b) in basis.iter_mut().enumerate() {
            for (j, &other) in snapshot.iter().enumerate() {
                if i == j {
                    continue;
                }
                let pivot = 1u64 << (63 - other.leading_zeros());
                if *b & pivot != 0 && *b != other {
                    *b ^= other;
                }
            }
        }
        // Re-reduce until fixpoint (one pass can reintroduce bits).
        loop {
            let mut changed = false;
            let snap = basis.clone();
            #[allow(clippy::needless_range_loop)] // basis[i] is mutated in place
            for i in 0..basis.len() {
                for (j, &other) in snap.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let pivot = 1u64 << (63 - other.leading_zeros());
                    if basis[i] & pivot != 0 {
                        basis[i] ^= other;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        basis.retain(|&b| b != 0);
        let mut pivots: Vec<usize> = basis
            .iter()
            .map(|b| (63 - b.leading_zeros()) as usize)
            .collect();
        let mut order: Vec<usize> = (0..basis.len()).collect();
        order.sort_by_key(|&i| pivots[i]);
        let basis: Vec<u64> = order.iter().map(|&i| basis[i]).collect();
        pivots.sort_unstable();
        // Normalise the offset: clear its pivot coordinates' contribution so
        // membership tests are canonical (offset reduced against basis).
        let mut offset = offset;
        for (&b, &p) in basis.iter().zip(&pivots) {
            if (offset >> p) & 1 == 1 {
                offset ^= b;
            }
        }
        Some(AffineSpace {
            num_vars: f.num_vars(),
            offset,
            basis,
            pivots,
        })
    }

    /// Arity of the ambient cube.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Dimension of the space.
    pub fn dimension(&self) -> usize {
        self.basis.len()
    }

    /// Codimension (`num_vars - dimension`): the number of independent
    /// parity constraints defining the space.
    pub fn codimension(&self) -> usize {
        self.num_vars - self.basis.len()
    }

    /// The affine offset (a member of the space).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The direction-space basis (reduced row echelon, ascending pivots).
    pub fn basis(&self) -> &[u64] {
        &self.basis
    }

    /// The pivot (free) coordinates — one per basis vector.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Membership test.
    pub fn contains(&self, m: u64) -> bool {
        let mut v = m ^ self.offset;
        for &b in &self.basis {
            let pivot = 1u64 << (63 - b.leading_zeros());
            if v & pivot != 0 {
                v ^= b;
            }
        }
        v == 0
    }

    /// The characteristic function `χ_A`.
    pub fn characteristic(&self) -> TruthTable {
        TruthTable::from_fn(self.num_vars, |m| self.contains(m))
    }

    /// The parity constraints defining the space (one per codimension).
    ///
    /// Each constraint mask is orthogonal (mod 2) to every basis vector; a
    /// point lies in the space iff it satisfies all constraints.
    pub fn constraints(&self) -> Vec<ParityConstraint> {
        // The orthogonal complement of span(basis): for each non-pivot
        // coordinate c, the vector with a 1 at c and, at each pivot p_i, the
        // c-th bit of basis vector i. (Standard RREF null-space basis, here
        // applied to the *row space* complement.)
        let mut out = Vec::with_capacity(self.codimension());
        for c in 0..self.num_vars {
            if self.pivots.contains(&c) {
                continue;
            }
            let mut mask = 1u64 << c;
            for (i, &p) in self.pivots.iter().enumerate() {
                if (self.basis[i] >> c) & 1 == 1 {
                    mask |= 1u64 << p;
                }
            }
            let value = (self.offset & mask).count_ones() % 2 == 1;
            out.push(ParityConstraint { mask, value });
        }
        out
    }

    /// Reconstructs the unique point of the space whose pivot coordinates
    /// match those of `m` (the parameterisation used for the projection
    /// `f_A`).
    pub fn reconstruct(&self, m: u64) -> u64 {
        let mut x = self.offset;
        for (i, &p) in self.pivots.iter().enumerate() {
            let want = (m >> p) & 1;
            if (x >> p) & 1 != want {
                x ^= self.basis[i];
            }
        }
        x
    }

    /// The projection `f_A`: a function over the pivot coordinates only,
    /// extended to the full variable space, with `f = χ_A · f_A`.
    pub fn project(&self, f: &TruthTable) -> TruthTable {
        TruthTable::from_fn(self.num_vars, |m| f.value(self.reconstruct(m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_of_full_cube_has_full_dimension() {
        let f = TruthTable::ones(4);
        let hull = AffineSpace::hull_of(&f).unwrap();
        assert_eq!(hull.dimension(), 4);
        assert_eq!(hull.codimension(), 0);
        assert!(hull.constraints().is_empty());
    }

    #[test]
    fn hull_of_single_point_is_zero_dimensional() {
        let f = TruthTable::from_minterms(3, &[0b101]).unwrap();
        let hull = AffineSpace::hull_of(&f).unwrap();
        assert_eq!(hull.dimension(), 0);
        assert_eq!(hull.characteristic(), f);
        assert_eq!(hull.constraints().len(), 3);
    }

    #[test]
    fn hull_of_empty_is_none() {
        assert!(AffineSpace::hull_of(&TruthTable::zeros(3)).is_none());
    }

    #[test]
    fn characteristic_matches_membership_constraints() {
        // ON-set inside the even-parity subspace of 4 vars.
        let f = TruthTable::from_fn(4, |m| m.count_ones() % 2 == 0 && m % 3 == 0);
        let hull = AffineSpace::hull_of(&f).unwrap();
        let chi = hull.characteristic();
        let constraints = hull.constraints();
        for m in 0..16u64 {
            let by_constraints = constraints.iter().all(|c| c.holds(m));
            assert_eq!(chi.value(m), by_constraints, "m={m}");
            if f.value(m) {
                assert!(chi.value(m), "hull must contain the ON-set");
            }
        }
    }

    #[test]
    fn projection_recomposes_the_function() {
        for codim in 1..=3 {
            for seed in 0..10u64 {
                let n = 6;
                let f = nanoxbar_logic::suite::d_reducible_function(n, codim, seed).unwrap();
                if f.is_zero() {
                    continue;
                }
                let hull = AffineSpace::hull_of(&f).unwrap();
                assert!(hull.dimension() <= n - codim, "codim {codim} seed {seed}");
                let chi = hull.characteristic();
                let fa = hull.project(&f);
                assert_eq!(chi.and(&fa), f, "f = chi_A * f_A failed");
            }
        }
    }

    #[test]
    fn reconstruct_lands_in_space_with_matching_pivots() {
        let f = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1 && m & 1 == 1);
        let hull = AffineSpace::hull_of(&f).unwrap();
        for m in 0..32u64 {
            let x = hull.reconstruct(m);
            assert!(hull.contains(x));
            for &p in hull.pivots() {
                assert_eq!((x >> p) & 1, (m >> p) & 1, "pivot {p}");
            }
        }
    }
}
