//! Odometer-style iteration over rectangular multi-index domains.

/// Steps a row-major odometer in place, the last digit fastest, digit `i`
/// below `limit(i)`; false once it wraps to all zeros.
///
/// ```
/// let mut digits = [0, 2];
/// assert!(ss_array::advance(&mut digits, |_| 3));
/// assert_eq!(digits, [1, 0]);
/// ```
#[inline]
pub fn advance(digits: &mut [usize], limit: impl Fn(usize) -> usize) -> bool {
    for i in (0..digits.len()).rev() {
        digits[i] += 1;
        if digits[i] < limit(i) {
            return true;
        }
        digits[i] = 0;
    }
    false
}

/// Odometer digits held on the stack: three per axis up to rank 8.
const STACK_DIGITS: usize = 24;

/// Runs `f` on `len` zeroed odometer digits, held on the stack up to 24
/// (three per axis up to rank 8) and in a `Vec` beyond.
#[inline]
pub fn with_digits<R>(len: usize, f: impl FnOnce(&mut [usize]) -> R) -> R {
    if len <= STACK_DIGITS {
        f(&mut [0; STACK_DIGITS][..len])
    } else {
        f(&mut vec![0; len])
    }
}

/// Visits every multi-index of `[0, extents[0]) x ... ` in row-major order,
/// stepping one index buffer ([`with_digits`]) with [`advance`]: nothing
/// is allocated per index. An empty extent list visits the empty index
/// once; a zero extent visits nothing.
#[inline]
pub fn for_each_index(extents: &[usize], mut visit: impl FnMut(&[usize])) {
    if extents.contains(&0) {
        return;
    }
    with_digits(extents.len(), |idx| loop {
        visit(idx);
        if !advance(idx, |t| extents[t]) {
            return;
        }
    })
}

/// Iterates over all multi-indices of a rectangular domain in row-major
/// order (last axis fastest).
///
/// An empty extent list yields exactly one empty index (the 0-dimensional
/// point). Every step clones its index into a fresh `Vec`, so cell loops
/// use [`for_each_index`] (or step [`advance`]) instead.
///
/// ```
/// use ss_array::MultiIndexIter;
/// let all: Vec<Vec<usize>> = MultiIndexIter::new(&[2, 2]).collect();
/// assert_eq!(all, vec![vec![0,0], vec![0,1], vec![1,0], vec![1,1]]);
/// ```
pub struct MultiIndexIter {
    extents: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl MultiIndexIter {
    /// Creates an iterator over `[0, extents[0]) x ... x [0, extents[d-1])`.
    ///
    /// If any extent is zero the iterator is immediately exhausted.
    pub fn new(extents: &[usize]) -> Self {
        let done = extents.contains(&0);
        MultiIndexIter {
            extents: extents.to_vec(),
            current: vec![0; extents.len()],
            done,
        }
    }
}

impl Iterator for MultiIndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let item = self.current.clone();
        let extents = &self.extents;
        self.done = !advance(&mut self.current, |t| extents[t]);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let total: usize = self.extents.iter().product();
        // How many indices have been emitted so far.
        let mut emitted = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.extents.len()).rev() {
            emitted += self.current[axis] * stride;
            stride *= self.extents[axis];
        }
        let remaining = total - emitted;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for MultiIndexIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_domain_in_row_major_order() {
        let got: Vec<Vec<usize>> = MultiIndexIter::new(&[2, 3]).collect();
        let want = vec![
            vec![0, 0],
            vec![0, 1],
            vec![0, 2],
            vec![1, 0],
            vec![1, 1],
            vec![1, 2],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn zero_dimensional_yields_one_empty_index() {
        let got: Vec<Vec<usize>> = MultiIndexIter::new(&[]).collect();
        assert_eq!(got, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn zero_extent_yields_nothing() {
        assert_eq!(MultiIndexIter::new(&[3, 0]).count(), 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut it = MultiIndexIter::new(&[3, 4]);
        let mut remaining = 12;
        assert_eq!(it.len(), remaining);
        while let Some(_) = it.next() {
            remaining -= 1;
            assert_eq!(it.size_hint(), (remaining, Some(remaining)));
        }
    }

    #[test]
    fn one_dimensional() {
        let got: Vec<Vec<usize>> = MultiIndexIter::new(&[4]).collect();
        assert_eq!(got.len(), 4);
        assert_eq!(got[3], vec![3]);
    }

    #[test]
    fn advance_steps_the_last_digit_fastest_and_wraps_to_zeros() {
        let mut digits = [1, 0, 1];
        let limits = [2, 1, 2];
        assert!(!advance(&mut digits, |t| limits[t]), "last index wraps");
        assert_eq!(digits, [0, 0, 0]);
        let mut steps = 1;
        while advance(&mut digits, |t| limits[t]) {
            steps += 1;
        }
        assert_eq!(steps, 4);
        assert_eq!(digits, [0, 0, 0]);
        assert!(!advance(&mut [], |_| 1), "no digits: wraps at once");
    }

    #[test]
    fn for_each_index_matches_the_iterator() {
        for extents in [&[3usize, 1, 4][..], &[5], &[2, 2, 2, 2], &[1, 7]] {
            let mut got = Vec::new();
            for_each_index(extents, |idx| got.push(idx.to_vec()));
            let want: Vec<Vec<usize>> = MultiIndexIter::new(extents).collect();
            assert_eq!(got, want, "{extents:?}");
        }
    }

    #[test]
    fn for_each_index_edge_extents() {
        let mut seen = Vec::new();
        for_each_index(&[], |idx| seen.push(idx.to_vec()));
        assert_eq!(seen, vec![Vec::<usize>::new()], "empty: once, with &[]");
        let mut visits = 0;
        for_each_index(&[3, 0, 2], |_| visits += 1);
        assert_eq!(visits, 0, "a zero extent visits nothing");
        // Past the stack digits the index lives in a `Vec`: same walk.
        let mut wide = vec![1; 25];
        (wide[1], wide[24]) = (2, 3);
        let mut got = Vec::new();
        for_each_index(&wide, |idx| got.push(idx.to_vec()));
        assert_eq!(got, MultiIndexIter::new(&wide).collect::<Vec<_>>());
    }

    #[test]
    fn from_fn_visits_the_iterator_indices_in_row_major_order() {
        for dims in [&[3usize, 1, 5][..], &[7], &[2, 3, 2, 2]] {
            let mut seen = Vec::new();
            let a = crate::NdArray::from_fn(crate::Shape::new(dims), |idx| {
                seen.push(idx.to_vec());
                seen.len() as f64
            });
            let want: Vec<Vec<usize>> = MultiIndexIter::new(dims).collect();
            assert_eq!(seen, want, "{dims:?}");
            for (off, idx) in want.iter().enumerate() {
                assert_eq!(a.get(idx), (off + 1) as f64);
            }
        }
    }
}
