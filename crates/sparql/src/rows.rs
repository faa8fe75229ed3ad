//! [`Rows`]: the rows of one relation in a single strided buffer.

use lusail_rdf::fx::FxHasher;
use lusail_rdf::{FxHashMap, TermId};
use std::cmp::Ordering;
use std::hash::Hasher;

/// End of a hash chain over row indices (see [`Rows::dedup`] and the join
/// kernel): no row has this index.
pub(crate) const NO_ROW: usize = usize::MAX;

/// The rows of a relation: `len` rows of `width` cells each, laid out row
/// after row in one `Vec`, handed out as `&[Option<TermId>]` slices. `None`
/// is an unbound cell (an `OPTIONAL` miss, `UNDEF` in a `VALUES` block).
///
/// The row count is stored, not derived, so zero-width rows keep their
/// number: the answer of a satisfied `ASK` is one row of no cells. While
/// `len == 0` the width is not committed — the first row pushed sets it —
/// so an empty `Rows` fits under any schema and equals any other empty one.
#[derive(Clone, Default)]
pub struct Rows {
    cells: Vec<Option<TermId>>,
    width: usize,
    len: usize,
}

impl Rows {
    /// The one solution that binds nothing: a single zero-width row. It is
    /// the identity of the join and the seed of an unseeded BGP.
    pub fn unit() -> Rows {
        Rows {
            cells: Vec::new(),
            width: 0,
            len: 1,
        }
    }

    /// `len` rows of `width` cells from their row-major buffer.
    pub fn from_cells(width: usize, len: usize, cells: Vec<Option<TermId>>) -> Rows {
        assert_eq!(cells.len(), width * len, "{len} rows of {width} cells");
        Rows { cells, width, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row. Every row of a relation has the same width.
    pub fn push(&mut self, row: &[Option<TermId>]) {
        if self.len == 0 {
            self.width = row.len();
        }
        assert_eq!(row.len(), self.width, "ragged rows");
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends every row of `other`.
    pub fn extend(&mut self, other: &Rows) {
        if other.is_empty() {
            return;
        }
        if self.len == 0 {
            self.width = other.width;
        }
        assert_eq!(other.width, self.width, "ragged rows");
        self.cells.extend_from_slice(&other.cells);
        self.len += other.len;
    }

    /// The rows in order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = &[Option<TermId>]> + ExactSizeIterator + Clone {
        let w = self.width;
        (0..self.len).map(move |i| &self.cells[i * w..(i + 1) * w])
    }

    /// The first row, mutably.
    pub fn first_mut(&mut self) -> Option<&mut [Option<TermId>]> {
        (self.len > 0).then(|| &mut self[0])
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.len = n;
            self.cells.truncate(n * self.width);
        }
    }

    /// Keeps the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Option<TermId>]) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self[i]) {
                self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Removes duplicate rows, preserving first-seen order. Kept rows are
    /// chained by the hash of their cells and compared cell by cell: no row
    /// is copied out to be remembered.
    pub fn dedup(&mut self) {
        let w = self.width;
        let mut heads: FxHashMap<u64, usize> = FxHashMap::default();
        let mut next: Vec<usize> = Vec::new();
        let mut kept = 0;
        for i in 0..self.len {
            let head = heads.entry(hash_cells(&self[i])).or_insert(NO_ROW);
            let mut k = *head;
            while k != NO_ROW && self[k] != self[i] {
                k = next[k];
            }
            if k == NO_ROW {
                next.push(std::mem::replace(head, kept));
                self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Sorts the rows with a comparator (stable).
    pub fn sort_by(
        &mut self,
        mut cmp: impl FnMut(&[Option<TermId>], &[Option<TermId>]) -> Ordering,
    ) {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by(|&a, &b| cmp(&self[a], &self[b]));
        let mut cells = Vec::with_capacity(self.cells.len());
        for i in order {
            cells.extend_from_slice(&self[i]);
        }
        self.cells = cells;
    }

    /// Sorts the rows cell by cell, unbound first.
    pub fn sort(&mut self) {
        self.sort_by(Ord::cmp);
    }

    /// Looks `row` up in rows that are [`sort`](Self::sort)ed: its index, or
    /// where it would be inserted.
    pub fn binary_search(&self, row: &[Option<TermId>]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self[mid].cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Every row rebuilt from the given source columns, `None` standing for
    /// an all-unbound column.
    pub fn project(&self, cols: &[Option<usize>]) -> Rows {
        let mut cells = Vec::with_capacity(self.len * cols.len());
        for row in self.iter() {
            cells.extend(cols.iter().map(|c| c.and_then(|c| row[c])));
        }
        Rows::from_cells(cols.len(), self.len, cells)
    }

    /// The rows in runs of at most `n`, each a relation of its own.
    pub fn chunks(&self, n: usize) -> impl Iterator<Item = Rows> + '_ {
        assert!(n > 0, "chunk size");
        let w = self.width;
        (0..self.len).step_by(n).map(move |start| {
            let end = (start + n).min(self.len);
            Rows::from_cells(w, end - start, self.cells[start * w..end * w].to_vec())
        })
    }
}

/// The hash of a run of cells (FxHash over one word per cell).
fn hash_cells(cells: &[Option<TermId>]) -> u64 {
    let mut h = FxHasher::default();
    for cell in cells {
        h.write_u64(cell.map_or(0, |id| u64::from(id.0) + 1));
    }
    h.finish()
}

impl std::ops::Index<usize> for Rows {
    type Output = [Option<TermId>];

    fn index(&self, i: usize) -> &[Option<TermId>] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

impl std::ops::IndexMut<usize> for Rows {
    fn index_mut(&mut self, i: usize) -> &mut [Option<TermId>] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }
}

/// Same rows in the same order; two empty relations are equal whatever
/// width they would have had.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len
            && (self.len == 0 || (self.width == other.width && self.cells == other.cells))
    }
}

impl Eq for Rows {}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Collects owned rows — how tests and literals build a relation. Panics on
/// rows of different widths.
impl FromIterator<Vec<Option<TermId>>> for Rows {
    fn from_iter<I: IntoIterator<Item = Vec<Option<TermId>>>>(iter: I) -> Rows {
        let mut rows = Rows::default();
        for row in iter {
            rows.push(&row);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Row = Vec<Option<TermId>>;

    fn id(n: u32) -> Option<TermId> {
        Some(TermId(n))
    }

    fn rows(v: Vec<Row>) -> Rows {
        v.into_iter().collect()
    }

    fn owned(rows: &Rows) -> Vec<Row> {
        rows.iter().map(<[_]>::to_vec).collect()
    }

    #[test]
    fn rows_are_slices_of_one_buffer() {
        let mut r = rows(vec![vec![id(1), None], vec![id(3), id(4)]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r[1], [id(3), id(4)]);
        assert_eq!(r.iter().next_back(), Some(&[id(3), id(4)][..]));
        assert_eq!(r.iter().len(), 2);
        // Cells of a row iterate as `&Option<TermId>`.
        assert_eq!(r[0].iter().filter(|cell| cell.is_none()).count(), 1);
        r.first_mut().expect("non-empty")[0] = None;
        assert_eq!(r[0], [None, None]);
        r[1][1] = None;
        r.push(&[id(5), id(6)]);
        assert_eq!(
            owned(&r),
            vec![vec![None, None], vec![id(3), None], vec![id(5), id(6)]]
        );
        assert_eq!(format!("{r:?}").matches("TermId").count(), 3);
    }

    #[test]
    #[should_panic(expected = "row 2 of 2")]
    fn indexing_past_the_last_row_panics() {
        let r = rows(vec![vec![], vec![]]);
        let _ = &r[2];
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn collecting_ragged_rows_panics() {
        rows(vec![vec![id(1), id(2)], vec![id(3)]]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn extending_by_another_width_panics() {
        let mut r = rows(vec![vec![id(1)]]);
        r.extend(&rows(vec![vec![id(1), id(2)]]));
    }

    #[test]
    #[should_panic(expected = "2 rows of 3 cells")]
    fn from_cells_checks_the_buffer_length() {
        Rows::from_cells(3, 2, vec![None; 5]);
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let mut r = Rows::unit();
        assert_eq!((r.len(), r.iter().count()), (1, 1));
        assert_eq!(r[0], []);
        r.push(&[]);
        r.extend(&Rows::unit());
        assert_eq!(r.len(), 3);
        assert_ne!(r, Rows::unit());
        assert_eq!(r.project(&[None]), rows(vec![vec![None]; 3]));
        assert_eq!(r.chunks(2).map(|c| c.len()).collect::<Vec<_>>(), [2, 1]);
        r.sort();
        r.retain(|row| row.is_empty());
        assert_eq!(r.len(), 3);
        assert_eq!(r.binary_search(&[]).map(|_| ()), Ok(()));
        r.dedup();
        assert_eq!(r, Rows::unit());
        r.truncate(0);
        assert!(r.is_empty() && r.first_mut().is_none());
    }

    #[test]
    fn an_empty_relation_has_no_width_yet() {
        let empty: Rows = Vec::<Row>::new().into_iter().collect();
        assert_eq!(empty, Rows::default());
        assert_eq!(empty, Rows::from_cells(4, 0, Vec::new()));
        assert_eq!(empty.project(&[Some(7), None]), empty);
        assert_eq!(empty.chunks(3).count(), 0);
        // The first rows in set the width, whatever it was before.
        let mut wide = Rows::from_cells(4, 0, Vec::new());
        wide.push(&[id(1)]);
        let mut from_extend = empty.clone();
        from_extend.extend(&wide);
        assert_eq!(from_extend, rows(vec![vec![id(1)]]));
        wide.truncate(0);
        wide.push(&[id(1), id(2)]);
        assert_eq!(wide[0], [id(1), id(2)]);
    }

    #[test]
    fn retain_sort_search_dedup_chunks() {
        let mut r = rows(vec![
            vec![id(2), id(1)],
            vec![None, id(9)],
            vec![id(2), id(0)],
            vec![id(2), id(1)],
            vec![id(1), id(5)],
        ]);
        let chunks: Vec<Rows> = r.chunks(2).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2], rows(vec![vec![id(1), id(5)]]));

        // Stable: equal keys keep their order.
        let mut by_first = r.clone();
        by_first.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(
            owned(&by_first),
            vec![
                vec![None, id(9)],
                vec![id(1), id(5)],
                vec![id(2), id(1)],
                vec![id(2), id(0)],
                vec![id(2), id(1)],
            ]
        );

        r.dedup();
        assert_eq!(r.len(), 4);
        assert_eq!(r[2], [id(2), id(0)]);
        r.sort();
        assert_eq!(r[0], [None, id(9)]);
        assert_eq!(r.binary_search(&[id(2), id(0)]), Ok(2));
        assert_eq!(r.binary_search(&[id(2), id(5)]), Err(4));
        assert_eq!(r.binary_search(&[None, id(0)]), Err(0));
        r.retain(|row| row[0] == id(2));
        assert_eq!(owned(&r), vec![vec![id(2), id(0)], vec![id(2), id(1)]]);
        r.truncate(5);
        assert_eq!(r.len(), 2);
    }
}
