//! Minimum-degree fill-reducing ordering.
//!
//! # Pivot rule
//!
//! [`amd`] eliminates, at every step, the live variable with the smallest
//! *exact* external degree — the number of other live variables it reaches
//! in the quotient graph — with ties going to the lowest index. That rule
//! alone fixes the permutation; the rest of this module only makes the rule
//! cheap to evaluate. (The name `amd` is kept for its callers: the degrees
//! are exact, not approximate.)
//!
//! # Counted degrees
//!
//! Each eliminated pivot `p` becomes an *element* whose member list `L_p`
//! holds the live variables it reached. A variable `v` keeps a list `A_v` of
//! variable neighbours and a list `E_v` of adjacent elements, and its reach
//! set is `A_v ∪ ⋃ L_e (e ∈ E_v)` without `v`. After `p` is eliminated:
//!
//! 1. the elements adjacent to `p` are absorbed into `L_p`, and the members
//!    of `L_p` are removed from each member's `A_v` (the element covers
//!    those edges), so `A_v` stays disjoint from the members of `v`'s
//!    elements;
//! 2. one pass over `L_p` counts `w(e) = |L_e \ L_p|` for every older element
//!    a member touches; elements with `w(e) = 0` lie inside `L_p` and are
//!    absorbed as well (aggressive absorption);
//! 3. a member's degree is `|L_p| − 1 + |A_v|` plus what its older elements
//!    reach outside `L_p`: nothing, `w(e)` for a single element, or one union
//!    scan shared by all members with the same element set;
//! 4. the next pivot is the root of a tournament tree over `(degree, index)`.
//!
//! Variables outside `L_p` keep their degree: their reach sets do not change.
//!
//! # Left out on purpose
//!
//! Approximate degrees, supervariable detection with mass elimination,
//! multiple elimination and dense-row deferral are the usual AMD speedups.
//! Each one changes which variable the rule above picks, hence the
//! permutation, the incomplete factor and every answer downstream, so none
//! of them is used.

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::permutation::Permutation;
use std::collections::HashMap;

/// Computes a minimum-degree ordering of a square matrix from the pattern of
/// `A + Aᵀ` (for the structurally symmetric matrices this crate factors,
/// the pattern of `A`). The returned permutation maps new indices to old
/// indices, i.e. the pivot eliminated first is `perm.old(0)`.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular input.
pub fn amd(a: &CscMatrix) -> Result<Permutation, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.ncols();

    // Quotient graph: A_v (other variables), E_v (element ids, ascending:
    // an element is numbered by the step that formed it) and L_e (emptied
    // when the element is absorbed).
    let mut vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for &i in a.column_rows(j) {
            if i != j {
                vars[j].push(i);
                vars[i].push(j);
            }
        }
    }
    for list in &mut vars {
        list.sort_unstable();
        list.dedup();
    }
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut absorbed = vec![false; n];

    let mut pivots = PivotTree::new(vars.iter().map(Vec::len));

    // `in_pivot[v] == k` while v ∈ L_p in step k; `counted[e] == k` once
    // w(e) has been started in step k; `seen[u] == scan` during a union scan.
    let mut in_pivot = vec![usize::MAX; n];
    let mut w = vec![0usize; n];
    let mut counted = vec![usize::MAX; n];
    let mut seen = vec![usize::MAX; n];
    let mut scan = 0usize;

    let mut order = Vec::with_capacity(n);
    for k in 0..n {
        let p = pivots.pop();
        order.push(p);

        // L_p: p's variable neighbours plus the members of its elements,
        // which are absorbed.
        in_pivot[p] = k;
        let mut lp = std::mem::take(&mut vars[p]);
        for &v in &lp {
            in_pivot[v] = k;
        }
        for e in std::mem::take(&mut elems[p]) {
            for v in std::mem::take(&mut members[e]) {
                if in_pivot[v] != k {
                    in_pivot[v] = k;
                    lp.push(v);
                }
            }
            absorbed[e] = true;
        }

        // Prune each member's lists, then count w(e) = |L_e \ L_p|.
        for &v in &lp {
            vars[v].retain(|&u| in_pivot[u] != k);
            elems[v].retain(|&e| !absorbed[e]);
            for &e in &elems[v] {
                if counted[e] != k {
                    counted[e] = k;
                    w[e] = members[e].len();
                }
                w[e] -= 1;
            }
        }
        // Absorb the elements that lie inside L_p and register L_p itself.
        for &v in &lp {
            elems[v].retain(|&e| {
                if w[e] > 0 {
                    return true;
                }
                absorbed[e] = true;
                members[e] = Vec::new();
                false
            });
            elems[v].push(k);
        }

        // New degrees of the members.
        let mut unions: HashMap<&[usize], usize> = HashMap::new();
        for &v in &lp {
            let older = &elems[v][..elems[v].len() - 1];
            let outside = match *older {
                [] => 0,
                [e] => w[e],
                _ => *unions.entry(older).or_insert_with(|| {
                    scan += 1;
                    let mut count = 0;
                    for &e in older {
                        for &u in &members[e] {
                            if in_pivot[u] != k && seen[u] != scan {
                                seen[u] = scan;
                                count += 1;
                            }
                        }
                    }
                    count
                }),
            };
            let degree = lp.len() - 1 + vars[v].len() + outside;
            pivots.set(v, (degree, v));
        }
        members.push(lp);
    }

    Permutation::from_new_to_old(order)
}

/// Key of an eliminated variable: larger than every live `(degree, index)`.
const ELIMINATED: (usize, usize) = (usize::MAX, usize::MAX);

/// Live variables keyed by `(degree, index)` in a tournament tree: every
/// inner node holds the smaller key of its two children, so the root names
/// the next pivot.
struct PivotTree {
    /// Leaf count, a power of two; variable `v` is leaf `leaves + v`.
    leaves: usize,
    nodes: Vec<(usize, usize)>,
}

impl PivotTree {
    fn new(degrees: impl ExactSizeIterator<Item = usize>) -> Self {
        let leaves = degrees.len().next_power_of_two();
        let mut nodes = vec![ELIMINATED; 2 * leaves];
        for (v, degree) in degrees.enumerate() {
            nodes[leaves + v] = (degree, v);
        }
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        PivotTree { leaves, nodes }
    }

    /// Replaces the key of variable `v`; an unchanged key stops at the
    /// first inner node.
    fn set(&mut self, v: usize, key: (usize, usize)) {
        let mut i = self.leaves + v;
        self.nodes[i] = key;
        while i > 1 {
            i /= 2;
            let best = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == best {
                // Nothing above this node changes either.
                break;
            }
            self.nodes[i] = best;
        }
    }

    /// Removes and returns the live variable with the smallest key.
    fn pop(&mut self) -> usize {
        let (_, v) = self.nodes[1];
        self.set(v, ELIMINATED);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use crate::symbolic::SymbolicCholesky;
    use proptest::prelude::*;

    /// The ordering before degrees were counted: every member's degree is
    /// rescanned after each pivot. Kept unchanged as the oracle of
    /// [`amd`]'s pivot rule.
    fn amd_reference(a: &CscMatrix) -> Result<Permutation, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.ncols();
        if n == 0 {
            return Permutation::from_new_to_old(Vec::new());
        }

        // Variable adjacency (other variables), element adjacency and element
        // member lists of the quotient graph.
        let mut var_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            for &i in a.column_rows(j) {
                if i != j {
                    var_adj[j].push(i);
                }
            }
            var_adj[j].sort_unstable();
            var_adj[j].dedup();
        }
        let mut var_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut elem_members: Vec<Vec<usize>> = Vec::new();

        let mut eliminated = vec![false; n];
        let mut degree: Vec<usize> = var_adj.iter().map(|adj| adj.len()).collect();

        // Lazy priority queue of (degree, variable).
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for v in 0..n {
            heap.push(Reverse((degree[v], v)));
        }

        let mut order = Vec::with_capacity(n);
        let mut mark = vec![usize::MAX; n];
        let mut stamp = 0usize;

        while order.len() < n {
            // Pop the variable with the smallest up-to-date degree.
            let pivot = loop {
                let Reverse((d, v)) = heap
                    .pop()
                    .expect("heap cannot be empty before all pivots are chosen");
                if eliminated[v] {
                    continue;
                }
                if d != degree[v] {
                    // Stale entry; re-insert with the current degree.
                    heap.push(Reverse((degree[v], v)));
                    continue;
                }
                break v;
            };
            eliminated[pivot] = true;
            order.push(pivot);

            // Build the new element: union of the pivot's variable neighbours and
            // the members of its adjacent elements (excluding eliminated nodes).
            stamp += 1;
            let mut members: Vec<usize> = Vec::new();
            for &v in &var_adj[pivot] {
                if !eliminated[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    members.push(v);
                }
            }
            for &e in &var_elems[pivot] {
                for &v in &elem_members[e] {
                    if !eliminated[v] && mark[v] != stamp {
                        mark[v] = stamp;
                        members.push(v);
                    }
                }
                // The absorbed element's member list is no longer needed.
                elem_members[e].clear();
            }
            let absorbed: Vec<usize> = var_elems[pivot].clone();
            let elem_id = elem_members.len();
            elem_members.push(members.clone());

            // Update every member: remove references to the pivot and to absorbed
            // elements, register the new element, and recompute the degree.
            for &v in &members {
                var_adj[v].retain(|&u| u != pivot && !eliminated[u]);
                var_elems[v].retain(|e| !absorbed.contains(e));
                var_elems[v].push(elem_id);

                // Exact degree of v on the quotient graph: |var_adj ∪ element members| - 1.
                stamp += 1;
                mark[v] = stamp;
                let mut d = 0usize;
                for &u in &var_adj[v] {
                    if !eliminated[u] && mark[u] != stamp {
                        mark[u] = stamp;
                        d += 1;
                    }
                }
                for &e in &var_elems[v] {
                    for &u in &elem_members[e] {
                        if !eliminated[u] && u != v && mark[u] != stamp {
                            mark[u] = stamp;
                            d += 1;
                        }
                    }
                }
                degree[v] = d;
                heap.push(Reverse((d, v)));
            }
            var_adj[pivot].clear();
            var_elems[pivot].clear();
        }

        Permutation::from_new_to_old(order)
    }

    /// SplitMix64 stream driving the seeded patterns.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        /// A uniformly random permutation of `0..n` (Fisher–Yates).
        fn shuffled(&mut self, n: usize) -> Vec<usize> {
            let mut labels: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                labels.swap(i, self.below(i + 1));
            }
            labels
        }
    }

    /// Symmetric pattern with a diagonal entry on every vertex and one
    /// Laplacian edge per listed pair (a repeated pair repeats its triplets).
    fn pattern(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &(i, j) in edges {
            t.add_laplacian_edge(i, j, 1.0);
        }
        for i in 0..n {
            t.push(i, i, 1e-3);
        }
        t.to_csc()
    }

    /// The same pattern with its vertices renamed by `labels`.
    fn relabeled(edges: &[(usize, usize)], labels: &[usize]) -> Vec<(usize, usize)> {
        edges.iter().map(|&(i, j)| (labels[i], labels[j])).collect()
    }

    /// Vertex `r * cols + c` at row `r`, column `c`.
    fn grid_2d_edges(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        grid_3d_edges(cols, rows, 1)
    }

    fn grid_3d_edges(nx: usize, ny: usize, nz: usize) -> Vec<(usize, usize)> {
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut edges = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        edges.push((idx(x, y, z), idx(x + 1, y, z)));
                    }
                    if y + 1 < ny {
                        edges.push((idx(x, y, z), idx(x, y + 1, z)));
                    }
                    if z + 1 < nz {
                        edges.push((idx(x, y, z), idx(x, y, z + 1)));
                    }
                }
            }
        }
        edges
    }

    /// `m` random edges on `n` vertices plus `dense` rows joined to about
    /// half of all vertices.
    fn random_edges(rng: &mut Rng, n: usize, m: usize, dense: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for _ in 0..m {
            let (i, j) = (rng.below(n), rng.below(n));
            if i != j {
                edges.push((i, j));
            }
        }
        for _ in 0..dense {
            let hub = rng.below(n);
            for j in 0..n {
                if j != hub && rng.next() & 1 == 0 {
                    edges.push((hub, j));
                }
            }
        }
        edges
    }

    fn assert_matches_reference(a: &CscMatrix) {
        let counted = amd(a).expect("square");
        let reference = amd_reference(a).expect("square");
        assert_eq!(counted.new_to_old(), reference.new_to_old());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn grids_2d_match_the_reference(
            rows in 1usize..16,
            cols in 1usize..16,
            seed in any::<u64>(),
        ) {
            let edges = grid_2d_edges(rows, cols);
            assert_matches_reference(&pattern(rows * cols, &edges));
            // Renamed vertices break the degree ties differently.
            let labels = Rng(seed).shuffled(rows * cols);
            assert_matches_reference(&pattern(rows * cols, &relabeled(&edges, &labels)));
        }

        #[test]
        fn grids_3d_match_the_reference(
            nx in 1usize..7,
            ny in 1usize..7,
            nz in 1usize..7,
            seed in any::<u64>(),
        ) {
            let n = nx * ny * nz;
            let edges = grid_3d_edges(nx, ny, nz);
            assert_matches_reference(&pattern(n, &edges));
            let labels = Rng(seed).shuffled(n);
            assert_matches_reference(&pattern(n, &relabeled(&edges, &labels)));
        }

        #[test]
        fn stars_match_the_reference(leaves in 0usize..40, hub in any::<usize>()) {
            let n = leaves + 1;
            let hub = hub % n;
            let edges: Vec<_> = (0..n).filter(|&v| v != hub).map(|v| (hub, v)).collect();
            assert_matches_reference(&pattern(n, &edges));
        }

        #[test]
        fn random_patterns_with_dense_rows_match_the_reference(
            n in 1usize..120,
            density in 1usize..5,
            dense in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let edges = random_edges(&mut rng, n, density * n, dense);
            assert_matches_reference(&pattern(n, &edges));
        }

        #[test]
        fn disconnected_blocks_and_isolated_vertices_match_the_reference(
            blocks in 1usize..6,
            isolated in 0usize..10,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let mut edges = Vec::new();
            let mut n = 0;
            for _ in 0..blocks {
                let (size, block) = if rng.next() & 1 == 0 {
                    let (rows, cols) = (1 + rng.below(6), 1 + rng.below(6));
                    (rows * cols, grid_2d_edges(rows, cols))
                } else {
                    let (size, dense) = (1 + rng.below(30), rng.below(2));
                    (size, random_edges(&mut rng, size, 2 * size, dense))
                };
                edges.extend(block.iter().map(|&(i, j)| (i + n, j + n)));
                n += size;
            }
            n += isolated;
            let labels = rng.shuffled(n);
            assert_matches_reference(&pattern(n, &relabeled(&edges, &labels)));
        }

        #[test]
        fn duplicate_triplets_match_the_reference(n in 2usize..60, seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let mut edges = Vec::new();
            for (i, j) in random_edges(&mut rng, n, 2 * n, 0) {
                for _ in 0..1 + rng.below(3) {
                    // Either orientation: the same pattern entry twice.
                    edges.push(if rng.next() & 1 == 0 { (i, j) } else { (j, i) });
                }
            }
            assert_matches_reference(&pattern(n, &edges));
        }

        #[test]
        fn diagonal_only_matrices_match_the_reference(n in 0usize..40) {
            assert_matches_reference(&pattern(n, &[]));
        }
    }

    #[test]
    fn empty_and_single_vertex_match_the_reference() {
        assert_matches_reference(&CscMatrix::zeros(0, 0));
        assert_matches_reference(&CscMatrix::zeros(1, 1));
        assert_matches_reference(&pattern(1, &[]));
    }

    #[test]
    fn one_triangle_orders_like_the_full_pattern() {
        let edges = relabeled(&grid_2d_edges(9, 7), &Rng(11).shuffled(63));
        let mut lower = TripletMatrix::new(63, 63);
        for &(i, j) in &edges {
            lower.push(i.max(j), i.min(j), -1.0);
        }
        let full = pattern(63, &edges);
        assert_eq!(
            amd(&lower.to_csc()).expect("square"),
            amd(&full).expect("square")
        );
    }

    fn grid_laplacian(rows: usize, cols: usize) -> CscMatrix {
        pattern(rows * cols, &grid_2d_edges(rows, cols))
    }

    fn star_laplacian(leaves: usize) -> CscMatrix {
        let edges: Vec<_> = (1..=leaves).map(|leaf| (0, leaf)).collect();
        pattern(leaves + 1, &edges)
    }

    #[test]
    fn returns_a_valid_permutation() {
        let a = grid_laplacian(5, 5);
        let p = amd(&a).expect("square");
        assert_eq!(p.len(), 25);
        let mut seen = [false; 25];
        for i in 0..25 {
            assert!(!seen[p.old(i)]);
            seen[p.old(i)] = true;
        }
    }

    #[test]
    fn star_center_is_eliminated_last() {
        // Eliminating the hub of a star first would create a clique of all
        // leaves; minimum degree must defer it until (almost) the end — it can
        // tie with the final leaf once only two vertices remain.
        let a = star_laplacian(10);
        let p = amd(&a).expect("square");
        assert!(
            p.new(0) >= p.len() - 2,
            "hub eliminated too early: {}",
            p.new(0)
        );
    }

    #[test]
    fn reduces_fill_on_a_grid() {
        let a = grid_laplacian(12, 12);
        let natural = SymbolicCholesky::analyze(&a).expect("square").factor_nnz();
        let p = amd(&a).expect("square");
        let permuted = a.permute_symmetric(&p).expect("square");
        let ordered = SymbolicCholesky::analyze(&permuted)
            .expect("square")
            .factor_nnz();
        assert!(
            ordered < natural,
            "AMD should reduce fill: {ordered} !< {natural}"
        );
    }

    #[test]
    fn handles_empty_and_diagonal_matrices() {
        let empty = CscMatrix::zeros(0, 0);
        assert_eq!(amd(&empty).expect("square").len(), 0);
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 1.0);
        }
        let p = amd(&t.to_csc()).expect("square");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(amd(&CscMatrix::zeros(2, 3)).is_err());
        assert!(amd_reference(&CscMatrix::zeros(2, 3)).is_err());
    }
}
