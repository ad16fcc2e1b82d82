//! Compact bipartite graph representation.
//!
//! Vertices on the `X` side (slots) and `Y` side (jobs) are dense `u32`
//! indices. Adjacency is stored in CSR (compressed sparse row) form in both
//! directions so that alternating-path searches can traverse from either side
//! without hashing.

/// An immutable bipartite graph `G = (X ∪ Y, E)` in CSR form.
///
/// Construct with [`BipartiteGraphBuilder`] (streaming edge inserts) or
/// [`BipartiteGraph::from_edges`] (one-shot).
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    nx: u32,
    ny: u32,
    x_off: Vec<u32>,
    x_adj: Vec<u32>,
    y_off: Vec<u32>,
    y_adj: Vec<u32>,
}

impl BipartiteGraph {
    /// Builds a graph from an edge list of `(x, y)` pairs.
    ///
    /// Duplicate edges are tolerated (they only waste space; all algorithms
    /// in this crate are correct on multigraphs).
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges(nx: u32, ny: u32, edges: &[(u32, u32)]) -> Self {
        let mut b = BipartiteGraphBuilder::new(nx, ny);
        for &(x, y) in edges {
            b.add_edge(x, y);
        }
        b.build()
    }

    /// Number of `X`-side (slot) vertices.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of `Y`-side (job) vertices.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.x_adj.len()
    }

    /// Neighbors (jobs) of slot `x`.
    #[inline]
    pub fn adj_x(&self, x: u32) -> &[u32] {
        let lo = self.x_off[x as usize] as usize;
        let hi = self.x_off[x as usize + 1] as usize;
        &self.x_adj[lo..hi]
    }

    /// Neighbors (slots) of job `y`.
    #[inline]
    pub fn adj_y(&self, y: u32) -> &[u32] {
        let lo = self.y_off[y as usize] as usize;
        let hi = self.y_off[y as usize + 1] as usize;
        &self.y_adj[lo..hi]
    }

    /// Degree of slot `x`.
    #[inline]
    pub fn deg_x(&self, x: u32) -> usize {
        self.adj_x(x).len()
    }

    /// Degree of job `y`.
    #[inline]
    pub fn deg_y(&self, y: u32) -> usize {
        self.adj_y(y).len()
    }

    /// Iterates over all edges as `(x, y)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.nx).flat_map(move |x| self.adj_x(x).iter().map(move |&y| (x, y)))
    }
}

/// Streaming builder for [`BipartiteGraph`].
///
/// A builder can be emptied and refilled ([`BipartiteGraphBuilder::reset`])
/// and can write into an existing graph
/// ([`BipartiteGraphBuilder::build_into`]), so a caller that rebuilds one
/// graph per solve reuses the edge list and every CSR buffer.
#[derive(Clone, Debug, Default)]
pub struct BipartiteGraphBuilder {
    nx: u32,
    ny: u32,
    edges: Vec<(u32, u32)>,
}

impl BipartiteGraphBuilder {
    /// Creates a builder for a graph with `nx` slots and `ny` jobs.
    pub fn new(nx: u32, ny: u32) -> Self {
        Self {
            nx,
            ny,
            edges: Vec::new(),
        }
    }

    /// Empties the builder for a graph with `nx` slots and `ny` jobs,
    /// keeping the edge list's allocation.
    pub fn reset(&mut self, nx: u32, ny: u32) {
        self.nx = nx;
        self.ny = ny;
        self.edges.clear();
    }

    /// Adds the edge `(x, y)`.
    ///
    /// # Panics
    /// Panics if `x >= nx` or `y >= ny`.
    pub fn add_edge(&mut self, x: u32, y: u32) {
        assert!(x < self.nx, "slot index {x} out of range ({})", self.nx);
        assert!(y < self.ny, "job index {y} out of range ({})", self.ny);
        self.edges.push((x, y));
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes into CSR form. O(V + E), no sorting.
    pub fn build(self) -> BipartiteGraph {
        let mut g = BipartiteGraph {
            nx: 0,
            ny: 0,
            x_off: Vec::new(),
            x_adj: Vec::new(),
            y_off: Vec::new(),
            y_adj: Vec::new(),
        };
        self.build_into(&mut g);
        g
    }

    /// Overwrites `g` with the graph built so far, reusing its buffers:
    /// [`BipartiteGraphBuilder::build`] without allocating once `g`'s
    /// buffers are large enough. O(V + E), no sorting; each adjacency list
    /// keeps insertion order.
    pub fn build_into(&self, g: &mut BipartiteGraph) {
        g.nx = self.nx;
        g.ny = self.ny;
        let edges = self.edges.iter().copied();
        fill_csr(self.nx, edges.clone(), &mut g.x_off, &mut g.x_adj);
        fill_csr(
            self.ny,
            edges.map(|(x, y)| (y, x)),
            &mut g.y_off,
            &mut g.y_adj,
        );
    }
}

/// Rewrites `off` and `adj` as the CSR rows of `n` vertices over the
/// `(row, neighbor)` pairs of `edges`, each row in insertion order.
fn fill_csr(
    n: u32,
    edges: impl Iterator<Item = (u32, u32)> + Clone,
    off: &mut Vec<u32>,
    adj: &mut Vec<u32>,
) {
    let n = n as usize;
    off.clear();
    off.resize(n + 1, 0);
    let mut m = 0;
    for (r, _) in edges.clone() {
        off[r as usize + 1] += 1;
        m += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    adj.clear();
    adj.resize(m, 0);
    // `off[r]` serves as row r's cursor and ends at row r + 1's start, so
    // shift the offsets back by one row afterwards.
    for (r, nb) in edges {
        let at = &mut off[r as usize];
        adj[*at as usize] = nb;
        *at += 1;
    }
    for i in (1..=n).rev() {
        off[i] = off[i - 1];
    }
    off[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]);
        assert_eq!(g.nx(), 0);
        assert_eq!(g.ny(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn no_edges_nonempty_sides() {
        let g = BipartiteGraph::from_edges(3, 2, &[]);
        assert_eq!(g.deg_x(0), 0);
        assert_eq!(g.deg_y(1), 0);
    }

    #[test]
    fn csr_roundtrip() {
        let edges = vec![(0, 1), (0, 0), (2, 1), (1, 0)];
        let g = BipartiteGraph::from_edges(3, 2, &edges);
        assert_eq!(g.num_edges(), 4);
        let mut got: Vec<(u32, u32)> = g.edges().collect();
        got.sort_unstable();
        let mut want = edges.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn adjacency_symmetry() {
        let edges = vec![(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)];
        let g = BipartiteGraph::from_edges(3, 2, &edges);
        // every x in adj_y(y) must have y in adj_x(x)
        for y in 0..g.ny() {
            for &x in g.adj_y(y) {
                assert!(g.adj_x(x).contains(&y), "asymmetric edge ({x},{y})");
            }
        }
        for x in 0..g.nx() {
            for &y in g.adj_x(x) {
                assert!(g.adj_y(y).contains(&x));
            }
        }
    }

    #[test]
    fn duplicate_edges_kept() {
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0), (0, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.deg_x(0), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = BipartiteGraphBuilder::new(2, 2);
        b.add_edge(2, 0);
    }

    #[test]
    fn build_into_overwrites_a_larger_graph_in_insertion_order() {
        let mut g = BipartiteGraph::from_edges(4, 3, &[(0, 0), (3, 2), (1, 1), (3, 0)]);
        let mut b = BipartiteGraphBuilder::new(2, 2);
        for &(x, y) in &[(1, 1), (0, 1), (1, 0)] {
            b.add_edge(x, y);
        }
        b.build_into(&mut g);
        assert_eq!((g.nx(), g.ny(), g.num_edges()), (2, 2, 3));
        assert_eq!(g.adj_x(0), &[1]);
        assert_eq!(g.adj_x(1), &[1, 0]);
        assert_eq!(g.adj_y(0), &[1]);
        assert_eq!(g.adj_y(1), &[1, 0]);
        // a reset builder leaves no edge behind
        b.reset(3, 1);
        b.add_edge(2, 0);
        b.build_into(&mut g);
        assert_eq!((g.nx(), g.ny(), g.num_edges()), (3, 1, 1));
        assert_eq!((g.deg_x(0), g.deg_x(1), g.adj_x(2)), (0, 0, &[0][..]));
        assert_eq!(g.adj_y(0), &[2]);
    }

    #[test]
    fn degrees() {
        let g = BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.deg_x(0), 3);
        assert_eq!(g.deg_x(1), 1);
        assert_eq!(g.deg_y(2), 2);
        assert_eq!(g.deg_y(0), 1);
    }
}
