package graph

import (
	"fmt"

	"pops/internal/simd/bitvec"
)

// Splitter is a reusable arena for Euler-partitioning edge sets. All scratch
// of the tour — the CSR adjacency built over the input edges, the per-node
// cursors, the visited-edge bit vector and the walk stack — lives in the
// Splitter and is recycled across calls, so steady-state splits are
// allocation-free. The zero value is ready to use. A Splitter is not safe
// for concurrent use.
type Splitter struct {
	offL, offR []int // CSR offsets: offL[l]..offL[l+1] indexes adjL
	adjL, adjR []int // incident edge indices, in input order
	curL, curR []int // per-node cursors into adjL/adjR (absolute)
	used       bitvec.Vec
	stack      []int // walk positions, encoded v<<1 | isLeft
}

// Split partitions edges — every node of which must have even degree — into
// two halves A and B with deg_A(v) = deg_B(v) = deg(v)/2 for every node, and
// writes the edge indices of each half into outA and outB in traversal
// order. It returns the number of edges in each half (always len(edges)/2
// apiece). outA and outB must each hold at least len(edges)/2 entries.
//
// This is the Euler-partition step of the divide-and-conquer
// 1-factorization (Gabow; also the engine inside the Kapoor–Rizzi and Rizzi
// algorithms cited in Remark 1 of the paper): orient the edges along
// Eulerian circuits of each connected component; edges traversed
// left-to-right form A, edges traversed right-to-left form B. In the
// orientation every node has in-degree equal to out-degree, which yields the
// exact halving. Split runs in O(m + nL + nR) time.
//
// The traversal — and therefore the exact partition — is deterministic: the
// adjacency of each node is walked in input edge order, tours start at left
// node 0, 1, … then right node 0, 1, …, which the factorization golden
// tests rely on.
func (s *Splitter) Split(nL, nR int, edges []Edge, outA, outB []int) (nA, nB int, err error) {
	m := len(edges)
	s.buildCSR(nL, nR, edges)
	for l := 0; l < nL; l++ {
		if d := s.offL[l+1] - s.offL[l]; d%2 != 0 {
			return 0, 0, fmt.Errorf("graph: EulerSplit: left node %d has odd degree %d", l, d)
		}
	}
	for r := 0; r < nR; r++ {
		if d := s.offR[r+1] - s.offR[r]; d%2 != 0 {
			return 0, 0, fmt.Errorf("graph: EulerSplit: right node %d has odd degree %d", r, d)
		}
	}
	if len(outA) < m/2 || len(outB) < m/2 {
		return 0, 0, fmt.Errorf("graph: EulerSplit: output buffers hold %d+%d of %d edges", len(outA), len(outB), m)
	}

	s.curL = ResizeInts(s.curL, nL)
	copy(s.curL, s.offL[:nL])
	s.curR = ResizeInts(s.curR, nR)
	copy(s.curR, s.offR[:nR])
	s.used = s.used.Resize(m)
	s.stack = s.stack[:0]

	// Hierholzer from every left node, then every right node (isolated
	// right-side components cannot exist in a bipartite graph, but odd
	// components starting on the right are covered for safety). Each tour
	// traverses until stuck; every closed sub-tour alternates sides, so
	// assigning by traversal direction halves the degrees. The stack
	// re-enters nodes with remaining edges.
	for l := 0; l < nL; l++ {
		nA, nB = s.walk(edges, l<<1|1, outA, outB, nA, nB)
	}
	for r := 0; r < nR; r++ {
		nA, nB = s.walk(edges, r<<1, outA, outB, nA, nB)
	}
	if nA+nB != m {
		// Unreachable unless internal invariants are broken.
		return 0, 0, fmt.Errorf("graph: EulerSplit covered %d of %d edges", nA+nB, m)
	}
	return nA, nB, nil
}

// buildCSR fills the splitter's adjacency arrays for the given edge list.
// The fill is stable, so each node's incident edges appear in input order —
// exactly the order AddEdge would have produced on a materialized subgraph.
func (s *Splitter) buildCSR(nL, nR int, edges []Edge) {
	m := len(edges)
	s.offL = ResizeInts(s.offL, nL+1)
	s.offR = ResizeInts(s.offR, nR+1)
	for i := range s.offL {
		s.offL[i] = 0
	}
	for i := range s.offR {
		s.offR[i] = 0
	}
	for _, e := range edges {
		s.offL[e.L+1]++
		s.offR[e.R+1]++
	}
	for l := 0; l < nL; l++ {
		s.offL[l+1] += s.offL[l]
	}
	for r := 0; r < nR; r++ {
		s.offR[r+1] += s.offR[r]
	}
	s.adjL = ResizeInts(s.adjL, m)
	s.adjR = ResizeInts(s.adjR, m)
	s.curL = ResizeInts(s.curL, nL)
	copy(s.curL, s.offL[:nL])
	s.curR = ResizeInts(s.curR, nR)
	copy(s.curR, s.offR[:nR])
	for i, e := range edges {
		s.adjL[s.curL[e.L]] = i
		s.curL[e.L]++
		s.adjR[s.curR[e.R]] = i
		s.curR[e.R]++
	}
}

// walk runs one Hierholzer tour from the encoded start position, appending
// left-to-right traversals to outA and right-to-left ones to outB.
func (s *Splitter) walk(edges []Edge, start int, outA, outB []int, nA, nB int) (int, int) {
	s.stack = append(s.stack, start)
	for len(s.stack) > 0 {
		p := s.stack[len(s.stack)-1]
		v, left := p>>1, p&1 == 1
		id := s.nextEdge(left, v)
		if id < 0 {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		s.used.Set(id)
		if left {
			outA[nA] = id // traversed L -> R
			nA++
			s.stack = append(s.stack, edges[id].R<<1)
		} else {
			outB[nB] = id // traversed R -> L
			nB++
			s.stack = append(s.stack, edges[id].L<<1|1)
		}
	}
	return nA, nB
}

// nextEdge returns an unused edge at the given node (side true = left), or
// -1 if none remains. Per-node cursors make every edge slot inspected O(1)
// times across the whole traversal.
func (s *Splitter) nextEdge(left bool, v int) int {
	if left {
		for s.curL[v] < s.offL[v+1] {
			id := s.adjL[s.curL[v]]
			if !s.used.Test(id) {
				return id
			}
			s.curL[v]++
		}
		return -1
	}
	for s.curR[v] < s.offR[v+1] {
		id := s.adjR[s.curR[v]]
		if !s.used.Test(id) {
			return id
		}
		s.curR[v]++
	}
	return -1
}

// ResizeInts returns an int slice of length n, reusing buf's storage when
// possible. Contents are unspecified. It is the arena growth helper shared
// by the allocation-free engines (Splitter, matching.Matcher,
// edgecolor.Factorizer).
func ResizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// ResizeEdges is ResizeInts for edge buffers.
func ResizeEdges(buf []Edge, n int) []Edge {
	if cap(buf) < n {
		return make([]Edge, n)
	}
	return buf[:n]
}
