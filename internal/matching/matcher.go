package matching

import (
	"fmt"

	"pops/internal/graph"
	"pops/internal/simd/bitvec"
)

// Matcher is a reusable arena for the matching algorithms. All scratch —
// CSR adjacency over the input edge list, match tables, BFS queues, the
// multiplicity counters and Euler-split buffers of the Alon engine — lives
// in the Matcher and is recycled across calls, so steady-state matching is
// allocation-free. The zero value is ready to use. A Matcher is not safe
// for concurrent use; hold one per worker.
//
// The Into methods operate on a plain edge list (a *view*: the i-th edge of
// the instance is edges[i]) and write matched edge indices into a
// caller-provided buffer. This lets the edge-coloring Factorizer run
// matchings directly on index-range views of its arena without
// materializing subgraphs.
type Matcher struct {
	// Hopcroft–Karp scratch.
	offL, adjL     []int // CSR left adjacency over the view
	fill           []int // CSR fill cursors / misc per-node scratch
	matchL, matchR []int
	dist, queue    []int
	edges          []graph.Edge // current view, only valid during a call
	nL             int

	// Alon perfect-matching scratch.
	order, orderTmp []int // edge indices sorted by (L, R), stable
	bucket          []int // counting-sort buckets
	entL, entR      []int // distinct (L, R) entries, sorted, dummies merged
	entDummy        bitvec.Vec
	pairStart       []int // run start of a real entry's edges in order
	pairMult        []int // run length (multiplicity) of a real entry
	cnt             []int // current parallel-copy count per entry
	levEdges        []graph.Edge
	levMap          []int // leftover index -> entry index
	levA, levB      []int
	split           graph.Splitter
	seenL, seenR    bitvec.Vec
	degL, degR      []int
}

// HopcroftKarpInto computes a maximum matching in O(E·√V) of the
// bipartite multigraph view whose i-th edge is edges[i] (endpoints in
// [0, nL) × [0, nR)), writes the matched edge indices into out in left-node
// order, and returns the matching size. out must hold at least min(nL, nR)
// entries.
func (m *Matcher) HopcroftKarpInto(nL, nR int, edges []graph.Edge, out []int) int {
	m.edges = edges
	m.nL = nL
	m.buildLeftCSR(nL, edges)
	m.matchL = graph.ResizeInts(m.matchL, nL)
	m.matchR = graph.ResizeInts(m.matchR, nR)
	for i := range m.matchL {
		m.matchL[i] = -1
	}
	for i := range m.matchR {
		m.matchR[i] = -1
	}
	m.dist = graph.ResizeInts(m.dist, nL)
	if cap(m.queue) < nL {
		m.queue = make([]int, 0, nL)
	}

	for m.bfs() {
		for l := 0; l < nL; l++ {
			if m.matchL[l] == -1 {
				m.dfs(l)
			}
		}
	}
	n := 0
	for l := 0; l < nL; l++ {
		if m.matchL[l] != -1 {
			out[n] = m.matchL[l]
			n++
		}
	}
	m.edges = nil
	return n
}

// buildLeftCSR fills offL/adjL with the left adjacency of the view, stable
// in edge order (matching AddEdge insertion order on a materialized graph).
func (m *Matcher) buildLeftCSR(nL int, edges []graph.Edge) {
	m.offL = graph.ResizeInts(m.offL, nL+1)
	for i := range m.offL {
		m.offL[i] = 0
	}
	for _, e := range edges {
		m.offL[e.L+1]++
	}
	for l := 0; l < nL; l++ {
		m.offL[l+1] += m.offL[l]
	}
	m.adjL = graph.ResizeInts(m.adjL, len(edges))
	m.fill = graph.ResizeInts(m.fill, nL)
	copy(m.fill, m.offL[:nL])
	for i, e := range edges {
		m.adjL[m.fill[e.L]] = i
		m.fill[e.L]++
	}
}

const infDist = int(^uint(0) >> 1)

func (m *Matcher) bfs() bool {
	m.queue = m.queue[:0]
	for l := 0; l < m.nL; l++ {
		if m.matchL[l] == -1 {
			m.dist[l] = 0
			m.queue = append(m.queue, l)
		} else {
			m.dist[l] = infDist
		}
	}
	found := false
	for qi := 0; qi < len(m.queue); qi++ {
		l := m.queue[qi]
		for ai := m.offL[l]; ai < m.offL[l+1]; ai++ {
			id := m.adjL[ai]
			r := m.edges[id].R
			mm := m.matchR[r]
			if mm == -1 {
				found = true
				continue
			}
			nl := m.edges[mm].L
			if m.dist[nl] == infDist {
				m.dist[nl] = m.dist[l] + 1
				m.queue = append(m.queue, nl)
			}
		}
	}
	return found
}

func (m *Matcher) dfs(l int) bool {
	for ai := m.offL[l]; ai < m.offL[l+1]; ai++ {
		id := m.adjL[ai]
		r := m.edges[id].R
		mm := m.matchR[r]
		if mm == -1 {
			m.matchL[l] = id
			m.matchR[r] = id
			return true
		}
		nl := m.edges[mm].L
		if m.dist[nl] == m.dist[l]+1 && m.dfs(nl) {
			m.matchL[l] = id
			m.matchR[r] = id
			return true
		}
	}
	m.dist[l] = infDist
	return false
}

// PerfectMatchingRegularInto finds a perfect matching of the k-regular
// bipartite multigraph view whose i-th edge is edges[i] (n nodes per side)
// in O(m·log(nk)) time, writes the n matched edge indices into out, and
// returns n. It uses the Euler-halving scheme of Alon ("A simple algorithm
// for edge-coloring bipartite multigraphs"), the fast-matching engine
// underlying the near-linear 1-factorization algorithms (Kapoor–Rizzi,
// Rizzi) cited in Remark 1 of the paper.
//
// The idea: pad the graph to 2^t-regular by taking α parallel copies of
// every edge plus β copies of a dummy diagonal matching, where
// α = ⌊2^t/k⌋ and β = 2^t − α·k, with 2^t ≥ n·k so that β·n < 2^t. Then
// halve t times with Euler splits, always keeping the half containing fewer
// dummy edges; the dummy count at least halves each round, so the final
// 1-regular graph is a perfect matching made entirely of real edges.
//
// All state lives in the arena: the implicit parallel-copy multiset lives in
// counting-sorted entry arrays instead of maps (so each halving costs
// O(#distinct pairs + n), not O(2^t·n)), and the per-round leftover graphs
// are split by the arena's graph.Splitter. The matched edge *set* is
// identical to the historical map-based implementation (the golden
// factorization outputs depend on it); the order written to out is by
// sorted (L, R) pair.
//
// It returns graph.ErrNotBipartiteRegular if the view is not k-regular.
func (m *Matcher) PerfectMatchingRegularInto(n, k int, edges []graph.Edge, out []int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	m.degL = graph.ResizeInts(m.degL, n)
	m.degR = graph.ResizeInts(m.degR, n)
	for i := 0; i < n; i++ {
		m.degL[i] = 0
		m.degR[i] = 0
	}
	for _, e := range edges {
		m.degL[e.L]++
		m.degR[e.R]++
	}
	for i := 0; i < n; i++ {
		if m.degL[i] != k || m.degR[i] != k {
			return 0, graph.ErrNotBipartiteRegular
		}
	}
	if k == 0 {
		return 0, fmt.Errorf("matching: 0-regular graph has no perfect matching")
	}
	if k == 1 {
		// The single incident edge of each left node, in left-node order.
		m.fill = graph.ResizeInts(m.fill, n)
		for i := range m.fill[:n] {
			m.fill[i] = -1
		}
		for i, e := range edges {
			if m.fill[e.L] == -1 {
				m.fill[e.L] = i
			}
		}
		copy(out[:n], m.fill[:n])
		return n, nil
	}

	m.sortByPair(n, edges)
	E := m.buildEntries(n, edges)

	// Pad to 2^t-regular: alpha parallel copies of every real edge plus beta
	// copies of the dummy diagonal, with 2^t >= n*k so beta*n < 2^t.
	t := 0
	for (1 << t) < n*k {
		t++
	}
	pow := 1 << t
	alpha := pow / k
	beta := pow - alpha*k
	m.cnt = graph.ResizeInts(m.cnt, E)
	for e := 0; e < E; e++ {
		if m.entDummy.Test(e) {
			m.cnt[e] = beta
		} else {
			m.cnt[e] = alpha * m.pairMult[e]
		}
	}

	m.levEdges = graph.ResizeEdges(m.levEdges, E)
	m.levMap = graph.ResizeInts(m.levMap, E)
	m.levA = graph.ResizeInts(m.levA, E)
	m.levB = graph.ResizeInts(m.levB, E)
	for step := 0; step < t; step++ {
		// Whole parallel pairs split evenly without touching the Euler tour;
		// odd leftovers (at most one per entry) form an all-even-degree
		// leftover graph that the splitter partitions exactly. Entries are
		// iterated in sorted order, keeping the leftover edge order — and so
		// the whole halving cascade — deterministic.
		lev := 0
		for e := 0; e < E; e++ {
			if m.cnt[e]%2 == 1 {
				m.levEdges[lev] = graph.Edge{L: m.entL[e], R: m.entR[e]}
				m.levMap[lev] = e
				lev++
			}
			m.cnt[e] /= 2
		}
		nA, nB, err := m.split.Split(n, n, m.levEdges[:lev], m.levA, m.levB)
		if err != nil {
			return 0, fmt.Errorf("matching: internal halving failure: %w", err)
		}
		// The evenly-split base is common to both halves, so the half with
		// fewer dummies is decided by the leftover assignment alone.
		dA, dB := 0, 0
		for _, idx := range m.levA[:nA] {
			if m.entDummy.Test(m.levMap[idx]) {
				dA++
			}
		}
		for _, idx := range m.levB[:nB] {
			if m.entDummy.Test(m.levMap[idx]) {
				dB++
			}
		}
		keep := m.levA[:nA]
		if dA > dB {
			keep = m.levB[:nB]
		}
		for _, idx := range keep {
			m.cnt[m.levMap[idx]]++
		}
	}

	dummies := 0
	for e := 0; e < E; e++ {
		if m.entDummy.Test(e) {
			dummies += m.cnt[e]
		}
	}
	if dummies != 0 {
		return 0, fmt.Errorf("matching: internal error: %d dummy edges survived halving", dummies)
	}
	// cnt is 1-regular on real entries: map each back to its first edge.
	outN := 0
	for e := 0; e < E; e++ {
		c := m.cnt[e]
		if c == 0 || m.entDummy.Test(e) {
			continue
		}
		if c > m.pairMult[e] {
			return 0, fmt.Errorf("matching: internal error: pair (%d,%d) overused", m.entL[e], m.entR[e])
		}
		for j := 0; j < c; j++ {
			out[outN] = m.order[m.pairStart[e]+j]
			outN++
		}
	}
	if err := m.verifyPerfect(n, edges, out[:outN]); err != nil {
		return 0, fmt.Errorf("matching: internal error: %w", err)
	}
	return outN, nil
}

// sortByPair fills m.order with the edge indices sorted by (L, R) using a
// stable two-pass counting sort, so each pair's run lists its edge indices
// in ascending order.
func (m *Matcher) sortByPair(n int, edges []graph.Edge) {
	mm := len(edges)
	m.order = graph.ResizeInts(m.order, mm)
	m.orderTmp = graph.ResizeInts(m.orderTmp, mm)
	m.bucket = graph.ResizeInts(m.bucket, n+1)
	// Pass 1: by R.
	for i := range m.bucket[:n+1] {
		m.bucket[i] = 0
	}
	for _, e := range edges {
		m.bucket[e.R+1]++
	}
	for i := 0; i < n; i++ {
		m.bucket[i+1] += m.bucket[i]
	}
	for i := 0; i < mm; i++ {
		r := edges[i].R
		m.orderTmp[m.bucket[r]] = i
		m.bucket[r]++
	}
	// Pass 2: by L (stable over pass 1). Rebuild buckets.
	for i := range m.bucket[:n+1] {
		m.bucket[i] = 0
	}
	for _, e := range edges {
		m.bucket[e.L+1]++
	}
	for i := 0; i < n; i++ {
		m.bucket[i+1] += m.bucket[i]
	}
	for _, i := range m.orderTmp[:mm] {
		l := edges[i].L
		m.order[m.bucket[l]] = i
		m.bucket[l]++
	}
}

// buildEntries scans the sorted order for distinct (L, R) runs and merges
// them with the n dummy diagonal entries (i, i) into entL/entR/entDummy,
// sorted by (L, R) with real entries before dummies on ties — the exact
// order the historical map-based implementation sorted its leftovers into.
// It returns the number of entries.
func (m *Matcher) buildEntries(n int, edges []graph.Edge) int {
	mm := len(edges)
	maxE := mm + n
	m.entL = graph.ResizeInts(m.entL, maxE)
	m.entR = graph.ResizeInts(m.entR, maxE)
	m.pairStart = graph.ResizeInts(m.pairStart, maxE)
	m.pairMult = graph.ResizeInts(m.pairMult, maxE)
	m.entDummy = m.entDummy.Resize(maxE)
	E := 0
	di := 0
	emitDummiesBelow := func(l, r int) {
		for di < n && (di < l || (di == l && di < r)) {
			m.entL[E] = di
			m.entR[E] = di
			m.entDummy.Set(E)
			m.pairStart[E] = -1
			m.pairMult[E] = 0
			E++
			di++
		}
	}
	for s := 0; s < mm; {
		e0 := edges[m.order[s]]
		t := s + 1
		for t < mm && edges[m.order[t]] == e0 {
			t++
		}
		emitDummiesBelow(e0.L, e0.R)
		m.entL[E] = e0.L
		m.entR[E] = e0.R
		m.pairStart[E] = s
		m.pairMult[E] = t - s
		E++
		s = t
	}
	emitDummiesBelow(n, 0)
	return E
}

// verifyPerfect checks ids is a perfect matching of the view using bit-set
// membership (the arena counterpart of VerifyMatching).
func (m *Matcher) verifyPerfect(n int, edges []graph.Edge, ids []int) error {
	if len(ids) != n {
		return fmt.Errorf("matching: size %d is not perfect for %d+%d nodes", len(ids), n, n)
	}
	m.seenL = m.seenL.Resize(n)
	m.seenR = m.seenR.Resize(n)
	for _, id := range ids {
		e := edges[id]
		if m.seenL.Test(e.L) {
			return fmt.Errorf("matching: left node %d covered twice", e.L)
		}
		if m.seenR.Test(e.R) {
			return fmt.Errorf("matching: right node %d covered twice", e.R)
		}
		m.seenL.Set(e.L)
		m.seenR.Set(e.R)
	}
	return nil
}
