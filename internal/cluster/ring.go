package cluster

import (
	"sort"
)

// ring is the consistent-hash ring the proxy places requests on: every
// backend owns Replicas pseudo-random points on a 64-bit circle, and a
// request key is served by the first backend point at or after it. Placement
// is therefore stable under membership change — ejecting one backend moves
// only the keys it owned (to their next ring successor) and leaves every
// other backend's keys, and thus its shard LRU and fingerprint plan cache,
// untouched. The ring itself is immutable after construction; liveness is
// layered on top by walking successors past ejected backends.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of distinct backends
}

// ringPoint is one virtual node: a hash position owned by a backend index.
type ringPoint struct {
	hash    uint64
	backend int
}

// newRing builds the ring over the backend identifiers (base URLs), with
// replicas virtual nodes per backend. More replicas smooth the key
// distribution at the cost of a larger (still tiny) sorted array.
func newRing(ids []string, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*replicas), n: len(ids)}
	for i, id := range ids {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// owners appends to out the first want distinct backends in ring order
// starting at key's successor: out[0] is the key's owner, out[1] the first
// failover target, and so on. want is clamped to the backend count.
func (r *ring) owners(key uint64, want int, out []int) []int {
	if want > r.n {
		want = r.n
	}
	if want <= 0 || len(r.points) == 0 {
		return out
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	var seen uint64 // backend-index bitset; backends are capped far below 64
	for i := 0; i < len(r.points) && want > 0; i++ {
		b := r.points[(start+i)%len(r.points)].backend
		if b < 64 {
			if seen&(1<<uint(b)) != 0 {
				continue
			}
			seen |= 1 << uint(b)
		} else if contains(out, b) {
			continue
		}
		out = append(out, b)
		want--
	}
	return out
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// pointHash positions virtual node v of backend id on the circle: FNV-1a
// over the id bytes and the replica number, then a 64-bit avalanche so
// near-identical URLs ("…:9001", "…:9002") still spread uniformly.
func pointHash(id string, v int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime64
	}
	h = (h ^ uint64(v)) * prime64
	return mix64(h)
}

// placementKey is the ring key of one request: the workload fingerprint
// mixed with the POPS shape. Keying on (d, g, fingerprint) makes placement
// shape- and content-affine — a replayed workload, or a duplicate one in
// flight, always resolves to the node that already owns its materialized
// plan (cache hit) or is already planning it (the shard's admission gate
// coalesces identical in-flight permutations).
func placementKey(d, g int, fp uint64) uint64 {
	return mix64(fp ^ (uint64(uint(d))*0x9e3779b97f4a7c15 + uint64(uint(g))*0xc2b2ae3d27d4eb4f))
}

// mix64 is the splitmix64 finalizer: every input bit flips every output bit
// with probability ~1/2, so low-entropy keys spread over the whole circle.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
