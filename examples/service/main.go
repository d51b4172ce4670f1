// Serving routing plans over the network: starts the sharded planner
// service (the subsystem behind cmd/popsserved) on an ephemeral port and
// drives it with pops.ServiceClient — two POPS shapes, a batched BPC family
// sweep, a repeated mesh-shift permutation answered by the fingerprint plan
// cache, and a slot stream whose first records arrive while the server is
// still factorizing. The final /stats snapshot shows the shard registry,
// the admission gate's planner invocations, the cache hit counter, and the
// time-to-first-slot histogram at work.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"pops"
	"pops/internal/service"
)

func main() {
	// In production this is `popsserved -addr :8714`; here the service runs
	// in-process so the example is self-contained.
	svc := service.New(service.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	ctx := context.Background()
	client := pops.NewServiceClient("http://"+ln.Addr().String(), nil)
	if err := client.Healthz(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("popsserved speaking on %s\n\n", ln.Addr())

	// Two shapes served by one process: each gets its own planner shard,
	// created lazily on first use.
	for _, shape := range []struct{ d, g int }{{8, 8}, {16, 4}} {
		slots, err := client.Slots(ctx, shape.d, shape.g)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := client.Route(ctx, shape.d, shape.g, pops.VectorReversal(shape.d*shape.g))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("POPS(%2d,%2d)  reversal: %d slots (= predicted %d), strategy %s\n",
			shape.d, shape.g, plan.Slots, slots, plan.Strategy)
	}

	// A BPC family sweep as one wire batch: each entry passes the shard's
	// admission gate and plans on a pooled worker, so the arena-backed
	// coloring engine is reused across the whole family.
	const bits = 6 // n = 64 on POPS(8,8)
	var pis [][]int
	for b := 0; b < bits; b++ {
		ex, err := pops.HypercubeExchange(bits, b)
		if err != nil {
			log.Fatal(err)
		}
		pis = append(pis, ex.Permutation())
	}
	plans, err := client.RouteBatch(ctx, 8, 8, pis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhypercube exchange family (%d permutations) as one batch:\n", len(pis))
	for b, plan := range plans {
		fmt.Printf("  bit %d: %d slots, fingerprint %s\n", b, plan.Slots, plan.Fingerprint)
	}

	// Recurring traffic: the same mesh shift requested three times. The
	// first plans, the rest are answered from the fingerprint plan cache.
	shift, err := pops.MeshShift(8, 8, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmesh shift (1,2) requested three times:\n")
	for i := 0; i < 3; i++ {
		plan, err := client.Route(ctx, 8, 8, shift)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  request %d: %d slots, cached=%v\n", i+1, plan.Slots, plan.Cached)
	}

	// Streaming: POST /route/stream delivers the schedule slot by slot.
	// The meta record and the first slot fragments arrive while the server
	// is still peeling later color classes of the same plan.
	const sd, sg = 8, 16
	stream, err := client.RouteStream(ctx, sd, sg, pops.VectorReversal(sd*sg))
	if err != nil {
		log.Fatal(err)
	}
	meta := stream.Meta()
	fmt.Printf("\nstreaming POPS(%d,%d): %d slots in %d fragments\n", sd, sg, meta.Slots, meta.Fragments)
	shown := 0
	for {
		rec, err := stream.Next()
		if err != nil {
			log.Fatal(err)
		}
		if rec == nil {
			break
		}
		if shown < 3 {
			fmt.Printf("  fragment: slot %d offset %3d (%2d sends, color %2d, final=%v)\n",
				rec.Slot, rec.Offset, len(rec.Sends), rec.Color, rec.Final)
		}
		shown++
	}
	fmt.Printf("  ... %d fragments total, done record: %+v\n", shown, *stream.Done())
	stream.Close()

	// Workloads over the wire: an h-relation streamed slot by slot while the
	// server is still factorizing its request multigraph, then replayed — the
	// second stream is answered by the shard's workload plan cache.
	const hd, hg, hh = 4, 8, 2
	hn := hd * hg
	var reqs []pops.Request
	for k := 0; k < hh; k++ {
		for s := 0; s < hn; s++ {
			reqs = append(reqs, pops.Request{Src: s, Dst: (s + k + 1) % hn})
		}
	}
	for attempt := 1; attempt <= 2; attempt++ {
		hst, err := client.ExecuteStream(ctx, hd, hg, pops.HRelation(reqs))
		if err != nil {
			log.Fatal(err)
		}
		hmeta := hst.Meta()
		count := 0
		for {
			rec, err := hst.Next()
			if err != nil {
				log.Fatal(err)
			}
			if rec == nil {
				break
			}
			count++
		}
		hst.Close()
		fmt.Printf("\nh-relation stream %d on POPS(%d,%d): h=%d, %d slots, cached=%v\n",
			attempt, hd, hg, hh, count, hmeta.Cached)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/stats: %d shards, %d requests (%d streamed), cache %d hits / %d misses\n",
		stats.ShardCount, stats.Requests, stats.Streams, stats.CacheHits, stats.CacheMisses)
	for _, sh := range stats.Shards {
		fmt.Printf("  POPS(%2d,%2d): %d requests in %d planner invocations (largest coalesced group %d)\n",
			sh.D, sh.G, sh.Requests, sh.Batches, sh.MaxBatch)
	}
}
