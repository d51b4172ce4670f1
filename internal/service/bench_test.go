package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"pops"
)

// BenchmarkServiceRoute measures the full wire path (HTTP/JSON round-trip,
// admission queue, planner) for one permutation per request: cold misses on
// the "miss" variant (the cache is disabled) and warm fingerprint-cache hits
// on the "hit" variant — the steady state of recurring-permutation traffic.
func BenchmarkServiceRoute(b *testing.B) {
	const d, g = 8, 8
	pi := pops.VectorReversal(d * g)
	run := func(b *testing.B, cfg Config) {
		svc := New(cfg)
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		defer svc.Close()
		client := pops.NewServiceClient(srv.URL, srv.Client())
		ctx := context.Background()
		if _, err := client.Route(ctx, d, g, pi); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Route(ctx, d, g, pi); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		run(b, Config{})
	})
	b.Run("miss", func(b *testing.B) {
		run(b, Config{CacheSize: -1})
	})
}

// BenchmarkServiceRouteBatch measures wire-path batch throughput: one
// request carrying a batch of distinct permutations, each entry admitted
// through the shard's gate server-side. Reported per batch.
func BenchmarkServiceRouteBatch(b *testing.B) {
	const d, g = 8, 8
	for _, size := range []int{8, 32} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			pis := make([][]int, size)
			for i := range pis {
				pi, err := pops.MeshShift(d, g, i%d, (i/d)%g)
				if err != nil {
					b.Fatal(err)
				}
				pis[i] = pi
			}
			svc := New(Config{CacheSize: -1})
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			defer svc.Close()
			client := pops.NewServiceClient(srv.URL, srv.Client())
			ctx := context.Background()
			if _, err := client.RouteBatch(ctx, d, g, pis); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plans, err := client.RouteBatch(ctx, d, g, pis)
				if err != nil {
					b.Fatal(err)
				}
				if len(plans) != size {
					b.Fatal("short batch")
				}
			}
		})
	}
}

// BenchmarkServiceStream measures the streamed wire path over HTTP chunked
// NDJSON at the acceptance shape d=16/g=64. first-slot is the headline
// latency: POST /route/stream, read the meta record and the first slot
// record, then hang up (the server notices the dead connection and abandons
// the rest of the plan); drain reads the whole stream; route-full is the
// batch wire baseline — with include_schedule, so both sides serialize the
// complete slot schedule — whose first slot is only available when the
// whole plan arrives. The cache is disabled so every request plans from
// scratch.
func BenchmarkServiceStream(b *testing.B) {
	const d, g = 16, 64
	pi := pops.VectorReversal(d * g)
	newServer := func(b *testing.B) (*pops.ServiceClient, func()) {
		svc := New(Config{CacheSize: -1})
		srv := httptest.NewServer(svc.Handler())
		return pops.NewServiceClient(srv.URL, srv.Client()), func() {
			srv.CloseClientConnections()
			svc.Close()
			srv.Close()
		}
	}
	ctx := context.Background()
	b.Run("route-full", func(b *testing.B) {
		client, shutdown := newServer(b)
		defer shutdown()
		req := &pops.ServiceRouteRequest{D: d, G: g, Pi: pi, IncludeSchedule: true}
		if _, err := client.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Do(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Plans[0].Error != "" || resp.Plans[0].Schedule == nil {
				b.Fatal("no schedule in response")
			}
		}
	})
	b.Run("stream-first-slot", func(b *testing.B) {
		client, shutdown := newServer(b)
		defer shutdown()
		if _, err := client.Route(ctx, d, g, pi); err != nil { // warm the shard
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := client.RouteStream(ctx, d, g, pi)
			if err != nil {
				b.Fatal(err)
			}
			if rec, err := st.Next(); err != nil || rec == nil {
				b.Fatal("no first slot record:", err)
			}
			st.Close() // abandon: the server stops planning and releases the worker
		}
	})
	b.Run("stream-drain", func(b *testing.B) {
		client, shutdown := newServer(b)
		defer shutdown()
		if _, err := client.Route(ctx, d, g, pi); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := client.RouteStream(ctx, d, g, pi)
			if err != nil {
				b.Fatal(err)
			}
			for {
				rec, err := st.Next()
				if err != nil {
					b.Fatal(err)
				}
				if rec == nil {
					break
				}
			}
			st.Close()
		}
	})
}

// BenchmarkServiceStreamCodec compares the stream codecs head to head on the
// full wire path with a warm plan cache, so (de)serialization — not planning
// — dominates: the same cached plan is drained over NDJSON and over the
// binary framing across the shape grid. ns/slot is the headline metric (the
// per-fragment cost a consumer pays); the acceptance bar is binary at no more
// than half the NDJSON ns/slot on d=16/g=64.
func BenchmarkServiceStreamCodec(b *testing.B) {
	ctx := context.Background()
	for _, d := range []int{8, 16, 32} {
		for _, g := range []int{8, 64} {
			for _, codec := range []struct {
				name string
				c    pops.ServiceCodec
			}{{"ndjson", pops.CodecJSON}, {"binary", pops.CodecBinary}} {
				b.Run(fmt.Sprintf("d=%d/g=%d/%s", d, g, codec.name), func(b *testing.B) {
					pi := pops.VectorReversal(d * g)
					svc := New(Config{})
					srv := httptest.NewServer(svc.Handler())
					defer func() {
						srv.CloseClientConnections()
						svc.Close()
						srv.Close()
					}()
					client := pops.NewServiceClient(srv.URL, srv.Client()).WithCodec(codec.c)
					if _, err := client.Route(ctx, d, g, pi); err != nil { // warm the plan cache
						b.Fatal(err)
					}
					slots := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						st, err := client.RouteStream(ctx, d, g, pi)
						if err != nil {
							b.Fatal(err)
						}
						n := 0
						for {
							rec, err := st.Next()
							if err != nil {
								b.Fatal(err)
							}
							if rec == nil {
								break
							}
							n++
						}
						st.Close()
						slots += n
					}
					b.StopTimer()
					if slots > 0 {
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
					}
				})
			}
		}
	}
}

// BenchmarkServiceInProcess isolates the serving layers without HTTP: the
// admission gate + planner path as popsserved's handler sees it.
func BenchmarkServiceInProcess(b *testing.B) {
	const d, g = 8, 8
	pi := pops.VectorReversal(d * g)
	svc := New(Config{CacheSize: -1})
	defer svc.Close()
	if _, err := svc.Route(context.Background(), d, g, pi, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Route(context.Background(), d, g, pi, "")
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
	}
}
