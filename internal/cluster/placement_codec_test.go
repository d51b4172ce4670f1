package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pops"
	"pops/internal/service"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// TestPlacementIsCodecBlind pins that the request codec never moves a
// request on the ring: the same permutation, h-relation and fault request,
// sent once as a JSON body and once as a binary request frame, get the same
// placement key, land on the same backend, and the second is answered from
// the plan cache the first filled. Were placement keyed on the body bytes, a
// fleet switching codecs would scatter its plan caches.
func TestPlacementIsCodecBlind(t *testing.T) {
	p, _, _ := fleet(t, 3, service.Config{}, Config{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	pi[0], pi[5] = pi[5], pi[0]
	cases := map[string]wire.RouteRequest{
		"permutation": {D: d, G: g, Pi: pi},
		"hrelation": {D: d, G: g, Workload: wire.WorkloadHRelation,
			Requests: []wire.Request{{Src: 0, Dst: 9}, {Src: 0, Dst: 17}, {Src: 3, Dst: 9}, {Src: 30, Dst: 1}}},
		"faulty": {D: d, G: g, Workload: wire.WorkloadFaultyPermutation, Pi: pi,
			Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 2, A: 1}}}},
	}
	for name, req := range cases {
		var keys [2]uint64
		var backends [2]string
		for i, codec := range []wirebin.Codec{wirebin.JSON, wirebin.Binary} {
			body, err := codec.AppendRequest(nil, &req)
			if err != nil {
				t.Fatal(err)
			}
			var decoded wire.RouteRequest
			if err := wirebin.ReadRouteRequest(codec.ContentType(false), bytes.NewReader(body), &decoded); err != nil {
				t.Fatalf("%s codec %d: %v", name, codec, err)
			}
			keys[i] = requestKey(&decoded)

			id := name + "-" + codec.ContentType(false)
			hreq, err := http.NewRequest(http.MethodPost, front.URL+"/route", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hreq.Header.Set("Content-Type", codec.ContentType(false))
			hreq.Header.Set("X-Request-Id", id)
			resp, err := front.Client().Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			var rr wire.RouteResponse
			err = json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(rr.Plans) != 1 || rr.Plans[0].Error != "" {
				t.Fatalf("%s codec %d: status %d, %+v, %v", name, codec, resp.StatusCode, rr, err)
			}
			if cached := rr.Plans[0].Cached; cached != (i == 1) {
				t.Errorf("%s codec %d: cached=%v, want %v (the second codec replays the first's plan)", name, codec, cached, i == 1)
			}
			for _, s := range p.Tracer().Slow.Snapshot(0) {
				if s.ID == id {
					backends[i] = s.Backend
				}
			}
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: placement key %x as JSON, %x as a binary frame", name, keys[0], keys[1])
		}
		if backends[0] == "" || backends[0] != backends[1] {
			t.Errorf("%s: served by %q as JSON, %q as a binary frame", name, backends[0], backends[1])
		}
	}
}
