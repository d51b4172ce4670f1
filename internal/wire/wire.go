// Package wire defines the JSON schema spoken between the popsserved
// routing service (internal/service, cmd/popsserved) and the pops
// ServiceClient. It holds only data types — no server or client logic — so
// that both sides can import it without a dependency cycle: the service
// imports the public pops package for planning, and the public package
// imports wire for the client.
//
// Fingerprints travel as zero-padded hex strings ("%016x"), not JSON
// numbers: a uint64 does not survive the float64 round-trip of generic JSON
// decoders.
package wire

import (
	"fmt"
	"strconv"
	"time"

	"pops/internal/obs"
	"pops/internal/popsnet"
)

// Overload-control headers shared by client, service, and proxy.
const (
	// HeaderDeadline carries the caller's absolute deadline across process
	// boundaries as microseconds since the Unix epoch (see EncodeDeadline).
	// The receiving tier derives its request context's deadline from it, so
	// a queued request whose caller has already given up is shed before it
	// consumes a planner worker.
	HeaderDeadline = "X-Deadline"
	// HeaderTenant names the admission tenant of a request. The body field
	// RouteRequest.Tenant wins when both are set; the header exists so
	// GET-style calls and proxies can tag without rewriting bodies.
	HeaderTenant = "X-Tenant"
	// HeaderRetryAfterMs refines the standard Retry-After header (whole
	// seconds, rounded up) with the server's millisecond-precision backoff
	// hint on 429 responses.
	HeaderRetryAfterMs = "X-Retry-After-Ms"
	// HeaderOverloadQueue names which bound shed the request ("admission",
	// "stream", "backend"), so clients reconstruct the typed
	// *pops.OverloadError instead of string-matching the body.
	HeaderOverloadQueue = "X-Overload-Queue"
)

// EncodeDeadline renders an absolute deadline for HeaderDeadline.
func EncodeDeadline(t time.Time) string {
	return strconv.FormatInt(t.UnixMicro(), 10)
}

// ParseDeadline decodes a HeaderDeadline value.
func ParseDeadline(s string) (time.Time, error) {
	us, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("wire: deadline header %q is not unix microseconds", s)
	}
	return time.UnixMicro(us), nil
}

// Workload kind tags of the tagged request schema, mirroring the
// pops.Workload constructors. An empty workload field means "permutation".
const (
	WorkloadPermutation       = "permutation"
	WorkloadHRelation         = "hrelation"
	WorkloadAllToAll          = "all-to-all"
	WorkloadOneToAll          = "one-to-all"
	WorkloadFaultyPermutation = "faulty-permutation"
)

// Coupler names one coupler c(b, a) of a fault set: destination group B,
// source group A.
type Coupler struct {
	B int `json:"b"`
	A int `json:"a"`
}

// FaultSet is the wire form of pops.FaultSet: the dead couplers and dead
// groups a faulty-permutation workload must route around.
type FaultSet struct {
	Couplers []Coupler `json:"couplers,omitempty"`
	Groups   []int     `json:"groups,omitempty"`
}

// UnroutableInfo carries the typed planning failure of a faulty-permutation
// workload whose fault set severs some source/destination pair. It rides in
// PlanResult next to the rendered Error text, so clients can reconstruct a
// *pops.UnroutableError instead of string-matching.
type UnroutableInfo struct {
	Packet     int  `json:"packet"`
	SrcGroup   int  `json:"src_group"`
	DstGroup   int  `json:"dst_group"`
	SeveredSrc bool `json:"severed_src,omitempty"`
	SeveredDst bool `json:"severed_dst,omitempty"`
}

// Request is one packet demand of an h-relation workload: move a packet
// from Src to Dst.
type Request struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// RouteRequest is the body of POST /route and POST /route/stream: one
// workload to plan on POPS(D, G). Workload selects the kind ("" means
// "permutation"): permutation workloads carry one permutation (Pi) or — on
// /route only — a batch (Pis); hrelation workloads carry Requests; all-to-all
// needs no payload; one-to-all carries Speaker.
type RouteRequest struct {
	D int `json:"d"`
	G int `json:"g"`
	// Workload tags the request kind (WorkloadPermutation, ...). Empty
	// means WorkloadPermutation, the original untagged schema.
	Workload string `json:"workload,omitempty"`
	// Tenant names the admission tenant this request is charged to (the
	// TenantMix workload model): each tenant holds a weighted-fair share of
	// every shard's admission gate, and /stats reports per-tenant admitted
	// and shed counters. Empty requests share the default quota. The
	// X-Tenant header is a fallback for callers that cannot edit bodies.
	Tenant string `json:"tenant,omitempty"`
	// Pi is the single-permutation form; the response carries one plan.
	Pi []int `json:"pi,omitempty"`
	// Pis is the batch form; the response carries one plan per entry, in
	// order.
	Pis [][]int `json:"pis,omitempty"`
	// Requests is the h-relation form: the packet demands to deliver.
	Requests []Request `json:"requests,omitempty"`
	// Speaker is the broadcasting processor of a one-to-all workload.
	Speaker int `json:"speaker,omitempty"`
	// Faults is the fault set of a faulty-permutation workload (which carries
	// its permutation in Pi). Nil or empty means no faults: the plan is then
	// byte-identical to the plain permutation plan.
	Faults *FaultSet `json:"faults,omitempty"`
	// Strategy selects the routing strategy for permutation workloads
	// ("theorem2", "greedy", "direct-optimal", "singleslot", "auto"). Empty
	// means "theorem2", the only strategy served through the coalescing +
	// plan-cache path; other strategies run their router per request.
	// Non-permutation workloads reject a non-default strategy.
	Strategy string `json:"strategy,omitempty"`
	// IncludeSchedule asks for the full slot schedule in each plan, so the
	// caller can replay it on a simulator. Off by default: schedules are
	// O(n) per slot and most callers only need the summary.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// PlanResult is one planned permutation of a RouteResponse. Either Error is
// set (and the rest is zero), or the plan fields are.
type PlanResult struct {
	Strategy string `json:"strategy,omitempty"`
	// Workload tags the kind of plan (WorkloadPermutation, ...); empty for
	// permutation plans, preserving the original schema.
	Workload string `json:"workload,omitempty"`
	Slots    int    `json:"slots,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	// H is the relation degree of an h-relation or all-to-all plan.
	H           int    `json:"h,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports that this plan was answered from the shard's
	// fingerprint plan cache rather than replanned.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Unroutable refines Error for faulty-permutation workloads whose fault
	// set severs a group pair — the one typed planning failure of the kind.
	Unroutable *UnroutableInfo   `json:"unroutable,omitempty"`
	Schedule   *popsnet.Schedule `json:"schedule,omitempty"`
}

// RouteResponse is the body answering POST /route.
type RouteResponse struct {
	D int `json:"d"`
	G int `json:"g"`
	// RequestID echoes the request's X-Request-Id header (client-supplied or
	// server-generated), the key correlating this response with /debug/slow
	// phase breakdowns and proxy-side failover labels.
	RequestID string       `json:"request_id,omitempty"`
	Plans     []PlanResult `json:"plans"`
}

// StreamRecord is one line of the POST /route/stream NDJSON response. The
// server emits exactly one "meta" record first, then "slot" records as the
// planner peels color classes — flushed individually, so slots reach the
// client while later factors are still being computed — and finally one
// "done" record (or one "error" record if planning failed mid-stream).
// Exactly one of Meta, Slot, Done and Error is set, matching Type.
type StreamRecord struct {
	Type  string      `json:"type"` // "meta", "slot", "done" or "error"
	Meta  *StreamMeta `json:"meta,omitempty"`
	Slot  *StreamSlot `json:"slot,omitempty"`
	Done  *StreamDone `json:"done,omitempty"`
	Error string      `json:"error,omitempty"`
}

// StreamMeta opens a slot stream: the shape, the total schedule slot count
// (known before any slot is computed), how many slot records will follow,
// and whether the stream replays a fingerprint-cache hit (whole-slot
// records) or is planned incrementally (one record per color class).
type StreamMeta struct {
	D int `json:"d"`
	G int `json:"g"`
	// Workload tags the kind of plan being streamed; empty for permutation
	// streams, preserving the original schema.
	Workload    string `json:"workload,omitempty"`
	Slots       int    `json:"slots"`
	Fragments   int    `json:"fragments"`
	Strategy    string `json:"strategy"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached,omitempty"`
	// RequestID echoes the stream's X-Request-Id, mirroring
	// RouteResponse.RequestID for the NDJSON path.
	RequestID string `json:"request_id,omitempty"`
}

// StreamSlot is one streamed fragment of the schedule: the sends and recvs
// that one relay color class contributes to slot Slot, starting Offset
// entries into the slot. Fragments of one slot tile it exactly; Final
// marks its last fragment. Color is -1 for whole-slot fragments (cache
// hits and non-relay strategies). Fragments of different slots may
// interleave, and fragments within a slot may arrive out of Offset order;
// reassemble by (Slot, Offset) to recover the batch-identical schedule.
type StreamSlot struct {
	Slot   int            `json:"slot"`
	Color  int            `json:"color"`
	Offset int            `json:"offset"`
	Final  bool           `json:"final,omitempty"`
	Sends  []popsnet.Send `json:"sends"`
	Recvs  []popsnet.Recv `json:"recvs"`
}

// StreamDone closes a successful slot stream.
type StreamDone struct {
	Slots     int `json:"slots"`
	Fragments int `json:"fragments"`
}

// SlotsResponse answers GET /slots?d=&g=: the Theorem 2 slot count every
// permutation on that shape routes in.
type SlotsResponse struct {
	D     int `json:"d"`
	G     int `json:"g"`
	Slots int `json:"slots"`
}

// CacheStats mirrors pops.CacheStats for one shard's plan cache.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// ShardStats describes one live planner shard.
type ShardStats struct {
	D        int    `json:"d"`
	G        int    `json:"g"`
	Requests uint64 `json:"requests"`
	// Streams counts /route/stream requests admitted by this shard. They
	// are capped by the stream limit, not the planning slots: each stream
	// owns a worker planner and delivers slot fragments while the gate
	// keeps admitting.
	Streams uint64 `json:"streams,omitempty"`
	// Batches counts the planner invocations made by the shard's admission
	// gate, BatchedRequests the requests those invocations answered
	// (coalesced joiners included), so BatchedRequests/Batches is the mean
	// coalesced group; MaxBatch is the largest coalesced group.
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	MaxBatch        uint64 `json:"max_batch"`
	// QueueLen is the number of requests currently waiting at the gate (for
	// a planning slot or on a coalesced plan); QueueCap is the wait bound.
	QueueLen int `json:"queue_len,omitempty"`
	QueueCap int `json:"queue_cap,omitempty"`
	// Sheds counts admissions this shard rejected with an overload verdict
	// (wait bound, tenant quota, stream cap); DeadlineSheds the waiters
	// whose deadline passed before they got a planning slot.
	Sheds         uint64 `json:"sheds,omitempty"`
	DeadlineSheds uint64 `json:"deadline_sheds,omitempty"`
	// ActiveStreams is the number of open slot streams held against the
	// shard's concurrent-stream cap.
	ActiveStreams int64      `json:"active_streams,omitempty"`
	Cache         CacheStats `json:"cache"`
}

// TenantStats is one tenant's admission-fairness ledger: its configured
// weight and how many of its requests were admitted or shed.
type TenantStats struct {
	// Tenant is the tenant name; "" reports the default (untagged) tenant.
	Tenant string `json:"tenant"`
	// Weight is the tenant's configured admission weight (1 when unset).
	Weight float64 `json:"weight,omitempty"`
	// Admitted counts requests accepted into a shard queue, stream slot, or
	// direct-execution slot under this tenant.
	Admitted uint64 `json:"admitted"`
	// Shed counts requests rejected with an overload verdict (429).
	Shed uint64 `json:"shed"`
	// DeadlineShed counts queued requests dropped because their propagated
	// deadline expired before a planner worker picked them up.
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
}

// Codec names used in WireCodecStats.Codec and the wire_codec metric label.
const (
	CodecJSON   = "json"
	CodecNDJSON = "ndjson"
	CodecBinary = "binary"
)

// WireCodecStats is one response codec's wire-path ledger: how many unary
// /route responses and /route/stream streams were answered in that codec,
// and how many stream bytes were flushed. Codec names are "json" (unary
// JSON), "ndjson" (NDJSON stream records, the default/debug surface), and
// "binary" (the length-prefixed application/x-pops-bin framing).
type WireCodecStats struct {
	Codec         string `json:"codec"`
	Requests      uint64 `json:"requests,omitempty"`
	Streams       uint64 `json:"streams,omitempty"`
	StreamedBytes uint64 `json:"streamed_bytes,omitempty"`
}

// LatencyBucket is one bucket of the request-latency histogram: Count
// requests completed in at most LEMicros microseconds (and more than the
// previous bucket's bound). The final bucket has LEMicros == 0, meaning
// "no upper bound". It aliases obs.Bucket so service histograms snapshot
// straight onto the wire.
type LatencyBucket = obs.Bucket

// PlanTimeStat is one per-(d, g, strategy) plan-time entry of
// StatsResponse.PlanTimes: observation count, cache hits, EWMA, and a
// latency histogram of measured planning time.
type PlanTimeStat = obs.PlanTimeStat

// SlowRequest is one retained slow request with its full phase breakdown,
// served by GET /debug/slow.
type SlowRequest = obs.SpanSnapshot

// SlowResponse answers GET /debug/slow: the slowest retained requests,
// slowest first.
type SlowResponse struct {
	// Server identifies the answering node, mirroring StatsResponse.Server.
	Server   string        `json:"server,omitempty"`
	Requests []SlowRequest `json:"requests"`
}

// StatsResponse answers GET /stats: service-wide counters plus one entry per
// live shard. CacheHits/CacheMisses aggregate over live and evicted shards.
//
// A single popsserved node fills Server with its own identity and leaves
// Backends empty. A popsproxy front door answers the same endpoint with the
// fleet aggregate — counters summed, latency histograms merged bucket-wise,
// shard entries concatenated — and one Backends entry per node, so a caller
// reading /stats cannot tell one machine from a fleet unless it asks.
type StatsResponse struct {
	// Server identifies the answering node (its -name flag or listen
	// address); a proxy reports "popsproxy".
	Server        string `json:"server,omitempty"`
	ShardCount    int    `json:"shard_count"`
	MaxShards     int    `json:"max_shards"`
	EvictedShards uint64 `json:"evicted_shards"`
	Requests      uint64 `json:"requests"`
	Streams       uint64 `json:"streams"`
	StreamedSlots uint64 `json:"streamed_slots"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	// FaultPlans counts faulty-permutation workloads served; Unroutable
	// counts the subset rejected with a typed unroutable verdict.
	FaultPlans uint64 `json:"fault_plans,omitempty"`
	Unroutable uint64 `json:"unroutable,omitempty"`
	// Sheds counts requests rejected with an overload verdict (429);
	// DeadlineSheds the queued entries dropped because their propagated
	// deadline expired before planning started. Both are included in
	// neither Requests' successes nor the latency histogram.
	Sheds         uint64 `json:"sheds,omitempty"`
	DeadlineSheds uint64 `json:"deadline_sheds,omitempty"`
	// Tenants is the per-tenant fairness ledger, sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
	// WireCodecs breaks the wire path down by negotiated response codec
	// ("json", "ndjson", "binary"), sorted by codec name. A proxy answers
	// with the fleet merge (counters summed by codec).
	WireCodecs []WireCodecStats `json:"wire_codecs,omitempty"`
	Latency    []LatencyBucket  `json:"latency"`
	// TimeToFirstSlot is the streaming analogue of Latency: time from
	// stream admission until the first slot fragment was ready to flush.
	// It is the measured signal for the per-shape cost model (see ROADMAP).
	TimeToFirstSlot []LatencyBucket `json:"time_to_first_slot"`
	// PlanTimes is the per-(d, g, strategy) measured plan-time table: EWMAs
	// and histograms of actual planning work (cache hits counted separately).
	// This is the data source for the learned Auto cost model. A proxy
	// answers with the fleet merge: counts summed, EWMAs count-weighted,
	// buckets merged bucket-wise.
	PlanTimes []PlanTimeStat `json:"plan_times,omitempty"`
	Shards    []ShardStats   `json:"shards"`
	// Backends is the per-node breakdown of a fleet aggregate: one entry
	// per configured backend, present only when a proxy answered.
	Backends []BackendStats `json:"backends,omitempty"`
}

// BackendStats describes one popsserved node behind a popsproxy front door:
// the proxy's own per-backend counters plus the node's self-reported /stats
// snapshot (nil when the node was unreachable at snapshot time).
type BackendStats struct {
	// ID is the backend's base URL on the proxy's ring.
	ID string `json:"id"`
	// Server echoes the node's self-reported identity (StatsResponse.Server).
	Server string `json:"server,omitempty"`
	// Healthy reports the proxy's current health verdict for the node.
	Healthy bool `json:"healthy"`
	// Requests and Streams count what the proxy placed on this node.
	Requests uint64 `json:"requests"`
	Streams  uint64 `json:"streams"`
	// Failovers counts requests that left this node for the next ring owner
	// after a connection error; Errors counts connection errors observed.
	Failovers uint64 `json:"failovers"`
	Errors    uint64 `json:"errors"`
	// Ejections counts healthy→unhealthy transitions: how often the proxy
	// ejected this node from the ring (health-probe failures or consecutive
	// request errors crossing the threshold).
	Ejections uint64 `json:"ejections,omitempty"`
	// Sheds counts overload verdicts (429) the proxy observed from this
	// node or imposed on its behalf (the per-backend concurrency limit).
	Sheds uint64 `json:"sheds,omitempty"`
	// BreakerState is the proxy's circuit-breaker verdict for the node:
	// "closed" (serving), "open" (tripped, excluded from placement until
	// the cooldown), or "half-open" (probing with one trial request).
	BreakerState string `json:"breaker_state,omitempty"`
	// BreakerOpens counts closed→open breaker transitions.
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	// CacheHits/CacheMisses echo the node's own totals, so per-node cache
	// affinity is visible without fetching every node's /stats.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Stats is the node's full /stats snapshot; nil if unreachable.
	Stats *StatsResponse `json:"stats,omitempty"`
}
