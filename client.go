package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pops/internal/backoff"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// The wire schema of the popsserved routing service, shared with
// internal/service. ServiceClient speaks it; callers embedding pops into
// their own services can reuse the types directly.
type (
	// ServiceRouteRequest is the body of POST /route.
	ServiceRouteRequest = wire.RouteRequest
	// ServicePlan is one planned permutation of a route response. Either
	// its Error field is set or its plan fields are.
	ServicePlan = wire.PlanResult
	// ServiceRouteResponse is the body answering POST /route.
	ServiceRouteResponse = wire.RouteResponse
	// ServiceStats is the body answering GET /stats.
	ServiceStats = wire.StatsResponse
	// ServiceStreamMeta opens a POST /route/stream response.
	ServiceStreamMeta = wire.StreamMeta
	// ServiceStreamSlot is one streamed slot fragment.
	ServiceStreamSlot = wire.StreamSlot
	// ServiceStreamDone closes a successful slot stream.
	ServiceStreamDone = wire.StreamDone
)

// ServiceClient is the Go client of a popsserved routing service (see
// cmd/popsserved and internal/service): plans are requested over HTTP
// instead of computed in-process, so many processes can share one warm
// planner fleet — its shards, admission gates, and fingerprint plan cache.
// Coalescing happens server-side; the client is a thin, concurrency-safe
// HTTP wrapper.
type ServiceClient struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	codec ServiceCodec

	// wireState is CodecAuto's sticky negotiation state — wireUnknown,
	// wireBinary or wireDowngraded — shared (by pointer) across
	// WithRetry/WithCodec copies, so one binary answer or one 406 covers the
	// whole client instead of being renegotiated per call.
	wireState *atomic.Int32

	// sleep and jitter are the retry pacing hooks, injectable so tests can
	// pin the backoff schedule; nil selects the real clock and the shared
	// half-to-full jitter.
	sleep  func(context.Context, time.Duration) error
	jitter func(time.Duration) time.Duration
}

// ServiceCodec selects the codec a ServiceClient negotiates for /route and
// /route/stream bodies. See WithCodec.
type ServiceCodec int

const (
	// CodecAuto (the default) asks for the binary framing with a JSON/NDJSON
	// fallback in the same Accept header and decodes whichever codec the
	// server chose. Request bodies stay JSON until a binary answer proves the
	// server speaks the codec, and go binary from then on; a 406 downgrades
	// the client to plain JSON for good. Old servers and new servers are
	// both spoken to transparently.
	CodecAuto ServiceCodec = iota
	// CodecJSON never asks for binary: requests are byte-identical to the
	// pre-binary client, the debugging escape hatch.
	CodecJSON
	// CodecBinary sends binary request bodies and requires binary answers: a
	// server answering in any other codec is an error. Use it to pin the
	// wire format in tests.
	CodecBinary
)

// CodecAuto's shared negotiation states.
const (
	wireUnknown    int32 = iota // no binary answer yet: JSON bodies, binary offered
	wireBinary                  // the server answered binary: binary bodies
	wireDowngraded              // the server 406ed the offer: plain JSON for good
)

// NewServiceClient returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8714"). A nil hc selects http.DefaultClient. The client
// does not retry by default; see WithRetry.
func NewServiceClient(baseURL string, hc *http.Client) *ServiceClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &ServiceClient{base: strings.TrimRight(baseURL, "/"), hc: hc, wireState: new(atomic.Int32)}
}

// WithCodec returns a copy of the client pinned to codec. The copy shares
// the original's sticky downgrade state, so a fleet of derived clients
// renegotiates at most once.
func (c *ServiceClient) WithCodec(codec ServiceCodec) *ServiceClient {
	cp := *c
	cp.codec = codec
	return &cp
}

// negotiation resolves one attempt's request-body codec and Accept header
// ("" sends none — the legacy request shape). The CodecAuto offer names
// binary with NDJSON (streams) or JSON (unary calls) as the fallback.
func (c *ServiceClient) negotiation(stream bool) (body wirebin.Codec, accept string) {
	switch {
	case c.codec == CodecJSON:
		return wirebin.JSON, ""
	case c.codec == CodecBinary:
		return wirebin.Binary, wirebin.Binary.ContentType(stream)
	}
	state := c.wireState.Load()
	if state == wireDowngraded {
		return wirebin.JSON, ""
	}
	offer := wirebin.Binary.ContentType(stream) + ", " + wirebin.JSON.ContentType(stream) + ";q=0.9"
	if state == wireBinary {
		return wirebin.Binary, offer
	}
	return wirebin.JSON, offer
}

// errNotAcceptable marks a 406 verdict.
var errNotAcceptable = errors.New("server rejected the requested codec")

// RetryPolicy tunes the client's reaction to overload verdicts (HTTP 429,
// or 503 carrying Retry-After): how many times to retry and how to pace.
// Planning is pure — replaying a route request is idempotent — so retrying
// a shed request is always safe; the policy never retries deterministic
// errors, and never retries past the request context's deadline.
type RetryPolicy struct {
	// MaxRetries is how many extra attempts follow a shed first attempt.
	// 0 disables retrying.
	MaxRetries int
	// BaseBackoff is the pause before the first retry, doubled per further
	// attempt and raised to the server's Retry-After hint when that asks
	// for longer. Default 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the pause. Default 1s.
	MaxBackoff time.Duration
}

// WithRetry returns a copy of the client that retries overload-shed
// requests under p. The zero policy disables retrying again.
func (c *ServiceClient) WithRetry(p RetryPolicy) *ServiceClient {
	cp := *c
	cp.retry = p
	return &cp
}

// withRetry runs attempt, retrying when it fails with a typed
// *OverloadError: the pause is BaseBackoff doubled per attempt, raised to
// the server's Retry-After hint, capped at MaxBackoff, and jittered into
// [d/2, d] so a shedding server is not hit by synchronized retry waves. A
// request whose context deadline cannot survive the pause is not retried —
// the overload verdict is returned as-is. Deterministic errors never retry.
func (c *ServiceClient) withRetry(ctx context.Context, attempt func() error) error {
	for try := 0; ; try++ {
		err := attempt()
		var oe *OverloadError
		if err == nil || !errors.As(err, &oe) || try >= c.retry.MaxRetries {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		base := c.retry.BaseBackoff
		if base <= 0 {
			base = 10 * time.Millisecond
		}
		max := c.retry.MaxBackoff
		if max <= 0 {
			max = time.Second
		}
		delay := backoff.Delay(base, max, try, oe.RetryAfter)
		if c.jitter != nil {
			delay = c.jitter(delay)
		} else {
			delay = backoff.Jitter(delay)
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			return err // the deadline would expire mid-pause
		}
		if err := c.pause(ctx, delay); err != nil {
			return err
		}
	}
}

func (c *ServiceClient) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// OverloadFromResponse reconstructs the typed overload verdict of a shed
// HTTP response: every 429, plus 503s that carry a Retry-After hint (a
// proxy-side limit). A plain 503 — graceful shutdown — is not an overload
// and returns nil. The response body is not touched. ServiceClient applies
// it internally; the cluster proxy uses it to tell a shedding backend from
// a dead one.
func OverloadFromResponse(resp *http.Response) *OverloadError {
	throttled := resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "")
	if !throttled {
		return nil
	}
	oe := &OverloadError{
		Tenant: resp.Header.Get(wire.HeaderTenant),
		Queue:  resp.Header.Get(wire.HeaderOverloadQueue),
	}
	if ms := resp.Header.Get(wire.HeaderRetryAfterMs); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			oe.RetryAfter = time.Duration(v) * time.Millisecond
		}
	}
	if oe.RetryAfter == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				oe.RetryAfter = time.Duration(v) * time.Second
			}
		}
	}
	return oe
}

// reqIDCtxKey carries a caller-chosen request ID through a context.
type reqIDCtxKey struct{}

// ContextWithRequestID returns a context that makes ServiceClient calls
// carry id as the X-Request-Id header, so a caller's own correlation ID
// follows the request through popsproxy and popsserved — it is echoed in
// the response header, the response's request_id field, the stream meta
// record, and both servers' GET /debug/slow breakdowns. Without it the
// serving side assigns an ID of its own.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFromContext returns the request ID attached by
// ContextWithRequestID, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDCtxKey{}).(string)
	return id
}

// Do posts one ServiceRouteRequest and returns the decoded response. It is
// the general form behind Execute and RouteBatch: callers use it to select a
// strategy or ask for full schedules (IncludeSchedule).
func (c *ServiceClient) Do(ctx context.Context, req *ServiceRouteRequest) (*ServiceRouteResponse, error) {
	var out ServiceRouteResponse
	err := c.withRetry(ctx, func() error {
		resp, codec, err := c.post(ctx, "/route", req, false)
		if err != nil {
			return err
		}
		defer drainClose(resp.Body)
		if err := codec.ReadResponse(resp.Body, &out); err != nil {
			return fmt.Errorf("pops: decoding service /route response: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Execute plans one workload on POPS(d, g) — the wire form of
// Planner.Execute. Every workload kind passes the shard's admission gate
// and plans on the shard's planner, sharing its pooled arenas and plan
// cache. A workload planning failure is returned as an error.
func (c *ServiceClient) Execute(ctx context.Context, d, g int, w Workload) (*ServicePlan, error) {
	req, err := workloadRouteRequest(d, g, w)
	if err != nil {
		return nil, err
	}
	return c.doOne(ctx, req)
}

// doOne posts a single-plan request and unwraps its one result.
func (c *ServiceClient) doOne(ctx context.Context, req *ServiceRouteRequest) (*ServicePlan, error) {
	resp, err := c.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Plans) != 1 {
		return nil, fmt.Errorf("pops: service returned %d plans for one workload", len(resp.Plans))
	}
	plan := &resp.Plans[0]
	if plan.Error != "" {
		if u := plan.Unroutable; u != nil {
			// Reconstruct the typed verdict, so errors.As works across the
			// wire exactly as it does in-process.
			nw, err := NewNetwork(resp.D, resp.G)
			if err == nil {
				return nil, &UnroutableError{
					Net: nw, Packet: u.Packet, SrcGroup: u.SrcGroup, DstGroup: u.DstGroup,
					SeveredSrc: u.SeveredSrc, SeveredDst: u.SeveredDst,
				}
			}
		}
		return nil, fmt.Errorf("pops: service: %s", plan.Error)
	}
	return plan, nil
}

// wireFaults converts a FaultSet to its wire form; nil for an empty set, so
// fault-free requests serialize without the field.
func wireFaults(fs FaultSet) *wire.FaultSet {
	if fs.Empty() {
		return nil
	}
	out := &wire.FaultSet{Groups: fs.Groups}
	for _, c := range fs.Couplers {
		out.Couplers = append(out.Couplers, wire.Coupler{B: c.B, A: c.A})
	}
	return out
}

// workloadRouteRequest serializes a Workload into the tagged wire schema.
func workloadRouteRequest(d, g int, w Workload) (*ServiceRouteRequest, error) {
	switch w := w.(type) {
	case nil:
		return nil, ErrNilWorkload
	case permutationWorkload:
		return &ServiceRouteRequest{D: d, G: g, Pi: w.pi}, nil
	case hrelationWorkload:
		reqs := make([]wire.Request, len(w.reqs))
		for i, r := range w.reqs {
			reqs[i] = wire.Request{Src: r.Src, Dst: r.Dst}
		}
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadHRelation, Requests: reqs}, nil
	case allToAllWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadAllToAll}, nil
	case oneToAllWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadOneToAll, Speaker: w.speaker}, nil
	case faultyWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadFaultyPermutation, Pi: w.pi, Faults: wireFaults(w.faults)}, nil
	default:
		return nil, fmt.Errorf("pops: unknown workload type %T", w)
	}
}

// RouteBatch plans a batch of permutations on POPS(d, g) with the default
// strategy, returning one ServicePlan per permutation in input order.
// Per-permutation failures stay in the corresponding ServicePlan.Error,
// matching the Planner.RouteBatch contract.
func (c *ServiceClient) RouteBatch(ctx context.Context, d, g int, pis [][]int) ([]ServicePlan, error) {
	resp, err := c.Do(ctx, &ServiceRouteRequest{D: d, G: g, Pis: pis})
	if err != nil {
		return nil, err
	}
	if len(resp.Plans) != len(pis) {
		return nil, fmt.Errorf("pops: service returned %d plans for %d permutations", len(resp.Plans), len(pis))
	}
	return resp.Plans, nil
}

// ServiceStream is an open POST /route/stream response: slot fragments
// decoded one record at a time, in whichever codec the server answered
// (NDJSON lines or binary frames), while the server is still peeling later
// color classes. Drive it with Next and always Close it — Close releases the
// HTTP connection, and abandoning a stream early tells the server to stop
// planning.
type ServiceStream struct {
	body io.ReadCloser
	recs *wirebin.RecordReader
	meta ServiceStreamMeta
	done *ServiceStreamDone
	err  error
}

// ExecuteStream opens a slot stream for any workload — the wire form of
// Planner.ExecuteStream. H-relation (and all-to-all) slots are flushed as
// each König factor of the request multigraph is peeled and routed, so the
// first slots arrive while the server is still factorizing. Cancelling ctx
// hangs up the connection, which cancels the server-side planning context.
func (c *ServiceClient) ExecuteStream(ctx context.Context, d, g int, w Workload) (*ServiceStream, error) {
	req, err := workloadRouteRequest(d, g, w)
	if err != nil {
		return nil, err
	}
	return c.DoStream(ctx, req)
}

// DoStream is the general streaming form: it posts req to /route/stream and
// decodes the stream's opening meta record. Callers use it to select a
// non-default strategy (whose plans are streamed as whole slots).
func (c *ServiceClient) DoStream(ctx context.Context, req *ServiceRouteRequest) (*ServiceStream, error) {
	// A stream shed at admission (429 before the meta record) has delivered
	// nothing, so retrying it is as safe as retrying /route. Once the stream
	// is open it is never retried — the caller may have consumed slots.
	var st *ServiceStream
	err := c.withRetry(ctx, func() error {
		resp, codec, err := c.post(ctx, "/route/stream", req, true)
		if err != nil {
			return err
		}
		st = &ServiceStream{body: resp.Body, recs: codec.NewRecordReader(resp.Body)}
		var rec wire.StreamRecord
		err = st.recs.Next(&rec)
		switch {
		case err != nil:
			err = fmt.Errorf("pops: decoding stream meta: %w", err)
		case rec.Type == "error":
			err = fmt.Errorf("pops: service: %s", rec.Error)
		case rec.Type != "meta" || rec.Meta == nil:
			err = fmt.Errorf("pops: stream opened with %q record, want meta", rec.Type)
		default:
			st.meta = *rec.Meta
			return nil
		}
		st.recs.Close()
		drainClose(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Meta returns the stream's opening record.
func (s *ServiceStream) Meta() ServiceStreamMeta { return s.meta }

// Next returns the next slot fragment, or (nil, nil) once the stream has
// completed successfully (Done then holds the closing record). A planning
// failure mid-stream or a malformed response — a truncated or corrupt
// record, a backend dying mid-stream, a relay forwarding garbage — is
// returned as an error, never as a silently short plan: the done record is
// the only successful ending.
func (s *ServiceStream) Next() (*ServiceStreamSlot, error) {
	if s.err != nil || s.done != nil {
		return nil, s.err
	}
	var rec wire.StreamRecord
	if err := s.recs.Next(&rec); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // EOF before the done record is truncation
		}
		s.err = fmt.Errorf("pops: decoding stream record: %w", err)
		return nil, s.err
	}
	switch rec.Type {
	case "slot":
		if rec.Slot == nil {
			s.err = fmt.Errorf("pops: slot record without slot payload")
			return nil, s.err
		}
		return rec.Slot, nil
	case "done":
		s.done = rec.Done
		return nil, nil
	case "error":
		s.err = fmt.Errorf("pops: service: %s", rec.Error)
		return nil, s.err
	default:
		s.err = fmt.Errorf("pops: unexpected stream record %q", rec.Type)
		return nil, s.err
	}
}

// Done returns the stream's closing record once Next has returned (nil, nil).
func (s *ServiceStream) Done() *ServiceStreamDone { return s.done }

// Close releases the underlying HTTP response. Always call it; closing
// before the done record abandons the stream server-side (the dropped
// connection is the cancellation signal). After a completed stream the
// remaining body (the chunked trailer) is drained first, so the
// keep-alive connection returns to the transport's pool instead of being
// torn down.
func (s *ServiceStream) Close() error {
	s.recs.Close()
	if s.done != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(s.body, 4096))
	}
	return s.body.Close()
}

// Slots returns the Theorem 2 slot count the service will use for every
// permutation on POPS(d, g).
func (c *ServiceClient) Slots(ctx context.Context, d, g int) (int, error) {
	var resp wire.SlotsResponse
	if err := c.get(ctx, fmt.Sprintf("/slots?d=%d&g=%d", d, g), &resp); err != nil {
		return 0, err
	}
	return resp.Slots, nil
}

// Stats snapshots the service's shard, cache, batching, and latency
// counters.
func (c *ServiceClient) Stats(ctx context.Context) (*ServiceStats, error) {
	var resp ServiceStats
	if err := c.get(ctx, "/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports service liveness: nil while the service admits requests.
func (c *ServiceClient) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("pops: service health check: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pops: service unhealthy: %s", readError(resp))
	}
	return nil
}

// post sends one attempt of req to path, its body encoded in the attempt's
// negotiated codec (re-encoded per attempt, so a replay follows a downgrade),
// and returns the 200 answer with the codec it speaks; the caller owns the
// response body. A binary answer proves the codec for CodecAuto. A 406 to a
// CodecAuto binary offer downgrades the client for good and replays the
// attempt as plain JSON.
func (c *ServiceClient) post(ctx context.Context, path string, req *ServiceRouteRequest, stream bool) (*http.Response, wirebin.Codec, error) {
	bodyCodec, accept := c.negotiation(stream)
	body, err := bodyCodec.AppendRequest(nil, req)
	if err != nil {
		return nil, 0, fmt.Errorf("pops: encoding route request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	httpReq.Header.Set("Content-Type", bodyCodec.ContentType(false))
	if accept != "" {
		httpReq.Header.Set("Accept", accept)
	}
	c.setCallHeaders(ctx, httpReq)
	resp, err := c.send(httpReq)
	if errors.Is(err, errNotAcceptable) && c.codec == CodecAuto && accept != "" {
		c.wireState.Store(wireDowngraded)
		return c.post(ctx, path, req, stream)
	}
	if err != nil {
		return nil, 0, err
	}
	codec := wirebin.FromContentType(resp.Header.Get("Content-Type"))
	if codec == wirebin.Binary {
		c.wireState.CompareAndSwap(wireUnknown, wireBinary)
	} else if c.codec == CodecBinary {
		drainClose(resp.Body)
		return nil, 0, fmt.Errorf("pops: service %s answered %q, want %s",
			path, resp.Header.Get("Content-Type"), wirebin.Binary.ContentType(stream))
	}
	return resp, codec, nil
}

// setCallHeaders attaches the per-call context headers: the caller's
// correlation ID, the tenant tag for weighted-fair admission, and the
// absolute deadline, so a server can shed a queued request the moment it
// becomes unservable instead of planning for a caller that already hung up.
func (c *ServiceClient) setCallHeaders(ctx context.Context, req *http.Request) {
	if id := RequestIDFromContext(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if t := TenantFromContext(ctx); t != "" {
		req.Header.Set(wire.HeaderTenant, t)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(wire.HeaderDeadline, wire.EncodeDeadline(dl))
	}
}

func (c *ServiceClient) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("pops: decoding service %s response: %w", req.URL.Path, err)
	}
	return nil
}

// send performs one HTTP exchange and returns a 200 answer, whose body the
// caller must drainClose. Any other status is drained here (bounded) and
// mapped to an error — a 406 to errNotAcceptable, a shed to the typed
// *OverloadError — because a body closed with bytes left tears the
// keep-alive connection down, which would leak pooled connections exactly
// when a failover layer is retrying hardest.
func (c *ServiceClient) send(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("pops: service request %s: %w", req.URL.Path, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotAcceptable {
		return nil, fmt.Errorf("pops: service %s: %w", req.URL.Path, errNotAcceptable)
	}
	if oe := OverloadFromResponse(resp); oe != nil {
		return nil, fmt.Errorf("pops: service %s: %w", req.URL.Path, oe)
	}
	return nil, fmt.Errorf("pops: service %s: %s", req.URL.Path, readError(resp))
}

// drainClose discards what is left of a response body (bounded, so a huge
// error page cannot stall the caller) and closes it, returning the
// keep-alive connection to the transport's pool instead of tearing it down.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// readError summarizes a non-200 response: status plus the first line of the
// body, which the service fills with the request-level error text.
func readError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		return resp.Status
	}
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Sprintf("%s: %s", resp.Status, msg)
}
