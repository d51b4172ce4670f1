package service

import (
	"strconv"
	"time"

	"pops/internal/obs"
)

// collectMetrics renders the service's counters and histograms in Prometheus
// text exposition format. It is registered on the service's obs.Registry and
// runs on every GET /metrics scrape, reading the live counters — nothing is
// double-tracked. Plan-time families carry (d, g, strategy) labels, so the
// per-shape cost model the proxy's balancer wants can be scraped directly.
func (s *Service) collectMetrics(mw *obs.MetricWriter) {
	st := s.Stats()

	mw.Counter("pops_requests_total", "Routing requests admitted (batch entries counted individually).")
	mw.Value("", float64(st.Requests))
	mw.Counter("pops_streams_total", "Streaming plan requests admitted.")
	mw.Value("", float64(st.Streams))
	mw.Counter("pops_streamed_slots_total", "Slot records flushed over /route/stream.")
	mw.Value("", float64(st.StreamedSlots))
	mw.Gauge("pops_shards", "Live planner shards (distinct POPS shapes).")
	mw.Value("", float64(st.ShardCount))
	mw.Counter("pops_evicted_shards_total", "Planner shards evicted by the shard LRU.")
	mw.Value("", float64(st.EvictedShards))
	mw.Counter("pops_cache_hits_total", "Fingerprint plan-cache hits, including evicted shards.")
	mw.Value("", float64(st.CacheHits))
	mw.Counter("pops_cache_misses_total", "Fingerprint plan-cache misses, including evicted shards.")
	mw.Value("", float64(st.CacheMisses))
	mw.Counter("pops_fault_plans_total", "Faulty-permutation workloads served.")
	mw.Value("", float64(st.FaultPlans))
	mw.Counter("pops_unroutable_total", "Fault workloads rejected as unroutable.")
	mw.Value("", float64(st.Unroutable))
	mw.Counter("pops_sheds_total", "Requests shed with an overload verdict (HTTP 429).")
	mw.Value("", float64(st.Sheds))
	mw.Counter("pops_deadline_sheds_total", "Waiting requests dropped because their propagated deadline expired.")
	mw.Value("", float64(st.DeadlineSheds))

	mw.Counter("pops_wire_requests_total", "Unary /route responses by negotiated wire codec.")
	for _, c := range st.WireCodecs {
		mw.Value(codecLabels(c.Codec), float64(c.Requests))
	}
	mw.Counter("pops_wire_streams_total", "/route/stream responses by negotiated wire codec.")
	for _, c := range st.WireCodecs {
		mw.Value(codecLabels(c.Codec), float64(c.Streams))
	}
	mw.Counter("pops_wire_streamed_bytes_total", "Bytes flushed over /route/stream by negotiated wire codec.")
	for _, c := range st.WireCodecs {
		mw.Value(codecLabels(c.Codec), float64(c.StreamedBytes))
	}

	mw.Counter("pops_tenant_admitted_total", "Requests admitted per tenant (TenantMix fairness ledger).")
	for _, t := range st.Tenants {
		mw.Value(tenantLabels(t.Tenant), float64(t.Admitted))
	}
	mw.Counter("pops_tenant_shed_total", "Requests shed per tenant with an overload verdict.")
	for _, t := range st.Tenants {
		mw.Value(tenantLabels(t.Tenant), float64(t.Shed))
	}
	mw.Counter("pops_tenant_deadline_shed_total", "Waiting requests dropped per tenant on an expired deadline.")
	for _, t := range st.Tenants {
		mw.Value(tenantLabels(t.Tenant), float64(t.DeadlineShed))
	}
	mw.Gauge("pops_tenant_weight", "Configured admission weight per tenant.")
	for _, t := range st.Tenants {
		mw.Value(tenantLabels(t.Tenant), t.Weight)
	}

	mw.HistogramFamily("pops_request_latency_seconds", "End-to-end request latency (traced requests observe their span total).")
	mw.Histogram("", st.Latency, s.latency.Sum())
	mw.HistogramFamily("pops_time_to_first_slot_seconds", "Admission to first streamed slot record.")
	mw.Histogram("", st.TimeToFirstSlot, s.ttfs.Sum())

	mw.Counter("pops_shard_requests_total", "Requests admitted per live shard.")
	for _, sh := range st.Shards {
		mw.Value(shardLabels(sh.D, sh.G), float64(sh.Requests))
	}
	mw.Gauge("pops_shard_cache_entries", "Fingerprint plan-cache entries per live shard.")
	for _, sh := range st.Shards {
		mw.Value(shardLabels(sh.D, sh.G), float64(sh.Cache.Entries))
	}
	mw.Gauge("pops_shard_queue_len", "Requests waiting at the admission gate per live shard.")
	for _, sh := range st.Shards {
		mw.Value(shardLabels(sh.D, sh.G), float64(sh.QueueLen))
	}
	mw.Counter("pops_shard_sheds_total", "Overload rejections per live shard.")
	for _, sh := range st.Shards {
		mw.Value(shardLabels(sh.D, sh.G), float64(sh.Sheds))
	}

	mw.HistogramFamily("pops_plan_time_seconds", "Planning time by shape and strategy (cache hits excluded).")
	for _, pt := range st.PlanTimes {
		mw.Histogram(planLabels(pt), pt.Buckets, time.Duration(pt.SumMicros*float64(time.Microsecond)))
	}
	mw.Gauge("pops_plan_time_ewma_seconds", "EWMA of planning time by shape and strategy (alpha 0.2).")
	for _, pt := range st.PlanTimes {
		mw.Value(planLabels(pt), pt.EWMAMicros/1e6)
	}
	mw.Counter("pops_plan_cache_hits_total", "Plan-cache hits by shape and strategy.")
	for _, pt := range st.PlanTimes {
		mw.Value(planLabels(pt), float64(pt.CacheHits))
	}
}

func codecLabels(codec string) string {
	return obs.Labels("wire_codec", codec)
}

func shardLabels(d, g int) string {
	return obs.Labels("d", strconv.Itoa(d), "g", strconv.Itoa(g))
}

// tenantLabels renders the tenant label; the untagged default tenant scrapes
// as tenant="default" so the series name is never an empty label value.
func tenantLabels(tenant string) string {
	if tenant == "" {
		tenant = "default"
	}
	return obs.Labels("tenant", tenant)
}

func planLabels(pt obs.PlanTimeStat) string {
	return obs.Labels("d", strconv.Itoa(pt.D), "g", strconv.Itoa(pt.G), "strategy", pt.Strategy)
}
