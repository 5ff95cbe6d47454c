package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// Well-known gauge names the system wiring registers and the live-progress
// reporters sample. Checkpoints turn each into a same-named time series.
const (
	GaugeRCHitRatio  = "rc_hit_ratio"
	GaugeICHitRatio  = "ic_hit_ratio"
	GaugeRICHitRatio = "ric_hit_ratio"
	GaugeSSDErases   = "cache_ssd_erases"
	GaugeSSDWriteAmp = "cache_ssd_write_amp"
	// GaugeDegradedMode is 1 while the cache manager's SSD circuit breaker
	// is open (reads routed around the L2 tier), 0 otherwise.
	GaugeDegradedMode = "cache_degraded_mode"
	// GaugeQuarantinedBytes tracks SSD cache capacity retired after device
	// errors.
	GaugeQuarantinedBytes = "cache_quarantined_bytes"
)

// LatencyBounds returns the log-spaced microsecond bucket bounds used for
// every query-latency histogram: 16 µs up to ~33 s, doubling.
func LatencyBounds() []int64 { return metrics.ExpBounds(16, 2, 22) }

// Options configures an Observer.
type Options struct {
	// TraceRing is the trace ring-buffer capacity (0 = 4096).
	TraceRing int
	// TraceOut, when non-nil, receives every completed trace as NDJSON.
	TraceOut io.Writer
	// SpanLimit caps per-trace span lists (0 = DefaultSpanLimit; negative
	// disables span capture, keeping only aggregate fields and attribution).
	SpanLimit int
	// SampleEvery checkpoints every gauge into its time series after this
	// many queries (0 = 1000).
	SampleEvery int
}

// Observer is the per-run observability hub: it owns the Tracer and the
// Registry, consumes the cache manager's event stream and the devices' op
// hooks, and maintains per-situation latency histograms.
type Observer struct {
	Tracer   *Tracer
	Registry *Registry

	latAll  *metrics.Histogram
	latSit  [core.NumSituations + 1]*metrics.Histogram
	profile *Profile

	mu          sync.Mutex
	queries     int64
	sampleEvery int64
	curSit      core.Situation
	curSitSeen  bool
	intQueries  int64
	intTime     time.Duration
}

// New builds an Observer with a fresh Tracer and Registry.
func New(opts Options) *Observer {
	o := &Observer{
		Tracer:      NewTracer(opts.TraceRing),
		Registry:    NewRegistry(),
		profile:     NewProfile(),
		sampleEvery: int64(opts.SampleEvery),
	}
	if o.sampleEvery <= 0 {
		o.sampleEvery = 1000
	}
	if opts.SpanLimit != 0 {
		o.Tracer.SetSpanLimit(opts.SpanLimit)
	}
	if opts.TraceOut != nil {
		o.Tracer.StreamTo(opts.TraceOut)
	}
	o.initHistograms()
	return o
}

// Fork returns an Observer that shares o's Tracer — and therefore its
// ring buffer, NDJSON stream and completed-trace count — but owns a fresh
// Registry. Drivers that measure a sequence of systems need this: each
// system's virtual clock restarts at zero, so gauges and time series must
// be private per system (a shared Registry would interleave samples from
// unrelated clocks, which TimeSeries.Record rejects), while all traces
// still land in one stream.
func (o *Observer) Fork() *Observer {
	f := &Observer{
		Tracer:      o.Tracer,
		Registry:    NewRegistry(),
		profile:     NewProfile(),
		sampleEvery: o.sampleEvery,
	}
	f.initHistograms()
	return f
}

// initHistograms registers the query-latency histograms on o.Registry.
func (o *Observer) initHistograms() {
	bounds := LatencyBounds()
	o.latAll = o.Registry.Histogram("query_latency_us", bounds)
	for i := core.Situation(0); i < core.NumSituations; i++ {
		o.latSit[i] = o.Registry.Histogram(fmt.Sprintf("query_latency_s%d_us", int(i)+1), bounds)
	}
	// The slot past the last situation holds uncached executions (no
	// manager, hence no classification).
	o.latSit[core.NumSituations] = o.Registry.Histogram("query_latency_uncached_us", bounds)
}

// BeginQuery opens tracing for one query at simulated time now.
func (o *Observer) BeginQuery(qid uint64, now time.Duration) {
	o.mu.Lock()
	o.curSitSeen = false
	o.mu.Unlock()
	o.Tracer.Begin(qid, now)
}

// HandleEvent consumes one cache-manager event (wired to
// core.Manager.SetEventSink).
func (o *Observer) HandleEvent(e core.Event) {
	switch e.Kind {
	case core.EvListRead:
		level := e.Level.String()
		o.Tracer.ListRead(int64(e.Term), level, e.Bytes)
		o.Registry.Counter("list_bytes_" + level + "_total").Add(e.Bytes)
	case core.EvResultHit:
		level := e.Level.String()
		o.Tracer.ResultProbe(level, e.Bytes)
		o.Registry.Counter("result_hits_" + level + "_total").Inc()
	case core.EvResultMiss:
		o.Tracer.ResultProbe("miss", 0)
		o.Registry.Counter("result_misses_total").Inc()
	case core.EvListFlush:
		o.Tracer.Flush("flush_list", int64(e.Term), e.Bytes)
		o.Registry.Counter("ssd_list_flushes_total").Inc()
		o.Registry.Counter("ssd_flush_bytes_total").Add(e.Bytes)
	case core.EvResultFlush:
		o.Tracer.Flush("flush_result", 0, e.Bytes)
		o.Registry.Counter("ssd_result_flushes_total").Inc()
		o.Registry.Counter("ssd_flush_bytes_total").Add(e.Bytes)
	case core.EvListEvict:
		level := e.Level.String()
		o.Tracer.Evict("evict_list", int64(e.Term), level)
		o.Registry.Counter("list_evictions_" + level + "_total").Inc()
	case core.EvResultEvict:
		level := e.Level.String()
		o.Tracer.Evict("evict_result", 0, level)
		o.Registry.Counter("result_evictions_" + level + "_total").Inc()
	case core.EvQueryEnd:
		o.mu.Lock()
		o.curSit = e.Sit
		o.curSitSeen = true
		o.mu.Unlock()
		o.Tracer.SetSituation(e.Sit.String())
	case core.EvIOError:
		o.Registry.Counter("ssd_io_errors_total").Inc()
		o.Registry.Counter("ssd_io_error_bytes_total").Add(e.Bytes)
	case core.EvDegraded:
		o.Registry.Counter("degraded_serves_total").Inc()
	}
}

// HandleClockAdvance consumes one labeled clock advance (wired to
// simclock.Clock.OnAdvance), attributing the time to the in-flight query.
// Seeing every advance at the clock itself is what makes per-query
// attribution sum exactly to elapsed time.
func (o *Observer) HandleClockAdvance(c simclock.Component, d time.Duration) {
	o.Tracer.AddTime(c, d)
}

// Profile returns the cumulative per-situation latency-attribution profile
// folded from completed traces.
func (o *Observer) Profile() *Profile { return o.profile }

// HandleBackingOp consumes one backing-store (index device) operation,
// attributing seeks to the in-flight query.
func (o *Observer) HandleBackingOp(op storage.Op) {
	if op.Kind == storage.OpRead {
		o.Tracer.HDDOp(op.Seek)
	}
	o.Registry.Counter("backing_ops_total").Inc()
	if op.Seek {
		o.Registry.Counter("backing_seeks_total").Inc()
	}
}

// HandleCacheOp consumes one cache-SSD operation.
func (o *Observer) HandleCacheOp(op storage.Op) {
	switch op.Kind {
	case storage.OpRead:
		o.Registry.Counter("cache_ssd_reads_total").Inc()
	case storage.OpWrite:
		o.Registry.Counter("cache_ssd_writes_total").Inc()
	case storage.OpTrim:
		o.Registry.Counter("cache_ssd_trims_total").Inc()
	}
}

// EndQuery finalizes the in-flight query: the trace is completed, the
// latency lands in the overall and per-situation histograms, and every
// SampleEvery queries the gauges are checkpointed at simulated time now.
func (o *Observer) EndQuery(now, elapsed time.Duration) QueryTrace {
	tr := o.Tracer.End(elapsed)
	if tr.Attrib != nil {
		sit := tr.Situation
		if sit == "" {
			sit = "uncached"
		}
		o.profile.Add(sit, tr.ElapsedNS, *tr.Attrib)
	}

	o.mu.Lock()
	slot := core.NumSituations
	if o.curSitSeen && o.curSit < core.NumSituations {
		slot = o.curSit
	}
	o.queries++
	o.intQueries++
	o.intTime += elapsed
	checkpoint := o.queries%o.sampleEvery == 0
	o.mu.Unlock()

	us := elapsed.Microseconds()
	o.latAll.Observe(us)
	o.latSit[slot].Observe(us)
	o.Registry.Counter("queries_total").Inc()

	if checkpoint {
		o.Registry.Checkpoint(now)
	}
	return tr
}

// CoalescedQuery synthesizes the complete trace of a singleflight
// follower: a query that arrived while an identical query was in flight
// and was served by the leader's result without executing. Its entire
// latency (leader completion minus follower arrival) is queue_wait, so the
// attribution contract Attrib.Sum() == ElapsedNS holds by construction.
// The trace opens and closes in one synchronous step because the Tracer
// holds at most one open trace and the shard's real queries own it between
// their own Begin/End. now is the checkpoint timestamp and must be
// monotone per Observer — serving callers pass the shard clock's Now, not
// the arrival-timeline completion instant.
func (o *Observer) CoalescedQuery(qid uint64, start, wait, now time.Duration) QueryTrace {
	o.BeginQuery(qid, start)
	o.Tracer.AddTime(simclock.CompQueueWait, wait)
	o.Tracer.QueueWait()
	o.Tracer.SetSituation("coalesced")
	return o.EndQuery(now, wait)
}

// Queries returns the number of completed queries observed.
func (o *Observer) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// OverallLatency summarizes the all-queries latency histogram (µs).
func (o *Observer) OverallLatency() HistogramSnapshot {
	return histSnapshot(o.latAll)
}

// SituationLatency summarizes the latency histogram of one Table I
// situation (µs).
func (o *Observer) SituationLatency(sit core.Situation) HistogramSnapshot {
	if sit < 0 || sit >= core.NumSituations {
		return histSnapshot(o.latSit[core.NumSituations])
	}
	return histSnapshot(o.latSit[sit])
}

func histSnapshot(h *metrics.Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Total(),
		Mean:  h.Mean(),
		P50:   h.Quantile(50),
		P95:   h.Quantile(95),
		P99:   h.Quantile(99),
		P999:  h.Quantile(99.9),
	}
}

// Progress is a live snapshot for periodic reporting. Interval fields
// cover the span since the previous Progress call; ratios and quantiles
// are cumulative.
type Progress struct {
	Queries          int64
	IntervalQueries  int64
	IntervalMeanTime time.Duration
	P50, P95, P99    time.Duration
	RC, IC, RIC      float64
	SSDErases        float64
	SSDWriteAmp      float64
}

// Progress samples the registry and drains the interval accumulators.
func (o *Observer) Progress() Progress {
	o.mu.Lock()
	p := Progress{Queries: o.queries, IntervalQueries: o.intQueries}
	if o.intQueries > 0 {
		p.IntervalMeanTime = o.intTime / time.Duration(o.intQueries)
	}
	o.intQueries, o.intTime = 0, 0
	o.mu.Unlock()

	p.P50 = time.Duration(o.latAll.Quantile(50)) * time.Microsecond
	p.P95 = time.Duration(o.latAll.Quantile(95)) * time.Microsecond
	p.P99 = time.Duration(o.latAll.Quantile(99)) * time.Microsecond
	p.RC, _ = o.Registry.GaugeValue(GaugeRCHitRatio)
	p.IC, _ = o.Registry.GaugeValue(GaugeICHitRatio)
	p.RIC, _ = o.Registry.GaugeValue(GaugeRICHitRatio)
	p.SSDErases, _ = o.Registry.GaugeValue(GaugeSSDErases)
	p.SSDWriteAmp, _ = o.Registry.GaugeValue(GaugeSSDWriteAmp)
	return p
}

// String renders a compact single progress line.
func (p Progress) String() string {
	return fmt.Sprintf(
		"q=%d mean=%v p50=%v p95=%v p99=%v RC=%.3f IC=%.3f RIC=%.3f erases=%.0f WA=%.3f",
		p.Queries, p.IntervalMeanTime.Round(time.Microsecond),
		p.P50, p.P95, p.P99, p.RC, p.IC, p.RIC, p.SSDErases, p.SSDWriteAmp)
}
