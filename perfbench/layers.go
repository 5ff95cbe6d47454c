package main

import (
	"time"

	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// simDelta is the simulated work of a measured interval, summed over the
// systems that did it (one closed-loop system, or every serving shard).
type simDelta struct {
	resultLookups, resultHits     int64
	listBytesReq, listBytesHDD    int64
	resultMisses                  int64
	listsFlushed, listsDiscarded  int64
	rbFlushes                     int64
	ssdReads, ssdWrites, ssdTrims int64
	ssdBusy                       time.Duration
	pages, erases, gcCopies       int64
	hddReads, hddBytes, hddOps    int64
	hddSeqHits                    int64
	hddBusy                       time.Duration

	// Lifetime totals at the end of the interval: they stay defined when
	// the interval itself wrote nothing.
	ssdBytesRead, ssdBytesWritten int64
	hostPages, lifetimePages      int64
}

func (d *simDelta) add(a, b counters) {
	d.resultLookups += b.stats.ResultLookups() - a.stats.ResultLookups()
	d.resultHits += (b.stats.ResultHitsMem + b.stats.ResultHitsSSD) - (a.stats.ResultHitsMem + a.stats.ResultHitsSSD)
	d.resultMisses += b.stats.ResultMisses - a.stats.ResultMisses
	d.listBytesReq += b.stats.ListBytesRequested - a.stats.ListBytesRequested
	d.listBytesHDD += b.stats.ListReqBytesFromHDD - a.stats.ListReqBytesFromHDD
	d.listsFlushed += b.stats.ListWritesToSSD - a.stats.ListWritesToSSD
	d.listsDiscarded += b.stats.ListsDiscarded - a.stats.ListsDiscarded
	d.rbFlushes += b.stats.RBFlushes - a.stats.RBFlushes
	d.ssdReads += b.ssd.Reads - a.ssd.Reads
	d.ssdWrites += b.ssd.Writes - a.ssd.Writes
	d.ssdTrims += b.ssd.Trims - a.ssd.Trims
	d.ssdBusy += b.ssd.TotalTime - a.ssd.TotalTime
	d.pages += pagesProgrammed(b.wear) - pagesProgrammed(a.wear)
	d.erases += b.wear.TotalErases - a.wear.TotalErases
	d.gcCopies += b.wear.GCPageCopies - a.wear.GCPageCopies
	d.hddReads += b.hdd.Reads - a.hdd.Reads
	d.hddBytes += b.hdd.BytesRead - a.hdd.BytesRead
	d.hddOps += b.hdd.Operations - a.hdd.Operations
	d.hddSeqHits += b.hddSeq - a.hddSeq
	d.hddBusy += b.hdd.TotalTime - a.hdd.TotalTime
	d.ssdBytesRead += b.ssd.BytesRead
	d.ssdBytesWritten += b.ssd.BytesWrit
	d.hostPages += b.wear.HostPagesWritten
	d.lifetimePages += pagesProgrammed(b.wear)
}

// layerInputs gathers everything the per-layer metrics are computed from.
// Fields a workload cannot measure stay zero and are reported as 0: the
// serving pool builds its systems internally, so it has no spans, and the
// closed-loop workloads run no serve layer.
type layerInputs struct {
	queries int64
	sim     simDelta
	spans   *spanStats

	postings int64 // engine postings scored (closed loop, from the traced pass)

	buildS, stampS float64
	imageBytes     int64
	nextNS         float64

	profile        obs.Attrib // summed simulated attribution of the interval
	eventsPerQuery float64

	simP50MS, simP99MS float64
	searchUSP99        float64 // untraced host time per Search

	gcCycles  uint32
	gcPauseNS uint64

	traceOverhead, obsOverhead float64

	serve servingLayer
}

// servingLayer holds the serve module's figures at the nominal rate.
type servingLayer struct {
	warmS, runS    float64
	nsPerEvent     float64
	coalescedFrac  float64
	utilization    float64
	maxQueue       int
	backlogDrainMS float64
	maxQPSUnderSLO float64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// addPerLayer appends every per-layer metric, in BENCHMARK.json order.
func (r *report) addPerLayer(in layerInputs) {
	q := float64(in.queries)
	sim := in.sim
	st := in.spans
	if st == nil {
		st = &spanStats{}
	}
	share := func(layer string) float64 { return ratio(float64(st.layerSelf(layer)), float64(st.total)) }
	p50us := func(k spanKind) float64 { return int64Quantile(st.selfs[k], 0.5) / 1e3 }

	r.add("engine.calls", "count", float64(sim.resultMisses))
	r.add("engine.self_us_p50", "us", p50us(spanExecute))
	r.add("engine.self_ms_total", "ms", ms(st.self[spanExecute]))
	r.add("engine.self_share", "ratio", share("engine"))
	r.add("engine.postings_per_query", "count", ratio(float64(in.postings), q))
	r.add("engine.list_bytes_per_query", "bytes", ratio(float64(sim.listBytesReq), q))

	r.add("core.get_result_us_p50", "us", p50us(spanGetResult))
	r.add("core.put_result_us_p50", "us", p50us(spanPutResult))
	r.add("core.read_list_self_ms_total", "ms", ms(st.self[spanReadList]))
	r.add("core.self_share", "ratio", share("core"))
	r.add("core.result_hit_ratio", "ratio", ratio(float64(sim.resultHits), float64(sim.resultLookups)))
	r.add("core.list_hit_ratio", "ratio", 1-ratio(float64(sim.listBytesHDD), float64(sim.listBytesReq)))
	r.add("core.lists_flushed", "count", float64(sim.listsFlushed))
	r.add("core.lists_discarded", "count", float64(sim.listsDiscarded))
	r.add("core.rb_flushes", "count", float64(sim.rbFlushes))
	r.add("core.ssd_read_bytes_per_written_byte", "ratio", ratio(float64(sim.ssdBytesRead), float64(sim.ssdBytesWritten)))

	r.add("flashsim.read_calls", "count", float64(sim.ssdReads))
	r.add("flashsim.read_ms_total", "ms", ms(st.self[spanSSDRead]))
	r.add("flashsim.write_calls", "count", float64(sim.ssdWrites))
	r.add("flashsim.write_ms_total", "ms", ms(st.self[spanSSDWrite]))
	r.add("flashsim.trim_calls", "count", float64(sim.ssdTrims))
	r.add("flashsim.self_share", "ratio", share("flashsim"))
	r.add("flashsim.pages_programmed", "count", float64(sim.pages))
	r.add("flashsim.erases", "count", float64(sim.erases))
	r.add("flashsim.erases_per_kquery", "1/kquery", ratio(1000*float64(sim.erases), q))
	r.add("flashsim.gc_page_copies", "count", float64(sim.gcCopies))
	r.add("flashsim.write_amp", "ratio", ratio(float64(sim.lifetimePages), float64(sim.hostPages)))
	r.add("flashsim.sim_busy_ms", "ms", ms(int64(sim.ssdBusy)))

	r.add("disksim.read_calls", "count", float64(sim.hddReads))
	r.add("disksim.read_ms_total", "ms", ms(st.self[spanHDDRead]))
	r.add("disksim.self_share", "ratio", share("disksim"))
	r.add("disksim.bytes_read", "bytes", float64(sim.hddBytes))
	r.add("disksim.seek_frac", "ratio", ratio(float64(sim.hddOps-sim.hddSeqHits), float64(sim.hddOps)))
	r.add("disksim.sim_busy_ms", "ms", ms(int64(sim.hddBusy)))

	r.add("index.build_s", "s", in.buildS)
	r.add("index.stamp_s", "s", in.stampS)
	r.add("index.image_bytes", "bytes", float64(in.imageBytes))

	r.add("workload.next_ns", "ns", in.nextNS)

	for c := simclock.Component(0); c < simclock.NumComponents; c++ {
		r.add("simclock."+c.String()+"_ms", "ms", ratio(ms(in.profile[c]), q))
	}
	r.add("simclock.events_per_query", "count", in.eventsPerQuery)

	sv := in.serve
	r.add("serve.warm_s", "s", sv.warmS)
	r.add("serve.run_s", "s", sv.runS)
	r.add("serve.host_ns_per_event", "ns", sv.nsPerEvent)
	r.add("serve.coalesced_frac", "ratio", sv.coalescedFrac)
	r.add("serve.utilization", "ratio", sv.utilization)
	r.add("serve.max_queue", "count", float64(sv.maxQueue))
	r.add("serve.backlog_drain_ms", "ms", sv.backlogDrainMS)
	r.add("serve.max_qps_slo", "1/s", sv.maxQPSUnderSLO)

	r.add("obs.overhead_frac", "ratio", in.obsOverhead)

	r.add("hybrid.self_share", "ratio", share("hybrid"))
	r.add("hybrid.search_us_p99", "us", in.searchUSP99)
	r.add("hybrid.sim_latency_ms_p50", "ms", in.simP50MS)
	r.add("hybrid.sim_latency_ms_p99", "ms", in.simP99MS)

	r.add("runtime.gc_cycles", "count", float64(in.gcCycles))
	r.add("runtime.gc_pause_ms", "ms", float64(in.gcPauseNS)/1e6)

	r.add("trace.overhead_frac", "ratio", in.traceOverhead)
}

// nextNS times the query generator alone: host ns per QueryLog.Next on a
// fresh log with the workload's spec, after n untimed draws that
// materialize the most popular queries.
func nextNS(spec workload.QueryLogSpec, n int) float64 {
	log := workload.NewQueryLog(spec)
	for i := 0; i < n; i++ {
		log.Next()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		log.Next()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
