package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// view is what the closed-loop code needs of an assembled system. It is
// built from a hybrid.System or from the traced wiring, so both run the
// same warm-up, guard and measurement code.
type view struct {
	search func(workload.Query) (*engine.Result, hybrid.SearchInfo, error)
	log    *workload.QueryLog
	clock  *simclock.Clock
	m      *core.Manager
	ssd    hybrid.CacheDevice
	hdd    *disksim.HDD
}

func systemView(s *hybrid.System) *view {
	return &view{search: s.Search, log: s.Log, clock: s.Clock, m: s.Manager, ssd: s.CacheSSD, hdd: s.HDD}
}

// counters is a snapshot of every simulated counter the benchmark reads.
type counters struct {
	now    time.Duration
	stats  core.Stats
	ssd    storage.DeviceStats
	wear   flashsim.WearStats
	hdd    storage.DeviceStats
	hddSeq int64
}

func (v *view) snapshot() counters {
	return counters{
		now:    v.clock.Now(),
		stats:  v.m.Stats(),
		ssd:    v.ssd.Stats(),
		wear:   v.ssd.Wear(),
		hdd:    v.hdd.Stats(),
		hddSeq: v.hdd.SequentialHits(),
	}
}

func resultHitRatio(a, b core.Stats) float64 {
	hits := (b.ResultHitsMem + b.ResultHitsSSD) - (a.ResultHitsMem + a.ResultHitsSSD)
	return ratio(float64(hits), float64(b.ResultLookups()-a.ResultLookups()))
}

func pagesProgrammed(w flashsim.WearStats) int64 { return w.HostPagesWritten + w.GCPageCopies }

// check fails when the interval a→b left the workload's regime.
func (g guard) check(workloadName, phase string, a, b counters) error {
	if hit := resultHitRatio(a.stats, b.stats); hit < g.minResultHit || hit > g.maxResultHit {
		return fmt.Errorf("regime guard: %s result hit ratio %.4f during %s, want [%g, %g]",
			workloadName, hit, phase, g.minResultHit, g.maxResultHit)
	}
	if n := pagesProgrammed(b.wear) - pagesProgrammed(a.wear); g.noPrograms && n != 0 {
		return fmt.Errorf("regime guard: %s programmed %d cache-SSD pages during %s, want 0", workloadName, n, phase)
	}
	if g.needErases && b.wear.TotalErases == a.wear.TotalErases {
		return fmt.Errorf("regime guard: %s erased no cache-SSD block during %s", workloadName, phase)
	}
	return nil
}

// warm brings the caches to steady state and then checks the regime guard
// over guardQueries more queries, all before anything is timed.
func warm(v *view, cs closedSpec) error {
	for p := 0; p < cs.warmPasses; p++ {
		for id := 0; id < cs.log.DistinctQueries; id++ {
			if _, _, err := v.search(v.log.QueryByID(uint64(id))); err != nil {
				return fmt.Errorf("warm-up query %d: %w", id, err)
			}
		}
	}
	for i := 0; i < cs.warmQueries; i++ {
		if _, _, err := v.search(v.log.Next()); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	before := v.snapshot()
	for i := 0; i < cs.guardQueries; i++ {
		if _, _, err := v.search(v.log.Next()); err != nil {
			return fmt.Errorf("guard query %d: %w", i, err)
		}
	}
	return cs.guard.check(cs.name, "warm-up", before, v.snapshot())
}

// loopResult is one closed-loop window.
type loopResult struct {
	queries int64
	errors  int64
	// mismatches counts queries whose ranked docs differed from the docs
	// an earlier query with the same ID returned in this window.
	mismatches int64
	wall       time.Duration
	// hostNS holds per-query host ns: of the current segment when the
	// window is segmented, else of every query.
	hostNS []int64
	// Per segment: queries per host second and median host µs per query.
	segQPS   []float64
	segP50US []float64

	// The first simQueries queries: their IDs and simulated latencies,
	// and the counters when the prefix started and ended.
	prefixIDs []uint64
	simLat    []int64
	start     counters
	atPrefix  counters
	end       counters

	seen       map[uint64]*engine.Result
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	rssMB      float64
}

// closedLoop issues queries from v's log back to back until at least
// prefix queries have run and, when deadline is set, the deadline passed.
// Every query's host time is taken around the search call alone.
func closedLoop(v *view, prefix int, deadline time.Time, segment int) *loopResult {
	samples := prefix
	if segment > 0 {
		samples = segment
	}
	r := &loopResult{
		hostNS:    make([]int64, 0, samples),
		prefixIDs: make([]uint64, 0, prefix),
		simLat:    make([]int64, 0, prefix),
		seen:      make(map[uint64]*engine.Result, 1<<14),
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.start = v.snapshot()
	begin := time.Now()
	segStart := begin
	for n := 0; ; n++ {
		q := v.log.Next()
		t0 := time.Now()
		res, info, err := v.search(q)
		t1 := time.Now()
		if len(r.hostNS) < cap(r.hostNS) {
			r.hostNS = append(r.hostNS, int64(t1.Sub(t0)))
		}
		r.queries++
		if n < prefix {
			r.prefixIDs = append(r.prefixIDs, q.ID)
			r.simLat = append(r.simLat, int64(info.Elapsed))
			if n+1 == prefix {
				r.atPrefix = v.snapshot()
			}
		}
		switch prev, ok := r.seen[q.ID]; {
		case err != nil:
			r.errors++
		case !ok:
			r.seen[q.ID] = res
		case !sameDocs(prev, res):
			r.mismatches++
		}
		if segment > 0 && len(r.hostNS) == segment {
			r.segQPS = append(r.segQPS, float64(segment)/t1.Sub(segStart).Seconds())
			r.segP50US = append(r.segP50US, sortedQuantile(r.hostNS, 0.5)/1e3)
			r.hostNS = r.hostNS[:0]
			// The bookkeeping above is not part of the next segment.
			segStart = time.Now()
		}
		if n+1 >= prefix && (deadline.IsZero() || !t1.Before(deadline)) {
			r.wall = t1.Sub(begin)
			break
		}
	}
	r.end = v.snapshot()
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	r.rssMB = maxRSSMB()
	return r
}

// digest fingerprints the simulated side of the prefix: every query's ID,
// simulated latency and ranked docs, and all counters at its end.
func (r *loopResult) digest() uint64 {
	d := newDigester()
	var buf [16]byte
	for i, id := range r.prefixIDs {
		binary.LittleEndian.PutUint64(buf[:8], id)
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.simLat[i]))
		d.h.Write(buf[:])
	}
	ids := slices.Clone(r.prefixIDs)
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if res := r.seen[id]; res != nil {
			d.add(id, res.Docs)
		}
	}
	d.add(r.start, r.atPrefix)
	return d.sum()
}

func sameDocs(a, b *engine.Result) bool {
	if a == nil || b == nil || a.QueryID != b.QueryID || len(a.Docs) != len(b.Docs) {
		return false
	}
	for i := range a.Docs {
		if a.Docs[i] != b.Docs[i] {
			return false
		}
	}
	return true
}

// checkResults reruns every distinct query of seen on an uncached
// reference engine over a private in-memory stamp of img, with its own
// clock, and returns how many ranked lists differ from what the system
// returned.
func checkResults(img *index.Image, cfg hybrid.Config, seen map[uint64]*engine.Result) (int64, error) {
	clock := simclock.New()
	dev := storage.NewMemDevice("reference", img.Bytes()+(1<<20), clock, storage.DefaultMemParams())
	ix, err := img.Stamp(dev)
	if err != nil {
		return 0, fmt.Errorf("reference index: %w", err)
	}
	engCfg := cfg.Engine
	engCfg.Clock = clock
	ref := engine.New(ix, engCfg)
	log := workload.NewQueryLog(cfg.QueryLog)
	var bad int64
	for id, got := range seen {
		want, _, err := ref.Execute(log.QueryByID(id))
		if err != nil {
			return bad, fmt.Errorf("reference query %d: %w", id, err)
		}
		if !sameDocs(got, want) {
			bad++
		}
	}
	return bad, nil
}

// setUp builds a fresh system for cs, from synthesizing the collection to
// the end of warm-up.
func setUp(cs closedSpec, seed uint64) (*hybrid.System, *index.Image, error) {
	cfg := cs.systemConfig(seed, nil)
	img, err := index.BuildImage(cfg.Collection, cs.codec)
	if err != nil {
		return nil, nil, err
	}
	cfg.IndexImage = img
	sys, err := hybrid.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := warm(systemView(sys), cs); err != nil {
		return nil, nil, err
	}
	return sys, img, nil
}

// runClosed is the untraced run: set-up repeated reps times (each must
// reach the same simulated state), then a window of seconds.
func runClosed(cs closedSpec, seed uint64, seconds float64, reps int) (*report, error) {
	var (
		sys        *hybrid.System
		img        *index.Image
		setup      []float64
		firstState uint64
	)
	for r := 0; r < reps; r++ {
		sys, img = nil, nil
		runtime.GC()
		t0 := time.Now()
		s, im, err := setUp(cs, seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		state := newDigester()
		state.add(systemView(s).snapshot())
		if r == 0 {
			firstState = state.sum()
		} else if state.sum() != firstState {
			return nil, fmt.Errorf("determinism: set-up %d reached simulated state %016x, set-up 0 reached %016x",
				r, state.sum(), firstState)
		}
		sys, img = s, im
	}

	v := systemView(sys)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	lr := closedLoop(v, cs.simQueries, deadline, cs.segment)
	if err := cs.guard.check(cs.name, "the measured window", lr.start, lr.end); err != nil {
		return nil, err
	}
	bad, err := checkResults(img, cs.systemConfig(seed, img), lr.seen)
	if err != nil {
		return nil, err
	}

	rep := &report{attempted: lr.queries, failed: lr.errors + lr.mismatches + bad, digest: lr.digest()}
	simMean := float64(lr.atPrefix.now-lr.start.now) / float64(len(lr.simLat))
	rep.add("setup_s", "s", median(setup))
	rep.add("host_qps", "1/s", median(lr.segQPS))
	rep.add("host_query_us_p50", "us", median(lr.segP50US))
	rep.add("alloc_bytes_per_query", "bytes", float64(lr.allocBytes)/float64(lr.queries))
	rep.add("max_rss_mb", "MB", lr.rssMB)
	rep.add("sim_latency_ms_mean", "ms", simMean/1e6)
	rep.add("sim_tput_qps", "1/s", ratio(1e9, simMean))
	return rep, nil
}

// simQuantileMS is the q-quantile of simulated latencies in ms.
func simQuantileMS(lat []int64, q float64) float64 {
	return int64Quantile(lat, q) / 1e6
}

// traceClosed is the traced run. Three fresh systems reach the same warmed
// state and serve the same prefix of queries: untraced, with the program's
// own observer attached, and through the traced wiring. All three must
// agree exactly, which shows the decorators leave the simulation alone.
func traceClosed(cs closedSpec, seed uint64, spansPath string) (*report, error) {
	cfg := cs.systemConfig(seed, nil)
	t0 := time.Now()
	img, err := index.BuildImage(cfg.Collection, cs.codec)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	cfg.IndexImage = img
	newWarm := func() (*hybrid.System, error) {
		sys, err := hybrid.New(cfg)
		if err != nil {
			return nil, err
		}
		return sys, warm(systemView(sys), cs)
	}

	sys, err := newWarm()
	if err != nil {
		return nil, err
	}
	a := closedLoop(systemView(sys), cs.simQueries, time.Time{}, 0)

	if sys, err = newWarm(); err != nil {
		return nil, err
	}
	o := obs.New(obs.Options{TraceRing: 1, SpanLimit: -1})
	sys.EnableObservability(o)
	b := closedLoop(systemView(sys), cs.simQueries, time.Time{}, 0)

	ts, err := newTracedSystem(cfg, img)
	if err != nil {
		return nil, err
	}
	if err := warm(ts.view(), cs); err != nil {
		return nil, err
	}
	var advances int64
	ts.clock.OnAdvance(func(simclock.Component, time.Duration) { advances++ })
	ts.rec.start(1 << 19)
	c := closedLoop(ts.view(), cs.simQueries, time.Time{}, 0)
	ts.rec.on = false
	ts.clock.OnAdvance(nil)

	da, db, dc := a.digest(), b.digest(), c.digest()
	if da != db || da != dc {
		return nil, fmt.Errorf("determinism: simulated digests differ: untraced %016x, observed %016x, traced %016x", da, db, dc)
	}
	profQueries, profElapsed, attrib := o.Profile().Totals()
	if simNS := int64(a.atPrefix.now - a.start.now); profQueries != int64(cs.simQueries) || attrib.Sum() != profElapsed || profElapsed != simNS {
		return nil, fmt.Errorf("attribution: profile has %d queries, %d ns attributed of %d ns elapsed; the window ran %d queries for %d ns",
			profQueries, attrib.Sum(), profElapsed, cs.simQueries, simNS)
	}
	bad, err := checkResults(img, cfg, c.seen)
	if err != nil {
		return nil, err
	}

	rep := &report{
		attempted: a.queries + b.queries + c.queries,
		failed:    a.errors + b.errors + c.errors + a.mismatches + b.mismatches + c.mismatches + bad,
		digest:    da,
	}
	var sim simDelta
	sim.add(a.start, a.atPrefix)
	qps := func(r *loopResult) float64 { return float64(r.queries) / r.wall.Seconds() }
	rep.addPerLayer(layerInputs{
		queries:        int64(cs.simQueries),
		sim:            sim,
		spans:          analyzeSpans(ts.rec.spans),
		postings:       ts.postings,
		buildS:         buildS,
		stampS:         ts.stampS,
		imageBytes:     img.Bytes(),
		nextNS:         nextNS(cfg.QueryLog, 100_000),
		profile:        attrib,
		eventsPerQuery: float64(advances) / float64(cs.simQueries),
		simP50MS:       simQuantileMS(a.simLat, 0.5),
		simP99MS:       simQuantileMS(a.simLat, 0.99),
		searchUSP99:    sortedQuantile(a.hostNS, 0.99) / 1e3,
		gcCycles:       a.gcCycles,
		gcPauseNS:      a.gcPauseNS,
		traceOverhead:  1 - qps(c)/qps(a),
		obsOverhead:    1 - qps(b)/qps(a),
	})
	if spansPath != "" {
		if err := writeSpans(spansPath, ts.rec.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}
