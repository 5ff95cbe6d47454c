package main

import (
	"fmt"
	"runtime"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/disksim"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/serve"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

func (ss servingSpec) poolConfig(seed uint64, img *index.Image, rate float64, o *obs.Observer) serve.Config {
	coll, log := seeded(ss.collection, ss.log, seed)
	arr := workload.DefaultArrivals(rate)
	arr.Seed = mix(seed, streamArrivals)
	return serve.Config{
		Base: hybrid.Config{
			Collection: coll,
			QueryLog:   log,
			Cache:      ss.cache,
			Mode:       hybrid.CacheTwoLevel,
			IndexOn:    hybrid.IndexOnHDD,
			Engine:     engineConfig(),
			UseModelPU: true,
			IndexImage: img,
		},
		Shards:      ss.shards,
		Arrivals:    arr,
		WarmQueries: ss.warm,
		HotWarm:     ss.hotWarm,
		Observer:    o,
	}
}

// warmPool builds a pool for one offered rate and warms its caches. With
// withObs an obs.Observer is attached as hybridbench -exp serving does
// when profiling: attribution on, span capture off.
func (ss servingSpec) warmPool(seed uint64, img *index.Image, rate float64, withObs bool) (pool *serve.Pool, warmS float64, err error) {
	var o *obs.Observer
	if withObs {
		o = obs.New(obs.Options{TraceRing: 1, SpanLimit: -1})
	}
	if pool, err = serve.New(ss.poolConfig(seed, img, rate, o)); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = pool.Warm()
	return pool, time.Since(t0).Seconds(), err
}

// poolRun is one open-loop replay through a warmed pool.
type poolRun struct {
	rate      float64
	res       serve.Result
	runS      float64
	alloc     uint64
	gcCycles  uint32
	gcPauseNS uint64
	sim       simDelta
	attrib    obs.Attrib
	digest    uint64
	// failed is set when the run's accounting or attribution check fails.
	failed bool
}

func shardSnapshots(pool *serve.Pool) []counters {
	out := make([]counters, pool.Shards())
	for i := range out {
		out[i] = systemView(pool.System(i)).snapshot()
	}
	return out
}

// measurePool replays n arrivals, timing Pool.Run alone, and checks that
// every arrival was executed or coalesced and that the observer's
// attribution sums exactly to the latency it profiled.
func measurePool(pool *serve.Pool, rate float64, n int, withObs bool) (*poolRun, error) {
	before := shardSnapshots(pool)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := pool.Run(n)
	runS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	rp := &poolRun{
		rate:      rate,
		res:       res,
		runS:      runS,
		alloc:     ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:  ms1.NumGC - ms0.NumGC,
		gcPauseNS: ms1.PauseTotalNs - ms0.PauseTotalNs,
		failed:    res.Executed+res.Coalesced != res.Arrivals,
	}
	d := newDigester()
	d.add(res.Shards, res.Arrivals, res.Executed, res.Coalesced, res.Horizon, res.Makespan,
		res.QueueWait, res.BusyTime, res.MaxQueue, res.P50(), res.P99(), res.P999(), res.MeanLatency())
	for i, after := range shardSnapshots(pool) {
		rp.sim.add(before[i], after)
		d.add(after)
	}
	rp.digest = d.sum()
	if withObs {
		prof := obs.NewProfile()
		pool.MergeProfile(prof)
		queries, elapsed, attrib := prof.Totals()
		rp.attrib = attrib
		if queries != res.Arrivals || attrib.Sum() != elapsed {
			rp.failed = true
		}
	}
	return rp, nil
}

func (ss servingSpec) meetsSLO(r serve.Result) bool {
	return r.P99() <= ss.sloP99 && r.Makespan-r.Horizon <= ss.sloP99
}

// runLadder runs every offered rate, reusing the warmed nominal pool for the
// nominal rate, and checks the regime guard: at least one rate must meet
// the latency limit and one must miss it.
func (ss servingSpec) runLadder(seed uint64, img *index.Image, nominalPool *serve.Pool) (runs []*poolRun, nominal *poolRun, err error) {
	for _, rate := range ss.ladder {
		pool, n := nominalPool, ss.nominalArrivals
		if rate != ss.nominal {
			n = ss.arrivals
			if pool, _, err = ss.warmPool(seed, img, rate, true); err != nil {
				return nil, nil, err
			}
		}
		rp, err := measurePool(pool, rate, n, true)
		if err != nil {
			return nil, nil, fmt.Errorf("rate %g: %w", rate, err)
		}
		runs = append(runs, rp)
		if rate == ss.nominal {
			nominal = rp
		}
	}
	if nominal == nil {
		return nil, nil, fmt.Errorf("nominal rate %g is not on the ladder", ss.nominal)
	}
	met, missed := false, false
	for _, rp := range runs {
		if ss.meetsSLO(rp.res) {
			met = true
		} else {
			missed = true
		}
	}
	if !met || !missed {
		return nil, nil, fmt.Errorf("regime guard: serving ladder %v must have a rate meeting and a rate missing the %v p99 limit (met=%v missed=%v)",
			ss.ladder, ss.sloP99, met, missed)
	}
	return runs, nominal, nil
}

// ladderDigest fingerprints every replay of the ladder.
func ladderDigest(runs []*poolRun) uint64 {
	d := newDigester()
	for _, rp := range runs {
		d.add(rp.rate, rp.digest)
	}
	return d.sum()
}

// maxQPSUnderSLO is the highest ladder rate that met the latency limit.
func (ss servingSpec) maxQPSUnderSLO(runs []*poolRun) float64 {
	best := 0.0
	for _, rp := range runs {
		if ss.meetsSLO(rp.res) && rp.rate > best {
			best = rp.rate
		}
	}
	return best
}

func tally(rep *report, runs ...*poolRun) {
	for _, rp := range runs {
		rep.attempted += rp.res.Arrivals
		if rp.failed {
			rep.failed += rp.res.Arrivals
		}
	}
}

// runServing is the untraced run: set-up (index build, pool construction
// and warm-up at the nominal rate) repeated reps times, the ladder, then a
// window of seconds filled with nominal-rate replays, each through a
// freshly warmed pool and each required to repeat the ladder's nominal
// replay exactly.
func runServing(ss servingSpec, seed uint64, seconds float64, reps int) (*report, error) {
	coll, _ := seeded(ss.collection, ss.log, seed)
	var (
		setup      []float64
		pool       *serve.Pool
		img        *index.Image
		firstState uint64
	)
	for r := 0; r < reps; r++ {
		pool, img = nil, nil
		runtime.GC()
		t0 := time.Now()
		im, err := index.BuildImage(coll, index.CodecRaw)
		if err != nil {
			return nil, err
		}
		p, _, err := ss.warmPool(seed, im, ss.nominal, true)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		state := newDigester()
		state.add(shardSnapshots(p))
		if r == 0 {
			firstState = state.sum()
		} else if state.sum() != firstState {
			return nil, fmt.Errorf("determinism: set-up %d reached simulated state %016x, set-up 0 reached %016x",
				r, state.sum(), firstState)
		}
		pool, img = p, im
	}

	runs, nominal, err := ss.runLadder(seed, img, pool)
	if err != nil {
		return nil, err
	}
	rep := &report{digest: ladderDigest(runs)}
	tally(rep, runs...)

	var qps, usPerQuery []float64
	var alloc uint64
	var arrivals int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(qps) == 0 || time.Now().Before(deadline) {
		p, _, err := ss.warmPool(seed, img, ss.nominal, true)
		if err != nil {
			return nil, err
		}
		rp, err := measurePool(p, ss.nominal, ss.nominalArrivals, true)
		if err != nil {
			return nil, err
		}
		if rp.digest != nominal.digest {
			return nil, fmt.Errorf("determinism: nominal replay %d reached %016x, the ladder's reached %016x",
				len(qps), rp.digest, nominal.digest)
		}
		tally(rep, rp)
		qps = append(qps, float64(rp.res.Arrivals)/rp.runS)
		usPerQuery = append(usPerQuery, rp.runS*1e6/float64(rp.res.Arrivals))
		alloc += rp.alloc
		arrivals += rp.res.Arrivals
	}

	rep.add("setup_s", "s", median(setup))
	rep.add("host_qps", "1/s", median(qps))
	rep.add("host_query_us_p50", "us", median(usPerQuery))
	rep.add("alloc_bytes_per_query", "bytes", float64(alloc)/float64(arrivals))
	rep.add("max_rss_mb", "MB", maxRSSMB())
	rep.add("sim_latency_ms_mean", "ms", float64(nominal.res.MeanLatency())/1e6)
	rep.add("sim_tput_qps", "1/s", runs[len(runs)-1].res.ThroughputQPS())
	return rep, nil
}

// traceServing is the traced run. The pool assembles its systems inside
// serve.New, so no decorator can reach them: the serving layer is measured
// by timing Pool.Warm and Pool.Run, by the shards' counters, and by
// replaying the nominal rate with and without the observer.
func traceServing(ss servingSpec, seed uint64) (*report, error) {
	coll, log := seeded(ss.collection, ss.log, seed)
	t0 := time.Now()
	img, err := index.BuildImage(coll, index.CodecRaw)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	hdd := disksim.New("hdd", simclock.New(), disksim.DefaultParams(img.Bytes()+(1<<20)))
	t0 = time.Now()
	if _, err := img.Stamp(hdd); err != nil {
		return nil, err
	}
	stampS := time.Since(t0).Seconds()

	pool, warmS, err := ss.warmPool(seed, img, ss.nominal, true)
	if err != nil {
		return nil, err
	}
	runs, nominal, err := ss.runLadder(seed, img, pool)
	if err != nil {
		return nil, err
	}
	rep := &report{digest: ladderDigest(runs)}
	tally(rep, runs...)

	// Observer overhead: two pairs of nominal replays, alternating which
	// side goes first. Both sides must repeat the ladder's replay exactly.
	var plain, observed []float64
	for i := 0; i < 4; i++ {
		withObs := (i%2 == 0) == (i < 2)
		p, _, err := ss.warmPool(seed, img, ss.nominal, withObs)
		if err != nil {
			return nil, err
		}
		rp, err := measurePool(p, ss.nominal, ss.nominalArrivals, withObs)
		if err != nil {
			return nil, err
		}
		if rp.digest != nominal.digest {
			return nil, fmt.Errorf("determinism: nominal replay (observer=%v) reached %016x, the ladder's reached %016x",
				withObs, rp.digest, nominal.digest)
		}
		tally(rep, rp)
		if withObs {
			observed = append(observed, float64(rp.res.Arrivals)/rp.runS)
		} else {
			plain = append(plain, float64(rp.res.Arrivals)/rp.runS)
		}
	}

	res := nominal.res
	events := float64(res.Arrivals + res.Executed) // one arrival event each, one completion per execution
	rep.addPerLayer(layerInputs{
		queries:        res.Arrivals,
		sim:            nominal.sim,
		buildS:         buildS,
		stampS:         stampS,
		imageBytes:     img.Bytes(),
		nextNS:         nextNS(log, 100_000),
		profile:        nominal.attrib,
		eventsPerQuery: events / float64(res.Arrivals),
		simP50MS:       float64(res.P50()) / 1e6,
		simP99MS:       float64(res.P99()) / 1e6,
		gcCycles:       nominal.gcCycles,
		gcPauseNS:      nominal.gcPauseNS,
		obsOverhead:    1 - median(observed)/median(plain),
		serve: servingLayer{
			warmS:          warmS,
			runS:           nominal.runS,
			nsPerEvent:     nominal.runS * 1e9 / events,
			coalescedFrac:  float64(res.Coalesced) / float64(res.Arrivals),
			utilization:    res.Utilization(),
			maxQueue:       res.MaxQueue,
			backlogDrainMS: float64(res.Makespan-res.Horizon) / 1e6,
			maxQPSUnderSLO: ss.maxQPSUnderSLO(runs),
		},
	})
	return rep, nil
}
