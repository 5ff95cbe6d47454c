package main

import (
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

// Every workload runs SmallScale's collection (600k documents, vocabulary
// 2500, MaxDFShare 0.2) behind the CBLRU two-level cache, with the
// evaluation's engine tuning (TerminationFrac 0.35) and the index on HDD.

// closedSpec is a closed-loop workload: one client issues the next query
// as soon as the previous one returns.
type closedSpec struct {
	name       string
	collection workload.CollectionSpec
	log        workload.QueryLogSpec
	cache      core.Config
	codec      index.CodecID

	// Warm-up: warmPasses passes over every distinct query, then
	// warmQueries queries from the log, then guardQueries more from the
	// log over which the regime guard is checked.
	warmPasses   int
	warmQueries  int
	guardQueries int

	// simQueries is the fixed prefix of the measured window whose
	// simulated statistics are reported (and must repeat exactly);
	// segment is the query count of one host-throughput segment.
	simQueries int
	segment    int

	guard guard
}

// guard is the property that defines a workload; a run whose warm-up or
// measured prefix leaves it fails instead of measuring another layer.
type guard struct {
	minResultHit float64 // result hit ratio at least this
	maxResultHit float64 // result hit ratio at most this
	noPrograms   bool    // no cache-SSD page programs
	needErases   bool    // at least one cache-SSD erase
}

// servingSpec is the open-loop workload: Poisson arrivals into a sharded
// serve.Pool at each rate of a fixed ladder.
type servingSpec struct {
	name       string
	collection workload.CollectionSpec
	log        workload.QueryLogSpec
	cache      core.Config
	shards     int
	warm       int
	hotWarm    int
	// arrivals is the number of arrivals replayed per pool run; the
	// nominal rate replays nominalArrivals, since its latency is reported.
	arrivals        int
	nominalArrivals int

	// ladder holds absolute offered rates (queries per simulated second),
	// ascending. They are fixed numbers, not multiples of a calibrated
	// capacity, so a change to the program cannot move the load points.
	ladder []float64
	// nominal is the ladder rate whose latency and host cost are
	// reported; it lies below the knee.
	nominal float64
	// sloP99 is the latency limit of sim_max_qps_slo: a rate meets it
	// when its p99 and its backlog drain (last completion minus last
	// arrival) both stay within the limit.
	sloP99 time.Duration
}

// scale sizes every workload. benchScale is what the benchmark runs;
// the smoke test shrinks it.
type scale struct {
	docs  int
	vocab int
	mem   int64 // memory cache: 20% results, 80% lists

	ssdResult int64
	ssdList   int64

	hitsDistinct  int
	hitsSSDResult int64 // large enough for the whole hits population
	hitsGuard     int
	hitsSim       int
	hitsSegment   int

	churnDistinct int
	churnWarm     int
	churnGuard    int
	churnSim      int
	churnSegment  int

	servingDistinct int
	servingWarm     int
	servingArrivals int
	nominalArrivals int
	ladder          []float64
	nominal         float64
	sloP99          time.Duration

	setupReps int
}

func benchScale() scale {
	return scale{
		docs:      600_000,
		vocab:     2500,
		mem:       1 << 20,
		ssdResult: 1 << 20,
		ssdList:   8 << 20,

		hitsDistinct:  300,
		hitsSSDResult: 8 << 20,
		hitsGuard:     2000,
		hitsSim:       200_000,
		hitsSegment:   20_000,

		churnDistinct: 1_000_000,
		churnWarm:     5000,
		churnGuard:    500,
		churnSim:      4000,
		churnSegment:  500,

		servingDistinct: 8000,
		servingWarm:     1000,
		servingArrivals: 2000,
		nominalArrivals: 6000,
		ladder:          []float64{40, 70, 100, 130, 160},
		nominal:         40,
		sloP99:          500 * time.Millisecond,

		setupReps: 3,
	}
}

func (sc scale) collection() workload.CollectionSpec {
	spec := workload.DefaultCollection(sc.docs)
	spec.VocabSize = sc.vocab
	spec.MaxDFShare = 0.2
	return spec
}

func (sc scale) cache(ssdResult int64) core.Config {
	cfg := core.DefaultConfig(sc.mem)
	cfg.Policy = core.PolicyCBLRU
	cfg.TEV = 2
	cfg.SSDResultBytes = ssdResult
	cfg.SSDListBytes = sc.ssdList
	return cfg
}

func (sc scale) resultHits() closedSpec {
	log := workload.DefaultQueryLog(sc.vocab)
	log.DistinctQueries = sc.hitsDistinct
	return closedSpec{
		name:         "result-hits",
		collection:   sc.collection(),
		log:          log,
		cache:        sc.cache(sc.hitsSSDResult),
		codec:        index.CodecRaw,
		warmPasses:   2,
		guardQueries: sc.hitsGuard,
		simQueries:   sc.hitsSim,
		segment:      sc.hitsSegment,
		guard:        guard{minResultHit: 0.99, maxResultHit: 1, noPrograms: true},
	}
}

func (sc scale) listChurn() closedSpec {
	log := workload.DefaultQueryLog(sc.vocab)
	log.DistinctQueries = sc.churnDistinct
	log.QueryExponent = 0.3
	return closedSpec{
		name:         "list-churn",
		collection:   sc.collection(),
		log:          log,
		cache:        sc.cache(sc.ssdResult),
		codec:        index.CodecGVarint,
		warmQueries:  sc.churnWarm,
		guardQueries: sc.churnGuard,
		simQueries:   sc.churnSim,
		segment:      sc.churnSegment,
		guard:        guard{minResultHit: 0, maxResultHit: 0.05, needErases: true},
	}
}

func (sc scale) serving() servingSpec {
	log := workload.DefaultQueryLog(sc.vocab)
	log.DistinctQueries = sc.servingDistinct
	return servingSpec{
		name:            "serving",
		collection:      sc.collection(),
		log:             log,
		cache:           sc.cache(sc.ssdResult),
		shards:          2,
		warm:            sc.servingWarm,
		hotWarm:         32,
		arrivals:        sc.servingArrivals,
		nominalArrivals: sc.nominalArrivals,
		ladder:          sc.ladder,
		nominal:         sc.nominal,
		sloP99:          sc.sloP99,
	}
}

func engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.TerminationFrac = 0.35
	return cfg
}

// mix derives the seed of one input stream from the workload seed
// (splitmix64), so the collection, query log and arrivals each get an
// independent stream from one --seed.
func mix(seed, stream uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	streamCollection = 1
	streamQueryLog   = 2
	streamArrivals   = 3
)

func seeded(spec workload.CollectionSpec, log workload.QueryLogSpec, seed uint64) (workload.CollectionSpec, workload.QueryLogSpec) {
	spec.Seed = mix(seed, streamCollection)
	log.Seed = mix(seed, streamQueryLog)
	return spec, log
}

// systemConfig is the hybrid.Config of a closed-loop workload over img.
func (cs closedSpec) systemConfig(seed uint64, img *index.Image) hybrid.Config {
	coll, log := seeded(cs.collection, cs.log, seed)
	return hybrid.Config{
		Collection: coll,
		QueryLog:   log,
		Cache:      cs.cache,
		Mode:       hybrid.CacheTwoLevel,
		IndexOn:    hybrid.IndexOnHDD,
		Codec:      cs.codec,
		Engine:     engineConfig(),
		UseModelPU: true,
		IndexImage: img,
	}
}
