package workload

import (
	"fmt"
	"slices"

	"hybridstore/internal/simclock"
)

// Query is one search request: a small bag of terms plus a stable identity.
// Identical QueryIDs always carry identical term lists, which is what makes
// result caching meaningful.
type Query struct {
	ID    uint64
	Terms []TermID
}

// Key returns the canonical result-cache key for the query.
func (q Query) Key() uint64 { return q.ID }

// QueryLogSpec describes a synthetic AOL-like query stream.
//
// Two Zipf distributions govern the stream: query identities repeat
// Zipf-fashion (driving the result cache, §II-D "result caching filters out
// repetitions in the query stream"), and the terms inside queries follow
// the collection's term popularity (driving the inverted-list cache).
type QueryLogSpec struct {
	// DistinctQueries is the size of the query population.
	DistinctQueries int
	// QueryExponent is the Zipf exponent of query repetition (AOL ≈ 0.85).
	QueryExponent float64
	// TermExponent is the Zipf exponent of term popularity inside queries.
	TermExponent float64
	// MaxTermsPerQuery bounds query length; lengths are uniform in
	// [1, MaxTermsPerQuery] per query identity (web average ≈ 2.2 terms).
	MaxTermsPerQuery int
	// VocabSize must match the collection the log runs against.
	VocabSize int
	// Seed drives all randomness in the log.
	Seed uint64
}

// DefaultQueryLog returns an AOL-like spec over the given vocabulary.
func DefaultQueryLog(vocabSize int) QueryLogSpec {
	return QueryLogSpec{
		DistinctQueries:  200000,
		QueryExponent:    0.85,
		TermExponent:     0.9,
		MaxTermsPerQuery: 3,
		VocabSize:        vocabSize,
		Seed:             0xA01,
	}
}

// Validate reports whether the spec is internally consistent.
func (s QueryLogSpec) Validate() error {
	switch {
	case s.DistinctQueries <= 0:
		return fmt.Errorf("workload: DistinctQueries = %d", s.DistinctQueries)
	case s.QueryExponent <= 0 || s.TermExponent <= 0:
		return fmt.Errorf("workload: exponents must be positive")
	case s.MaxTermsPerQuery < 1:
		return fmt.Errorf("workload: MaxTermsPerQuery = %d", s.MaxTermsPerQuery)
	case s.VocabSize <= 0:
		return fmt.Errorf("workload: VocabSize = %d", s.VocabSize)
	}
	return nil
}

// QueryLog generates an endless deterministic query stream.
type QueryLog struct {
	spec      QueryLogSpec
	queryZipf *Zipf
	termZipf  *Zipf
	produced  int64
}

// NewQueryLog builds a generator for the spec. It panics on invalid specs;
// call Validate first when the spec comes from user input.
func NewQueryLog(spec QueryLogSpec) *QueryLog {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	rng := simclock.NewRNG(spec.Seed)
	return &QueryLog{
		spec:      spec,
		queryZipf: NewZipf(rng.Split(1), spec.DistinctQueries, spec.QueryExponent),
		termZipf:  NewZipf(rng.Split(2), spec.VocabSize, spec.TermExponent),
	}
}

// Next returns the next query in the stream.
func (l *QueryLog) Next() Query {
	l.produced++
	qid := uint64(l.queryZipf.Next())
	return l.QueryByID(qid)
}

// QueryByID materializes the fixed term list of query qid. The terms are a
// pure function of (spec, qid): the popularity rank of each term is drawn
// from the term Zipf using a per-query RNG. Nothing is memoized: each call
// returns a fresh term slice, and the log's memory does not grow with the
// number of distinct queries run.
func (l *QueryLog) QueryByID(qid uint64) Query {
	qrng := simclock.NewRNG(l.spec.Seed).Split(qid + 101)
	nTerms := 1 + qrng.Intn(l.spec.MaxTermsPerQuery)
	terms := make([]TermID, 0, nTerms)
	for len(terms) < nTerms {
		t := TermID(l.termZipf.Sample(qrng))
		if !slices.Contains(terms, t) {
			terms = append(terms, t)
		}
		if len(terms) >= l.spec.VocabSize {
			break
		}
	}
	return Query{ID: qid, Terms: terms}
}

// Produced returns how many queries Next has handed out.
func (l *QueryLog) Produced() int64 { return l.produced }

// TermFrequencies runs n queries through a fresh copy of the log and tallies
// how often each term is accessed — the Fig 3(b) distribution.
func (l *QueryLog) TermFrequencies(n int) []int64 {
	fresh := NewQueryLog(l.spec)
	counts := make([]int64, l.spec.VocabSize)
	for i := 0; i < n; i++ {
		for _, t := range fresh.Next().Terms {
			counts[t]++
		}
	}
	return counts
}
