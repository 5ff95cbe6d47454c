// Package metrics provides the counters, latency recorders and histograms
// used to report every experiment in the reproduction.
//
// The types here count simulated quantities (simulated nanoseconds, cache
// probes, device operations); nothing in this package touches wall-clock
// time. All types are safe for concurrent use unless stated otherwise.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

// LatencyRecorder accumulates a stream of simulated latencies and reports
// count, mean, min, max and percentiles. Percentile queries sort a private
// copy of the samples, so they are cheap to record and O(n log n) to query.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{min: math.MaxInt64}
}

// Record adds one latency sample. Negative samples are rejected with a
// panic: simulated operations never complete before they start.
func (l *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		panic("metrics: negative latency sample")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, d)
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
}

// Count returns the number of samples recorded.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// Sum returns the total of all samples.
func (l *LatencyRecorder) Sum() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum
}

// Mean returns the arithmetic mean of the samples, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / time.Duration(len(l.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (l *LatencyRecorder) Min() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest sample, or 0 with no samples.
func (l *LatencyRecorder) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	l.mu.Lock()
	cp := make([]time.Duration, len(l.samples))
	copy(cp, l.samples)
	l.mu.Unlock()
	if len(cp) == 0 {
		return 0
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	rank := int(math.Ceil(p / 100 * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	return cp[rank-1]
}

// Reset discards all samples.
func (l *LatencyRecorder) Reset() {
	l.mu.Lock()
	l.samples = l.samples[:0]
	l.sum = 0
	l.min = math.MaxInt64
	l.max = 0
	l.mu.Unlock()
}

// Snapshot is a point-in-time summary of a LatencyRecorder.
type Snapshot struct {
	Count int
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot summarizes the recorder.
func (l *LatencyRecorder) Snapshot() Snapshot {
	return Snapshot{
		Count: l.Count(),
		Mean:  l.Mean(),
		Min:   l.Min(),
		Max:   l.Max(),
		P50:   l.Percentile(50),
		P95:   l.Percentile(95),
		P99:   l.Percentile(99),
	}
}

// String renders the snapshot in a compact human-readable form.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max)
}
