package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"syscall"
)

// metric is one named measurement of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what one benchmark invocation prints: its metrics plus the
// correctness verdict. digest fingerprints every simulated statistic of the
// run; two invocations with the same workload and seed must print the same
// digest whether or not they were traced.
type report struct {
	attempted int64
	failed    int64
	metrics   []metric
	digest    uint64
}

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r *report) correct() bool { return r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the metrics as an aligned table, the digest, and last the
// one-line JSON result.
func (r *report) write(w io.Writer) error {
	out := jsonReport{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "sim_digest %016x\n", r.digest)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// int64Quantile is quantile over integer samples; xs is not modified.
func int64Quantile(xs []int64, q float64) float64 {
	return sortedQuantile(slices.Clone(xs), q)
}

// sortedQuantile sorts xs in place, without allocating, and returns its
// q-quantile as quantile does.
func sortedQuantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(xs[lo]) + float64(xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digester folds simulated statistics into one fingerprint.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

// add folds the printed form of each value; %+v prints every field of a
// struct, so any simulated counter that differs changes the digest.
func (d *digester) add(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%+v|", v)
	}
}

func (d *digester) sum() uint64 { return d.h.Sum64() }
