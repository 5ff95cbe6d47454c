package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
)

// writeTrace writes an NDJSON trace file of n queries, all in one
// situation, whose attribution is non-zero in every component (scaled by
// scale, so two files differ in every component).
func writeTrace(t *testing.T, path string, n int, scale int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for q := 0; q < n; q++ {
		var a obs.Attrib
		for c := simclock.Component(0); c < simclock.NumComponents; c++ {
			a.Add(c, time.Duration(scale*int64(c+1)*1000+int64(q)))
		}
		tr := obs.QueryTrace{Seq: int64(q), QID: uint64(100 + q), Situation: "S9(I:hdd)", ElapsedNS: a.Sum(), Attrib: &a}
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected through a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("%v\noutput:\n%s", runErr, got)
	}
	return got
}

// componentNames lists every declared component's wire name in enum order.
func componentNames() []string {
	var names []string
	for c := simclock.Component(0); c < simclock.NumComponents; c++ {
		names = append(names, c.String())
	}
	return names
}

func matches(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestRenderingCoversEveryComponentInOrder feeds traces that are non-zero
// in every component through summary, topk and diff, and checks each
// prints every declared component exactly once, in enum order: a newly
// declared component cannot vanish from reports or reorder them.
func TestRenderingCoversEveryComponentInOrder(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	writeTrace(t, a, 3, 1)
	writeTrace(t, b, 2, 5)
	want := componentNames()

	summary := captureStdout(t, func() error { return runSummary([]string{a}) })
	if got := matches(regexp.MustCompile(`(?m) (\w+)=\d+\(`), summary); !reflect.DeepEqual(got, want) {
		t.Errorf("summary components = %v, want %v\n%s", got, want, summary)
	}

	topk := captureStdout(t, func() error { return runTopK([]string{"-n", "1", b}) })
	wantTopK := append([]string{"seq", "qid", "elapsed_ns"}, want...)
	if got := matches(regexp.MustCompile(`(\w+)=\d+`), topk); !reflect.DeepEqual(got, wantTopK) {
		t.Errorf("topk fields = %v, want %v\n%s", got, wantTopK, topk)
	}

	diff := captureStdout(t, func() error { return runDiff([]string{a, b}) })
	got := matches(regexp.MustCompile(`(?m)^(\w+) +\d+ +\d+ +[+-]\d+$`), diff)
	if wantDiff := append(want[:len(want):len(want)], "total_elapsed"); !reflect.DeepEqual(got, wantDiff) {
		t.Errorf("diff rows = %v, want %v\n%s", got, wantDiff, diff)
	}
}
