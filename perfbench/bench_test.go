package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale shrinks every workload so the smoke test runs in seconds while
// each regime guard still holds.
func tinyScale() scale {
	return scale{
		docs:      100_000,
		vocab:     1000,
		mem:       256 << 10,
		ssdResult: 1 << 20,
		ssdList:   512 << 10,

		hitsDistinct:  50,
		hitsSSDResult: 2 << 20,
		hitsGuard:     200,
		hitsSim:       2000,
		hitsSegment:   500,

		churnDistinct: 100_000,
		churnWarm:     300,
		churnGuard:    100,
		churnSim:      200,
		churnSegment:  50,

		servingDistinct: 2000,
		servingWarm:     200,
		servingArrivals: 300,
		nominalArrivals: 300,
		ladder:          []float64{20, 5000},
		nominal:         20,
		sloP99:          500 * time.Millisecond,

		setupReps: 2,
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json at tiny size,
// untraced and traced, and checks that each run passes its output check
// and regime guards, prints exactly the metrics BENCHMARK.json names with
// their units, and that both runs report the same simulated digest.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			digests := make([]string, 2)
			for trace := 0; trace <= 1; trace++ {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.2", "--trace", strconv.Itoa(trace)}
				if code := run(args, tinyScale(), t.TempDir(), &stdout, &stderr); code != 0 {
					t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %d: last line is not the JSON result: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := bf.EndToEnd
				if trace == 1 {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %d: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %d: metric %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				sc := bufio.NewScanner(strings.NewReader(stdout.String()))
				for sc.Scan() {
					if d, ok := strings.CutPrefix(sc.Text(), "sim_digest "); ok {
						digests[trace] = d
					}
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("simulated digest untraced %q, traced %q: want equal", digests[0], digests[1])
			}
		})
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "result-hits", "--trace", "2"},
		{"--workload", "result-hits", "--seconds", "0"},
		{"--workload", "result-hits", "extra"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted bad input", args)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, tinyScale(), t.TempDir(), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
