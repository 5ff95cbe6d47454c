// Command perfbench is the repository's benchmark. It builds the simulator
// from its public constructors, runs one workload, checks the outputs, and
// prints every metric by name and unit, ending with a one-line JSON result:
//
//	go run . --workload result-hits --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// a separate traced run that reports the per-layer metrics. README.md
// describes the workloads and the metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spansDir receives the span dumps of traced closed-loop runs, relative to
// the working directory.
const spansDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:], benchScale(), spansDir, os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// workloads maps each workload name to its two runs.
func workloads(sc scale) map[string]func(o options, spans string) (*report, error) {
	hits, churn, srv := sc.resultHits(), sc.listChurn(), sc.serving()
	closed := func(cs closedSpec) func(options, string) (*report, error) {
		return func(o options, spans string) (*report, error) {
			if o.trace == 1 {
				return traceClosed(cs, o.seed, filepath.Join(spans, fmt.Sprintf("%s-seed%d.tsv.gz", cs.name, o.seed)))
			}
			return runClosed(cs, o.seed, o.seconds, sc.setupReps)
		}
	}
	return map[string]func(options, string) (*report, error){
		hits.name:  closed(hits),
		churn.name: closed(churn),
		srv.name: func(o options, _ string) (*report, error) {
			if o.trace == 1 {
				return traceServing(srv, o.seed)
			}
			return runServing(srv, o.seed, o.seconds, sc.setupReps)
		},
	}
}

// run executes one invocation and returns the exit code: 0 only when the
// run completed and every output check passed.
func run(args []string, sc scale, spans string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ws := workloads(sc)
	w, ok := ws[o.workload]
	if !ok {
		names := make([]string, 0, len(ws))
		for n := range ws {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	rep, err := w(o, spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d queries failed the output check\n", o.workload, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "", "workload to run: result-hits, list-churn or serving")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the collection, query log and arrivals")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in host seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	case o.seconds <= 0:
		return o, errors.New("--seconds must be positive")
	}
	return o, nil
}
