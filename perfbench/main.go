// Command perfbench is the repository benchmark. It drives closed-loop
// YCSB traffic (load_a, run_a, run_c) through an in-process three-server
// Send-Index cluster, checks every read against the generator, and
// prints one JSON result line. With -trace 0 the line carries the
// end-to-end metrics; with -trace 1 a separate traced run reports the
// per-layer metrics: counter deltas the program exports, the request
// trace's stage spans, and a layer pass that replays the workload's
// inputs through each layer's public functions.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload run_c --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// options are the settings of one run: the command line's, plus sizes
// the package test shrinks.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// records is the dataset size: load_a inserts this many records per
	// round, run_a and run_c preload this many before their phase.
	records uint64
	// setups is how many times run_a and run_c build and preload their
	// cluster; setup_s reports the median.
	setups int
	// layerRecords sizes the layer pass's replay of the workload.
	layerRecords uint64
	spansDir     string
	// mutateExpected, when set, replaces the expected value of a read
	// before it is compared. Tests use it to prove a wrong value fails.
	mutateExpected func(rec uint64, want []byte) []byte
}

func defaultOptions() options {
	return options{
		records:      300_000,
		setups:       3,
		layerRecords: 40_000,
		spansDir:     ".bench_build/spans",
	}
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := defaultOptions()
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: load_a, run_a or run_c")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured-phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	flag.StringVar(&o.spansDir, "spans-dir", o.spansDir, "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}

	res, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one run of o.workload and assembles its result line.
func run(o options) (result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.seconds <= 0 || o.records < issuers || o.setups < 1 {
		return result{}, fmt.Errorf("bad sizes: seconds=%v records=%d setups=%d", o.seconds, o.records, o.setups)
	}
	var (
		out *outcome
		err error
	)
	if o.trace {
		out, err = runTraced(o, w)
	} else {
		out, err = runEndToEnd(o, w)
	}
	if err != nil {
		return result{}, err
	}
	r := out.result(o.trace)
	for _, msg := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	return r, nil
}
