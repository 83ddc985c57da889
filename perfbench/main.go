// Command perfbench is the repository benchmark for µBE. One invocation
// runs one seeded workload through the public APIs of the engine, the
// session server and the router, checks that its outputs are correct,
// prints every metric by name with its unit, and ends with one JSON
// line holding the metrics BENCHMARK.json names.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload feedback --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures with tracing off and the JSON carries
// the end-to-end metrics; with --trace 1 it also repeats the workload
// with a tracer attached and replays the layers, and the JSON carries
// the per-layer metrics. README.md defines every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// endToEnd and perLayer are the metric sets of BENCHMARK.json, in its
// order: the final JSON line carries exactly one of them.
var endToEnd = []string{"setup_s", "setup_heap_mib", "solve_p50_ms", "evals_per_s"}

var perLayer = []string{
	"schemaio.universe_decode_ms",
	"engine.new_ms",
	"engine.first_solve_ms",
	"engine.match_hit_ratio",
	"search.evals",
	"search.batches",
	"search.setup_ms",
	"search.search_ms",
	"search.final_ms",
	"cluster.match_us",
	"cluster.match_allocs",
	"match.runs",
	"cluster.rounds",
	"cluster.pops",
	"cluster.pairs",
	"qef.eval_us",
	"qef.eval_allocs",
	"qef.full",
	"qef.delta",
	"qef.delta_share",
	"pcsa.unions",
	"strsim.vocab",
	"strsim.matrix_build_ms",
	"strsim.sparse_build_ms",
	"strsim.matrix_mib",
	"block.probes",
	"block.candidates",
	"server.queue_rejections",
	"server.solve_memo_hits",
	"trace.overhead_pct",
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	toy      bool
	workDir  string
}

var workloads = map[string]func(*options, *report) error{
	"feedback": runFeedback,
	"catalog":  runCatalog,
	"serve":    runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit code: 0
// when the outputs are correct, 1 when a correctness gate or an
// operation failed (the result line is still printed), 2 when the run
// could not complete (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r := newReport(o.workload)
	if err := workloads[o.workload](o, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	r.checkDigest(o)
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	line, err := r.result(names)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r.print(stdout)
	fmt.Fprintln(stdout, string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var seconds float64
	var traceFlag int
	var size string
	fs.StringVar(&o.workload, "workload", "", "workload: feedback, catalog or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 10, "how long the measured phase runs")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&size, "size", "full", "input size: full, or toy for the self-check")
	fs.StringVar(&o.workDir, "workdir", ".bench_build/tmp", "scratch directory for the serve workload's write-ahead logs")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want feedback, catalog or serve)", o.workload)
	}
	if seconds <= 0 || seconds > 600 {
		return nil, fmt.Errorf("--seconds %v outside (0, 600]", seconds)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	switch traceFlag {
	case 0, 1:
		o.trace = traceFlag == 1
	default:
		return nil, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	switch size {
	case "full", "toy":
		o.toy = size == "toy"
	default:
		return nil, fmt.Errorf("--size %q: want full or toy", size)
	}
	return o, nil
}

// result renders the final JSON line over the named metric set.
func (r *report) result(names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = value{Value: m.value, Unit: m.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, r.failedCount(), metrics})
}
