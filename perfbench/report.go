package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/trace"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects one run's metrics, notes, operation counts and
// correctness verdicts.
type report struct {
	workload  string
	metrics   []metric
	index     map[string]int
	notes     []string
	attempted int
	opsFailed int
	gates     []string // failed correctness gates
	digest    string   // digest of the run's deterministic outputs
}

func newReport(workload string) *report {
	return &report{workload: workload, index: make(map[string]int)}
}

// set records (or overwrites) a metric.
func (r *report) set(name string, value float64, unit string) {
	if i, ok := r.index[name]; ok {
		r.metrics[i] = metric{name, value, unit}
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.opsFailed++
	}
}

// gate records a correctness check; a failed check fails the run.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

func (r *report) failedCount() int { return r.opsFailed + len(r.gates) }

func (r *report) correct() bool { return r.failedCount() == 0 }

// goldenDigests holds recorded output digests keyed by size, workload and
// seed; see digests.json.
//
//go:embed digests.json
var goldenDigestsJSON []byte

// checkDigest compares the run's digest with the recorded digest for
// this size, workload and seed, when one exists.
func (r *report) checkDigest(o *options) {
	r.gate(r.digest != "", "%s produced no output digest", r.workload)
	var golden map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenDigestsJSON, &golden); err != nil {
		r.gate(false, "digests.json: %v", err)
		return
	}
	size := "full"
	if o.toy {
		size = "toy"
	}
	want, ok := golden[size][r.workload][strconv.FormatInt(o.seed, 10)]
	if !ok {
		r.note("no recorded digest for %s seed %d at %s size; correctness rests on the run's own gates", r.workload, o.seed, size)
		return
	}
	r.gate(want == r.digest, "digest %s differs from the recorded %s for %s seed %d", r.digest, want, r.workload, o.seed)
}

// print writes every metric, note and verdict as human-readable lines.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-36s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	}
	errorRate := float64(r.failedCount()) / math.Max(1, float64(r.attempted))
	fmt.Fprintf(w, "metric %-36s %14s %s\n", "error_rate", strconv.FormatFloat(errorRate, 'g', 8, 64), "ratio")
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	for _, g := range r.gates {
		fmt.Fprintf(w, "FAIL %s\n", g)
	}
}

// digestOf hashes a sequence of canonical output records.
func digestOf(records [][]byte) string {
	h := sha256.New()
	for _, rec := range records {
		fmt.Fprintf(h, "%d:", len(rec))
		h.Write(rec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalSolution is a solution's deterministic content — sources,
// quality bits, breakdown, schema, evaluation count — as JSON, with the
// wall-clock time and the match-memo counters zeroed.
func canonicalSolution(sol *engine.Solution) []byte {
	doc := schemaio.EncodeSolution(sol)
	doc.ElapsedNS = 0
	doc.CacheHits, doc.CacheMisses, doc.CacheEvictions = 0, 0, 0
	b, err := json.Marshal(doc)
	if err != nil {
		// A solution doc holds only plain values; Marshal cannot fail.
		panic(err)
	}
	return b
}

// canonicalHistory renders a session history like canonicalSolution
// renders one solution, problems included.
func canonicalHistory(docs []schemaio.IterationDoc) []byte {
	docs = append([]schemaio.IterationDoc(nil), docs...)
	for i := range docs {
		s := &docs[i].Solution
		s.ElapsedNS = 0
		s.CacheHits, s.CacheMisses, s.CacheEvictions = 0, 0, 0
	}
	b, err := json.Marshal(docs)
	if err != nil {
		panic(err)
	}
	return b
}

// setupTiming splits one set-up into its two layers.
type setupTiming struct {
	decode, build time.Duration
}

func (t setupTiming) total() time.Duration { return t.decode + t.build }

// setupEngine is the set-up path every workload measures: universe JSON
// bytes to an engine ready to solve. The decode is the one the session
// server performs on a create request (JSON into model.Universe, then
// Validate). Both steps are timed on the process CPU clock.
func setupEngine(data []byte) (*engine.Engine, setupTiming, error) {
	tm := startTimer()
	u := new(model.Universe)
	err := json.Unmarshal(data, u)
	if err == nil {
		err = u.Validate()
	}
	decode := tm.stop()
	if err != nil {
		return nil, setupTiming{}, fmt.Errorf("decoding universe: %w", err)
	}
	tm = startTimer()
	e, err := engine.New(u)
	build := tm.stop()
	if err != nil {
		return nil, setupTiming{}, fmt.Errorf("building engine: %w", err)
	}
	return e, setupTiming{decode: decode.cpu, build: build.cpu}, nil
}

// timedSolve runs one session solve (sequential, on this goroutine), with
// a fresh tracer when traced, and returns the solution, its timing and
// its trace (nil untraced).
func timedSolve(s *engine.Session, traced bool) (*engine.Solution, timing, *trace.Trace, error) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
	}
	s.SetTrace(tr)
	tm := startTimer()
	sol, err := s.Solve()
	t := tm.stop()
	return sol, t, tr.Finish(), err
}

// liveHeap returns the live heap after full collections; the second
// one also frees what sync.Pool victim caches still held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupHeapMiB measures the live heap one set-up engine holds; the
// set-up's timing is one more set-up sample.
func setupHeapMiB(data []byte) (float64, setupTiming, error) {
	before := liveHeap()
	e, st, err := setupEngine(data)
	if err != nil {
		return 0, st, err
	}
	after := liveHeap()
	runtime.KeepAlive(e)
	return float64(int64(after)-int64(before)) / (1 << 20), st, nil
}

// setupSamples records set-up timings and reports their medians.
type setupSamples struct {
	decode, build, total []float64 // ms
}

func (s *setupSamples) add(t setupTiming) {
	s.decode = append(s.decode, ms(t.decode))
	s.build = append(s.build, ms(t.build))
	s.total = append(s.total, ms(t.total()))
}

func (s *setupSamples) record(r *report) {
	r.set("setup_s", median(s.total)/1000, "s")
	s.recordLayers(r)
}

// recordLayers reports the medians of the set-up's two layers.
func (s *setupSamples) recordLayers(r *report) {
	r.set("schemaio.universe_decode_ms", median(s.decode), "ms")
	r.set("engine.new_ms", median(s.build), "ms")
	r.note("set-up: median of %d in-process samples (universe JSON decode + engine.New)", len(s.total))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// solveStats accumulates in-process solve timings and evaluation counts.
type solveStats struct {
	cpuMs, wallMs []float64
	evals         int
}

func (s *solveStats) add(t timing, evals int) {
	s.cpuMs = append(s.cpuMs, ms(t.cpu))
	s.wallMs = append(s.wallMs, ms(t.wall))
	s.evals += evals
}

func (s *solveStats) evalsPerSecond() float64 { return float64(s.evals) / (sum(s.cpuMs) / 1000) }

// record reports the solve metrics of an in-process workload.
func (s *solveStats) record(r *report) {
	r.set("solve_p50_ms", median(s.cpuMs), "ms")
	r.set("solve_p95_ms", percentile(s.cpuMs, 0.95), "ms")
	r.set("evals_per_s", s.evalsPerSecond(), "1/s")
	r.set("solve_wall_p50_ms", median(s.wallMs), "ms")
	r.note("solves: %d samples on the process CPU clock (p95 is nearest-rank; below 200 samples it sits near the maximum); solve_wall_p50_ms is the same median on the wall clock",
		len(s.cpuMs))
}
