package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/synth"
	"ube/internal/trace"
)

// The catalog workload is an internet-scale universe (10⁴ sources, about
// 4,000 attribute names, no signatures) behind one in-process session:
// set-up, a cold solve, then churn batches through Session.ApplyChurn,
// each followed by a warm re-solve. Most of its time is strsim (name
// interning and the dense similarity matrix, whose vocabulary sits just
// under the engine's 4,096-name dense limit), engine set-up and churn
// maintenance. It bypasses the serving stack and does almost no PCSA
// work.

type catalogShape struct {
	sources, m, evals int
	// minBatches churn batches always run, and the digest covers them;
	// more run while the measured phase has time left, up to maxBatches.
	minBatches, maxBatches int
}

// catalogInputs are the generated universe and the pool of sources that
// churn batches add.
type catalogInputs struct {
	data []byte
	pool []model.Source
}

func catalogGenerate(shape catalogShape, seed int64) (*catalogInputs, error) {
	cfg := synth.DefaultLargeConfig(shape.sources)
	cfg.Seed = seed
	// Fix the vocabulary to the initial size's, then generate the added
	// sources past the initial population: generation is sequential, so
	// the first sources are exactly DefaultLargeConfig(sources)'s.
	cfg.Concepts = max(64, shape.sources/8)
	cfg.NumSources = shape.sources + shape.maxBatches
	u, _, err := synth.GenerateLarge(cfg)
	if err != nil {
		return nil, err
	}
	pool := u.Sources[shape.sources:]
	u.Sources = u.Sources[:shape.sources]
	data, err := json.Marshal(u)
	if err != nil {
		return nil, err
	}
	return &catalogInputs{data: data, pool: pool}, nil
}

// catalogBatch builds churn batch b over a universe of n sources: add
// the next pooled source, remove one source, update another's
// cardinality and MTTF.
func catalogBatch(in *catalogInputs, b, n int, rng *rand.Rand) []model.Mutation {
	add := in.pool[b]
	add.ID = 0
	card := int64(1000 + rng.Intn(19_000))
	return []model.Mutation{
		{Op: model.OpAdd, Source: add},
		{Op: model.OpRemove, ID: rng.Intn(n + 1)},
		{Op: model.OpUpdate, ID: rng.Intn(n), Cardinality: &card, Characteristics: map[string]float64{"mttf": 50 + 100*rng.Float64()}},
	}
}

// catalogRun is one pass of the catalog script.
type catalogRun struct {
	setup   setupTiming
	solves  []*engine.Solution // cold solve, then one per batch
	lats    []timing           // parallel to solves
	churns  []time.Duration    // process CPU clock
	traces  []*trace.Trace     // parallel to solves when traced
	session *engine.Session
}

// catalogPass sets up an engine, solves cold, then applies churn batches
// each followed by a warm re-solve: exactly batches of them, or, when
// batches is 0, at least shape.minBatches and more while another one
// fits before the deadline.
func catalogPass(in *catalogInputs, shape catalogShape, seed int64, batches int, deadline time.Time, traced bool, r *report) (*catalogRun, error) {
	e, st, err := setupEngine(in.data)
	if err != nil {
		return nil, err
	}
	run := &catalogRun{setup: st}
	p := engine.DefaultProblem()
	p.MaxSources = shape.m
	p.MaxEvals = shape.evals
	p.Seed = seed
	s := engine.NewSession(e, p)
	run.session = s
	solve := func() error {
		sol, lat, tr, err := timedSolve(s, traced)
		r.op(err == nil)
		if err != nil {
			return err
		}
		run.solves = append(run.solves, sol)
		run.lats = append(run.lats, lat)
		run.traces = append(run.traces, tr)
		return nil
	}
	if err := solve(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7 + 3))
	var cycle time.Duration
	for b := 0; b < shape.maxBatches; b++ {
		if batches > 0 && b == batches {
			break
		}
		if batches == 0 && b >= shape.minBatches && time.Now().Add(cycle).After(deadline) {
			break
		}
		cycleStart := time.Now()
		muts := catalogBatch(in, b, e.Universe().N(), rng)
		tm := startTimer()
		_, err := s.ApplyChurn(muts)
		run.churns = append(run.churns, tm.stop().cpu)
		r.op(err == nil)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if err := solve(); err != nil {
			return nil, fmt.Errorf("re-solve after batch %d: %w", b, err)
		}
		cycle = time.Since(cycleStart)
	}
	return run, nil
}

// digest covers the cold solve and the first minBatches re-solves: the
// part of the script every run performs.
func (c *catalogRun) digest(shape catalogShape) string {
	recs := make([][]byte, 0, shape.minBatches+1)
	for _, sol := range c.solves[:shape.minBatches+1] {
		recs = append(recs, canonicalSolution(sol))
	}
	return digestOf(recs)
}

// checkFresh re-solves the session's last problem on a fresh engine built
// from the mutated universe's JSON; it must equal the warm re-solve. The
// fresh build is one more set-up sample.
func (c *catalogRun) checkFresh(r *report) (setupTiming, error) {
	hist := c.session.History()
	last := hist[len(hist)-1]
	data, err := json.Marshal(c.session.Engine().Universe())
	if err != nil {
		return setupTiming{}, err
	}
	c.session = nil // let the churned engine go before building another
	e, st, err := setupEngine(data)
	if err != nil {
		return st, err
	}
	p := last.Problem
	p.Trace = nil
	sol, err := e.Solve(&p)
	r.op(err == nil)
	if err != nil {
		return st, err
	}
	r.gate(string(canonicalSolution(sol)) == string(canonicalSolution(last.Solution)),
		"warm re-solve after %d churn batches differs from a fresh engine over the mutated universe", len(hist)-1)
	return st, nil
}

func runCatalog(o *options, r *report) error {
	shape := catalogShape{sources: 10_000, m: 20, evals: 1500, minBatches: 2, maxBatches: 6}
	if o.toy {
		shape = catalogShape{sources: 600, m: 8, evals: 120, minBatches: 2, maxBatches: 3}
	}
	in, err := catalogGenerate(shape, o.seed)
	if err != nil {
		return err
	}
	heap, heapSetup, err := setupHeapMiB(in.data)
	if err != nil {
		return err
	}
	r.set("setup_heap_mib", heap, "MiB")

	start := time.Now()
	run, err := catalogPass(in, shape, o.seed, 0, start.Add(o.seconds), false, r)
	if err != nil {
		return err
	}
	r.note("measured phase: cold solve + %d churn batches with warm re-solves in %.1f s", len(run.churns), time.Since(start).Seconds())
	r.digest = run.digest(shape)
	vocab := run.session.Engine().VocabularySize()
	universe := run.session.Engine().Universe()
	lastCase := replayCase{p: run.session.History()[len(run.solves)-1].Problem, set: run.solves[len(run.solves)-1].Sources}
	var stats solveStats
	for i, sol := range run.solves {
		stats.add(run.lats[i], sol.Evals)
	}
	churnMs := make([]float64, len(run.churns))
	for i, d := range run.churns {
		churnMs[i] = ms(d)
	}
	fresh, err := run.checkFresh(r)
	if err != nil {
		return err
	}
	var setups setupSamples
	setups.add(heapSetup)
	setups.add(run.setup)
	setups.add(fresh)
	setups.record(r)
	stats.record(r)
	first := ms(run.lats[0].cpu)
	r.set("churn_p50_ms", median(churnMs), "ms")
	r.set("engine.apply_churn_ms", median(churnMs), "ms")
	r.note("churn: %d batches; a batch is one Session.ApplyChurn call, so churn_p50_ms and engine.apply_churn_ms are the same median", len(churnMs))
	r.set("engine.first_solve_ms", first, "ms")
	r.note("catalog: U=%d sources, %d bytes of universe JSON, vocabulary %d names, m=%d, %d evaluations per solve",
		shape.sources, len(in.data), vocab, shape.m, shape.evals)
	if !o.trace {
		return nil
	}

	untracedMs := sum(stats.cpuMs[:shape.minBatches+1])
	traced, err := catalogPass(in, shape, o.seed, shape.minBatches, time.Time{}, true, r)
	if err != nil {
		return err
	}
	r.gate(traced.digest(shape) == r.digest, "traced pass changed the solutions")
	var sums traceSums
	tracedMs := 0.0
	for i, sol := range traced.solves {
		sums.add(traced.traces[i], sol)
		tracedMs += ms(traced.lats[i].cpu)
	}
	sums.record(r)
	recordOverhead(r, untracedMs, tracedMs)
	traced = nil

	ls, err := replayLayers(universe, []replayCase{lastCase}, o.seed)
	if err != nil {
		return err
	}
	ls.record(r, "")
	checkReplayPath(r, ls)
	r.set("server.queue_rejections", 0, "count")
	r.set("server.solve_memo_hits", 0, "count")
	r.note("server.*: 0, the catalog workload runs in process and bypasses the server")
	estimateShares(r)
	p50, _ := r.get("solve_p50_ms")
	gap := p50.value - first
	r.note("re-solve attribution: solve_p50_ms %.0f ms - first solve %.0f ms = %.0f ms; strsim.matrix_build_ms %.0f ms is %.0f%% of that gap",
		p50.value, first, gap, ls.matrixMs, 100*ls.matrixMs/gap)
	return nil
}
