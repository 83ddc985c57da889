package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ube/internal/cluster"
	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/strsim"
	"ube/internal/trace"
)

// traceSums aggregates the traces of a set of solves: counter totals,
// the summed durations of the engine's setup/search/final spans, and
// the match-memo traffic the solutions report.
type traceSums struct {
	solves              int
	counts              trace.Counts
	setup, search, fin  time.Duration
	memoHits, memoLooks int64
}

func (ts *traceSums) add(tr *trace.Trace, sol *engine.Solution) {
	ts.solves++
	tot := tr.Totals()
	for c := range tot {
		ts.counts[c] += tot[c]
	}
	for _, sp := range tr.Spans {
		if sp.Parent < 0 || tr.Spans[sp.Parent].Parent != -1 {
			continue // only the direct children of a solve root
		}
		d := time.Duration(sp.Dur)
		switch sp.Name {
		case "setup":
			ts.setup += d
		case "search":
			ts.search += d
		case "final":
			ts.fin += d
		}
	}
	ts.memoHits += sol.MatchCache.Hits
	ts.memoLooks += sol.MatchCache.Hits + sol.MatchCache.Misses
}

// record reports the traced per-layer metrics.
func (ts *traceSums) record(r *report) {
	c := &ts.counts
	runs := c[trace.CMatchRuns]
	perRun := func(x int64) float64 {
		if runs == 0 {
			return 0
		}
		return float64(x) / float64(runs)
	}
	hitRatio := 0.0
	if ts.memoLooks > 0 {
		hitRatio = float64(ts.memoHits) / float64(ts.memoLooks)
	}
	deltaShare := 0.0
	if n := c[trace.CQEFDelta] + c[trace.CQEFFull]; n > 0 {
		deltaShare = float64(c[trace.CQEFDelta]) / float64(n)
	}
	r.set("engine.match_hit_ratio", hitRatio, "ratio")
	r.set("search.evals", float64(c[trace.CSearchEvals]), "count")
	r.set("search.batches", float64(c[trace.CSearchBatches]), "count")
	r.set("search.setup_ms", ms(ts.setup), "ms")
	r.set("search.search_ms", ms(ts.search), "ms")
	r.set("search.final_ms", ms(ts.fin), "ms")
	r.set("match.runs", float64(runs), "count")
	r.set("cluster.rounds", perRun(c[trace.CClusterRounds]), "count/run")
	r.set("cluster.pops", perRun(c[trace.CClusterPops]), "count/run")
	r.set("cluster.pairs", perRun(c[trace.CClusterPairs]), "count/run")
	r.set("qef.full", float64(c[trace.CQEFFull]), "count")
	r.set("qef.delta", float64(c[trace.CQEFDelta]), "count")
	r.set("qef.delta_share", deltaShare, "ratio")
	r.set("pcsa.unions", float64(c[trace.CSketchUnions]), "count")
	r.set("block.probes", float64(c[trace.CBlockProbes]), "count")
	r.set("block.candidates", float64(c[trace.CBlockCandidates]), "count")
	r.note("traced: %d solves; counters and span times are totals over them; match memo %d hits / %d lookups",
		ts.solves, ts.memoHits, ts.memoLooks)
}

// replayCase is one solved problem and the source set it chose; the
// layer replay times each layer on that set and on its neighbours.
type replayCase struct {
	p   engine.Problem
	set []int
}

// engineDenseLimit mirrors the engine's dense-matrix limit: up to this
// many names a solve clusters with the dense matrix, above it with the
// θ-sparse table. The traced run checks the replay took the engine's
// path (see checkReplayPath).
const engineDenseLimit = 4096

// replayNeighbours is how many seeded one-swap neighbours of each chosen
// set the replay evaluates besides the set itself: the tabu search's
// neighbourhood, which is what the solve spends its evaluations on.
const replayNeighbours = 24

// layerSamples are the raw per-call costs of one replay.
type layerSamples struct {
	matchUs, qefUs, unionUs    []float64
	matchAllocs, qefAllocs     uint64
	matchCalls, qefCalls       int
	vocab                      int
	sparsePath                 bool
	matrixMs, sparseMs, matMiB float64
}

func (ls *layerSamples) merge(o *layerSamples) {
	ls.matchUs = append(ls.matchUs, o.matchUs...)
	ls.qefUs = append(ls.qefUs, o.qefUs...)
	ls.unionUs = append(ls.unionUs, o.unionUs...)
	ls.matchAllocs += o.matchAllocs
	ls.qefAllocs += o.qefAllocs
	ls.matchCalls += o.matchCalls
	ls.qefCalls += o.qefCalls
	ls.vocab, ls.sparsePath = o.vocab, o.sparsePath
	ls.matrixMs, ls.sparseMs, ls.matMiB = o.matrixMs, o.sparseMs, o.matMiB
}

// record reports the replayed per-call costs under the given name suffix.
func (ls *layerSamples) record(r *report, suffix string) {
	r.set("cluster.match_us"+suffix, median(ls.matchUs), "us")
	r.set("cluster.match_allocs"+suffix, float64(ls.matchAllocs)/float64(ls.matchCalls), "allocs/op")
	r.set("qef.eval_us"+suffix, median(ls.qefUs), "us")
	r.set("qef.eval_allocs"+suffix, float64(ls.qefAllocs)/float64(ls.qefCalls), "allocs/op")
	if len(ls.unionUs) > 0 {
		r.set("pcsa.union_us"+suffix, median(ls.unionUs), "us")
	}
	r.note("replay%s: %d cluster.Match calls, %d Composite.Eval calls, %d pcsa.Union calls (medians per call)",
		suffix, ls.matchCalls, ls.qefCalls, len(ls.unionUs))
	if suffix != "" {
		return
	}
	if len(ls.unionUs) == 0 {
		r.note("pcsa.union_us: n/a, no source in the replayed sets has a signature")
	}
	path := "dense matrix"
	if ls.sparsePath {
		path = "θ-sparse table"
	}
	r.note("replay: %d names, so cluster.Match ran on the %s, as the engine's solves do", ls.vocab, path)
	r.set("strsim.vocab", float64(ls.vocab), "count")
	r.set("strsim.matrix_build_ms", ls.matrixMs, "ms")
	r.set("strsim.sparse_build_ms", ls.sparseMs, "ms")
	r.set("strsim.matrix_mib", ls.matMiB, "MiB")
}

// replayLayers times each layer's public entry points on a workload's
// own inputs: strsim builds its dense matrix and θ-sparse table over the
// universe's vocabulary (timed on the process CPU clock, like the solves);
// cluster.Match, qef.Composite.Eval and pcsa.Union run on every case's
// chosen set and on seeded one-swap neighbours of it (timed on the wall
// clock, whose reads cost less than a microsecond call can carry).
// The clustering configuration mirrors the engine's: names interned in
// source order, the dense matrix up to engineDenseLimit names and the
// θ-sparse table above it, the scorer's ≥θ neighbour index and the seed
// pairs.
func replayLayers(u *model.Universe, cases []replayCase, seed int64) (*layerSamples, error) {
	ls := &layerSamples{}
	sim := strsim.NewCache(nil)
	nameIDs := make([][]int, u.N())
	for i := range u.Sources {
		nameIDs[i] = make([]int, len(u.Sources[i].Attributes))
		for a, name := range u.Sources[i].Attributes {
			nameIDs[i][a] = sim.Intern(name)
		}
	}
	ls.vocab = sim.Len()
	ls.sparsePath = ls.vocab > engineDenseLimit
	tm := startTimer()
	matrix, err := sim.BuildMatrix()
	ls.matrixMs = ms(tm.stop().cpu)
	if err != nil {
		return nil, err
	}
	ls.matMiB = float64(matrix.SizeBytes()) / (1 << 20)
	if ls.sparsePath {
		matrix = nil // the engine does not keep it either
	}
	tm = startTimer()
	sparse, _, err := sim.BuildSparse(cases[0].p.Theta, strsim.BlockConfig{})
	ls.sparseMs = ms(tm.stop().cpu)
	if err != nil {
		return nil, err
	}
	sparseByTheta := map[float64]*strsim.SparseScores{cases[0].p.Theta: sparse}

	ctx, err := qef.NewContext(u)
	if err != nil {
		return nil, err
	}
	scores := map[float64]strsim.Scorer{}
	neighbors := map[float64][][]int{}
	seeds := map[float64]*cluster.SeedPairs{}
	scratch := &cluster.Scratch{}
	rng := rand.New(rand.NewSource(seed))
	var before, after runtime.MemStats
	for _, c := range cases {
		theta := c.p.Theta
		if _, ok := neighbors[theta]; !ok {
			if ls.sparsePath {
				sp, ok := sparseByTheta[theta]
				if !ok {
					if sp, _, err = sim.BuildSparse(theta, strsim.BlockConfig{}); err != nil {
						return nil, err
					}
				}
				scores[theta], neighbors[theta] = sp, sp.Neighbors(theta)
			} else {
				scores[theta], neighbors[theta] = matrix, matrix.Neighbors(theta)
			}
			seeds[theta] = cluster.BuildSeedPairs(u, nameIDs, neighbors[theta], scores[theta], theta)
		}
		cfg := cluster.Config{
			Theta: theta, Beta: c.p.Beta, Sim: sim, Scores: scores[theta],
			Neighbors: neighbors[theta], NameIDs: nameIDs, Seed: seeds[theta], Scratch: scratch,
		}
		comp, err := compositeFor(ctx, &c.p)
		if err != nil {
			return nil, err
		}
		sets := neighbourSets(u.N(), c, rng)

		// Per-call times go into a preallocated slice so the allocation
		// count between the two MemStats reads is the calls' own.
		durs := make([]float64, len(sets))
		runtime.ReadMemStats(&before)
		for i, s := range sets {
			t := time.Now()
			cluster.Match(u, s, c.p.Constraints.Sources, c.p.Constraints.GAs, cfg)
			durs[i] = us(time.Since(t))
		}
		runtime.ReadMemStats(&after)
		ls.matchUs = append(ls.matchUs, durs...)
		ls.matchAllocs += after.Mallocs - before.Mallocs
		ls.matchCalls += len(sets)

		if comp != nil {
			ss := make([]*model.SourceSet, len(sets))
			for i, s := range sets {
				ss[i] = model.NewSourceSetOf(u.N(), s...)
			}
			runtime.ReadMemStats(&before)
			for i, s := range ss {
				t := time.Now()
				comp.Eval(ctx, s)
				durs[i] = us(time.Since(t))
			}
			runtime.ReadMemStats(&after)
			ls.qefUs = append(ls.qefUs, durs...)
			ls.qefAllocs += after.Mallocs - before.Mallocs
			ls.qefCalls += len(ss)
		}

		for _, s := range sets {
			var sigs []*pcsa.Sketch
			for _, id := range s {
				if sig := u.Sources[id].Signature; sig != nil {
					sigs = append(sigs, sig)
				}
			}
			if len(sigs) == 0 {
				continue
			}
			t := time.Now()
			if _, err := pcsa.Union(sigs...); err != nil {
				return nil, err
			}
			ls.unionUs = append(ls.unionUs, us(time.Since(t)))
		}
	}
	return ls, nil
}

// compositeFor builds the non-match part of a problem's objective the
// way the engine does: the data QEFs, then one characteristic QEF per
// configured characteristic in name order, weighted by the problem's
// weights with the match weight removed. It returns nil when the match
// weight is the whole objective.
func compositeFor(ctx *qef.Context, p *engine.Problem) (*qef.Composite, error) {
	qefs := []qef.QEF{qef.Card{}, qef.Coverage{}, qef.Redundancy{}}
	chars := make([]string, 0, len(p.Characteristics))
	for name := range p.Characteristics {
		chars = append(chars, name)
	}
	sort.Strings(chars)
	for _, name := range chars {
		qefs = append(qefs, qef.Characteristic{Char: name, Agg: p.Characteristics[name]})
	}
	rest := qef.Weights{}
	restSum := 0.0
	for _, q := range qefs {
		rest[q.Name()] = p.Weights[q.Name()]
		restSum += p.Weights[q.Name()]
	}
	if restSum <= 1e-12 {
		return nil, nil
	}
	return qef.NewComposite(qefs, rest.Normalized())
}

// neighbourSets returns the case's chosen set followed by seeded
// one-swap neighbours: one member that no constraint requires is
// replaced by a non-member the problem does not exclude.
func neighbourSets(n int, c replayCase, rng *rand.Rand) [][]int {
	out := [][]int{append([]int(nil), c.set...)}
	fixed := map[int]bool{}
	for _, id := range c.p.Constraints.ImpliedSources() {
		fixed[id] = true
	}
	banned := map[int]bool{}
	for _, id := range c.p.Constraints.Exclude {
		banned[id] = true
	}
	in := map[int]bool{}
	var free []int
	for _, id := range c.set {
		in[id] = true
		if !fixed[id] {
			free = append(free, id)
		}
	}
	if len(free) == 0 || len(c.set) >= n {
		return out
	}
	for k := 0; k < replayNeighbours; k++ {
		drop := free[rng.Intn(len(free))]
		add := rng.Intn(n)
		for in[add] || banned[add] {
			add = rng.Intn(n)
		}
		s := make([]int, 0, len(c.set))
		for _, id := range c.set {
			if id != drop {
				s = append(s, id)
			}
		}
		s = append(s, add)
		sort.Ints(s)
		out = append(out, s)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// estimateShares prints the derived per-layer shares of the search time.
// They multiply a counter by a replayed per-call cost, so they are
// estimates: the replay runs each call in isolation, outside the
// solver's caches and scheduling.
func estimateShares(r *report) {
	search, _ := r.get("search.search_ms")
	if search.value <= 0 {
		return
	}
	runs, _ := r.get("match.runs")
	matchUs, _ := r.get("cluster.match_us")
	full, _ := r.get("qef.full")
	evalUs, _ := r.get("qef.eval_us")
	r.note("estimate: cluster share of search.search_ms = match.runs %.0f x cluster.match_us %.1f / %.1f ms = %.0f%%",
		runs.value, matchUs.value, search.value, 100*runs.value*matchUs.value/1000/search.value)
	r.note("estimate: qef share of search.search_ms = qef.full %.0f x qef.eval_us %.1f / %.1f ms = %.0f%% (includes the coverage and redundancy PCSA unions)",
		full.value, evalUs.value, search.value, 100*full.value*evalUs.value/1000/search.value)
	if union, ok := r.get("pcsa.union_us"); ok {
		r.note("estimate: pcsa whole-set unions inside qef = 2 x qef.full %.0f x pcsa.union_us %.1f / %.1f ms = %.0f%%",
			full.value, union.value, search.value, 100*2*full.value*union.value/1000/search.value)
	}
}

// checkReplayPath fails the run when the replay clustered on another
// scorer than the traced solves: an engine solve that runs the θ-sparse
// path charges blocking probes, one on the dense matrix charges none.
func checkReplayPath(r *report, ls *layerSamples) {
	probes, _ := r.get("block.probes")
	r.gate((probes.value > 0) == ls.sparsePath,
		"layer replay took the sparse path=%v at %d names, but the traced solves charged %.0f blocking probes", ls.sparsePath, ls.vocab, probes.value)
}

// recordOverhead reports how much slower the traced solves ran than the
// same solves untraced.
func recordOverhead(r *report, untracedMs, tracedMs float64) {
	r.set("trace.overhead_pct", 100*(tracedMs/untracedMs-1), "%")
	r.note("trace overhead: traced solves %.1f ms vs untraced %.1f ms over the same script", tracedMs, untracedMs)
}
