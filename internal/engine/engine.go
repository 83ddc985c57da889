// Package engine composes the µBE system (Figure 2 of the paper): it wires
// the schema matcher, the QEF framework and a combinatorial optimizer into
// a single Solve entry point, and hosts the iterative feedback Session
// through which users guide the search (§6).
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ube/internal/cluster"
	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/strsim"
	"ube/internal/trace"
)

// matrixLimit caps the vocabulary size for the dense precomputed
// similarity matrix (n² float32 cells — 4096 names cost 64 MiB).
// Beyond it the engine builds a θ-sparse neighbor table per solve
// threshold from the strsim blocking index; only when the measure has
// no sound blocking scheme (a non-n-gram measure) does it fall back to
// the lazy pairwise cache.
const matrixLimit = 4096

// matchCacheLimit bounds the Match memo table; candidate sets beyond this
// are evaluated without caching (the map is cleared, not grown).
const matchCacheLimit = 1 << 18

// Problem is one iteration's optimization problem (§2.5): the selection
// bound, clustering parameters, constraints, QEF weights and solver choice.
type Problem struct {
	// MaxSources is m, the maximum number of sources to select.
	MaxSources int
	// Theta is the matching-quality threshold θ (paper default 0.65).
	Theta float64
	// Beta is the minimum size β of non-constraint GAs (default 2).
	Beta int
	// Constraints are the user's source/GA constraints (and exclusions).
	Constraints model.Constraints
	// Weights assigns importance to every QEF by name; they must cover
	// exactly the configured QEFs and sum to 1.
	Weights qef.Weights
	// Characteristics configures one QEF per named source
	// characteristic, e.g. {"mttf": qef.WSum{}}.
	Characteristics map[string]qef.Aggregator
	// ExtraQEFs are caller-defined quality dimensions beyond the
	// built-in and characteristic QEFs — the §1 "define new quality
	// metrics" feedback move. Each must have a unique name covered by
	// Weights.
	ExtraQEFs []qef.QEF
	// InitialSources optionally warm-starts the solver from a known
	// candidate, typically the previous iteration's solution. Sessions
	// set this automatically.
	InitialSources []int
	// Optimizer picks the solver; nil means tabu search, the paper's
	// choice.
	Optimizer search.Optimizer
	// Seed drives the solver's randomness.
	Seed int64
	// MaxEvals optionally bounds objective evaluations (0 = solver
	// default).
	MaxEvals int
	// Workers fans candidate evaluations across goroutines inside the
	// solver (≤1 = sequential). Solves are deterministic for a fixed
	// (problem, seed, Workers).
	Workers int
	// BoundPruning lets delta-aware solvers skip the exact evaluation
	// of candidates whose objective upper bound (w_match·1 plus the
	// exactly-computed composite term) cannot beat the incumbent. The
	// returned Solution is byte-identical with or without pruning —
	// skipped candidates still cost one evaluation each — but the trace
	// counters differ (bound.skips appears, and qef work moves between
	// counters), so the flag is opt-in and defaults to off.
	BoundPruning bool
	// Progress, when non-nil, observes the solve: the solver calls it
	// from its deterministic best-so-far fold each time the incumbent
	// improves. It is a pure side channel (the server streams it over
	// SSE) and never influences the result; it must not block.
	Progress search.ProgressFunc
	// Trace, when non-nil, records the solve's span tree and work
	// counters (see internal/trace). Like Progress it is a pure side
	// channel and never influences the result: spans are opened only
	// from the sequential control path, and parallel workers contribute
	// only through atomic counters.
	Trace *trace.Tracer
}

// MatchQEFName is the QEF name of the matching quality F1.
const MatchQEFName = "match"

// DefaultProblem returns the paper's experimental defaults (§7.1): m=20,
// θ=0.65, β=2, weights 0.25/0.25/0.2/0.15/0.15 for match, cardinality,
// coverage, redundancy and MTTF (wsum-aggregated).
func DefaultProblem() Problem {
	return Problem{
		MaxSources:      20,
		Theta:           0.65,
		Beta:            2,
		Weights:         qef.Weights{MatchQEFName: 0.25, "card": 0.25, "coverage": 0.2, "redundancy": 0.15, "mttf": 0.15},
		Characteristics: map[string]qef.Aggregator{"mttf": qef.WSum{}},
		Seed:            1,
	}
}

// Solution is a solved iteration: the chosen sources, the generated
// mediated schema and the quality accounting the UI presents.
type Solution struct {
	// Sources is the chosen set S in ascending ID order.
	Sources []int
	// Set is S as a set.
	Set *model.SourceSet
	// Schema is the automatically generated mediated schema on S; nil
	// if no feasible solution was found.
	Schema *model.MediatedSchema
	// Match carries the per-GA quality detail of the final clustering.
	Match cluster.Result
	// Quality is the overall objective Q(S).
	Quality float64
	// Breakdown is each QEF's raw score on S, keyed by QEF name.
	Breakdown map[string]float64
	// Feasible reports whether the schema satisfies the constraints.
	Feasible bool
	// Evals counts objective evaluations spent by the solver.
	Evals int
	// MatchCache reports the Match memo table's hit/miss/eviction counts
	// during this solve (all zero when memoization is disabled).
	MatchCache CacheStats
	// Elapsed is the wall-clock solve time.
	//ube:operational timing metadata for humans; replay comparisons zero it
	Elapsed time.Duration
}

// Engine holds the per-universe state shared across iterations: the QEF
// context (signature unions, characteristic ranges), the interned
// similarity vocabulary, the clustering fast-path indexes and the Match
// memo table.
type Engine struct {
	u      *model.Universe
	ctx    *qef.Context
	sim    *strsim.Cache
	scores strsim.Scorer
	matrix *strsim.Matrix // nil when the vocabulary exceeds matrixLimit

	// nameIDs maps (source, attribute index) to the interned name ID so
	// the matcher skips per-call interning.
	nameIDs [][]int
	// neighborsByTheta caches the ≥θ name adjacency index per threshold.
	neighborsByTheta map[float64][][]int
	// sparseByTheta caches the θ-sparse scorer per threshold on large
	// vocabularies; a stored nil means the measure does not support
	// blocking and the θ falls back to the lazy cache.
	sparseByTheta map[float64]*strsim.SparseScores
	// block configures the blocking index behind sparseByTheta.
	block strsim.BlockConfig
	// seedByTheta caches the precomputed round-1 clustering agenda per
	// threshold (see cluster.SeedPairs); entries may be nil when the
	// universe doesn't qualify for the fast path.
	seedByTheta map[float64]*cluster.SeedPairs

	// Churn state (see churn.go), nil/false until the first ApplyChurn
	// so never-churned engines keep the exact pre-churn paths and costs.
	// churned switches sparse() from batch builds to the dynamic per-θ
	// indexes; matrixDirty marks the dense matrix for lazy rebuild.
	churned     bool
	matrixDirty bool
	// dynByTheta holds the incrementally maintained blocking index per
	// threshold; a stored nil means the measure doesn't support blocking.
	dynByTheta map[float64]*strsim.DynSparse
	// dynCharged remembers how much of each dynamic index's cumulative
	// work counters were already charged to a solve's trace.
	dynCharged map[float64]strsim.BlockStats
	// nameRefs counts, per interned name ID, the live attribute slots
	// using that name; 0→1 and 1→0 transitions drive index maintenance.
	nameRefs map[int]int
	// sigCounter maintains the union of all cooperative signatures so
	// the QEF context can be rebased without rescanning the universe.
	sigCounter *pcsa.UnionCounter
	// scratch pools the matcher's reusable working memory (*matchScratch);
	// one per concurrent evaluation worker.
	scratch sync.Pool

	// faults arms the engine's injection points (solve.cancel-midway,
	// snapshot.evict); nil outside chaos runs. See internal/faultinject.
	faults *faultinject.Injector

	// matchMu guards matchCache and the cache statistics; parallel solves
	// evaluate candidates concurrently.
	matchMu    sync.Mutex
	matchCache map[string]cachedMatch
	// matchStamp identifies the clustering parameters (θ, β,
	// constraints) the cached entries were computed under; a solve with
	// different parameters invalidates the table.
	matchStamp string
	cacheStats CacheStats
}

type cachedMatch struct {
	quality float64
	valid   bool
}

// CacheStats counts Match memo table traffic. Hits and Misses cover the
// lookups; Evictions counts entries dropped to keep the table bounded.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

func (s CacheStats) sub(o CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses, Evictions: s.Evictions - o.Evictions}
}

// Option configures engine construction.
type Option func(*options)

type options struct {
	measure     strsim.Measure
	noCache     bool
	faults      *faultinject.Injector
	block       strsim.BlockConfig
	forceSparse bool
}

// WithMeasure overrides the attribute similarity measure (default: the
// paper's Jaccard over 3-grams).
func WithMeasure(m strsim.Measure) Option {
	return func(o *options) { o.measure = m }
}

// WithoutMatchCache disables Match memoization; it exists for ablation
// benchmarks that quantify what the cache buys.
func WithoutMatchCache() Option {
	return func(o *options) { o.noCache = true }
}

// WithBlocking overrides the blocking-index configuration used to build
// the θ-sparse scorer on large vocabularies — e.g. to select the
// MinHash-LSH mode instead of the default exact-recall prefix filter.
// It has no effect on vocabularies small enough for the dense matrix.
func WithBlocking(cfg strsim.BlockConfig) Option {
	return func(o *options) { o.block = cfg }
}

// WithSparseScores forces the θ-sparse blocking path even when the
// vocabulary would fit the dense matrix. Solves are bit-identical to the
// dense path whenever the blocking index has perfect recall (always, in
// the default prefix-filter mode); the option exists so differential
// tests and the scale experiment can compare the two paths on one
// universe.
func WithSparseScores() Option {
	return func(o *options) { o.forceSparse = true }
}

// WithFaultInjector arms the engine's named fault-injection points
// (solve.cancel-midway, snapshot.evict) with a chaos plan; see
// internal/faultinject. Injected faults never change solve results:
// cancellation truncates a search exactly like a caller cancellation,
// and snapshot eviction only forces a pure cache rebuild.
func WithFaultInjector(in *faultinject.Injector) Option {
	return func(o *options) { o.faults = in }
}

// New builds an engine over a universe: validates it, interns every
// attribute name and precomputes the similarity matrix when the vocabulary
// is small enough.
func New(u *model.Universe, opts ...Option) (*Engine, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	ctx, err := qef.NewContext(u)
	if err != nil {
		return nil, err
	}
	sim := strsim.NewCache(o.measure)
	nameIDs := make([][]int, len(u.Sources))
	for i := range u.Sources {
		attrs := u.Sources[i].Attributes
		nameIDs[i] = make([]int, len(attrs))
		for a, name := range attrs {
			nameIDs[i][a] = sim.Intern(name)
		}
	}
	e := &Engine{
		u:                u,
		ctx:              ctx,
		sim:              sim,
		nameIDs:          nameIDs,
		neighborsByTheta: make(map[float64][][]int),
		sparseByTheta:    make(map[float64]*strsim.SparseScores),
		seedByTheta:      make(map[float64]*cluster.SeedPairs),
		faults:           o.faults,
		block:            o.block,
	}
	e.scratch.New = func() any { return &matchScratch{} }
	if !o.noCache {
		e.matchCache = make(map[string]cachedMatch)
	}
	if sim.Len() <= matrixLimit && !o.forceSparse {
		m, err := sim.BuildMatrix()
		if err != nil {
			return nil, err
		}
		e.matrix = m
		e.scores = m
	} else {
		// Large vocabulary: no dense matrix. Solves route through a
		// per-θ sparse scorer built lazily (see scoresFor); e.scores
		// remains the measure-exact fallback.
		e.scores = sim
	}
	return e, nil
}

// Universe returns the engine's universe.
func (e *Engine) Universe() *model.Universe { return e.u }

// Context returns the engine's QEF context.
func (e *Engine) Context() *qef.Context { return e.ctx }

// VocabularySize reports the number of distinct normalized attribute names.
func (e *Engine) VocabularySize() int { return e.sim.Len() }

// validate checks a problem against the universe.
func (e *Engine) validate(p *Problem) error {
	if p.MaxSources < 1 {
		return fmt.Errorf("engine: MaxSources = %d", p.MaxSources)
	}
	if p.MaxSources > e.u.N() {
		return fmt.Errorf("engine: MaxSources %d exceeds universe size %d", p.MaxSources, e.u.N())
	}
	if !(p.Theta >= 0 && p.Theta <= 1) { // also rejects NaN
		return fmt.Errorf("engine: theta %v outside [0,1]", p.Theta)
	}
	if p.Beta < 1 {
		return fmt.Errorf("engine: beta %d < 1", p.Beta)
	}
	if err := p.Constraints.Validate(e.u); err != nil {
		return err
	}
	if req := p.Constraints.ImpliedSources(); len(req) > p.MaxSources {
		return fmt.Errorf("engine: constraints imply %d sources, more than m = %d", len(req), p.MaxSources)
	}
	return nil
}

// buildQEFs assembles the QEF list for a problem: the data QEFs, one
// Characteristic QEF per configured characteristic, and any caller-defined
// extra QEFs.
func (e *Engine) buildQEFs(p *Problem) ([]qef.QEF, error) {
	qefs := []qef.QEF{qef.Card{}, qef.Coverage{}, qef.Redundancy{}}
	// Characteristic QEFs in sorted name order: the composite sums its
	// terms in slice order, and float addition order must not depend on
	// map iteration.
	chars := make([]string, 0, len(p.Characteristics))
	for name := range p.Characteristics {
		chars = append(chars, name)
	}
	sort.Strings(chars)
	for _, name := range chars {
		agg := p.Characteristics[name]
		if agg == nil {
			return nil, fmt.Errorf("engine: nil aggregator for characteristic %q", name)
		}
		if _, _, ok := e.ctx.CharRange(name); !ok {
			return nil, fmt.Errorf("engine: no source defines characteristic %q", name)
		}
		qefs = append(qefs, qef.Characteristic{Char: name, Agg: agg})
	}
	seen := make(map[string]bool, len(qefs)+len(p.ExtraQEFs)+1)
	seen[MatchQEFName] = true
	for _, q := range qefs {
		seen[q.Name()] = true
	}
	for _, q := range p.ExtraQEFs {
		if q == nil {
			return nil, fmt.Errorf("engine: nil extra QEF")
		}
		if seen[q.Name()] {
			return nil, fmt.Errorf("engine: duplicate QEF name %q", q.Name())
		}
		seen[q.Name()] = true
		qefs = append(qefs, q)
	}
	return qefs, nil
}

// restampMatchCache clears the Match memo table when the clustering
// parameters differ from those its entries were computed under: cached F1
// values are only valid for one (θ, β, C, G) configuration.
func (e *Engine) restampMatchCache(p *Problem) {
	if e.matchCache == nil {
		return
	}
	stamp := fmt.Sprintf("%v|%d|%v|%v", p.Theta, p.Beta, p.Constraints.Sources, p.Constraints.GAs)
	e.matchMu.Lock()
	if stamp != e.matchStamp {
		clear(e.matchCache)
		e.matchStamp = stamp
	}
	e.matchMu.Unlock()
}

// matchQuality runs (or recalls) the constrained clustering for S and
// returns F1 and feasibility.
func (e *Engine) matchQuality(S *model.SourceSet, cfg cluster.Config, C []int, G []model.GA) (float64, bool) {
	if e.matchCache == nil {
		return e.runMatch(S, cfg, C, G)
	}
	key := S.Key()
	e.matchMu.Lock()
	hit, ok := e.matchCache[key]
	if ok {
		e.cacheStats.Hits++
	} else {
		e.cacheStats.Misses++
	}
	e.matchMu.Unlock()
	if ok {
		// Hit/miss traffic is deterministic for a fixed (problem, seed,
		// Workers) on a fresh engine: evaluation batches are barriers, so
		// which lookups find an earlier batch's publish never depends on
		// scheduling. (After a random-replacement eviction the counts
		// become load-dependent — evictions themselves are operational.)
		cfg.Stats.Add(trace.CMatchHits, 1)
		return hit.quality, hit.valid
	}
	cfg.Stats.Add(trace.CMatchMisses, 1)
	quality, valid := e.runMatch(S, cfg, C, G)
	e.matchMu.Lock()
	if len(e.matchCache) >= matchCacheLimit {
		// Evict about half the table rather than clearing it wholesale:
		// a full clear made every in-flight candidate a miss at once — a
		// latency cliff exactly when the search was deep into a solve —
		// while halving keeps half the working set warm. Map iteration
		// order is random, so this is random replacement.
		target := matchCacheLimit / 2
		//ube:nondeterministic-ok random replacement is the eviction policy; cached values are exact memos, so survivors never change results
		for k := range e.matchCache {
			if len(e.matchCache) <= target {
				break
			}
			delete(e.matchCache, k)
			e.cacheStats.Evictions++
			cfg.Stats.Add(trace.OMatchEvictions, 1)
		}
	}
	e.matchCache[key] = cachedMatch{quality: quality, valid: valid}
	e.matchMu.Unlock()
	return quality, valid
}

// matchScratch is one evaluation worker's working memory for runMatch.
type matchScratch struct {
	cluster cluster.Scratch
	ids     []int // the candidate set's members
}

// runMatch executes one quality-only clustering with pooled scratch
// memory; once the pooled buffers have grown it allocates nothing.
func (e *Engine) runMatch(S *model.SourceSet, cfg cluster.Config, C []int, G []model.GA) (float64, bool) {
	ms := e.scratch.Get().(*matchScratch)
	cfg.Scratch = &ms.cluster
	ms.ids = S.AppendElements(ms.ids[:0])
	quality, valid := cluster.MatchQuality(e.u, ms.ids, C, G, cfg)
	e.scratch.Put(ms)
	return quality, valid
}

// Solve runs one µBE iteration: it builds the objective from the problem's
// QEFs and weights, dispatches the optimizer over the constrained search
// space, and re-runs the matcher on the winning set to produce the full
// mediated schema.
func (e *Engine) Solve(p *Problem) (*Solution, error) {
	return e.SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation: ctx is plumbed into the
// optimizer, which checks it at iteration boundaries and stops promptly
// when it is cancelled, in which case SolveContext returns ctx.Err()
// instead of a solution. A nil ctx behaves like context.Background().
// For any ctx that is never cancelled the solve is byte-identical to
// Solve — cancellation can only truncate a search, never reroute it.
func (e *Engine) SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	//ube:nondeterministic-ok wall-clock Elapsed reporting only; never feeds the objective
	start := time.Now()
	tr := p.Trace
	root := tr.Begin("solve")
	defer tr.End(root)
	setupSpan := tr.Begin("setup")
	if err := e.validate(p); err != nil {
		return nil, err
	}
	qefs, err := e.buildQEFs(p)
	if err != nil {
		return nil, err
	}
	// The weight map must cover the data/characteristic QEFs plus F1.
	names := append([]qef.QEF{fakeMatchQEF{}}, qefs...)
	if err := p.Weights.Validate(names); err != nil {
		return nil, err
	}
	// The composite covers every QEF but F1 with weights rescaled to sum
	// to 1; the objective multiplies it back by (1 − w_match) so each
	// QEF keeps its user-assigned weight. With w_match == 1 there is no
	// composite at all.
	wMatch := p.Weights[MatchQEFName]
	wRest := 1 - wMatch
	var comp *qef.Composite
	if wRest > weightEpsilon {
		comp, err = qef.NewComposite(qefs, restWeights(p.Weights))
		if err != nil {
			return nil, err
		}
	} else {
		wRest = 0
		comp, err = qef.NewComposite(qefs, uniformWeights(qefs))
		if err != nil {
			return nil, err
		}
	}

	scores, nbrs := e.scoresFor(p.Theta, tr.Stats())
	clusterCfg := cluster.Config{
		Theta:     p.Theta,
		Beta:      p.Beta,
		Sim:       e.sim,
		Scores:    scores,
		Neighbors: nbrs,
		NameIDs:   e.nameIDs,
		Seed:      e.seedPairs(p.Theta, scores, nbrs),
		Stats:     tr.Stats(),
	}
	C := p.Constraints.Sources
	G := p.Constraints.GAs
	e.restampMatchCache(p)
	e.matchMu.Lock()
	statsBefore := e.cacheStats
	e.matchMu.Unlock()

	objective := func(S *model.SourceSet) (float64, bool) {
		f1, valid := e.matchQuality(S, clusterCfg, C, G)
		q := wMatch * f1
		if wRest > 0 {
			clusterCfg.Stats.Add(trace.CQEFFull, 1)
			q += wRest * comp.Eval(e.ctx, S)
		}
		return q, valid
	}

	opt := p.Optimizer
	if opt == nil {
		opt = search.NewTabu()
	}
	prob := &search.Problem{
		N:         e.u.N(),
		M:         p.MaxSources,
		Required:  p.Constraints.ImpliedSources(),
		Excluded:  p.Constraints.Exclude,
		Initial:   p.InitialSources,
		Objective: objective,
		MaxEvals:  p.MaxEvals,
		Workers:   p.Workers,
		Ctx:       ctx,
		Progress:  p.Progress,
		Tracer:    p.Trace,
	}
	dobj, bound := e.deltaObjective(comp, wMatch, wRest, clusterCfg, C, G)
	prob.DeltaObjective = dobj
	if p.BoundPruning {
		prob.Bound = bound
	}
	if armedCtx, cancel := e.armSolveFaults(ctx, prob); cancel != nil {
		defer cancel()
		ctx = armedCtx
		prob.Ctx = armedCtx
	}
	tr.End(setupSpan)
	searchSpan := tr.Begin("search")
	res := opt.Optimize(prob, p.Seed)
	tr.End(searchSpan)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// The optimizer stopped early on cancellation; its truncated
			// best-so-far is not a solve result.
			return nil, err
		}
	}

	e.matchMu.Lock()
	statsAfter := e.cacheStats
	e.matchMu.Unlock()
	sol := &Solution{
		Sources:    res.S.Elements(),
		Set:        res.S,
		Quality:    res.Quality,
		Feasible:   res.Feasible,
		Evals:      res.Evals,
		MatchCache: statsAfter.sub(statsBefore),
	}
	// Re-run the matcher once on the final set for the full schema (the
	// memo table only keeps scalar results).
	finalSpan := tr.Begin("final")
	final := cluster.Match(e.u, sol.Sources, C, G, clusterCfg)
	sol.Match = final
	sol.Schema = final.Schema
	sol.Breakdown = comp.Breakdown(e.ctx, res.S)
	sol.Breakdown[MatchQEFName] = final.Quality
	tr.End(finalSpan)
	//ube:nondeterministic-ok wall-clock Elapsed reporting only; never feeds the objective
	sol.Elapsed = time.Since(start)
	return sol, nil
}

// weightEpsilon is the smallest non-match weight mass treated as nonzero.
const weightEpsilon = 1e-12

// scoresFor returns the scorer and ≥θ name adjacency a solve at theta
// should cluster with: the dense matrix when the vocabulary fits,
// otherwise a θ-sparse table built lazily from the blocking index. A
// measure with no sound blocking scheme (or a θ outside the blockable
// range) falls back to the lazy pairwise cache with no adjacency index
// — the pre-blocking behavior.
func (e *Engine) scoresFor(theta float64, st *trace.Stats) (strsim.Scorer, [][]int) {
	e.refreshMatrix()
	if e.matrix != nil {
		return e.matrix, e.neighbors(theta)
	}
	sp := e.sparse(theta, st)
	if sp == nil {
		return e.scores, nil
	}
	return sp, e.neighbors(theta)
}

// refreshMatrix lazily rebuilds (or drops) the dense similarity matrix
// after churn mutated the vocabulary: one rebuild per churn burst, paid
// by the first solve, with pair scores recalled from the lazy cache's
// memo. A vocabulary grown past matrixLimit demotes the engine to the
// θ-sparse path permanently — the path choice is sticky, matching the
// construction-time rule.
func (e *Engine) refreshMatrix() {
	if !e.matrixDirty {
		return
	}
	e.matrixDirty = false
	if e.sim.Len() <= matrixLimit {
		if m, err := e.sim.BuildMatrix(); err == nil {
			e.matrix = m
			e.scores = m
			return
		}
	}
	e.matrix = nil
	e.scores = e.sim
}

// sparse returns (building and caching on first use) the θ-sparse
// scorer for a large vocabulary, or nil when the measure doesn't
// support blocking. The build's deterministic work counts are charged
// to the solve that triggered it (block.* counters); later solves at
// the same θ reuse the table for free. On a churned engine the table
// is frozen from the incrementally maintained dynamic index instead of
// batch-built, and only the work done since the last freeze is charged.
func (e *Engine) sparse(theta float64, st *trace.Stats) *strsim.SparseScores {
	if sp, ok := e.sparseByTheta[theta]; ok {
		return sp
	}
	if e.churned {
		return e.sparseFromDyn(theta, st)
	}
	sp, bs, err := e.sim.BuildSparse(theta, e.block)
	if err != nil {
		sp = nil
	}
	e.sparseByTheta[theta] = sp
	st.Add(trace.CBlockProbes, bs.Probes)
	st.Add(trace.CBlockCandidates, bs.Candidates)
	st.Add(trace.CBlockPruned, bs.Pruned)
	return sp
}

// sparseFromDyn freezes the dynamic blocking index for θ, creating it
// on first use by inserting every live name in ascending ID order (so
// construction is deterministic regardless of churn history).
func (e *Engine) sparseFromDyn(theta float64, st *trace.Stats) *strsim.SparseScores {
	d, ok := e.dynByTheta[theta]
	if !ok {
		nd, err := strsim.NewDynSparse(e.sim, theta, e.block)
		if err != nil {
			nd = nil
		} else {
			ids := make([]int, 0, len(e.nameRefs))
			for id := range e.nameRefs {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				if err := nd.Insert(id); err != nil {
					panic(fmt.Sprintf("engine: churn desync: seed θ=%v index with name %d: %v", theta, id, err))
				}
			}
		}
		e.dynByTheta[theta] = nd
		d = nd
	}
	if d == nil {
		e.sparseByTheta[theta] = nil
		return nil
	}
	sp := d.Freeze()
	e.sparseByTheta[theta] = sp
	bs, charged := d.Stats(), e.dynCharged[theta]
	st.Add(trace.CBlockProbes, bs.Probes-charged.Probes)
	st.Add(trace.CBlockCandidates, bs.Candidates-charged.Candidates)
	st.Add(trace.CBlockPruned, bs.Pruned-charged.Pruned)
	e.dynCharged[theta] = bs
	return sp
}

// neighbors returns (building and caching on first use) the ≥θ name
// adjacency index for the engine's vocabulary — from the dense matrix
// when it exists, else from the θ-sparse table (which must already be
// cached for this θ) — or nil when neither is available.
func (e *Engine) neighbors(theta float64) [][]int {
	if n, ok := e.neighborsByTheta[theta]; ok {
		return n
	}
	var n [][]int
	switch {
	case e.matrix != nil:
		n = e.matrix.Neighbors(theta)
	case e.sparseByTheta[theta] != nil:
		n = e.sparseByTheta[theta].Neighbors(theta)
	default:
		return nil
	}
	e.neighborsByTheta[theta] = n
	return n
}

// restWeights strips the match weight and rescales the remainder to sum
// to 1 so the inner composite validates; the objective multiplies the
// composite back by (1 − w_match).
func restWeights(w qef.Weights) qef.Weights {
	out := make(qef.Weights, len(w))
	//ube:nondeterministic-ok key-for-key map filter is order-independent; Normalized sums in sorted key order
	for k, v := range w {
		if k != MatchQEFName {
			out[k] = v
		}
	}
	return out.Normalized()
}

// uniformWeights gives every QEF equal weight; used only to build a
// breakdown-capable composite when w_match == 1.
func uniformWeights(qefs []qef.QEF) qef.Weights {
	out := make(qef.Weights, len(qefs))
	for _, q := range qefs {
		out[q.Name()] = 1 / float64(len(qefs))
	}
	return out
}

// fakeMatchQEF lets Weights.Validate account for the F1 weight; it is
// never evaluated.
type fakeMatchQEF struct{}

func (fakeMatchQEF) Name() string { return MatchQEFName }
func (fakeMatchQEF) Eval(*qef.Context, *model.SourceSet) float64 {
	panic("engine: the match QEF is evaluated by the engine, not the composite")
}
