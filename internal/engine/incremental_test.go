package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ube/internal/cluster"
	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
)

// solveObjectives rebuilds the full and delta objectives exactly as Solve
// wires them, so the differential test can probe them directly.
func solveObjectives(t *testing.T, e *Engine, p *Problem) (search.Objective, search.DeltaObjective) {
	t.Helper()
	qefs, err := e.buildQEFs(p)
	if err != nil {
		t.Fatal(err)
	}
	wMatch := p.Weights[MatchQEFName]
	wRest := 1 - wMatch
	comp, err := qef.NewComposite(qefs, restWeights(p.Weights))
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(e, p)
	C, G := p.Constraints.Sources, p.Constraints.GAs
	full := func(S *model.SourceSet) (float64, bool) {
		f1, valid := e.matchQuality(S, cfg, C, G)
		return wMatch*f1 + wRest*comp.Eval(e.ctx, S), valid
	}
	dobj, _ := e.deltaObjective(comp, wMatch, wRest, cfg, C, G)
	return full, dobj
}

// clusterConfig mirrors Solve's cluster.Config construction.
func clusterConfig(e *Engine, p *Problem) cluster.Config {
	nbrs := e.neighbors(p.Theta)
	return cluster.Config{
		Theta:     p.Theta,
		Beta:      p.Beta,
		Sim:       e.sim,
		Scores:    e.scores,
		Neighbors: nbrs,
		NameIDs:   e.nameIDs,
		Seed:      e.seedPairs(p.Theta, e.scores, nbrs),
	}
}

// TestDeltaObjectiveMatchesFull walks random add/drop/swap sequences and
// checks the incremental objective agrees with the full objective within
// 1e-12 at every step — the satellite differential property the issue
// requires.
func TestDeltaObjectiveMatchesFull(t *testing.T) {
	e, _ := testEngine(t, 24)
	p := DefaultProblem()
	p.MaxSources = 8
	full, delta := solveObjectives(t, e, &p)

	r := rand.New(rand.NewSource(11))
	n := e.u.N()
	cur := model.NewSourceSet(n)
	for cur.Len() < 6 {
		cur.Add(r.Intn(n))
	}
	for step := 0; step < 300; step++ {
		cand := cur.Clone()
		d := search.Delta{Base: cur, Add: -1, Drop: -1}
		switch r.Intn(3) {
		case 0: // add
			id := r.Intn(n)
			if cand.Has(id) {
				continue
			}
			cand.Add(id)
			d.Add = id
		case 1: // drop
			if cur.Len() <= 1 {
				continue
			}
			els := cur.Elements()
			id := els[r.Intn(len(els))]
			cand.Remove(id)
			d.Drop = id
		default: // swap
			if cur.Len() <= 1 {
				continue
			}
			els := cur.Elements()
			out := els[r.Intn(len(els))]
			in := r.Intn(n)
			if cand.Has(in) {
				continue
			}
			cand.Remove(out)
			cand.Add(in)
			d.Drop, d.Add = out, in
		}
		gotQ, gotOK := delta(cand, d)
		wantQ, wantOK := full(cand)
		if gotOK != wantOK || math.Abs(gotQ-wantQ) > 1e-12 {
			t.Fatalf("step %d (add=%d drop=%d): delta (%v,%v) vs full (%v,%v)",
				step, d.Add, d.Drop, gotQ, gotOK, wantQ, wantOK)
		}
		if r.Intn(2) == 0 {
			cur = cand
		}
	}
}

// TestSolveMatchesPlainObjective solves the same problems through the
// engine and through a plain objective built here — cluster.Match with a
// bare Config (no NameIDs, Seed or Scratch), no match memo and no delta
// objective — driven by the same optimizer: the chosen sources must be
// identical and the quality equal to float reassociation error.
func TestSolveMatchesPlainObjective(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, _ := testEngine(t, 40)
		p := smallProblem()
		p.MaxSources = 10
		p.MaxEvals = 1500
		p.Workers = workers

		got, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		if got.MatchCache.Hits+got.MatchCache.Misses == 0 {
			t.Fatal("no match cache traffic recorded")
		}

		qefs, err := e.buildQEFs(&p)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := qef.NewComposite(qefs, restWeights(p.Weights))
		if err != nil {
			t.Fatal(err)
		}
		wMatch := p.Weights[MatchQEFName]
		cfg := cluster.Config{Theta: p.Theta, Beta: p.Beta, Sim: e.sim, Scores: e.scores, Neighbors: e.neighbors(p.Theta)}
		C, G := p.Constraints.Sources, p.Constraints.GAs
		want := search.NewTabu().Optimize(&search.Problem{
			N:        e.u.N(),
			M:        p.MaxSources,
			Required: p.Constraints.ImpliedSources(),
			Excluded: p.Constraints.Exclude,
			Initial:  p.InitialSources,
			Objective: func(S *model.SourceSet) (float64, bool) {
				res := cluster.Match(e.u, S.Elements(), C, G, cfg)
				return wMatch*res.Quality + (1-wMatch)*comp.Eval(e.ctx, S), res.Valid
			},
			MaxEvals: p.MaxEvals,
			Workers:  p.Workers,
		}, p.Seed)

		if !reflect.DeepEqual(got.Sources, want.S.Elements()) {
			t.Fatalf("workers=%d: engine chose %v, plain objective chose %v", workers, got.Sources, want.S.Elements())
		}
		if math.Abs(got.Quality-want.Quality) > 1e-9 {
			t.Fatalf("workers=%d: quality %v vs %v", workers, got.Quality, want.Quality)
		}
	}
}

// TestSolveIncrementalDeterministic pins determinism of the incremental
// pipeline under parallel evaluation: repeated solves with Workers > 1
// must return byte-identical solutions (also exercised under -race).
func TestSolveIncrementalDeterministic(t *testing.T) {
	e, _ := testEngine(t, 40)
	p := smallProblem()
	p.MaxSources = 10
	p.MaxEvals = 1200
	p.Workers = 4

	first, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Sources, again.Sources) || first.Quality != again.Quality {
			t.Fatalf("run %d diverged: %v q=%v vs %v q=%v",
				i, first.Sources, first.Quality, again.Sources, again.Quality)
		}
	}
}
