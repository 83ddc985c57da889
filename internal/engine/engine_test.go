package engine

import (
	"math"
	"testing"

	"ube/internal/model"
	"ube/internal/qef"
	"ube/internal/search"
	"ube/internal/synth"
)

// testEngine builds an engine over a small synthetic universe.
func testEngine(t *testing.T, n int) (*Engine, *synth.Truth) {
	t.Helper()
	cfg := synth.QuickConfig(n)
	u, truth, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	return e, truth
}

func smallProblem() Problem {
	p := DefaultProblem()
	p.MaxSources = 8
	p.MaxEvals = 1500
	return p
}

func TestSolveEndToEnd(t *testing.T) {
	e, _ := testEngine(t, 40)
	p := smallProblem()
	sol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("unconstrained solve on a books universe must be feasible")
	}
	if len(sol.Sources) == 0 || len(sol.Sources) > p.MaxSources {
		t.Errorf("selected %d sources for m=%d", len(sol.Sources), p.MaxSources)
	}
	if sol.Schema == nil || len(sol.Schema.GAs) == 0 {
		t.Fatal("no mediated schema produced")
	}
	if !sol.Schema.Valid() {
		t.Error("schema invalid")
	}
	if sol.Quality <= 0 || sol.Quality > 1 {
		t.Errorf("quality %v out of range", sol.Quality)
	}
	// Breakdown must carry all five QEFs and reassemble to Quality.
	names := []string{MatchQEFName, "card", "coverage", "redundancy", "mttf"}
	sum := 0.0
	for _, n := range names {
		v, ok := sol.Breakdown[n]
		if !ok {
			t.Fatalf("breakdown missing %q", n)
		}
		if v < 0 || v > 1 {
			t.Errorf("breakdown[%s] = %v", n, v)
		}
		sum += p.Weights[n] * v
	}
	if math.Abs(sum-sol.Quality) > 1e-9 {
		t.Errorf("breakdown reassembles to %v, quality is %v", sum, sol.Quality)
	}
	if sol.Evals == 0 || sol.Elapsed <= 0 {
		t.Error("accounting fields unset")
	}
}

func TestSolveHonorsConstraints(t *testing.T) {
	e, truth := testEngine(t, 40)
	p := smallProblem()
	p.Constraints.Sources = []int{truth.Unperturbed[3], truth.Unperturbed[7]}
	p.Constraints.Exclude = []int{5, 11}
	sol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.Constraints.Sources {
		if !sol.Set.Has(id) {
			t.Errorf("required source %d missing", id)
		}
	}
	for _, id := range p.Constraints.Exclude {
		if sol.Set.Has(id) {
			t.Errorf("excluded source %d selected", id)
		}
	}
	if sol.Feasible && !sol.Schema.ValidOn(p.Constraints.Sources) {
		t.Error("feasible solution's schema not valid on C")
	}
}

func TestSolveHonorsGAConstraints(t *testing.T) {
	e, _ := testEngine(t, 40)
	u := e.Universe()
	// Pin two attributes from sources 0 and 1 into one GA.
	g := model.NewGA(
		model.AttrRef{Source: 0, Attr: 0},
		model.AttrRef{Source: 1, Attr: 0},
	)
	p := smallProblem()
	p.Constraints.GAs = []model.GA{g}
	sol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	// GA-implied sources are required.
	if !sol.Set.Has(0) || !sol.Set.Has(1) {
		t.Error("GA-implied sources not selected")
	}
	if sol.Schema == nil {
		t.Fatal("no schema")
	}
	if !sol.Schema.Subsumes(&model.MediatedSchema{GAs: []model.GA{g}}) {
		t.Errorf("schema does not subsume the GA constraint; GAs: %v (names %q/%q)",
			sol.Schema.GAs, u.AttrName(g[0]), u.AttrName(g[1]))
	}
}

func TestSolveValidation(t *testing.T) {
	e, _ := testEngine(t, 20)
	mut := func(f func(*Problem)) *Problem {
		p := smallProblem()
		f(&p)
		return &p
	}
	bad := []*Problem{
		mut(func(p *Problem) { p.MaxSources = 0 }),
		mut(func(p *Problem) { p.MaxSources = 21 }),
		mut(func(p *Problem) { p.Theta = 1.5 }),
		mut(func(p *Problem) { p.Theta = math.NaN() }),
		mut(func(p *Problem) { p.Beta = 0 }),
		mut(func(p *Problem) { p.Constraints.Sources = []int{99} }),
		mut(func(p *Problem) {
			p.MaxSources = 1
			p.Constraints.Sources = []int{0, 1}
		}),
		mut(func(p *Problem) { p.Weights = qef.Weights{"card": 1} }),
		mut(func(p *Problem) { p.Weights[MatchQEFName] = 0.5 }), // sum != 1
		mut(func(p *Problem) { p.Characteristics = map[string]qef.Aggregator{"latency": qef.WSum{}} }),
		mut(func(p *Problem) { p.Characteristics = map[string]qef.Aggregator{"mttf": nil} }),
	}
	for i, p := range bad {
		if _, err := e.Solve(p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
	// A NaN θ never equals itself as a map key, so a solve that got past
	// validation would leave a fresh unreachable entry in each per-θ
	// cache every time.
	if n, s := len(e.neighborsByTheta), len(e.seedByTheta); n != 0 || s != 0 {
		t.Errorf("rejected problems left %d neighbour and %d seed-pair cache entries", n, s)
	}
}

func TestSolveMatchOnlyWeights(t *testing.T) {
	// w_match = 1: the engine must not choke on an empty composite.
	e, _ := testEngine(t, 30)
	p := smallProblem()
	p.Weights = qef.Weights{MatchQEFName: 1, "card": 0, "coverage": 0, "redundancy": 0, "mttf": 0}
	sol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Quality-sol.Breakdown[MatchQEFName]) > 1e-9 {
		t.Errorf("match-only quality %v != F1 %v", sol.Quality, sol.Breakdown[MatchQEFName])
	}
}

func TestSolveDeterminism(t *testing.T) {
	e, _ := testEngine(t, 30)
	p := smallProblem()
	a, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Set.Equal(b.Set) || a.Quality != b.Quality {
		t.Error("same problem+seed gave different solutions")
	}
	p2 := smallProblem()
	p2.Seed = 77
	c, err := e.Solve(&p2)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; just must not error
}

func TestSolveWithAllOptimizers(t *testing.T) {
	e, _ := testEngine(t, 30)
	for _, name := range []string{"tabu", "sls", "anneal", "pso", "greedy"} {
		opt, _ := search.ByName(name)
		p := smallProblem()
		p.Optimizer = opt
		p.MaxEvals = 800
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Feasible {
			t.Errorf("%s: infeasible on an easy universe", name)
		}
	}
}

func TestMatchCacheConsistency(t *testing.T) {
	// Solving twice reuses the cache; results must match a fresh engine.
	cfg := synth.QuickConfig(25)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProblem()
	warm1, err := e1.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := e1.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e2.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if warm1.Quality != cold.Quality || warm2.Quality != cold.Quality {
		t.Errorf("cache changed results: %v / %v / %v", warm1.Quality, warm2.Quality, cold.Quality)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, _ := testEngine(t, 20)
	if e.Universe() == nil || e.Context() == nil {
		t.Error("nil accessors")
	}
	if e.VocabularySize() == 0 {
		t.Error("no vocabulary interned")
	}
}

func TestSessionIterativeFlow(t *testing.T) {
	e, _ := testEngine(t, 40)
	s := NewSession(e, smallProblem())
	if s.Last() != nil {
		t.Error("Last before any solve should be nil")
	}
	sol1, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 1 || s.Last() != sol1 {
		t.Error("history bookkeeping wrong")
	}
	// Feedback: pin the first GA of the output.
	if err := s.PinGAFromSolution(0); err != nil {
		t.Fatal(err)
	}
	sol2, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pinned := &model.MediatedSchema{GAs: s.Problem().Constraints.GAs}
	if sol2.Schema == nil || !sol2.Schema.Subsumes(pinned) {
		t.Error("iteration 2 does not honor the pinned GA")
	}
	if len(s.History()) != 2 {
		t.Error("history length wrong")
	}
	// History snapshots are isolated from later edits.
	if len(s.History()[0].Problem.Constraints.GAs) != 0 {
		t.Error("history snapshot mutated by later feedback")
	}
}

func TestSessionSourceFeedback(t *testing.T) {
	e, truth := testEngine(t, 40)
	s := NewSession(e, smallProblem())
	id := truth.Unperturbed[5]
	if err := s.RequireSource(id); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireSource(id); err != nil {
		t.Fatal("re-requiring must be idempotent")
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Set.Has(id) {
		t.Error("required source missing")
	}
	// Conflicting exclusion is rejected and rolled back.
	if err := s.ExcludeSource(id); err == nil {
		t.Error("excluding a required source should fail")
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("session corrupted by rejected exclusion: %v", err)
	}
	// Exclude another source; it disappears.
	other := (id + 1) % 40
	if err := s.ExcludeSource(other); err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Set.Has(other) {
		t.Error("excluded source selected")
	}
	// Drop feedback.
	s.DropSourceConstraint(id)
	s.DropExclusion(other)
	if len(s.Problem().Constraints.Sources) != 0 || len(s.Problem().Constraints.Exclude) != 0 {
		t.Error("drops did not apply")
	}
	if err := s.RequireSource(400); err == nil {
		t.Error("out-of-range require should fail")
	}
	if err := s.ExcludeSource(-1); err == nil {
		t.Error("out-of-range exclude should fail")
	}
}

func TestSessionSetWeight(t *testing.T) {
	e, _ := testEngine(t, 20)
	s := NewSession(e, smallProblem())
	if err := s.SetWeight("card", 0.6); err != nil {
		t.Fatal(err)
	}
	w := s.Problem().Weights
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v after SetWeight", sum)
	}
	if w["card"] != 0.6 {
		t.Errorf("card weight = %v", w["card"])
	}
	// Ratios among the others preserved: match was 0.25, coverage 0.2.
	if math.Abs(w[MatchQEFName]/w["coverage"]-0.25/0.2) > 1e-9 {
		t.Errorf("relative weights distorted: %v", w)
	}
	// Solving still works.
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWeight("card", 1.5); err == nil {
		t.Error("out-of-range weight accepted")
	}
	if err := s.SetWeight("nope", 0.5); err == nil {
		t.Error("unknown QEF accepted")
	}
	// Setting a weight to 1 zeroes the rest.
	if err := s.SetWeight("card", 1); err != nil {
		t.Fatal(err)
	}
	w = s.Problem().Weights
	if w["card"] != 1 || w[MatchQEFName] != 0 {
		t.Errorf("weights after card=1: %v", w)
	}
	// And moving back from the all-zero rest splits evenly.
	if err := s.SetWeight("card", 0.5); err != nil {
		t.Fatal(err)
	}
	w = s.Problem().Weights
	if math.Abs(w[MatchQEFName]-0.125) > 1e-9 {
		t.Errorf("even split after degenerate rest: %v", w)
	}
}

func TestSessionPinGAValidation(t *testing.T) {
	e, _ := testEngine(t, 20)
	s := NewSession(e, smallProblem())
	if err := s.PinGA(model.GA{}); err == nil {
		t.Error("empty GA accepted")
	}
	bad := model.NewGA(model.AttrRef{Source: 0, Attr: 99})
	if err := s.PinGA(bad); err == nil {
		t.Error("dangling GA ref accepted")
	}
	if err := s.PinGAFromSolution(0); err == nil {
		t.Error("pin-from-solution before solving should fail")
	}
	good := model.NewGA(model.AttrRef{Source: 0, Attr: 0}, model.AttrRef{Source: 1, Attr: 0})
	if err := s.PinGA(good); err != nil {
		t.Fatal(err)
	}
	// Overlapping pin rejected (attribute already constrained).
	overlap := model.NewGA(model.AttrRef{Source: 0, Attr: 0}, model.AttrRef{Source: 2, Attr: 0})
	if err := s.PinGA(overlap); err == nil {
		t.Error("overlapping GA constraint accepted")
	}
	if err := s.UnpinGA(0); err != nil {
		t.Fatal(err)
	}
	if err := s.UnpinGA(5); err == nil {
		t.Error("out-of-range unpin accepted")
	}
}

func TestSessionAddCharacteristicQEF(t *testing.T) {
	cfg := synth.QuickConfig(20)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Add a latency characteristic to every source.
	for i := range u.Sources {
		u.Sources[i].Characteristics["latency"] = float64(10 + i)
	}
	e, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(e, smallProblem())
	if err := s.AddCharacteristicQEF("latency", qef.Mean{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCharacteristicQEF("latency", qef.Mean{}); err == nil {
		t.Error("duplicate characteristic accepted")
	}
	if err := s.AddCharacteristicQEF("nope", qef.Mean{}); err == nil {
		t.Error("undefined characteristic accepted")
	}
	if err := s.AddCharacteristicQEF("mttf", nil); err == nil {
		t.Error("nil aggregator accepted")
	}
	// New QEF starts at weight 0; reweight and solve.
	if err := s.SetWeight("latency", 0.2); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Breakdown["latency"]; !ok {
		t.Error("latency QEF missing from breakdown")
	}
}

func TestSessionSetters(t *testing.T) {
	e, _ := testEngine(t, 20)
	s := NewSession(e, smallProblem())
	s.SetMaxSources(5)
	s.SetTheta(0.8)
	s.SetBeta(3)
	opt, _ := search.ByName("greedy")
	s.SetOptimizer(opt)
	p := s.Problem()
	if p.MaxSources != 5 || p.Theta != 0.8 || p.Beta != 3 || p.Optimizer == nil {
		t.Errorf("setters did not apply: %+v", p)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Sources) > 5 {
		t.Error("m not applied")
	}
	if s.Engine() != e {
		t.Error("Engine accessor wrong")
	}
}

func TestSessionWarmStartsFromLastSolution(t *testing.T) {
	e, _ := testEngine(t, 30)
	s := NewSession(e, smallProblem())
	first, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	hist := s.History()
	if len(hist[0].Problem.InitialSources) != 0 {
		t.Error("first iteration should start cold")
	}
	if len(hist[1].Problem.InitialSources) == 0 {
		t.Fatal("second iteration should warm-start")
	}
	want := model.NewSourceSetOf(30, first.Sources...)
	got := model.NewSourceSetOf(30, hist[1].Problem.InitialSources...)
	if !want.Equal(got) {
		t.Errorf("warm start %v differs from previous solution %v", got.Elements(), want.Elements())
	}
}

func TestEngineWithoutMatchCache(t *testing.T) {
	cfg := synth.QuickConfig(25)
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(u, WithoutMatchCache())
	if err != nil {
		t.Fatal(err)
	}
	p := smallProblem()
	a, err := cached.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uncached.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality != b.Quality || !a.Set.Equal(b.Set) {
		t.Errorf("memoization changed results: %.6f vs %.6f", a.Quality, b.Quality)
	}
}

// preferenceQEF is a caller-defined quality dimension standing in for a
// subjective user preference (§1: solutions "will likely depend as well on
// the subjective preferences of the user").
type preferenceQEF struct{}

func (preferenceQEF) Name() string { return "preference" }
func (q preferenceQEF) Eval(ctx *qef.Context, S *model.SourceSet) float64 {
	// A deliberately simple preference: reward even source IDs.
	even := 0
	S.ForEach(func(id int) {
		if id%2 == 0 {
			even++
		}
	})
	if S.Len() == 0 {
		return 0
	}
	return float64(even) / float64(S.Len())
}

func TestExtraQEFs(t *testing.T) {
	e, _ := testEngine(t, 30)
	p := smallProblem()
	p.ExtraQEFs = []qef.QEF{preferenceQEF{}}
	p.Weights = qef.Weights{
		MatchQEFName: 0.1, "card": 0.1, "coverage": 0.1, "redundancy": 0.1,
		"mttf": 0.1, "preference": 0.5,
	}
	sol, err := e.Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Breakdown["preference"]; !ok {
		t.Fatal("custom QEF missing from breakdown")
	}
	// Weighted at 0.5, the even-ID preference should dominate selection.
	even := 0
	for _, id := range sol.Sources {
		if id%2 == 0 {
			even++
		}
	}
	if even < len(sol.Sources)-1 {
		t.Errorf("custom QEF not steering selection: %v", sol.Sources)
	}

	// Errors: nil and duplicate names.
	p.ExtraQEFs = []qef.QEF{nil}
	if _, err := e.Solve(&p); err == nil {
		t.Error("nil extra QEF accepted")
	}
	p.ExtraQEFs = []qef.QEF{qef.Card{}}
	if _, err := e.Solve(&p); err == nil {
		t.Error("duplicate QEF name accepted")
	}
}

func TestSessionAddQEF(t *testing.T) {
	e, _ := testEngine(t, 30)
	s := NewSession(e, smallProblem())
	if err := s.AddQEF(preferenceQEF{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddQEF(preferenceQEF{}); err == nil {
		t.Error("duplicate AddQEF accepted")
	}
	if err := s.AddQEF(nil); err == nil {
		t.Error("nil AddQEF accepted")
	}
	if err := s.AddQEF(qef.Card{}); err == nil {
		t.Error("reserved name accepted")
	}
	if err := s.SetWeight("preference", 0.3); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Breakdown["preference"]; !ok {
		t.Error("session custom QEF missing from breakdown")
	}
}

func TestDiffSolutions(t *testing.T) {
	e, _ := testEngine(t, 40)
	s := NewSession(e, smallProblem())
	if s.DiffLast() != nil {
		t.Error("DiffLast before two solves should be nil")
	}
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Identical solve (same seed forced): diff against itself.
	self := DiffSolutions(a, a)
	if !self.Unchanged() || self.QualityDelta != 0 {
		t.Errorf("self diff not empty: %+v", self)
	}
	// Exclude a chosen source and re-solve: the diff must show it gone.
	victim := a.Sources[0]
	if err := s.ExcludeSource(victim); err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	d := s.DiffLast()
	if d == nil {
		t.Fatal("DiffLast nil after two solves")
	}
	removed := false
	for _, id := range d.RemovedSources {
		if id == victim {
			removed = true
		}
	}
	if !removed {
		t.Errorf("excluded source %d not in RemovedSources %v", victim, d.RemovedSources)
	}
	if got := DiffSolutions(a, b).QualityDelta; got != b.Quality-a.Quality {
		t.Errorf("quality delta %v", got)
	}
	// Nil schemas are tolerated.
	aCopy := *a
	aCopy.Schema = nil
	d2 := DiffSolutions(&aCopy, b)
	if len(d2.LostGAs) != 0 || len(d2.NewGAs) == 0 {
		t.Errorf("nil-schema diff wrong: %+v", d2)
	}
}

func TestParallelSolveDeterministicAndEquivalent(t *testing.T) {
	e, _ := testEngine(t, 40)
	mk := func(workers int) Problem {
		p := smallProblem()
		p.MaxEvals = 100000 // ample: no mid-batch budget truncation
		p.Workers = workers
		return p
	}
	p1 := mk(1)
	seq, err := e.Solve(&p1)
	if err != nil {
		t.Fatal(err)
	}
	p4 := mk(4)
	par1, err := e.Solve(&p4)
	if err != nil {
		t.Fatal(err)
	}
	par2, err := e.Solve(&p4)
	if err != nil {
		t.Fatal(err)
	}
	if !par1.Set.Equal(par2.Set) || par1.Quality != par2.Quality {
		t.Fatal("parallel solve not deterministic across runs")
	}
	if !seq.Set.Equal(par1.Set) || seq.Quality != par1.Quality {
		t.Errorf("parallel solve differs from sequential: %v/%.6f vs %v/%.6f",
			par1.Sources, par1.Quality, seq.Sources, seq.Quality)
	}
}

func TestMatchCacheInvalidatedOnParameterChange(t *testing.T) {
	// Two solves with different θ must not share cached F1 values. With
	// a very high θ the matcher finds only exact-duplicate clusters, so
	// the match quality of the final solution differs from a low-θ run;
	// before cache stamping, the second search was silently guided by
	// the first solve's scores.
	e, _ := testEngine(t, 30)
	lo := smallProblem()
	lo.Theta = 0.4
	a, err := e.Solve(&lo)
	if err != nil {
		t.Fatal(err)
	}
	hi := smallProblem()
	hi.Theta = 0.95
	b, err := e.Solve(&hi)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh engines solving the same problems are the ground truth.
	e2, _ := testEngine(t, 30)
	_ = a
	bFresh, err := e2.Solve(&hi)
	if err != nil {
		t.Fatal(err)
	}
	if b.Quality != bFresh.Quality || !b.Set.Equal(bFresh.Set) {
		t.Errorf("stale cache leaked across θ change: %.6f vs fresh %.6f", b.Quality, bFresh.Quality)
	}
	// Same for constraint changes.
	con := smallProblem()
	con.Constraints.Sources = []int{2}
	c1, err := e.Solve(&con)
	if err != nil {
		t.Fatal(err)
	}
	e3, _ := testEngine(t, 30)
	c2, err := e3.Solve(&con)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Quality != c2.Quality || !c1.Set.Equal(c2.Set) {
		t.Errorf("stale cache leaked across constraint change")
	}
}
