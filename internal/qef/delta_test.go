package qef

import (
	"math"
	"math/rand"
	"testing"

	"ube/internal/model"
)

// extraQEF is a delta-unaware caller-defined QEF; DeltaEval must fall
// back to evaluating it on the materialized set.
type extraQEF struct{}

func (extraQEF) Name() string { return "extra" }
func (extraQEF) Eval(ctx *Context, S *model.SourceSet) float64 {
	return float64(S.Len()) / float64(ctx.U.N())
}

// TestDeltaEvalMatchesComposite is the delta ≡ full differential property
// test: over random universes (mixed cooperation, all built-in
// aggregators, an extra QEF) and random (base, add) pairs, EvalAdd must
// agree with the full Composite evaluation of base ∪ {add} within 1e-12 —
// and bit-exactly on the integer/sketch-backed QEFs.
func TestDeltaEvalMatchesComposite(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(10)
		tuples := make([][]uint64, n)
		coop := make([]bool, n)
		for i := range tuples {
			from := r.Intn(5000)
			tuples[i] = seqTuples(from, from+100+r.Intn(3000))
			coop[i] = r.Intn(4) > 0
		}
		u := buildUniverse(t, tuples, coop)
		for i := range u.Sources {
			u.Sources[i].Characteristics = map[string]float64{}
			if r.Intn(5) > 0 {
				u.Sources[i].Characteristics["mttf"] = r.Float64() * 100
			}
		}
		ctx, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}

		// A Characteristic QEF is named after its characteristic, so only
		// one aggregator fits per composite; rotate through all four.
		agg := []Aggregator{WSum{}, Mean{}, Min{}, Max{}}[trial%4]
		qefs := []QEF{Card{}, Coverage{}, Redundancy{}, Characteristic{Char: "mttf", Agg: agg}, extraQEF{}}
		w := Weights{"card": 0.3, "coverage": 0.25, "redundancy": 0.2, "mttf": 0.15, "extra": 0.1}
		if trial%5 == 0 {
			// Exercise the zero-weight skip path.
			w = Weights{"card": 0.4, "coverage": 0.35, "redundancy": 0.25, "mttf": 0, "extra": 0}
		}
		comp, err := NewComposite(qefs, w)
		if err != nil {
			t.Fatal(err)
		}
		de := NewDeltaEval(comp)

		for step := 0; step < 20; step++ {
			base := model.NewSourceSet(n)
			for id := 0; id < n; id++ {
				if r.Intn(2) == 0 {
					base.Add(id)
				}
			}
			add := r.Intn(n)
			if base.Has(add) {
				base.Remove(add)
			}
			S := base.Clone()
			S.Add(add)

			snap := de.Snapshot(ctx, base)
			got := de.EvalAdd(ctx, snap, add, S)
			want := comp.Eval(ctx, S)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d step %d agg %s: delta %v vs full %v (|Δ|=%g)",
					trial, step, agg.Name(), got, want, math.Abs(got-want))
			}
		}
	}
}

// TestDeltaEvalExactOnSketchQEFs pins the stronger guarantee for the
// integer- and sketch-backed QEFs: with only Card, Coverage and
// Redundancy weighted, the incremental path is bit-identical to the full
// path (the partial sums are integers and OR-ing sketches is
// order-independent).
func TestDeltaEvalExactOnSketchQEFs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 8
	tuples := make([][]uint64, n)
	coop := make([]bool, n)
	for i := range tuples {
		from := r.Intn(4000)
		tuples[i] = seqTuples(from, from+500+r.Intn(2000))
		coop[i] = i != 3 // one uncooperative source
	}
	u := buildUniverse(t, tuples, coop)
	ctx, err := NewContext(u)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComposite([]QEF{Card{}, Coverage{}, Redundancy{}},
		Weights{"card": 0.4, "coverage": 0.3, "redundancy": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	de := NewDeltaEval(comp)
	for step := 0; step < 200; step++ {
		base := model.NewSourceSet(n)
		for id := 0; id < n; id++ {
			if r.Intn(2) == 0 {
				base.Add(id)
			}
		}
		add := r.Intn(n)
		base.Remove(add)
		S := base.Clone()
		S.Add(add)
		snap := de.Snapshot(ctx, base)
		if got, want := de.EvalAdd(ctx, snap, add, S), comp.Eval(ctx, S); got != want {
			t.Fatalf("step %d: delta %v != full %v (base %v add %d)", step, got, want, base.Elements(), add)
		}
	}
}

// TestCompositeSharedUnionExact checks the shared union estimate:
// Composite.Eval, which estimates S's union at most once for Coverage and
// Redundancy together, must equal the weighted sum of each QEF's own Eval
// bit for bit — on random sets that include empty ones, ones with a
// single cooperative source and ones with no cooperative source at all.
func TestCompositeSharedUnionExact(t *testing.T) {
	r := rand.New(rand.NewSource(1017))
	var noCoop int
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(10)
		tuples := make([][]uint64, n)
		coop := make([]bool, n)
		for i := range tuples {
			from := r.Intn(5000)
			tuples[i] = seqTuples(from, from+100+r.Intn(3000))
			coop[i] = r.Intn(3) == 0
		}
		coop[0] = true // a context with no signature at all is covered elsewhere
		u := buildUniverse(t, tuples, coop)
		for i := range u.Sources {
			u.Sources[i].Characteristics = map[string]float64{"mttf": r.Float64() * 100}
		}
		ctx, err := NewContext(u)
		if err != nil {
			t.Fatal(err)
		}
		qefs := []QEF{Card{}, Coverage{}, Redundancy{}, Characteristic{Char: "mttf", Agg: Mean{}}, extraQEF{}}
		w := Weights{"card": 0.3, "coverage": 0.25, "redundancy": 0.2, "mttf": 0.15, "extra": 0.1}
		switch trial % 4 {
		case 1:
			w = Weights{"card": 0.5, "coverage": 0, "redundancy": 0.5, "mttf": 0, "extra": 0}
		case 2:
			w = Weights{"card": 0.5, "coverage": 0.5, "redundancy": 0, "mttf": 0, "extra": 0}
		}
		comp, err := NewComposite(qefs, w)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			S := model.NewSourceSet(n)
			k := 0
			for id := 0; id < n; id++ {
				if r.Intn(3) == 0 {
					S.Add(id)
					if coop[id] {
						k++
					}
				}
			}
			if k == 0 {
				noCoop++
			}
			want := 0.0
			for _, f := range qefs {
				//ube:float-exact mirrors Composite.Eval's exact zero-weight skip
				if w[f.Name()] == 0 {
					continue
				}
				want += w[f.Name()] * f.Eval(ctx, S)
			}
			if got := comp.Eval(ctx, S); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d (k=%d): Composite.Eval %v, per-QEF sum %v", trial, step, k, got, want)
			}
		}
	}
	if noCoop == 0 {
		t.Fatal("no trial drew a set without cooperative sources")
	}
}
