package qef

import (
	"math"

	"ube/internal/floats"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// DeltaEval evaluates a Composite incrementally on candidate sets of the
// form S = base ∪ {add}. A solver's inner loop derives most candidates by
// editing one incumbent set, so the expensive per-set state — the unioned
// PCSA sketch behind Coverage and Redundancy, the integer cardinality
// sums behind Card, each characteristic aggregator's partial fold — can
// be captured once per base (Snapshot) and extended by a single source
// per candidate (EvalAdd): one sketch copy + one signature OR instead of
// |S| ORs, and O(1) arithmetic instead of O(|S|) folds.
//
// The integer sums and the sketch bitmaps are order-independent, so Card,
// Coverage and Redundancy come out bit-identical to the full Composite
// evaluation; floating-point characteristic folds may differ by one
// reassociation step (≪1e-12). Drops are not supported — OR-ing a sketch
// is not invertible — so callers route drop and swap moves through the
// full path.
type DeltaEval struct {
	comp *Composite

	// Stats, when non-nil, receives the evaluator's work counters for
	// solve tracing (delta evaluations, incremental sketch unions,
	// snapshot builds). A pure side channel the engine wires per solve;
	// results never depend on it.
	Stats *trace.Stats
}

// NewDeltaEval returns an incremental evaluator for comp.
func NewDeltaEval(comp *Composite) *DeltaEval { return &DeltaEval{comp: comp} }

// BaseSnapshot is the captured evaluation state of one base set. It is
// immutable after Snapshot returns: EvalAdd only reads it (the sketch is
// extended in a pooled scratch copy), so one snapshot may be shared by
// concurrent solver workers.
type BaseSnapshot struct {
	key      string
	cardSum  int64         // Σ cardinality over all members
	coopN    int           // cooperative members
	coopCard int64         // Σ cardinality over cooperative members
	sketch   *pcsa.Sketch  // union signature of the cooperative members
	distinct float64       // sketch's PCSA estimate (0 when sketch is nil)
	chars    []AggPartials // per-QEF aggregator partials; nil entries fall back

	// debugSum is the checksum of the scalar state and sketch payload at
	// capture time, set only under the ubedebug build tag; EvalAdd
	// re-derives it to catch mutation of the contractually frozen
	// snapshot (e.g. a caller UnionInto-ing the shared sketch).
	debugSum uint64
}

// checksum folds the snapshot's immutable state (the aggregator
// partials, behind interfaces, are not covered). Only called under the
// ubedebug build tag.
func (s *BaseSnapshot) checksum() uint64 {
	h := debugMix(uint64(s.cardSum))
	h = debugMix(h ^ uint64(s.coopN))
	h = debugMix(h ^ uint64(s.coopCard))
	h = debugMix(h ^ math.Float64bits(s.distinct))
	if s.sketch != nil {
		h = debugMix(h ^ s.sketch.Checksum())
	}
	return h
}

// debugMix is the splitmix64 finalizer (Vigna), used only to fold
// snapshot state into debugSum.
func debugMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key returns the canonical set key of the snapshot's base set.
func (s *BaseSnapshot) Key() string { return s.key }

// Snapshot captures base's evaluation state in one pass over its members.
// Snapshot builds (and their per-member unions) are counted as
// operational work: under parallel workers the same base may be built by
// several workers and only one publish wins, so the counts are
// load-dependent — unlike the deterministic EvalAdd counters.
func (d *DeltaEval) Snapshot(ctx *Context, base *model.SourceSet) *BaseSnapshot {
	d.Stats.Add(trace.OSnapshotBuilds, 1)
	var unions int64
	snap := &BaseSnapshot{key: base.Key()}
	base.ForEach(func(id int) {
		src := &ctx.U.Sources[id]
		snap.cardSum += src.Cardinality
		if src.Signature == nil {
			return
		}
		snap.coopN++
		snap.coopCard += src.Cardinality
		if snap.sketch == nil {
			snap.sketch = src.Signature.Clone()
		} else if err := snap.sketch.UnionInto(src.Signature); err != nil {
			panic(err) // compatibility was checked by Universe.Validate
		} else {
			unions++
		}
	})
	d.Stats.Add(trace.OSnapshotUnions, unions)
	if snap.sketch != nil {
		snap.distinct = snap.sketch.Estimate()
	}
	snap.chars = make([]AggPartials, len(d.comp.qefs))
	for i, f := range d.comp.qefs {
		c, ok := f.(Characteristic)
		// Zero-weight skips must be bit-exact and identical to
		// Composite.Eval's, or the two pipelines would fold different
		// QEF lists for the same weights.
		//ube:float-exact zero means exactly zero (dimension off); must match Composite.Eval's skip
		if !ok || d.comp.weights[i] == 0 {
			continue
		}
		if da, ok := c.Agg.(DeltaAggregator); ok {
			snap.chars[i] = da.Partials(ctx, base, c.Char)
		}
	}
	if ubedebug.Enabled {
		snap.debugSum = snap.checksum()
	}
	return snap
}

// EvalAdd returns the composite quality of S = base ∪ {add}, where snap
// was captured on base and add is a source not in base. S must be the
// materialized candidate: QEFs without delta support (caller-defined
// extras, non-delta aggregators) are evaluated on it in full, which keeps
// EvalAdd exact for them. The weighted accumulation visits QEFs in the
// same order with the same zero-weight skips as Composite.Eval, so the
// float sum reassociates identically.
func (d *DeltaEval) EvalAdd(ctx *Context, snap *BaseSnapshot, add int, S *model.SourceSet) float64 {
	if ubedebug.Enabled {
		ubedebug.Assert(snap.debugSum == snap.checksum(),
			"qef: base snapshot for %q mutated since capture", snap.key)
	}
	d.Stats.Add(trace.CQEFDelta, 1)
	src := &ctx.U.Sources[add]
	coopN, coopCard := snap.coopN, snap.coopCard
	distinct := snap.distinct
	if src.Signature != nil {
		coopN++
		coopCard += src.Cardinality
		// One incremental union batch: scratch copy + OR + estimate.
		d.Stats.Add(trace.CSketchUnions, 1)
		distinct = ctx.estimateWith(snap.sketch, src.Signature)
	}
	q := 0.0
	for i, f := range d.comp.qefs {
		w := d.comp.weights[i]
		//ube:float-exact zero means exactly zero (dimension off); must match Composite.Eval's skip
		if w == 0 {
			continue
		}
		var v float64
		switch f.(type) {
		case Card:
			if ctx.totalCard != 0 {
				v = float64(snap.cardSum+src.Cardinality) / float64(ctx.totalCard)
			}
		case Coverage:
			if !floats.Zero(ctx.universeDistinct) {
				v = min(distinct/ctx.universeDistinct, 1)
			}
		case Redundancy:
			v = redundancyFrom(coopN, coopCard, distinct)
		default:
			if p := snap.chars[i]; p != nil {
				v = p.EvalAdd(ctx, add)
			} else {
				v = f.Eval(ctx, S)
			}
		}
		q += w * v
	}
	return q
}

// redundancyFrom is Redundancy on precomputed cooperative stats and union
// estimate (distinct is only read when k > 1 and card > 0).
func redundancyFrom(k int, card int64, distinct float64) float64 {
	if k == 0 {
		return 0
	}
	if k == 1 {
		return 1
	}
	if card == 0 {
		return 1 // no data, no overlap
	}
	r := (float64(k)*distinct/float64(card) - 1) / float64(k-1)
	// PCSA noise can push the ratio slightly outside [0,1].
	return max(0, min(r, 1))
}

// estimateWith returns the PCSA estimate of base's union extended by one
// more signature, using a pooled scratch sketch so concurrent callers
// never share mutable state. A nil base means sig alone.
func (ctx *Context) estimateWith(base, sig *pcsa.Sketch) float64 {
	if ctx.scratch == nil {
		return 0
	}
	sk := ctx.scratch.Get().(*pcsa.Sketch)
	defer func() {
		sk.Reset()
		ctx.scratch.Put(sk)
	}()
	if base != nil {
		if err := sk.CopyFrom(base); err != nil {
			panic(err)
		}
	}
	if err := sk.UnionInto(sig); err != nil {
		panic(err)
	}
	return sk.Estimate()
}
