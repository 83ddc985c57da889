// Package qef implements µBE's quality evaluation functions (paper §2.3,
// §4, §5). A QEF maps a candidate set of sources S to a quality score in
// [0,1]; the overall quality of S is the weighted sum of all QEFs, with
// user-chosen weights that sum to 1.
//
// The data-dependent QEFs — Card, Coverage and Redundancy — need the
// cardinalities of unions of sources, which µBE estimates from cached PCSA
// signatures without ever touching source data (§4): the bitwise OR of the
// per-source signatures is the signature of the union.
package qef

import (
	"math"
	"sync"

	"ube/internal/floats"
	"ube/internal/model"
	"ube/internal/pcsa"
)

// A QEF evaluates the aggregate quality of a set of sources on one quality
// dimension. Implementations must return values in [0,1], higher is better.
type QEF interface {
	// Name identifies the QEF, e.g. "card" or "mttf"; weights are keyed
	// by this name.
	Name() string
	// Eval scores the source set S within the given universe context.
	Eval(ctx *Context, S *model.SourceSet) float64
}

// Context carries the per-universe precomputed state shared by all QEF
// evaluations: total cardinality, the distinct-count estimate for the whole
// universe, characteristic ranges, and a scratch sketch for unions.
type Context struct {
	U *model.Universe

	totalCard int64
	// universeDistinct estimates |∪_{t∈U} t| over cooperative sources.
	universeDistinct float64
	// charRange caches [min,max] of each characteristic across U.
	charRange map[string][2]float64
	// scratch pools union sketches so concurrent Eval calls (parallel
	// solvers fan candidate evaluations across cores) don't allocate
	// one per estimate. Nil when no source cooperates.
	scratch *sync.Pool
}

// NewContext validates the universe and precomputes shared state.
func NewContext(u *model.Universe) (*Context, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	ctx := &Context{
		U:         u,
		totalCard: u.TotalCardinality(),
		charRange: make(map[string][2]float64),
	}
	for i := range u.Sources {
		s := &u.Sources[i]
		if s.Signature != nil && ctx.scratch == nil {
			proto := s.Signature
			ctx.scratch = &sync.Pool{New: func() any {
				sk := proto.Clone()
				sk.Reset()
				return sk
			}}
		}
		// Min/max folds commute, so visiting one source's characteristics
		// in map order cannot change the resulting ranges.
		//ube:nondeterministic-ok per-key min/max fold is order-independent
		for name, v := range s.Characteristics {
			r, ok := ctx.charRange[name]
			if !ok {
				ctx.charRange[name] = [2]float64{v, v}
				continue
			}
			if v < r[0] {
				r[0] = v
			}
			if v > r[1] {
				r[1] = v
			}
			ctx.charRange[name] = r
		}
	}
	if ctx.scratch != nil {
		all := model.NewSourceSet(u.N())
		for i := range u.Sources {
			all.Add(i)
		}
		ctx.universeDistinct = ctx.unionEstimate(all)
	}
	return ctx, nil
}

// TotalCardinality returns Σ_{t∈U}|t|.
func (ctx *Context) TotalCardinality() int64 { return ctx.totalCard }

// UniverseDistinct returns the PCSA estimate of the number of distinct
// tuples across all cooperative sources, or 0 when no source cooperates.
func (ctx *Context) UniverseDistinct() float64 { return ctx.universeDistinct }

// CharRange returns the [min,max] range of a characteristic across the
// universe and whether any source defines it.
func (ctx *Context) CharRange(name string) (lo, hi float64, ok bool) {
	r, ok := ctx.charRange[name]
	return r[0], r[1], ok
}

// unionEstimate ORs the signatures of the cooperative sources in S into
// the scratch sketch and returns the PCSA estimate. Zero when no source in
// S cooperates.
func (ctx *Context) unionEstimate(S *model.SourceSet) float64 {
	if ctx.scratch == nil {
		return 0
	}
	sk := ctx.scratch.Get().(*pcsa.Sketch)
	defer func() {
		sk.Reset()
		ctx.scratch.Put(sk)
	}()
	found := false
	S.ForEach(func(id int) {
		sig := ctx.U.Sources[id].Signature
		if sig == nil {
			return
		}
		// Signature compatibility was checked by Universe.Validate.
		if err := sk.UnionInto(sig); err != nil {
			panic(err)
		}
		found = true
	})
	if !found {
		return 0
	}
	return sk.Estimate()
}

// sharedUnion computes one candidate set's union estimate at most once, so
// the QEFs of one evaluation that need it — Coverage and Redundancy — pay
// for a single pass of PCSA unions between them.
type sharedUnion struct {
	ctx      *Context
	S        *model.SourceSet
	distinct float64
	done     bool
}

// estimate returns ctx.unionEstimate(S), computing it on first use.
func (u *sharedUnion) estimate() float64 {
	if !u.done {
		u.distinct, u.done = u.ctx.unionEstimate(u.S), true
	}
	return u.distinct
}

// cooperativeStats returns, over the cooperative sources of S, the count
// and cardinality sum.
func (ctx *Context) cooperativeStats(S *model.SourceSet) (n int, card int64) {
	S.ForEach(func(id int) {
		if ctx.U.Sources[id].Signature != nil {
			n++
			card += ctx.U.Sources[id].Cardinality
		}
	})
	return n, card
}

// Card is F2 (§4): Card(S) = Σ_{s∈S}|s| / Σ_{t∈U}|t|, the fraction of the
// universe's total data volume that S provides.
type Card struct{}

// Name implements QEF.
func (Card) Name() string { return "card" }

// Eval implements QEF.
func (Card) Eval(ctx *Context, S *model.SourceSet) float64 {
	if ctx.totalCard == 0 {
		return 0
	}
	var sum int64
	S.ForEach(func(id int) { sum += ctx.U.Sources[id].Cardinality })
	return float64(sum) / float64(ctx.totalCard)
}

// Coverage is F3 (§4): the fraction of the universe's distinct tuples that
// S provides, |∪_{s∈S}s| / |∪_{t∈U}t|, estimated via PCSA signatures.
// Uncooperative sources contribute nothing to either union (§4).
type Coverage struct{}

// Name implements QEF.
func (Coverage) Name() string { return "coverage" }

// Eval implements QEF.
func (Coverage) Eval(ctx *Context, S *model.SourceSet) float64 {
	return coverage(&sharedUnion{ctx: ctx, S: S})
}

// coverage is Coverage.Eval on a shared union.
func coverage(u *sharedUnion) float64 {
	if floats.Zero(u.ctx.universeDistinct) {
		return 0
	}
	cov := u.estimate() / u.ctx.universeDistinct
	// Estimation noise can push the ratio a hair past 1.
	return math.Min(cov, 1)
}

// Redundancy is F4 (§4): a measure of the overlap among the sources of S,
// oriented so that 1 is best (pairwise disjoint sources) and 0 is worst
// (all sources hold the same data):
//
//	Redundancy(S) = (k·|∪S| / Σ_{s∈S}|s| − 1) / (k − 1)
//
// over the k cooperative sources of S. With k ≤ 1 no overlap is possible
// and the score is 1 if S has a cooperative source, else 0 (§4 assigns
// uncooperative sources zero redundancy quality).
type Redundancy struct{}

// Name implements QEF.
func (Redundancy) Name() string { return "redundancy" }

// Eval implements QEF.
func (Redundancy) Eval(ctx *Context, S *model.SourceSet) float64 {
	return redundancy(&sharedUnion{ctx: ctx, S: S})
}

// redundancy is Redundancy.Eval on a shared union, which it only
// estimates when an overlap is possible at all.
func redundancy(u *sharedUnion) float64 {
	k, card := u.ctx.cooperativeStats(u.S)
	distinct := 0.0
	if k > 1 && card != 0 {
		distinct = u.estimate()
	}
	return redundancyFrom(k, card, distinct)
}
