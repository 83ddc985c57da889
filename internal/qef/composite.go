package qef

import (
	"fmt"
	"sort"

	"ube/internal/floats"
	"ube/internal/model"
)

// Weights maps QEF names to their relative importance. Per §2.3 every
// weight lies in [0,1] and the weights sum to 1.
type Weights map[string]float64

// weightSumTolerance absorbs floating-point error in user-entered weights.
const weightSumTolerance = 1e-9

// Validate checks the §2.3 conditions against a QEF list: one weight per
// QEF, each in [0,1], summing to 1.
func (w Weights) Validate(qefs []QEF) error {
	if len(w) != len(qefs) {
		return fmt.Errorf("qef: %d weights for %d QEFs", len(w), len(qefs))
	}
	sum := 0.0
	for _, q := range qefs {
		wi, ok := w[q.Name()]
		if !ok {
			return fmt.Errorf("qef: missing weight for QEF %q", q.Name())
		}
		if wi < 0 || wi > 1 {
			return fmt.Errorf("qef: weight %v for %q outside [0,1]", wi, q.Name())
		}
		sum += wi
	}
	if !floats.EqTol(sum, 1, weightSumTolerance) {
		return fmt.Errorf("qef: weights sum to %v, want 1", sum)
	}
	return nil
}

// Normalized returns a copy of w scaled so the weights sum to 1. All-zero
// or empty weights are returned unchanged (they cannot be normalized).
// Summation runs in sorted key order: float addition is not associative,
// and map-order sums would make otherwise identical solves differ in the
// low bits from run to run.
func (w Weights) Normalized() Weights {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += w[k]
	}
	out := make(Weights, len(w))
	for _, k := range keys {
		if sum > 0 {
			out[k] = w[k] / sum
		} else {
			out[k] = w[k]
		}
	}
	return out
}

// Clone returns a copy of w.
func (w Weights) Clone() Weights {
	out := make(Weights, len(w))
	//ube:nondeterministic-ok key-for-key map copy is order-independent
	for k, v := range w {
		out[k] = v
	}
	return out
}

// Composite is the overall quality Q(S) = Σ_i w_i·F_i(S) (§2.3).
type Composite struct {
	qefs    []QEF
	weights []float64
}

// NewComposite pairs QEFs with their weights, validating the §2.3
// conditions.
func NewComposite(qefs []QEF, w Weights) (*Composite, error) {
	if err := w.Validate(qefs); err != nil {
		return nil, err
	}
	c := &Composite{qefs: qefs, weights: make([]float64, len(qefs))}
	for i, q := range qefs {
		c.weights[i] = w[q.Name()]
	}
	return c, nil
}

// Eval returns the overall quality Q(S). Zero-weight QEFs are skipped
// entirely, so turning a dimension off also saves its evaluation cost.
// Coverage and Redundancy share one union estimate of S, computed at most
// once; each term equals that QEF's own Eval bit for bit.
func (c *Composite) Eval(ctx *Context, S *model.SourceSet) float64 {
	union := sharedUnion{ctx: ctx, S: S}
	q := 0.0
	for i, f := range c.qefs {
		//ube:float-exact zero means exactly zero (dimension off); must match DeltaEval's skip
		if c.weights[i] == 0 {
			continue
		}
		var v float64
		switch f.(type) {
		case Coverage:
			v = coverage(&union)
		case Redundancy:
			v = redundancy(&union)
		default:
			v = f.Eval(ctx, S)
		}
		q += c.weights[i] * v
	}
	return q
}

// Breakdown returns each QEF's raw (unweighted) score, keyed by name —
// what the µBE UI shows the user next to the chosen solution.
func (c *Composite) Breakdown(ctx *Context, S *model.SourceSet) map[string]float64 {
	out := make(map[string]float64, len(c.qefs))
	for _, f := range c.qefs {
		out[f.Name()] = f.Eval(ctx, S)
	}
	return out
}

// QEFs returns the composite's QEF list in evaluation order.
func (c *Composite) QEFs() []QEF { return c.qefs }

// Weight returns the weight of the named QEF, or 0 if absent.
func (c *Composite) Weight(name string) float64 {
	for i, q := range c.qefs {
		if q.Name() == name {
			return c.weights[i]
		}
	}
	return 0
}
