package cluster

import (
	"cmp"
	"slices"

	"ube/internal/model"
)

// referenceMatch is Algorithm 1 as the paper states it, written to be
// obviously correct rather than fast: the oracle the agenda is checked
// against. Clusters are seeded from the GA constraints (kept for good)
// and then one singleton per remaining attribute of S (lines 1–4). Each
// round scores every pair of clusters in the list, sorts the pairs with
// similarity ≥ θ by (similarity desc, list position asc) and walks them:
// two free clusters over disjoint sources merge, and a pair with exactly
// one merged endpoint makes the other a merge candidate (lines 5–19). The
// next list holds the round's unions in merge order, then the survivors
// in list order; a singleton that is neither kept nor a candidate is
// eliminated (lines 20–22). A round without a merge ends the loop, and
// referenceAssemble applies line 24. Of cfg it reads Theta, Beta, Sim
// and Scores only.
func referenceMatch(u *model.Universe, S, C []int, G []model.GA, cfg Config) Result {
	if cfg.Scores == nil {
		cfg.Scores = cfg.Sim
	}
	newCluster := func(attrs []model.AttrRef, keep, grown bool) *workCluster {
		c := &workCluster{attrs: attrs, keep: keep, grown: grown}
		for _, r := range attrs {
			c.names = append(c.names, cfg.Sim.Intern(u.AttrName(r)))
		}
		slices.Sort(c.names)
		c.names = slices.Compact(c.names)
		return c
	}
	sim := func(a, b *workCluster) float64 {
		best := 0.0
		for _, x := range a.names {
			for _, y := range b.names {
				best = max(best, cfg.Scores.Score(x, y))
			}
		}
		return best
	}
	disjoint := func(a, b *workCluster) bool {
		for _, x := range a.attrs {
			for _, y := range b.attrs {
				if x.Source == y.Source {
					return false
				}
			}
		}
		return true
	}

	var clusters []*workCluster
	inConstraint := map[model.AttrRef]bool{}
	for _, g := range G {
		clusters = append(clusters, newCluster(slices.Clone(g), true, false))
		for _, r := range g {
			inConstraint[r] = true
		}
	}
	for _, id := range S {
		for a := range u.Source(id).Attributes {
			if r := (model.AttrRef{Source: id, Attr: a}); !inConstraint[r] {
				clusters = append(clusters, newCluster([]model.AttrRef{r}, false, false))
			}
		}
	}

	type pair struct {
		i, j int
		sim  float64
	}
	for {
		var pairs []pair
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				if s := sim(clusters[i], clusters[j]); s >= cfg.Theta {
					pairs = append(pairs, pair{i, j, s})
				}
			}
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
		})

		merged := make([]bool, len(clusters))
		cand := make([]bool, len(clusters))
		var next []*workCluster
		for _, p := range pairs {
			a, b := clusters[p.i], clusters[p.j]
			switch {
			case !merged[p.i] && !merged[p.j] && disjoint(a, b):
				next = append(next, newCluster(slices.Concat(a.attrs, b.attrs), a.keep || b.keep, true))
				merged[p.i], merged[p.j] = true, true
			case merged[p.i] != merged[p.j]:
				// Only the free endpoint's mark matters: the merged one
				// is replaced by its union.
				cand[p.i], cand[p.j] = true, true
			}
		}
		unions := len(next)
		for i, c := range clusters {
			if !merged[i] && (c.keep || c.grown || cand[i]) {
				next = append(next, c)
			}
		}
		clusters = next
		if unions == 0 {
			return referenceAssemble(clusters, C, G, cfg)
		}
	}
}
