package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/synth"
	"ube/internal/ubedebug"
)

// lonelyName is an attribute name similar to nothing in the test
// vocabularies: a source carrying only it is touched by no GA, so a
// source constraint on it makes every matching infeasible.
const lonelyName = "zq lonely field"

// synthUniverse generates the universe cfg describes without PCSA
// signatures (clustering never reads them).
func synthUniverse(t testing.TB, cfg synth.Config) *model.Universe {
	cfg.WithSignatures = false
	u, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// withLonely returns a copy of u with one more source carrying lonelyName.
func withLonely(u *model.Universe) *model.Universe {
	out := &model.Universe{Sources: slices.Clone(u.Sources)}
	out.Sources = append(out.Sources, model.Source{
		ID: u.N(), Name: "lonely", Attributes: []string{lonelyName}, Cardinality: 100,
	})
	return out
}

// initialMeasure scores names by their first letter alone: 1 for equal
// names, 0.8 for a shared first letter, else 0. Its many equal scores
// between different names put ties into every seed run.
type initialMeasure struct{}

func (initialMeasure) Name() string { return "initial" }

func (initialMeasure) Score(a, b string) float64 {
	switch {
	case a == b:
		return 1
	case a != "" && b != "" && a[0] == b[0]:
		return 0.8
	}
	return 0
}

// indexedConfig returns the engine's clustering configuration for u at
// θ and β under measure (nil: the default): dense matrix, ≥θ neighbour
// index and precomputed name IDs.
func indexedConfig(u *model.Universe, theta float64, beta int, measure strsim.Measure) Config {
	cfg := Config{Theta: theta, Beta: beta, Sim: strsim.NewCache(measure)}
	cfg.NameIDs = buildNameIDs(u, cfg.Sim)
	m := mustMatrix(cfg.Sim)
	cfg.Scores = m
	cfg.Neighbors = m.Neighbors(theta)
	return cfg
}

// referenceAssemble is Algorithm 1's line 24 as the paper states it, the
// oracle for assemble: it materialises every cluster as a canonical GA,
// exempts the GAs that contain a GA constraint from the β floor, lists
// the GAs by first attribute and checks Definition 2 on the schema.
func referenceAssemble(clusters []*workCluster, C []int, G []model.GA, cfg Config) Result {
	type entry struct {
		g     model.GA
		q     float64
		fromC bool
	}
	var gas []entry
	for _, c := range clusters {
		g := model.NewGA(c.attrs...)
		exempt := false
		for _, h := range G {
			exempt = exempt || g.ContainsAll(h)
		}
		if !exempt && len(g) < max(cfg.Beta, 2) {
			continue
		}
		gas = append(gas, entry{g, quality(c, cfg.Scores), exempt})
	}
	slices.SortFunc(gas, func(a, b entry) int { return a.g[0].Compare(b.g[0]) })
	res := Result{Schema: &model.MediatedSchema{}, Valid: true}
	sum := 0.0
	for _, e := range gas {
		res.Schema.GAs = append(res.Schema.GAs, e.g)
		res.GAQuality = append(res.GAQuality, e.q)
		res.FromConstraint = append(res.FromConstraint, e.fromC)
		sum += e.q
	}
	if !res.Schema.ValidOn(C) {
		return Result{}
	}
	if len(gas) > 0 {
		res.Quality = sum / float64(len(gas))
	}
	return res
}

// TestMatchQualityDifferential checks the quality-only core against the
// materialising Match and the references: on seeded random universes,
// MatchQuality must return Match's Quality and Valid bit for bit, Match
// must equal referenceAssemble on the same clusters, and Match must equal
// referenceMatch, Algorithm 1 end to end. The trials vary θ, β ∈ {1, 2, 3},
// source constraints C (including one on a source no GA touches), GA
// constraints G and the SeedPairs gather, whose long runs on the synth
// universe take the counting-sort path.
func TestMatchQualityDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	// Three universe families: small ones over the book vocabulary, 60
	// sources over the same vocabulary (long seed runs whose names have
	// several ≥θ partners) and a synth universe.
	big := withLonely(synthUniverse(t, synth.QuickConfig(150)))
	mid := withLonely(mkUniverse(randomSchemas(r, 60)...))
	shared := &Scratch{}
	var infeasible, constrained, longSeedRuns int
	for trial := 0; trial < 300; trial++ {
		var u *model.Universe
		switch trial % 3 {
		case 0:
			u = withLonely(mkUniverse(randomSchemas(r, 3+r.Intn(10))...))
		case 1:
			u = mid
		default:
			u = big
		}
		lonely := u.N() - 1
		theta := 0.45 + r.Float64()*0.5
		var measure strsim.Measure
		if u == mid && r.Intn(2) == 0 {
			measure = initialMeasure{}
		}
		cfg := indexedConfig(u, theta, 1+r.Intn(3), measure)
		if r.Intn(2) == 0 {
			cfg.Seed = BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, cfg.Scores, theta)
		}
		if r.Intn(2) == 0 {
			cfg.Scratch = shared
		}

		// A strictly ascending subset: all of a small universe's
		// sources, or 8–40 of a larger one's.
		S := allSources(u)[:u.N()-1]
		if u == mid || u == big {
			S = r.Perm(u.N() - 1)[:8+r.Intn(33)]
		}
		if r.Intn(4) == 0 {
			S = append(S, lonely)
		}
		slices.Sort(S)

		var C []int
		switch r.Intn(3) {
		case 1:
			C = []int{S[r.Intn(len(S))]}
		case 2:
			C = []int{S[0], S[len(S)-1]}
		}
		var G []model.GA
		if r.Intn(3) == 0 {
			i, j := r.Intn(len(S)), r.Intn(len(S))
			if S[i] != S[j] {
				a, b := S[i], S[j]
				G = append(G, model.NewGA(
					model.AttrRef{Source: a, Attr: r.Intn(len(u.Sources[a].Attributes))},
					model.AttrRef{Source: b, Attr: r.Intn(len(u.Sources[b].Attributes))},
				))
			}
		}
		if seedCompatible(cfg.Seed, S, G, cfg) && len(gatherSeed(u, S, cfg.Seed, &Scratch{})) >= 128 {
			longSeedRuns++
		}

		want := Match(u, S, C, G, cfg)
		q, ok := MatchQuality(u, S, C, G, cfg)
		if math.Float64bits(q) != math.Float64bits(want.Quality) || ok != want.Valid {
			t.Fatalf("trial %d (θ=%.3f β=%d C=%v G=%v S=%v): MatchQuality (%v, %v), Match (%v, %v)",
				trial, theta, cfg.Beta, C, G, S, q, ok, want.Quality, want.Valid)
		}

		refCfg := cfg
		refCfg.Scratch = &Scratch{}
		clusters, _ := clusterSources(u, S, G, &refCfg)
		if ref := referenceAssemble(clusters, C, G, refCfg); !reflect.DeepEqual(ref, want) {
			t.Fatalf("trial %d (θ=%.3f β=%d C=%v G=%v S=%v):\nreference: %+v\nMatch:     %+v",
				trial, theta, cfg.Beta, C, G, S, ref, want)
		}

		if ref := referenceMatch(u, S, C, G, cfg); !reflect.DeepEqual(ref, want) {
			t.Fatalf("trial %d (θ=%.3f β=%d C=%v G=%v S=%v):\nreference: %+v\nagenda:    %+v",
				trial, theta, cfg.Beta, C, G, S, ref, want)
		}

		if len(C) > 0 {
			constrained++
		}
		if !ok {
			infeasible++
		}
	}
	// The trials must reach the paths they are meant to cover.
	if infeasible == 0 || constrained == 0 || longSeedRuns == 0 {
		t.Fatalf("coverage: %d infeasible, %d constrained, %d long seed runs", infeasible, constrained, longSeedRuns)
	}
}

// TestMatchQualityLonelyConstraint pins the infeasible case: a source
// constraint on a source that no GA touches makes the result invalid.
func TestMatchQualityLonelyConstraint(t *testing.T) {
	u := withLonely(mkUniverse([]string{"title", "author"}, []string{"title", "authors"}))
	cfg := indexedConfig(u, 0.65, 2, nil)
	S := allSources(u)
	if q, ok := MatchQuality(u, S, []int{0}, nil, cfg); !ok || q <= 0 {
		t.Fatalf("C={0}: got (%v, %v), want a valid matching", q, ok)
	}
	if q, ok := MatchQuality(u, S, []int{2}, nil, cfg); ok || q != 0 {
		t.Fatalf("C={lonely}: got (%v, %v), want (0, false)", q, ok)
	}
}

// TestMatchQualityAllocs is the allocation guard of the search objective's
// clustering call: on a 40-source subset of the paper's U=700 universe,
// with the engine's configuration (dense matrix, neighbour index, name
// IDs, seed pairs, a reused Scratch), MatchQuality allocates nothing once
// the Scratch has warmed up, with and without a source constraint.
func TestMatchQualityAllocs(t *testing.T) {
	if ubedebug.Enabled {
		t.Skip("the ubedebug assertions box their arguments")
	}
	u := synthUniverse(t, synth.DefaultConfig())
	cfg := indexedConfig(u, 0.65, 2, nil)
	cfg.Seed = BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, cfg.Scores, cfg.Theta)
	if cfg.Seed == nil {
		t.Fatal("BuildSeedPairs returned nil on the paper universe")
	}
	cfg.Scratch = &Scratch{}
	S := rand.New(rand.NewSource(40)).Perm(u.N())[:40]
	slices.Sort(S)

	res := Match(u, S, nil, nil, cfg)
	if !res.Valid || len(res.Schema.GAs) == 0 {
		t.Fatalf("unconstrained Match found no GA: %+v", res)
	}
	touched := res.Schema.GAs[0][0].Source
	for _, C := range [][]int{nil, {touched}} {
		MatchQuality(u, S, C, nil, cfg) // warm-up
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := MatchQuality(u, S, C, nil, cfg); !ok {
				t.Fatalf("C=%v: infeasible", C)
			}
		})
		if allocs != 0 {
			t.Errorf("C=%v: MatchQuality made %v allocations per call, want 0", C, allocs)
		}
	}
}

// spreadMeasure scores distinct names in [0.5, 1) by a hash of the pair,
// so nearly every name pair has its own score and a universe over many
// names has more distinct seed keys than rankBuckets.
type spreadMeasure struct{}

func (spreadMeasure) Name() string { return "spread" }

func (spreadMeasure) Score(a, b string) float64 {
	if a == b {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	h := fnv.New32a()
	h.Write([]byte(a + "|" + b))
	return 0.5 + float64(h.Sum32()%1_000_000)/2_000_000
}

// TestSeedRunOrder checks the layout sortSeedRun relies on: every
// SeedPairs group holds its records in (attrA, attrB) order, and the sort
// of a gathered run equals a comparison sort of the same entries into walk
// order. The first-letter measure gives names several ≥θ partners with
// equal scores, so slots meet equal-keyed partners out of attribute order;
// the spread measure over 100 names gives more distinct keys than
// rankBuckets, which sends the gathered runs down sortRun.
func TestSeedRunOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	numbered := make([][]string, 60)
	for i := range numbered {
		for _, n := range r.Perm(100)[:4] {
			numbered[i] = append(numbered[i], fmt.Sprintf("field %03d", n))
		}
	}
	for _, tc := range []struct {
		name    string
		u       *model.Universe
		measure strsim.Measure
	}{
		{"initial", mkUniverse(randomSchemas(r, 60)...), initialMeasure{}},
		{"spread", mkUniverse(numbered...), spreadMeasure{}},
	} {
		u := tc.u
		for _, theta := range []float64{0.5, 0.65, 0.8} {
			cfg := indexedConfig(u, theta, 2, tc.measure)
			sp := BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, cfg.Scores, theta)
			if tc.name == "spread" && theta == 0.5 && len(sp.keys) <= rankBuckets {
				t.Fatalf("spread universe has only %d distinct keys", len(sp.keys))
			}
			for g := 0; g+1 < len(sp.start); g++ {
				grp := sp.pairs[sp.start[g]:sp.start[g+1]]
				for i := 1; i < len(grp); i++ {
					if a, b := grp[i-1], grp[i]; a.attrA > b.attrA || (a.attrA == b.attrA && a.attrB >= b.attrB) {
						t.Fatalf("%s θ=%v group %d: record %+v before %+v", tc.name, theta, g, a, b)
					}
				}
			}
			for trial := 0; trial < 20; trial++ {
				S := r.Perm(u.N())[:20+r.Intn(40)]
				slices.Sort(S)
				sc := &Scratch{}
				run := gatherSeed(u, S, sp, sc)
				want := slices.Clone(run)
				for i := range want {
					want[i].key = int64(sp.keys[want[i].key])
				}
				slices.SortFunc(want, func(x, y agendaEntry) int {
					switch {
					case entryBefore(x, y):
						return -1
					case entryBefore(y, x):
						return 1
					}
					return 0
				})
				nOrds := 0
				for _, s := range S {
					nOrds += len(u.Sources[s].Attributes)
				}
				got, _ := sortSeedRun(run, nil, nOrds, sp.keys, sc)
				if !slices.Equal(got, want) {
					t.Fatalf("%s θ=%v S=%v: sortSeedRun differs from the comparison sort", tc.name, theta, S)
				}
			}
		}
	}
}
