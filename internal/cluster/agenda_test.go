package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/synth"
)

// randomSchemas draws n source schemas from the test vocabulary.
func randomSchemas(r *rand.Rand, n int) [][]string {
	vocab := []string{
		"title", "titles", "book title", "author", "authors", "writer",
		"isbn", "isbn number", "price", "price range", "keyword",
		"keywords", "publisher", "format", "year", "language",
	}
	var schemas [][]string
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(6)
		attrs := make([]string, 0, k)
		seen := map[string]bool{}
		for len(attrs) < k {
			a := vocab[r.Intn(len(vocab))]
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
		schemas = append(schemas, attrs)
	}
	return schemas
}

// buildNameIDs interns every attribute and returns the source→attr→ID map
// the engine precomputes in production.
func buildNameIDs(u *model.Universe, sim *strsim.Cache) [][]int {
	ids := make([][]int, len(u.Sources))
	for i := range u.Sources {
		ids[i] = make([]int, len(u.Sources[i].Attributes))
		for a, name := range u.Sources[i].Attributes {
			ids[i][a] = sim.Intern(name)
		}
	}
	return ids
}

// TestAgendaMatchesReference is the agenda's differential property test:
// over seeded random universes, with and without the matrix scorer /
// neighbors index / seed pairs / GA constraints / NameIDs precompute /
// a reused Scratch, Match must produce a Result byte-identical to
// referenceMatch.
func TestAgendaMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20240807))
	// One scratch reused across many trials (when drawn): reuse must be
	// invisible — stale buffer contents must never leak into a Result.
	shared := &Scratch{}
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(12)
		u := mkUniverse(randomSchemas(r, n)...)

		var G []model.GA
		if r.Intn(2) == 0 {
			s1, s2 := r.Intn(n), r.Intn(n)
			if s1 != s2 {
				G = append(G, model.NewGA(
					model.AttrRef{Source: s1, Attr: r.Intn(len(u.Sources[s1].Attributes))},
					model.AttrRef{Source: s2, Attr: r.Intn(len(u.Sources[s2].Attributes))},
				))
			}
		}

		theta := 0.4 + r.Float64()*0.55
		beta := 2 + r.Intn(2)

		base := Config{Theta: theta, Beta: beta, Sim: strsim.NewCache(nil)}
		indexed := r.Intn(2) == 0
		seedIdx := false
		if indexed {
			for i := range u.Sources {
				for _, a := range u.Sources[i].Attributes {
					base.Sim.Intern(a)
				}
			}
			m := mustMatrix(base.Sim)
			base.Scores = m
			base.Neighbors = m.Neighbors(theta)
			if r.Intn(2) == 0 {
				base.Seed = BuildSeedPairs(u, buildNameIDs(u, base.Sim), base.Neighbors, m, theta)
				seedIdx = base.Seed != nil
			}
		}
		if r.Intn(2) == 0 {
			base.NameIDs = buildNameIDs(u, base.Sim)
		}
		if r.Intn(2) == 0 {
			base.Scratch = shared
		}

		// Sometimes run on a strict sorted subset of the sources (the
		// engine's usual call shape, and the one the SeedPairs gather
		// must filter correctly); G references full-universe sources,
		// so subsets only apply without constraints.
		S := allSources(u)
		if len(G) == 0 && n > 2 && r.Intn(3) == 0 {
			S = S[:0]
			for s := 0; s < n; s++ {
				if r.Intn(3) > 0 {
					S = append(S, s)
				}
			}
		}

		want := referenceMatch(u, S, nil, G, base)
		got := Match(u, S, nil, G, base)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (n=%d θ=%.3f β=%d indexed=%v seedIdx=%v G=%v S=%v):\nreference: %+v\nagenda:    %+v",
				trial, n, theta, beta, indexed, seedIdx, G, S, want, got)
		}
	}
}

// TestAgendaMatchesReferenceWithSourceConstraints exercises the
// C-validity path (Match may return the NULL result) against the
// reference.
func TestAgendaMatchesReferenceWithSourceConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(6)
		u := mkUniverse(randomSchemas(r, n)...)
		C := []int{r.Intn(n)}

		base := Config{Theta: 0.5 + r.Float64()*0.45, Beta: 2, Sim: strsim.NewCache(nil)}
		want := referenceMatch(u, allSources(u), C, nil, base)
		got := Match(u, allSources(u), C, nil, base)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: reference %+v vs agenda %+v", trial, want, got)
		}
	}
}

// BenchmarkMatchSynth measures Match on the synthetic BAMM universe the
// experiments use (N=200), on random m=50 subsets — the workload the
// solver's inner loop actually runs.
func BenchmarkMatchSynth(b *testing.B) {
	u, _, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		seedIdx bool
	}{{"agenda", false}, {"agenda-seedidx", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Theta: 0.65, Beta: 2, Sim: strsim.NewCache(nil), Scratch: &Scratch{}}
			for i := range u.Sources {
				for _, a := range u.Sources[i].Attributes {
					cfg.Sim.Intern(a)
				}
			}
			m := mustMatrix(cfg.Sim)
			cfg.Scores = m
			cfg.Neighbors = m.Neighbors(cfg.Theta)
			cfg.NameIDs = buildNameIDs(u, cfg.Sim)
			if mode.seedIdx {
				cfg.Seed = BuildSeedPairs(u, cfg.NameIDs, cfg.Neighbors, m, cfg.Theta)
				if cfg.Seed == nil {
					b.Fatal("BuildSeedPairs returned nil")
				}
			}
			r := rand.New(rand.NewSource(7))
			subsets := make([][]int, 64)
			for i := range subsets {
				subsets[i] = r.Perm(u.N())[:50]
				slices.Sort(subsets[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Match(u, subsets[i%len(subsets)], nil, nil, cfg)
			}
		})
	}
}

func BenchmarkMatchAgenda(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	schemas := randomSchemas(r, 50)
	u := mkUniverse(schemas...)
	cfg := defaultCfg()
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			cfg.Sim.Intern(a)
		}
	}
	m := mustMatrix(cfg.Sim)
	cfg.Scores = m
	cfg.Neighbors = m.Neighbors(cfg.Theta)
	cfg.NameIDs = buildNameIDs(u, cfg.Sim)
	S := allSources(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(u, S, nil, nil, cfg)
	}
}
