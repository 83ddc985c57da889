package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"ube/internal/strsim"
	"ube/internal/synth"
)

// BenchmarkSeedPairsSparse measures seed-pair construction on the
// blocking-index path: the sparse table (built once, outside the loop)
// stands in for the dense matrix as both adjacency and Table, the
// configuration the engine uses on large vocabularies.
func BenchmarkSeedPairsSparse(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	cores := []string{"title", "author", "isbn", "price", "publisher", "year", "edition", "format"}
	suffixes := []string{"", "s", " id", " code"}
	schemas := make([][]string, 200)
	for i := range schemas {
		k := 3 + r.Intn(4)
		seen := map[string]bool{}
		for len(schemas[i]) < k {
			name := cores[r.Intn(len(cores))] + suffixes[r.Intn(len(suffixes))]
			if !seen[name] {
				seen[name] = true
				schemas[i] = append(schemas[i], name)
			}
		}
		// A per-source unique attribute keeps the vocabulary growing with
		// the universe, as in the internet-scale workload.
		schemas[i] = append(schemas[i], fmt.Sprintf("local field %03d", i))
	}
	u := mkUniverse(schemas...)
	sim := strsim.NewCache(nil)
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			sim.Intern(a)
		}
	}
	theta := 0.65
	sp, _, err := sim.BuildSparse(theta, strsim.BlockConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ids := buildNameIDs(u, sim)
	nbrs := sp.Neighbors(theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := BuildSeedPairs(u, ids, nbrs, sp, theta); got.Len() == 0 {
			b.Fatal("no seed pairs on overlapping schemas")
		}
	}
}

// BenchmarkSeedPairsPaper measures seed-pair construction on the paper's
// U=700 universe over its dense matrix: the per-θ set-up cost every solve
// on that universe pays once.
func BenchmarkSeedPairsPaper(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.WithSignatures = false
	u, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim := strsim.NewCache(nil)
	ids := buildNameIDs(u, sim)
	m := mustMatrix(sim)
	theta := 0.65
	nbrs := m.Neighbors(theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := BuildSeedPairs(u, ids, nbrs, m, theta); got.Len() == 0 {
			b.Fatal("no seed pairs on the paper universe")
		}
	}
}
