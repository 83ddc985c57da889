package cluster

import (
	"math"
	"math/rand"
	"testing"

	"ube/internal/model"
	"ube/internal/strsim"
)

// mustMatrix builds the dense matrix for a test vocabulary, panicking on
// the (impossible at test sizes) over-limit error.
func mustMatrix(c *strsim.Cache) *strsim.Matrix {
	m, err := c.BuildMatrix()
	if err != nil {
		panic(err)
	}
	return m
}

// mkUniverse builds a universe from schemas given as attribute-name lists.
func mkUniverse(schemas ...[]string) *model.Universe {
	u := &model.Universe{}
	for i, attrs := range schemas {
		u.Sources = append(u.Sources, model.Source{
			ID:          i,
			Name:        "s",
			Attributes:  attrs,
			Cardinality: 100,
		})
	}
	return u
}

func defaultCfg() Config {
	return Config{Theta: 0.65, Beta: 2, Sim: strsim.NewCache(nil)}
}

func allSources(u *model.Universe) []int {
	ids := make([]int, u.N())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Theta: -0.1, Beta: 2, Sim: strsim.NewCache(nil)},
		{Theta: 1.1, Beta: 2, Sim: strsim.NewCache(nil)},
		{Theta: math.NaN(), Beta: 2, Sim: strsim.NewCache(nil)},
		{Theta: 0.5, Beta: 0, Sim: strsim.NewCache(nil)},
		{Theta: 0.5, Beta: 2, Sim: nil},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	good := defaultCfg()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestMatchExactDuplicates(t *testing.T) {
	// Three sources sharing "title" and two sharing "author": two GAs.
	u := mkUniverse(
		[]string{"title", "author"},
		[]string{"title", "price"},
		[]string{"title", "author"},
	)
	res := Match(u, allSources(u), nil, nil, defaultCfg())
	if !res.Valid || res.Schema == nil {
		t.Fatal("match should succeed")
	}
	if len(res.Schema.GAs) != 2 {
		t.Fatalf("want 2 GAs, got %d: %v", len(res.Schema.GAs), res.Schema.GAs)
	}
	var title, author model.GA
	for _, g := range res.Schema.GAs {
		switch len(g) {
		case 3:
			title = g
		case 2:
			author = g
		}
	}
	if title == nil || author == nil {
		t.Fatalf("unexpected GA sizes: %v", res.Schema.GAs)
	}
	for _, r := range title {
		if u.AttrName(r) != "title" {
			t.Errorf("title GA contains %q", u.AttrName(r))
		}
	}
	for _, r := range author {
		if u.AttrName(r) != "author" {
			t.Errorf("author GA contains %q", u.AttrName(r))
		}
	}
	// Exact duplicates give per-GA quality 1 and overall quality 1.
	if res.Quality != 1 {
		t.Errorf("quality = %v, want 1", res.Quality)
	}
	// "price" is a singleton and must not appear.
	if res.Schema.NumAttributes() != 5 {
		t.Errorf("schema covers %d attrs, want 5", res.Schema.NumAttributes())
	}
}

func TestMatchRespectsTheta(t *testing.T) {
	// "keyword" and "keywords" have 3-gram Jaccard ~0.83; with θ=0.9 they
	// must not merge, with θ=0.65 they must.
	u := mkUniverse([]string{"keyword"}, []string{"keywords"})
	lo := defaultCfg()
	res := Match(u, allSources(u), nil, nil, lo)
	if len(res.Schema.GAs) != 1 {
		t.Errorf("θ=0.65: want 1 GA, got %v", res.Schema.GAs)
	}
	hi := defaultCfg()
	hi.Theta = 0.9
	res = Match(u, allSources(u), nil, nil, hi)
	if len(res.Schema.GAs) != 0 {
		t.Errorf("θ=0.9: want 0 GAs, got %v", res.Schema.GAs)
	}
}

func TestMatchQualityFloor(t *testing.T) {
	// Every non-constraint GA's quality must be ≥ θ by construction.
	u := mkUniverse(
		[]string{"title", "author", "isbn"},
		[]string{"book title", "author", "isbn number"},
		[]string{"title", "writer", "isbn"},
		[]string{"titles", "authors", "price"},
	)
	cfg := defaultCfg()
	res := Match(u, allSources(u), nil, nil, cfg)
	if !res.Valid {
		t.Fatal("match should succeed")
	}
	for i, q := range res.GAQuality {
		if !res.FromConstraint[i] && q < cfg.Theta {
			t.Errorf("GA %d quality %v below θ", i, q)
		}
	}
}

func TestMatchGAValidity(t *testing.T) {
	// A source with two identical attribute names: they can never land in
	// the same GA (Definition 1), even though their similarity is 1.
	u := mkUniverse(
		[]string{"title", "title"},
		[]string{"title"},
		[]string{"title"},
	)
	res := Match(u, allSources(u), nil, nil, defaultCfg())
	if !res.Valid {
		t.Fatal("match should succeed")
	}
	if !res.Schema.Valid() {
		t.Fatal("schema must be valid")
	}
	for _, g := range res.Schema.GAs {
		if !g.Valid() {
			t.Errorf("invalid GA in output: %v", g)
		}
	}
	// All four attributes are pairwise-identical "title"; the best the
	// matcher can do is GAs that each take at most one attr per source.
	total := res.Schema.NumAttributes()
	if total > 4 {
		t.Errorf("schema covers %d attrs, more than exist", total)
	}
}

func TestFigure3Bridging(t *testing.T) {
	// The paper's Figure 3: without a GA constraint, "F name" and "Prenom"
	// stay apart; with the constraint, the cluster bridges the semantic
	// gap and grows with attributes similar to either side.
	u := mkUniverse(
		[]string{"F name"},     // 0: English
		[]string{"Prenom"},     // 1: French
		[]string{"first name"}, // 2: similar to neither above θ? check below
		[]string{"Prenoms"},    // 3: similar to Prenom
	)
	cfg := defaultCfg()

	// Sanity: the bridged pair is below θ on its own.
	if s := cfg.Sim.ScoreNames("F name", "Prenom"); s >= cfg.Theta {
		t.Fatalf("test premise broken: sim(F name, Prenom) = %v", s)
	}

	// Without constraints, "F name" and "Prenom" never share a GA.
	res := Match(u, allSources(u), nil, nil, cfg)
	fname := model.AttrRef{Source: 0, Attr: 0}
	prenom := model.AttrRef{Source: 1, Attr: 0}
	if res.Schema != nil {
		for _, g := range res.Schema.GAs {
			if g.Contains(fname) && g.Contains(prenom) {
				t.Fatal("unconstrained match must not bridge F name/Prenom")
			}
		}
	}

	// With the GA constraint, they must end up together, and "Prenoms"
	// (similar to Prenom) joins the same cluster via the bridge.
	G := []model.GA{model.NewGA(fname, prenom)}
	res = Match(u, allSources(u), nil, G, cfg)
	if !res.Valid {
		t.Fatal("constrained match should succeed")
	}
	var bridged model.GA
	for _, g := range res.Schema.GAs {
		if g.Contains(fname) {
			bridged = g
		}
	}
	if bridged == nil || !bridged.Contains(prenom) {
		t.Fatalf("GA constraint not honored: %v", res.Schema.GAs)
	}
	if !bridged.Contains(model.AttrRef{Source: 3, Attr: 0}) {
		t.Errorf("bridge should attract Prenoms: %v", bridged)
	}
	// The output must subsume the constraint schema (G ⊑ M).
	gSchema := &model.MediatedSchema{GAs: G}
	if !res.Schema.Subsumes(gSchema) {
		t.Error("output must subsume GA constraints")
	}
}

func TestConstraintGAExemptFromTheta(t *testing.T) {
	// A GA constraint of totally dissimilar names survives with quality
	// below θ and is flagged FromConstraint.
	u := mkUniverse([]string{"apple"}, []string{"zebra"})
	G := []model.GA{model.NewGA(
		model.AttrRef{Source: 0, Attr: 0},
		model.AttrRef{Source: 1, Attr: 0},
	)}
	res := Match(u, allSources(u), nil, G, defaultCfg())
	if !res.Valid || len(res.Schema.GAs) != 1 {
		t.Fatalf("constraint GA must survive: %+v", res)
	}
	if !res.FromConstraint[0] {
		t.Error("GA should be flagged as constraint-derived")
	}
	if res.GAQuality[0] >= 0.65 {
		t.Errorf("quality %v unexpectedly above θ", res.GAQuality[0])
	}
}

func TestSourceConstraintFailure(t *testing.T) {
	// Source 2's only attribute matches nothing: a source constraint on
	// it cannot be satisfied, so Match returns the NULL schema.
	u := mkUniverse(
		[]string{"title"},
		[]string{"title"},
		[]string{"xyzzy"},
	)
	res := Match(u, allSources(u), []int{2}, nil, defaultCfg())
	if res.Valid || res.Schema != nil || res.Quality != 0 {
		t.Errorf("match should return NULL on unsatisfiable C: %+v", res)
	}
	// Without the constraint the same universe matches fine.
	res = Match(u, allSources(u), nil, nil, defaultCfg())
	if !res.Valid || len(res.Schema.GAs) != 1 {
		t.Errorf("unconstrained match should succeed: %+v", res)
	}
	// And a constraint on a matched source is satisfied.
	res = Match(u, allSources(u), []int{0, 1}, nil, defaultCfg())
	if !res.Valid {
		t.Error("satisfiable C rejected")
	}
}

func TestBetaFiltersSmallGAs(t *testing.T) {
	u := mkUniverse(
		[]string{"title", "author"},
		[]string{"title", "author"},
		[]string{"title"},
	)
	cfg := defaultCfg()
	cfg.Beta = 3
	res := Match(u, allSources(u), nil, nil, cfg)
	// title spans 3 sources (kept); author spans only 2 (filtered).
	if len(res.Schema.GAs) != 1 || len(res.Schema.GAs[0]) != 3 {
		t.Fatalf("β=3: want only the 3-attr title GA, got %v", res.Schema.GAs)
	}
	// GA constraints are exempt from β.
	G := []model.GA{model.NewGA(
		model.AttrRef{Source: 0, Attr: 1},
		model.AttrRef{Source: 1, Attr: 1},
	)}
	res = Match(u, allSources(u), nil, G, cfg)
	if len(res.Schema.GAs) != 2 {
		t.Fatalf("constraint GA must be exempt from β: %v", res.Schema.GAs)
	}
}

func TestTransitiveChaining(t *testing.T) {
	// Max-link clustering chains a–b–c even when sim(a,c) < θ, as long as
	// adjacent links clear θ.
	u := mkUniverse(
		[]string{"publication date"},
		[]string{"publication dates"},
		[]string{"publication dated"}, // close to both
	)
	cfg := defaultCfg()
	sim := cfg.Sim.ScoreNames("publication date", "publication dates")
	if sim < cfg.Theta {
		t.Skipf("premise: adjacent sim %v below θ", sim)
	}
	res := Match(u, allSources(u), nil, nil, cfg)
	if len(res.Schema.GAs) != 1 || len(res.Schema.GAs[0]) != 3 {
		t.Errorf("want one 3-attr chained GA, got %v", res.Schema.GAs)
	}
}

func TestMatchEmptyAndSingleSource(t *testing.T) {
	u := mkUniverse([]string{"title", "author"})
	// No sources at all: empty schema, valid on empty C.
	res := Match(u, nil, nil, nil, defaultCfg())
	if !res.Valid || len(res.Schema.GAs) != 0 || res.Quality != 0 {
		t.Errorf("empty S: %+v", res)
	}
	// One source: no cross-source matches possible.
	res = Match(u, []int{0}, nil, nil, defaultCfg())
	if !res.Valid || len(res.Schema.GAs) != 0 {
		t.Errorf("single source: %+v", res)
	}
	// A source constraint then fails (source 0 untouched by any GA).
	res = Match(u, []int{0}, []int{0}, nil, defaultCfg())
	if res.Valid {
		t.Error("C={0} with no matches should fail")
	}
}

func TestMatchDeterminism(t *testing.T) {
	u := mkUniverse(
		[]string{"title", "author", "isbn", "price"},
		[]string{"title", "authors", "isbn"},
		[]string{"book title", "author", "price range"},
		[]string{"titles", "writer", "price"},
		[]string{"title", "author", "price"},
	)
	cfg := defaultCfg()
	first := Match(u, allSources(u), nil, nil, cfg)
	for i := 0; i < 5; i++ {
		again := Match(u, allSources(u), nil, nil, defaultCfg())
		if len(again.Schema.GAs) != len(first.Schema.GAs) {
			t.Fatalf("nondeterministic GA count: %d vs %d", len(again.Schema.GAs), len(first.Schema.GAs))
		}
		for j := range again.Schema.GAs {
			if !again.Schema.GAs[j].Equal(first.Schema.GAs[j]) {
				t.Fatalf("nondeterministic GA %d: %v vs %v", j, again.Schema.GAs[j], first.Schema.GAs[j])
			}
		}
		if again.Quality != first.Quality {
			t.Fatalf("nondeterministic quality")
		}
	}
}

func TestMatrixScorerEquivalence(t *testing.T) {
	// Match with a precomputed Matrix must give identical results to the
	// lazy cache scorer.
	u := mkUniverse(
		[]string{"title", "author", "isbn"},
		[]string{"title", "keyword"},
		[]string{"titles", "author name", "isbn"},
		[]string{"keyword", "price"},
	)
	lazy := defaultCfg()
	res1 := Match(u, allSources(u), nil, nil, lazy)

	fast := defaultCfg()
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			fast.Sim.Intern(a)
		}
	}
	fast.Scores = mustMatrix(fast.Sim)
	res2 := Match(u, allSources(u), nil, nil, fast)

	if len(res1.Schema.GAs) != len(res2.Schema.GAs) {
		t.Fatalf("matrix vs cache GA count: %d vs %d", len(res2.Schema.GAs), len(res1.Schema.GAs))
	}
	for i := range res1.Schema.GAs {
		if !res1.Schema.GAs[i].Equal(res2.Schema.GAs[i]) {
			t.Errorf("GA %d differs", i)
		}
	}
}

func TestRandomUniverseInvariants(t *testing.T) {
	// Property test: on random universes the output schema is always
	// valid, subsumes G, and non-constraint GAs meet θ and β.
	vocab := []string{
		"title", "titles", "book title", "author", "authors", "writer",
		"isbn", "isbn number", "price", "price range", "keyword",
		"keywords", "publisher", "format", "year", "language",
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		var schemas [][]string
		n := 2 + r.Intn(8)
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(5)
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
		u := mkUniverse(schemas...)
		cfg := defaultCfg()
		cfg.Theta = 0.5 + r.Float64()*0.45

		// Random 2-attribute GA constraint from two distinct sources.
		var G []model.GA
		if n >= 2 && r.Intn(2) == 0 {
			s1, s2 := r.Intn(n), r.Intn(n)
			if s1 != s2 {
				G = append(G, model.NewGA(
					model.AttrRef{Source: s1, Attr: r.Intn(len(schemas[s1]))},
					model.AttrRef{Source: s2, Attr: r.Intn(len(schemas[s2]))},
				))
			}
		}
		res := Match(u, allSources(u), nil, G, cfg)
		if !res.Valid {
			t.Fatalf("trial %d: match with empty C must always be valid", trial)
		}
		if !res.Schema.Valid() {
			t.Fatalf("trial %d: invalid schema %v", trial, res.Schema.GAs)
		}
		if !res.Schema.Subsumes(&model.MediatedSchema{GAs: G}) {
			t.Fatalf("trial %d: schema does not subsume G", trial)
		}
		for i, g := range res.Schema.GAs {
			if res.FromConstraint[i] {
				continue
			}
			if res.GAQuality[i] < cfg.Theta {
				t.Fatalf("trial %d: GA quality %v < θ %v", trial, res.GAQuality[i], cfg.Theta)
			}
			if len(g) < 2 {
				t.Fatalf("trial %d: non-constraint singleton GA", trial)
			}
		}
		if res.Quality < 0 || res.Quality > 1 {
			t.Fatalf("trial %d: quality %v out of range", trial, res.Quality)
		}
	}
}

func BenchmarkMatch50Sources(b *testing.B) {
	vocab := []string{
		"title", "titles", "book title", "author", "authors", "writer",
		"isbn", "isbn number", "price", "price range", "keyword",
		"keywords", "publisher", "format", "year", "language",
	}
	r := rand.New(rand.NewSource(1))
	var schemas [][]string
	for i := 0; i < 50; i++ {
		k := 3 + r.Intn(5)
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
	u := mkUniverse(schemas...)
	cfg := defaultCfg()
	for i := range u.Sources {
		for _, a := range u.Sources[i].Attributes {
			cfg.Sim.Intern(a)
		}
	}
	cfg.Scores = mustMatrix(cfg.Sim)
	S := allSources(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(u, S, nil, nil, cfg)
	}
}

func TestFixpointNoMergeableGAsRemain(t *testing.T) {
	// Algorithm 1 terminates "when it cannot find any more pairs of
	// clusters to merge": in the final schema, any two GAs whose
	// similarity clears θ must be unmergeable (they share a source).
	vocab := []string{
		"title", "titles", "book title", "author", "authors", "writer",
		"isbn", "isbn number", "price", "keyword", "keywords",
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		var schemas [][]string
		n := 3 + r.Intn(7)
		for i := 0; i < n; i++ {
			k := 2 + r.Intn(4)
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
		u := mkUniverse(schemas...)
		cfg := defaultCfg()
		res := Match(u, allSources(u), nil, nil, cfg)
		if res.Schema == nil {
			continue
		}
		gas := res.Schema.GAs
		for i := 0; i < len(gas); i++ {
			for j := i + 1; j < len(gas); j++ {
				if gaSim(u, gas[i], gas[j], cfg) >= cfg.Theta && disjointGASources(gas[i], gas[j]) {
					t.Fatalf("trial %d: GAs %v and %v are similar and mergeable — not a fixpoint", trial, gas[i], gas[j])
				}
			}
		}
	}
}

// gaSim recomputes the §3 max-link similarity between two output GAs.
func gaSim(u *model.Universe, a, b model.GA, cfg Config) float64 {
	best := 0.0
	for _, ra := range a {
		for _, rb := range b {
			if s := cfg.Sim.ScoreNames(u.AttrName(ra), u.AttrName(rb)); s > best {
				best = s
			}
		}
	}
	return best
}

func disjointGASources(a, b model.GA) bool {
	srcs := map[int]bool{}
	for _, r := range a {
		srcs[r.Source] = true
	}
	for _, r := range b {
		if srcs[r.Source] {
			return false
		}
	}
	return true
}
