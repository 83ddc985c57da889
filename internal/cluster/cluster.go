// Package cluster implements µBE's schema matching operator Match(S): the
// greedy constrained similarity clustering of Algorithm 1 (paper §3).
//
// Match takes a set of sources and produces a mediated schema — a set of
// GAs, each a cluster of attributes from different sources — together with
// a measure of matching quality that serves as the F1 QEF. User-supplied GA
// constraints seed clusters that are never discarded, bridging semantic
// gaps the similarity measure cannot see (the "Matching By Example" idea,
// Figure 3): a cluster containing the dissimilar pair (a, b) keeps growing
// because attributes similar to a join via a and attributes similar to b
// join via b, without being penalized by the other's presence.
//
// Cluster-to-cluster similarity is the maximum similarity between an
// attribute of one and an attribute of the other, and the quality of a
// cluster is the maximum similarity between any two of its attributes, both
// as defined in §3.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"ube/internal/model"
	"ube/internal/strsim"
	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// Config carries the clustering parameters of the optimization problem.
type Config struct {
	// Theta is the matching threshold θ: two clusters merge only if
	// their similarity is at least Theta. The paper's default is 0.65.
	Theta float64
	// Beta is the lower bound β on the number of attributes in any
	// output GA that does not stem from a GA constraint. Algorithm 1
	// only ever outputs grown clusters of size ≥ 2, so Beta ≤ 2 is a
	// no-op; larger values filter small GAs from the result.
	Beta int
	// Sim interns attribute names and caches pairwise similarities. It
	// must be non-nil; callers share one cache across all Match calls on
	// a universe so that re-clustering during search is cheap.
	Sim *strsim.Cache
	// Scores optionally overrides Sim for scoring interned name pairs,
	// typically with a precomputed strsim.Matrix over the universe's
	// vocabulary. Nil means score through Sim.
	Scores strsim.Scorer
	// Neighbors optionally indexes, for every interned name ID, the
	// name IDs with similarity ≥ Theta (see strsim.Matrix.Neighbors).
	// When present, merge-candidate enumeration touches only cluster
	// pairs with a known above-threshold name link instead of scoring
	// all Θ(k²) pairs each round. It must be built for the same
	// vocabulary as Scores and the same (or lower) threshold.
	Neighbors [][]int
	// NameIDs optionally maps NameIDs[sourceID][attrIndex] to the
	// interned name ID of that attribute, letting seed skip the
	// per-call interning (a lock acquire + normalization per attribute
	// per Match). The engine precomputes it once per universe. The IDs
	// must come from Sim so that Scores and Neighbors line up.
	NameIDs [][]int
	// Scratch optionally supplies reusable working memory for Match.
	// A Scratch must not be shared by concurrent Match calls; callers
	// running parallel evaluations keep one per worker. Nil makes Match
	// allocate fresh (correct, just slower — the clustering loop's
	// allocation traffic is a large share of solve time otherwise).
	Scratch *Scratch
	// Seed optionally holds the universe-level precomputed round-1
	// agenda (see BuildSeedPairs). When it applies to a call — same
	// matrix and θ, no GA constraints, strictly ascending S — Match
	// gathers the initial candidate pairs from it instead of
	// enumerating, scoring and sorting them. Nil disables the fast path.
	Seed *SeedPairs
	// Stats, when non-nil, receives the clustering work counters (runs,
	// rounds, agenda pops, pairs admitted) for solve tracing. A pure
	// side channel: results never depend on it, and counts accumulate
	// locally per Match call and flush once, so the hot loops carry no
	// atomics.
	Stats *trace.Stats
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if !(c.Theta >= 0 && c.Theta <= 1) { // also rejects NaN
		return fmt.Errorf("cluster: theta %v outside [0,1]", c.Theta)
	}
	if c.Beta < 1 {
		return fmt.Errorf("cluster: beta %d < 1", c.Beta)
	}
	if c.Sim == nil {
		return fmt.Errorf("cluster: nil similarity cache")
	}
	return nil
}

// Result is the outcome of one Match call.
type Result struct {
	// Schema is the generated mediated schema, nil when no matching
	// satisfies both the threshold and the source constraints (the
	// algorithm's "return NULL" case).
	Schema *model.MediatedSchema
	// Quality is the F1 value: the mean, over the GAs of Schema, of each
	// GA's quality of matching. Zero when Schema is nil or empty.
	Quality float64
	// GAQuality holds the per-GA quality, parallel to Schema.GAs.
	GAQuality []float64
	// FromConstraint marks, parallel to Schema.GAs, the GAs that contain
	// a user GA constraint and are therefore exempt from the θ and β
	// floors (§2.5).
	FromConstraint []bool
	// Valid reports whether the schema is valid on the source
	// constraints C. When false, Schema is nil and Quality is 0.
	Valid bool
}

// workCluster is one cluster during Algorithm 1. Clusters hold their
// attributes, the set of sources they touch (for GA validity), and the set
// of distinct interned attribute names (similarity depends only on names,
// so deduplicating them makes max-link computation cheap on synthetic
// universes where the same name recurs across many sources).
type workCluster struct {
	attrs []model.AttrRef
	srcs  []int // sorted source IDs (one attr per source in a valid GA)
	names []int // sorted unique interned name IDs
	keep  bool  // seeded by a GA constraint: never eliminated
	grown bool  // created by a merge in some round

	// Agenda state (agenda.go). ord is a stable rank reproducing the
	// cluster-list positions of Algorithm 1's rounds; idx is the
	// cluster's slot in the arena (so agenda entries can be pointer-free
	// — a pointer-bearing entry type makes every sort swap and heap sift
	// pay a GC write barrier, which dominates the profile); the rest is
	// round status.
	ord      int32
	idx      int32
	mergedIn int          // round this cluster was merged away in (0 = alive)
	cand     bool         // merge candidate this round (survives elimination)
	gone     bool         // eliminated
	markBy   *workCluster // pair-enumeration dedup mark
}

// Match runs Algorithm 1 on the schemas of the sources in S under source
// constraints C and GA constraints G. The caller must guarantee S ⊇ C and
// S ⊇ the sources implied by G (the engine arranges both; see §3: "we
// ensure for any call to Match(S) that S contains C").
func Match(u *model.Universe, S []int, C []int, G []model.GA, cfg Config) Result {
	clusters, sc := clusterSources(u, S, G, &cfg)
	quality, valid := assemble(u, clusters, C, cfg, sc)
	if ubedebug.Enabled {
		// The stamp verdict must agree with Definition 2 checked on the
		// materialised schema, whichever way it went.
		got := materialise(clusters, sc, quality).Schema.ValidOn(C)
		ubedebug.Assert(got == valid,
			"cluster: stamp validity %v but materialised schema ValidOn(C)=%v", valid, got)
	}
	if !valid {
		// No matching satisfies both the threshold and the source
		// constraints for this set of sources.
		return Result{}
	}
	return materialise(clusters, sc, quality)
}

// MatchQuality returns Match(u, S, C, G, cfg).Quality and .Valid, bit for
// bit, without materialising the mediated schema. It is the search
// objective's entry point: the objective reads nothing else. With a
// warmed Scratch and no GA constraints the call allocates nothing.
func MatchQuality(u *model.Universe, S []int, C []int, G []model.GA, cfg Config) (quality float64, valid bool) {
	clusters, sc := clusterSources(u, S, G, &cfg)
	return assemble(u, clusters, C, cfg, sc)
}

// clusterSources validates cfg, fills in its defaults and runs the merge
// rounds of Algorithm 1, returning the final cluster list and the scratch
// memory that holds it.
func clusterSources(u *model.Universe, S []int, G []model.GA, cfg *Config) ([]*workCluster, *Scratch) {
	if err := cfg.Validate(); err != nil {
		panic(err) // configuration is programmer-controlled
	}

	cfg.Stats.Add(trace.CMatchRuns, 1)
	if cfg.Scores == nil {
		cfg.Scores = cfg.Sim
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	clusters := seed(u, S, G, *cfg, sc)
	var seedQ []agendaEntry
	preGathered := seedCompatible(cfg.Seed, S, G, *cfg)
	if preGathered {
		seedQ = gatherSeed(u, S, cfg.Seed, sc)
	}
	return runAgenda(clusters, seedQ, preGathered, *cfg, sc), sc
}

// seed builds the initial cluster list: one keep-cluster per GA constraint,
// then one singleton per remaining attribute of every source in S
// (Algorithm 1 lines 1–4). Clusters and the singletons' tiny slices come
// from the scratch slabs, sized here for the whole call: seeds plus one
// slot per possible merge, so agenda-held pointers into the slab stay
// valid without it ever reallocating mid-run.
func seed(u *model.Universe, S []int, G []model.GA, cfg Config, sc *Scratch) []*workCluster {
	intern := func(r model.AttrRef) int {
		if cfg.NameIDs != nil {
			return cfg.NameIDs[r.Source][r.Attr]
		}
		return cfg.Sim.Intern(u.AttrName(r))
	}

	nSlots := 0
	for _, id := range S {
		nSlots += len(u.Source(id).Attributes)
	}
	seeds := len(G) + nSlots
	if cap(sc.slab) < 2*seeds {
		sc.slab = make([]workCluster, 0, 2*seeds+seeds/2)
	}
	sc.slab = sc.slab[:0]
	if cap(sc.attrs) < nSlots {
		sc.attrs = make([]model.AttrRef, 0, nSlots+nSlots/4)
	}
	sc.attrs = sc.attrs[:0]
	if cap(sc.ints) < 2*nSlots {
		sc.ints = make([]int, 0, 2*nSlots+nSlots/2)
	}
	sc.ints = sc.ints[:0]

	clusters := sc.list[:0]
	var inConstraint map[model.AttrRef]struct{}
	if len(G) > 0 {
		inConstraint = make(map[model.AttrRef]struct{})
		for _, g := range G {
			c := sc.newCluster()
			c.keep = true
			for _, r := range g {
				c.attrs = append(c.attrs, r)
				inConstraint[r] = struct{}{}
				addSource(c, r.Source)
				addName(c, intern(r))
			}
			clusters = append(clusters, c)
		}
	}
	for _, id := range S {
		src := u.Source(id)
		for a := range src.Attributes {
			r := model.AttrRef{Source: id, Attr: a}
			if _, taken := inConstraint[r]; taken {
				continue
			}
			c := sc.newCluster()
			na := len(sc.attrs)
			sc.attrs = append(sc.attrs, r)
			c.attrs = sc.attrs[na : na+1 : na+1]
			ni := len(sc.ints)
			sc.ints = append(sc.ints, id, intern(r))
			c.srcs = sc.ints[ni : ni+1 : ni+1]
			c.names = sc.ints[ni+1 : ni+2 : ni+2]
			clusters = append(clusters, c)
		}
	}
	sc.list = clusters
	return clusters
}

func addSource(c *workCluster, id int) {
	i := sort.SearchInts(c.srcs, id)
	if i < len(c.srcs) && c.srcs[i] == id {
		return
	}
	c.srcs = append(c.srcs, 0)
	copy(c.srcs[i+1:], c.srcs[i:])
	c.srcs[i] = id
}

func addName(c *workCluster, nameID int) {
	i := sort.SearchInts(c.names, nameID)
	if i < len(c.names) && c.names[i] == nameID {
		return
	}
	c.names = append(c.names, 0)
	copy(c.names[i+1:], c.names[i:])
	c.names[i] = nameID
}

// clusterSim is the §3 cluster similarity: the maximum similarity between
// an attribute of a and an attribute of b. Similarity depends only on
// names, so it is computed over the deduplicated name sets.
func clusterSim(a, b *workCluster, sim strsim.Scorer) float64 {
	best := 0.0
	for _, na := range a.names {
		for _, nb := range b.names {
			if s := sim.Score(na, nb); s > best {
				best = s
				//ube:float-exact early exit only on the exact maximum score; a near-1 epsilon match must keep scanning
				if best == 1 {
					return 1
				}
			}
		}
	}
	return best
}

// disjointSources reports whether merging a and b yields a valid GA
// (no source contributes two attributes, Definition 1). Both source lists
// are sorted, so a single merge scan suffices.
func disjointSources(a, b *workCluster) bool {
	i, j := 0, 0
	for i < len(a.srcs) && j < len(b.srcs) {
		switch {
		case a.srcs[i] == b.srcs[j]:
			return false
		case a.srcs[i] < b.srcs[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// mergeInto fills c (slab-allocated) with the union of a and b, carving
// the union's slices out of the scratch pools. Handed-out pool regions are
// never written again — later appends extend past them (or move to a grown
// backing array, leaving old regions intact) — so earlier unions stay
// valid for the whole Match call.
func mergeInto(c, a, b *workCluster, sc *Scratch) {
	n := len(sc.attrs)
	sc.attrs = append(append(sc.attrs, a.attrs...), b.attrs...)
	c.attrs = sc.attrs[n:len(sc.attrs):len(sc.attrs)]
	n = len(sc.ints)
	sc.ints = appendMergedSorted(sc.ints, a.srcs, b.srcs)
	c.srcs = sc.ints[n:len(sc.ints):len(sc.ints)]
	n = len(sc.ints)
	sc.ints = appendMergedSorted(sc.ints, a.names, b.names)
	c.names = sc.ints[n:len(sc.ints):len(sc.ints)]
	c.keep = a.keep || b.keep
	c.grown = true
}

// appendMergedSorted appends the sorted union of two sorted int slices.
func appendMergedSorted(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// quality is the §3 cluster quality: the maximum similarity between any
// two attributes of the cluster. A singleton has no pair and scores 0.
func quality(c *workCluster, sim strsim.Scorer) float64 {
	best := 0.0
	for i := 0; i < len(c.names); i++ {
		for j := i + 1; j < len(c.names); j++ {
			if s := sim.Score(c.names[i], c.names[j]); s > best {
				best = s
			}
		}
	}
	// Distinct attributes sharing one normalized name collapse to a
	// single name ID; any such duplicate is a perfect match.
	if len(c.attrs) > len(c.names) {
		best = 1
	}
	return best
}

// outGA is one cluster that passed the β filter, keyed for schema order.
type outGA struct {
	first   model.AttrRef // smallest attribute: the canonical GA's first
	quality float64
	c       int32 // index into the final cluster list
}

// assemble is the one assemble core (Algorithm 1 line 24) behind both
// Match and MatchQuality. It applies the β filter, checks validity on C
// and returns F1, leaving the surviving clusters in sc.out in schema
// order for materialise. It builds no schema:
//
//   - validity is Definition 2 checked with epoch stamps from the
//     Scratch instead of a map: each GA gets a fresh epoch, an attribute
//     stamped by an earlier GA of this call is in two GAs, a source
//     stamped by the same GA contributes two attributes to it, and a
//     source of C must carry a stamp from this call;
//   - the β exemption is c.keep: constraint attributes only ever sit in
//     constraint-seeded clusters (seed keeps them out of the singletons),
//     so a cluster contains a GA constraint exactly when it is kept;
//   - F1 sums the GA qualities in first-attribute order, the order the
//     materialised schema lists its GAs in, so the float sum is the
//     same one.
func assemble(u *model.Universe, clusters []*workCluster, C []int, cfg Config, sc *Scratch) (float64, bool) {
	callStart := sc.beginStamps(u, len(clusters))
	out := sc.out[:0]
	valid := true
	for i, c := range clusters {
		if !c.keep && len(c.attrs) < max(cfg.Beta, 2) {
			// Non-constraint GAs must express an actual matching
			// (≥ 2 attributes) and satisfy the user's β floor.
			continue
		}
		if len(c.attrs) == 0 {
			valid = false // an empty GA constraint: Definition 1 fails
			out = append(out, outGA{c: int32(i)})
			continue
		}
		sc.epoch++
		ga := sc.epoch
		first := c.attrs[0]
		for _, r := range c.attrs {
			if r.Less(first) {
				first = r
			}
			id := sc.attrID(u, r, callStart)
			switch mark := sc.attrMark[id]; {
			case mark == ga:
				continue // repeated within the GA: canonical form drops it
			case mark > callStart:
				valid = false // the attribute is in two GAs
			}
			sc.attrMark[id] = ga
			if sc.srcMark[r.Source] == ga {
				valid = false // two attributes from one source
			}
			sc.srcMark[r.Source] = ga
		}
		out = append(out, outGA{first: first, c: int32(i)})
	}
	for _, id := range C {
		if id < 0 || id >= len(sc.srcMark) || sc.srcMark[id] <= callStart {
			valid = false // a constrained source no GA touches
		}
	}
	sc.out = out
	if !valid {
		return 0, false
	}
	for i := range out {
		out[i].quality = quality(clusters[out[i].c], cfg.Scores)
	}
	// Distinct GAs never share a first attribute (an attribute belongs to
	// one GA), so this is a strict total order and stability is moot.
	slices.SortFunc(out, func(a, b outGA) int { return a.first.Compare(b.first) })
	if len(out) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, o := range out {
		sum += o.quality
	}
	return sum / float64(len(out)), true
}

// materialise packages the clusters assemble left in sc.out as the
// mediated schema of a Result with the given F1.
func materialise(clusters []*workCluster, sc *Scratch, quality float64) Result {
	res := Result{Schema: &model.MediatedSchema{}, Quality: quality, Valid: true}
	if len(sc.out) == 0 {
		return res
	}
	res.Schema.GAs = make([]model.GA, len(sc.out))
	res.GAQuality = make([]float64, len(sc.out))
	res.FromConstraint = make([]bool, len(sc.out))
	for i, o := range sc.out {
		c := clusters[o.c]
		res.Schema.GAs[i] = model.NewGA(c.attrs...)
		res.GAQuality[i] = o.quality
		res.FromConstraint[i] = c.keep
	}
	return res
}
