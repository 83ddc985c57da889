package cluster

import (
	"math"
	"slices"

	"ube/internal/model"
	"ube/internal/strsim"
)

// SeedPairs is a universe-level precomputation of the round-1 agenda: every
// pair of attribute slots whose name similarity reaches θ, grouped by
// source pair. Round 1 holds the bulk of all candidate pairs Match ever
// scores (~75% on the synthetic workload), and with a matrix scorer its
// content depends only on (universe, θ) — not on the candidate subset — so
// the engine builds this once per solve and every Match(S) replaces the
// whole seed enumeration and scoring with a gather over the |S|(|S|+1)/2
// groups of S's source pairs: two array lookups per group, one 8-byte
// record copy per emitted pair, no similarity lookups at all.
//
// The gather relies on seed()'s layout: with G empty, seed() emits one
// singleton cluster per attribute in (position of source in S, attribute
// index) order, so each slot's subset ord is its source's running
// attribute base plus the attribute index, and a pair of singletons scores
// exactly the name-pair score the matrix holds. Match falls back to the
// ordinary enumeration whenever the preconditions fail (see
// seedCompatible).
type SeedPairs struct {
	pairs  []seedPair // grouped by (srcA, srcB) source pair, each group in (attrA, attrB) order
	start  []int32    // srcA*nSrc+srcB -> offset of the group in pairs
	keys   []int32    // rank -> simKey30 key, ascending: the distinct keys of pairs
	nSrc   int
	scores strsim.Table // identity-gates against a rebuilt vocabulary
	theta  float64
}

// seedPair is one candidate pair within a source-pair group: the two
// attribute indices and the dense rank of the pair's simKey30 key among
// the universe's distinct keys. Ranks order like keys and span a small
// range, so the seed sort buckets them in one counting pass instead of
// three radix passes over the 30-bit key. 8 bytes, so a gather streams
// groups at memory speed.
type seedPair struct {
	rank         int32
	attrA, attrB int16
}

// seedPairsMaxSources caps the group-offset table (nSrc² int32s, 16 MB at
// the cap); larger universes just skip the fast path.
const seedPairsMaxSources = 2048

// BuildSeedPairs precomputes the global seed agenda for a universe at
// threshold theta. It returns nil — callers then just skip the fast path —
// when the preconditions don't hold: the scorer must be a float32-exact
// table (dense matrix or θ-sparse — either way exact 30-bit keys),
// nameIDs and neighbors must be prebuilt for it, and the universe must
// fit the compact encoding.
func BuildSeedPairs(u *model.Universe, nameIDs [][]int, neighbors [][]int, scores strsim.Scorer, theta float64) *SeedPairs {
	m, ok := scores.(strsim.Table)
	if !ok || nameIDs == nil || neighbors == nil || u.N() > seedPairsMaxSources {
		return nil
	}

	type slot struct{ src, attr int32 }
	owners := make([][]slot, m.Len()) // name ID -> slots carrying it
	for s := 0; s < u.N(); s++ {
		attrs := u.Source(s).Attributes
		if len(attrs) > math.MaxInt16 {
			return nil
		}
		for a := range attrs {
			n := nameIDs[s][a]
			owners[n] = append(owners[n], slot{int32(s), int32(a)})
		}
	}

	// near[na] lists the ≥θ partners of name na that some slot carries,
	// with the rank of the pair's key among all such keys: a pass over
	// names rather than slots, after which the slot passes below never
	// score or rank anything.
	type partner struct {
		name int
		rank int32
	}
	near := make([][]partner, len(neighbors))
	var keys []int32
	for na, nbs := range neighbors {
		if len(owners[na]) == 0 {
			continue
		}
		for _, nb := range nbs {
			if score := m.Score(na, nb); score >= theta && len(owners[nb]) > 0 {
				key := int32(simKey30(score))
				near[na] = append(near[na], partner{name: nb, rank: key})
				keys = append(keys, key)
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, ps := range near {
		for i := range ps {
			r, _ := slices.BinarySearch(keys, ps[i].rank)
			ps[i].rank = int32(r)
		}
	}

	// after returns the slots of ts, which is in (src, attr) order, that
	// come after slot (s, a): each unordered slot pair with score ≥ θ is
	// emitted once, from its smaller side. A singleton has one name, so
	// no pair is reachable via two name links.
	after := func(ts []slot, s, a int) []slot {
		lo, hi := 0, len(ts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t := ts[mid]; int(t.src) < s || (int(t.src) == s && int(t.attr) <= a) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return ts[lo:]
	}

	// Two passes over the same enumeration: group sizes, then records.
	nSrc := u.N()
	sp := &SeedPairs{start: make([]int32, nSrc*nSrc+1), keys: keys, nSrc: nSrc, scores: m, theta: theta}
	counts := sp.start[1:]
	for s := 0; s < nSrc; s++ {
		row := int32(s * nSrc)
		for a := range u.Source(s).Attributes {
			for _, p := range near[nameIDs[s][a]] {
				for _, t := range after(owners[p.name], s, a) {
					counts[row+t.src]++
				}
			}
		}
	}
	var sum int32
	for g := range counts {
		counts[g], sum = sum, sum+counts[g]
	}
	sp.pairs = make([]seedPair, sum)
	// Slots are visited in attribute order, so each group fills in attrA
	// order. A slot with one partner name meets its partners in (src,
	// attr) order too; with several, insertion keeps each group's records
	// in attrB order — the slot's records in group (s, t) are the group's
	// tail from firstOf[t] on, while slotOf[t] names the slot.
	slotOf := make([]int32, nSrc)
	firstOf := make([]int32, nSrc)
	slotID := int32(0)
	for s := 0; s < nSrc; s++ {
		row := int32(s * nSrc)
		for a := range u.Source(s).Attributes {
			slotID++
			ps := near[nameIDs[s][a]]
			for _, p := range ps {
				for _, t := range after(owners[p.name], s, a) {
					g := row + t.src
					i := counts[g]
					counts[g]++
					if len(ps) > 1 {
						if slotOf[t.src] != slotID {
							slotOf[t.src], firstOf[t.src] = slotID, i
						}
						for ; i > firstOf[t.src] && sp.pairs[i-1].attrB > int16(t.attr); i-- {
							sp.pairs[i] = sp.pairs[i-1]
						}
					}
					sp.pairs[i] = seedPair{rank: p.rank, attrA: int16(a), attrB: int16(t.attr)}
				}
			}
		}
	}
	// counts[g] now holds the END of group g, i.e. start[g+1] — exactly
	// what the shifted view made it.
	return sp
}

// Len reports the number of precomputed global pairs.
func (sp *SeedPairs) Len() int { return len(sp.pairs) }

// SizeBytes reports the memory footprint of the pair list and group table.
func (sp *SeedPairs) SizeBytes() int { return 8*len(sp.pairs) + 4*len(sp.start) }

// seedCompatible reports whether the precomputed agenda applies to this
// Match call: same score table, same θ, no GA constraints (constraint
// seeds break the one-singleton-per-slot layout), and a strictly
// ascending S (the gather computes subset ords from running attribute
// bases).
func seedCompatible(sp *SeedPairs, S []int, G []model.GA, cfg Config) bool {
	//ube:float-exact θ is a cache key: the precomputed agenda only applies to the bit-identical threshold it was built for
	if sp == nil || len(G) > 0 || cfg.Scores != strsim.Scorer(sp.scores) || cfg.Theta != sp.theta {
		return false
	}
	for i := 1; i < len(S); i++ {
		if S[i] <= S[i-1] {
			return false
		}
	}
	return true
}

// gatherSeed returns the round-1 agenda of subset S in sc.queue, with each
// entry's key field holding its key's rank (sortSeedRun sorts the run into
// walk order and restores the keys). Seed ords equal arena indices
// (runAgenda numbers the initial clusters 0..n), so ords double as idx
// fields. Groups are visited in (i, j) order and each holds its records
// in (attrA, attrB) order, so within one ordA the run is already in ordB
// order — which lets sortSeedRun skip the ordB pass.
func gatherSeed(u *model.Universe, S []int, sp *SeedPairs, sc *Scratch) []agendaEntry {
	bases := sc.bases[:0]
	ord := int32(0)
	for _, s := range S {
		bases = append(bases, ord)
		ord += int32(len(u.Source(s).Attributes))
	}
	sc.bases = bases
	out := sc.queue[:0]
	for i, si := range S {
		row := si * sp.nSrc
		bi := bases[i]
		for j := i; j < len(S); j++ {
			g := row + S[j]
			lo, hi := sp.start[g], sp.start[g+1]
			if lo == hi {
				continue
			}
			bj := bases[j]
			for _, p := range sp.pairs[lo:hi] {
				oa, ob := bi+int32(p.attrA), bj+int32(p.attrB)
				out = append(out, agendaEntry{key: int64(p.rank), ordA: oa, ordB: ob, idxA: oa, idxB: ob})
			}
		}
	}
	return out
}
