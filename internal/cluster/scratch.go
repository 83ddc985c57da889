package cluster

import (
	"math"

	"ube/internal/model"
)

// Scratch is Match's reusable working memory. The clustering loop is run
// thousands of times per solve on small, short-lived structures — seed
// clusters, their singleton attr/source/name slices, the agenda buffers,
// the validity stamps — and allocating them fresh each call makes the
// allocator and GC a large share of solve time. A Scratch keeps the
// backing arrays alive across calls: sized once for the biggest Match
// seen, then reused. MatchQuality then allocates nothing unless GA
// constraints seed clusters; Match also allocates the Result it returns
// (which must be fresh — callers retain it).
//
// A Scratch must not be shared by concurrent Match calls. The engine keeps
// one per evaluation worker.
type Scratch struct {
	slab  []workCluster   // every cluster of the current call
	attrs []model.AttrRef // backing for singleton attr slices
	ints  []int           // backing for singleton source/name slices

	arena   []*workCluster   // agenda: cluster index -> cluster
	list    []*workCluster   // the evolving cluster list
	next    []*workCluster   // agenda: the next round's list (ping-pong with list)
	owners  [][]*workCluster // agenda: name ID -> clusters carrying it
	queue   []agendaEntry    // agenda: carried pair run
	pending []agendaEntry    // agenda: next round's carried run
	fresh   []agendaEntry    // agenda: newborn pair run
	spare   []agendaEntry    // agenda: radix ping-pong buffer
	counts  []int32          // agenda: counting-sort buckets
	bases   []int32          // seed gather: first subset ord of each source in S

	// Validity stamps (assemble). epoch grows by one per call and one per
	// output GA; a mark below the call's first epoch is stale.
	epoch    uint32
	srcMark  []uint32 // source ID -> epoch of the last GA drawing on it
	attrMark []uint32 // attribute stamp ID -> epoch of the GA holding it
	baseMark []uint32 // source ID -> call epoch its base was assigned in
	base     []int32  // source ID -> first attribute stamp ID this call
	nextBase int32    // next free attribute stamp ID this call
	out      []outGA  // clusters passing the β filter, in schema order
}

// newCluster hands out a zeroed cluster from the slab. seed() sizes the
// slab for the worst case (every seed cluster plus one per possible
// merge), so the slab never reallocates mid-run — pointers into it stay
// valid for the whole Match call.
func (s *Scratch) newCluster() *workCluster {
	s.slab = s.slab[:len(s.slab)+1]
	c := &s.slab[len(s.slab)-1]
	*c = workCluster{}
	return c
}

// countBuckets returns n zeroed counting-sort buckets.
func (s *Scratch) countBuckets(n int) []int32 {
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	cnt := s.counts[:n]
	clear(cnt)
	return cnt
}

// beginStamps opens a validity check over at most nGAs GAs on u and
// returns the call's epoch; every GA epoch of the call is greater.
func (s *Scratch) beginStamps(u *model.Universe, nGAs int) uint32 {
	if n := u.N(); len(s.srcMark) < n {
		s.srcMark = append(s.srcMark, make([]uint32, n-len(s.srcMark))...)
		s.baseMark = append(s.baseMark, make([]uint32, n-len(s.baseMark))...)
		s.base = append(s.base, make([]int32, n-len(s.base))...)
	}
	if s.epoch > math.MaxUint32-uint32(nGAs)-1 {
		// Restart the epochs rather than let them wrap onto live marks.
		clear(s.srcMark)
		clear(s.attrMark)
		clear(s.baseMark)
		s.epoch = 0
	}
	s.epoch++
	s.nextBase = 0
	return s.epoch
}

// attrID returns r's attribute stamp ID for the call opened at epoch
// call. IDs are dense over the sources the call's GAs touch: a source gets
// its block of IDs the first time one of its attributes is stamped.
func (s *Scratch) attrID(u *model.Universe, r model.AttrRef, call uint32) int {
	if s.baseMark[r.Source] != call {
		s.baseMark[r.Source] = call
		s.base[r.Source] = s.nextBase
		s.nextBase += int32(len(u.Source(r.Source).Attributes))
		if need := int(s.nextBase); len(s.attrMark) < need {
			s.attrMark = append(s.attrMark, make([]uint32, need-len(s.attrMark))...)
		}
	}
	return int(s.base[r.Source]) + r.Attr
}
