package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ube/internal/engine"
	"ube/internal/synth"
	"ube/internal/trace"
)

// The feedback workload is the paper's §7.1 universe (700 sources with
// PCSA signatures, a 132-name vocabulary) driven through in-process
// sessions at m=20 and m=40, each running the same scripted feedback
// loop with a fixed per-solve evaluation budget. Each m gets several
// sessions with different solver seeds, so one run averages over several
// search trajectories instead of depending on one. Most of its time is
// Algorithm 1 clustering, QEF evaluation and PCSA unions; it bypasses
// the server, router, WAL, blocking and churn.

// feedbackSteps is the number of solves in one session's script.
const feedbackSteps = 6

// feedbackSession is one scripted session: its m and its per-solve
// evaluation budget.
type feedbackSession struct{ m, evals int }

type feedbackShape struct {
	// sessions run in order, each with its own solver seed. The m=20
	// sessions get more evaluations so a solve costs about the same at
	// either m: the latency distribution then has one mode, and its
	// median does not fall into the gap between two.
	sessions []feedbackSession
}

// feedbackSolve is one solve of a pass.
type feedbackSolve struct {
	m     int
	first bool
	lat   timing
	sol   *engine.Solution
	prob  engine.Problem
	tr    *trace.Trace
}

// feedbackPass runs every session's script once, each on a freshly
// set-up engine, and returns the solves in order plus the set-up timings.
func feedbackPass(data []byte, shape feedbackShape, seed int64, traced bool) ([]feedbackSolve, []setupTiming, error) {
	var solves []feedbackSolve
	var setups []setupTiming
	for i, fs := range shape.sessions {
		m := fs.m
		e, st, err := setupEngine(data)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, st)
		p := engine.DefaultProblem()
		p.MaxSources = m
		p.MaxEvals = fs.evals
		p.Seed = seed*1000 + int64(i)
		s := engine.NewSession(e, p)
		rng := rand.New(rand.NewSource(p.Seed*131 + int64(m)))
		if err := feedbackScript(s, m, rng, traced, &solves); err != nil {
			return nil, nil, err
		}
	}
	return solves, setups, nil
}

// feedbackScript runs one session's scripted loop, appending its solves.
func feedbackScript(s *engine.Session, m int, rng *rand.Rand, traced bool, solves *[]feedbackSolve) error {
	for k := 0; k < feedbackSteps; k++ {
		if err := feedbackEdit(s, k, rng); err != nil {
			return fmt.Errorf("m=%d step %d: %w", m, k, err)
		}
		sol, lat, tr, err := timedSolve(s, traced)
		if err != nil {
			return fmt.Errorf("m=%d step %d: %w", m, k, err)
		}
		*solves = append(*solves, feedbackSolve{m: m, first: k == 0, lat: lat, sol: sol,
			prob: s.History()[k].Problem, tr: tr})
	}
	return nil
}

// feedbackEdit applies step k of the scripted loop: cold solve,
// reweight, pin a chosen source, tighten θ, exclude a chosen source,
// reweight. Choices depend only on the previous solution and rng.
func feedbackEdit(s *engine.Session, k int, rng *rand.Rand) error {
	last := s.Last()
	switch k {
	case 0:
		return nil
	case 1:
		return s.SetWeight("card", 0.4)
	case 2:
		return s.RequireSource(last.Sources[rng.Intn(len(last.Sources))])
	case 3:
		s.SetTheta(0.75)
		return nil
	case 4:
		pinned := map[int]bool{}
		for _, id := range s.Problem().Constraints.Sources {
			pinned[id] = true
		}
		var free []int
		for _, id := range last.Sources {
			if !pinned[id] {
				free = append(free, id)
			}
		}
		if len(free) == 0 {
			return fmt.Errorf("no unpinned source to exclude")
		}
		return s.ExcludeSource(free[rng.Intn(len(free))])
	default:
		return s.SetWeight("coverage", 0.3)
	}
}

func feedbackDigest(solves []feedbackSolve) string {
	recs := make([][]byte, len(solves))
	for i, fs := range solves {
		recs[i] = canonicalSolution(fs.sol)
	}
	return digestOf(recs)
}

func runFeedback(o *options, r *report) error {
	cfg := synth.DefaultConfig()
	m20, m40 := feedbackSession{m: 20, evals: 1800}, feedbackSession{m: 40, evals: 800}
	shape := feedbackShape{sessions: []feedbackSession{m20, m40, m20, m40, m20, m40}}
	mValues := []int{20, 40}
	if o.toy {
		cfg = synth.QuickConfig(60)
		m5, m8 := feedbackSession{m: 5, evals: 180}, feedbackSession{m: 8, evals: 120}
		shape = feedbackShape{sessions: []feedbackSession{m5, m8}}
		mValues = []int{5, 8}
	}
	cfg.Seed = o.seed
	u, _, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	data, err := json.Marshal(u)
	if err != nil {
		return err
	}
	r.note("feedback: U=%d sources, %d bytes of universe JSON, sessions (m, evaluations per solve) %v, %d solves per session",
		u.N(), len(data), shape.sessions, feedbackSteps)

	heap, heapSetup, err := setupHeapMiB(data)
	if err != nil {
		return err
	}
	r.set("setup_heap_mib", heap, "MiB")

	// The measured phase repeats the whole pass, on fresh engines, while
	// another pass fits in the run time; every pass must reproduce the
	// first.
	var setups setupSamples
	setups.add(heapSetup)
	var stats solveStats
	var first []float64
	var untracedMs float64
	var pass0 []feedbackSolve
	start := time.Now()
	passes := 0
	var last time.Duration
	for passes == 0 || time.Since(start)+last <= o.seconds {
		t := time.Now()
		solves, sts, err := feedbackPass(data, shape, o.seed, false)
		last = time.Since(t)
		if err != nil {
			r.op(false)
			return err
		}
		for _, st := range sts {
			setups.add(st)
		}
		untracedMs = 0
		for _, fs := range solves {
			r.op(true)
			stats.add(fs.lat, fs.sol.Evals)
			untracedMs += ms(fs.lat.cpu)
			if fs.first {
				first = append(first, ms(fs.lat.cpu))
			}
		}
		d := feedbackDigest(solves)
		if passes == 0 {
			r.digest, pass0 = d, solves
		}
		r.gate(d == r.digest, "pass %d digest %s differs from pass 0 %s", passes, d, r.digest)
		passes++
	}
	r.note("measured phase: %d passes in %.1f s", passes, time.Since(start).Seconds())
	setups.record(r)
	stats.record(r)
	r.set("engine.first_solve_ms", median(first), "ms")
	if !o.trace {
		return nil
	}

	// The traced pass is compared with the last untraced pass, which ran
	// just before it on an equally warm process.
	solves, _, err := feedbackPass(data, shape, o.seed, true)
	if err != nil {
		r.op(false)
		return err
	}
	r.gate(feedbackDigest(solves) == r.digest, "traced pass changed the solutions")
	var sums traceSums
	tracedMs := 0.0
	for _, fs := range solves {
		r.op(true)
		sums.add(fs.tr, fs.sol)
		tracedMs += ms(fs.lat.cpu)
	}
	sums.record(r)
	recordOverhead(r, untracedMs, tracedMs)

	all := &layerSamples{}
	for _, m := range mValues {
		var cases []replayCase
		for _, fs := range pass0 {
			if fs.m == m {
				cases = append(cases, replayCase{p: fs.prob, set: fs.sol.Sources})
			}
		}
		ls, err := replayLayers(u, cases, o.seed)
		if err != nil {
			return err
		}
		ls.record(r, fmt.Sprintf(".m%d", m))
		all.merge(ls)
	}
	all.record(r, "")
	checkReplayPath(r, all)
	r.set("server.queue_rejections", 0, "count")
	r.set("server.solve_memo_hits", 0, "count")
	r.note("server.*: 0, the feedback workload runs in process and bypasses the server")
	estimateShares(r)
	return nil
}
