package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ube/internal/engine"
	"ube/internal/router"
	"ube/internal/schemaio"
	"ube/internal/server"
	"ube/internal/synth"
	"ube/internal/trace"
	"ube/internal/wal"
)

// The serve workload is an open loop of independent users against an
// in-process router in front of two in-process session-server shards,
// each with a write-ahead log and one solve worker, at the default
// configuration (solve memo off). Each user uploads the 40-source
// QuickConfig universe, runs a four-solve script with its own solver
// seed, so no two problems are equal, and reads its history. The
// generator keeps at most two connections and times every request from
// when it was due. Most of the work is the universe decode, engine.New
// per session, the server queue, WAL group commit and the router proxy;
// the solves are small.

type serveShape struct {
	sources, m, evals int
	rate              float64       // users per second in the measured phase
	ladder            []float64     // users per second, ascending, for max_rps
	rung              time.Duration // length of one ladder rung
	limitMs           float64       // solve_p95_ms limit a ladder rung must meet
	creates           int           // sessions per create-sample batch
	warmUsers         int           // unmeasured users before the measured phase
	sampleUsers       int           // users per route in the direct-vs-routed sample
	digestUsers       int           // measured users whose histories form the digest
}

// solvesPerUser is the length of each user's script.
const solvesPerUser = 4

// serveConns bounds the generator's connections per host: the machine
// has two cores, and the generator shares them with the fleet.
const serveConns = 2

// userSpec is one user's inputs: the create body and the problem it
// carries.
type userSpec struct {
	id   int
	doc  *schemaio.ProblemDoc
	body []byte
}

func makeUsers(data []byte, shape serveShape, seed int64, base, n int) ([]*userSpec, error) {
	specs := make([]*userSpec, n)
	for i := range specs {
		p := engine.DefaultProblem()
		p.MaxSources = shape.m
		p.MaxEvals = shape.evals
		p.Seed = seed*1_000_003 + int64(base+i)
		doc, err := schemaio.EncodeProblem(&p)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Universe json.RawMessage      `json:"universe"`
			Problem  *schemaio.ProblemDoc `json:"problem"`
		}{data, doc})
		if err != nil {
			return nil, err
		}
		specs[i] = &userSpec{id: base + i, doc: doc, body: body}
	}
	return specs, nil
}

// serveEdit is the edit before solve k of a user's script: cold solve,
// pin the first chosen source, tighten θ, bias cardinality.
func serveEdit(k int, last []int) map[string]any {
	switch k {
	case 1:
		return map[string]any{"pinSources": []int{last[0]}}
	case 2:
		return map[string]any{"theta": 0.75}
	case 3:
		return map[string]any{"setWeights": map[string]float64{"card": 0.5}}
	}
	return map[string]any{}
}

// serveEditLocal is serveEdit applied to an in-process session the way
// the server applies it.
func serveEditLocal(s *engine.Session, k int) error {
	switch k {
	case 1:
		return s.RequireSource(s.Last().Sources[0])
	case 2:
		s.SetTheta(0.75)
	case 3:
		return s.SetWeight("card", 0.5)
	}
	return nil
}

// userRun is what the generator observed for one user.
type userRun struct {
	spec      *userSpec
	late      time.Duration   // start minus due time
	create    time.Duration   // from due time
	solves    []time.Duration // each from its due time: the previous response
	evals     int             // objective evaluations the solves report
	history   []byte          // canonical history
	attempted int
	failed    int
	err       error
}

type client struct {
	http *http.Client
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}}
}

// do sends one request and decodes a 2xx JSON body into out.
func (c *client) do(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(raw, out)
	}
	return resp.StatusCode, nil
}

// runUser plays one user's script against base, starting at due.
func (c *client) runUser(base string, spec *userSpec, due time.Time) *userRun {
	u := &userRun{spec: spec, late: time.Since(due)}
	fail := func(err error) *userRun {
		u.failed++
		u.err = fmt.Errorf("user %d: %w", spec.id, err)
		return u
	}
	var created struct {
		ID string `json:"id"`
	}
	u.attempted++
	if _, err := c.do(http.MethodPost, base+"/v1/sessions", spec.body, &created); err != nil {
		return fail(err)
	}
	prev := time.Now()
	u.create = prev.Sub(due)
	sessionURL := base + "/v1/sessions/" + created.ID
	var last []int
	for k := 0; k < solvesPerUser; k++ {
		edit, err := json.Marshal(serveEdit(k, last))
		if err != nil {
			return fail(err)
		}
		var solved struct {
			Solution *schemaio.SolutionDoc `json:"solution"`
		}
		u.attempted++
		if _, err := c.do(http.MethodPost, sessionURL+"/solve", edit, &solved); err != nil {
			return fail(err)
		}
		now := time.Now()
		u.solves = append(u.solves, now.Sub(prev))
		prev = now
		if solved.Solution == nil {
			return fail(errors.New("solve response without a solution"))
		}
		last = solved.Solution.Sources
		u.evals += solved.Solution.Evals
	}
	var hist struct {
		Iterations []schemaio.IterationDoc `json:"iterations"`
	}
	u.attempted++
	if _, err := c.do(http.MethodGet, sessionURL+"/history", nil, &hist); err != nil {
		return fail(err)
	}
	u.history = canonicalHistory(hist.Iterations)
	return u
}

// createSample creates the users' sessions one at a time through the
// router, so nothing queues, timing each create on the wall clock and
// reading the live heap before and after with the sessions alive; then
// it deletes them. count records every create and delete.
func (c *client) createSample(f *fleet, specs []*userSpec, count func(ok bool)) (latMs []float64, heapBytes int64, err error) {
	before := liveHeap()
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		var created struct {
			ID string `json:"id"`
		}
		t := time.Now()
		_, err := c.do(http.MethodPost, f.routerURL+"/v1/sessions", spec.body, &created)
		lat := time.Since(t)
		count(err == nil)
		if err != nil {
			return nil, 0, fmt.Errorf("create sample, user %d: %w", spec.id, err)
		}
		latMs = append(latMs, ms(lat))
		ids = append(ids, created.ID)
	}
	after := liveHeap()
	for _, id := range ids {
		_, err := c.do(http.MethodDelete, f.routerURL+"/v1/sessions/"+id, nil, nil)
		count(err == nil)
		if err != nil {
			return nil, 0, fmt.Errorf("create sample, deleting %s: %w", id, err)
		}
	}
	return latMs, int64(after) - int64(before), nil
}

// openLoop starts users at a fixed rate from t0, each in its own
// goroutine regardless of how earlier users fare, and waits for all.
func (c *client) openLoop(base string, specs []*userSpec, rate float64) []*userRun {
	runs := make([]*userRun, len(specs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, spec := range specs {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, spec *userSpec, due time.Time) {
			defer wg.Done()
			runs[i] = c.runUser(base, spec, due)
		}(i, spec, due)
	}
	wg.Wait()
	return runs
}

// closedLoop runs users one after another.
func (c *client) closedLoop(base string, specs []*userSpec) []*userRun {
	runs := make([]*userRun, len(specs))
	for i, spec := range specs {
		runs[i] = c.runUser(base, spec, time.Now())
	}
	return runs
}

// fleet is the serving stack: two shards and a router, each on its own
// loopback listener.
type fleet struct {
	shards    []*server.Server
	https     []*http.Server
	shardURLs []string
	router    *router.Router
	routerTr  *http.Transport
	routerURL string
	serving   sync.WaitGroup
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

func startFleet(walRoot string) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < 2; i++ {
		srv, err := server.Open(server.Config{Workers: 1, WALDir: filepath.Join(walRoot, "shard"+strconv.Itoa(i))})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, srv)
		url, err := f.listen(srv.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, url)
	}
	f.routerTr = &http.Transport{MaxIdleConnsPerHost: 64}
	rt, err := router.New(router.Config{Shards: f.shardURLs, Client: &http.Client{Transport: f.routerTr}})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.routerURL, err = f.listen(rt.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the listeners, the router and the shards down and waits for
// every serving goroutine to end.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	for _, hs := range f.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	f.serving.Wait()
	if f.router != nil {
		f.router.Close()
		f.routerTr.CloseIdleConnections()
	}
	for _, s := range f.shards {
		errs = append(errs, s.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// shardMetrics is the part of a shard's /metrics the benchmark reads.
type shardMetrics struct {
	Solves          int64 `json:"solves"`
	QueueRejections int64 `json:"queueRejections"`
	SolveCacheHits  int64 `json:"solveCacheHits"`
	SolveLatency    struct {
		Count int64   `json:"count"`
		SumMs float64 `json:"sumMs"`
	} `json:"solveLatencyMs"`
	WAL *struct {
		Appends      uint64 `json:"appends"`
		Batches      uint64 `json:"batches"`
		FlushLatency struct {
			Buckets []struct {
				LE    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"flushLatencyMs"`
	} `json:"wal"`
}

// scrape reads every shard's /metrics and the router's.
func (c *client) scrape(f *fleet) ([]shardMetrics, int64, error) {
	out := make([]shardMetrics, len(f.shardURLs))
	for i, url := range f.shardURLs {
		if _, err := c.do(http.MethodGet, url+"/metrics", nil, &out[i]); err != nil {
			return nil, 0, err
		}
	}
	var rm struct {
		Router struct {
			ProxyErrors int64 `json:"proxyErrors"`
		} `json:"router"`
	}
	if _, err := c.do(http.MethodGet, f.routerURL+"/metrics", nil, &rm); err != nil {
		return nil, 0, err
	}
	return out, rm.Router.ProxyErrors, nil
}

// serverSolveTime is the shards' solve count, summed solve time and mean
// solve time between two scrapes.
func serverSolveTime(before, after []shardMetrics) (meanMs float64, n int64, sumMs float64) {
	for i := range after {
		n += after[i].SolveLatency.Count - before[i].SolveLatency.Count
		sumMs += after[i].SolveLatency.SumMs - before[i].SolveLatency.SumMs
	}
	return sumMs / float64(n), n, sumMs
}

// walFlushMeanMs estimates the mean group-commit flush time from the
// WAL's cumulative histogram, taking each bucket's midpoint (the
// overflow bucket counts at its lower bound).
func walFlushMeanMs(ms []shardMetrics) (mean float64, appends, batches uint64) {
	var n int64
	var total float64
	for _, m := range ms {
		if m.WAL == nil {
			continue
		}
		appends += m.WAL.Appends
		batches += m.WAL.Batches
		prevCum, lo := int64(0), 0.0
		for i, b := range m.WAL.FlushLatency.Buckets {
			cnt := b.Count - prevCum
			prevCum = b.Count
			mid := lo
			if i < len(wal.FlushLatencyBucketsMs) {
				hi := wal.FlushLatencyBucketsMs[i]
				mid, lo = (lo+hi)/2, hi
			}
			total += float64(cnt) * mid
			n += cnt
		}
	}
	return total / math.Max(1, float64(n)), appends, batches
}

// replayedUser is an in-process replay of one user's script.
type replayedUser struct {
	history []byte
	lats    []timing
	cases   []replayCase
	traces  []*trace.Trace
	sols    []*engine.Solution
}

// replayUser runs a user's script on a fresh in-process engine and
// session, optionally traced.
func replayUser(data []byte, spec *userSpec, traced bool) (*replayedUser, error) {
	e, _, err := setupEngine(data)
	if err != nil {
		return nil, err
	}
	p, err := spec.doc.Decode()
	if err != nil {
		return nil, err
	}
	s := engine.NewSession(e, p)
	out := &replayedUser{}
	for k := 0; k < solvesPerUser; k++ {
		if err := serveEditLocal(s, k); err != nil {
			return nil, err
		}
		sol, lat, tr, err := timedSolve(s, traced)
		if err != nil {
			return nil, err
		}
		out.lats = append(out.lats, lat)
		out.sols = append(out.sols, sol)
		out.traces = append(out.traces, tr)
		out.cases = append(out.cases, replayCase{p: s.History()[k].Problem, set: sol.Sources})
	}
	docs, err := schemaio.EncodeHistory(s.History())
	if err != nil {
		return nil, err
	}
	// Round-trip through JSON so both sides went through the same
	// decoder before comparison.
	raw, err := json.Marshal(docs)
	if err != nil {
		return nil, err
	}
	docs = nil
	if err := json.Unmarshal(raw, &docs); err != nil {
		return nil, err
	}
	out.history = canonicalHistory(docs)
	return out, nil
}

// replayAll replays every user's script on two workers.
func replayAll(data []byte, specs []*userSpec) ([]*replayedUser, error) {
	out := make([]*replayedUser, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replayUser(data, specs[i], false)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

func runServe(o *options, r *report) error {
	shape := serveShape{sources: 40, m: 20, evals: 200, rate: 2, ladder: []float64{4, 6, 8, 10, 12},
		rung: 2500 * time.Millisecond, limitMs: 250, creates: 40, warmUsers: 2, sampleUsers: 6, digestUsers: 8}
	if o.toy {
		shape = serveShape{sources: 20, m: 5, evals: 60, rate: 8, ladder: []float64{4, 8},
			rung: 500 * time.Millisecond, limitMs: 500, creates: 3, warmUsers: 1, sampleUsers: 2, digestUsers: 2}
	}
	cfg := synth.QuickConfig(shape.sources)
	cfg.Seed = o.seed
	u, _, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	data, err := json.Marshal(u)
	if err != nil {
		return err
	}
	nMain := max(shape.digestUsers, int(math.Ceil(shape.rate*o.seconds.Seconds())))
	r.note("serve: U=%d sources, %d bytes of universe JSON per create, m=%d, %d evaluations per solve, %d solves per user",
		shape.sources, len(data), shape.m, shape.evals, solvesPerUser)
	r.note("serve: open loop at %.2f users/s (%.1f solves/s) for %d users; router + 2 shards (WAL, 1 worker each); %d client connections",
		shape.rate, shape.rate*solvesPerUser, nMain, serveConns)

	var all []*userSpec
	users := func(base, n int) ([]*userSpec, error) {
		specs, err := makeUsers(data, shape, o.seed, base, n)
		all = append(all, specs...)
		return specs, err
	}
	mainSpecs, err := users(0, nMain)
	if err != nil {
		return err
	}
	warmSpecs, err := users(1_000_000, shape.warmUsers)
	if err != nil {
		return err
	}
	// The create sample's users only create a session, in two batches:
	// before and after the measured phase.
	var createSpecs [][]*userSpec
	for b := 0; b < 2; b++ {
		specs, err := makeUsers(data, shape, o.seed, 5_000_000+100_000*b, shape.creates)
		if err != nil {
			return err
		}
		createSpecs = append(createSpecs, specs)
	}

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	walRoot, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)
	f, err := startFleet(walRoot)
	if err != nil {
		return err
	}
	c := newClient()
	runs, err := serveMeasure(o, r, shape, f, c, users, mainSpecs, warmSpecs, createSpecs)
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	c.http.CloseIdleConnections()
	if err != nil {
		return err
	}

	// Correctness: every user's served history must equal an in-process
	// replay of its script; the digest covers the first measured users'
	// served histories.
	replays, err := replayAll(data, all)
	if err != nil {
		return err
	}
	byID := map[int]*replayedUser{}
	for i, spec := range all {
		byID[spec.id] = replays[i]
	}
	for _, run := range runs {
		if run.err != nil {
			continue
		}
		r.gate(bytes.Equal(run.history, byID[run.spec.id].history),
			"user %d: served history differs from the in-process replay", run.spec.id)
	}
	served := map[int][]byte{}
	for _, run := range runs {
		served[run.spec.id] = run.history
	}
	recs := make([][]byte, shape.digestUsers)
	for i := range recs {
		recs[i] = served[i]
	}
	r.digest = digestOf(recs)
	if !o.trace {
		return nil
	}

	// The per-layer split of a create, in process with the fleet
	// stopped: the universe decode and engine.New.
	var setups setupSamples
	for i := 0; i < shape.creates; i++ {
		_, st, err := setupEngine(data)
		if err != nil {
			return err
		}
		setups.add(st)
	}
	setups.recordLayers(r)

	var sums traceSums
	var cases []replayCase
	var first []float64
	untracedMs, tracedMs := 0.0, 0.0
	// Untraced and traced replays of the same user alternate, one at a
	// time, so the overhead compares like with like.
	for i := 0; i < shape.digestUsers; i++ {
		un, err := replayUser(data, mainSpecs[i], false)
		if err != nil {
			return err
		}
		tr, err := replayUser(data, mainSpecs[i], true)
		if err != nil {
			return err
		}
		r.gate(bytes.Equal(tr.history, byID[i].history), "user %d: traced replay changed the history", i)
		first = append(first, ms(un.lats[0].cpu))
		for k, sol := range tr.sols {
			sums.add(tr.traces[k], sol)
			tracedMs += ms(tr.lats[k].cpu)
			untracedMs += ms(un.lats[k].cpu)
		}
		cases = append(cases, tr.cases...)
	}
	r.set("engine.first_solve_ms", median(first), "ms")
	sums.record(r)
	recordOverhead(r, untracedMs, tracedMs)
	ls, err := replayLayers(u, cases, o.seed)
	if err != nil {
		return err
	}
	ls.record(r, "")
	checkReplayPath(r, ls)
	estimateShares(r)
	return nil
}

// serveMeasure drives the fleet: warm-up, a create-sample batch, the
// measured open-loop phase and another create-sample batch, then, in
// traced runs only, the rate ladder and the direct-vs-routed stage
// sample. It returns every user run for the correctness check.
func serveMeasure(o *options, r *report, shape serveShape, f *fleet, c *client,
	users func(base, n int) ([]*userSpec, error), mainSpecs, warmSpecs []*userSpec, createSpecs [][]*userSpec) ([]*userRun, error) {
	var runs []*userRun
	count := func(rs []*userRun) {
		for _, ru := range rs {
			runs = append(runs, ru)
			for i := 0; i < ru.attempted; i++ {
				r.op(i < ru.attempted-ru.failed)
			}
			if ru.err != nil {
				r.note("FAILED %v", ru.err)
			}
		}
	}
	count(c.closedLoop(f.routerURL, warmSpecs))

	var createMs []float64
	var createHeap int64
	sampleCreates := func(specs []*userSpec) error {
		lat, heap, err := c.createSample(f, specs, r.op)
		createMs = append(createMs, lat...)
		createHeap += heap
		return err
	}
	if err := sampleCreates(createSpecs[0]); err != nil {
		return nil, err
	}

	before, _, err := c.scrape(f)
	if err != nil {
		return nil, err
	}
	heapBefore := liveHeap()
	start := time.Now()
	mainRuns := c.openLoop(f.routerURL, mainSpecs, shape.rate)
	elapsed := time.Since(start)
	heapAfter := liveHeap()
	count(mainRuns)
	after, proxyErrors, err := c.scrape(f)
	if err != nil {
		return nil, err
	}
	if err := sampleCreates(createSpecs[1]); err != nil {
		return nil, err
	}
	r.set("setup_s", median(createMs)/1000, "s")
	r.set("setup_heap_mib", float64(createHeap)/float64(len(createMs))/(1<<20), "MiB")
	r.note("set-up: %d session creates through the router, one at a time in two batches around the measured phase; setup_s is their median wall-clock latency, setup_heap_mib the live heap each created session holds",
		len(createMs))

	var solveMs, openCreateMs, lateMs []float64
	evals := 0
	for _, ru := range mainRuns {
		for _, d := range ru.solves {
			solveMs = append(solveMs, ms(d))
		}
		evals += ru.evals
		if ru.err == nil {
			openCreateMs = append(openCreateMs, ms(ru.create))
		}
		lateMs = append(lateMs, ms(ru.late))
	}
	if len(solveMs) == 0 || len(openCreateMs) == 0 {
		return nil, errors.New("no user completed a solve in the measured phase")
	}
	p50, p95 := median(solveMs), percentile(solveMs, 0.95)
	r.set("solve_p50_ms", p50, "ms")
	r.set("solve_p95_ms", p95, "ms")
	r.set("create_p50_ms", median(openCreateMs), "ms")
	r.set("session_kib", float64(int64(heapAfter)-int64(heapBefore))/float64(len(mainSpecs))/1024, "KiB")
	r.set("load.late_p95_ms", percentile(lateMs, 0.95), "ms")
	r.note("measured phase: %d users, %d solves in %.1f s (%.1f solves/s); solves timed from their due time",
		len(mainRuns), len(solveMs), elapsed.Seconds(), float64(len(solveMs))/elapsed.Seconds())

	solveMean, served, serverMs := serverSolveTime(before, after)
	r.gate(served == int64(len(solveMs)), "the shards counted %d solves in the measured phase, the generator %d", served, len(solveMs))
	r.set("evals_per_s", float64(evals)/(serverMs/1000), "1/s")
	r.note("evals_per_s: the evaluations the measured phase's solutions report over the shards' summed solve time (/metrics solveLatencyMs)")
	r.set("server.solve_mean_ms", solveMean, "ms")
	var rejections, memoHits int64
	for _, m := range after {
		rejections += m.QueueRejections
		memoHits += m.SolveCacheHits
	}
	r.set("server.queue_rejections", float64(rejections), "count")
	r.set("server.solve_memo_hits", float64(memoHits), "count")
	r.set("router.proxy_errors", float64(proxyErrors), "count")
	flushMean, appends, batches := walFlushMeanMs(after)
	r.set("wal.flush_mean_ms", flushMean, "ms")
	r.set("wal.appends_per_batch", float64(appends)/math.Max(1, float64(batches)), "ratio")
	r.note("wal.flush_mean_ms is an estimate from the flush histogram's bucket midpoints over %d group commits", batches)

	if !o.trace {
		return runs, nil
	}
	if err := serveLadder(r, shape, f, c, users, count); err != nil {
		return nil, err
	}

	// Direct-vs-routed sample, one user at a time so nothing queues: the
	// direct users first, with the shards' /metrics scraped around them
	// so the server's solve time covers exactly their solves, then the
	// routed users. The split uses means, which add up.
	direct, err := users(3_000_000, shape.sampleUsers)
	if err != nil {
		return nil, err
	}
	routed, err := users(4_000_000, shape.sampleUsers)
	if err != nil {
		return nil, err
	}
	sampleBefore, _, err := c.scrape(f)
	if err != nil {
		return nil, err
	}
	dRuns := c.closedLoop(f.shardURLs[0], direct)
	sampleAfter, _, err := c.scrape(f)
	if err != nil {
		return nil, err
	}
	rRuns := c.closedLoop(f.routerURL, routed)
	count(dRuns)
	count(rRuns)
	solveAndCreate := func(rs []*userRun) (solves, creates []float64) {
		for _, ru := range rs {
			for _, x := range ru.solves {
				solves = append(solves, ms(x))
			}
			creates = append(creates, ms(ru.create))
		}
		return solves, creates
	}
	dSolve, dCreate := solveAndCreate(dRuns)
	rSolve, rCreate := solveAndCreate(rRuns)
	directMean := sum(dSolve) / float64(len(dSolve))
	proxy := sum(rSolve)/float64(len(rSolve)) - directMean
	sampleMean, _, _ := serverSolveTime(sampleBefore, sampleAfter)
	overhead := directMean - sampleMean
	r.set("server.direct_solve_p50_ms", median(dSolve), "ms")
	r.set("server.direct_create_p50_ms", median(dCreate), "ms")
	r.set("router.routed_create_p50_ms", median(rCreate), "ms")
	r.set("server.overhead_ms", overhead, "ms")
	r.set("router.proxy_ms", proxy, "ms")
	r.note("stage sample: %d direct then %d routed users, one at a time; server.overhead_ms and router.proxy_ms are differences of mean solve times", len(direct), len(routed))
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50", p50}, {"p95", p95}} {
		r.note("stage split of client solve %s %.1f ms = router.proxy_ms %.2f + server.overhead_ms %.2f + server.solve_mean_ms %.2f + residual (client, transport and open-loop queueing) %.1f",
			q.name, q.v, proxy, overhead, solveMean, q.v-proxy-overhead-solveMean)
	}
	return runs, nil
}

// serveLadder runs the fixed rate ladder and reports max_rps: the
// highest rung whose solve p95 meets the latency limit while the
// generator's lateness does not grow over the rung.
func serveLadder(r *report, shape serveShape, f *fleet, c *client,
	users func(base, n int) ([]*userSpec, error), count func([]*userRun)) error {
	best := 0.0
	for i, rate := range shape.ladder {
		n := int(math.Ceil(rate * shape.rung.Seconds()))
		specs, err := users(2_000_000+100_000*i, n)
		if err != nil {
			return err
		}
		rs := c.openLoop(f.routerURL, specs, rate)
		count(rs)
		var solveMs, lateFirst, lateSecond []float64
		failed := 0
		for j, ru := range rs {
			for _, d := range ru.solves {
				solveMs = append(solveMs, ms(d))
			}
			failed += ru.failed
			if j < n/2 {
				lateFirst = append(lateFirst, ms(ru.late))
			} else {
				lateSecond = append(lateSecond, ms(ru.late))
			}
		}
		p95 := percentile(solveMs, 0.95)
		growing := median(lateSecond) > median(lateFirst)+50
		ok := failed == 0 && len(solveMs) > 0 && p95 <= shape.limitMs && !growing
		r.note("ladder %.1f solves/s: %d users, solve p50 %.1f ms, p95 %.1f ms, generator lateness %.1f -> %.1f ms: %s",
			rate*solvesPerUser, n, median(solveMs), p95, median(lateFirst), median(lateSecond), map[bool]string{true: "meets", false: "misses"}[ok])
		if ok {
			best = rate * solvesPerUser
		}
	}
	r.set("max_rps", best, "solves/s")
	r.note("max_rps: solve p95 limit %.0f ms on a ladder of %v users/s, %v per rung", shape.limitMs, shape.ladder, shape.rung)
	return nil
}
