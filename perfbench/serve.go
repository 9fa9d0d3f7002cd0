package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
	"pactrain/internal/loadgen"
	"pactrain/internal/serve"
)

// The serve-mix traffic: an open loop of serveRate arrivals per second,
// alternating between the two cache-peer instances. Each second is one block
// with a fixed count of each kind. The one unique per second sits well under
// the pair's training capacity, so the queue drains between trainings and
// latency measures the service, not a growing backlog.
const (
	serveRate      = 8 // arrivals per second and per block
	serveUnique    = 1 // per block
	serveDuplicate = 1 // per block
	serveRepeat    = serveRate - serveUnique - serveDuplicate
	servePool      = 6 // distinct requests the set-up trains for repeats
	serveSetups    = 3 // set-ups per run; setup_s is their median
	// serveLimit is the ontime_frac latency limit, from due time to done.
	serveLimit = 2.0
	// lateLimit is the generator's allowed p90 send lateness; a run whose
	// generator fell further behind schedule is invalid.
	lateLimit = 0.1
	// serveTail bounds how long the phase waits for the last arrivals.
	serveTail = 60 * time.Second
	// pollEvery paces the poller. Latency is read from the jobs' own
	// FinishedAt stamps, so a slower poll costs no accuracy, only less CPU.
	pollEvery = 100 * time.Millisecond
)

// serveRequest is the request for one input seed: the smallest experiment
// grid that really trains.
func serveRequest(seed uint64) serve.SubmitRequest {
	return serve.SubmitRequest{Experiment: "ablation-tern", Quick: true, World: 2, Samples: 64, Seed: seed}
}

// serveArrival tracks one generated arrival end to end. The submitter owns
// it until acceptance, the poller after; mu in the generator orders both.
type serveArrival struct {
	seed      uint64
	target    int
	due       time.Time
	sent      time.Time
	submitS   float64
	jobID     string
	coalesced bool
	refused   int
	accepted  bool
	resolved  bool
	done      bool
	queued    time.Time
	started   time.Time
	finished  time.Time
}

// bootPair starts a fresh cache-peer pair and trains the repeat pool on it,
// returning each pool request's result bytes.
func (b *bench) bootPair(k int, pool []uint64) (*loadgen.Pair, map[uint64][]byte, error) {
	var dirs [2]string
	for i := range dirs {
		dirs[i] = filepath.Join(b.work, fmt.Sprintf("serve%d-%d", k, i))
	}
	pair, err := loadgen.NewPair(loadgen.PairOptions{CacheDirs: dirs})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, len(pool))
	for i, seed := range pool {
		view, _, err := pair.Servers[i%2].Submit(serveRequest(seed))
		if err != nil {
			shutdown(pair)
			return nil, nil, fmt.Errorf("set-up submit: %w", err)
		}
		ids[i] = view.ID
	}
	results := make(map[uint64][]byte)
	deadline := time.Now().Add(serveTail)
	for i, seed := range pool {
		for {
			raw, view, _ := pair.Servers[i%2].Result(ids[i])
			if view.State == serve.JobDone {
				results[seed] = raw
				break
			}
			if view.State == serve.JobFailed || time.Now().After(deadline) {
				shutdown(pair)
				return nil, nil, fmt.Errorf("set-up job %s: state %s %s", ids[i], view.State, view.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return pair, results, nil
}

func shutdown(p *loadgen.Pair) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = p.Shutdown(ctx) // the benchmark is done with the pair either way
}

// serveStats sums both instances' engine counters.
func serveStats(p *loadgen.Pair) engine.Stats {
	var s engine.Stats
	for _, srv := range p.Servers {
		e := srv.EngineStats()
		s.Submitted += e.Submitted
		s.Trained += e.Trained
		s.Deduped += e.Deduped
		s.CacheHits += e.CacheHits
		s.PeerHits += e.PeerHits
		s.PeerMisses += e.PeerMisses
		s.PeerErrors += e.PeerErrors
	}
	return s
}

func statsDelta(after, before engine.Stats) engine.Stats {
	return engine.Stats{
		Submitted: after.Submitted - before.Submitted, Trained: after.Trained - before.Trained,
		Deduped: after.Deduped - before.Deduped, CacheHits: after.CacheHits - before.CacheHits,
		PeerHits: after.PeerHits - before.PeerHits, PeerMisses: after.PeerMisses - before.PeerMisses,
		PeerErrors: after.PeerErrors - before.PeerErrors,
	}
}

// servePhase is what one timed phase of serve-mix measured.
type servePhase struct {
	arrivals   []*serveArrival
	wall, cpu  float64
	latePct90  float64
	fetchS     float64
	queueMax   int
	engine     engine.Stats
	queueWaitS float64
	runS       float64
}

// arrivals lays out the phase's traffic: the seed-shuffled kinds, the
// request each carries and the instance it goes to.
func (b *bench) arrivals(pool []uint64, start time.Time) []*serveArrival {
	blocks := max(1, int(b.seconds))
	kinds := arrivalOrder(blocks, serveUnique, serveDuplicate, serveRepeat, int64(b.seed))
	rng := rand.New(rand.NewSource(int64(b.seed) + 1))
	nextUnique := pool[len(pool)-1] + 1
	var lastUnique uint64
	out := make([]*serveArrival, len(kinds))
	for i, kind := range kinds {
		a := &serveArrival{target: i % 2,
			due: start.Add(time.Duration(float64(i) / float64(serveRate) * float64(time.Second)))}
		switch kind {
		case kindUnique:
			a.seed, lastUnique = nextUnique, nextUnique
			nextUnique++
		case kindDuplicate:
			a.seed = lastUnique
		case kindRepeat:
			a.seed = pool[rng.Intn(len(pool))]
		}
		out[i] = a
	}
	return out
}

// generator is the open-loop client: one submitter sending each arrival at
// its due time, one poller listing jobs, over one shared connection per
// instance.
type generator struct {
	pair   *loadgen.Pair
	client *http.Client
	o      *outcome
	omu    sync.Mutex // guards o.problems, which both goroutines append to
	mu     sync.Mutex
	// results holds the first result bytes seen for each request seed.
	results map[uint64][]byte
	ph      *servePhase
}

func (g *generator) submit(a *serveArrival) (retryAt time.Time, final bool) {
	raw, err := json.Marshal(serveRequest(a.seed))
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	sent := time.Now()
	resp, err := g.client.Post(g.pair.URLs[a.target]+"/v1/experiments", "application/json", bytes.NewReader(raw))
	if err != nil {
		g.check(false, "submit: %v", err)
		return time.Time{}, true
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	submitS := time.Since(sent).Seconds()
	g.mu.Lock()
	defer g.mu.Unlock()
	if a.sent.IsZero() {
		a.sent = sent
	}
	a.submitS += submitS
	switch {
	case err != nil:
		g.check(false, "submit: read response: %v", err)
		return time.Time{}, true
	case resp.StatusCode == http.StatusTooManyRequests:
		a.refused++
		retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || retry < 1 {
			retry = 1
		}
		return time.Now().Add(time.Duration(retry) * time.Second), false
	case resp.StatusCode != http.StatusAccepted:
		g.check(false, "submit: status %d: %s", resp.StatusCode, body)
		return time.Time{}, true
	}
	var sub struct {
		JobID     string `json:"job_id"`
		Coalesced bool   `json:"coalesced"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		g.check(false, "submit: decode response: %v", err)
		return time.Time{}, true
	}
	a.jobID, a.coalesced, a.accepted = sub.JobID, sub.Coalesced, true
	return time.Time{}, true
}

func (g *generator) check(ok bool, format string, args ...any) {
	g.omu.Lock()
	g.o.check(ok, format, args...)
	g.omu.Unlock()
}

// runSubmitter sends every arrival at its due time; a refused arrival is
// retried after the server's Retry-After until the phase deadline.
func (g *generator) runSubmitter(arrivals []*serveArrival, deadline time.Time) {
	type retry struct {
		at time.Time
		a  *serveArrival
	}
	var retries []retry
	next := 0
	for next < len(arrivals) || len(retries) > 0 {
		var a *serveArrival
		var at time.Time
		ri := -1
		for i, r := range retries {
			if ri < 0 || r.at.Before(retries[ri].at) {
				ri = i
			}
		}
		if next < len(arrivals) && (ri < 0 || !retries[ri].at.Before(arrivals[next].due)) {
			a, at = arrivals[next], arrivals[next].due
			next++
		} else {
			a, at = retries[ri].a, retries[ri].at
			retries = append(retries[:ri], retries[ri+1:]...)
		}
		if at.After(deadline) {
			continue // refused until the end: counted as failed
		}
		time.Sleep(time.Until(at))
		if when, final := g.submit(a); !final {
			retries = append(retries, retry{when, a})
		}
	}
}

// runPoller lists each instance's jobs until every accepted arrival has
// resolved, stamping arrivals from the job records and fetching each done
// job's result once.
func (g *generator) runPoller(arrivals []*serveArrival, submitted <-chan struct{}, deadline time.Time) {
	fetched := make(map[string]bool)
	subDone := false
	for time.Now().Before(deadline) {
		select {
		case <-submitted:
			subDone = true
		default:
		}
		for _, srv := range g.pair.Servers {
			st := srv.Stats()
			g.ph.queueMax = max(g.ph.queueMax, st.Queue.High+st.Queue.Low)
		}
		open := false
		for inst, url := range g.pair.URLs {
			views, err := g.listJobs(url)
			if err != nil {
				g.check(false, "poll %s: %v", url, err)
				return
			}
			for _, v := range views {
				if v.State != serve.JobDone && v.State != serve.JobFailed {
					continue
				}
				key := url + "/" + v.ID
				g.mu.Lock()
				var mine []*serveArrival
				for _, a := range arrivals {
					if a.target == inst && a.jobID == v.ID && !a.resolved {
						mine = append(mine, a)
					}
				}
				g.mu.Unlock()
				if len(mine) == 0 {
					continue
				}
				queued, _ := time.Parse(time.RFC3339Nano, v.QueuedAt)
				started, _ := time.Parse(time.RFC3339Nano, v.StartedAt)
				finished, _ := time.Parse(time.RFC3339Nano, v.FinishedAt)
				if v.State == serve.JobDone && !fetched[key] {
					fetched[key] = true
					g.fetch(url, v.ID, mine[0].seed)
					g.ph.queueWaitS += started.Sub(queued).Seconds()
					g.ph.runS += finished.Sub(started).Seconds()
				}
				g.mu.Lock()
				for _, a := range mine {
					a.resolved, a.done = true, v.State == serve.JobDone
					a.queued, a.started, a.finished = queued, started, finished
				}
				g.mu.Unlock()
			}
		}
		g.mu.Lock()
		for _, a := range arrivals {
			if !a.resolved && (a.accepted || !subDone) {
				open = true
			}
		}
		g.mu.Unlock()
		if subDone && !open {
			return
		}
		time.Sleep(pollEvery)
	}
}

func (g *generator) listJobs(url string) ([]serve.JobView, error) {
	resp, err := g.client.Get(url + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var views []serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		return nil, err
	}
	return views, nil
}

// fetch reads a done job's report bytes and checks them against every other
// copy of the same request: duplicates, repeats, the set-up run and the
// sibling instance.
func (g *generator) fetch(url, id string, seed uint64) {
	t0 := time.Now()
	resp, err := g.client.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		g.check(false, "fetch %s: %v", id, err)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.ph.fetchS += time.Since(t0).Seconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		g.check(false, "fetch %s: status %d: %v", id, resp.StatusCode, err)
		return
	}
	if ref, ok := g.results[seed]; ok {
		g.check(bytes.Equal(raw, ref), "request seed %d: result bytes of job %s differ from an earlier copy", seed, id)
		return
	}
	g.results[seed] = raw
}

// phase drives one timed phase against a booted pair.
func (b *bench) phase(pair *loadgen.Pair, pool []uint64, poolResults map[uint64][]byte, o *outcome) *servePhase {
	ph := &servePhase{}
	g := &generator{pair: pair, o: o, ph: ph, results: make(map[uint64][]byte)}
	for seed, raw := range poolResults {
		g.results[seed] = raw
	}
	// One connection per instance, shared by the submitter and the poller.
	g.client = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer g.client.CloseIdleConnections()

	before := serveStats(pair)
	start := time.Now().Add(50 * time.Millisecond)
	arrivals := b.arrivals(pool, start)
	deadline := arrivals[len(arrivals)-1].due.Add(serveTail)
	cpu0 := cpuSeconds()
	submitted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.runSubmitter(arrivals, deadline)
		close(submitted)
	}()
	go func() {
		defer wg.Done()
		g.runPoller(arrivals, submitted, deadline)
	}()
	wg.Wait()
	ph.wall = time.Since(start).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	ph.engine = statsDelta(serveStats(pair), before)
	ph.arrivals = arrivals

	var due, sent []float64
	for _, a := range arrivals {
		if !a.sent.IsZero() {
			due = append(due, a.due.Sub(start).Seconds())
			sent = append(sent, a.sent.Sub(start).Seconds())
		}
	}
	ph.latePct90 = percentile(lateness(due, sent), 0.90)
	return ph
}

// runServeMix boots a cache-peer pair, trains the repeat pool, then drives
// the open-loop mix and checks every copy of each request's result.
func runServeMix(b *bench) (*outcome, error) {
	o := &outcome{limit: serveLimit}
	base := b.seed * 100000
	pool := make([]uint64, servePool)
	for i := range pool {
		pool[i] = base + uint64(i)
	}

	measure := func(k int, timed bool) (*servePhase, error) {
		var pair *loadgen.Pair
		var poolResults map[uint64][]byte
		setups := 1
		if timed {
			setups = serveSetups
		}
		for i := 0; i < setups; i++ {
			if pair != nil {
				shutdown(pair)
			}
			t0 := time.Now()
			var err error
			pair, poolResults, err = b.bootPair(k*serveSetups+i, pool)
			if err != nil {
				return nil, err
			}
			if timed {
				o.setups = append(o.setups, time.Since(t0).Seconds())
			}
		}
		defer shutdown(pair)
		return b.phase(pair, pool, poolResults, o), nil
	}

	var untraced float64
	if b.rec != nil {
		// The traced run's overhead baseline: the same phase, untraced.
		rec := b.rec
		b.rec = nil
		ph, err := measure(0, false)
		b.rec = rec
		if err != nil {
			return nil, err
		}
		untraced = ph.wall
	}
	ph, err := measure(1, true)
	if err != nil {
		return nil, err
	}
	o.walls = append(o.walls, ph.wall)
	o.cpus = append(o.cpus, ph.cpu)
	var submitS float64
	refused, coalesced := 0, 0
	for i, a := range ph.arrivals {
		o.attempted++
		submitS += a.submitS
		refused += a.refused
		if a.coalesced {
			coalesced++
		}
		if !a.done {
			o.failed++
			continue
		}
		o.latencies = append(o.latencies, a.finished.Sub(a.due).Seconds())
		run := fmt.Sprintf("serve-mix/arrival%d", i)
		root := b.rec.add("arrival", run, -1, a.due, a.finished)
		b.rec.add("serve.submit", run, root, a.sent, a.sent.Add(time.Duration(a.submitS*float64(time.Second))))
		b.rec.add("serve.queue", run, root, a.queued, a.started)
		b.rec.add("serve.run", run, root, a.started, a.finished)
	}
	o.check(ph.latePct90 <= lateLimit, "generator fell behind schedule: p90 send lateness %.3fs > %.3fs", ph.latePct90, lateLimit)
	if b.rec == nil {
		return o, nil
	}

	l := layerSet{}
	var p probeTotals
	cfg := core.DefaultConfig("MLP", "pactrain-ternary")
	w := harness.QuickWorkloads()[0]
	cfg.Lite.Width, cfg.World, cfg.Seed, cfg.BatchSize = w.Width, 2, b.seed, 8
	cfg.Data.Samples, cfg.Data.Seed = 64, 11+b.seed
	pr, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if err := probe(pr, &p); err != nil {
		return nil, err
	}
	l.addProbes(p)
	l["core.runs"] = float64(ph.engine.Trained)
	l.addEngine(ph.engine)
	l["serve.submit_s"] = submitS
	l["serve.queue_wait_s"] = ph.queueWaitS
	l["serve.run_s"] = ph.runS
	l["serve.fetch_s"] = ph.fetchS
	l["serve.refused"] = float64(refused)
	l["serve.coalesced"] = float64(coalesced)
	l["serve.queue_depth_max"] = float64(ph.queueMax)
	l["gen.late_p90_s"] = ph.latePct90
	l["trace.overhead_s"] = ph.wall - untraced
	o.layers = l.metrics()
	return o, nil
}
