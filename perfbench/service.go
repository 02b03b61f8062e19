package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/manetd"
	"repro/internal/scenario"
)

// The service workload: an in-process manetd behind a real HTTP
// listener, fed open-loop at a fixed rate with small inline specs.
const (
	serviceRate     = 40 // submissions per second
	serviceCycle    = 20 // distinct specs; a pass submits each once
	serviceNodes    = 16
	serviceDuration = 20 * time.Second // simulated time per spec
	pollEvery       = 5 * time.Millisecond
	// campaignLimit is how long a campaign may take from its due time
	// before it counts as failed; a failed or refused campaign counts as
	// taking this long in the latency percentiles.
	campaignLimit = 60 * time.Second
)

// serviceSpecs is the generator's spec cycle for a workload seed:
// honest 16-node grid runs whose seeds derive from the workload seed.
func serviceSpecs(seed int64) []scenario.Spec {
	out := make([]scenario.Spec, serviceCycle)
	for k := range out {
		out[k] = scenario.Spec{
			Name:     fmt.Sprintf("svc-%02d", k),
			Seed:     scenario.DeriveSeed(seed, "perfbench-service", 0, k),
			Nodes:    serviceNodes,
			Duration: scenario.Dur(serviceDuration),
		}
	}
	return out
}

// expected is what a direct scenario run of one cycle spec produced.
type expected struct {
	digest scenario.Digest
	events uint64
}

// serviceBench is a running manetd plus the expected outcome of every
// spec in the cycle.
type serviceBench struct {
	srv    *manetd.Server
	hs     *http.Server
	served chan error
	url    string
	bodies [][]byte // POST /v1/campaigns payload per cycle spec
	expect []expected
}

// setupService starts manetd on a loopback listener and precomputes
// each cycle spec's digest with a direct scenario run.
func setupService(ctx context.Context, seed int64) (*serviceBench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b := &serviceBench{
		srv:    manetd.New(manetd.Config{}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	b.hs = &http.Server{Handler: b.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { b.served <- b.hs.Serve(ln) }()
	for _, spec := range serviceSpecs(seed) {
		res, err := scenario.RunContext(ctx, spec)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("reference run %s: %w", spec.Name, err)
		}
		b.expect = append(b.expect, expected{res.Digest(), res.Events})
		raw, err := spec.JSON()
		if err != nil {
			b.close()
			return nil, err
		}
		body, err := json.Marshal(map[string]json.RawMessage{"spec": raw})
		if err != nil {
			b.close()
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	return b, nil
}

// close stops the listener and the campaign manager and waits for the
// server goroutine.
func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	b.srv.Close()
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time         { return time.Now() }
func (realClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// schedule hands out submission slots at a fixed rate: slot i is due at
// start + i*interval, and slots due at or after end are not handed out.
type schedule struct {
	start, end time.Time
	interval   time.Duration
	next       atomic.Int64
}

func (s *schedule) claim() (int, time.Time, bool) {
	i := s.next.Add(1) - 1
	due := s.start.Add(time.Duration(i) * s.interval)
	if !due.Before(s.end) {
		return 0, time.Time{}, false
	}
	return int(i), due, true
}

// slot is one submission's timing. Latency and lag are both measured
// from the due time, so a stall shows in every submission it delays.
type slot struct {
	index int
	due   time.Time
	lag   time.Duration // when it was sent, minus due
	done  time.Time     // when the campaign finished; zero on failure
	err   error
}

func (s slot) latency() time.Duration {
	if s.err != nil {
		return campaignLimit
	}
	return s.done.Sub(s.due)
}

// generate runs workers that each claim the next slot, wait until it is
// due, and call do. It returns the slots in index order once every
// claimed slot is finished.
func generate(clk clock, sch *schedule, workers int, do func(i int, due time.Time) (time.Time, error)) []slot {
	var (
		mu  sync.Mutex
		out []slot
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := sch.claim()
				if !ok {
					return
				}
				clk.SleepUntil(due)
				s := slot{index: i, due: due, lag: clk.Now().Sub(due)}
				s.done, s.err = do(i, due)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// snapshot is the part of a campaign snapshot the client reads.
type snapshot struct {
	ID          string         `json:"id"`
	State       campaign.State `json:"state"`
	Runs        []campaign.Run `json:"runs"`
	SubmittedAt time.Time      `json:"submittedAt"`
	StartedAt   *time.Time     `json:"startedAt"`
	FinishedAt  *time.Time     `json:"finishedAt"`
}

// serviceStats collects the per-request numbers of a phase.
type serviceStats struct {
	mu                              sync.Mutex
	submitMS, getMS, queueMS, runMS []float64
	getBytes                        int
	events                          uint64
}

// client drives one serviceBench over HTTP with at most workers
// connections.
type client struct {
	b     *serviceBench
	http  *http.Client
	stats *serviceStats
}

func newClient(b *serviceBench, workers int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &client{b: b, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, stats: &serviceStats{}}
}

// roundTrip sends one request and reads the body to EOF, so the
// connection goes back to the pool.
func (c *client) roundTrip(method, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// submit posts cycle spec i%serviceCycle, polls its snapshot until the
// campaign is terminal, and checks the run's digest against the direct
// run. It returns the campaign's FinishedAt.
func (c *client) submit(i int, due time.Time) (time.Time, error) {
	k := i % len(c.b.bodies)
	status, data, rtt, err := c.roundTrip(http.MethodPost, c.b.url+"/v1/campaigns", c.b.bodies[k])
	if err != nil {
		return time.Time{}, fmt.Errorf("submit %d: %w", i, err)
	}
	if status != http.StatusAccepted {
		return time.Time{}, fmt.Errorf("submit %d: status %d: %s", i, status, data)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return time.Time{}, fmt.Errorf("submit %d: %w", i, err)
	}
	c.stats.mu.Lock()
	c.stats.submitMS = append(c.stats.submitMS, ms(rtt))
	c.stats.mu.Unlock()
	for !snap.State.Terminal() {
		if time.Since(due) > campaignLimit {
			return time.Time{}, fmt.Errorf("campaign %s not done %s after it was due", snap.ID, campaignLimit)
		}
		time.Sleep(pollEvery)
		status, data, rtt, err := c.roundTrip(http.MethodGet, c.b.url+"/v1/campaigns/"+snap.ID, nil)
		if err != nil {
			return time.Time{}, fmt.Errorf("poll %s: %w", snap.ID, err)
		}
		if status != http.StatusOK {
			return time.Time{}, fmt.Errorf("poll %s: status %d: %s", snap.ID, status, data)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			return time.Time{}, fmt.Errorf("poll %s: %w", snap.ID, err)
		}
		c.stats.mu.Lock()
		c.stats.getMS = append(c.stats.getMS, ms(rtt))
		c.stats.getBytes += len(data)
		c.stats.mu.Unlock()
	}
	want := c.b.expect[k].digest
	if snap.State != campaign.StateDone || len(snap.Runs) != 1 || snap.FinishedAt == nil || snap.StartedAt == nil {
		return time.Time{}, fmt.Errorf("campaign %s ended %s", snap.ID, snap.State)
	}
	if r := snap.Runs[0]; r.Digest != want.Hash || r.Canonical != want.Canonical {
		return time.Time{}, fmt.Errorf("campaign %s: digest %s, direct run gives %s:\n--- got\n%s--- want\n%s",
			snap.ID, r.Digest, want.Hash, r.Canonical, want.Canonical)
	}
	c.stats.mu.Lock()
	c.stats.queueMS = append(c.stats.queueMS, ms(snap.StartedAt.Sub(snap.SubmittedAt)))
	c.stats.runMS = append(c.stats.runMS, snap.Runs[0].ElapsedMS)
	c.stats.events += c.b.expect[k].events
	c.stats.mu.Unlock()
	return *snap.FinishedAt, nil
}

// servicePhase is one timed phase of the open-loop generator.
type servicePhase struct {
	slots []slot
	stats *serviceStats
	sched float64 // sched.latency_ms_p99 over the phase
}

// phase submits at serviceRate for budget and waits until every
// submitted campaign has finished.
func (b *serviceBench) phase(budget time.Duration, workers int, log func(error)) servicePhase {
	c := newClient(b, workers)
	defer c.http.CloseIdleConnections()
	start := time.Now().Add(10 * time.Millisecond)
	sch := &schedule{start: start, end: start.Add(budget), interval: time.Second / serviceRate}
	rt0 := readRuntime()
	slots := generate(realClock{}, sch, workers, c.submit)
	rt1 := readRuntime()
	for _, s := range slots {
		if s.err != nil {
			log(s.err)
		}
	}
	return servicePhase{slots: slots, stats: c.stats, sched: schedP99ms(rt0, rt1)}
}

// failed counts the phase's failed submissions.
func (p servicePhase) failed() int {
	n := 0
	for _, s := range p.slots {
		if s.err != nil {
			n++
		}
	}
	return n
}

// passes returns, for every complete cycle, the seconds its serviceCycle
// campaigns took from due time to FinishedAt, summed: what the cycle
// costs the clients waiting on it. Summing the latencies rather than
// timing the cycle keeps the fixed submission schedule out of the
// figure. A failed campaign counts as the limit.
func (p servicePhase) passes() []float64 {
	var out []float64
	for c := 0; (c+1)*serviceCycle <= len(p.slots); c++ {
		var sum time.Duration
		for _, s := range p.slots[c*serviceCycle : (c+1)*serviceCycle] {
			sum += s.latency()
		}
		out = append(out, sum.Seconds())
	}
	return out
}

// latenciesMS returns every slot's due-to-done time in milliseconds.
func (p servicePhase) latenciesMS() []float64 {
	out := make([]float64, len(p.slots))
	for i, s := range p.slots {
		out[i] = ms(s.latency())
	}
	return out
}

// eventsPerS is the simulated events of the finished campaigns over the
// wall seconds their runs took (the sum of Run.ElapsedMS).
func (p servicePhase) eventsPerS() float64 {
	var runMS float64
	for _, x := range p.stats.runMS {
		runMS += x
	}
	return ratio(float64(p.stats.events), runMS/1000)
}

// donePasses is the number of cycles' worth of campaigns that finished.
func (p servicePhase) donePasses() float64 {
	return float64(len(p.slots)-p.failed()) / serviceCycle
}

// serviceLayerValues stores the service's own per-layer numbers.
func serviceLayerValues(v values, p servicePhase, b *serviceBench) {
	s := p.stats
	v["submit_done_ms_p99"] = quantile(p.latenciesMS(), 0.99)
	v["manetd.submit_ms_p50"] = median(s.submitMS)
	v["manetd.submit_ms_p99"] = quantile(s.submitMS, 0.99)
	v["manetd.get_ms_p50"] = median(s.getMS)
	v["manetd.get_ms_p99"] = quantile(s.getMS, 0.99)
	v["manetd.get_bytes"] = ratio(float64(s.getBytes), float64(len(s.getMS)))
	v["campaign.queue_wait_ms_p50"] = median(s.queueMS)
	v["campaign.queue_wait_ms_p99"] = quantile(s.queueMS, 0.99)
	v["campaign.run_ms_p50"] = median(s.runMS)
	v["campaign.run_ms_p99"] = quantile(s.runMS, 0.99)
	st := b.srv.Manager().Stats()
	v["campaign.rejected"] = float64(st.RateLimited + st.QuotaRejected)
	v["campaign.retained"] = float64(len(b.srv.Manager().List("")))
	v["sched.latency_ms_p99"] = p.sched
	var lag time.Duration
	for _, sl := range p.slots {
		lag = max(lag, sl.lag)
	}
	v["bench.gen_lag_ms_max"] = ms(lag)
}
