package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamcount"
	"streamcount/client"
	"streamcount/internal/stream"
)

// setups is how many times a run sets the system up; setup_s is the median.
const setups = 9

// opTimeout bounds any single operation, so a hung daemon fails the run
// instead of stalling it.
const opTimeout = 60 * time.Second

// newClient returns an SDK client for url over at most two connections (the
// host's core count) and without retries, so every failure is counted.
func newClient(url string) (*client.Client, error) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return client.New(url, client.WithHTTPClient(hc), client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
}

// load creates the workload stream through the SDK and appends the prefill
// in stream.DefaultBatchSize batches.
func load(cl *client.Client, name string, in *inputs) error {
	ctx, cancel := withTimeout(opTimeout)
	defer cancel()
	if err := cl.CreateStream(ctx, name, in.n); err != nil {
		return fmt.Errorf("creating stream: %w", err)
	}
	for lo := 0; lo < len(in.prefill); lo += stream.DefaultBatchSize {
		hi := min(lo+stream.DefaultBatchSize, len(in.prefill))
		v, err := cl.Append(ctx, name, in.prefill[lo:hi])
		if err != nil {
			return fmt.Errorf("prefill append: %w", err)
		}
		if v != int64(hi) {
			return fmt.Errorf("prefill append acknowledged version %d, want %d", v, hi)
		}
	}
	return nil
}

// opRec is one completed operation of a loop.
type opRec struct {
	i     int
	start time.Time
	lat   float64 // ms from start (count) or due time (watch) to completion
	value float64
	ver   int64
	err   error
}

// closedLoop runs do for operation indices 0, 1, 2, ... on clients
// goroutines, each sending its next operation when the previous one
// completed, until stop(i) holds for the next index. Indices are taken in
// order, so the records, returned in operation order, are contiguous.
// When completed is not nil, it is called with the number of operations
// completed so far each time one completes.
func closedLoop(clients int, stop func(i int) bool, do func(i int) (float64, int64, error), completed func(n int)) []opRec {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []opRec
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				t0 := time.Now()
				v, ver, err := do(i)
				r := opRec{i: i, start: t0, lat: since(t0), value: v, ver: ver, err: err}
				mu.Lock()
				recs = append(recs, r)
				n := len(recs)
				mu.Unlock()
				if completed != nil {
					completed(n)
				}
			}
		}()
	}
	wg.Wait()
	sortRecs(recs)
	return recs
}

// sendRec is one open-loop send.
type sendRec struct {
	due  time.Time
	late float64 // ms the send started after its due time
	ack  float64 // ms from due time to the acknowledgement
	ver  int64
	err  error
}

// until stops a loop at the deadline.
func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

// first stops a loop after n operations.
func first(n int) func(int) bool { return func(i int) bool { return i >= n } }

// openLoop calls send(k) for k = 0 .. n-1 at start + k/rate, regardless of
// how long earlier sends took (a late send starts at once and its lateness
// is recorded), stopping early at the deadline.
func openLoop(n int, rate float64, start, deadline time.Time, send func(k int) (int64, error)) []sendRec {
	interval := time.Duration(float64(time.Second) / rate)
	var recs []sendRec
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		late := since(due)
		v, err := send(k)
		recs = append(recs, sendRec{due: due, late: late, ack: since(due), ver: v, err: err})
	}
	return recs
}

// feed records every event of a subscription with its arrival time.
type feed struct {
	sub    *streamcount.Subscription[streamcount.Outcome]
	mu     sync.Mutex
	events []eventRec
	wake   chan struct{}
	done   chan struct{}
}

type eventRec struct {
	ver   int64
	at    time.Time
	value float64
	err   error
}

func follow(sub *streamcount.Subscription[streamcount.Outcome]) *feed {
	f := &feed{sub: sub, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for ev := range sub.Events() {
			r := eventRec{ver: ev.StreamVersion, at: time.Now(), err: ev.Err}
			if ev.Result.Count != nil {
				r.value = ev.Result.Count.Value
			}
			f.mu.Lock()
			f.events = append(f.events, r)
			f.mu.Unlock()
			select {
			case f.wake <- struct{}{}:
			default:
			}
		}
	}()
	return f
}

// waitFor blocks until an event at version v or later has arrived.
func (f *feed) waitFor(v int64, limit time.Duration) error {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for {
		f.mu.Lock()
		n := len(f.events)
		var last eventRec
		if n > 0 {
			last = f.events[n-1]
		}
		f.mu.Unlock()
		if n > 0 && last.err != nil {
			return fmt.Errorf("watch ended: %w", last.err)
		}
		if n > 0 && last.ver >= v {
			return nil
		}
		select {
		case <-f.wake:
		case <-f.done:
			return fmt.Errorf("watch ended before version %d", v)
		case <-timer.C:
			return fmt.Errorf("no watch event at version %d within %s", v, limit)
		}
	}
}

// close ends the subscription and returns its events.
func (f *feed) close() []eventRec {
	f.sub.Close()
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.events
}

// system is one set-up daemon with its loaded stream.
type system struct {
	d    *daemon
	cl   *client.Client
	feed *feed // watch workload only
}

func (s *system) stop() error {
	if s.feed != nil {
		s.feed.close()
	}
	return s.d.stop()
}

// setUp starts a daemon, loads the stream and runs one warm-up operation:
// a query on count workloads; on the watch workload, opening the standing
// query and receiving its first event (which builds the watch index).
func setUp(o options, w *workload, in *inputs, dir string) (*system, error) {
	d, err := startDaemon(o.daemon, dir)
	if err != nil {
		return nil, err
	}
	s := &system{d: d}
	fail := func(err error) (*system, error) {
		_ = s.stop()
		return nil, err
	}
	if s.cl, err = newClient(d.url); err != nil {
		return fail(err)
	}
	if err := load(s.cl, streamName, in); err != nil {
		return fail(err)
	}
	ctx, cancel := withTimeout(opTimeout)
	defer cancel()
	if w.watch {
		q, _, err := w.watchQuery(in.seed)
		if err != nil {
			return fail(err)
		}
		// The buffer holds a whole run's events, so a slow reader never
		// backpressures the daemon's evaluator.
		sub, err := s.cl.WatchQuery(context.Background(), streamName, q,
			streamcount.WatchEveryVersion(), streamcount.WithWatchBuffer(4096))
		if err != nil {
			return fail(fmt.Errorf("opening watch: %w", err))
		}
		s.feed = follow(sub)
		if err := s.feed.waitFor(int64(len(in.prefill)), opTimeout); err != nil {
			return fail(err)
		}
		return s, nil
	}
	q, _, _, err := w.query(in.seed, warmupOp)
	if err != nil {
		return fail(err)
	}
	if _, err := s.cl.SubmitOn(ctx, streamName, q); err != nil {
		return fail(fmt.Errorf("warm-up query: %w", err))
	}
	return s, nil
}

// endToEndRun measures one workload against streamcountd over loopback.
func endToEndRun(o options, w *workload, in *inputs, rep *report) error {
	base := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var setupS []float64
	var sys *system
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := setUp(o, w, in, filepath.Join(base, fmt.Sprint(k)))
		if err != nil {
			return err
		}
		setupS = append(setupS, since(t0)/1000)
		if k < setups-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		sys = s
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop()
		}
	}()

	meter, err := newCPUMeter(sys.d)
	if err != nil {
		return err
	}
	var res loopResult
	if w.watch {
		res = watchLoop(o, sys, in, rep, meter)
	} else {
		res = countLoop(o, w, sys, in, rep, meter)
	}
	if meter.err != nil {
		return meter.err
	}
	peak, err := sys.d.peakRSS()
	if err != nil {
		return err
	}
	disk, err := diskBytes(filepath.Join(sys.d.dir, "segments"))
	if err != nil {
		return err
	}
	var events []eventRec
	if sys.feed != nil {
		events = sys.feed.close()
		sys.feed = nil
	}
	stopped = true
	if err := sys.d.stop(); err != nil {
		return err
	}

	if w.watch {
		watchMetrics(in, res, events, o.minSamples, rep)
	}
	if len(meter.perOp) > 0 {
		rep.add("cpu_ms_per_op", median(meter.perOp), "ms", len(meter.perOp))
	} else {
		rep.fail("no %s window of daemon CPU time closed; the run is too short", cpuWindow)
	}
	rep.add("peak_rss_mb", peak, "MB", 0)
	rep.add("setup_s", median(setupS), "s", len(setupS))
	rep.add("stream.bytes_per_update", float64(disk)/float64(res.updates), "B", 0)
	var gateErr error
	if w.watch {
		gateErr = gateWatch(w, in, res, events, rep)
	} else {
		gateErr = gateCount(w, in, res.recs, rep)
	}
	if rep.Attempted > 0 {
		rep.add("failed_ratio", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Attempted)
	}
	return gateErr
}

// loopResult is what a timed loop produced.
type loopResult struct {
	recs      []opRec // count workloads
	sends     []sendRec
	completed int
	updates   int // stream length at the end
	start     time.Time
}

// countLoop is the closed loop of cold count queries.
func countLoop(o options, w *workload, sys *system, in *inputs, rep *report, meter *cpuMeter) loopResult {
	want := int64(len(in.prefill))
	start := time.Now()
	recs := closedLoop(w.clients, until(start.Add(time.Duration(o.seconds)*time.Second)), func(i int) (float64, int64, error) {
		q, _, _, err := w.query(in.seed, i)
		if err != nil {
			return 0, 0, err
		}
		ctx, cancel := withTimeout(opTimeout)
		defer cancel()
		out, err := sys.cl.SubmitOn(ctx, streamName, q)
		if err != nil {
			return 0, 0, err
		}
		if out.Count == nil {
			return 0, out.StreamVersion, fmt.Errorf("query %d: no count in response", i)
		}
		return out.Count.Value, out.StreamVersion, nil
	}, meter.mark)
	var lats []float64
	var last time.Time
	for _, r := range recs {
		rep.Attempted++
		if r.err == nil && r.ver != want {
			r.err = fmt.Errorf("query %d served at version %d, want %d", r.i, r.ver, want)
		}
		if r.err != nil {
			rep.Failed++
			rep.fail("query %d: %v", r.i, r.err)
			continue
		}
		lats = append(lats, r.lat)
		if end := r.start.Add(time.Duration(r.lat * float64(time.Millisecond))); end.After(last) {
			last = end
		}
	}
	if len(lats) > 0 {
		rep.add("query_p50_ms", median(lats), "ms", len(lats))
		rep.add("query_p90_ms", percentile(lats, 0.9), "ms", len(lats))
		rep.add("query_qps", float64(len(lats))/last.Sub(start).Seconds(), "1/s", len(lats))
	}
	if len(lats) < o.minSamples {
		rep.fail("only %d queries completed; percentiles need at least %d", len(lats), o.minSamples)
	}
	return loopResult{recs: recs, completed: len(lats), updates: len(in.prefill), start: start}
}

// watchLoop is the open-loop appender beside the standing query.
func watchLoop(o options, sys *system, in *inputs, rep *report, meter *cpuMeter) loopResult {
	v0 := int64(len(in.prefill))
	start := time.Now().Add(10 * time.Millisecond)
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	sends := openLoop(len(in.batches), watchRate, start, deadline, func(k int) (int64, error) {
		// At its due time append k-1's event has normally been delivered
		// (event latency is a fraction of the send interval), so the
		// window up to here holds the whole cost of k operations.
		meter.mark(k)
		ctx, cancel := withTimeout(opTimeout)
		defer cancel()
		return sys.cl.Append(ctx, streamName, in.batches[k])
	})
	final := v0 + int64(len(sends))*watchBatch
	if err := sys.feed.waitFor(final, 30*time.Second); err != nil {
		rep.fail("%v", err)
	}
	return loopResult{sends: sends, completed: len(sends), updates: int(final), start: start}
}

// watchMetrics matches every append with the first watch event at or past
// its version and reports latencies from the append's due time.
func watchMetrics(in *inputs, res loopResult, events []eventRec, minSamples int, rep *report) {
	v0 := int64(len(in.prefill))
	var lats, acks, lates []float64
	var last time.Time
	for k, s := range res.sends {
		rep.Attempted++
		want := v0 + int64(k+1)*watchBatch
		if s.err == nil && s.ver != want {
			s.err = fmt.Errorf("append acknowledged version %d, want %d", s.ver, want)
		}
		ev, ok := firstAtOrAfter(events, want)
		if s.err == nil && !ok {
			s.err = fmt.Errorf("no watch event at version %d", want)
		}
		if s.err != nil {
			rep.Failed++
			rep.fail("append %d: %v", k, s.err)
			continue
		}
		lats = append(lats, ms(ev.at.Sub(s.due)))
		acks = append(acks, s.ack)
		lates = append(lates, s.late)
		if ev.at.After(last) {
			last = ev.at
		}
	}
	if len(lats) == 0 {
		rep.fail("no append completed")
		return
	}
	rep.add("event_p50_ms", median(lats), "ms", len(lats))
	rep.add("event_p90_ms", percentile(lats, 0.9), "ms", len(lats))
	rep.add("event_p99_ms", percentile(lats, 0.99), "ms", len(lats))
	rep.add("events_per_s", float64(len(lats))/last.Sub(res.start).Seconds(), "1/s", len(lats))
	rep.add("append_p50_ms", median(acks), "ms", len(acks))
	rep.add("load.late_p99_ms", percentile(lates, 0.99), "ms", len(lates))
	if len(lats) < minSamples {
		rep.fail("only %d events; percentiles need at least %d", len(lats), minSamples)
	}
	// Backlog check: at a sustainable rate the lag in the last third of the
	// run matches the first third; a growing lag means the reported latency
	// depends on run length.
	third := len(lats) / 3
	if third >= 10 {
		first, lastThird := median(lats[:third]), median(lats[len(lats)-third:])
		rep.add("event_lag_first_third_ms", first, "ms", third)
		rep.add("event_lag_last_third_ms", lastThird, "ms", third)
		if lastThird > 2*first && lastThird-first > 5 {
			rep.fail("event lag grew from %.1f ms to %.1f ms over the run: the append rate is not sustainable", first, lastThird)
		}
	}
}

// firstAtOrAfter returns the first event (events are in version order) at
// version v or later.
func firstAtOrAfter(events []eventRec, v int64) (eventRec, bool) {
	i := sort.Search(len(events), func(i int) bool { return events[i].ver >= v })
	if i == len(events) || events[i].err != nil {
		return eventRec{}, false
	}
	return events[i], true
}

// cpuWindow is the shortest stretch of a run over which the daemon's CPU
// time per operation is taken; cpu_ms_per_op is the median over a run's
// windows.
const cpuWindow = 2 * time.Second

// cpuMeter reads the daemon's CPU time at operation boundaries and keeps
// the CPU time per operation of each window of at least cpuWindow. On a
// shared host a neighbour's burst makes every instruction dearer for a
// while; the median over windows leaves such stretches out, where the
// whole-run mean carries them.
type cpuMeter struct {
	d     *daemon
	mu    sync.Mutex
	at    time.Time
	cpu   time.Duration
	ops   int
	perOp []float64
	err   error
}

func newCPUMeter(d *daemon) (*cpuMeter, error) {
	c, err := d.cpu()
	if err != nil {
		return nil, err
	}
	return &cpuMeter{d: d, at: time.Now(), cpu: c}, nil
}

// mark records that ops operations have completed since the meter was
// made, closing a window when at least cpuWindow has passed.
// Clients of a closed loop call it concurrently; a call that arrives after
// one with a larger count is ignored.
func (m *cpuMeter) mark(ops int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	if now.Sub(m.at) < cpuWindow || ops <= m.ops || m.err != nil {
		return
	}
	c, err := m.d.cpu()
	if err != nil {
		m.err = err
		return
	}
	m.perOp = append(m.perOp, ms(c-m.cpu)/float64(ops-m.ops))
	m.at, m.cpu, m.ops = now, c, ops
}
