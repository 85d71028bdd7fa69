package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamcount"
	"streamcount/client"
	"streamcount/internal/fgp"
	"streamcount/internal/server"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// Levels of the traced run. "plain" is the SDK level without the timing
// middleware; the ratio of the two is the tracing overhead.
const (
	levelPlain  = "plain"
	levelSDK    = "sdk"
	levelEngine = "engine"
	levelDirect = "direct"
	levelSeq1   = "direct-p1"
	levelSeqN   = "direct-pN"
)

// opHeader carries the operation id from the SDK to the timing middleware.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

func withOp(ctx context.Context, op int) context.Context { return context.WithValue(ctx, opKey{}, op) }

// opTransport stamps each request with the operation id its context carries.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op, ok := req.Context().Value(opKey{}).(int); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	return t.base.RoundTrip(req)
}

// timing is the middleware that records one "server.handler" span per
// request that carries an operation id. Watch streams are long-lived and
// are not timed.
func timing(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil || strings.HasPrefix(r.URL.Path, "/v1/watches") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.add(op, levelSDK, "server.handler", "op", t0, time.Now())
	})
}

// harness is the in-process server the traced run drives: one engine and
// server built the way streamcountd builds them, served over loopback
// twice — with and without the timing middleware.
type harness struct {
	srv    *server.Server
	eng    *streamcount.Engine
	traced *httptest.Server
	plain  *httptest.Server
	clT    *client.Client // through the middleware, ops stamped
	clP    *client.Client
	dir    string
}

func newHarness(dir string, tr *tracer) (*harness, error) {
	srv, err := server.New(server.Options{Window: 25 * time.Millisecond, SegmentDir: filepath.Join(dir, "segments")})
	if err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(opTimeout)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		return nil, err
	}
	h := &harness{srv: srv, eng: srv.Engine(), dir: dir}
	h.traced = httptest.NewServer(timing(srv, tr))
	h.plain = httptest.NewServer(srv)
	tt := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	if h.clT, err = client.New(h.traced.URL, client.WithHTTPClient(&http.Client{Transport: opTransport{tt}}),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1})); err != nil {
		h.close()
		return nil, err
	}
	if h.clP, err = newClient(h.plain.URL); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *harness) close() {
	h.srv.Drain()
	h.traced.Close()
	h.plain.Close()
	ctx, cancel := withTimeout(opTimeout)
	defer cancel()
	_ = h.srv.Close(ctx)
}

// traceRun replays the workload's operations at each level and reports
// per-layer self times (README.md, "Traced run").
func traceRun(o options, w *workload, in *inputs, rep *report) error {
	dir := filepath.Join(o.workdir, fmt.Sprintf("trace-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	tr := newTracer()
	h, err := newHarness(dir, tr)
	if err != nil {
		return err
	}
	defer h.close()
	if w.watch {
		err = traceWatch(o, w, in, h, tr, rep)
	} else {
		err = traceCount(o, w, in, h, tr, rep)
	}
	if err != nil {
		return err
	}
	return writeSpans(o, rep, tr)
}

func writeSpans(o options, rep *report, tr *tracer) error {
	dir := filepath.Join(o.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", rep.Workload, rep.Seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countValue checks a served count outcome.
func countValue(out streamcount.Outcome, err error, want int64) (float64, int64, error) {
	if err != nil {
		return 0, 0, err
	}
	if out.Count == nil {
		return 0, out.StreamVersion, fmt.Errorf("no count in response")
	}
	if out.StreamVersion != want {
		return 0, out.StreamVersion, fmt.Errorf("served at version %d, want %d", out.StreamVersion, want)
	}
	return out.Count.Value, out.StreamVersion, nil
}

// traceCount: the same cold queries through the SDK, through
// Engine.SubmitOn, and through the benchmark's own runner over the pinned
// view, at the workload's concurrency.
func traceCount(o options, w *workload, in *inputs, h *harness, tr *tracer, rep *report) error {
	if err := load(h.clP, streamName, in); err != nil {
		return err
	}
	v := int64(len(in.prefill))
	st, ok := h.eng.Lookup(streamName)
	if !ok {
		return fmt.Errorf("stream %q not registered", streamName)
	}
	app, ok := st.(*streamcount.AppendableStream)
	if !ok {
		return fmt.Errorf("stream %q is not appendable", streamName)
	}
	view, err := app.At(v)
	if err != nil {
		return err
	}
	viaSDK := func(cl *client.Client, level string) func(i int) (float64, int64, error) {
		return func(i int) (float64, int64, error) {
			q, _, _, err := w.query(in.seed, i)
			if err != nil {
				return 0, 0, err
			}
			ctx, cancel := withTimeout(opTimeout)
			defer cancel()
			t0 := time.Now()
			out, err := cl.SubmitOn(withOp(ctx, i), streamName, q)
			if level != levelPlain {
				tr.add(i, level, "op", "", t0, time.Now())
			}
			return countValue(out, err, v)
		}
	}
	if _, _, err := viaSDK(h.clP, levelPlain)(warmupOp); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}

	viaEngine := func(i int) (float64, int64, error) {
		q, _, _, err := w.query(in.seed, i)
		if err != nil {
			return 0, 0, err
		}
		ctx, cancel := withTimeout(opTimeout)
		defer cancel()
		t0 := time.Now()
		out, err := h.eng.SubmitOn(ctx, streamName, q)
		tr.add(i, levelEngine, "op", "", t0, time.Now())
		return countValue(out, err, v)
	}

	// The three served levels run interleaved — each client sends an
	// operation through all three, in an order that rotates with the
	// operation — so differences between them are not confounded with
	// drift, and the engine always sees the workload's concurrency. The
	// phase is time-boxed; the direct level replays exactly the operations
	// it completed.
	served := []string{levelPlain, levelSDK, levelEngine}
	do := map[string]func(int) (float64, int64, error){
		levelPlain: viaSDK(h.clP, levelPlain), levelSDK: viaSDK(h.clT, levelSDK), levelEngine: viaEngine,
	}
	var mu sync.Mutex
	recs := map[string][]opRec{}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second / 3)
	minOps := 2 * w.clients
	g0, p0 := h.eng.Generations(), h.eng.PassesOn(streamName)
	closedLoop(w.clients, func(i int) bool { return i >= minOps && !time.Now().Before(deadline) }, func(i int) (float64, int64, error) {
		for j := range served {
			level := served[(i+j)%len(served)]
			t0 := time.Now()
			val, ver, err := do[level](i)
			r := opRec{i: i, start: t0, lat: since(t0), value: val, ver: ver, err: err}
			mu.Lock()
			recs[level] = append(recs[level], r)
			mu.Unlock()
		}
		return 0, 0, nil
	}, nil)
	gens, passes := h.eng.Generations()-g0, h.eng.PassesOn(streamName)-p0
	for _, level := range served {
		sortRecs(recs[level])
	}
	plain := recs[levelPlain]
	k := len(plain)
	var statsMu sync.Mutex
	hits := map[int]float64{}
	space := map[int]float64{}
	direct := func(level string, par int) func(i int) (float64, int64, error) {
		return func(i int) (float64, int64, error) {
			_, name, seed, err := w.query(in.seed, i)
			if err != nil {
				return 0, 0, err
			}
			pl, err := planFor(name)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			res, words, err := directCount(view, pl, w.trials, seed, par, tr, i, level)
			tr.add(i, level, "op", "", t0, time.Now())
			if err != nil {
				return 0, 0, err
			}
			if level == levelDirect {
				statsMu.Lock()
				hits[i] = float64(res.Hits) / float64(res.Trials)
				space[i] = float64(words)
				statsMu.Unlock()
			}
			return res.Estimate, v, nil
		}
	}
	dir := closedLoop(w.clients, first(k), direct(levelDirect, 0), nil)
	// Same-machine parallel speedup of the runner: one client, a few
	// operations at parallelism 1 and at the default.
	seqOps := max(2, len(w.patterns))
	closedLoop(1, first(seqOps), direct(levelSeq1, 1), nil)
	closedLoop(1, first(seqOps), direct(levelSeqN, 0), nil)

	checkLevels(rep, k, plain, recs[levelSDK], recs[levelEngine], dir)

	sdkOp, engOp, dirOp := tr.sums(levelSDK, "op"), tr.sums(levelEngine, "op"), tr.sums(levelDirect, "op")
	begin, consume := tr.sums(levelDirect, "transform.begin_round"), tr.sums(levelDirect, "transform.consume")
	replay, end := tr.sums(levelDirect, "stream.replay"), tr.sums(levelDirect, "transform.end_round")
	handler := tr.sums(levelSDK, "server.handler")
	rounds := countSpans(tr, levelDirect, "stream.replay")
	per := func(f func(i int) float64) float64 { return perOp(k, f) }
	addLayers(rep, k, sdkOp, []layer{
		{"server.self_ms", func(i int) float64 { return sdkOp[i] - engOp[i] }},
		{"core.self_ms", func(i int) float64 { return engOp[i] - dirOp[i] }},
		{"fgp.self_ms", func(i int) float64 { return dirOp[i] - begin[i] - replay[i] - end[i] }},
		{"transform.self_ms", func(i int) float64 { return begin[i] + consume[i] + end[i] }},
		{"stream.self_ms", func(i int) float64 { return replay[i] - consume[i] }},
	})
	rep.add("server.handler_ms", per(func(i int) float64 { return handler[i] }), "ms", k)
	rep.add("core.queries_per_generation", float64(3*k)/float64(max(gens, 1)), "ratio", 3*k)
	rep.add("core.passes_per_query", float64(passes)/float64(3*k), "ratio", 3*k)
	rep.add("transform.begin_round_ms", per(func(i int) float64 { return begin[i] }), "ms", k)
	rep.add("transform.consume_ms", per(func(i int) float64 { return consume[i] }), "ms", k)
	rep.add("transform.end_round_ms", per(func(i int) float64 { return end[i] }), "ms", k)
	rep.add("stream.replay_self_ms", per(func(i int) float64 { return replay[i] - consume[i] }), "ms", k)
	replayed, replayMS := 0.0, 0.0
	for i := 0; i < k; i++ {
		replayed += float64(rounds[i]) * float64(v)
		replayMS += replay[i] - consume[i]
	}
	rep.add("stream.replay_mupdates_per_s", replayed/replayMS/1000, "Mupd/s", k)
	rep.add("fgp.hit_ratio", mean(values(hits)), "ratio", len(hits))
	rep.add("transform.space_words", median(values(space)), "count", len(space))
	speedup(rep, tr, "transform.begin_round", "transform.consume", "transform.end_round")
	rep.add("trace.overhead_ratio", median(values(sdkOp))/median(latencies(plain)), "ratio", len(plain))
	rep.Attempted += 4 * k
	return nil
}

// checkLevels requires every level to return the same estimate, bit for
// bit, for every operation: that is what makes the spans time the same work.
func checkLevels(rep *report, k int, levels ...[]opRec) {
	names := []string{levelPlain, levelSDK, levelEngine, levelDirect}
	ref := levels[1]
	for li, recs := range levels {
		for _, r := range recs {
			if r.i >= k {
				continue
			}
			if r.err != nil {
				rep.Failed++
				rep.fail("%s op %d: %v", names[li], r.i, r.err)
				continue
			}
			if li != 1 && r.i < len(ref) && ref[r.i].err == nil && !sameBits(r.value, ref[r.i].value, 0) {
				rep.Failed++
				rep.fail("%s op %d returned %v, sdk level %v; not bit-identical", names[li], r.i, r.value, ref[r.i].value)
			}
		}
	}
}

func countSpans(tr *tracer, level, name string) map[int]int {
	out := map[int]int{}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if s.Level == level && s.Name == name {
			out[s.Op]++
		}
	}
	return out
}

func latencies(recs []opRec) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.err == nil {
			out = append(out, r.lat)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	m, _ := meanSD(xs)
	return m
}

// speedup reports the runner's time (the named spans) at parallelism 1
// over its time at the default parallelism, measured back to back in this
// run on the same operations.
func speedup(rep *report, tr *tracer, names ...string) {
	one, def := 0.0, 0.0
	for _, name := range names {
		for _, x := range tr.sums(levelSeq1, name) {
			one += x
		}
		for _, x := range tr.sums(levelSeqN, name) {
			def += x
		}
	}
	rep.add("transform.runner_p1_ms", one, "ms", 0)
	rep.add("transform.runner_pN_ms", def, "ms", 0)
	rep.add("transform.parallel_speedup", one/def, "ratio", 0)
}

// layer is one layer's self time as a function of the operation index.
type layer struct {
	name string
	self func(i int) float64
}

// perOp is the median of f over operations 0 .. k-1.
func perOp(k int, f func(i int) float64) float64 {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = f(i)
	}
	return median(xs)
}

// addLayers reports each layer's median self time and the ledger: the sum
// of those medians over the traced SDK-level median, with a warning when
// they disagree by more than 10%. Per operation the self times add up to
// the SDK-level time exactly.
func addLayers(rep *report, k int, sdkOp map[int]float64, layers []layer) {
	sum := 0.0
	for _, l := range layers {
		x := perOp(k, l.self)
		sum += x
		rep.add(l.name, x, "ms", k)
	}
	e2e := median(values(sdkOp))
	rep.add("trace.sdk_p50_ms", e2e, "ms", k)
	rep.add("trace.ledger_ratio", sum/e2e, "ratio", k)
	if math.Abs(sum/e2e-1) > 0.10 {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING layer self times sum to %.2f ms, traced p50 is %.2f ms (off by more than 10%%)\n", sum, e2e)
	}
}

// traceWatch: the same appends, on a schedule, through the SDK (events over
// SSE), through Engine.Append with an engine watch, and directly as
// Appendable.Append → PrefixIndex.Extend → fgp.CountParallel over an
// IndexedRunner at WatchSeedAt(S, v). Each level has its own stream with
// the same prefill.
func traceWatch(o options, w *workload, in *inputs, h *harness, tr *tracer, rep *report) error {
	q, seed, err := w.watchQuery(in.seed)
	if err != nil {
		return err
	}
	pl, err := planFor(w.patterns[0])
	if err != nil {
		return err
	}
	v0 := int64(len(in.prefill))
	names := map[string]string{levelPlain: "w0", levelSDK: "w1", levelEngine: "w2"}
	feeds := map[string]*feed{}
	defer func() {
		for _, f := range feeds {
			f.close()
		}
	}()
	var engSub *streamcount.Subscription[streamcount.Outcome]
	for _, level := range []string{levelPlain, levelSDK, levelEngine} {
		if err := load(h.clP, names[level], in); err != nil {
			return err
		}
		var sub *streamcount.Subscription[streamcount.Outcome]
		opts := []streamcount.WatchOption{streamcount.WatchEveryVersion(), streamcount.WithWatchBuffer(4096)}
		switch level {
		case levelPlain:
			sub, err = h.clP.WatchQuery(context.Background(), names[level], q, opts...)
		case levelSDK:
			sub, err = h.clT.WatchQuery(context.Background(), names[level], q, opts...)
		default:
			sub, err = h.eng.WatchQuery(context.Background(), names[level], q, opts...)
			engSub = sub
		}
		if err != nil {
			return fmt.Errorf("opening %s watch: %w", level, err)
		}
		feeds[level] = follow(sub)
		if err := feeds[level].waitFor(v0, opTimeout); err != nil {
			return err
		}
	}
	app, err := stream.NewAppendable(in.n, stream.AppendableOptions{Dir: filepath.Join(h.dir, "direct")})
	if err != nil {
		return err
	}
	// The direct level's log is scratch: only its append cost is measured.
	defer app.Close()
	ix := transform.NewPrefixIndex(in.n)
	for lo := 0; lo < len(in.prefill); lo += stream.DefaultBatchSize {
		b := in.prefill[lo:min(lo+stream.DefaultBatchSize, len(in.prefill))]
		if _, err := app.Append(b); err != nil {
			return err
		}
		if err := ix.Extend(b); err != nil {
			return err
		}
	}

	k := min(len(in.batches), max(20, int(watchRate*float64(o.seconds)/5)))
	send := map[string]func(i int) (int64, error){
		levelPlain: func(i int) (int64, error) {
			ctx, cancel := withTimeout(opTimeout)
			defer cancel()
			return h.clP.Append(ctx, names[levelPlain], in.batches[i])
		},
		levelSDK: func(i int) (int64, error) {
			ctx, cancel := withTimeout(opTimeout)
			defer cancel()
			return h.clT.Append(withOp(ctx, i), names[levelSDK], in.batches[i])
		},
		levelEngine: func(i int) (int64, error) { return h.eng.Append(names[levelEngine], in.batches[i]) },
	}
	// The three served levels share one schedule, staggered by a third of
	// the interval, so each sees the workload's rate and drift cancels
	// between them.
	served := []string{levelPlain, levelSDK, levelEngine}
	start := time.Now().Add(10 * time.Millisecond)
	sends := openLoop(len(served)*k, float64(len(served))*watchRate, start, start.Add(time.Hour), func(j int) (int64, error) {
		return send[served[j%len(served)]](j / len(served))
	})
	recs := map[string][]opRec{}
	for li, level := range served {
		if err := feeds[level].waitFor(v0+int64(k)*watchBatch, opTimeout); err != nil {
			return err
		}
		f := feeds[level]
		f.mu.Lock()
		events := append([]eventRec(nil), f.events...)
		f.mu.Unlock()
		for i := 0; i < k; i++ {
			sr := sends[i*len(served)+li]
			r := opRec{i: i, start: sr.due, ver: sr.ver, err: sr.err}
			want := v0 + int64(i+1)*watchBatch
			ev, ok := firstAtOrAfter(events, want)
			switch {
			case r.err == nil && r.ver != want:
				r.err = fmt.Errorf("append acknowledged version %d, want %d", r.ver, want)
			case r.err == nil && !ok:
				r.err = fmt.Errorf("no event at version %d", want)
			case r.err == nil:
				r.lat, r.value = ms(ev.at.Sub(sr.due)), ev.value
				if level != levelPlain {
					tr.add(i, level, "op", "", sr.due, ev.at)
				}
			}
			recs[level] = append(recs[level], r)
		}
	}
	hits := map[int]float64{}
	space := map[int]float64{}
	start = time.Now().Add(10 * time.Millisecond)
	var direct []opRec
	openLoop(k, watchRate, start, start.Add(time.Hour), func(i int) (int64, error) {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / watchRate))
		r := opRec{i: i, start: due}
		t0 := time.Now()
		v, err := app.Append(in.batches[i])
		t1 := time.Now()
		tr.add(i, levelDirect, "stream.append", "op", t0, t1)
		if err == nil {
			err = ix.Extend(in.batches[i])
			tr.add(i, levelDirect, "transform.index_extend", "op", t1, time.Now())
		}
		if err == nil {
			var res *fgp.Result
			var words int64
			res, words, err = indexedCount(ix, v, pl, w.trials, seed, 0, tr, i, levelDirect)
			if err == nil {
				r.value, r.ver = res.Estimate, v
				hits[i], space[i] = float64(res.Hits)/float64(res.Trials), float64(words)
			}
		}
		done := time.Now()
		tr.add(i, levelDirect, "op", "", due, done)
		r.lat, r.err = ms(done.Sub(due)), err
		direct = append(direct, r)
		return v, err
	})
	// Same-machine parallel speedup of the indexed evaluation, at the last
	// few versions of the direct index.
	for _, level := range []string{levelSeq1, levelSeqN} {
		par := 0
		if level == levelSeq1 {
			par = 1
		}
		for j := 0; j < 4; j++ {
			v := ix.Extent() - int64(j)*watchBatch
			if _, _, err := indexedCount(ix, v, pl, w.trials, seed, par, tr, j, level); err != nil {
				return err
			}
		}
	}
	checkLevels(rep, k, recs[levelPlain], recs[levelSDK], recs[levelEngine], direct)

	sdkOp, engOp, dirOp := tr.sums(levelSDK, "op"), tr.sums(levelEngine, "op"), tr.sums(levelDirect, "op")
	appendS, extend := tr.sums(levelDirect, "stream.append"), tr.sums(levelDirect, "transform.index_extend")
	rounds, count := tr.sums(levelDirect, "transform.indexed_round"), tr.sums(levelDirect, "fgp.count")
	handler := tr.sums(levelSDK, "server.handler")
	per := func(f func(i int) float64) float64 { return perOp(k, f) }
	addLayers(rep, k, sdkOp, []layer{
		{"server.self_ms", func(i int) float64 { return sdkOp[i] - engOp[i] }},
		{"core.self_ms", func(i int) float64 { return engOp[i] - dirOp[i] }},
		{"fgp.self_ms", func(i int) float64 { return dirOp[i] - appendS[i] - extend[i] - rounds[i] }},
		{"transform.self_ms", func(i int) float64 { return extend[i] + rounds[i] }},
		{"stream.self_ms", func(i int) float64 { return appendS[i] }},
	})
	rep.add("server.handler_ms", per(func(i int) float64 { return handler[i] }), "ms", k)
	rep.add("stream.append_ms", per(func(i int) float64 { return appendS[i] }), "ms", k)
	rep.add("transform.index_extend_ms", per(func(i int) float64 { return extend[i] }), "ms", k)
	rep.add("fgp.indexed_count_ms", per(func(i int) float64 { return count[i] }), "ms", k)
	if disk, err := diskBytes(filepath.Join(h.dir, "direct")); err == nil {
		rep.add("stream.bytes_per_update", float64(disk)/float64(ix.Extent()), "B", 0)
	}
	st := engSub.CheckpointStats()
	if tot := st.CheckpointHits + st.CheckpointMisses + st.ColdReplays; tot > 0 {
		rep.add("core.watch_checkpoint_hit_ratio", float64(st.CheckpointHits)/float64(tot), "ratio", int(tot))
	}
	var lates []float64
	for _, s := range sends {
		lates = append(lates, s.late)
	}
	rep.add("load.late_p99_ms", percentile(lates, 0.99), "ms", len(lates))
	rep.add("fgp.hit_ratio", mean(values(hits)), "ratio", len(hits))
	rep.add("transform.space_words", median(values(space)), "count", len(space))
	speedup(rep, tr, "transform.indexed_round")
	rep.add("trace.overhead_ratio", median(values(sdkOp))/median(latencies(recs[levelPlain])), "ratio", k)
	rep.Attempted += 4 * k
	return nil
}
