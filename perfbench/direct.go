package main

import (
	"math/rand"
	"sync"
	"time"

	"streamcount"
	"streamcount/internal/fgp"
	"streamcount/internal/oracle"
	"streamcount/internal/stream"
	"streamcount/internal/transform"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Level names the boundary the operation was driven at (see README.md).
type span struct {
	Op     int     `json:"op"`
	Level  string  `json:"level"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the gate reuses the traced code paths.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op int, level, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Level: level, Name: name, Parent: parent,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1000, End: float64(end.Sub(t.t0).Nanoseconds()) / 1000})
	t.mu.Unlock()
}

// sums adds up span durations in ms per operation for one level and name.
func (t *tracer) sums(level, name string) map[int]float64 {
	out := map[int]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Level == level && s.Name == name {
			out[s.Op] += s.ms()
		}
	}
	return out
}

// tracedRunner is the benchmark's own oracle.Runner over a transform pass
// runner: Round is BeginRound, one replay of the pinned stream through
// ConsumeBatch, then EndRound — the lifecycle the engine's shared pass
// drives — with one span around each call.
type tracedRunner struct {
	oracle.PassRunner
	st    stream.Stream
	tr    *tracer
	op    int
	level string
}

func (r *tracedRunner) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	t0 := time.Now()
	if err := r.BeginRound(qs); err != nil {
		return nil, err
	}
	t1 := time.Now()
	r.tr.add(r.op, r.level, "transform.begin_round", "fgp.count", t0, t1)
	err := r.st.ForEachBatch(func(b []stream.Update) error {
		c0 := time.Now()
		err := r.ConsumeBatch(b)
		r.tr.add(r.op, r.level, "transform.consume", "stream.replay", c0, time.Now())
		return err
	})
	t2 := time.Now()
	r.tr.add(r.op, r.level, "stream.replay", "fgp.count", t1, t2)
	if err != nil {
		return nil, err
	}
	ans, err := r.EndRound()
	r.tr.add(r.op, r.level, "transform.end_round", "fgp.count", t2, time.Now())
	return ans, err
}

// directCount runs one count query the way the engine's executor does —
// the RNG seeded with the query seed feeds the runner's construction and
// then fgp.CountParallel — but over the benchmark's own runner, so the
// estimate is bit-identical to the served one at the same version.
func directCount(st stream.Stream, pl *fgp.Plan, trials int, seed int64, par int, tr *tracer, op int, level string) (*fgp.Result, int64, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	var pr oracle.PassRunner
	if st.InsertOnly() {
		r, err := transform.NewInsertionRunner(st, rng)
		if err != nil {
			return nil, 0, err
		}
		r.SetParallelism(par)
		pr = r
	} else {
		r := transform.NewTurnstileRunner(st, rng)
		r.SetParallelism(par)
		pr = r
	}
	runner := &tracedRunner{PassRunner: pr, st: st, tr: tr, op: op, level: level}
	res, err := fgp.CountParallel(runner, pl, trials, rng, par)
	tr.add(op, level, "fgp.count", "op", start, time.Now())
	if err != nil {
		return nil, 0, err
	}
	return res, runner.SpaceWords(), nil
}

// tracedIndexed times the watch fast path's runner: every Round of
// transform.IndexedRunner is one span.
type tracedIndexed struct {
	*transform.IndexedRunner
	tr    *tracer
	op    int
	level string
}

func (r *tracedIndexed) Round(qs []oracle.Query) ([]oracle.Answer, error) {
	t0 := time.Now()
	ans, err := r.IndexedRunner.Round(qs)
	r.tr.add(r.op, r.level, "transform.indexed_round", "fgp.count", t0, time.Now())
	return ans, err
}

// indexedCount evaluates the standing query with seed s at version v over
// ix, as the engine's watch fast path does: at seed WatchSeedAt(s, v).
func indexedCount(ix *transform.PrefixIndex, v int64, pl *fgp.Plan, trials int, s int64, par int, tr *tracer, op int, level string) (*fgp.Result, int64, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(streamcount.WatchSeedAt(s, v)))
	ir, err := transform.NewIndexedRunner(ix, v, rng)
	if err != nil {
		return nil, 0, err
	}
	runner := &tracedIndexed{IndexedRunner: ir, tr: tr, op: op, level: level}
	res, err := fgp.CountParallel(runner, pl, trials, rng, par)
	tr.add(op, level, "fgp.count", "op", start, time.Now())
	if err != nil {
		return nil, 0, err
	}
	return res, runner.SpaceWords(), nil
}
