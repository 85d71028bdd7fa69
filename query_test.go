package streamcount_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamcount"
)

func queryWorkload(t testing.TB) (*streamcount.Graph, streamcount.Stream) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := streamcount.ErdosRenyi(rng, 100, 900)
	return g, streamcount.StreamFromGraph(g)
}

// TestCountQueryDefaultsEdgeBoundToStreamLength: deriving the trial budget
// needs an edge bound; the query layer defaults it to the stream length so
// WithEpsilon+WithLowerBound alone are a complete specification.
func TestCountQueryDefaultsEdgeBoundToStreamLength(t *testing.T) {
	g, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	want := streamcount.ExactCount(g, p)
	if want == 0 {
		t.Skip("no triangles in workload")
	}
	got, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithSeed(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials < 1 {
		t.Errorf("derived trials = %d", got.Trials)
	}
	// Same query with the explicit stream-length bound must be identical.
	explicit, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithEdgeBound(st.Len()),
		streamcount.WithSeed(2),
	))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *explicit {
		t.Errorf("default edge bound %+v != explicit stream length %+v", *got, *explicit)
	}
}

// TestAutoQueryEpsilonDefaultFixed pins AutoQuery's ε default to 0.1, the
// same default as every other query kind.
func TestAutoQueryEpsilonDefaultFixed(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")

	got, err := streamcount.Run(context.Background(), st,
		streamcount.AutoQuery(p, streamcount.WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamcount.Run(context.Background(), st,
		streamcount.AutoQuery(p, streamcount.WithEpsilon(0.1), streamcount.WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("AutoQuery default ε: %+v != explicit ε=0.1 %+v", *got, *want)
	}

	// The stream-length edge-bound default applies to Auto even when a trial
	// budget is given (the geometric search always needs the AGM start m^ρ;
	// it derives its per-guess budgets itself, so WithTrials does not pin
	// them — but it must not make the query unrunnable either).
	fixed, err := streamcount.Run(context.Background(), st,
		streamcount.AutoQuery(p, streamcount.WithTrials(2000), streamcount.WithSeed(4)))
	if err != nil {
		t.Fatalf("AutoQuery with WithTrials: %v", err)
	}
	if fixed.Trials < 1 {
		t.Errorf("auto search reported %d trials", fixed.Trials)
	}
}

// TestRunTypedQueries exercises every query kind end to end through the
// typed Run.
func TestRunTypedQueries(t *testing.T) {
	g, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")
	exact := streamcount.ExactCount(g, p)
	if exact == 0 {
		t.Skip("no triangles in workload")
	}

	if est, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
		streamcount.WithTrials(40000), streamcount.WithSeed(1))); err != nil {
		t.Fatal(err)
	} else if est.Passes != 3 {
		t.Errorf("count passes=%d, want 3", est.Passes)
	}

	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		sr, err := streamcount.Run(ctx, st, streamcount.SampleQuery(p,
			streamcount.WithTrials(500), streamcount.WithSeed(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if sr.Found {
			found = true
			if len(sr.Copy.Edges) != 3 {
				t.Errorf("sampled copy has %d edges", len(sr.Copy.Edges))
			}
			if sr.Passes != 3 {
				t.Errorf("sample passes=%d, want 3", sr.Passes)
			}
		}
	}
	if !found {
		t.Error("no sample in 20 attempts")
	}

	lambda, _ := streamcount.Degeneracy(g)
	clq, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(3,
		streamcount.WithLambda(lambda),
		streamcount.WithEpsilon(0.4),
		streamcount.WithLowerBound(float64(exact)/2),
		streamcount.WithSeed(6),
	))
	if err != nil {
		t.Fatal(err)
	}
	if clq.Passes > 15 {
		t.Errorf("clique passes=%d exceeds 5r=15", clq.Passes)
	}

	dec, err := streamcount.Run(ctx, st, streamcount.DistinguishQuery(p, float64(exact)/4,
		streamcount.WithTrials(40000), streamcount.WithEpsilon(0.4), streamcount.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Above {
		t.Errorf("distinguish at l=#H/4 should report above; estimate %v", dec.Estimate.Value)
	}
	if dec.Estimate == nil || dec.Estimate.Passes != 3 {
		t.Errorf("distinguish estimate %+v, want 3 passes", dec.Estimate)
	}
}

// TestQueryValidationErrors: constructor misuse surfaces typed sentinels.
func TestQueryValidationErrors(t *testing.T) {
	g, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")

	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(nil)); !errors.Is(err, streamcount.ErrBadPattern) {
		t.Errorf("nil pattern: %v, want ErrBadPattern", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(p)); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("neither trials nor lower bound: %v, want ErrBadConfig", err)
	}
	// A negative edge bound is rejected by every query kind, whether or not
	// the query derives its trial budget: -1 must not alias the internal
	// "stream length" sentinel, and -2 must not be silently ignored.
	e := streamcount.NewEngine(st)
	defer e.Close()
	for _, eb := range []int64{-1, -2} {
		bad := streamcount.WithEdgeBound(eb)
		for _, q := range []streamcount.Query{
			streamcount.CountQuery(p, streamcount.WithLowerBound(10), bad),
			streamcount.CountQuery(p, streamcount.WithTrials(10), bad),
			streamcount.SampleQuery(p, streamcount.WithTrials(10), bad),
			streamcount.AutoQuery(p, bad),
			streamcount.DistinguishQuery(p, 10, bad),
			streamcount.CliqueQuery(3, streamcount.WithLambda(3), streamcount.WithLowerBound(1), bad),
		} {
			if _, err := e.Submit(ctx, q); !errors.Is(err, streamcount.ErrBadConfig) {
				t.Errorf("%s with edge bound %d: %v, want ErrBadConfig", q.Kind(), eb, err)
			}
		}
	}
	// Theorem 2's clique counter is insertion-only.
	ts := streamcount.TurnstileFromGraph(g, 0.5, rand.New(rand.NewSource(3)))
	lambda, _ := streamcount.Degeneracy(g)
	_, err := streamcount.Run(ctx, ts, streamcount.CliqueQuery(3,
		streamcount.WithLambda(lambda), streamcount.WithEpsilon(0.4), streamcount.WithLowerBound(1)))
	if !errors.Is(err, streamcount.ErrBadConfig) || !strings.Contains(err.Error(), "insertion-only") {
		t.Errorf("clique query on turnstile stream: %v, want insertion-only ErrBadConfig", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(2, streamcount.WithLambda(3), streamcount.WithLowerBound(1))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("r<3: %v, want ErrBadConfig", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(3, streamcount.WithLowerBound(1))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("missing lambda: %v, want ErrBadConfig", err)
	}
	if _, err := streamcount.Run(ctx, st, streamcount.DistinguishQuery(p, 0, streamcount.WithTrials(10))); !errors.Is(err, streamcount.ErrBadConfig) {
		t.Errorf("zero threshold: %v, want ErrBadConfig", err)
	}
}

// TestRunHonorsContext: an already-canceled context fails with ErrCanceled
// before any pass, and both sentinel and context error match.
func TestRunHonorsContext(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := streamcount.Run(ctx, st, streamcount.CountQuery(p,
		streamcount.WithTrials(1000), streamcount.WithSeed(1)))
	if !errors.Is(err, streamcount.ErrCanceled) {
		t.Errorf("error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, should also match context.Canceled", err)
	}
}

// TestEngineFacade: heterogeneous queries through one Engine, typed Do,
// untyped Submit outcomes, named streams, and bit-identity to Run.
func TestEngineFacade(t *testing.T) {
	_, st := queryWorkload(t)
	ctx := context.Background()
	p, _ := streamcount.PatternByName("triangle")
	c5, _ := streamcount.PatternByName("C5")

	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(20*time.Millisecond))
	defer e.Close()

	countQ := streamcount.CountQuery(p, streamcount.WithTrials(4000), streamcount.WithSeed(31))
	want, err := streamcount.Run(ctx, st, countQ)
	if err != nil {
		t.Fatal(err)
	}

	type done struct {
		est *streamcount.CountResult
		err error
	}
	ch := make(chan done, 1)
	go func() {
		est, err := streamcount.Do(ctx, e, countQ)
		ch <- done{est, err}
	}()
	// A second, differently-shaped query rides the same engine concurrently.
	out, err := e.Submit(ctx, streamcount.CountQuery(c5, streamcount.WithTrials(2000), streamcount.WithSeed(32)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "count" || out.Count == nil || out.Sample != nil || out.Decision != nil {
		t.Errorf("outcome %+v: want only Count set", out)
	}
	first := <-ch
	if first.err != nil {
		t.Fatal(first.err)
	}
	if *first.est != *want {
		t.Errorf("engine Do %+v != one-shot Run %+v", *first.est, *want)
	}

	// Named stream registry.
	rng := rand.New(rand.NewSource(12))
	g2 := streamcount.ErdosRenyi(rng, 60, 400)
	st2 := streamcount.StreamFromGraph(g2)
	if err := e.RegisterStream("other", st2); err != nil {
		t.Fatal(err)
	}
	want2, err := streamcount.Run(ctx, st2, countQ)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := streamcount.DoOn(ctx, e, "other", countQ)
	if err != nil {
		t.Fatal(err)
	}
	if *got2 != *want2 {
		t.Errorf("named stream Do %+v != Run %+v", *got2, *want2)
	}
	if _, err := streamcount.DoOn(ctx, e, "missing", countQ); !errors.Is(err, streamcount.ErrUnknownStream) {
		t.Errorf("unknown stream: %v, want ErrUnknownStream", err)
	}

	// Sanity on the sharing accounting: every generation of 3-round jobs
	// costs 3 passes on its lane.
	if got, gens := e.Passes()+e.PassesOn("other"), e.Generations(); got != 3*gens {
		t.Errorf("passes=%d, want 3*generations=%d", got, 3*gens)
	}
}

// TestEngineFacadeClose: close rejects new queries with ErrEngineClosed.
func TestEngineFacadeClose(t *testing.T) {
	_, st := queryWorkload(t)
	p, _ := streamcount.PatternByName("triangle")
	e := streamcount.NewEngine(st)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := streamcount.Do(context.Background(), e,
		streamcount.CountQuery(p, streamcount.WithTrials(10)))
	if !errors.Is(err, streamcount.ErrEngineClosed) {
		t.Errorf("submit after close: %v, want ErrEngineClosed", err)
	}
}
