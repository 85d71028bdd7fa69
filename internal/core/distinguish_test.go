package core

import (
	"math/rand"
	"testing"

	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

func TestDistinguishSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.ErdosRenyiGNM(rng, 40, 250)
	want := float64(exact.Triangles(g))
	if want < 20 {
		t.Skipf("few triangles: %.0f", want)
	}
	st := stream.FromGraph(g)
	cfg := Config{Pattern: pattern.Triangle(), Trials: 40000, Epsilon: 0.4, Seed: 42}

	// Threshold far below the truth: must answer "at least (1+eps)l".
	r := runJob(st, Job{Kind: JobDistinguish, Config: cfg, Threshold: want / 4})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Above {
		t.Errorf("l=%0.f (truth %.0f): want above=true, estimate %.1f", want/4, want, r.Est.Value)
	}
	// Threshold far above the truth: must answer "at most l".
	r = runJob(st, Job{Kind: JobDistinguish, Config: cfg, Threshold: want * 4})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Above {
		t.Errorf("l=%0.f (truth %.0f): want above=false, estimate %.1f", want*4, want, r.Est.Value)
	}
}

func TestDistinguishValidation(t *testing.T) {
	st, _ := stream.NewSlice(3, nil)
	cfg := Config{Pattern: pattern.Triangle(), Trials: 10}
	if r := runJob(st, Job{Kind: JobDistinguish, Config: cfg}); r.Err == nil {
		t.Error("l=0 should be rejected")
	}
	if r := runJob(st, Job{Kind: JobDistinguish, Config: Config{Pattern: pattern.Triangle()}, Threshold: 5}); r.Err == nil {
		t.Error("missing trials/edge bound should be rejected")
	}
}

func TestEstimateSubgraphsAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := gen.ErdosRenyiGNM(rng, 40, 260)
	want := float64(exact.Triangles(g))
	if want < 30 {
		t.Skipf("few triangles: %.0f", want)
	}
	st := stream.FromGraph(g)
	r := runJob(st, Job{Kind: JobAuto, Config: Config{
		Pattern:   pattern.Triangle(),
		Epsilon:   0.4,
		EdgeBound: g.M(),
		MaxTrials: 200000,
		Seed:      44,
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	est := r.Est
	if est.Value < want/3 || est.Value > want*3 {
		t.Errorf("auto estimate %.1f vs truth %.0f", est.Value, want)
	}
	if est.Passes%3 != 0 || est.Passes < 3 {
		t.Errorf("passes=%d: should be a multiple of 3 (one guess per 3 passes)", est.Passes)
	}
}

// TestEstimateAutoCumulativePasses pins the geometric search's pass
// accounting: the reported passes cover every guess made (3 per guess), not
// only the final validating guess, and agree with the session scheduler's
// per-job round count.
func TestEstimateAutoCumulativePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gen.ErdosRenyiGNM(rng, 40, 260)
	want := float64(exact.Triangles(g))
	if want < 30 {
		t.Skipf("few triangles: %.0f", want)
	}
	sl := stream.FromGraph(g)
	cfg := Config{
		Pattern:   pattern.Triangle(),
		Epsilon:   0.4,
		EdgeBound: g.M(),
		MaxTrials: 200000,
		Seed:      46,
	}
	cnt := stream.NewCounter(sl)
	s := NewSession(cnt)
	h := s.Submit(Job{Kind: JobAuto, Config: cfg})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	est := h.Result().Est
	if est.Passes != h.Passes() {
		t.Errorf("estimate reports %d passes, scheduler served %d", est.Passes, h.Passes())
	}
	if est.Passes != cnt.Passes() {
		t.Errorf("estimate reports %d passes, stream saw %d", est.Passes, cnt.Passes())
	}
	if est.Passes%3 != 0 {
		t.Errorf("passes=%d: want a multiple of 3 (one guess per 3 passes)", est.Passes)
	}
	// The search starts at the AGM bound m^1.5 >> #H, so it must have taken
	// more than one guess: single-guess accounting would report exactly 3.
	if est.Passes < 6 {
		t.Errorf("passes=%d: cumulative accounting should cover all guesses (>= 6)", est.Passes)
	}
	// And the whole thing must match the one-shot entry point bit-for-bit.
	plain := runJob(sl, Job{Kind: JobAuto, Config: cfg})
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if *plain.Est != *est {
		t.Errorf("RunJob auto %+v != session auto job %+v", *plain.Est, *est)
	}
}

func TestEstimateSubgraphsAutoNeedsEdgeBound(t *testing.T) {
	st, _ := stream.NewSlice(3, nil)
	if r := runJob(st, Job{Kind: JobAuto, Config: Config{Pattern: pattern.Triangle()}}); r.Err == nil {
		t.Error("missing EdgeBound should be rejected")
	}
}
