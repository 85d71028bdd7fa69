// Facade smoke tests: the quickstart path, each estimator end to end through
// the typed queries, and the package-level helpers. Query construction and
// validation coverage lives in query_test.go.
package streamcount_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamcount"
	"streamcount/internal/core"
)

func TestFacadeQuickstart(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := streamcount.ErdosRenyi(rng, 30, 150)
	want := streamcount.ExactCount(g, p)
	if want == 0 {
		t.Skip("no triangles in workload")
	}
	est, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g),
		streamcount.CountQuery(p, streamcount.WithTrials(40000), streamcount.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	if est.Passes != 3 {
		t.Errorf("passes=%d, want 3", est.Passes)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.3 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestFacadeDerivedTrials(t *testing.T) {
	p, _ := streamcount.PatternByName("triangle")
	rng := rand.New(rand.NewSource(2))
	g := streamcount.ErdosRenyi(rng, 25, 120)
	want := streamcount.ExactCount(g, p)
	if want < 10 {
		t.Skip("too few triangles")
	}
	st := streamcount.StreamFromGraph(g)
	est, err := streamcount.Run(context.Background(), st, streamcount.CountQuery(p,
		streamcount.WithEpsilon(0.3),
		streamcount.WithLowerBound(float64(want)),
		streamcount.WithEdgeBound(g.M()),
		streamcount.WithSeed(3),
	))
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials < 1 {
		t.Errorf("derived trials=%d", est.Trials)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

// TestFacadeConfigErrors checks that a count query with no pattern, or with
// neither trials nor the inputs to derive them, is refused before any pass.
func TestFacadeConfigErrors(t *testing.T) {
	ctx := context.Background()
	st, _ := streamcount.NewStream(3, nil)
	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(nil, streamcount.WithTrials(10))); err == nil {
		t.Error("missing pattern should error")
	}
	p, _ := streamcount.PatternByName("triangle")
	if _, err := streamcount.Run(ctx, st, streamcount.CountQuery(p)); err == nil {
		t.Error("missing trials derivation inputs should error")
	}
}

func TestFacadeSample(t *testing.T) {
	p, _ := streamcount.PatternByName("triangle")
	rng := rand.New(rand.NewSource(4))
	g := streamcount.ErdosRenyi(rng, 20, 80)
	if streamcount.ExactCount(g, p) == 0 {
		t.Skip("no triangles")
	}
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		sr, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g),
			streamcount.SampleQuery(p, streamcount.WithTrials(500), streamcount.WithSeed(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if sr.Found {
			found = true
			if len(sr.Copy.Edges) != 3 {
				t.Errorf("sampled copy has %d edges", len(sr.Copy.Edges))
			}
			for _, e := range sr.Copy.Edges {
				if !g.HasEdge(e.U, e.V) {
					t.Errorf("edge %v not in graph", e)
				}
			}
		}
	}
	if !found {
		t.Error("no sample in 20 attempts")
	}
}

func TestFacadeEstimateCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := streamcount.BarabasiAlbert(rng, 200, 3)
	p, _ := streamcount.PatternByName("K3")
	want := streamcount.ExactCount(g, p)
	if want < 20 {
		t.Skipf("too few triangles: %d", want)
	}
	lambda, _ := streamcount.Degeneracy(g)
	est, err := streamcount.Run(context.Background(), streamcount.StreamFromGraph(g), streamcount.CliqueQuery(3,
		streamcount.WithLambda(lambda),
		streamcount.WithEpsilon(0.4),
		streamcount.WithLowerBound(float64(want)/2),
		streamcount.WithSeed(6),
	))
	if err != nil {
		t.Fatal(err)
	}
	if est.Passes > 15 {
		t.Errorf("passes=%d exceeds 5r=15", est.Passes)
	}
	if e := math.Abs(est.Value-float64(want)) / float64(want); e > 0.6 {
		t.Errorf("estimate %.1f vs %d: rel err %.3f", est.Value, want, e)
	}
}

func TestFacadeEstimateCliquesRejectsTurnstile(t *testing.T) {
	var ups []streamcount.Update
	ups = append(ups,
		streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Insert},
		streamcount.Update{Edge: streamcount.Edge{U: 0, V: 1}, Op: streamcount.Delete},
	)
	st, err := streamcount.NewStream(3, ups)
	if err != nil {
		t.Fatal(err)
	}
	_, err = streamcount.Run(context.Background(), st, streamcount.CliqueQuery(3,
		streamcount.WithLambda(1), streamcount.WithEpsilon(0.4), streamcount.WithLowerBound(1)))
	if err == nil || !strings.Contains(err.Error(), "insertion-only") {
		t.Errorf("want insertion-only error, got %v", err)
	}
}

// TestFacadeSession pins the typed queries to the session layer beneath the
// Engine: several patterns served by one shared replay of a core session,
// each bit-identical to its standalone typed Run.
func TestFacadeSession(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := streamcount.ErdosRenyi(rng, 80, 600)
	st := streamcount.StreamFromGraph(g)

	names := []string{"triangle", "C5", "paw"}
	jobs := make([]core.Job, len(names))
	standalone := make([]*streamcount.CountResult, len(names))
	for i, name := range names {
		p, err := streamcount.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(20 + i)
		jobs[i] = core.Job{Kind: core.JobEstimate, Config: core.Config{Pattern: p, Trials: 3000, Seed: seed}}
		standalone[i], err = streamcount.Run(context.Background(), st,
			streamcount.CountQuery(p, streamcount.WithTrials(3000), streamcount.WithSeed(seed)))
		if err != nil {
			t.Fatal(err)
		}
	}

	s := core.NewSession(st)
	handles := make([]*core.JobHandle, len(names))
	for i, j := range jobs {
		handles[i] = s.Submit(j)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		got, err := h.Estimate()
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if *got != *standalone[i] {
			t.Errorf("%s: session %+v != standalone %+v", names[i], *got, *standalone[i])
		}
	}
	if s.Passes() != 3 {
		t.Errorf("shared passes=%d, want 3 for %d jobs", s.Passes(), len(names))
	}
}

func TestFacadeReadGraph(t *testing.T) {
	in := "3 2\n0 1\n1 2\n"
	g, err := streamcount.ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
}

func TestTrialsFor(t *testing.T) {
	if k := streamcount.TrialsFor(100, 1.5, 0.1, 10); k < 100 {
		t.Errorf("TrialsFor too small: %d", k)
	}
	if k := streamcount.TrialsFor(0, 1.5, 0.1, 10); k != 1 {
		t.Errorf("empty graph trials=%d, want 1", k)
	}
}
