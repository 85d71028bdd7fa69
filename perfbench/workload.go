package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"streamcount"
	"streamcount/internal/exact"
	"streamcount/internal/gen"
	"streamcount/internal/graph"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// streamName is the daemon stream every workload loads.
const streamName = "g"

// workload is one traffic mix. Count workloads run closed loops of cold
// count queries; the watch workload runs an open-loop appender beside one
// standing query.
type workload struct {
	name  string
	watch bool
	// clients is the closed-loop client count of a count workload.
	clients  int
	patterns []string
	trials   int
	build    func(seed int64) (*inputs, error)
}

var workloads = map[string]*workload{
	"insertion-count": {
		name: "insertion-count", clients: 2, patterns: []string{"triangle", "C4", "paw"}, trials: 4000,
		build: buildInsertion,
	},
	"turnstile-count": {
		name: "turnstile-count", clients: 2, patterns: []string{"triangle"}, trials: 160,
		build: buildTurnstile,
	},
	"ingest-watch": {
		name: "ingest-watch", watch: true, patterns: []string{"triangle"}, trials: 4000,
		build: buildWatch,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Watch workload shape: a prefilled stream, then watchBatch-update appends
// due every 1/watchRate seconds. At 13-16 ms of daemon CPU per append,
// watchRate keeps the daemon's one processor about 30% busy (README.md
// records how it was chosen).
const (
	watchPrefill = 100_000
	watchBatch   = 100
	watchRate    = 20.0
	// watchMaxSeconds bounds the run length the generated stream covers.
	watchMaxSeconds = 60
)

// inputs is everything a run sends, generated from the workload seed, plus
// the references the correctness gate checks answers against.
type inputs struct {
	n       int64
	seed    int64
	prefill []stream.Update
	// batches are the watch workload's timed appends, in order.
	batches [][]stream.Update
	// exact maps each pattern of a count workload to its exact count in
	// the prefilled graph.
	exact map[string]float64
	// watchExact[k] is the exact triangle count after the prefill and the
	// first k batches.
	watchExact []float64
	// shift is added to every bit-identity reference; the smoke test sets
	// it to prove the gate trips.
	shift float64
}

// corrupt deliberately breaks every reference the gate compares with.
func (in *inputs) corrupt() {
	for p := range in.exact {
		in.exact[p] *= 2
	}
	for i := range in.watchExact {
		in.watchExact[i] *= 2
	}
	in.shift = 1
}

// opSeed derives operation i's query seed from the workload seed, so every
// query is cold (fresh seed) yet reproducible.
func opSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// warmupOp is the operation index of the set-up warm-up query; timed
// operations count up from 0.
const warmupOp = -1

// query is operation i of a count workload: the next pattern of the fixed
// rotation at a fresh seed.
func (w *workload) query(seed int64, i int) (streamcount.Query, string, int64, error) {
	name := w.patterns[(i%len(w.patterns)+len(w.patterns))%len(w.patterns)]
	p, err := streamcount.PatternByName(name)
	if err != nil {
		return nil, "", 0, err
	}
	s := opSeed(seed, i)
	return streamcount.CountQuery(p, streamcount.WithTrials(w.trials), streamcount.WithSeed(s)), name, s, nil
}

// watchQuery is the standing query of the watch workload.
func (w *workload) watchQuery(seed int64) (streamcount.Query, int64, error) {
	p, err := streamcount.PatternByName(w.patterns[0])
	if err != nil {
		return nil, 0, err
	}
	s := opSeed(seed, 1<<30)
	return streamcount.CountQuery(p, streamcount.WithTrials(w.trials), streamcount.WithSeed(s)), s, nil
}

// graphSeed seeds every workload's graph. The graph is a fixed fixture, so
// the spread between runs measures the system rather than the graph; the
// workload seed varies every query and watch seed instead.
const graphSeed = 2022

// buildInsertion: one insertion-only Barabási–Albert stream (n=4000, k=16,
// about 64k edges) in shuffled order.
func buildInsertion(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	g := gen.BarabasiAlbert(rng, 4000, 16)
	st := stream.Shuffled(stream.FromGraph(g), rng)
	counts, err := patternCounts(g)
	if err != nil {
		return nil, err
	}
	return &inputs{n: g.N(), seed: seed, prefill: st.Updates(), exact: counts}, nil
}

// buildTurnstile: an Erdős–Rényi graph (n=200, m=2000) streamed with 30%
// extra decoy edges inserted and later deleted, about 3.2k updates.
func buildTurnstile(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	g := gen.ErdosRenyiGNM(rng, 200, 2000)
	st := stream.WithDeletions(g, 0.3, rng)
	return &inputs{n: g.N(), seed: seed, prefill: st.Updates(),
		exact: map[string]float64{"triangle": float64(exact.Triangles(g))}}, nil
}

// buildWatch: a Barabási–Albert graph streamed in growth order (each
// vertex's edges after those of the vertices it attached to), long enough
// for the prefill plus watchMaxSeconds of appends. Every prefix is itself a
// preferential-attachment graph, so each appended batch is the next few
// vertices joining the network.
func buildWatch(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	need := watchPrefill + int(watchRate*watchMaxSeconds)*watchBatch
	const k = 16
	g := gen.BarabasiAlbert(rng, int64(need)/k+k+1, k)
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a].Canon(), edges[b].Canon()
		if ea.V != eb.V {
			return ea.V < eb.V
		}
		return ea.U < eb.U
	})
	ups := make([]stream.Update, len(edges))
	for i, e := range edges {
		ups[i] = stream.Update{Edge: e, Op: stream.Insert}
	}
	in := &inputs{n: g.N(), seed: seed, prefill: ups[:watchPrefill]}
	for lo := watchPrefill; lo+watchBatch <= min(need, len(ups)); lo += watchBatch {
		in.batches = append(in.batches, ups[lo:lo+watchBatch])
	}
	// Exact triangle counts at every version the watch evaluates, kept
	// incrementally: inserting (u,v) closes |N(u) ∩ N(v)| triangles. The
	// last one is checked against internal/exact.
	adj := make([]map[int64]struct{}, g.N())
	var tri int64
	insert := func(e graph.Edge) {
		a, b := adj[e.U], adj[e.V]
		if len(a) > len(b) {
			a, b = b, a
		}
		for x := range a {
			if _, ok := b[x]; ok {
				tri++
			}
		}
		for _, p := range [2][2]int64{{e.U, e.V}, {e.V, e.U}} {
			if adj[p[0]] == nil {
				adj[p[0]] = make(map[int64]struct{})
			}
			adj[p[0]][p[1]] = struct{}{}
		}
	}
	for _, u := range in.prefill {
		insert(u.Edge)
	}
	in.watchExact = append(in.watchExact, float64(tri))
	for _, b := range in.batches {
		for _, u := range b {
			insert(u.Edge)
		}
		in.watchExact = append(in.watchExact, float64(tri))
	}
	final := graph.New(g.N())
	for _, u := range ups[:watchPrefill+len(in.batches)*watchBatch] {
		final.AddEdge(u.Edge.U, u.Edge.V)
	}
	if want := exact.Triangles(final); want != tri {
		return nil, fmt.Errorf("incremental triangle count %d disagrees with internal/exact %d", tri, want)
	}
	return in, nil
}

// patternCounts returns the exact triangle, C4 and paw counts of g.
// internal/exact's generic counter needs minutes for C4 on the 64k-edge
// workload graph, so C4 and paw use closed forms (paw = Σ_v t(v)·(deg(v)−2),
// C4 = ½·Σ_{u<w} C(codeg(u,w), 2)); those are checked against exact.Count on
// a small graph of the same family before they are trusted.
func patternCounts(g *graph.Graph) (map[string]float64, error) {
	small := gen.BarabasiAlbert(rand.New(rand.NewSource(int64(g.M()))), 150, 4)
	for name, want := range closedForms(small) {
		p, err := pattern.ByName(name)
		if err != nil {
			return nil, err
		}
		if got := exact.Count(small, p); got != want {
			return nil, fmt.Errorf("closed-form %s count %d disagrees with internal/exact %d", name, want, got)
		}
	}
	out := map[string]float64{}
	for name, c := range closedForms(g) {
		out[name] = float64(c)
	}
	if t := exact.Triangles(g); t != int64(out["triangle"]) {
		return nil, fmt.Errorf("triangle count %v disagrees with internal/exact %d", out["triangle"], t)
	}
	return out, nil
}

func closedForms(g *graph.Graph) map[string]int64 {
	n := g.N()
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	local := make([]int64, n) // triangles through each vertex
	var tri int64
	for u := int64(0); u < n; u++ {
		for _, x := range g.Neighbors(u) {
			mark[x] = int32(u)
		}
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, x := range g.Neighbors(v) {
				if x > v && mark[x] == int32(u) {
					tri++
					local[u]++
					local[v]++
					local[x]++
				}
			}
		}
	}
	var paw int64
	for v := int64(0); v < n; v++ {
		paw += local[v] * (g.Degree(v) - 2)
	}
	codeg := make([]int64, n)
	var touched []int64
	var c4 int64
	for u := int64(0); u < n; u++ {
		touched = touched[:0]
		for _, x := range g.Neighbors(u) {
			for _, w := range g.Neighbors(x) {
				if w > u {
					if codeg[w] == 0 {
						touched = append(touched, w)
					}
					codeg[w]++
				}
			}
		}
		for _, w := range touched {
			c4 += codeg[w] * (codeg[w] - 1) / 2
			codeg[w] = 0
		}
	}
	return map[string]int64{"triangle": tri, "paw": paw, "C4": c4 / 2}
}

// since is a float-milliseconds duration, the unit every latency is kept in.
func since(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
