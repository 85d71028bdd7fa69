package transform

import (
	"context"
	"fmt"
	"math/rand"

	"streamcount/internal/graph"
	"streamcount/internal/oracle"
	"streamcount/internal/par"
	"streamcount/internal/pool"
	"streamcount/internal/sketch"
	"streamcount/internal/stream"
)

// InsertionRunner answers query rounds over an arbitrary-order
// insertion-only stream, one pass per round, realizing Theorem 9:
//
//	f1 (uniform edge)  — reservoir sampling, O(1) words per query;
//	f2 (degree)        — a counter per queried vertex;
//	f3 (i-th neighbor) — a countdown on edges incident to the vertex;
//	f4 (adjacency)     — a boolean per queried pair;
//
// so a k-round algorithm with q queries runs in k passes and O(q) words of
// emulation state (O(q log n) bits).
//
// The pass itself is parallel: per-query state is sharded across P workers
// (P = SetParallelism, default GOMAXPROCS) — vertex-keyed state by
// hash(vertex) mod P, adjacency watches by hash(packed edge key) mod P,
// reservoirs in contiguous slot blocks — and each update batch from the
// stream fans out to a persistent worker group, whose workers touch only
// their own shard's state. Every reservoir is a slot of one flat
// ReservoirBank with a private splitmix64 RNG seeded sequentially at setup,
// so answers are bit-identical at any P.
//
// All round scratch — the bank, the watch arena, the shard maps, the batch
// buffers — is owned by the runner and reused across rounds; runners
// themselves recycle across engine generations through
// AcquireInsertionRunner / Release.
type InsertionRunner struct {
	st      stream.Stream
	rng     *rand.Rand
	paral   int
	rounds  int64
	queries int64
	space   int64

	// In-flight round state (BeginRound .. EndRound).
	inRound    bool
	curQueries []oracle.Query
	curP       int
	curM       int64

	// Scratch reused across rounds (and, via the runner pool, across
	// engine generations).
	bank       sketch.ReservoirBank
	resQuery   []int           // bank slot -> query index, in query order
	watches    []neighborWatch // flat watch arena; shards hold indices into it
	shards     []*insShard
	grp        *par.Group // round-scoped worker group when curP > 1
	batchEdges []graph.Edge
	batchKeys  []uint64
}

// InsertionRunner implements the session engine's round lifecycle.
var _ oracle.PassRunner = (*InsertionRunner)(nil)

// neighborWatch is the countdown state of one f3 (i-th neighbor) query.
// Watches live by value in the runner's flat arena; shards reference them
// by index, so registering a round's watches allocates no per-watch nodes.
type neighborWatch struct {
	idx       int
	remaining int64
	result    int64
	found     bool
}

// insShard is the per-worker slice of a round's query state. Maps are
// pre-populated at setup with exactly the keys the shard owns, so shard
// membership during the pass is just map membership. Reservoir slots are
// assigned as one contiguous bank block per shard — which shard sweeps a
// slot never affects its answer, and the block keeps each worker's sweep on
// adjacent bank entries.
type insShard struct {
	bank         *sketch.ReservoirBank
	resLo, resHi int             // this shard's slot block, [resLo, resHi)
	watches      []neighborWatch // aliases the runner's watch arena
	deg          map[int64]int64
	nbr          map[int64][]int32 // vertex -> watch indices
	adj          map[uint64]bool
}

func (s *insShard) reset() {
	s.bank = nil
	s.resLo, s.resHi = 0, 0
	s.watches = nil
	clear(s.deg)
	clear(s.nbr)
	clear(s.adj)
}

// process consumes one update batch: edges[i] is the canonical edge of the
// i-th update and keys[i] its packed key.
func (s *insShard) process(edges []graph.Edge, keys []uint64) {
	for slot := s.resLo; slot < s.resHi; slot++ {
		s.bank.OfferKeys(slot, keys)
	}
	if len(s.deg) == 0 && len(s.nbr) == 0 && len(s.adj) == 0 {
		return
	}
	for i, e := range edges {
		if _, ok := s.deg[e.U]; ok {
			s.deg[e.U]++
		}
		if _, ok := s.deg[e.V]; ok {
			s.deg[e.V]++
		}
		if ws := s.nbr[e.U]; len(ws) > 0 {
			advanceWatches(s.watches, ws, e.V)
		}
		if ws := s.nbr[e.V]; len(ws) > 0 {
			advanceWatches(s.watches, ws, e.U)
		}
		if seen, ok := s.adj[keys[i]]; ok && !seen {
			s.adj[keys[i]] = true
		}
	}
}

func advanceWatches(arena []neighborWatch, ws []int32, other int64) {
	for _, wi := range ws {
		w := &arena[wi]
		if !w.found {
			w.remaining--
			if w.remaining == 0 {
				w.result, w.found = other, true
			}
		}
	}
}

// insRunnerPool recycles released runners — and with them the bank arrays,
// watch arena, shard maps and batch buffers — across engine generations.
// BeginRound fully re-initializes every piece of scratch a round reads, so
// a recycled runner is observably identical to a fresh one (the pool
// hygiene suite dirties this scratch between rounds and requires
// bit-identical estimates; DESIGN.md §12).
var insRunnerPool = pool.New(
	func() *InsertionRunner { return &InsertionRunner{} },
	func(r *InsertionRunner) {},
	dirtyInsRunner,
)

func dirtyInsRunner(r *InsertionRunner) {
	r.bank.Dirty()
	ws := r.watches[:cap(r.watches)]
	for i := range ws {
		ws[i] = neighborWatch{idx: -0x5a5a5a, remaining: -0x5a5a5a, result: -0x5a5a5a}
	}
	rq := r.resQuery[:cap(r.resQuery)]
	for i := range rq {
		rq[i] = -0x5a5a5a
	}
	be := r.batchEdges[:cap(r.batchEdges)]
	for i := range be {
		be[i] = graph.Edge{U: -0x5a5a5a, V: -0x5a5a5a}
	}
	pool.DirtyUint64(r.batchKeys)
}

// NewInsertionRunner wraps the stream. The stream must be insertion-only.
func NewInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	if !st.InsertOnly() {
		return nil, fmt.Errorf("transform: InsertionRunner requires an insertion-only stream")
	}
	return &InsertionRunner{st: st, rng: rng}, nil
}

// AcquireInsertionRunner is NewInsertionRunner over a process-wide runner
// pool: the returned runner is rebound to st and rng with fresh accounting,
// but keeps a released predecessor's grown scratch, so steady-state
// admission stops paying per-generation setup. Callers release with
// Release; an unreleased runner is simply collected.
func AcquireInsertionRunner(st stream.Stream, rng *rand.Rand) (*InsertionRunner, error) {
	if !st.InsertOnly() {
		return nil, fmt.Errorf("transform: InsertionRunner requires an insertion-only stream")
	}
	r := insRunnerPool.Get()
	r.st, r.rng = st, rng
	r.paral = 0
	r.rounds, r.queries, r.space = 0, 0, 0
	r.inRound = false
	r.curQueries = nil
	r.curP, r.curM = 0, 0
	return r, nil
}

// Release aborts any in-flight round and returns the runner to the pool.
// The runner must not be used afterwards.
func (r *InsertionRunner) Release() {
	r.AbortRound()
	r.st, r.rng = nil, nil
	insRunnerPool.Put(r)
}

// SetParallelism bounds the number of pass workers. p <= 0 selects
// GOMAXPROCS, 1 forces the sequential path. Answers do not depend on p.
func (r *InsertionRunner) SetParallelism(p int) { r.paral = p }

// Model implements oracle.Runner.
func (r *InsertionRunner) Model() oracle.Model { return oracle.Augmented }

// Rounds implements oracle.Runner.
func (r *InsertionRunner) Rounds() int64 { return r.rounds }

// Queries implements oracle.Runner.
func (r *InsertionRunner) Queries() int64 { return r.queries }

// SpaceWords implements oracle.Runner.
func (r *InsertionRunner) SpaceWords() int64 { return r.space }

// NumVertices implements oracle.Runner.
func (r *InsertionRunner) NumVertices() int64 { return r.st.N() }

// shardOfVertex and shardOfKey give the deterministic state assignment; they
// only decide which worker owns a piece of state, never the answer itself.
func shardOfVertex(v int64, p int) int { return int(sketch.Hash64(0x5ee7, uint64(v)) % uint64(p)) }
func shardOfKey(key uint64, p int) int { return int(sketch.Hash64(0xed6e, key) % uint64(p)) }

func (r *InsertionRunner) ensureShards(p int) {
	if len(r.shards) != p {
		r.shards = make([]*insShard, p)
		for i := range r.shards {
			r.shards[i] = &insShard{
				deg: make(map[int64]int64),
				nbr: make(map[int64][]int32),
				adj: make(map[uint64]bool),
			}
		}
		return
	}
	for _, s := range r.shards {
		s.reset()
	}
}

// Round implements oracle.Runner: it answers the whole batch in one pass.
// It is BeginRound + one private replay + EndRound, so a standalone runner
// and a session-scheduled one answer identically.
func (r *InsertionRunner) Round(queries []oracle.Query) ([]oracle.Answer, error) {
	return r.RoundContext(context.Background(), queries)
}

// RoundContext is Round with cancellation checked between the update batches
// of the private replay: when ctx is done the pass aborts with the context's
// error before the next batch is consumed. Cancellation never changes
// answers — a round that completes is bit-identical to an uncancellable one.
func (r *InsertionRunner) RoundContext(ctx context.Context, queries []oracle.Query) ([]oracle.Answer, error) {
	if err := r.BeginRound(queries); err != nil {
		r.AbortRound()
		return nil, err
	}
	err := r.st.ForEachBatch(func(batch []stream.Update) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return r.ConsumeBatch(batch)
	})
	if err != nil {
		r.AbortRound()
		return nil, err
	}
	return r.EndRound()
}

// BeginRound implements oracle.PassRunner: it registers the round's queries
// and shards the per-query state (sequentially, so reservoir seeds are drawn
// in query order regardless of the worker count).
func (r *InsertionRunner) BeginRound(queries []oracle.Query) error {
	r.rounds++
	r.queries += int64(len(queries))
	r.inRound = true
	r.curQueries = queries
	r.curM = 0
	n := r.st.N()
	p := par.Workers(r.paral)
	r.curP = p
	r.ensureShards(p)

	// Pre-count the round's reservoirs so the bank can be laid out and
	// shard slot blocks assigned up front.
	nres := 0
	for _, q := range queries {
		if q.Type == oracle.RandomEdge {
			nres++
		}
	}
	r.bank.Reset(nres)
	r.resQuery = r.resQuery[:0]
	r.watches = r.watches[:0]

	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			r.space++
		case oracle.RandomEdge:
			// Each slot owns a private deterministic RNG: seeds are drawn
			// sequentially here, in query order, so the accept sequence is
			// independent of which worker sweeps the slot. A banked slot
			// draws the identical accept sequence as NewReservoirSeeded.
			r.bank.Seed(len(r.resQuery), r.rng.Uint64())
			r.resQuery = append(r.resQuery, i)
			r.space += 2
		case oracle.Degree:
			sh := r.shards[shardOfVertex(q.U, p)]
			if _, ok := sh.deg[q.U]; !ok {
				sh.deg[q.U] = 0
			}
			r.space++
		case oracle.Neighbor:
			if q.I < 1 {
				return fmt.Errorf("transform: Neighbor index %d < 1", q.I)
			}
			sh := r.shards[shardOfVertex(q.U, p)]
			sh.nbr[q.U] = append(sh.nbr[q.U], int32(len(r.watches)))
			r.watches = append(r.watches, neighborWatch{idx: i, remaining: q.I})
			r.space += 2
		case oracle.RandomNeighbor:
			return fmt.Errorf("transform: RandomNeighbor is a relaxed-model query; the insertion-only runner emulates the augmented model (use Neighbor)")
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			sh := r.shards[shardOfKey(key, p)]
			if _, ok := sh.adj[key]; !ok {
				sh.adj[key] = false
			}
			r.space++
		default:
			return fmt.Errorf("transform: unknown query type %d", q.Type)
		}
	}
	r.bindShards(nres, p)
	r.startGroup(p)
	return nil
}

// bindShards hands each shard its view of the round's shared state: the
// bank, its contiguous slot block, and the (now fully grown, hence stable)
// watch arena.
func (r *InsertionRunner) bindShards(nres, p int) {
	for j, sh := range r.shards {
		sh.bank = &r.bank
		sh.resLo = j * nres / p
		sh.resHi = (j + 1) * nres / p
		sh.watches = r.watches
	}
}

// startGroup arms the round's persistent worker group: one goroutine per
// shard for the whole round, instead of one per shard per batch.
func (r *InsertionRunner) startGroup(p int) {
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	if p > 1 {
		r.grp = par.NewGroup(p)
	}
}

// AbortRound discards an in-flight round after a mid-pass failure,
// releasing the round's worker group. It is a no-op outside a round.
// Accounting (Rounds, Queries, SpaceWords) keeps the aborted round's
// charges — the failed pass was still paid for.
func (r *InsertionRunner) AbortRound() {
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	r.curQueries = nil
	r.inRound = false
}

// ConsumeBatch implements oracle.PassRunner: each batch is canonicalized
// once, then fanned out to the round's worker group.
func (r *InsertionRunner) ConsumeBatch(batch []stream.Update) error {
	n := r.st.N()
	edges := r.batchEdges[:0]
	keys := r.batchKeys[:0]
	for _, u := range batch {
		if u.Op != stream.Insert {
			return fmt.Errorf("transform: deletion in insertion-only stream")
		}
		e := u.Edge.Canon()
		edges = append(edges, e)
		keys = append(keys, edgeKey(e, n))
	}
	r.batchEdges, r.batchKeys = edges, keys
	r.curM += int64(len(batch))
	if r.grp == nil {
		r.shards[0].process(edges, keys)
		return nil
	}
	shards := r.shards
	r.grp.Run(func(i int) { shards[i].process(edges, keys) })
	return nil
}

// EndRound implements oracle.PassRunner: the merge is sequential, in query
// order, so answer assembly never depends on the worker count.
func (r *InsertionRunner) EndRound() ([]oracle.Answer, error) {
	queries := r.curQueries
	n := r.st.N()
	p := r.curP
	m := r.curM
	answers := make([]oracle.Answer, len(queries))
	for i, q := range queries {
		switch q.Type {
		case oracle.CountEdges:
			answers[i] = oracle.Answer{OK: true, Count: m}
		case oracle.Degree:
			sh := r.shards[shardOfVertex(q.U, p)]
			answers[i] = oracle.Answer{OK: true, Count: sh.deg[q.U]}
		case oracle.Adjacent:
			key := edgeKey(graph.Edge{U: q.U, V: q.V}.Canon(), n)
			sh := r.shards[shardOfKey(key, p)]
			answers[i] = oracle.Answer{OK: true, Yes: sh.adj[key]}
		}
	}
	for slot, qi := range r.resQuery {
		if key, ok := r.bank.Sample(slot); ok {
			answers[qi] = oracle.Answer{OK: true, Edge: keyEdge(key, n)}
		} else {
			answers[qi] = oracle.Answer{OK: false}
		}
	}
	for i := range r.watches {
		w := &r.watches[i]
		answers[w.idx] = oracle.Answer{OK: w.found, Count: w.result}
	}
	if r.grp != nil {
		r.grp.Close()
		r.grp = nil
	}
	r.curQueries = nil
	r.inRound = false
	return answers, nil
}

// edgeKey encodes a canonical edge as a single integer key in [0, n^2).
func edgeKey(e graph.Edge, n int64) uint64 {
	c := e.Canon()
	return uint64(c.U)*uint64(n) + uint64(c.V)
}

// keyEdge decodes edgeKey.
func keyEdge(key uint64, n int64) graph.Edge {
	return graph.Edge{U: int64(key / uint64(n)), V: int64(key % uint64(n))}
}
