package server

// Cluster-mode tests: a real 3-node in-process cluster (each node a full
// Server behind an httptest listener, so node-to-node shipping runs over
// actual HTTP), exercising map agreement, wrong_node rejection, the
// transfer state machine end to end, warm watch-index handoff, and the
// fault-injection matrix: a source that dies mid-ship and a target that
// dies before the commit rename both leave the source as the owner with
// clients observing no gap, and the identical transfer retried to
// completion.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamcount"
	"streamcount/internal/cluster"
	"streamcount/internal/stream"
	"streamcount/internal/wire"
)

// swapHandler lets the httptest listeners exist before the servers they
// front: the peer addresses must be known to build Options.ClusterPeers,
// which is needed to build the servers.
type swapHandler struct{ h atomic.Value }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, _ := sh.h.Load().(http.Handler); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not up yet", http.StatusServiceUnavailable)
}

// clusterTestNode is one member of an in-process test cluster.
type clusterTestNode struct {
	id  string
	srv *Server
	url string
	dir string          // segment directory ("" when the node is memory-only)
	ffs *stream.FaultFS // nil when the node is memory-only
}

// newTestClusterNodes builds an n-node cluster. With durable set, every
// node gets its own segment directory behind a FaultFS, so tests can
// inject disk faults per node.
func newTestClusterNodes(t *testing.T, n int, durable bool) []*clusterTestNode {
	t.Helper()
	swaps := make([]*swapHandler, n)
	listeners := make([]*httptest.Server, n)
	peers := make([]wire.ClusterNode, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		listeners[i] = httptest.NewServer(swaps[i])
		t.Cleanup(listeners[i].Close)
		peers[i] = wire.ClusterNode{ID: fmt.Sprintf("n%d", i+1), Addr: listeners[i].URL}
	}
	nodes := make([]*clusterTestNode, n)
	for i := range nodes {
		opts := Options{
			Window:         time.Millisecond,
			WatchHeartbeat: 50 * time.Millisecond,
			ClusterNode:    peers[i].ID,
			ClusterPeers:   peers,
		}
		node := &clusterTestNode{id: peers[i].ID, url: listeners[i].URL}
		if durable {
			node.dir = t.TempDir()
			node.ffs = stream.NewFaultFS(nil)
			opts.SegmentDir = node.dir
			opts.FS = node.ffs
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.WaitReady(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		swaps[i].h.Store(http.Handler(srv))
		node.srv = srv
		nodes[i] = node
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				t.Errorf("close %s: %v", node.id, err)
			}
		})
	}
	return nodes
}

// ownerAndRest splits the cluster into the named stream's owner and the
// other members, resolved through the same map the nodes serve.
func ownerAndRest(t *testing.T, nodes []*clusterTestNode, name string) (*clusterTestNode, []*clusterTestNode) {
	t.Helper()
	var wm wire.ClusterMap
	if code := do(t, nodes[0].srv, "GET", "/v1/cluster", "", &wm); code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", code)
	}
	wm.Self = ""
	m, err := cluster.FromWire(wm)
	if err != nil {
		t.Fatal(err)
	}
	ownerID := m.Owner(name).ID
	var owner *clusterTestNode
	var rest []*clusterTestNode
	for _, nd := range nodes {
		if nd.id == ownerID {
			owner = nd
		} else {
			rest = append(rest, nd)
		}
	}
	if owner == nil {
		t.Fatalf("owner %q of stream %q is not a cluster member", ownerID, name)
	}
	return owner, rest
}

// rawDo is do without decoding: it returns status and the exact response
// body, for bit-identical result comparisons.
func rawDo(t *testing.T, s *Server, method, target, body string) (int, string) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

// clusterEdges renders a deterministic edge batch as an append body.
func clusterEdges(n int64, m int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int64]bool{}
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	count := 0
	for count < m {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v || seen[[2]int64{u, v}] || seen[[2]int64{v, u}] {
			continue
		}
		seen[[2]int64{u, v}] = true
		if count > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, u, v)
		count++
	}
	sb.WriteString(`]}`)
	return sb.String()
}

const countQueryBody = `{"stream":"mv","kind":"count","pattern":"triangle","trials":400,"seed":7}`

func TestClusterMapAgreement(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, false)
	var first wire.ClusterMap
	for i, nd := range nodes {
		var m wire.ClusterMap
		if code := do(t, nd.srv, "GET", "/v1/cluster", "", &m); code != http.StatusOK {
			t.Fatalf("node %s: GET /v1/cluster status %d", nd.id, code)
		}
		if m.Self != nd.id {
			t.Errorf("node %s reports self %q", nd.id, m.Self)
		}
		if m.Version != 1 || len(m.Nodes) != 3 {
			t.Errorf("node %s map: version %d nodes %d, want 1 and 3", nd.id, m.Version, len(m.Nodes))
		}
		m.Self = ""
		if i == 0 {
			first = m
			continue
		}
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(m)
		if !bytes.Equal(a, b) {
			t.Errorf("node %s map diverges: %s vs %s", nd.id, b, a)
		}
	}

	// Placement must agree across nodes and spread across members.
	m, err := cluster.FromWire(first)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]int{}
	for i := 0; i < 64; i++ {
		owners[m.Owner(fmt.Sprintf("stream-%02d", i)).ID]++
	}
	if len(owners) != 3 {
		t.Errorf("64 streams landed on %d of 3 nodes: %v", len(owners), owners)
	}

	// A non-clustered server has no map to serve.
	solo := newTestServer(t, Options{Window: time.Millisecond})
	if code := do(t, solo, "GET", "/v1/cluster", "", nil); code != http.StatusNotFound {
		t.Errorf("single-node GET /v1/cluster: status %d, want 404", code)
	}
}

func TestClusterWrongNodeRejection(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, false)
	const name = "routed"
	owner, rest := ownerAndRest(t, nodes, name)

	if code := do(t, owner.srv, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":50}`, name), nil); code != http.StatusCreated {
		t.Fatalf("create on owner: status %d", code)
	}
	// Every stream-scoped endpoint on a non-owner answers a typed 421
	// naming the owner.
	reqs := []struct{ method, target, body string }{
		{"POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":50}`, name)},
		{"POST", "/v1/streams/" + name + "/edges", `{"updates":[{"u":1,"v":2}]}`},
		{"GET", "/v1/streams/" + name + "/stats", ""},
		{"POST", "/v1/queries", fmt.Sprintf(`{"stream":%q,"pattern":"triangle","trials":10}`, name)},
		{"POST", "/v1/watches", fmt.Sprintf(`{"stream":%q,"pattern":"triangle","trials":10}`, name)},
	}
	for _, rq := range reqs {
		var we wire.Error
		code := do(t, rest[0].srv, rq.method, rq.target, rq.body, &we)
		if code != http.StatusMisdirectedRequest {
			t.Errorf("%s %s on non-owner: status %d, want 421", rq.method, rq.target, code)
			continue
		}
		if we.Code != wire.CodeWrongNode || we.Owner != owner.id || we.OwnerAddr != owner.url || we.ClusterVersion != 1 {
			t.Errorf("%s %s redirect %+v, want owner %s at %s under map v1", rq.method, rq.target, we, owner.id, owner.url)
		}
	}
	// The owner serves the same requests.
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":1,"v":2}]}`, nil); code != http.StatusOK {
		t.Errorf("append on owner: status %d", code)
	}
}

func TestClusterTransferMovesStream(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, true)
	const name = "mv"
	owner, rest := ownerAndRest(t, nodes, name)
	target, bystander := rest[0], rest[1]

	if code := do(t, owner.srv, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":60}`, name), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var ar wire.AppendResponse
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", clusterEdges(60, 300, 42), &ar); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	code, before := rawDo(t, owner.srv, "POST", "/v1/queries", countQueryBody)
	if code != http.StatusOK {
		t.Fatalf("query on owner: status %d: %s", code, before)
	}

	var tr wire.TransferResponse
	if code := do(t, owner.srv, "POST", "/v1/cluster/transfer",
		fmt.Sprintf(`{"stream":%q,"target":%q}`, name, target.id), &tr); code != http.StatusOK {
		t.Fatalf("transfer: status %d", code)
	}
	if tr.StreamVersion != ar.Version || tr.ClusterVersion != 2 {
		t.Fatalf("transfer response %+v, want stream version %d and cluster version 2", tr, ar.Version)
	}

	// The new owner serves the bit-identical pinned result.
	code, after := rawDo(t, target.srv, "POST", "/v1/queries", countQueryBody)
	if code != http.StatusOK {
		t.Fatalf("query on new owner: status %d: %s", code, after)
	}
	if before != after {
		t.Errorf("transferred result diverges:\n  before: %s\n  after:  %s", before, after)
	}

	// The old owner redirects to the new one under the bumped map.
	var we wire.Error
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":0,"v":1}]}`, &we); code != http.StatusMisdirectedRequest {
		t.Fatalf("append on old owner: status %d, want 421", code)
	}
	if we.Owner != target.id || we.ClusterVersion != 2 {
		t.Errorf("old-owner redirect %+v, want owner %s under map v2", we, target.id)
	}
	// ... and its local copy is gone, while the map survived a would-be
	// restart on both participants.
	if _, err := os.Stat(filepath.Join(owner.dir, name)); !os.IsNotExist(err) {
		t.Errorf("old owner still holds segment dir (stat err %v)", err)
	}
	for _, nd := range []*clusterTestNode{owner, target} {
		if _, err := os.Stat(filepath.Join(nd.dir, clusterMapFile)); err != nil {
			t.Errorf("node %s did not persist the adopted map: %v", nd.id, err)
		}
	}

	// Appends continue on the new owner with no version gap.
	if code := do(t, target.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":0,"v":1}]}`, &ar); code != http.StatusOK {
		t.Fatalf("append on new owner: status %d", code)
	}
	if ar.Version != tr.StreamVersion+1 {
		t.Errorf("post-transfer append version %d, want %d", ar.Version, tr.StreamVersion+1)
	}

	// The bystander learns the new map from the background push.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m wire.ClusterMap
		do(t, bystander.srv, "GET", "/v1/cluster", "", &m)
		if m.Version >= 2 {
			if m.Overrides[name] != target.id {
				t.Errorf("bystander map v%d overrides %v, want %s -> %s", m.Version, m.Overrides, name, target.id)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bystander never adopted the pushed map")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Retrying the completed transfer is a no-op success, not a second ship.
	var tr2 wire.TransferResponse
	if code := do(t, owner.srv, "POST", "/v1/cluster/transfer",
		fmt.Sprintf(`{"stream":%q,"target":%q}`, name, target.id), &tr2); code != http.StatusOK {
		t.Fatalf("transfer retry: status %d", code)
	}
	if tr2.ClusterVersion != 2 {
		t.Errorf("retried transfer bumped the map to v%d", tr2.ClusterVersion)
	}

	// GET /v1/streams on each node lists only its own streams, stamped with
	// the node's map version.
	var list wire.StreamsList
	do(t, target.srv, "GET", "/v1/streams", "", &list)
	if list.ClusterVersion != 2 {
		t.Errorf("new owner stream list cluster_version = %d, want 2", list.ClusterVersion)
	}
	found := false
	for _, s := range list.Streams {
		if s == name {
			found = true
		}
	}
	if !found {
		t.Errorf("new owner does not list %q: %v", name, list.Streams)
	}
	do(t, owner.srv, "GET", "/v1/streams", "", &list)
	for _, s := range list.Streams {
		if s == name {
			t.Errorf("old owner still lists %q", name)
		}
	}
}

// TestClusterTransferRebuildsWatchIndex pins the new owner's side of a
// transfer at the engine level: the shipped segments are the whole stream,
// so a watch on the new owner builds its checkpoint index from them — one
// miss, then O(Δ) hits, never a cold replay — and every event equals the
// standalone run over the new owner's copy at WatchSeedAt(seed, v).
func TestClusterTransferRebuildsWatchIndex(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, true)
	const name = "mv"
	owner, rest := ownerAndRest(t, nodes, name)
	target := rest[0]

	if code := do(t, owner.srv, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":60}`, name), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", clusterEdges(60, 200, 7), nil); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	var tr wire.TransferResponse
	if code := do(t, owner.srv, "POST", "/v1/cluster/transfer", transferBody(name, target.id), &tr); code != http.StatusOK {
		t.Fatalf("transfer: status %d", code)
	}

	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 200, 7
	sub, err := target.srv.eng.WatchQuery(context.Background(), name,
		streamcount.CountQuery(p, streamcount.WithTrials(trials), streamcount.WithSeed(seed)),
		streamcount.WatchEveryVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st, ok := target.srv.eng.Lookup(name)
	if !ok {
		t.Fatal("new owner does not serve the shipped stream")
	}
	app := st.(*streamcount.AppendableStream)
	expect := func(want int64) {
		t.Helper()
		var ev streamcount.WatchEvent[streamcount.Outcome]
		select {
		case ev = <-sub.Events():
		case <-time.After(30 * time.Second):
			t.Fatal("no watch event on new owner")
		}
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
		if ev.StreamVersion != want {
			t.Fatalf("event at version %d, want %d", ev.StreamVersion, want)
		}
		view, err := app.At(want)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := streamcount.Run(context.Background(), view, streamcount.CountQuery(p,
			streamcount.WithTrials(trials), streamcount.WithSeed(streamcount.WatchSeedAt(seed, want))))
		if err != nil {
			t.Fatal(err)
		}
		if *ev.Result.Count != *ref {
			t.Errorf("event at version %d: %+v != standalone %+v", want, *ev.Result.Count, *ref)
		}
	}
	expect(tr.StreamVersion)
	if code := do(t, target.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":0,"v":1}]}`, nil); code != http.StatusOK {
		t.Fatalf("append on new owner: status %d", code)
	}
	expect(tr.StreamVersion + 1)
	if got := sub.CheckpointStats(); got != (streamcount.SubscriptionStats{CheckpointHits: 1, CheckpointMisses: 1}) {
		t.Errorf("new owner's watch stats %+v, want one rebuild from the shipped segments then one hit", got)
	}
}

// transferBody builds the transfer request for stream name to the target.
func transferBody(name, target string) string {
	return fmt.Sprintf(`{"stream":%q,"target":%q}`, name, target)
}

func TestClusterTransferSourceFaultKeepsOwnership(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, true)
	const name = "mv"
	owner, rest := ownerAndRest(t, nodes, name)
	target := rest[0]

	if code := do(t, owner.srv, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":60}`, name), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var ar wire.AppendResponse
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", clusterEdges(60, 200, 42), &ar); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}

	// The source's disk dies as the ship starts: sealing fails, the
	// transfer aborts, and ownership must not flip.
	owner.ffs.CrashAfter(0, nil)
	if code, body := rawDo(t, owner.srv, "POST", "/v1/cluster/transfer", transferBody(name, target.id)); code/100 != 5 {
		t.Fatalf("transfer on dead disk: status %d (%s), want 5xx", code, body)
	}
	owner.ffs.Heal()

	// No flip anywhere: both participants still hold map v1, the target
	// has no copy, and the source keeps serving appends gap-free.
	for _, nd := range []*clusterTestNode{owner, target} {
		var m wire.ClusterMap
		do(t, nd.srv, "GET", "/v1/cluster", "", &m)
		if m.Version != 1 {
			t.Errorf("node %s map v%d after aborted transfer, want v1", nd.id, m.Version)
		}
	}
	if _, err := os.Stat(filepath.Join(target.dir, name)); !os.IsNotExist(err) {
		t.Errorf("target holds a partial copy after aborted transfer (stat err %v)", err)
	}
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":0,"v":1}]}`, &ar); code != http.StatusOK {
		t.Fatalf("append after aborted transfer: status %d", code)
	}
	if ar.Version != 201 {
		t.Errorf("append after abort at version %d, want 201 (no gap)", ar.Version)
	}

	// The identical request, retried after the disk heals, completes.
	var tr wire.TransferResponse
	if code := do(t, owner.srv, "POST", "/v1/cluster/transfer", transferBody(name, target.id), &tr); code != http.StatusOK {
		t.Fatalf("transfer retry: status %d", code)
	}
	if tr.StreamVersion != 201 || tr.ClusterVersion != 2 {
		t.Errorf("retried transfer %+v, want stream version 201, cluster version 2", tr)
	}
	var info wire.StreamInfo
	if code := do(t, target.srv, "GET", "/v1/streams/"+name+"/stats", "", &info); code != http.StatusOK {
		t.Fatalf("stats on new owner: status %d", code)
	}
	if info.Version != 201 {
		t.Errorf("new owner at version %d, want 201", info.Version)
	}
}

func TestClusterTransferTargetFaultKeepsSourceAuthoritative(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, true)
	const name = "mv"
	owner, rest := ownerAndRest(t, nodes, name)
	target := rest[0]

	if code := do(t, owner.srv, "POST", "/v1/streams", fmt.Sprintf(`{"name":%q,"n":60}`, name), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var ar wire.AppendResponse
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", clusterEdges(60, 200, 42), &ar); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}

	// The target dies before the commit rename: its accept fails, so the
	// source aborts and keeps ownership — no acknowledged update ever has
	// two owners or none.
	target.ffs.FailRenames(1, nil)
	if code, body := rawDo(t, owner.srv, "POST", "/v1/cluster/transfer", transferBody(name, target.id)); code/100 != 5 {
		t.Fatalf("transfer with dying target: status %d (%s), want 5xx", code, body)
	}
	if _, ok := target.srv.eng.Lookup(name); ok {
		t.Error("target registered the stream despite failing before its commit point")
	}
	var m wire.ClusterMap
	do(t, owner.srv, "GET", "/v1/cluster", "", &m)
	if m.Version != 1 {
		t.Errorf("source adopted map v%d after failed accept, want v1", m.Version)
	}
	if code := do(t, owner.srv, "POST", "/v1/streams/"+name+"/edges", `{"updates":[{"u":0,"v":1}]}`, &ar); code != http.StatusOK {
		t.Fatalf("append after failed accept: status %d", code)
	}
	if ar.Version != 201 {
		t.Errorf("append after failed accept at version %d, want 201 (no gap)", ar.Version)
	}

	// Retry once the target's disk heals: the leftover incoming directory
	// is discarded and the full 201-update prefix commits.
	var tr wire.TransferResponse
	if code := do(t, owner.srv, "POST", "/v1/cluster/transfer", transferBody(name, target.id), &tr); code != http.StatusOK {
		t.Fatalf("transfer retry: status %d", code)
	}
	if tr.StreamVersion != 201 {
		t.Errorf("retried transfer shipped version %d, want 201", tr.StreamVersion)
	}
	code, body := rawDo(t, target.srv, "POST", "/v1/queries",
		fmt.Sprintf(`{"stream":%q,"kind":"count","pattern":"triangle","trials":200,"seed":3}`, name))
	if code != http.StatusOK {
		t.Errorf("query on new owner: status %d: %s", code, body)
	}
}
