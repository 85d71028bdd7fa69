package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamcount"
	"streamcount/internal/cluster"
	"streamcount/internal/stream"
	"streamcount/internal/wire"
)

// clusterMapFile is the persisted cluster map's name under SegmentDir. The
// leading underscore keeps it outside the client-creatable stream
// namespace, and it is a file, so stream recovery (which only considers
// directories) never mistakes it for a stream.
const clusterMapFile = "_cluster-map.json"

// maxTransferBodyBytes bounds POST /v1/cluster/accept bodies — a whole
// segment directory rides in one request, so the general 1 MiB request
// bound does not apply.
const maxTransferBodyBytes = 256 << 20

// transferCRC is the per-file checksum of shipped files (CRC32C, like
// every other checksum in the repo).
var transferCRC = crc32.MakeTable(crc32.Castagnoli)

// newCluster builds the node's cluster state from Options: the
// flag-derived member map, reconciled with any persisted map from a
// previous run (max version wins — a restarted node that shipped streams
// away must not resurrect its version-1 view and believe it still owns
// them).
func newCluster(opts Options) (*cluster.State, error) {
	if opts.ClusterNode == "" {
		return nil, nil
	}
	if len(opts.ClusterPeers) == 0 {
		return nil, fmt.Errorf("server: cluster node %q configured without a peer list", opts.ClusterNode)
	}
	m, err := cluster.New(opts.ClusterPeers, opts.ClusterVNodes)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if path := clusterMapPath(opts.SegmentDir); path != "" {
		persisted, err := cluster.Load(path)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if persisted != nil && persisted.Version > m.Version {
			m = persisted
		}
	}
	st, err := cluster.NewState(opts.ClusterNode, m)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return st, nil
}

func clusterMapPath(segmentDir string) string {
	if segmentDir == "" {
		return ""
	}
	return filepath.Join(segmentDir, clusterMapFile)
}

// adoptMap installs m if it is newer than the current map and persists the
// winner, so the ownership change survives a restart.
func (s *Server) adoptMap(m *cluster.Map) {
	if s.cluster == nil || !s.cluster.Adopt(m) {
		return
	}
	if path := clusterMapPath(s.opts.SegmentDir); path != "" {
		_ = cluster.Save(path, s.cluster.Current()) // best-effort; re-persisted on the next adoption
	}
}

// rejectWrongNode 421s a stream-scoped request this node does not own,
// carrying the owner's identity and address so a routing client can
// refresh its map and retry against the right node without a second round
// trip to discover it.
func (s *Server) rejectWrongNode(w http.ResponseWriter, name string) bool {
	if s.cluster == nil || s.cluster.IsLocal(name) {
		return false
	}
	m := s.cluster.Current()
	owner := m.Owner(name)
	writeJSON(w, http.StatusMisdirectedRequest, wire.Error{
		Error:          fmt.Sprintf("stream %q is owned by node %q (%s)", name, owner.ID, owner.Addr),
		Code:           wire.CodeWrongNode,
		Owner:          owner.ID,
		OwnerAddr:      owner.Addr,
		ClusterVersion: m.Version,
	})
	return true
}

// rejectTransferring 503s requests against a stream this node is mid-way
// through shipping to another node: the log is sealed, so admitting the
// request could only fail or block. The retryable code tells clients to
// back off and retry — by which time the ownership flip (or the abort) has
// resolved where the request belongs.
func (s *Server) rejectTransferring(w http.ResponseWriter, name string) bool {
	s.mu.Lock()
	t := s.transferring[name]
	s.mu.Unlock()
	if !t {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, wire.Error{
		Error: fmt.Sprintf("stream %q is transferring to another node; retry shortly", name),
		Code:  wire.CodeTransferring,
	})
	return true
}

// transferFS is the filesystem transfer-accept writes through — the
// injected Options.FS (fault harnesses) or the real one.
func (s *Server) transferFS() stream.FS {
	if s.opts.FS != nil {
		return s.opts.FS
	}
	return stream.OSFS()
}

// peerURL renders a member address as a base URL. Operators configure
// host:port; in-process tests hand httptest URLs through unchanged.
func peerURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// peerClient is the HTTP client for node-to-node calls (map pushes and
// segment shipping).
var peerClient = &http.Client{Timeout: 2 * time.Minute}

// handleCluster serves GET /v1/cluster: the node's current map, stamped
// with its own identity.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this node is not clustered"))
		return
	}
	m := s.cluster.Current().ToWire()
	m.Self = s.cluster.SelfID()
	writeJSON(w, http.StatusOK, m)
}

// handleClusterMapPush serves POST /v1/cluster/map — the internal
// best-effort push a node sends its peers after an ownership change. The
// response always carries the receiver's (possibly newer) map, so pushes
// double as anti-entropy exchanges.
func (s *Server) handleClusterMapPush(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this node is not clustered"))
		return
	}
	var wm wire.ClusterMap
	if err := decodeBody(w, r, &wm); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wm.Self = ""
	m, err := cluster.FromWire(wm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.adoptMap(m)
	cur := s.cluster.Current().ToWire()
	cur.Self = s.cluster.SelfID()
	writeJSON(w, http.StatusOK, cur)
}

// pushMapToPeers offers the adopted map to every other member,
// best-effort: a peer that misses the push learns the new version from the
// next wrong_node redirect or push that reaches it (max-version-wins makes
// every order converge).
func (s *Server) pushMapToPeers(m *cluster.Map) {
	self := s.cluster.SelfID()
	body, err := json.Marshal(m.ToWire())
	if err != nil {
		return
	}
	for _, n := range m.Nodes {
		if n.ID == self {
			continue
		}
		url := peerURL(n.Addr) + "/v1/cluster/map"
		s.jobs.Add(1)
		go func() {
			defer s.jobs.Done()
			resp, err := peerClient.Post(url, "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
}

// handleTransfer serves POST /v1/cluster/transfer — the source side of a
// rebalance. The state machine:
//
//  1. validate: clustered, owner of the stream, durable stream, target is
//     a member, no transfer already in flight;
//  2. Seal the log — new appends fail retryable, and the directory is a
//     complete byte image of the acknowledged log;
//  3. end the stream's standing watches with a retryable "transferring"
//     terminal event (clients resume with after_version against whichever
//     node owns the stream when they reconnect);
//  4. ship every file of the segment directory (per-file CRC32C on top of
//     the files' own internal checksums) to the target's accept endpoint,
//     which commits them durably, registers the stream, and adopts the
//     proposed map (version+1, override to the target);
//  5. adopt the map the target confirmed — from here this node answers
//     wrong_node for the stream — then unregister and delete local state,
//     and push the map to the remaining peers.
//
// Any failure before 5 unseals the log and keeps ownership here: clients
// never observe a gap, and the identical transfer request can be retried.
func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this node is not clustered"))
		return
	}
	if s.rejectDraining(w) || s.rejectRecovering(w) {
		return
	}
	var req wire.TransferRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !validStreamName(req.Stream) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid stream name %q", req.Stream))
		return
	}
	m := s.cluster.Current()
	target, ok := m.Node(req.Target)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown target node %q", req.Target))
		return
	}
	if owner := m.Owner(req.Stream); owner.ID == req.Target {
		// Already owned by the target: a duplicate of a completed transfer
		// (the retry path after a lost response) or a no-op request. Both
		// are successes — the requested state holds.
		var version int64
		if req.Target == s.cluster.SelfID() {
			version, _ = s.eng.StreamVersion(req.Stream)
		}
		writeJSON(w, http.StatusOK, wire.TransferResponse{
			Stream: req.Stream, Target: req.Target,
			StreamVersion: version, ClusterVersion: m.Version,
		})
		return
	}
	if s.rejectWrongNode(w, req.Stream) {
		return // only the owner can ship the stream
	}
	st, ok := s.eng.Lookup(req.Stream)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("stream %q: %w", req.Stream, streamcount.ErrUnknownStream))
		return
	}
	app, ok := st.(*streamcount.AppendableStream)
	if !ok || app.Dir() == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("stream %q is not durable; only segment-backed streams can transfer", req.Stream))
		return
	}

	s.mu.Lock()
	if s.transferring[req.Stream] {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, wire.Error{
			Error: fmt.Sprintf("stream %q is already transferring", req.Stream),
			Code:  wire.CodeTransferring,
		})
		return
	}
	s.transferring[req.Stream] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.transferring, req.Stream)
		s.mu.Unlock()
	}()

	if err := app.Seal(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("sealing stream %q: %w", req.Stream, err))
		return
	}
	abort := func(code int, err error) {
		app.Unseal()
		writeError(w, code, err)
	}
	s.endStreamWatches(req.Stream, wire.CodeTransferring)

	version := app.Version()
	files, err := readSegmentDir(app)
	if err != nil {
		abort(http.StatusInternalServerError, fmt.Errorf("reading segment directory of %q: %w", req.Stream, err))
		return
	}
	proposed, err := m.WithOverride(req.Stream, req.Target)
	if err != nil {
		abort(http.StatusInternalServerError, err)
		return
	}
	acc, err := postAccept(target, wire.TransferPayload{
		Stream: req.Stream, Map: proposed.ToWire(), Files: files,
	})
	if err != nil {
		abort(http.StatusBadGateway, fmt.Errorf("shipping stream %q to node %q: %w", req.Stream, req.Target, err))
		return
	}
	if acc.StreamVersion != version {
		// The target committed a different prefix than was sealed here —
		// this cannot happen with intact files, so treat it as a failed
		// ship and keep serving the authoritative copy.
		abort(http.StatusBadGateway, fmt.Errorf("target recovered version %d of stream %q, sealed version is %d", acc.StreamVersion, req.Stream, version))
		return
	}
	adopted, err := cluster.FromWire(acc.Map)
	if err != nil {
		abort(http.StatusBadGateway, fmt.Errorf("target returned an invalid map: %w", err))
		return
	}

	// Commit: the target owns the stream. Adopt the new map FIRST so
	// requests racing the teardown get wrong_node (routable) rather than
	// unknown_stream.
	s.adoptMap(adopted)
	_ = s.eng.UnregisterStream(req.Stream)
	_ = app.Close()
	_ = os.RemoveAll(app.Dir())
	s.pushMapToPeers(adopted)

	writeJSON(w, http.StatusOK, wire.TransferResponse{
		Stream: req.Stream, Target: req.Target,
		StreamVersion: version, ClusterVersion: adopted.Version,
	})
}

// readSegmentDir snapshots every file of a sealed stream's segment
// directory through the stream's own FS (so fault harnesses can fail the
// reads), with a CRC32C per file. Temp files are skipped.
func readSegmentDir(app *streamcount.AppendableStream) ([]wire.TransferFile, error) {
	dir := app.Dir()
	fsys := app.Filesystem()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []wire.TransferFile
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		size, err := fsys.Size(path)
		if err != nil {
			return nil, err
		}
		fh, err := fsys.OpenFile(path, os.O_RDONLY)
		if err != nil {
			return nil, err
		}
		data := make([]byte, size)
		_, rerr := io.ReadFull(fh, data)
		cerr := fh.Close()
		if err := errors.Join(rerr, cerr); err != nil {
			return nil, fmt.Errorf("reading %s: %w", name, err)
		}
		files = append(files, wire.TransferFile{
			Name: name, Data: data, CRC: crc32.Checksum(data, transferCRC),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// postAccept ships the payload to the target node's accept endpoint.
func postAccept(target wire.ClusterNode, payload wire.TransferPayload) (*wire.TransferAccepted, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	resp, err := peerClient.Post(peerURL(target.Addr)+"/v1/cluster/accept", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var we wire.Error
		if json.Unmarshal(data, &we) == nil && we.Error != "" {
			return nil, fmt.Errorf("node %q: %s", target.ID, we.Error)
		}
		return nil, fmt.Errorf("node %q: accept returned status %d", target.ID, resp.StatusCode)
	}
	var acc wire.TransferAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		return nil, fmt.Errorf("node %q: bad accept response: %w", target.ID, err)
	}
	return &acc, nil
}

// handleTransferAccept serves POST /v1/cluster/accept — the target side of
// a rebalance. The shipped files are verified (per-file CRC32C), written
// to a temporary "{stream}.incoming" directory, validated by opening them
// as a durable stream (manifest, segment and receipt checksums all
// checked), and only then renamed into place, registered, and the proposed
// map adopted — the rename is the commit point. A crash or injected fault
// anywhere before it leaves the source as the owner with its copy intact:
// no acknowledged update has two owners or none at any point.
func (s *Server) handleTransferAccept(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this node is not clustered"))
		return
	}
	if s.rejectDraining(w) || s.rejectRecovering(w) {
		return
	}
	var payload wire.TransferPayload
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTransferBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&payload); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad transfer payload: %w", err))
		return
	}
	if !validStreamName(payload.Stream) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid stream name %q", payload.Stream))
		return
	}
	payload.Map.Self = ""
	proposed, err := cluster.FromWire(payload.Map)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid proposed map: %w", err))
		return
	}
	if proposed.Owner(payload.Stream).ID != s.cluster.SelfID() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("proposed map assigns stream %q to node %q, not to this node %q",
			payload.Stream, proposed.Owner(payload.Stream).ID, s.cluster.SelfID()))
		return
	}
	if s.opts.SegmentDir == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("this node has no segment directory and cannot accept transfers"))
		return
	}

	// Idempotency: a retried accept whose original succeeded (response lost
	// mid-flight) finds the stream registered — re-acknowledge with the
	// current state instead of re-ingesting.
	if st, ok := s.eng.Lookup(payload.Stream); ok {
		app, isApp := st.(*streamcount.AppendableStream)
		if !isApp {
			writeError(w, http.StatusConflict, fmt.Errorf("stream %q already exists here and is not a transfer", payload.Stream))
			return
		}
		s.adoptMap(proposed)
		cur := s.cluster.Current().ToWire()
		writeJSON(w, http.StatusOK, wire.TransferAccepted{
			Stream: payload.Stream, StreamVersion: app.Version(), Map: cur,
		})
		return
	}

	final := segmentDir(s.opts.SegmentDir, payload.Stream)
	incoming := final + ".incoming"
	fsys := s.transferFS()
	// Clear leftovers of any earlier failed attempt: the source still owns
	// the authoritative bytes, so anything here is discardable.
	_ = os.RemoveAll(incoming)
	_ = os.RemoveAll(final)
	if err := fsys.MkdirAll(incoming); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating incoming directory: %w", err))
		return
	}
	fail := func(err error) {
		_ = os.RemoveAll(incoming)
		writeError(w, http.StatusInternalServerError, err)
	}
	for _, f := range payload.Files {
		if f.Name != filepath.Base(f.Name) || strings.HasPrefix(f.Name, ".") {
			fail(fmt.Errorf("shipped file name %q is not a plain file name", f.Name))
			return
		}
		if got := crc32.Checksum(f.Data, transferCRC); got != f.CRC {
			fail(fmt.Errorf("shipped file %s: checksum %08x does not match %08x", f.Name, got, f.CRC))
			return
		}
		fh, err := fsys.OpenFile(filepath.Join(incoming, f.Name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
		if err != nil {
			fail(fmt.Errorf("writing %s: %w", f.Name, err))
			return
		}
		_, werr := fh.Write(f.Data)
		serr := fh.Sync()
		cerr := fh.Close()
		if err := errors.Join(werr, serr, cerr); err != nil {
			fail(fmt.Errorf("writing %s: %w", f.Name, err))
			return
		}
	}
	// Validate before committing anything: the directory must recover as a
	// well-formed durable stream, checksums and all.
	st, err := streamcount.OpenAppendableStream(incoming, streamcount.AppendableOptions{Sync: s.opts.Sync, FS: s.opts.FS})
	if err != nil {
		fail(fmt.Errorf("shipped stream %q failed validation: %w", payload.Stream, err))
		return
	}
	version := st.Version()
	if err := st.Close(); err != nil {
		fail(fmt.Errorf("closing validated stream: %w", err))
		return
	}
	// Commit point: from here the stream exists on this node.
	if err := fsys.Rename(incoming, final); err != nil {
		fail(fmt.Errorf("committing stream directory: %w", err))
		return
	}
	st, err = streamcount.OpenAppendableStream(final, streamcount.AppendableOptions{Sync: s.opts.Sync, FS: s.opts.FS})
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reopening committed stream: %w", err))
		return
	}
	s.createMu.Lock()
	if _, dup := s.eng.Lookup(payload.Stream); dup {
		s.createMu.Unlock()
		_ = st.Close()
		writeError(w, http.StatusConflict, fmt.Errorf("stream %q was registered concurrently", payload.Stream))
		return
	}
	if err := s.eng.RegisterStream(payload.Stream, st); err != nil {
		s.createMu.Unlock()
		_ = st.Close()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.seedReceipts(payload.Stream, st)
	s.createMu.Unlock()

	s.adoptMap(proposed)
	cur := s.cluster.Current().ToWire()
	writeJSON(w, http.StatusOK, wire.TransferAccepted{
		Stream: payload.Stream, StreamVersion: version, Map: cur,
	})
}
