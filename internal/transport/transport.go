// Package transport exposes a running replicated cluster as a network
// service: a TCP server speaking a line-delimited JSON protocol (one request
// object per line, one response object per line), plus the matching client.
//
// One Server fronts either replication protocol — MARP's pessimistic
// locking agents (internal/core) or the optimistic commitment protocol
// (internal/optimistic) — on either engine: in sim mode it owns a whole
// cluster on the deterministic simulator, paced against the wall clock by
// internal/realtime; in live mode it fronts this process's one replica,
// whose agents migrate to sibling processes over TCP (internal/runtime/live).
// The transport carries client traffic only. Each protocol plugs in as a
// backend that supplies what differs (submit semantics, reads, outcome
// counts, the log that converges across replicas); the op vocabulary,
// scenario snapshots, stats and health are written once here.
//
// Wire protocol (JSON per line):
//
//	-> {"op":"submit","home":1,"key":"k","value":"v","append":false}
//	<- {"ok":true}                        (optimistic: {"ok":true,"txn":"..."})
//	-> {"op":"read","node":2,"key":"k"}   (optimistic: "tentative":true reads the overlay)
//	<- {"ok":true,"value":"v","seq":3,"found":true}
//	-> {"op":"stats"}
//	<- {"ok":true,"stats":{...}}
//	-> {"op":"crash","node":3} / {"op":"recover","node":3}
//	<- {"ok":true}
//	-> {"op":"partition","groups":[[1,2],[3]]} / {"op":"heal"}
//	<- {"ok":true}
//	-> {"op":"digest","node":2}
//	<- {"ok":true,"kind":"commit-set","stable":{...}}   (optimistic: also "tentative")
//	-> {"op":"referee"}
//	<- {"ok":true,"kind":"grants","wins":7}
//	-> {"op":"scenario"}
//	<- {"ok":true,"scenario":{...}}
//
// Request fields a protocol does not implement (a CAS guard or a tentative
// read on MARP, an append on optimistic) are refused, never ignored.
// partition/heal drive the process's own fabric only — a live cluster is
// split by sending the same partition to every process (marpctl fans out).
// scenario reports the cluster shape plus the per-key digests that seed an
// incident bundle's footer (marpctl snapshot-scenario).
package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	marp "repro"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/desengine"
	"repro/internal/metrics"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/scenario"
	"repro/internal/store"
)

// GatherMetrics samples the cluster's metric registry on the engine's
// execution context — the scrape path behind the ops listener's /metrics.
// The registry's read-through collectors touch engine-owned state, so the
// marshalling here is what makes concurrent scrapes race-free.
func (s *Server) GatherMetrics() (metrics.Snapshot, *metrics.Registry, error) {
	var snap metrics.Snapshot
	reg := s.b.Metrics()
	if err := s.exec(func() { snap = reg.Gather() }); err != nil {
		return nil, nil, err
	}
	return snap, reg, nil
}

// Health computes the cluster's health summary on the engine's execution
// context — the /healthz body.
func (s *Server) Health() (core.Health, error) {
	var h core.Health
	err := s.exec(func() { h = s.b.Health() })
	return h, err
}

// Request is one client command.
type Request struct {
	Op     string `json:"op"`
	Home   int    `json:"home,omitempty"`
	Node   int    `json:"node,omitempty"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
	Append bool   `json:"append,omitempty"`
	// Groups carries a partition op's node groups (unlisted nodes form
	// group 0).
	Groups [][]int `json:"groups,omitempty"`
	// Tentative asks an optimistic read for the overlay's last writer
	// instead of the stable value.
	Tentative bool `json:"tentative,omitempty"`
	// Guard attaches a CAS guard to an optimistic submit (see
	// optimistic.SubmitCAS).
	Guard string `json:"guard,omitempty"`
}

// StatsBody is the payload of a stats response.
type StatsBody struct {
	Servers     int   `json:"servers"`
	Outstanding int   `json:"outstanding"`
	Committed   int   `json:"committed"`
	Failed      int   `json:"failed"`
	Messages    int   `json:"messages"`
	Bytes       int   `json:"bytes"`
	Migrations  int   `json:"migrations"`
	VirtualMs   int64 `json:"virtual_ms"`
}

// ShardDigest is one shard's slice of a digest response: the shard's own
// order-independent digest of its converging log plus, on MARP, the
// per-shard ALT/ATT/PRK aggregation of the outcomes recorded at the
// addressed process (internal/metrics.ShardSummary, flattened for the
// wire).
type ShardDigest struct {
	Shard      int     `json:"shard"`
	Digest     string  `json:"digest"`
	Commits    int     `json:"commits"`
	Requests   int     `json:"requests"`
	MeanALTMs  float64 `json:"mean_alt_ms"`
	MeanATTMs  float64 `json:"mean_att_ms"`
	MeanVisits float64 `json:"mean_visits"`
}

// ScenarioBody is the payload of a scenario response: the cluster shape a
// bundle header records, plus the snapshot state a bundle footer records —
// per-key digests of the converging log (scenario.KeyDigests) and request
// counts. Commits and Failed count client requests (not agents), summed
// over the outcomes the addressed process recorded, so the numbers add
// across processes and are batching-independent.
type ScenarioBody struct {
	Servers       int    `json:"servers"`
	Shards        int    `json:"shards"`
	Geometry      string `json:"geometry"`
	Fsync         string `json:"fsync,omitempty"`
	CommitDelayUS int64  `json:"commit_delay_us,omitempty"`
	Outstanding   int    `json:"outstanding"`
	Commits       int    `json:"commits"`
	Failed        int    `json:"failed"`
	// DigestKind names what Keys digests: DigestKindCommitSet (MARP) or
	// DigestKindStablePrefix (optimistic; tentative state is deliberately
	// excluded — it legitimately diverges). Consumers that compare Keys
	// across processes must compare kinds first.
	DigestKind string            `json:"digest_kind,omitempty"`
	Keys       map[string]string `json:"keys"`
}

// Digest and referee kinds. A digest is only comparable to another of the
// same kind: a MARP commit-set digest and an optimistic stable-prefix
// digest of the same workload differ by construction. A MARP referee
// audits lock grants; an optimistic one audits stable-prefix agreement
// across the replicas the process hosts.
const (
	DigestKindCommitSet    = "commit-set"
	DigestKindStablePrefix = "stable-prefix"
	RefereeKindGrants      = "grants"
)

// TierDigest is one tier of a replica's state in a digest response: the
// tier's whole digest, its entry count, and the per-key digests
// (scenario.KeyDigests).
type TierDigest struct {
	Digest  string            `json:"digest"`
	Entries int               `json:"entries"`
	Keys    map[string]string `json:"keys,omitempty"`
}

// Response is one server reply.
type Response struct {
	OK         bool          `json:"ok"`
	Error      string        `json:"error,omitempty"`
	Found      bool          `json:"found,omitempty"`
	Value      string        `json:"value,omitempty"`
	Seq        uint64        `json:"seq,omitempty"`
	Stats      *StatsBody    `json:"stats,omitempty"`
	Wins       int           `json:"wins,omitempty"`
	Violations int           `json:"violations,omitempty"`
	Shards     []ShardDigest `json:"shards,omitempty"`
	// QueueDrops counts messages the live fabric dropped because a
	// per-peer writer queue was full (digest responses; health signal for
	// a digest mismatch investigation).
	QueueDrops int           `json:"queue_drops,omitempty"`
	Scenario   *ScenarioBody `json:"scenario,omitempty"`
	// Txn is an optimistic submit's assigned transaction ID.
	Txn string `json:"txn,omitempty"`
	// Kind labels what a digest or referee response reports — see the
	// kind constants.
	Kind string `json:"kind,omitempty"`
	// Stable is a digest response's converging tier: the commit set on
	// MARP (commits are final) or the stable prefix on optimistic.
	// Tentative is the optimistic overlay, which legitimately diverges.
	Stable    *TierDigest `json:"stable,omitempty"`
	Tentative *TierDigest `json:"tentative,omitempty"`
}

// Server serves a replicated cluster over TCP. The same server fronts
// either protocol on either engine: in sim mode it owns a whole simulated
// cluster paced against the wall clock; in live mode it fronts this
// process's single replica, with the rest of the cluster in sibling
// processes.
type Server struct {
	b        backend
	exec     func(func()) error // runs fn on the engine's execution context
	teardown func()
	listener net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	rec   *scenario.Recorder
	done  chan struct{}
}

// SetRecorder attaches an incident recorder: every accepted submit is
// appended to it as a scenario event (`marpd -record`). Faults are NOT
// recorded here — the injector records them (marpctl -record), exactly
// once for the whole cluster, which also covers faults no process could
// log for itself (kill -9).
func (s *Server) SetRecorder(rec *scenario.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
}

func (s *Server) recorder() *scenario.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Serve starts a simulated MARP cluster service on addr (e.g.
// "127.0.0.1:7707"; use port 0 for an ephemeral port). speed scales
// virtual time against the wall clock.
func Serve(addr string, opts marp.Options, speed float64) (*Server, error) {
	cluster, err := marp.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	inner := cluster.Internal()
	return serveSim(addr, marpBackend{inner.Cluster}, inner.Sim(), speed)
}

// ServeOptimistic starts a simulated optimistic cluster service on addr,
// paced against the wall clock at speed.
func ServeOptimistic(addr string, cfg desengine.OptConfig, speed float64) (*Server, error) {
	cl, err := desengine.NewOptimistic(cfg)
	if err != nil {
		return nil, err
	}
	return serveSim(addr, optBackend{cl.Cluster}, cl.Sim(), speed)
}

// ServeLive starts one live MARP replica process on addr: the protocol runs
// on the wall clock and exchanges replica-to-replica traffic — mobile
// agents included — with its peers over TCP (cfg.Addrs).
func ServeLive(addr string, cfg live.NodeConfig) (*Server, error) {
	node, err := live.StartNode(cfg)
	if err != nil {
		return nil, err
	}
	return serveLive(addr, marpBackend{node.Cluster}, node.Eng, node.Close)
}

// ServeLiveOptimistic starts one live optimistic replica process on addr:
// tentative commits happen at local latency, and reconciliation agents
// migrate between the processes over TCP (cfg.Addrs).
func ServeLiveOptimistic(addr string, cfg live.OptNodeConfig) (*Server, error) {
	node, err := live.StartOptNode(cfg)
	if err != nil {
		return nil, err
	}
	return serveLive(addr, optBackend{node.Cluster}, node.Eng, node.Close)
}

// serveSim paces a simulated cluster against the wall clock and serves it.
func serveSim(addr string, b backend, sim *des.Simulator, speed float64) (*Server, error) {
	driver := realtime.NewDriver(sim, speed)
	s, err := serve(addr, b, driver.Do, driver.Stop)
	if err != nil {
		return nil, err
	}
	driver.Start()
	return s, nil
}

// serveLive serves a live node, closing it if the listener cannot start.
func serveLive(addr string, b backend, eng *live.Engine, closeNode func()) (*Server, error) {
	exec := func(fn func()) error {
		if !eng.Do(fn) {
			return realtime.ErrStopped
		}
		return nil
	}
	s, err := serve(addr, b, exec, closeNode)
	if err != nil {
		closeNode()
		return nil, err
	}
	return s, nil
}

// serve wires the listener over an already running cluster.
func serve(addr string, b backend, exec func(func()) error, teardown func()) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		b:        b,
		exec:     exec,
		teardown: teardown,
		listener: ln,
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes live connections, and stops the driver.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
		close(s.done)
	}
	s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.teardown()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.handle(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handle executes one request on the engine's execution context.
func (s *Server) handle(req Request) Response {
	var resp Response
	err := s.exec(func() {
		resp = s.apply(req)
	})
	if err != nil {
		return Response{Error: err.Error()}
	}
	return resp
}

// reply turns a backend error into an error response.
func reply(err error) Response {
	if err != nil {
		return Response{Error: err.Error()}
	}
	return Response{OK: true}
}

func (s *Server) apply(req Request) Response {
	switch req.Op {
	case "submit":
		txn, err := s.b.submit(req)
		if err != nil {
			return reply(err)
		}
		if rec := s.recorder(); rec != nil {
			_ = rec.Record(scenario.Event{
				Kind: scenario.KindSubmit, Home: req.Home,
				Key: req.Key, Value: req.Value, Append: req.Append,
			})
		}
		return Response{OK: true, Txn: txn}
	case "read":
		v, ok, err := s.b.read(req)
		if err != nil {
			return reply(err)
		}
		return Response{OK: true, Found: ok, Value: v.Data, Seq: v.Version.Seq}
	case "crash":
		return reply(s.b.crash(runtime.NodeID(req.Node)))
	case "recover":
		return reply(s.b.recover(runtime.NodeID(req.Node)))
	case "partition":
		groups := make([][]runtime.NodeID, len(req.Groups))
		for i, g := range req.Groups {
			groups[i] = make([]runtime.NodeID, len(g))
			for j, id := range g {
				groups[i][j] = runtime.NodeID(id)
			}
		}
		s.b.PartitionNet(groups...)
		return reply(nil)
	case "heal":
		s.b.HealNet()
		return reply(nil)
	case "digest":
		return s.digest(runtime.NodeID(req.Node))
	case "referee":
		return s.b.referee()
	case "stats":
		t := s.b.tally()
		reg := s.b.Metrics()
		return Response{OK: true, Stats: &StatsBody{
			Servers:     s.b.shape().Servers,
			Outstanding: t.outstanding,
			Committed:   t.committed,
			Failed:      t.failed,
			Messages:    int(reg.Value("marp.fabric.messages_sent")),
			Bytes:       int(reg.Value("marp.fabric.bytes_sent")),
			Migrations:  int(reg.Value(s.b.migrationsMetric())),
			VirtualMs:   s.b.Now().Duration().Milliseconds(),
		}}
	case "scenario":
		return s.scenarioBody()
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// logs returns a hosted replica's converging log, per shard and whole.
func (s *Server) logs(id runtime.NodeID) (shards [][]store.Update, all []store.Update, err error) {
	shards = make([][]store.Update, s.b.shape().Shards)
	for sh := range shards {
		if shards[sh], err = s.b.log(id, sh); err != nil {
			return nil, nil, err
		}
		all = append(all, shards[sh]...)
	}
	return shards, all, nil
}

// digest builds the kind-tagged digest response for one hosted replica:
// the converging tier (plus the optimistic tentative tier) and, on a
// sharded deployment, one row per shard.
func (s *Server) digest(id runtime.NodeID) Response {
	logs, all, err := s.logs(id)
	if err != nil {
		return reply(err)
	}
	whole, tentative, err := s.b.tiers(id, all)
	if err != nil {
		return reply(err)
	}
	resp := Response{
		OK:        true,
		Kind:      s.b.shape().DigestKind,
		Stable:    &TierDigest{Digest: whole, Entries: len(all), Keys: scenario.KeyDigests(all)},
		Tentative: tentative,
		// The queue-drop count reads through the registry's stable name —
		// the same number a /metrics scrape exports.
		QueueDrops: int(s.b.Metrics().Value("marp.fabric.queue_drops")),
	}
	if len(logs) > 1 {
		resp.Shards = shardDigests(logs, s.b.shardSummaries())
	}
	return resp
}

// shardDigests builds the per-shard digest rows: each shard's
// order-independent digest plus its latency aggregation, if any.
func shardDigests(logs [][]store.Update, sums map[int]metrics.ShardSummary) []ShardDigest {
	out := make([]ShardDigest, len(logs))
	for sh, log := range logs {
		d, n := digestLog(log)
		row := ShardDigest{Shard: sh, Digest: d, Commits: n}
		if ss, ok := sums[sh]; ok {
			row.Requests = ss.Count
			row.MeanALTMs = float64(ss.MeanALT) / float64(time.Millisecond)
			row.MeanATTMs = float64(ss.MeanATT) / float64(time.Millisecond)
			visits, cnt := 0, 0
			for k, c := range ss.VisitDist {
				visits += k * c
				cnt += c
			}
			if cnt > 0 {
				row.MeanVisits = float64(visits) / float64(cnt)
			}
		}
		out[sh] = row
	}
	return out
}

// scenarioBody snapshots what an incident bundle needs from this process:
// the cluster shape for the header, and the per-key digests of the
// converging log plus request counts for the footer. Every up replica this
// process hosts must already agree on the digests (in sim mode that is all
// N replicas; live mode hosts one) — disagreement means the cluster has
// not converged and the snapshot is refused.
func (s *Server) scenarioBody() Response {
	body := s.b.shape()
	t := s.b.tally()
	body.Outstanding, body.Commits, body.Failed = t.outstanding, t.committedRequests, t.failedRequests
	var refNode runtime.NodeID
	for _, id := range s.b.up() {
		_, all, err := s.logs(id)
		if err != nil {
			return reply(err)
		}
		keys := scenario.KeyDigests(all)
		if body.Keys == nil {
			body.Keys, refNode = keys, id
			continue
		}
		if diffs := scenario.DiffDigests(body.Keys, keys); len(diffs) > 0 {
			return Response{Error: fmt.Sprintf(
				"replicas %d and %d disagree on the %s (%s); not converged, snapshot refused",
				refNode, id, body.DigestKind, diffs[0])}
		}
	}
	if body.Keys == nil {
		return Response{Error: "no live replica hosted here"}
	}
	return Response{OK: true, Scenario: body}
}

// Client is a TCP client for a transport.Server.
type Client struct {
	conn    net.Conn
	dec     *json.Decoder
	enc     *json.Encoder
	mu      sync.Mutex
	timeout time.Duration
}

// Dial connects to a MARP service.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetRequestTimeout bounds every subsequent request/response exchange with a
// connection deadline; zero (the default) leaves requests unbounded. A
// request that misses the deadline fails with a net timeout error and leaves
// the stream in an undefined position, so callers should redial after one.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// roundTrip sends one request and reads one response. Clients may be used
// from multiple goroutines.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return Response{}, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("transport: %s", resp.Error)
	}
	return resp, nil
}

// Submit sends an update request to the given home server.
func (c *Client) Submit(home int, key, value string, appendOp bool) error {
	_, err := c.roundTrip(Request{Op: "submit", Home: home, Key: key, Value: value, Append: appendOp})
	return err
}

// SubmitCAS submits a write with an optional CAS guard and returns the
// transaction ID an optimistic service assigned (empty from MARP, which
// refuses a non-empty guard; guard semantics: optimistic.SubmitCAS).
func (c *Client) SubmitCAS(home int, key, value, guard string) (string, error) {
	resp, err := c.roundTrip(Request{Op: "submit", Home: home, Key: key, Value: value, Guard: guard})
	if err != nil {
		return "", err
	}
	return resp.Txn, nil
}

// Read reads a key from a replica's local copy.
func (c *Client) Read(node int, key string) (value string, seq uint64, found bool, err error) {
	resp, err := c.roundTrip(Request{Op: "read", Node: node, Key: key})
	if err != nil {
		return "", 0, false, err
	}
	return resp.Value, resp.Seq, resp.Found, nil
}

// ReadTentative reads a key's tentative (overlay last-writer) value at an
// optimistic replica.
func (c *Client) ReadTentative(node int, key string) (value string, found bool, err error) {
	resp, err := c.roundTrip(Request{Op: "read", Node: node, Key: key, Tentative: true})
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}

// Crash fail-stops a server.
func (c *Client) Crash(node int) error {
	_, err := c.roundTrip(Request{Op: "crash", Node: node})
	return err
}

// Recover restarts a crashed server.
func (c *Client) Recover(node int) error {
	_, err := c.roundTrip(Request{Op: "recover", Node: node})
	return err
}

// Partition splits the addressed process's fabric into the given node
// groups. Live clusters need the same call at every process; the sim
// server's one simulated network is split by this single call.
func (c *Client) Partition(groups [][]int) error {
	_, err := c.roundTrip(Request{Op: "partition", Groups: groups})
	return err
}

// Heal removes all partitions at the addressed process and triggers an
// anti-entropy round on its local replicas.
func (c *Client) Heal() error {
	_, err := c.roundTrip(Request{Op: "heal"})
	return err
}

// Scenario fetches the process's incident-bundle snapshot: cluster shape,
// per-key commit digests, and request counts.
func (c *Client) Scenario() (*ScenarioBody, error) {
	resp, err := c.roundTrip(Request{Op: "scenario"})
	if err != nil {
		return nil, err
	}
	if resp.Scenario == nil {
		return nil, fmt.Errorf("transport: empty scenario body")
	}
	return resp.Scenario, nil
}

// Stats fetches service counters.
func (c *Client) Stats() (StatsBody, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return StatsBody{}, err
	}
	if resp.Stats == nil {
		return StatsBody{}, fmt.Errorf("transport: empty stats")
	}
	return *resp.Stats, nil
}

// Digest fetches the kind-tagged digest of a replica (live mode: the one
// replica the addressed process hosts): Kind, the converging tier, the
// optimistic tentative tier, per-shard rows on a sharded deployment, and
// the process's fabric queue-drop count — a non-zero count is the first
// thing to check when two replicas' digests disagree. Callers comparing
// digests across processes must compare Kind first.
func (c *Client) Digest(node int) (Response, error) {
	return c.roundTrip(Request{Op: "digest", Node: node})
}

// Referee fetches the process-local, kind-tagged referee verdict.
func (c *Client) Referee() (Response, error) {
	return c.roundTrip(Request{Op: "referee"})
}

// digestLog folds a replica's committed-update log into an order-independent
// digest of the commit set: entries are sorted by (key, txn, data) and the
// engine-dependent fields (local commit sequence, wall stamp) are excluded.
// Two replicas — or the same workload on two engines — that committed the
// same writes produce the same digest even when commit order differed, which
// MARP permits for independent keys (agents for disjoint keys serialize per
// key, not globally).
func digestLog(log []store.Update) (string, int) {
	entries := make([]string, len(log))
	for i, u := range log {
		entries[i] = u.Key + "\x00" + u.TxnID + "\x00" + u.Data
	}
	sort.Strings(entries)
	h := fnv.New64a()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64()), len(entries)
}
