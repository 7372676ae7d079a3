package replica

import (
	"errors"
	"sort"

	"repro/internal/agent"
	"repro/internal/durable"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config carries per-server options.
type Config struct {
	// Shards is the number of key-space shards (default 1). Every shard
	// has its own Locking List, store, and exclusive grant on this
	// server; keys map to shards by hash (internal/shard).
	Shards int
	// Groups lists the replica group of every shard (ascending node
	// order). nil means every replica serves every shard — full
	// replication, the pre-sharding behavior.
	Groups [][]runtime.NodeID
	// Quorums optionally overrides the read-quorum geometry per shard
	// for consistent reads. nil keeps the legacy node-count majority
	// over the shard's group.
	Quorums []quorum.Assignment
	// DisableInfoSharing turns off the paper's locking-information
	// exchange: servers neither cache nor hand out remote LL snapshots
	// (ablation A1 in DESIGN.md).
	DisableInfoSharing bool
	// GrantObserver, if non-nil, is invoked whenever one of the server's
	// per-shard grants changes (installed, released, aborted, or
	// evicted). The core package's Referee uses it to check Theorem 2 on
	// every run; a zero txn means the grant was released.
	GrantObserver func(server runtime.NodeID, shrd int, txn agent.ID)
	// Intercept, if non-nil, sees every server-bound message before the
	// Algorithm 2 handlers; returning true consumes it. The cluster layer
	// uses it for cross-process notifications (e.g. an agent reporting its
	// outcome back to its home node) that are not part of the replica
	// protocol itself.
	Intercept func(msg runtime.Message) bool
	// Trace, if non-nil, receives server events.
	Trace *trace.Log
	// Journal, if non-nil, makes the server durable: every store and
	// locking-state mutation is logged through it after succeeding.
	Journal *durable.Journal
	// Restore, if non-nil, is the state recovered from Journal's log; the
	// server rebuilds itself from it before attaching the journal (pass a
	// nil store to New in that case — Restore supplies it). It must come
	// from a journal opened with this server's shard count, so it holds a
	// store and a lock state for every shard.
	Restore *durable.State
}

// shardState is one shard's locking domain on this server: its slice of the
// data, its Locking List, and its exclusive grant. Commits on one shard
// never block, reorder with, or share volatile state with commits on
// another (the shard-isolation invariant).
type shardState struct {
	st           *store.Store
	llVersion    uint64
	headVersion  uint64
	ll           []agent.ID
	cache        map[runtime.NodeID]QueueSnapshot
	grant        agent.ID
	grantAttempt int
	backlog      map[uint64]store.Update
	member       bool             // this server is in the shard's replica group
	peers        []runtime.NodeID // other group members
}

// Server is one replicated server: data copy, per-shard Locking Lists,
// Updated List, routing table, and the message handlers of the paper's
// Algorithm 2.
//
// A Server is driven entirely from its engine's execution context (network
// deliveries, local calls from co-located agents), so it needs no locking.
type Server struct {
	id       runtime.NodeID
	peers    []runtime.NodeID // all other replicas
	net      runtime.Fabric
	clock    runtime.Clock
	platform *agent.Platform
	place    *agent.Place
	cfg      Config
	journal  *durable.Journal // nil = volatile server (the default)

	// Per-shard locking state. Version counters deliberately survive
	// crashes (see Crash): monotone versions make stale-evidence checks
	// sound across recoveries without a persisted epoch.
	shards []*shardState

	// Global volatile state: the epoch and the Updated List span shards
	// (an agent is "gone" everywhere once it committed or died).
	epoch    uint64
	gone     map[agent.ID]bool
	goneList []agent.ID
	down     bool

	// Pending quorum reads coordinated by this server.
	readSeq uint64
	reads   map[uint64]*quorumRead

	// costs caches the per-peer link costs handed out in every LockInfo —
	// topology is static, so the map is built once and shared read-only.
	costs map[runtime.NodeID]float64

	// scoped enables shard-scoped LLChanged events. Only set over a
	// wire-delivery fabric (the live deployment): the global wakeup also let
	// agents on unrelated shards observe silent (non-head) queue mutations,
	// and the simulator's figures depend on that exact schedule, so the DES
	// engine keeps raising unscoped events bit-for-bit as before.
	//
	// This is a behaviour switch with a measured cost, not a compatibility
	// shim: scoping the DES engine too leaves F2-F4/C1/T3 byte-identical but
	// cuts the full A8 simulator table, majority 1220 -> 864 commits/s at 4
	// shards and 2938 -> 2403 at 16, grid 2725 -> 2113 at 16 (DESIGN.md
	// §11). The likely cause is non-head Locking List enqueues that raise no
	// scoped notification.
	scoped bool
}

// quorumRead tracks one in-flight consistent read.
type quorumRead struct {
	key        string
	replies    map[runtime.NodeID]ReadRep
	needed     int
	assignment quorum.Assignment // nil = node-count majority (needed)
	done       func(store.Value, bool)
}

// New creates a server for node id over the given substrates, hosts an
// agent place on its node, and registers itself for network delivery and
// agent-death notices. peers must list every replica ID including id (in a
// multi-process deployment: every replica in the system, not just the local
// one). clock supplies timestamps for traces. st becomes shard 0's store
// (nil allocates fresh stores for every shard).
func New(clock runtime.Clock, id runtime.NodeID, peers []runtime.NodeID, net runtime.Fabric, platform *agent.Platform, st *store.Store, cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	others := make([]runtime.NodeID, 0, len(peers))
	for _, p := range peers {
		if p != id {
			others = append(others, p)
		}
	}
	s := &Server{
		id:       id,
		peers:    others,
		net:      net,
		clock:    clock,
		platform: platform,
		cfg:      cfg,
		shards:   make([]*shardState, cfg.Shards),
		gone:     make(map[agent.ID]bool),
		reads:    make(map[uint64]*quorumRead),
	}
	if wf, ok := net.(runtime.WireFabric); ok && wf.WireDelivery() {
		s.scoped = true
	}
	for i := range s.shards {
		sd := &shardState{
			st:      store.New(),
			cache:   make(map[runtime.NodeID]QueueSnapshot),
			backlog: make(map[uint64]store.Update),
			member:  true,
			peers:   others,
		}
		if i < len(cfg.Groups) && cfg.Groups[i] != nil {
			sd.member = false
			sd.peers = sd.peers[:0:0]
			for _, n := range cfg.Groups[i] {
				if n == id {
					sd.member = true
				} else {
					sd.peers = append(sd.peers, n)
				}
			}
		}
		s.shards[i] = sd
	}
	if st != nil {
		s.shards[0].st = st
	}
	s.place = platform.Host(id, s)
	s.place.SetDeathListener(s)
	if cfg.Restore != nil {
		s.restore(cfg.Restore)
	}
	if cfg.Journal != nil {
		s.attachJournal(cfg.Journal)
		if cfg.Restore != nil {
			// Persist the recovery epoch bump immediately: a second crash
			// before any other mutation must still see a fresh epoch.
			s.logLockAll(true)
		}
	}
	return s
}

// shardOf routes a key to its shard.
func (s *Server) shardOf(key string) int { return shard.Of(key, len(s.shards)) }

// restore rebuilds the server's durable state from a recovered snapshot.
// No journal is attached yet, so the rebuild itself is not re-logged.
// Counters merge by max with whatever the server already holds (the DES
// restart path keeps memory across Crash), then the epoch is bumped so
// agents can tell post-recovery snapshots from pre-crash ones. Locking
// Lists and grants are restored as-is: stale entries only ever cause extra
// nacks (safe under Theorem 2), and the gone-set propagation plus claim
// timeouts clear them.
func (s *Server) restore(st *durable.State) {
	for _, ls := range st.Locks {
		if ls.Epoch > s.epoch {
			s.epoch = ls.Epoch
		}
	}
	s.epoch++
	for _, id := range st.Gone {
		if !s.gone[id] {
			s.gone[id] = true
			s.goneList = append(s.goneList, id)
		}
	}
	for i, sd := range s.shards {
		ls := st.Locks[i]
		sd.st = store.FromState(st.Stores[i])
		if ls.LLVersion > sd.llVersion {
			sd.llVersion = ls.LLVersion
		}
		if ls.HeadVersion > sd.headVersion {
			sd.headVersion = ls.HeadVersion
		}
		sd.ll = append([]agent.ID(nil), ls.LL...)
		s.setGrant(i, ls.Grant)
		if ls.GrantAttempt > sd.grantAttempt {
			sd.grantAttempt = ls.GrantAttempt
		}
		s.bump(sd, true) // recovery is a fresh head state
	}
}

// attachJournal wires the journal into every shard's store and registers
// the server's contribution to compaction snapshots. The journal derives
// each record's shard from its key at replay time, so one journal serves
// all shards while their records stay independent.
func (s *Server) attachJournal(j *durable.Journal) {
	s.journal = j
	for _, sd := range s.shards {
		sd.st.SetJournal(j)
	}
	j.AddSource(func(st *durable.State) {
		st.Stores = make([]store.State, len(s.shards))
		st.Locks = make([]durable.LockState, len(s.shards))
		for i, sd := range s.shards {
			st.Stores[i] = sd.st.State()
			st.Locks[i] = s.lockState(i)
		}
		st.Gone = append([]agent.ID(nil), s.goneList...)
	})
}

// DetachJournal unhooks durability without touching protocol state — the
// graceful-shutdown path, where the journal is about to be closed while the
// server may still field stray callbacks that must not append to it.
func (s *Server) DetachJournal() {
	s.journal = nil
	for _, sd := range s.shards {
		sd.st.SetJournal(nil)
	}
}

// lockState captures one shard's serializable locking state.
func (s *Server) lockState(shrd int) durable.LockState {
	sd := s.shards[shrd]
	return durable.LockState{
		Epoch:        s.epoch,
		LLVersion:    sd.llVersion,
		HeadVersion:  sd.headVersion,
		LL:           append([]agent.ID(nil), sd.ll...),
		Grant:        sd.grant,
		GrantAttempt: sd.grantAttempt,
	}
}

// logLock journals one shard's locking state after a mutation. barrier
// marks grant and epoch transitions — the mutations whose loss could
// re-grant a lock this server already released, or reuse an epoch.
func (s *Server) logLock(shrd int, barrier bool) {
	if s.journal != nil {
		s.journal.LogLock(shrd, s.lockState(shrd), barrier)
	}
}

// logLockAll journals every shard's locking state.
func (s *Server) logLockAll(barrier bool) {
	for i := range s.shards {
		s.logLock(i, barrier)
	}
}

// ID returns the server's node ID.
func (s *Server) ID() runtime.NodeID { return s.id }

// Store returns shard 0's data store (the only store when unsharded).
func (s *Server) Store() *store.Store { return s.shards[0].st }

// StoreOf returns one shard's data store.
func (s *Server) StoreOf(shrd int) *store.Store { return s.shards[shrd].st }

// Shards returns the number of shards.
func (s *Server) Shards() int { return len(s.shards) }

// Member reports whether this server is in shrd's replica group.
func (s *Server) Member(shrd int) bool { return s.shards[shrd].member }

// Place returns the agent place co-located with the server.
func (s *Server) Place() *agent.Place { return s.place }

// Queue returns a copy of shard 0's current Locking List (head first).
func (s *Server) Queue() []agent.ID { return s.QueueOf(0) }

// QueueOf returns a copy of one shard's Locking List (head first).
func (s *Server) QueueOf(shrd int) []agent.ID {
	out := make([]agent.ID, len(s.shards[shrd].ll))
	copy(out, s.shards[shrd].ll)
	return out
}

// QueueLen returns one shard's Locking List depth without copying — the
// ops plane samples it on every scrape.
func (s *Server) QueueLen(shrd int) int { return len(s.shards[shrd].ll) }

// Granted returns the transaction currently holding shard 0's grant
// (zero ID if none).
func (s *Server) Granted() agent.ID { return s.shards[0].grant }

// GrantedOf returns the transaction holding one shard's grant.
func (s *Server) GrantedOf(shrd int) agent.ID { return s.shards[shrd].grant }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// LocalRead serves a read from the local copy — the paper's fast read path
// ("a read operation may be executed on an arbitrary copy").
func (s *Server) LocalRead(key string) (store.Value, bool) {
	return s.shards[s.shardOf(key)].st.Get(key)
}

// snapshot captures one shard's current LL for handing to agents.
func (s *Server) snapshot(shrd int) QueueSnapshot {
	sd := s.shards[shrd]
	q := make([]agent.ID, len(sd.ll))
	copy(q, sd.ll)
	return QueueSnapshot{
		Server:      s.id,
		Shard:       shrd,
		Epoch:       s.epoch,
		Version:     sd.llVersion,
		HeadVersion: sd.headVersion,
		Queue:       q,
	}
}

// bump records an LL mutation; headChanged marks mutations that altered the
// head (the only ones that can change any agent's priority decision).
func (s *Server) bump(sd *shardState, headChanged bool) {
	sd.llVersion++
	if headChanged {
		sd.headVersion = sd.llVersion
	}
}

// setGrant changes one shard's exclusive grant and informs the observer.
func (s *Server) setGrant(shrd int, txn agent.ID) {
	sd := s.shards[shrd]
	if sd.grant == txn {
		return
	}
	sd.grant = txn
	if s.cfg.GrantObserver != nil {
		s.cfg.GrantObserver(s.id, shrd, txn)
	}
}

// markGone records that an agent finished or died, evicting its LL entries
// and releasing its grants on every shard. It reports whether local state
// changed.
func (s *Server) markGone(id agent.ID) bool {
	changed := false
	if !s.gone[id] {
		s.gone[id] = true
		s.goneList = append(s.goneList, id)
		if s.journal != nil {
			s.journal.LogGone(id)
		}
		changed = true
	}
	for shrd, sd := range s.shards {
		lockChanged := false
		for i, e := range sd.ll {
			if e == id {
				headChanged := i == 0
				sd.ll = append(sd.ll[:i], sd.ll[i+1:]...)
				s.bump(sd, headChanged)
				lockChanged = true
				break
			}
		}
		released := false
		if sd.grant == id {
			s.setGrant(shrd, agent.ID{})
			released = true
		}
		if lockChanged || released {
			s.logLock(shrd, released)
			changed = true
		}
	}
	return changed
}

// notify raises LLChanged to resident agents: anything — including the
// gone set — may have changed, so nobody may skip.
func (s *Server) notify() {
	s.place.NotifyResidents(LLChanged{Server: s.id})
}

// notifyShards raises a shard-scoped LLChanged: only the listed shards
// (ascending) moved and the gone set is untouched, so residents of other
// shards skip their refresh — their view of this server is unchanged.
// Outside the live engine it degrades to the unscoped notify (see scoped).
func (s *Server) notifyShards(shards []int) {
	if !s.scoped {
		s.notify()
		return
	}
	s.place.NotifyResidents(LLChanged{Server: s.id, Shards: shards})
}

// VisitAndLock is the local interaction of a just-arrived agent with its
// host server (paper Algorithm 2, "upon arrival of a mobile agent"): the
// server appends the agent to the Locking List of every requested shard it
// replicates, absorbs the locking information the agent carries, and
// returns everything the agent needs to update its own data structures.
// shards must be ascending (nil = every shard, the single-shard default).
func (s *Server) VisitAndLock(id agent.ID, shards []int, shared []QueueSnapshot, knownGone []agent.ID) LockInfo {
	// Absorb the agent's knowledge of finished/dead agents first, so a
	// stale entry never blocks the queue.
	goneChanged := false
	for _, g := range knownGone {
		if s.markGone(g) {
			goneChanged = true
		}
	}
	if !s.cfg.DisableInfoSharing {
		for _, snap := range shared {
			if snap.Server == s.id || snap.Shard < 0 || snap.Shard >= len(s.shards) {
				continue
			}
			cache := s.shards[snap.Shard].cache
			if cur, ok := cache[snap.Server]; !ok || snap.Newer(cur) {
				cache[snap.Server] = snap.Clone()
			}
		}
	}
	if shards == nil {
		shards = s.allShards()
	}
	var headShards []int
	for _, shrd := range shards {
		sd := s.shards[shrd]
		if !sd.member || s.gone[id] || s.contains(sd, id) {
			continue
		}
		sd.ll = append(sd.ll, id)
		s.bump(sd, len(sd.ll) == 1)
		s.logLock(shrd, false)
		if len(sd.ll) == 1 {
			headShards = append(headShards, shrd)
		}
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), id.String(), trace.LockRequested, "pos %d", len(sd.ll))
		}
	}
	if goneChanged {
		s.notify()
	} else if len(headShards) > 0 {
		s.notifyShards(headShards)
	}
	return s.lockInfo(shards)
}

// allShards returns 0..Shards-1.
func (s *Server) allShards() []int {
	out := make([]int, len(s.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

func (s *Server) contains(sd *shardState, id agent.ID) bool {
	for _, e := range sd.ll {
		if e == id {
			return true
		}
	}
	return false
}

// lockInfo assembles the LockInfo for a visiting or refreshing agent over
// the requested shards (nil = all). The gone slice aliases the server's
// list: goneList is append-only (entries below the capped length are never
// rewritten, growth reallocates past the cap), so the alias stays valid
// even in messages that outlive this call — and visits are frequent enough
// that the old full copy was a top allocation site on the live path.
func (s *Server) lockInfo(shards []int) LockInfo {
	gone := s.goneList[:len(s.goneList):len(s.goneList)]
	return s.lockInfoWith(shards, gone)
}

// lockInfoWith builds LockInfo around a caller-supplied gone slice — the
// full-list path and the refresh path (a suffix the caller merges
// synchronously) share everything else.
func (s *Server) lockInfoWith(shards []int, gone []agent.ID) LockInfo {
	if shards == nil {
		shards = s.allShards()
	}
	if s.costs == nil {
		// Link costs are a static property of the topology, so one shared
		// read-only map serves every LockInfo this server ever hands out.
		s.costs = make(map[runtime.NodeID]float64, len(s.peers))
		for _, p := range s.peers {
			s.costs[p] = s.net.Cost(s.id, p)
		}
	}
	info := LockInfo{Gone: gone, Costs: s.costs}
	for _, shrd := range shards {
		sd := s.shards[shrd]
		if !sd.member {
			continue
		}
		info.Locals = append(info.Locals, s.snapshot(shrd))
		if seq := sd.st.LastSeq(); seq > info.LastSeq {
			info.LastSeq = seq
		}
		if !s.cfg.DisableInfoSharing && len(sd.cache) > 0 {
			nodes := make([]runtime.NodeID, 0, len(sd.cache))
			for n := range sd.cache {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			for _, n := range nodes {
				info.Remote = append(info.Remote, sd.cache[n].Clone())
			}
		}
	}
	return info
}

// RefreshInfo returns current LockInfo for the requested shards (nil = all)
// without enqueueing anybody — used by parked agents recomputing their
// priority after a notification.
func (s *Server) RefreshInfo(shards []int) LockInfo { return s.lockInfo(shards) }

// RefreshInfoSince is RefreshInfo for a repeat customer: a resident agent
// that has already merged the first seen entries of this server's gone list
// gets only the suffix (the list is append-only for the life of the Server,
// so a valid prefix count stays valid). The returned LockInfo aliases the
// live goneList and must be consumed before control returns to the server —
// parked agents merge it synchronously, which is the point: the refresh
// storm after every commit was the live path's hottest loop, and re-marking
// hundreds of long-gone agents per resident per notification was most of it.
// The second result is the new prefix count to remember.
func (s *Server) RefreshInfoSince(shards []int, seen int) (LockInfo, int) {
	total := len(s.goneList)
	if seen < 0 || seen > total {
		seen = 0
	}
	return s.lockInfoWith(shards, s.goneList[seen:total]), total
}

// Deliver implements runtime.Handler for server-bound protocol messages.
func (s *Server) Deliver(msg runtime.Message) {
	if s.down {
		return
	}
	if s.cfg.Intercept != nil && s.cfg.Intercept(msg) {
		return
	}
	switch m := msg.Payload.(type) {
	case *UpdateMsg:
		ack := s.handleUpdate(m)
		s.platform.SendToAgent(s.id, m.Origin, m.Txn, ack, ack.WireSize())
	case *CommitMsg:
		s.handleCommit(m)
	case *AbortMsg:
		s.handleAbort(m)
	case *SyncRequest:
		s.handleSyncRequest(m)
	case *SyncReply:
		s.handleSyncReply(m)
	case *ReadReq:
		v, ok := s.LocalRead(m.Key)
		rep := &ReadRep{ReqID: m.ReqID, From: s.id, Found: ok, Value: v}
		s.net.Send(runtime.Message{From: s.id, To: m.From, Payload: rep, Size: rep.WireSize()})
	case *ReadRep:
		s.handleReadRep(m)
	}
}

// QuorumRead coordinates a consistent read: it collects the committed value
// of key from a read quorum of the key's replica group (this server
// included when it is a member) and calls done with the most recent
// version. Because any read quorum intersects any write quorum's COMMIT set
// eventually — and the per-shard sequence number makes "most recent"
// unambiguous — the result is never older than the last update whose commit
// round completed.
func (s *Server) QuorumRead(key string, done func(store.Value, bool)) {
	shrd := s.shardOf(key)
	sd := s.shards[shrd]
	s.readSeq++
	qr := &quorumRead{
		key:     key,
		replies: make(map[runtime.NodeID]ReadRep),
		needed:  (len(sd.peers)+1)/2 + 1,
		done:    done,
	}
	if shrd < len(s.cfg.Quorums) && s.cfg.Quorums[shrd] != nil {
		qr.assignment = s.cfg.Quorums[shrd]
	}
	s.reads[s.readSeq] = qr
	if sd.member {
		// Local copy counts immediately.
		v, ok := sd.st.Get(key)
		qr.replies[s.id] = ReadRep{ReqID: s.readSeq, From: s.id, Found: ok, Value: v}
		if s.maybeFinishRead(s.readSeq) {
			return
		}
	}
	req := &ReadReq{ReqID: s.readSeq, From: s.id, Key: key}
	for _, p := range sd.peers {
		s.net.Send(runtime.Message{From: s.id, To: p, Payload: req, Size: req.WireSize()})
	}
}

func (s *Server) handleReadRep(m *ReadRep) {
	qr, ok := s.reads[m.ReqID]
	if !ok {
		return
	}
	qr.replies[m.From] = *m
	s.maybeFinishRead(m.ReqID)
}

func (s *Server) maybeFinishRead(id uint64) bool {
	qr := s.reads[id]
	if qr == nil {
		return false
	}
	if qr.assignment != nil {
		nodes := make([]runtime.NodeID, 0, len(qr.replies))
		for n := range qr.replies {
			nodes = append(nodes, n)
		}
		if !qr.assignment.HasRead(nodes) {
			return false
		}
	} else if len(qr.replies) < qr.needed {
		return false
	}
	delete(s.reads, id)
	var best store.Value
	found := false
	for _, rep := range qr.replies {
		if !rep.Found {
			continue
		}
		if !found || best.Version.Less(rep.Value.Version) {
			best = rep.Value
		}
		found = true
	}
	qr.done(best, found)
	return true
}

// HandleUpdateLocal processes the claim of a co-located agent at memory
// speed (the mobile-agent advantage: the conversation with the local server
// pays no network latency).
func (s *Server) HandleUpdateLocal(m *UpdateMsg) *AckMsg { return s.handleUpdate(m) }

// HandleCommitLocal applies a co-located agent's commit directly.
func (s *Server) HandleCommitLocal(m *CommitMsg) { s.handleCommit(m) }

// HandleAbortLocal applies a co-located agent's abort directly.
func (s *Server) HandleAbortLocal(m *AbortMsg) { s.handleAbort(m) }

// claimShards resolves the shards a claim names (defaulting to shard 0 for
// an unsharded claim) restricted to the shards this server replicates.
func (s *Server) claimShards(m *UpdateMsg) (all, relevant []int) {
	all = m.Shards
	if len(all) == 0 {
		all = []int{0}
	}
	for _, shrd := range all {
		if shrd >= 0 && shrd < len(s.shards) && s.shards[shrd].member {
			relevant = append(relevant, shrd)
		}
	}
	return all, relevant
}

// handleUpdate validates a permission claim (see DESIGN.md, "protocol
// fortification"): the server ACKs only if, on EVERY claimed shard it
// replicates, it is not already granted to another claimant AND the
// claimant either heads that shard's LL or claims via the tie-break rule
// while enqueued there. The validation is all-or-nothing across the shards
// — a multi-shard claim acquires its per-shard grants atomically here, in
// the claim's canonical ascending shard order, so two claimants can never
// deadlock a server against itself. A write quorum of ACKs on every shard
// implies a unique winner regardless of how stale the claimant's view was,
// because grants are exclusive until COMMIT or ABORT and any two write
// quorums intersect — the grants, not the evidence, are the arbiter.
func (s *Server) handleUpdate(m *UpdateMsg) *AckMsg {
	all, relevant := s.claimShards(m)
	nack := func(reason string) *AckMsg {
		info := s.lockInfo(relevant)
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.UpdateNacked, "%s", reason)
		return &AckMsg{Txn: m.Txn, Attempt: m.Attempt, From: s.id, Reason: reason, Info: &info}
	}
	if len(relevant) == 0 {
		return nack("not-member")
	}
	for _, shrd := range relevant {
		if g := s.shards[shrd].grant; !g.IsZero() && g != m.Txn {
			return nack("busy")
		}
	}
	if s.gone[m.Txn] {
		return nack("gone")
	}
	for _, shrd := range relevant {
		if !s.contains(s.shards[shrd], m.Txn) {
			return nack("not-enqueued")
		}
	}
	for _, shrd := range relevant {
		sd := s.shards[shrd]
		isHead := len(sd.ll) > 0 && sd.ll[0] == m.Txn
		if !isHead && !m.ByTie {
			return nack("not-head")
		}
	}
	for _, shrd := range relevant {
		s.setGrant(shrd, m.Txn)
		s.shards[shrd].grantAttempt = m.Attempt
		s.logLock(shrd, true) // a lost grant record could let a restart re-grant
	}
	seqs := make([]uint64, len(all))
	values := make(map[string]store.Value, len(m.Keys))
	for i, shrd := range all {
		if shrd >= 0 && shrd < len(s.shards) && s.shards[shrd].member {
			seqs[i] = s.shards[shrd].st.LastSeq()
		}
	}
	for _, k := range m.Keys {
		sd := s.shards[s.shardOf(k)]
		if !sd.member {
			continue
		}
		if v, ok := sd.st.Get(k); ok {
			values[k] = v
		}
	}
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.UpdateAcked, "")
	return &AckMsg{Txn: m.Txn, Attempt: m.Attempt, From: s.id, OK: true, ShardSeqs: seqs, Values: values}
}

// handleCommit applies the winner's updates — each routed to its key's
// shard, on the shards this server replicates — releases its locks, and
// adds it to the Updated List. A per-shard sequence gap means this replica
// missed earlier updates on that shard (it was down); the updates are held
// back and a shard sync is requested.
func (s *Server) handleCommit(m *CommitMsg) {
	for _, u := range m.Updates {
		shrd := s.shardOf(u.Key)
		sd := s.shards[shrd]
		if !sd.member {
			continue
		}
		if err := sd.st.ApplyCommitted(u); err != nil {
			if errors.Is(err, store.ErrSeqGap) {
				sd.backlog[u.Seq] = u
				s.requestSyncShard(shrd, m.Origin)
				continue
			}
			// Stale updates are idempotently ignored by ApplyCommitted;
			// anything else indicates a protocol bug.
			panic("replica: commit apply failed: " + err.Error())
		}
	}
	// This commit may have filled the gap ahead of earlier out-of-order
	// arrivals (jittered links do not preserve FIFO).
	for shrd := range s.shards {
		s.drainBacklog(shrd)
	}
	s.markGone(m.Txn)
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.Committed, "%d updates, seq now %d", len(m.Updates), s.maxLastSeq())
	}
	// A transaction locks the same shards at every server, so its commit —
	// queue removal, grant release, and its own disappearance into the gone
	// set — is invisible to agents holding no shard in common with its
	// updates: the txn never appears in any local or cached queue of another
	// shard, and LastSeq is computed per requested shard. Scope the wakeup
	// to the txn's shards (live engine only; notifyShards degrades to the
	// global notify elsewhere).
	if txShards := s.updateShards(m.Updates); len(txShards) > 0 {
		s.notifyShards(txShards)
	} else {
		s.notify()
	}
	if s.journal != nil {
		s.journal.MaybeCompact() // post-commit is a quiescent point
	}
}

// updateShards returns the distinct shards of a commit's updates, ascending
// (the transaction's locked shard set — claims lock exactly the shards of
// the keys they write).
func (s *Server) updateShards(updates []store.Update) []int {
	var out []int
	for _, u := range updates {
		shrd := s.shardOf(u.Key)
		found := false
		for _, o := range out {
			if o == shrd {
				found = true
				break
			}
		}
		if !found {
			out = append(out, shrd)
		}
	}
	sort.Ints(out)
	return out
}

// maxLastSeq returns the highest committed horizon across shards (trace
// diagnostics).
func (s *Server) maxLastSeq() uint64 {
	var max uint64
	for _, sd := range s.shards {
		if seq := sd.st.LastSeq(); seq > max {
			max = seq
		}
	}
	return max
}

// handleAbort withdraws a claim's grants on every shard.
func (s *Server) handleAbort(m *AbortMsg) {
	released := false
	for shrd, sd := range s.shards {
		if sd.grant == m.Txn && m.Attempt >= sd.grantAttempt {
			s.setGrant(shrd, agent.ID{})
			s.logLock(shrd, true)
			released = true
		}
	}
	if released {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.ClaimAborted, "grant released")
	}
}

// RequestSync starts an anti-entropy round with the replica group of every
// shard this server replicates: fetch the committed updates after the local
// horizon. The cluster invokes it on every live server after a partition
// heals, because a minority partition that missed final COMMIT broadcasts
// has no sequence gap of its own to notice.
func (s *Server) RequestSync() {
	if s.down {
		return
	}
	for shrd := range s.shards {
		s.requestSyncShard(shrd, runtime.None)
	}
}

// requestSyncShard asks origin (falling back to the whole replica group if
// origin is the server itself) for one shard's updates after the local
// horizon.
func (s *Server) requestSyncShard(shrd int, origin runtime.NodeID) {
	sd := s.shards[shrd]
	if !sd.member {
		return
	}
	req := &SyncRequest{From: s.id, Shard: shrd, Since: sd.st.LastSeq()}
	if origin != s.id && origin != runtime.None {
		s.net.Send(runtime.Message{From: s.id, To: origin, Payload: req, Size: req.WireSize()})
		return
	}
	for _, p := range sd.peers {
		s.net.Send(runtime.Message{From: s.id, To: p, Payload: req, Size: req.WireSize()})
	}
}

func (s *Server) handleSyncRequest(m *SyncRequest) {
	if m.Shard < 0 || m.Shard >= len(s.shards) {
		return
	}
	updates := s.shards[m.Shard].st.UpdatesSince(m.Since)
	if len(updates) == 0 && len(s.goneList) == 0 {
		return
	}
	gone := make([]agent.ID, len(s.goneList))
	copy(gone, s.goneList)
	reply := &SyncReply{From: s.id, Shard: m.Shard, Updates: updates, Gone: gone}
	s.net.Send(runtime.Message{From: s.id, To: m.From, Payload: reply, Size: reply.WireSize()})
}

// drainBacklog applies one shard's consecutive backlogged commits now that
// earlier updates may have landed. It reports whether anything was applied.
func (s *Server) drainBacklog(shrd int) bool {
	sd := s.shards[shrd]
	applied := false
	for {
		u, ok := sd.backlog[sd.st.LastSeq()+1]
		if !ok {
			return applied
		}
		delete(sd.backlog, u.Seq)
		if err := sd.st.ApplyCommitted(u); err != nil {
			return applied
		}
		applied = true
	}
}

func (s *Server) handleSyncReply(m *SyncReply) {
	if m.Shard < 0 || m.Shard >= len(s.shards) {
		return
	}
	sd := s.shards[m.Shard]
	applied := false
	for _, u := range m.Updates {
		if err := sd.st.ApplyCommitted(u); err == nil && u.Seq == sd.st.LastSeq() {
			applied = true
		}
	}
	if s.drainBacklog(m.Shard) {
		applied = true
	}
	mutated := false
	for _, g := range m.Gone {
		if s.markGone(g) {
			mutated = true
		}
	}
	if applied || mutated {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerSynced, "seq now %d", sd.st.LastSeq())
		if mutated {
			s.notify()
		} else {
			s.notifyShards([]int{m.Shard})
		}
		if s.journal != nil {
			s.journal.MaybeCompact()
		}
	}
}

// OnAgentDeath implements agent.DeathListener: evict the dead agent's lock
// entries and release its grants, so a crashed agent never wedges a queue.
func (s *Server) OnAgentDeath(id agent.ID) {
	if s.down {
		return
	}
	if s.markGone(id) {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), id.String(), trace.LockReleased, "agent died")
		s.notify()
	}
}

// Crash models a fail-stop failure: all volatile locking state is lost; the
// committed stores survive (stable storage). The caller is responsible for
// also marking the node down in the network and killing resident agents —
// the cluster layer in internal/core orchestrates all three.
func (s *Server) Crash() {
	// Detach durability first: a dead node journals nothing, and the
	// volatile wipe below must not masquerade as protocol mutations. The
	// cluster layer additionally kills the journal's log handle and crashes
	// the backing disk.
	s.journal = nil
	for _, sd := range s.shards {
		sd.st.SetJournal(nil)
	}
	s.down = true
	for shrd, sd := range s.shards {
		sd.ll = nil
		sd.cache = make(map[runtime.NodeID]QueueSnapshot)
		s.setGrant(shrd, agent.ID{})
		sd.backlog = make(map[uint64]store.Update)
	}
	// gone survives: it is derived from committed state and death notices,
	// and keeping it only ever suppresses already-finished agents.
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerCrashed, "")
}

// Recover brings the server back: it bumps its epoch (so agents can tell
// post-recovery snapshots from pre-crash ones) and starts a background sync
// with each shard's group to fetch the updates it missed.
func (s *Server) Recover() {
	s.down = false
	s.epoch++
	for _, sd := range s.shards {
		s.bump(sd, true) // the (now empty) LL is a fresh head state
	}
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerRecover, "epoch %d", s.epoch)
	s.RequestSync()
}

// Restart is the durable counterpart of Recover: the server comes back
// from its journal rather than from nothing. j is the freshly re-opened
// journal and st the state it replayed (nil on an empty log). Like Recover
// it ends with an anti-entropy round — the WAL restores what this replica
// committed; the peers supply what it missed while down.
func (s *Server) Restart(j *durable.Journal, st *durable.State) {
	s.down = false
	for _, sd := range s.shards {
		sd.cache = make(map[runtime.NodeID]QueueSnapshot)
		sd.backlog = make(map[uint64]store.Update)
	}
	if st != nil {
		s.restore(st)
	} else {
		s.epoch++
		for _, sd := range s.shards {
			s.bump(sd, true)
		}
	}
	if j != nil {
		s.attachJournal(j)
		s.logLockAll(true) // make the recovery epoch durable immediately
	}
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerRecover, "epoch %d, seq %d restored", s.epoch, s.maxLastSeq())
	s.RequestSync()
}

// Gone returns the agents this server knows to have finished or died, in
// discovery order.
func (s *Server) Gone() []agent.ID {
	out := make([]agent.ID, len(s.goneList))
	copy(out, s.goneList)
	return out
}

// Peers returns the other replica IDs, sorted.
func (s *Server) Peers() []runtime.NodeID {
	out := make([]runtime.NodeID, len(s.peers))
	copy(out, s.peers)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
