// Package durable gives one replica a persistent memory: every mutation of
// its store, its locking state, and its reliable-delivery endpoint is
// journaled to a write-ahead log (internal/wal) on stable storage
// (internal/disk), and Open rebuilds the exact pre-crash state from the
// newest snapshot plus the journaled suffix.
//
// The paper's recovery story (§3.1) assumes a replica that comes back
// remembers what it committed and pulls the rest from its peers; this
// package supplies the first half, and the replica's existing anti-entropy
// sync supplies the second. The record vocabulary is deliberately the
// replica's mutation vocabulary — one record per validated state change,
// in execution order — so replay is a pure re-execution and DESIGN.md
// invariant 11 ("a replica never forgets a COMMIT it acknowledged while
// its fsync policy held") falls out of the wal's commit barriers.
//
// Records are hand-framed (no gob) for two reasons: a committed update is
// ~40 bytes instead of ~300, and the encoding is deterministic, which
// keeps simulated durability runs byte-for-byte reproducible.
package durable

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wal"
)

// Record types. Values are part of the on-disk format: never renumber.
// Type 5 was the unprefixed pre-sharding lock record; it is retired and
// must not be reused.
const (
	recApply     byte = 1 // store.Update applied committed (commit barrier)
	recPrepare   byte = 2 // store.Update staged tentatively
	recCommitTxn byte = 3 // tentative transaction finalized (commit barrier)
	recAbortTxn  byte = 4 // tentative transaction discarded
	recGone      byte = 6 // agent added to the Updated List / gone set
	recRelNext   byte = 7 // reliable-delivery send-sequence high-water mark
	recRelSeen   byte = 8 // reliable-delivery first-seen frame (dedup state)
	recLock      byte = 9 // one shard's locking state: shard, then LL, grant, versions
)

// LockState is the serializable locking state of a replica: the Locking
// List and grant that Algorithm 2 mutates, plus the monotone counters that
// keep stale-evidence checks sound across restarts.
type LockState struct {
	Epoch        uint64
	LLVersion    uint64
	HeadVersion  uint64
	LL           []agent.ID
	Grant        agent.ID
	GrantAttempt int
}

// State is everything a recovering replica restores: the data store and
// locking state of every shard, the gone set (Updated List), and the
// reliable-delivery endpoint state (send counter and per-sender dedup
// sets).
type State struct {
	// Stores and Locks hold one entry per shard, indexed by shard (the
	// shard-isolation invariant: every shard journals and restores
	// independently). Open fills both for every one of Options.Shards.
	Stores     []store.State
	Locks      []LockState
	Gone       []agent.ID
	RelNextSeq uint64
	RelSeen    map[runtime.NodeID][]uint64
}

// BirthFloor returns the largest timestamp the state remembers — agent
// birth times in the lock and gone records, commit stamps in the store.
// A recovering node feeds this to agent.Platform.AdvanceBirth: engines
// restart their clocks at zero, and an agent ID minted below the floor
// could collide with a persisted gone entry and be refused forever.
func (st *State) BirthFloor() int64 {
	var floor int64
	bump := func(v int64) {
		if v > floor {
			floor = v
		}
	}
	for _, id := range st.Gone {
		bump(id.Born)
	}
	for _, ls := range st.Locks {
		for _, id := range ls.LL {
			bump(id.Born)
		}
		bump(ls.Grant.Born)
	}
	for _, ss := range st.Stores {
		for _, u := range ss.Log {
			bump(u.Stamp)
		}
		for _, u := range ss.Tentative {
			bump(u.Stamp)
		}
	}
	return floor
}

// relNextStride is how coarsely the send counter is journaled: one record
// every stride sends, restored rounded up a full stride. Sequence numbers
// only need to be monotone per sender, so over-approximating after a crash
// is free, and the stride keeps the counter off the per-send hot path.
const relNextStride = 64

// Options tunes a journal.
type Options struct {
	// Policy is the wal fsync policy (default wal.PolicyCommit).
	Policy wal.Policy
	// SegmentBytes is the wal segment size (default 1 MiB).
	SegmentBytes int
	// CompactEvery installs a fresh snapshot and drops the replayed log
	// every this many records (default 4096; negative disables).
	CompactEvery int
	// Shards is the replica's shard count (default 1). Replay routes each
	// store record to its key's shard, so the journal stays a single
	// ordered log while the shards restore independently.
	Shards int
	// GroupCommitDelay enables WAL group commit (see wal.Options): commit
	// barriers park for up to this long and one fsync covers all of them.
	// Only effective once OnBarrier hooks are registered — without a way to
	// dam the node's outbound messages, deferring the fsync would break
	// invariant 11.
	GroupCommitDelay time.Duration
	// Scheduler overrides the group-commit flush scheduler (tests).
	Scheduler func(d time.Duration, fn func())
	// OnSync forwards to wal.Options.OnSync: it observes each successful
	// segment fsync's wall-clock duration for the ops plane.
	OnSync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Journal is one replica's open durability log. It implements
// store.Journal and reliable.Journal, and the replica logs its locking
// mutations through LogLock/LogGone. Like every protocol-layer object it
// is single-threaded: its owner drives it from the engine's execution
// context.
//
// A stable-storage failure is fail-stop by design: a replica that cannot
// journal must not keep acknowledging, so every logging method panics on
// I/O error rather than silently degrading to volatility.
type Journal struct {
	log       *wal.Log
	opts      Options
	sources   []func(*State)
	sinceSnap int
	relNextHi uint64 // highest send counter journaled so far

	// Group-commit hooks (OnBarrier): hold runs synchronously when a commit
	// barrier parks instead of fsyncing; release runs once the covering
	// fsync lands (from the flush goroutine — the registrar marshals it
	// back onto the engine's execution context).
	hold    func()
	release func()
}

// Open replays the journal on b and returns the recovered state, or a nil
// state when the backend holds no history (a fresh data dir).
func Open(b disk.Backend, opts Options) (*Journal, *State, error) {
	opts = opts.withDefaults()
	log, snap, records, err := wal.Open(b, wal.Options{
		Policy:           opts.Policy,
		SegmentBytes:     opts.SegmentBytes,
		GroupCommitDelay: opts.GroupCommitDelay,
		Scheduler:        opts.Scheduler,
		OnSync:           opts.OnSync,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: log, opts: opts, sinceSnap: len(records)}
	if snap == nil && len(records) == 0 {
		return j, nil, nil
	}
	st, err := replay(snap, records, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	j.relNextHi = st.RelNextSeq
	return j, st, nil
}

// replay rebuilds the replica state from a snapshot (nil = empty) and the
// records journaled after it, in order. Records were only ever written for
// operations that succeeded, so any replay error is corruption. Store
// records route to their key's shard; lock records carry their shard
// explicitly.
func replay(snap []byte, records []wal.Record, shards int) (*State, error) {
	st := &State{RelSeen: make(map[runtime.NodeID][]uint64)}
	if snap != nil {
		s, err := decodeState(snap)
		if err != nil {
			return nil, err
		}
		st = s
	}
	for len(st.Stores) < shards {
		st.Stores = append(st.Stores, store.State{})
	}
	for len(st.Locks) < shards {
		st.Locks = append(st.Locks, LockState{})
	}
	mems := make([]*store.Store, shards)
	for i := range mems {
		mems[i] = store.FromState(st.Stores[i])
	}
	seen := make(map[runtime.NodeID]map[uint64]bool, len(st.RelSeen))
	for from, seqs := range st.RelSeen {
		seen[from] = make(map[uint64]bool, len(seqs))
		for _, q := range seqs {
			seen[from][q] = true
		}
	}
	gone := make(map[agent.ID]bool, len(st.Gone))
	for _, id := range st.Gone {
		gone[id] = true
	}
	for i, rec := range records {
		var err error
		switch rec.Type {
		case recApply:
			var u store.Update
			if u, err = decodeUpdate(rec.Data); err == nil {
				err = mems[shard.Of(u.Key, shards)].ApplyCommitted(u)
			}
		case recPrepare:
			var u store.Update
			if u, err = decodeUpdate(rec.Data); err == nil {
				err = mems[shard.Of(u.Key, shards)].Prepare(u)
			}
		case recCommitTxn:
			var txn string
			if txn, err = decodeString(rec.Data); err == nil {
				// The record does not name a shard (its encoding predates
				// sharding); the tentative transaction lives on exactly one.
				err = store.ErrUnknownTxn
				for _, mem := range mems {
					if cErr := mem.Commit(txn); cErr != store.ErrUnknownTxn {
						err = cErr
						break
					}
				}
			}
		case recAbortTxn:
			var txn string
			if txn, err = decodeString(rec.Data); err == nil {
				for _, mem := range mems {
					mem.Abort(txn)
				}
			}
		case recLock:
			var shrd int
			var ls LockState
			if shrd, ls, err = decodeLock(rec.Data); err == nil {
				if shrd < len(st.Locks) {
					st.Locks[shrd] = ls
				} else {
					err = fmt.Errorf("lock record for shard %d beyond %d shards", shrd, shards)
				}
			}
		case recGone:
			var id agent.ID
			if id, err = decodeAgentID(rec.Data); err == nil && !gone[id] {
				gone[id] = true
				st.Gone = append(st.Gone, id)
			}
		case recRelNext:
			var n uint64
			if n, err = decodeUvarint(rec.Data); err == nil && n > st.RelNextSeq {
				st.RelNextSeq = n
			}
		case recRelSeen:
			var from runtime.NodeID
			var seq uint64
			if from, seq, err = decodeRelSeen(rec.Data); err == nil && !seen[from][seq] {
				if seen[from] == nil {
					seen[from] = make(map[uint64]bool)
				}
				seen[from][seq] = true
				st.RelSeen[from] = append(st.RelSeen[from], seq)
			}
		default:
			err = fmt.Errorf("unknown record type %d", rec.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: replaying record %d (type %d): %w", i, rec.Type, err)
		}
	}
	for i, mem := range mems {
		st.Stores[i] = mem.State()
	}
	return st, nil
}

// AddSource registers a contributor to compaction snapshots. The replica
// contributes its store/locking state, the cluster contributes the
// reliable-delivery endpoint; each fills its part of the State.
func (j *Journal) AddSource(fn func(*State)) { j.sources = append(j.sources, fn) }

// fail is the fail-stop policy for stable-storage errors.
func (j *Journal) fail(err error) {
	if err != nil {
		panic("durable: journal write failed (stable storage is fail-stop): " + err.Error())
	}
}

// OnBarrier registers the group-commit hooks: hold fires synchronously
// when a commit barrier parks awaiting its covering fsync, release fires
// once that fsync lands. The cluster wires these to its send gate, which
// dams outbound messages between the two — so nothing a deferred barrier
// justifies (an ack, a grant, a migration) leaves the node before the
// barrier is durable, and invariant 11 survives group commit unchanged.
func (j *Journal) OnBarrier(hold, release func()) {
	j.hold, j.release = hold, release
}

// groupActive reports whether commit barriers defer through the group
// coalescer rather than fsync inline.
func (j *Journal) groupActive() bool {
	return j.opts.GroupCommitDelay > 0 && j.opts.Policy == wal.PolicyCommit && j.release != nil
}

func (j *Journal) append(typ byte, data []byte, commit bool) {
	if commit && j.groupActive() {
		j.hold()
		j.fail(j.log.AppendBarrier(wal.Record{Type: typ, Data: data}, commit, j.release))
	} else {
		j.fail(j.log.Append(wal.Record{Type: typ, Data: data}, commit))
	}
	j.sinceSnap++
}

// Prepared implements store.Journal.
func (j *Journal) Prepared(u store.Update) { j.append(recPrepare, encodeUpdate(u), false) }

// Committed implements store.Journal. Commit barrier.
func (j *Journal) Committed(txnID string) { j.append(recCommitTxn, encodeString(txnID), true) }

// Applied implements store.Journal. Commit barrier: this is the record
// behind invariant 11.
func (j *Journal) Applied(u store.Update) { j.append(recApply, encodeUpdate(u), true) }

// Aborted implements store.Journal.
func (j *Journal) Aborted(txnID string) { j.append(recAbortTxn, encodeString(txnID), false) }

// LogLock journals one shard's full locking state after a mutation.
// barrier marks grant transitions — the mutations whose loss could
// re-grant a lock the replica already released.
func (j *Journal) LogLock(shrd int, ls LockState, barrier bool) {
	j.append(recLock, encodeLock(shrd, ls), barrier)
}

// LogGone journals one agent joining the gone set (the Updated List).
func (j *Journal) LogGone(id agent.ID) { j.append(recGone, encodeAgentID(id), false) }

// NextSeq implements the reliable layer's journal: it persists the send
// counter every relNextStride sends, over-approximated so a restart can
// never reuse a sequence number. Commit barrier: the high-water mark must
// be on disk before any send in its stride leaves the node, or a crash
// restores a stale counter and the restarted node reuses sequence numbers
// that peers' dedup tables silently swallow. The stride amortizes the
// extra fsync to one per relNextStride sends.
func (j *Journal) NextSeq(seq uint64) {
	if seq < j.relNextHi {
		return
	}
	j.relNextHi = (seq/relNextStride + 1) * relNextStride
	j.append(recRelNext, encodeUvarint(j.relNextHi), true)
}

// Seen implements the reliable layer's journal: one record per first-seen
// frame, so the dedup table survives a restart and a retransmit straddling
// the crash is still suppressed.
func (j *Journal) Seen(from runtime.NodeID, seq uint64) {
	j.append(recRelSeen, encodeRelSeen(from, seq), false)
}

// MaybeCompact installs a fresh snapshot once enough records accumulated
// since the last one. The replica calls it from quiescent points (after a
// commit lands); sources must be registered by then.
func (j *Journal) MaybeCompact() {
	if j.opts.CompactEvery > 0 && j.sinceSnap >= j.opts.CompactEvery {
		j.fail(j.Compact())
	}
}

// Compact gathers the current state from the registered sources and
// installs it as the log's snapshot, superseding all records so far.
func (j *Journal) Compact() error {
	st := &State{RelSeen: make(map[runtime.NodeID][]uint64)}
	for _, fn := range j.sources {
		fn(st)
	}
	// Persist the send-counter high-water, not the exact counter: the
	// snapshot supersedes earlier recRelNext records, and sends between the
	// exact value and the high-water would otherwise journal nothing — a
	// crash there must still never reuse a sequence number.
	if j.relNextHi > st.RelNextSeq {
		st.RelNextSeq = j.relNextHi
	}
	if err := j.log.SaveSnapshot(encodeState(st)); err != nil {
		return err
	}
	j.sinceSnap = 0
	return nil
}

// Sync flushes the journal tail to stable storage regardless of policy.
func (j *Journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the journal — the graceful-shutdown path, after
// which the next Open replays a clean log with nothing torn and nothing
// lost.
func (j *Journal) Close() error { return j.log.Close() }

// Kill abandons the journal without syncing — the crash path for
// simulated restarts. Pair with the backend's Crash.
func (j *Journal) Kill() { j.log.Kill() }

// Stats returns the underlying wal counters.
func (j *Journal) Stats() wal.Stats { return j.log.Stats() }

// --- encoding -----------------------------------------------------------
//
// All integers are varints, strings and slices are length-prefixed. The
// encoding is deterministic: map-shaped state is sorted before writing.

func encodeUvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func decodeUvarint(b []byte) (uint64, error) {
	d := &decoder{b: b}
	v := d.uvarint()
	return v, d.finish()
}

func encodeString(s string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(s)))
	return append(b, s...)
}

func decodeString(b []byte) (string, error) {
	d := &decoder{b: b}
	s := d.str()
	return s, d.finish()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendUpdate(b []byte, u store.Update) []byte {
	b = appendString(b, u.TxnID)
	b = appendString(b, u.Key)
	b = appendString(b, u.Data)
	b = binary.AppendUvarint(b, u.Seq)
	return binary.AppendVarint(b, u.Stamp)
}

func encodeUpdate(u store.Update) []byte { return appendUpdate(nil, u) }

func decodeUpdate(b []byte) (store.Update, error) {
	d := &decoder{b: b}
	u := d.update()
	return u, d.finish()
}

func appendAgentID(b []byte, id agent.ID) []byte {
	b = binary.AppendVarint(b, int64(id.Home))
	b = binary.AppendVarint(b, id.Born)
	return binary.AppendUvarint(b, id.Seq)
}

func encodeAgentID(id agent.ID) []byte { return appendAgentID(nil, id) }

func decodeAgentID(b []byte) (agent.ID, error) {
	d := &decoder{b: b}
	id := d.agentID()
	return id, d.finish()
}

func encodeLock(shrd int, ls LockState) []byte {
	b := binary.AppendUvarint(nil, uint64(shrd))
	return appendLock(b, ls)
}

func decodeLock(b []byte) (int, LockState, error) {
	d := &decoder{b: b}
	shrd := int(d.uvarint())
	ls := d.lock()
	return shrd, ls, d.finish()
}

func appendLock(b []byte, ls LockState) []byte {
	b = binary.AppendUvarint(b, ls.Epoch)
	b = binary.AppendUvarint(b, ls.LLVersion)
	b = binary.AppendUvarint(b, ls.HeadVersion)
	b = appendAgentID(b, ls.Grant)
	b = binary.AppendVarint(b, int64(ls.GrantAttempt))
	b = binary.AppendUvarint(b, uint64(len(ls.LL)))
	for _, id := range ls.LL {
		b = appendAgentID(b, id)
	}
	return b
}

func encodeRelSeen(from runtime.NodeID, seq uint64) []byte {
	b := binary.AppendVarint(nil, int64(from))
	return binary.AppendUvarint(b, seq)
}

func decodeRelSeen(b []byte) (runtime.NodeID, uint64, error) {
	d := &decoder{b: b}
	from := runtime.NodeID(d.varint())
	seq := d.uvarint()
	return from, seq, d.finish()
}

func appendStoreState(b []byte, ss store.State) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss.Log)))
	for _, u := range ss.Log {
		b = appendUpdate(b, u)
	}
	b = binary.AppendUvarint(b, uint64(len(ss.Tentative)))
	for _, u := range ss.Tentative {
		b = appendUpdate(b, u)
	}
	return b
}

func encodeState(st *State) []byte {
	b := binary.AppendUvarint(nil, uint64(len(st.Stores)))
	for _, ss := range st.Stores {
		b = appendStoreState(b, ss)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Locks)))
	for _, ls := range st.Locks {
		b = appendLock(b, ls)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Gone)))
	for _, id := range st.Gone {
		b = appendAgentID(b, id)
	}
	b = binary.AppendUvarint(b, st.RelNextSeq)
	senders := make([]runtime.NodeID, 0, len(st.RelSeen))
	for from := range st.RelSeen {
		senders = append(senders, from)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	b = binary.AppendUvarint(b, uint64(len(senders)))
	for _, from := range senders {
		seqs := append([]uint64(nil), st.RelSeen[from]...)
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		b = binary.AppendVarint(b, int64(from))
		b = binary.AppendUvarint(b, uint64(len(seqs)))
		for _, q := range seqs {
			b = binary.AppendUvarint(b, q)
		}
	}
	return b
}

func decodeState(b []byte) (*State, error) {
	d := &decoder{b: b}
	st := &State{RelSeen: make(map[runtime.NodeID][]uint64)}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Stores = append(st.Stores, d.storeState())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Locks = append(st.Locks, d.lock())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Gone = append(st.Gone, d.agentID())
	}
	st.RelNextSeq = d.uvarint()
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		from := runtime.NodeID(d.varint())
		for k, m := 0, int(d.uvarint()); k < m && d.err == nil; k++ {
			st.RelSeen[from] = append(st.RelSeen[from], d.uvarint())
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("durable: snapshot: %w", err)
	}
	return st, nil
}

// decoder is a sticky-error reader over one record payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("durable: short uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("durable: short varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("durable: short string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) update() store.Update {
	return store.Update{
		TxnID: d.str(),
		Key:   d.str(),
		Data:  d.str(),
		Seq:   d.uvarint(),
		Stamp: d.varint(),
	}
}

func (d *decoder) agentID() agent.ID {
	return agent.ID{
		Home: runtime.NodeID(d.varint()),
		Born: d.varint(),
		Seq:  d.uvarint(),
	}
}

func (d *decoder) storeState() store.State {
	var ss store.State
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ss.Log = append(ss.Log, d.update())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ss.Tentative = append(ss.Tentative, d.update())
	}
	return ss
}

func (d *decoder) lock() LockState {
	ls := LockState{
		Epoch:        d.uvarint(),
		LLVersion:    d.uvarint(),
		HeadVersion:  d.uvarint(),
		Grant:        d.agentID(),
		GrantAttempt: int(d.varint()),
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ls.LL = append(ls.LL, d.agentID())
	}
	return ls
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("durable: %d trailing bytes", len(d.b))
	}
	return nil
}
