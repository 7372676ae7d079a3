package durable

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/agent"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wal"
)

func upd(i int) store.Update {
	return store.Update{
		TxnID: fmt.Sprintf("txn-%03d", i),
		Key:   fmt.Sprintf("key-%d", i%3),
		Data:  fmt.Sprintf("value-%03d", i),
		Seq:   uint64(i),
		Stamp: int64(1000 * i),
	}
}

func aid(n, seq int) agent.ID {
	return agent.ID{Home: runtime.NodeID(n), Born: int64(n * 17), Seq: uint64(seq)}
}

func TestJournalRoundTrip(t *testing.T) {
	m := disk.NewMem()
	j, st, err := Open(m, Options{Policy: wal.PolicyCommit})
	if err != nil || st != nil {
		t.Fatalf("fresh Open = %v, state %v", err, st)
	}
	// Drive a store through the journal the way a replica does.
	s := store.New()
	s.SetJournal(j)
	for i := 1; i <= 5; i++ {
		if err := s.ApplyCommitted(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Prepare(upd(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(upd(6).TxnID); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(upd(7)); err != nil {
		t.Fatal(err)
	}
	s.Abort(upd(7).TxnID)
	if err := s.Prepare(upd(7)); err != nil {
		t.Fatal(err) // staged tentative, never committed
	}
	ls := LockState{
		Epoch: 2, LLVersion: 9, HeadVersion: 7,
		LL:    []agent.ID{aid(1, 1), aid(2, 1)},
		Grant: aid(1, 1), GrantAttempt: 3,
	}
	j.LogLock(0, ls, true)
	j.LogGone(aid(3, 1))
	j.NextSeq(1)
	j.Seen(4, 11)
	j.Seen(4, 12)
	j.Close()

	j2, st2, err := Open(m, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st2 == nil {
		t.Fatal("reopen returned nil state")
	}
	if got := len(st2.Stores[0].Log); got != 6 {
		t.Fatalf("replayed %d committed updates, want 6", got)
	}
	for i, u := range st2.Stores[0].Log {
		if u != upd(i+1) {
			t.Fatalf("log[%d] = %+v, want %+v", i, u, upd(i+1))
		}
	}
	if len(st2.Stores[0].Tentative) != 1 || st2.Stores[0].Tentative[0] != upd(7) {
		t.Fatalf("tentative = %+v, want [upd(7)]", st2.Stores[0].Tentative)
	}
	if !reflect.DeepEqual(st2.Locks, []LockState{ls}) {
		t.Fatalf("locks = %+v, want [%+v]", st2.Locks, ls)
	}
	if len(st2.Gone) != 1 || st2.Gone[0] != aid(3, 1) {
		t.Fatalf("gone = %+v", st2.Gone)
	}
	if st2.RelNextSeq != relNextStride {
		t.Fatalf("RelNextSeq = %d, want the first stride %d", st2.RelNextSeq, relNextStride)
	}
	if !reflect.DeepEqual(st2.RelSeen[4], []uint64{11, 12}) {
		t.Fatalf("RelSeen[4] = %v", st2.RelSeen[4])
	}
}

func TestCompactionSupersedesRecords(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.SetJournal(j)
	for i := 1; i <= 10; i++ {
		s.ApplyCommitted(upd(i))
	}
	j.AddSource(func(ds *State) {
		ds.Stores = []store.State{s.State()}
		ds.Locks = []LockState{{Epoch: 1}}
	})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 12; i++ {
		s.ApplyCommitted(upd(i))
	}
	j.Close()

	_, st, err := Open(m, Options{})
	if err != nil || st == nil {
		t.Fatalf("reopen: %v, %v", err, st)
	}
	if len(st.Stores[0].Log) != 12 || st.Locks[0].Epoch != 1 {
		t.Fatalf("after compaction: %d updates, epoch %d", len(st.Stores[0].Log), st.Locks[0].Epoch)
	}
	rebuilt := store.FromState(st.Stores[0])
	if rebuilt.LastSeq() != 12 {
		t.Fatalf("rebuilt LastSeq = %d", rebuilt.LastSeq())
	}
}

func TestMaybeCompactTriggersAtThreshold(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyNone, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.SetJournal(j)
	j.AddSource(func(ds *State) { ds.Stores = []store.State{s.State()} })
	for i := 1; i <= 20; i++ {
		s.ApplyCommitted(upd(i))
		j.MaybeCompact()
	}
	if snaps := j.Stats().Snapshots; snaps < 2 {
		t.Fatalf("Snapshots = %d, want >= 2 at CompactEvery=8 over 20 records", snaps)
	}
	j.Close()
	_, st, err := Open(m, Options{})
	if err != nil || len(st.Stores[0].Log) != 20 {
		t.Fatalf("reopen: %v, %d updates", err, len(st.Stores[0].Log))
	}
}

func TestRelNextStrideNeverReusesSequence(t *testing.T) {
	// Crash after any number of sends: the restored counter must be at
	// least the highest sequence number ever handed out.
	for _, sends := range []int{1, relNextStride - 1, relNextStride, relNextStride + 1, 3 * relNextStride} {
		m := disk.NewMem()
		j, _, _ := Open(m, Options{Policy: wal.PolicyAlways})
		for seq := 1; seq <= sends; seq++ {
			j.NextSeq(uint64(seq))
		}
		j.Kill() // crash: PolicyAlways synced every record
		_, st, err := Open(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || st.RelNextSeq < uint64(sends) {
			t.Fatalf("after %d sends, restored RelNextSeq = %v", sends, st)
		}
	}
}

func TestNextSeqIsDurableBeforeTheSend(t *testing.T) {
	// recRelNext is a commit barrier: under the default PolicyCommit the
	// high-water mark must be on disk before the stride's first message
	// leaves the node. A crash right after NextSeq — with no other commit in
	// between — must still restore the full stride, or the restarted node
	// would reuse sequence numbers its peers' dedup tables silently swallow.
	m := disk.NewMem()
	j, _, _ := Open(m, Options{Policy: wal.PolicyCommit})
	j.NextSeq(1)
	j.Kill()
	m.Crash()
	_, st, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.RelNextSeq != relNextStride {
		t.Fatalf("after crash, restored state = %+v, want RelNextSeq %d", st, relNextStride)
	}
}

func TestSnapshotKeepsSendCounterHighWater(t *testing.T) {
	// Sends between a snapshot and the journaled high-water write no
	// records; the snapshot must carry the high-water so they still cannot
	// be reused after a crash.
	m := disk.NewMem()
	j, _, _ := Open(m, Options{Policy: wal.PolicyAlways})
	j.NextSeq(1)                                       // journals high-water = relNextStride
	j.AddSource(func(ds *State) { ds.RelNextSeq = 1 }) // exact counter only
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	_, st, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RelNextSeq != relNextStride {
		t.Fatalf("RelNextSeq = %d, want high-water %d", st.RelNextSeq, relNextStride)
	}
}

func TestReplayFailsOnForeignRecord(t *testing.T) {
	m := disk.NewMem()
	l, _, _, _ := wal.Open(m, wal.Options{Policy: wal.PolicyAlways})
	l.Append(wal.Record{Type: 200, Data: []byte("not ours")}, true)
	l.Close()
	if _, _, err := Open(m, Options{}); err == nil {
		t.Fatal("Open replayed a record of unknown type")
	}

	// A lock record naming a shard the replica does not have is foreign
	// too: every lock record carries its shard.
	m = disk.NewMem()
	j, _, _ := Open(m, Options{Policy: wal.PolicyAlways, Shards: 4})
	j.LogLock(3, LockState{Epoch: 1}, true)
	j.Close()
	if _, st, err := Open(m, Options{Shards: 4}); err != nil || st.Locks[3].Epoch != 1 {
		t.Fatalf("4-shard reopen: %v, %+v", err, st)
	}
	if _, _, err := Open(m, Options{Shards: 2}); err == nil {
		t.Fatal("Open replayed a lock record for shard 3 into 2 shards")
	}
}

// TestQuickCrashPointReplaysCommitPrefix is the paper-facing durability
// property (ISSUE satellite): take a valid journal recording a committed
// update sequence, truncate its WAL at ANY byte (a simulated crash point
// under PolicyNone — the worst case), and the replayed store state must be
// a prefix of the committed sequence. Never a gap, never an invented
// update, never a replay error.
func TestQuickCrashPointReplaysCommitPrefix(t *testing.T) {
	const commits = 30
	segName := func(m *disk.Mem) string {
		names, _ := m.List()
		for _, n := range names {
			if len(n) > 4 && n[:4] == "wal-" {
				return n
			}
		}
		t.Fatal("no segment file")
		return ""
	}
	build := func() *disk.Mem {
		m := disk.NewMem()
		j, _, _ := Open(m, Options{Policy: wal.PolicyNone, CompactEvery: -1})
		s := store.New()
		s.SetJournal(j)
		for i := 1; i <= commits; i++ {
			if err := s.Prepare(upd(i)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(upd(i).TxnID); err != nil {
				t.Fatal(err)
			}
		}
		j.Sync() // make all bytes visible to Truncate-after-Crash
		j.Kill()
		return m
	}
	prop := func(cut uint16) bool {
		m := build()
		seg := segName(m)
		at := int(cut) % (m.Size(seg) + 1)
		if err := m.Truncate(seg, at); err != nil {
			return false
		}
		_, st, err := Open(m, Options{})
		if err != nil {
			return false
		}
		if st == nil {
			return true // truncated to nothing: the empty prefix
		}
		rebuilt := store.FromState(st.Stores[0])
		last := rebuilt.LastSeq()
		if last > commits {
			return false
		}
		log := rebuilt.Log()
		if uint64(len(log)) != last {
			return false
		}
		for i, u := range log {
			if u != upd(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingRejectsTrailingBytes(t *testing.T) {
	b := encodeUpdate(upd(3))
	if _, err := decodeUpdate(append(b, 0xAA)); err == nil {
		t.Fatal("decodeUpdate accepted trailing bytes")
	}
	if _, err := decodeUpdate(b[:len(b)-1]); err == nil {
		t.Fatal("decodeUpdate accepted a short buffer")
	}
}

func TestStateEncodingDeterministic(t *testing.T) {
	st := &State{
		Stores: []store.State{{Log: []store.Update{upd(1), upd(2)}}, {Log: []store.Update{upd(3)}}},
		Locks:  []LockState{{Epoch: 3, LL: []agent.ID{aid(2, 4)}}, {Epoch: 3, Grant: aid(1, 2)}},
		Gone:   []agent.ID{aid(1, 1)},
		RelSeen: map[runtime.NodeID][]uint64{
			5: {9, 2, 7},
			2: {1},
		},
		RelNextSeq: 64,
	}
	a := encodeState(st)
	b := encodeState(st)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encodeState not deterministic")
	}
	got, err := decodeState(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.RelSeen[5], []uint64{2, 7, 9}) {
		t.Fatalf("RelSeen sorted = %v", got.RelSeen[5])
	}
	if !reflect.DeepEqual(got.Stores, st.Stores) || !reflect.DeepEqual(got.Locks, st.Locks) || got.RelNextSeq != 64 {
		t.Fatalf("round trip: %+v", got)
	}
}
