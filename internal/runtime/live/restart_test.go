package live_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// TestLiveRestartRecoversFromDisk is the in-process version of the
// kill-and-restart walkthrough in the README: three durable replicas, one
// stops without closing its journal (as a crashed process would), misses a
// round of commits, and comes back under the same data directory. Restart
// must replay its own commits from the WAL before the socket even opens,
// then pull the missed round via anti-entropy, then keep winning locks.
func TestLiveRestartRecoversFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 3
	addrs := freeAddrs(t, n)
	ref := newSharedReferee(n)
	dirs := make([]string, n+1)
	for i := 1; i <= n; i++ {
		dirs[i] = t.TempDir()
	}
	start := func(i int) *live.Node {
		node, err := live.StartNode(live.NodeConfig{
			Self:    runtime.NodeID(i),
			Addrs:   addrs,
			Seed:    int64(100 + i),
			DataDir: dirs[i],
			Fsync:   "commit",
			Cluster: core.Config{OnGrant: ref.onGrant},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		return node
	}
	nodes := make([]*live.Node, n)
	for i := 1; i <= n; i++ {
		nodes[i-1] = start(i)
	}
	closed := false
	defer func() {
		for i, node := range nodes {
			if node != nil && !(closed && i == 2) {
				node.Close()
			}
		}
	}()

	// Round 1: everybody commits.
	const perNode = 2
	for i, node := range nodes {
		home := runtime.NodeID(i + 1)
		for s := 1; s <= perNode; s++ {
			submitAt(t, node, home, core.Set(fmt.Sprintf("r1-k%d-%d", home, s), "v"))
		}
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, n*perNode, 10*time.Second)

	// Node 3 dies abruptly: fabric and loop go down, the journal is never
	// closed — exactly what kill -9 leaves behind.
	nodes[2].Fab.Close()
	nodes[2].Eng.Close()
	closed = true

	// Round 2 commits on the surviving majority.
	for i := 0; i < 2; i++ {
		home := runtime.NodeID(i + 1)
		submitAt(t, nodes[i], home, core.Set(fmt.Sprintf("r2-k%d", home), "v"))
	}
	for i := 0; i < 2; i++ {
		if err := nodes[i].Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}

	// Restart under the same data directory. Recovery is synchronous inside
	// StartNode, so by the time it returns the replica already holds every
	// commit it acked before dying — before any peer has said a word.
	nodes[2] = start(3)
	closed = false
	if got := len(localLog(t, nodes[2], 3)); got < n*perNode {
		t.Fatalf("right after restart the log has %d commits, want >= %d from the WAL", got, n*perNode)
	}

	// Anti-entropy supplies round 2, and the reborn node can still win
	// locks itself (its new agent IDs must not collide with its own
	// persisted gone set).
	submitAt(t, nodes[2], 3, core.Set("r2-k3", "v"))
	if err := nodes[2].Cluster.RunUntilDone(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, n*perNode+3, 15*time.Second)

	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}
}

// TestStartNodeUnderTraffic restarts a durable replica again and again
// while its peers keep submitting, so agents and protocol messages arrive
// on its actor loop while StartNode is still building the cluster. The
// cluster (journal replay included) must be built on that loop; built on
// the caller's goroutine, -race reports the arriving agent reading the
// server table NewCluster is still writing.
func TestStartNodeUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 3
	addrs := freeAddrs(t, n)
	dirs := make([]string, n+1)
	for i := 1; i <= n; i++ {
		dirs[i] = t.TempDir()
	}
	start := func(i int) *live.Node {
		node, err := live.StartNode(live.NodeConfig{
			Self:    runtime.NodeID(i),
			Addrs:   addrs,
			Seed:    int64(100 + i),
			DataDir: dirs[i],
			Fsync:   "none",
			Cluster: core.Config{MigrationTimeout: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		return node
	}
	peers := []*live.Node{start(2), start(3)}
	stop := make(chan struct{})
	done := make(chan struct{}, len(peers))
	for i, node := range peers {
		home := runtime.NodeID(i + 2)
		go func() {
			defer func() { done <- struct{}{} }()
			for s := 0; ; s++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				node.Eng.Do(func() { _ = node.Cluster.Submit(home, core.Set(fmt.Sprintf("k%d", s%8), "v")) })
			}
		}()
	}
	for round := 0; round < 40; round++ {
		start(1).Close()
	}
	close(stop)
	for range peers {
		<-done
	}
	for _, node := range peers {
		node.Close()
	}
}
