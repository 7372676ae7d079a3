package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/store"
	"repro/internal/wal"
)

// The live workloads run three live.StartNode replicas in this process over
// loopback TCP, with the WAL at fsync=commit on an in-memory disk whose
// sync is modelled at 100µs, group commit and pipelined migration acks on:
// the A9 live-speed experiment's "all three" row.
const (
	liveNodes    = 3
	liveSync     = 100 * time.Microsecond
	liveGroup    = 100 * time.Microsecond
	liveAckDelay = 500 * time.Microsecond
	// pollEvery is the commit poll's fallback period when no bell wakes
	// it. Every write in a trial so far was seen on a bell, so the
	// fallback only bounds the damage if one is missed; it is kept long
	// to leave the actor loops alone.
	pollEvery = 10 * time.Millisecond
	// spinFor is how early the open-loop generator stops sleeping and
	// yields in a loop instead, so requests go out when due.
	spinFor = 50 * time.Microsecond
	// probeEvery spaces the traced run's actor-loop probes.
	probeEvery = 5 * time.Millisecond
	// closedInFlight is how many writes the closed loop keeps outstanding.
	closedInFlight = 32
	// drainTimeout bounds the wait for the last outstanding requests;
	// what is not done by then counts as failed.
	drainTimeout = 20 * time.Second
	// convergeTimeout bounds the wait for every replica to hold every
	// commit before the logs are compared.
	convergeTimeout = 15 * time.Second
)

var liveSpread = &scenario{
	name:    "live-spread",
	why:     "closed loop of writes over 64 shards and 1,024 keys: write mechanics (codec, fabric, agent hop, WAL group commit, actor loops) dominate, locking is spread thin",
	primary: "commits_per_s",
	gen: func(seed int64) any {
		return &liveInput{seed: seed, shards: 64, keys: 1024, count: 2500}
	},
}

var liveHotkey = &scenario{
	name:    "live-hotkey",
	why:     "open loop, Poisson 100 writes/s + 100 quorum reads/s on 1 shard and 8 keys: contention on the Locking Lists, reads compete with writes for the actor loops",
	primary: "write_p50_ms",
	gen: func(seed int64) any {
		return &liveInput{seed: seed, shards: 1, keys: 8, count: 500, rate: 200}
	},
}

func init() {
	for _, w := range []*scenario{liveSpread, liveHotkey} {
		w.run = func(in any, i int, tr *tracer) (*trial, error) {
			return runLive(in.(*liveInput), in.(*liveInput).opsFor(i), tr)
		}
		w.setup = func(in any) (time.Duration, error) {
			start := time.Now()
			lc, err := startLive(in.(*liveInput))
			if err != nil {
				return 0, err
			}
			d := time.Since(start)
			lc.close()
			return d, nil
		}
	}
}

// liveOp is one client request of a live workload.
type liveOp struct {
	due  int64 // ns after the measured phase starts (open loop only)
	home runtime.NodeID
	key  string
	read bool
}

// liveInput is a live workload's parameters; opsFor generates each
// trial's requests from them and the seed.
type liveInput struct {
	seed   int64
	shards int
	keys   int
	count  int     // requests per trial
	rate   float64 // open-loop requests per second; 0 = closed loop
}

// opsFor generates trial i's requests. A closed loop replays the same
// writes in every trial. An open loop draws a fresh schedule per trial:
// exactly count arrivals spread uniformly over count/rate seconds (a
// Poisson process conditioned on its count), half of them writes and half
// quorum reads, so trials differ in timing but not in offered load.
func (in *liveInput) opsFor(i int) []liveOp {
	seed := in.seed
	if in.rate > 0 {
		seed = in.seed*1000 + int64(i)
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]liveOp, in.count)
	for k := range ops {
		ops[k] = liveOp{
			home: runtime.NodeID(1 + rng.Intn(liveNodes)),
			key:  "k" + strconv.Itoa(rng.Intn(in.keys)),
		}
	}
	if in.rate > 0 {
		dues := make([]float64, in.count)
		for k := range dues {
			dues[k] = rng.Float64() * float64(in.count) / in.rate
		}
		sort.Float64s(dues)
		perm := rng.Perm(in.count)
		for k := range ops {
			ops[k].due = int64(dues[k] * 1e9)
			ops[k].read = perm[k] < in.count/2
		}
	}
	return ops
}

// liveCluster is the three in-process replicas plus a referee shared by
// all of them, which restores the cross-replica view of Theorem 2 that the
// simulator's in-process referee has for free.
type liveCluster struct {
	nodes  []*live.Node
	shards int
	refMu  sync.Mutex
	ref    *core.Referee
	grants map[[2]int]agent.ID // (server, shard) -> grant holder; under refMu
	// bell rings, without blocking, when a replica releases a grant held by
	// an agent whose home it is, which it does as it applies that agent's
	// commit. The commit poll wakes on it and scans the dirty replicas.
	bell   chan struct{}
	dirty  [liveNodes]atomic.Bool
	rungAt atomic.Int64 // when bell last rang
}

// startLive brings the cluster up and commits one warm-up write from each
// replica, so that every peer connection is dialled before timing starts.
// Ports are reserved by listening on port 0 and closing again, so another
// socket can take one before its node listens on it; a start that loses
// that race is retried on fresh ports.
func startLive(in *liveInput) (*liveCluster, error) {
	for attempt := 1; ; attempt++ {
		lc, err := startLiveOnce(in)
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			return lc, err
		}
	}
}

func startLiveOnce(in *liveInput) (*liveCluster, error) {
	lc := &liveCluster{shards: in.shards, grants: map[[2]int]agent.ID{}, bell: make(chan struct{}, 1)}
	lc.ref = core.NewReferee(liveNodes, func() runtime.Time { return runtime.Time(now()) })
	addrs := make(map[runtime.NodeID]string, liveNodes)
	for i := 1; i <= liveNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[runtime.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	dur := &core.DurabilityConfig{
		Policy: wal.PolicyCommit,
		Backend: func(runtime.NodeID) disk.Backend {
			return disk.WithSyncLatency(disk.NewMem(), liveSync)
		},
		GroupCommitDelay: liveGroup,
	}
	for i := 1; i <= liveNodes; i++ {
		node, err := live.StartNode(live.NodeConfig{
			Self:  runtime.NodeID(i),
			Addrs: addrs,
			Seed:  in.seed*10 + int64(i),
			Codec: "wire",
			Cluster: core.Config{
				Shards:           in.shards,
				MigrationTimeout: 300 * time.Millisecond,
				ClaimTimeout:     500 * time.Millisecond,
				RetryInterval:    100 * time.Millisecond,
				RetryBackoff:     10 * time.Millisecond,
				MigrateAckDelay:  liveAckDelay,
				Durability:       dur,
				OnGrant:          lc.onGrant,
			},
		})
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, node)
	}
	for i, n := range lc.nodes {
		id := runtime.NodeID(i + 1)
		var err error
		if !n.Eng.Do(func() { err = n.Cluster.Submit(id, core.Set("warm"+strconv.Itoa(i), "warm")) }) || err != nil {
			lc.close()
			return nil, fmt.Errorf("warm-up submit at %d: %v", id, err)
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for lc.minLogLen() < liveNodes {
		if time.Now().After(deadline) {
			lc.close()
			return nil, fmt.Errorf("warm-up writes did not commit within %v", convergeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return lc, nil
}

func (lc *liveCluster) onGrant(server runtime.NodeID, shrd int, txn agent.ID) {
	key := [2]int{int(server), shrd}
	lc.refMu.Lock()
	lc.ref.OnGrant(server, shrd, txn)
	prev := lc.grants[key]
	lc.grants[key] = txn
	lc.refMu.Unlock()
	if txn.IsZero() && prev.Home == server {
		lc.dirty[server-1].Store(true)
		lc.rungAt.Store(now())
		select {
		case lc.bell <- struct{}{}:
		default:
		}
	}
}

func (lc *liveCluster) close() {
	for _, n := range lc.nodes {
		n.Close()
	}
}

// do runs fn on replica i's actor loop and waits for it. The engines
// close only in close, after every caller is done, so fn always runs.
func (lc *liveCluster) do(i int, fn func(c *core.Cluster, srv *replica.Server)) {
	n := lc.nodes[i]
	n.Eng.Do(func() { fn(n.Cluster, n.Cluster.Server(runtime.NodeID(i+1))) })
}

// logLens returns each replica's committed update count per shard.
func (lc *liveCluster) logLens() [][]int {
	out := make([][]int, len(lc.nodes))
	for i := range lc.nodes {
		lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			for s := 0; s < lc.shards; s++ {
				out[i] = append(out[i], srv.StoreOf(s).LogLen())
			}
		})
	}
	return out
}

// minLogLen is the smallest committed update count of any replica.
func (lc *liveCluster) minLogLen() int {
	m := -1
	for _, lens := range lc.logLens() {
		n := 0
		for _, l := range lens {
			n += l
		}
		if m < 0 || n < m {
			m = n
		}
	}
	return m
}

// converged reports whether every replica holds as many updates as every
// other on each shard.
func (lc *liveCluster) converged() bool {
	lens := lc.logLens()
	for _, l := range lens[1:] {
		if !slices.Equal(l, lens[0]) {
			return false
		}
	}
	return true
}

// gather sums one named metric over the replicas' registries.
func gather(snaps []metrics.Snapshot, name string) float64 {
	var v float64
	for _, s := range snaps {
		v += s.Value(name)
	}
	return v
}

func (lc *liveCluster) snapshots() []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(lc.nodes))
	for i := range lc.nodes {
		lc.do(i, func(c *core.Cluster, _ *replica.Server) { out[i] = c.Metrics().Gather() })
	}
	return out
}

func (lc *liveCluster) outcomes() [][]core.Outcome {
	out := make([][]core.Outcome, len(lc.nodes))
	for i := range lc.nodes {
		lc.do(i, func(c *core.Cluster, _ *replica.Server) { out[i] = c.Outcomes() })
	}
	return out
}

// watcher is the commit poll. Its goroutine passes over the replicas when
// the cluster's bell rings, or pollEvery after its last pass, scans each
// one's new log entries, and reports a benchmark write on seenc the first
// time it appears at its home replica. In a traced trial it also probes
// the actor loops.
type watcher struct {
	lc     *liveCluster
	ops    []liveOp
	traced bool
	seenc  chan int // one send per write at most, so sized to len(ops)
	stop   chan struct{}
	wg     sync.WaitGroup

	// Owned by the poll goroutine until end returns.
	seen      [][]uint64 // per replica, per shard: last sequence number scanned
	done      []int64    // per op: when its commit was seen at home, 0 = not yet
	spans     []span     // poll passes and probes, when traced
	lags      []float64  // µs from a bell to the pass it triggered
	llDepth   int        // deepest Locking List a probe saw
	lastProbe int64
}

func startWatcher(lc *liveCluster, ops []liveOp, traced bool) *watcher {
	w := &watcher{
		lc: lc, ops: ops, traced: traced,
		seenc: make(chan int, len(ops)),
		stop:  make(chan struct{}),
		done:  make([]int64, len(ops)),
	}
	for i := range lc.nodes {
		w.seen = append(w.seen, make([]uint64, lc.shards))
		lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			for s := range w.seen[i] {
				w.seen[i][s] = srv.StoreOf(s).LastSeq()
			}
		})
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		pause := time.NewTimer(pollEvery)
		defer pause.Stop()
		all := true
		for {
			w.poll(all)
			w.probe()
			pause.Reset(pollEvery)
			select {
			case <-w.stop:
				return
			case <-lc.bell:
				w.lags = append(w.lags, float64(now()-lc.rungAt.Load())/1e3)
				all = false
			case <-pause.C:
				all = true
			}
		}
	}()
	return w
}

// end stops the poll goroutine and waits for it to exit.
func (w *watcher) end() {
	close(w.stop)
	w.wg.Wait()
}

func (w *watcher) span(name string, start int64) {
	if w.traced {
		w.spans = append(w.spans, span{name: name, start: start, end: now(), parent: -1, req: -1})
	}
}

// opData is the value the benchmark writes for op k; opIndex inverts it.
func opData(k int) string { return "b" + strconv.Itoa(k) }

func opIndex(data string) (int, bool) {
	if len(data) < 2 || data[0] != 'b' {
		return 0, false
	}
	k, err := strconv.Atoi(data[1:])
	return k, err == nil
}

// poll makes one pass over the dirty replicas, or over all of them.
func (w *watcher) poll(all bool) {
	start := now()
	for i := range w.lc.nodes {
		if !w.lc.dirty[i].Swap(false) && !all {
			continue
		}
		id := runtime.NodeID(i + 1)
		w.lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			t := now()
			for s, last := range w.seen[i] {
				st := srv.StoreOf(s)
				if st.LastSeq() == last {
					continue
				}
				for _, u := range st.UpdatesSince(last) {
					if k, ok := opIndex(u.Data); ok && k < len(w.ops) && w.ops[k].home == id && w.done[k] == 0 {
						w.done[k] = t
						w.seenc <- k
					}
				}
				w.seen[i][s] = st.LastSeq()
			}
		})
	}
	w.span("bench.poll", start)
}

// probe, in a traced trial, times a no-op call through every actor loop
// and samples the Locking List depth.
func (w *watcher) probe() {
	t := now()
	if !w.traced || t-w.lastProbe < int64(probeEvery) {
		return
	}
	w.lastProbe = t
	for i, n := range w.lc.nodes {
		start := now()
		n.Eng.Do(func() {})
		w.span("live.probe", start)
		w.lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			for s := 0; s < w.lc.shards; s++ {
				w.llDepth = max(w.llDepth, srv.QueueLen(s))
			}
		})
	}
}

// liveRun is the state of one live trial, whose requests are all issued
// from one goroutine.
type liveRun struct {
	in  *liveInput
	ops []liveOp
	lc  *liveCluster
	w   *watcher
	tr  *tracer
	t   *trial
	lat []int64 // per op: when its latency clock started (due or call)

	refused   []bool
	readsDone atomic.Int64
	readAt    []atomic.Int64 // per op: when the read's callback ran
	readVal   []string       // written by the callback before readAt
	readFound []bool
}

// issue sends op k, starting its latency clock at due (open loop) or at
// the call (closed loop), and records whether the replica refused it.
func (r *liveRun) issue(k int, due int64) {
	op := r.ops[k]
	node := r.lc.nodes[op.home-1]
	start := now()
	if due == 0 {
		due = start
	} else {
		r.tr.add("gen.wait", due, start, int64(k))
	}
	r.lat[k] = due
	var err error
	var ok bool
	if op.read {
		ok = node.Eng.Do(func() {
			err = node.Cluster.ReadQuorumAsync(op.home, op.key, func(v store.Value, found bool) {
				r.readVal[k], r.readFound[k] = v.Data, found
				r.readAt[k].Store(now())
				r.readsDone.Add(1)
			})
		})
		r.tr.add("live.read_call", start, now(), int64(k))
	} else {
		ok = node.Eng.Do(func() { err = node.Cluster.Submit(op.home, core.Set(op.key, opData(k))) })
		r.tr.add("live.submit", start, now(), int64(k))
	}
	r.refused[k] = !ok || err != nil
}

func runLive(in *liveInput, ops []liveOp, tr *tracer) (*trial, error) {
	t := &trial{layer: map[string]float64{}}
	start := time.Now()
	lc, err := startLive(in)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	t.setup = time.Since(start)

	n := len(ops)
	r := &liveRun{
		in: in, ops: ops, lc: lc, tr: tr, t: t,
		lat:       make([]int64, n),
		refused:   make([]bool, n),
		readAt:    make([]atomic.Int64, n),
		readVal:   make([]string, n),
		readFound: make([]bool, n),
	}
	before := lc.snapshots()
	outsBefore := lc.outcomes()
	goBefore := readGoStats()
	heap := watchHeap()
	r.w = startWatcher(lc, ops, tr.on)
	if in.rate == 0 {
		r.closedLoop()
	} else {
		r.openLoop()
	}
	r.w.end()
	goLayer(t, goBefore, readGoStats(), n)
	t.heapPeak = heap.end()
	tr.spans = append(tr.spans, r.w.spans...)
	after := lc.snapshots()
	if err := r.account(before, after, outsBefore); err != nil {
		return t, err
	}
	return t, r.check()
}

// closedLoop keeps closedInFlight writes outstanding, issuing the next one
// as each is seen committed, until every write is done or refused or no
// commit has been seen for drainTimeout.
func (r *liveRun) closedLoop() {
	n := len(r.ops)
	next, inflight, finished := 0, 0, 0
	fill := func() {
		for inflight < closedInFlight && next < n {
			r.issue(next, 0)
			if r.refused[next] {
				finished++
			} else {
				inflight++
			}
			next++
		}
	}
	fill()
	idle := time.NewTimer(drainTimeout)
	defer idle.Stop()
	for finished < n {
		select {
		case <-r.w.seenc:
			inflight--
			finished++
			fill()
			idle.Reset(drainTimeout)
		case <-idle.C:
			return
		}
	}
}

// openLoop issues every op when it is due, then waits for the stragglers
// until drainTimeout after the last one was due.
func (r *liveRun) openLoop() {
	n := len(r.ops)
	base := now() + int64(time.Millisecond)
	for k, op := range r.ops {
		due := base + op.due
		sleepUntil(due)
		r.issue(k, due)
	}
	writes, reads := 0, 0
	for k, op := range r.ops {
		switch {
		case r.refused[k]:
		case op.read:
			reads++
		default:
			writes++
		}
	}
	deadline := time.NewTimer(time.Duration(base + r.ops[n-1].due + int64(drainTimeout) - now()))
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	seen := 0
	for seen < writes || int(r.readsDone.Load()) < reads {
		select {
		case <-r.w.seenc:
			seen++
		case <-tick.C:
		case <-deadline.C:
			return
		}
	}
}

// account turns the trial's observations into its latencies and layer
// rows. Only the benchmark's own clock times requests: core.Outcome
// timestamps mix the clocks of the engines an agent visited, so outcomes
// contribute counts (visits, retries, ties) only.
func (r *liveRun) account(before, after []metrics.Snapshot, outsBefore [][]core.Outcome) error {
	t, tr := r.t, r.tr
	// Ops are issued in order, so the first one started the first clock.
	first, lastDone := r.lat[0], int64(0)
	var commitTimes []float64
	for k, op := range r.ops {
		t.attempted++
		var end int64
		switch {
		case r.refused[k]:
		case op.read:
			end = r.readAt[k].Load()
		default:
			end = r.w.done[k]
		}
		if end == 0 {
			t.failed++
			continue
		}
		ms := float64(end-r.lat[k]) / 1e6
		if op.read {
			t.readMs = append(t.readMs, ms)
			tr.add("read", r.lat[k], end, int64(k))
			if r.readFound[k] {
				if j, ok := opIndex(r.readVal[k]); !ok || j >= len(r.ops) || r.ops[j].key != op.key || r.ops[j].read {
					return violationf("quorum read of %s at replica %d returned %q, which no write to that key wrote", op.key, op.home, r.readVal[k])
				}
			}
			continue
		}
		t.commits++
		t.writeMs = append(t.writeMs, ms)
		commitTimes = append(commitTimes, float64(end))
		lastDone = max(lastDone, end)
		tr.add("write", r.lat[k], end, int64(k))
	}
	if t.commits == 0 {
		return fmt.Errorf("no write committed")
	}
	t.wall = time.Duration(lastDone - first)
	t.msgs = int(gather(after, "marp.fabric.messages_sent") - gather(before, "marp.fabric.messages_sent"))

	if !tr.on {
		return nil
	}
	link(tr.spans, "write", "read")
	commits := float64(t.commits)
	delta := func(name string) float64 { return gather(after, name) - gather(before, name) }
	L := t.layer
	L["live.actor_wait_p50_us"] = percentile(durations(tr.spans, "live.probe", time.Microsecond), 50)
	L["live.actor_wait_p99_us"] = percentile(durations(tr.spans, "live.probe", time.Microsecond), 99)
	L["live.submit_call_p50_us"] = percentile(durations(tr.spans, "live.submit", time.Microsecond), 50)
	L["live.inflight_p50_ms"] = percentile(selfTimes(tr.spans, "write", time.Millisecond), 50)
	L["fabric.msgs_per_commit"] = delta("marp.fabric.messages_sent") / commits
	L["fabric.bytes_per_commit"] = delta("marp.fabric.bytes_sent") / commits
	L["fabric.drops"] = delta("marp.fabric.messages_dropped") + delta("marp.fabric.messages_lost") + delta("marp.fabric.queue_drops")
	L["agent.migrations_per_commit"] = delta("marp.agent.migrations_started") / commits
	L["agent.migrations_failed"] = delta("marp.agent.migrations_failed")
	L["wal.appends_per_commit"] = delta("marp.wal.appends") / commits
	L["wal.fsyncs_per_commit"] = delta("marp.disk.syncs") / commits
	L["wal.group_batches"] = delta("marp.wal.group_batches")
	L["disk.sync_busy_pct"] = delta("marp.wal.fsync_seconds") / (t.wall.Seconds() * liveNodes) * 100
	L["core.ll_depth_max"] = float64(r.w.llDepth)
	L["core.cps_decay"] = cpsDecay(commitTimes, float64(first))
	L["gen.late_p99_ms"] = percentile(durations(tr.spans, "gen.wait", time.Millisecond), 99)
	L["bench.observe_lag_p50_us"] = percentile(r.w.lags, 50)
	outcomeLayer(L, r.lc.outcomes(), outsBefore)
	for i := range r.lc.nodes {
		r.lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			L["core.gone_len"] = max(L["core.gone_len"], float64(len(srv.Gone())))
		})
	}
	return nil
}

// outcomeLayer fills the core rows from the outcomes recorded during the
// measured phase: counts only, never the timestamps.
func outcomeLayer(L map[string]float64, outs, before [][]core.Outcome) {
	var n, visits, retries, ties float64
	for i, o := range outs {
		skip := 0
		if before != nil {
			skip = len(before[i])
		}
		for _, oc := range o[skip:] {
			if oc.Failed {
				continue
			}
			n++
			visits += float64(oc.Visits)
			retries += float64(oc.Retries)
			if oc.ByTie {
				ties++
			}
		}
	}
	if n > 0 {
		L["core.visits_per_commit"] = visits / n
		L["core.retries_per_commit"] = retries / n
		L["core.tie_pct"] = ties / n * 100
	}
}

// link points every span of a request at that request's root span.
func link(spans []span, roots ...string) {
	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	rootOf := map[int64]int32{}
	for i, s := range spans {
		if isRoot[s.name] {
			rootOf[s.req] = int32(i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !isRoot[s.name] && s.req >= 0 {
			if p, ok := rootOf[s.req]; ok {
				s.parent = p
			}
		}
	}
}

// cpsDecay is the last third's commit rate over the first third's, from
// the commit times (any unit) and the time the work started.
func cpsDecay(times []float64, start float64) float64 {
	n := len(times)
	if n < 6 {
		return 0
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	third := n / 3
	firstDur := s[third-1] - start
	lastDur := s[n-1] - s[n-1-third]
	if lastDur <= 0 {
		return 0
	}
	return firstDur / lastDur
}

// check runs the correctness checks once the trial is drained: the shared
// referee saw no Theorem 2 violation, every replica holds the identical log
// per shard, and every write seen committed at its home is in every log
// exactly once.
func (r *liveRun) check() error {
	lc := r.lc
	lc.refMu.Lock()
	refErr := lc.ref.Err()
	lc.refMu.Unlock()
	if refErr != nil {
		return violationf("%v", refErr)
	}
	deadline := time.Now().Add(convergeTimeout)
	for !lc.converged() {
		if time.Now().After(deadline) {
			return violationf("replicas did not converge within %v: per-shard log lengths %v", convergeTimeout, lc.logLens())
		}
		time.Sleep(time.Millisecond)
	}
	logs := make([][][]store.Update, len(lc.nodes))
	for i := range lc.nodes {
		lc.do(i, func(_ *core.Cluster, srv *replica.Server) {
			for s := 0; s < lc.shards; s++ {
				logs[i] = append(logs[i], srv.StoreOf(s).Log())
			}
		})
	}
	for s := 0; s < lc.shards; s++ {
		ref := logs[0][s]
		for i := 1; i < len(logs); i++ {
			got := logs[i][s]
			if len(got) != len(ref) {
				return violationf("shard %d: replica %d has %d updates, replica 1 has %d", s, i+1, len(got), len(ref))
			}
			for j := range got {
				if got[j] != ref[j] {
					return violationf("shard %d: replica %d log[%d] = %+v, replica 1 has %+v", s, i+1, j, got[j], ref[j])
				}
			}
		}
	}
	for i := range logs {
		count := make([]int, len(r.ops))
		for _, log := range logs[i] {
			for _, u := range log {
				if k, ok := opIndex(u.Data); ok && k < len(count) {
					if r.ops[k].key != u.Key {
						return violationf("replica %d committed %q under key %s, written to %s", i+1, u.Data, u.Key, r.ops[k].key)
					}
					count[k]++
				}
			}
		}
		for k, c := range count {
			if c > 1 || (c == 0 && r.w.done[k] != 0) {
				return violationf("write %d (seen committed at home: %v) is %d times in replica %d's log", k, r.w.done[k] != 0, c, i+1)
			}
		}
	}
	return nil
}

// sleepUntil returns at t on the benchmark's clock. It sleeps in the
// kernel, because time.Sleep wakes up to a millisecond late on Linux, and
// yields in a loop for the last spinFor.
func sleepUntil(t int64) {
	if d := t - now() - int64(spinFor); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is caught by the loop below
	}
	for now() < t {
		goruntime.Gosched()
	}
}
