package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The DES workloads run the paper's setting on the simulator: N=5, the LAN
// latency preset, one key, exponential arrivals with a 40ms mean per
// server — the unsaturated part of the F2/F3 curves. No TCP, codec or WAL
// is involved, so live-only changes are predicted not to move them.
const (
	desServers = 5
	desMean    = 40 * time.Millisecond
	// desSlice is the virtual time run between the benchmark's progress
	// readings (commit count and wall clock, for core.cps_decay).
	desSlice = 100 * time.Millisecond
	// desMaxVirtual bounds a trial's virtual time; a run that needs more
	// is reported as failed, not waited for.
	desMaxVirtual = 30 * time.Minute
)

var desPaper = &scenario{
	name:      "des-paper",
	why:       "MARP on the simulator, N=5, LAN, one key, 40ms mean arrivals: simulator speed (des, simnet, agent, core) and the paper's virtual-time figures",
	primary:   "commits_per_s",
	schedules: 4,
}

var desOptimistic = &scenario{
	name:      "des-optimistic",
	why:       "optimistic protocol on the same simulated setting with 8x the requests: optimistic and store.Staged, untouched by the MARP workloads",
	primary:   "commits_per_s",
	schedules: 8,
}

func init() {
	desPaper.gen = func(seed int64) any { return genDES(seed, desPaper.schedules, 500) }
	desOptimistic.gen = func(seed int64) any { return genDES(seed, desOptimistic.schedules, 4000) }
	desPaper.run = func(in any, i int, tr *tracer) (*trial, error) { return runPaper(schedule(in, i), tr) }
	desPaper.setup = func(in any) (time.Duration, error) {
		start := time.Now()
		_, err := setupPaper(schedule(in, 0), &desTrial{tr: &tracer{}})
		return time.Since(start), err
	}
	desOptimistic.run = func(in any, i int, tr *tracer) (*trial, error) { return runOptimistic(schedule(in, i), tr) }
	desOptimistic.setup = func(in any) (time.Duration, error) {
		start := time.Now()
		_, err := setupOptimistic(schedule(in, 0), &desTrial{tr: &tracer{}})
		return time.Since(start), err
	}
}

// desInput is one trial's inputs: the simulator's seed and the request
// schedule.
type desInput struct {
	seed   int64
	events []workload.Event
}

// genDES makes a DES workload's schedules; trial i runs schedule i mod n,
// so a seed's virtual-time figures do not depend on how many trials fit.
func genDES(seed int64, n, perServer int) []*desInput {
	var out []*desInput
	for i := 0; i < n; i++ {
		s := seed*1000 + int64(i)
		events, err := workload.Generate(workload.Spec{
			Servers:           desServers,
			RequestsPerServer: perServer,
			MeanInterarrival:  desMean,
			Keys:              1,
			Seed:              s,
		})
		if err != nil {
			panic(err) // the spec is constant and valid
		}
		out = append(out, &desInput{seed: s, events: events})
	}
	return out
}

func schedule(in any, i int) *desInput {
	all := in.([]*desInput)
	return all[i%len(all)]
}

// desTrial is the part of a DES trial shared by both protocols: it
// schedules the submits, runs the simulator in slices until drained, and
// records wall time against committed count.
type desTrial struct {
	t  *trial
	tr *tracer
	// progress is (wall ns, commits) after each slice, for cps_decay.
	progress [][2]float64
}

// submitSpan wraps one submit call made from inside the simulation.
func (d *desTrial) submitSpan(i int, call func() error) {
	start := now()
	_ = call() // a refused submit never commits; the trial counts it as failed
	d.tr.add("des.submit", start, now(), int64(i))
}

// drive runs the simulator until every event has been submitted and
// drained() holds, reading committed() after each slice and calling
// sample, if set, there too.
func (d *desTrial) drive(sim interface {
	RunFor(time.Duration)
	Now() runtime.Time
}, span time.Duration, drained func() bool, committed func() int, sample func()) error {
	start := now()
	for sim.Now().Duration() <= span || !drained() {
		if sim.Now().Duration() > desMaxVirtual {
			return fmt.Errorf("not drained after %v of virtual time", desMaxVirtual)
		}
		sim.RunFor(desSlice)
		d.progress = append(d.progress, [2]float64{float64(now()), float64(committed())})
		if sample != nil {
			sample()
		}
	}
	end := now()
	d.t.wall = time.Duration(end - start)
	d.tr.add("des.run", start, end, -1)
	return nil
}

// decay is core.cps_decay from the slice readings: the wall time the first
// third of the commits took over the time the last third took.
func (d *desTrial) decay(total int) float64 {
	var times []float64
	next := 1
	for _, p := range d.progress {
		for next <= int(p[1]) && next <= total {
			times = append(times, p[0])
			next++
		}
	}
	if len(d.progress) == 0 {
		return 0
	}
	return cpsDecay(times, d.progress[0][0])
}

func setupPaper(in *desInput, d *desTrial) (*desengine.Cluster, error) {
	cl, err := desengine.New(desengine.Config{
		Seed:    in.seed,
		Latency: simnet.LAN(),
		Cluster: core.Config{
			N: desServers,
			// The harness's LAN timer preset.
			MigrationTimeout: 20 * time.Millisecond,
			ClaimTimeout:     40 * time.Millisecond,
			RetryInterval:    40 * time.Millisecond,
			RetryBackoff:     4 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	for i, ev := range in.events {
		cl.Sim().After(ev.At, func() {
			d.submitSpan(i, func() error { return cl.Submit(ev.Home, core.Set(ev.Key, ev.Value)) })
		})
	}
	return cl, nil
}

func runPaper(in *desInput, tr *tracer) (*trial, error) {
	events := in.events
	t := &trial{layer: map[string]float64{}}
	d := &desTrial{t: t, tr: tr}
	start := time.Now()
	cl, err := setupPaper(in, d)
	if err != nil {
		return nil, err
	}
	t.setup = time.Since(start)
	log := cl.Server(1).Store()
	goBefore := readGoStats()
	heap := watchHeap()
	var sample func()
	if tr.on {
		sample = func() {
			for _, id := range cl.Nodes() {
				t.layer["core.ll_depth_max"] = max(t.layer["core.ll_depth_max"], float64(cl.Server(id).QueueLen(0)))
			}
		}
	}
	err = d.drive(cl.Sim(), workload.Span(events), func() bool { return cl.Outstanding() == 0 }, log.LogLen, sample)
	goLayer(t, goBefore, readGoStats(), len(events))
	t.heapPeak = heap.end()
	if err != nil {
		return nil, err
	}
	steps := float64(cl.Sim().Steps()) // before the settle, to match wall
	cl.Settle(5 * time.Second)

	t.attempted = len(events)
	outs := cl.Outcomes()
	for _, o := range outs {
		if o.Failed {
			continue
		}
		t.commits += o.Requests
		t.writeMs = append(t.writeMs, float64(o.TotalLatency().Duration())/1e6)
		t.lockMs = append(t.lockMs, float64(o.LockLatency().Duration())/1e6)
	}
	// Refused, failed, or never finished.
	t.failed = t.attempted - t.commits
	net := cl.Network().Stats()
	t.msgs = net.MessagesSent

	if err := cl.Referee().Err(); err != nil {
		return t, violationf("%v", err)
	}
	if err := cl.CheckConvergence(); err != nil {
		return t, violationf("%v", err)
	}
	if err := allCommitted(events, func(id runtime.NodeID) []string {
		var data []string
		for _, u := range cl.Server(id).Store().Log() {
			data = append(data, u.Data)
		}
		return data
	}); err != nil {
		return t, err
	}
	if t.commits == 0 {
		return t, fmt.Errorf("no update committed")
	}
	if tr.on {
		L := t.layer
		commits := float64(t.commits)
		outcomeLayer(L, [][]core.Outcome{outs}, nil)
		for _, id := range cl.Nodes() {
			L["core.gone_len"] = max(L["core.gone_len"], float64(len(cl.Server(id).Gone())))
		}
		L["core.cps_decay"] = d.decay(t.commits)
		L["agent.migrations_per_commit"] = float64(cl.Platform().Stats().MigrationsStarted) / commits
		L["agent.migrations_failed"] = float64(cl.Platform().Stats().MigrationsFailed)
		desLayer(L, tr, steps, commits, float64(net.BytesSent), t.wall)
	}
	return t, nil
}

// desLayer fills the simulator rows common to both DES workloads.
func desLayer(L map[string]float64, tr *tracer, steps, commits, bytes float64, wall time.Duration) {
	L["des.events_per_commit"] = steps / commits
	L["des.ns_per_event"] = float64(wall.Nanoseconds()) / steps
	L["des.submit_call_p50_us"] = percentile(durations(tr.spans, "des.submit", time.Microsecond), 50)
	L["simnet.bytes_per_commit"] = bytes / commits
}

// allCommitted checks that every scheduled write is in every replica's
// log exactly once.
func allCommitted(events []workload.Event, logOf func(runtime.NodeID) []string) error {
	for id := runtime.NodeID(1); id <= desServers; id++ {
		seen := make(map[string]int, len(events))
		for _, data := range logOf(id) {
			seen[data]++
		}
		for _, ev := range events {
			if seen[ev.Value] != 1 {
				return violationf("write %q is %d times in replica %d's log", ev.Value, seen[ev.Value], id)
			}
		}
	}
	return nil
}

func setupOptimistic(in *desInput, d *desTrial) (*desengine.OptCluster, error) {
	cl, err := desengine.NewOptimistic(desengine.OptConfig{
		Seed:    in.seed,
		Latency: simnet.LAN(),
		Cluster: optimistic.Config{N: desServers},
	})
	if err != nil {
		return nil, err
	}
	for i, ev := range in.events {
		cl.Sim().After(ev.At, func() {
			d.submitSpan(i, func() error {
				_, err := cl.Submit(ev.Home, ev.Key, ev.Value)
				return err
			})
		})
	}
	return cl, nil
}

func runOptimistic(in *desInput, tr *tracer) (*trial, error) {
	events := in.events
	t := &trial{layer: map[string]float64{}}
	d := &desTrial{t: t, tr: tr}
	start := time.Now()
	cl, err := setupOptimistic(in, d)
	if err != nil {
		return nil, err
	}
	t.setup = time.Since(start)
	reg := cl.Metrics()
	stable := func() int { return int(reg.Value("marp.opt.promotions")) / desServers }
	goBefore := readGoStats()
	heap := watchHeap()
	err = d.drive(cl.Sim(), workload.Span(events), func() bool { return cl.Drained(cl.Submitted()) }, stable, nil)
	goLayer(t, goBefore, readGoStats(), len(events))
	t.heapPeak = heap.end()
	if err != nil {
		return nil, err
	}

	t.attempted = len(events)
	for _, o := range cl.Outcomes() {
		if o.Aborted || o.StableAt == 0 {
			continue
		}
		t.commits++
		t.writeMs = append(t.writeMs, float64(o.StableAt.Sub(o.SubmittedAt))/1e6)
	}
	// Refused, aborted, or never stable.
	t.failed = t.attempted - t.commits
	net := cl.Network().Stats()
	t.msgs = net.MessagesSent

	if err := cl.CheckConvergence(); err != nil {
		return t, violationf("%v", err)
	}
	var digest string
	for _, id := range cl.LocalNodes() {
		dg, _, err := cl.StableDigest(id)
		if err != nil {
			return t, err
		}
		if digest == "" {
			digest = dg
		} else if dg != digest {
			return t, violationf("replica %d stable digest %s differs from replica 1's %s", id, dg, digest)
		}
	}
	if err := allCommitted(events, func(id runtime.NodeID) []string {
		log, _ := cl.StableLog(id, 0)
		var data []string
		for _, u := range log {
			data = append(data, u.Data)
		}
		return data
	}); err != nil {
		return t, err
	}
	if t.commits == 0 {
		return t, fmt.Errorf("no update became stable")
	}
	if tr.on {
		L := t.layer
		commits := float64(t.commits)
		L["opt.rollbacks_per_commit"] = reg.Value("marp.opt.rollbacks") / commits
		L["opt.gossip_hops_per_commit"] = reg.Value("marp.opt.gossip_hops") / commits
		L["core.cps_decay"] = d.decay(t.commits)
		desLayer(L, tr, float64(cl.Sim().Steps()), commits, float64(net.BytesSent), t.wall)
	}
	return t, nil
}
