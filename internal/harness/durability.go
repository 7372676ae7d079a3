package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Durability runs the A7 experiment suite: what the write-ahead log costs
// while the system is healthy (A7a), what recovery costs after a crash
// (A7b), and how fast a raw journal replays off a real filesystem (A7c).
func Durability(o FigureOptions) ([]*metrics.Table, error) {
	o.fill()
	overhead, err := durabilityOverhead(o)
	if err != nil {
		return nil, fmt.Errorf("a7 overhead: %w", err)
	}
	recovery, err := durabilityRecovery(o)
	if err != nil {
		return nil, fmt.Errorf("a7 recovery: %w", err)
	}
	replay, err := durabilityReplay(o)
	if err != nil {
		return nil, fmt.Errorf("a7 replay: %w", err)
	}
	return []*metrics.Table{overhead, recovery, replay}, nil
}

// a7Point is one cell of the overhead grid: an fsync policy (or durability
// off entirely) crossed with a write rate.
type a7Point struct {
	policy string // "off", "none", "commit", "always"
	mean   time.Duration
}

// a7SyncModel is the modelled device fsync latency charged by the Mem
// backend, a fast NVMe-class device. The table also prices each policy at
// a 5ms spinning-disk fsync from the same sync count, so one run covers
// both ends of the device spectrum.
const (
	a7SyncNVMe = 100 * time.Microsecond
	a7SyncHDD  = 5 * time.Millisecond
)

func durabilityOverhead(o FigureOptions) (*metrics.Table, error) {
	tbl := &metrics.Table{
		Title: "Ablation A7a: durability overhead — fsync policy x write rate",
		Note: fmt.Sprintf("N=5, Mem backend modelling a %v device fsync; the hdd column reprices "+
			"the same sync count at %v; 'off' is the volatile baseline", a7SyncNVMe, a7SyncHDD),
		Columns: []string{"policy", "interarrival", "committed", "appends", "fsyncs",
			"fsyncs/commit", "KB written", "sync ms (nvme)", "us/commit", "sync ms (hdd)"},
	}
	var grid []a7Point
	for _, mean := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond} {
		for _, policy := range []string{"off", "none", "commit", "always"} {
			grid = append(grid, a7Point{policy: policy, mean: mean})
		}
	}
	all, err := sweep.Run(o.runner(), grid, func(i int, p a7Point) ([]string, error) {
		row, err := runOverheadCell(o, p)
		if err != nil {
			return nil, fmt.Errorf("policy=%s mean=%v: %w", p.policy, p.mean, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range all {
		tbl.AddRow(row...)
	}
	return tbl, nil
}

func runOverheadCell(o FigureOptions, p a7Point) ([]string, error) {
	const n = 5
	cfg := core.Config{N: n}
	if p.policy != "off" {
		policy, err := wal.ParsePolicy(p.policy)
		if err != nil {
			return nil, err
		}
		cfg.Durability = &core.DurabilityConfig{
			Policy: policy,
			Backend: func(id runtime.NodeID) disk.Backend {
				m := disk.NewMem()
				m.SyncDelay = func() time.Duration { return a7SyncNVMe }
				return m
			},
		}
	}
	cl, err := desengine.New(desengine.Config{Seed: o.Seed, Cluster: cfg})
	if err != nil {
		return nil, err
	}
	events, err := workload.Generate(workload.Spec{
		Servers:           n,
		RequestsPerServer: o.RequestsPerServer,
		MeanInterarrival:  p.mean,
		Seed:              o.Seed + 7000,
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		ev := ev
		cl.Sim().After(ev.At, func() { _ = cl.Submit(ev.Home, core.Set(ev.Key, ev.Value)) })
	}
	cl.Sim().RunFor(workload.Span(events) + time.Millisecond)
	if err := cl.RunUntilDone(30 * time.Minute); err != nil {
		return nil, err
	}
	cl.Settle(5 * time.Second)
	if err := cl.Referee().Err(); err != nil {
		return nil, err
	}
	if err := cl.CheckConvergence(); err != nil {
		return nil, err
	}
	committed := int(cl.Server(1).Store().LastSeq())
	// The table reads through the registry's stable names — the same
	// numbers an ops /metrics scrape of this cluster would export.
	snap := cl.Metrics().Gather()
	appends := int(snap.Value("marp.wal.appends"))
	syncs := int(snap.Value("marp.disk.syncs"))
	syncSeconds := snap.Value("marp.disk.sync_seconds_total")
	perCommit := func(v float64) string {
		if committed == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", v/float64(committed))
	}
	return []string{
		p.policy,
		fmt.Sprint(p.mean),
		fmt.Sprint(committed),
		fmt.Sprint(appends),
		fmt.Sprint(syncs),
		perCommit(float64(syncs)),
		fmt.Sprintf("%.1f", snap.Value("marp.disk.bytes_written")/1024),
		fmt.Sprintf("%.2f", syncSeconds*1000),
		perCommit(syncSeconds * 1e6),
		fmt.Sprintf("%.1f", (time.Duration(syncs)*a7SyncHDD).Seconds()*1000),
	}, nil
}

// a7Recovery is one crash-recovery measurement: how many commits the node
// missed while down, and what it cost to come back.
type a7Recovery struct {
	missed     int
	walCommits uint64 // restored synchronously from the node's own WAL
	replayed   int    // journal records decoded during recovery
	catchup    time.Duration
}

func durabilityRecovery(o FigureOptions) (*metrics.Table, error) {
	base := 40
	missedGrid := []int{0, 25, 100}
	if o.Quick {
		base = 15
		missedGrid = []int{0, 10, 30}
	}
	tbl := &metrics.Table{
		Title: "Ablation A7b: crash recovery — WAL replay + anti-entropy catch-up",
		Note: fmt.Sprintf("N=3, PolicyCommit; node 3 crashes holding %d commits, misses the given "+
			"number, then recovers: its own commits return from the WAL before any network traffic, "+
			"the missed suffix arrives by anti-entropy", base),
		Columns: []string{"missed", "from WAL", "records replayed", "pulled", "catch-up (virtual)"},
	}
	all, err := sweep.Run(o.runner(), missedGrid, func(i int, missed int) (a7Recovery, error) {
		r, err := runRecoveryCell(o, base, missed)
		if err != nil {
			return r, fmt.Errorf("missed=%d: %w", missed, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range all {
		tbl.AddRow(
			fmt.Sprint(r.missed),
			fmt.Sprint(r.walCommits),
			fmt.Sprint(r.replayed),
			fmt.Sprint(uint64(base+r.missed)-r.walCommits),
			fmt.Sprint(r.catchup.Round(time.Microsecond)))
	}
	return tbl, nil
}

func runRecoveryCell(o FigureOptions, base, missed int) (a7Recovery, error) {
	const n = 3
	cl, err := desengine.New(desengine.Config{
		Seed: o.Seed,
		Cluster: core.Config{
			N: n,
			Durability: &core.DurabilityConfig{
				Policy:  wal.PolicyCommit,
				Backend: func(id runtime.NodeID) disk.Backend { return disk.NewMem() },
			},
		},
	})
	if err != nil {
		return a7Recovery{}, err
	}
	submit := func(count, homes int, tag string) error {
		for i := 0; i < count; i++ {
			home := runtime.NodeID(i%homes + 1)
			if err := cl.Submit(home, core.Set(fmt.Sprintf("%s-%d", tag, i), "v")); err != nil {
				return err
			}
		}
		if err := cl.RunUntilDone(30 * time.Minute); err != nil {
			return err
		}
		cl.Settle(2 * time.Second)
		return nil
	}
	if err := submit(base, n, "pre"); err != nil {
		return a7Recovery{}, err
	}
	if got := cl.Server(3).Store().LastSeq(); got != uint64(base) {
		return a7Recovery{}, fmt.Errorf("pre-crash LastSeq = %d, want %d", got, base)
	}
	cl.Crash(3)
	if err := submit(missed, n-1, "down"); err != nil {
		return a7Recovery{}, err
	}
	replayedBefore := int(cl.Metrics().Value("marp.wal.replayed"))
	start := cl.Now()
	cl.Recover(3)
	walCommits := cl.Server(3).Store().LastSeq() // synchronous: no events ran yet
	want := uint64(base + missed)
	for cl.Server(3).Store().LastSeq() < want {
		if time.Duration(cl.Now()-start) > 30*time.Second {
			return a7Recovery{}, fmt.Errorf("node 3 stuck at %d/%d commits", cl.Server(3).Store().LastSeq(), want)
		}
		cl.Settle(time.Millisecond)
	}
	return a7Recovery{
		missed:     missed,
		walCommits: walCommits,
		replayed:   int(cl.Metrics().Value("marp.wal.replayed")) - replayedBefore,
		catchup:    time.Duration(cl.Now() - start),
	}, nil
}

func durabilityReplay(o FigureOptions) (*metrics.Table, error) {
	sizes := []int{500, 2000, 8000}
	if o.Quick {
		sizes = []int{200, 800}
	}
	tbl := &metrics.Table{
		Title: "Ablation A7c: raw WAL replay off the filesystem",
		Note: "one journal on a real directory, K committed updates, clean close, reopen; " +
			"replay is wall-clock and machine-dependent",
		Columns: []string{"records", "KB on disk", "replay ms", "records/ms"},
	}
	for _, k := range sizes {
		row, err := runReplayCell(k)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

func runReplayCell(k int) ([]string, error) {
	dir, err := os.MkdirTemp("", "marp-a7-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fsb, err := disk.NewFS(dir)
	if err != nil {
		return nil, err
	}
	// PolicyNone builds the journal at memory speed; Close syncs once, so
	// the file set is complete without paying k fsyncs up front.
	j, _, err := durable.Open(fsb, durable.Options{Policy: wal.PolicyNone, CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	s := store.New()
	s.SetJournal(j)
	for i := 1; i <= k; i++ {
		u := store.Update{
			TxnID: fmt.Sprintf("txn-%06d", i),
			Key:   fmt.Sprintf("key-%d", i%64),
			Data:  fmt.Sprintf("value-%06d-padding-padding", i),
			Seq:   uint64(i),
			Stamp: int64(i),
		}
		if err := s.ApplyCommitted(u); err != nil {
			return nil, err
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	bytes := fsb.Stats().BytesWritten

	fsb2, err := disk.NewFS(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	j2, st, err := durable.Open(fsb2, durable.Options{})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	defer j2.Close()
	if st == nil || len(st.Stores[0].Log) != k {
		return nil, fmt.Errorf("replayed %v, want %d updates", st, k)
	}
	ms := elapsed.Seconds() * 1000
	perMS := "-"
	if ms > 0 {
		perMS = fmt.Sprintf("%.0f", float64(k)/ms)
	}
	return []string{
		fmt.Sprint(k),
		fmt.Sprintf("%.1f", float64(bytes)/1024),
		fmt.Sprintf("%.2f", ms),
		perMS,
	}, nil
}
