package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The resolveLive errors below are exactly the cases marpd exits 2 on:
// operator mistakes in -peers or -spec caught before anything listens.

func baseFlags() liveFlags {
	return liveFlags{
		Node:     2,
		Peers:    "1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803",
		Addr:     "127.0.0.1:7707",
		Seed:     1,
		Fsync:    "commit",
		Shards:   1,
		Geometry: "majority",
	}
}

func TestResolveLivePeers(t *testing.T) {
	cfg, client, opsAddr, err := resolveLive(baseFlags())
	if err != nil {
		t.Fatalf("resolveLive: %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Addrs[3] != "127.0.0.1:7803" {
		t.Errorf("cfg = %+v", cfg)
	}
	if client != "127.0.0.1:7707" || opsAddr != "" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}
}

func TestResolveLivePeerErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*liveFlags)
		wantErr string
	}{
		{"duplicate node id", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,1=127.0.0.1:7802"
			f.Node = 1
		}, "duplicate peer id"},
		{"missing self entry", func(f *liveFlags) { f.Node = 9 }, "no entry for this process"},
		{"zero node id", func(f *liveFlags) { f.Node = 0 }, "want >= 1"},
		{"unparseable addr", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,2=localhost"
		}, "bad address"},
		{"malformed peer entry", func(f *liveFlags) { f.Peers = "oops" }, "want id=host:port"},
		{"bad geometry", func(f *liveFlags) { f.Geometry = "ring" }, "geometry"},
	}
	for _, c := range cases {
		f := baseFlags()
		c.mutate(&f)
		if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestResolveLiveSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(specPath, []byte(`{
	"shards": 2,
	"geometry": "majority",
	"fsync": "none",
	"commit_delay": "150us",
	"seed": 11,
	"data_root": `+strconv.Quote(dir)+`,
	"nodes": [
		{"id": 1, "fabric": "127.0.0.1:7801", "client": "127.0.0.1:7707", "ops": "127.0.0.1:9101"},
		{"id": 2, "fabric": "127.0.0.1:7802", "client": "127.0.0.1:7708", "ops": "127.0.0.1:9102"},
		{"id": 3, "fabric": "127.0.0.1:7803", "client": "127.0.0.1:7709", "ops": "127.0.0.1:9103"}
	]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f := baseFlags()
	f.Peers = ""
	f.Spec = specPath
	cfg, client, opsAddr, err := resolveLive(f)
	if err != nil {
		t.Fatalf("resolveLive(spec): %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Fsync != "none" || cfg.Seed != 11 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.CommitDelay != 150*time.Microsecond {
		t.Errorf("CommitDelay = %v", cfg.CommitDelay)
	}
	if cfg.Cluster.Shards != 2 {
		t.Errorf("Shards = %d", cfg.Cluster.Shards)
	}
	if cfg.DataDir != filepath.Join(dir, "node-2") {
		t.Errorf("DataDir = %q", cfg.DataDir)
	}
	if client != "127.0.0.1:7708" || opsAddr != "127.0.0.1:9102" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}

	// The spec must contain this process's node.
	f.Node = 9
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "no node 9") {
		t.Errorf("missing node err = %v", err)
	}

	// A spec that fails validation (duplicate IDs) is rejected.
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte(`{"nodes": [{"id": 1, "fabric": "127.0.0.1:1"}, {"id": 1, "fabric": "127.0.0.1:2"}]}`), 0o644)
	f = baseFlags()
	f.Spec, f.Peers, f.Node = badPath, "", 1
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "duplicate node id") {
		t.Errorf("duplicate-id spec err = %v", err)
	}
}

// TestCheckFlags pins that a flag set on the command line but unused by the
// chosen mode and protocol is refused by name rather than ignored.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		mode, protocol string
		set            []string
		wantErr        string // "" = accepted
	}{
		{"sim", "marp", []string{"servers", "latency", "speed", "batch", "geometry", "shards", "seed", "ops", "record"}, ""},
		{"sim", "optimistic", []string{"servers", "latency", "speed", "shards"}, ""},
		{"live", "marp", []string{"node", "peers", "data-dir", "fsync", "geometry", "commit-delay", "ack-delay"}, ""},
		{"live", "optimistic", []string{"node", "spec", "data-dir", "fsync", "shards"}, ""},
		{"sim", "optimistic", []string{"geometry", "batch"}, "-batch does not apply"},
		{"sim", "optimistic", []string{"geometry"}, "-geometry does not apply to -mode sim -protocol optimistic"},
		{"sim", "marp", []string{"data-dir", "node", "peers"}, "-node does not apply"},
		{"sim", "marp", []string{"spec"}, "-spec does not apply"},
		{"live", "marp", []string{"servers"}, "-servers does not apply"},
		{"live", "marp", []string{"batch"}, "-batch does not apply"},
		{"live", "marp", []string{"latency"}, "-latency does not apply"},
		{"live", "optimistic", []string{"commit-delay"}, "-commit-delay does not apply"},
		{"live", "optimistic", []string{"ack-delay"}, "-ack-delay does not apply"},
		{"live", "marp", []string{"peers", "spec"}, "-peers does not apply with -spec"},
		{"cluster", "marp", nil, "unknown mode"},
		{"sim", "paxos", nil, "unknown protocol"},
	}
	for _, c := range cases {
		set := make(map[string]bool)
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(c.mode, c.protocol, set)
		if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s/%s %v: err = %v, want %q", c.mode, c.protocol, c.set, err, c.wantErr)
		}
	}
}

func TestResolveSim(t *testing.T) {
	if _, err := resolveSim("wan", "grid"); err != nil {
		t.Errorf("wan/grid: %v", err)
	}
	for _, c := range []struct{ latency, geometry, wantErr string }{
		{"lan", "bogus", "geometry"},
		{"moon", "majority", "latency"},
	} {
		if _, err := resolveSim(c.latency, c.geometry); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s/%s: err = %v, want substring %q", c.latency, c.geometry, err, c.wantErr)
		}
	}
}

// TestResolveLiveRefusesUnused covers what only resolveLive can see: spec
// keys the protocol does not use, and durability flags without a data
// directory.
func TestResolveLiveRefusesUnused(t *testing.T) {
	dir := t.TempDir()
	writeSpec := func(name, extra string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{`+extra+`
	"nodes": [
		{"id": 1, "fabric": "127.0.0.1:7801"},
		{"id": 2, "fabric": "127.0.0.1:7802"},
		{"id": 3, "fabric": "127.0.0.1:7803"}
	]
}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := writeSpec("plain.json", "")
	cases := []struct {
		name    string
		mutate  func(*liveFlags)
		wantErr string
	}{
		{"fsync without data dir", func(f *liveFlags) { f.Set = map[string]bool{"fsync": true} }, "-fsync applies only with a data directory"},
		{"commit-delay without data dir", func(f *liveFlags) { f.Set = map[string]bool{"commit-delay": true} }, "-commit-delay applies only"},
		{"geometry key under optimistic", func(f *liveFlags) {
			f.Spec, f.Peers, f.Protocol = writeSpec("geom.json", `"geometry": "grid",`), "", "optimistic"
		}, "key geometry does not apply to -protocol optimistic"},
		{"commit_delay key under optimistic", func(f *liveFlags) {
			f.Spec, f.Peers, f.Protocol = writeSpec("commit.json", `"commit_delay": "100us",`), "", "optimistic"
		}, "key commit_delay does not apply"},
		{"ack_delay key under optimistic", func(f *liveFlags) {
			f.Spec, f.Peers, f.Protocol = writeSpec("ack.json", `"ack_delay": "100us",`), "", "optimistic"
		}, "key ack_delay does not apply"},
	}
	for _, c := range cases {
		f := baseFlags()
		c.mutate(&f)
		if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}

	// The same inputs are accepted where they are used.
	f := baseFlags()
	f.DataDir, f.Set = dir, map[string]bool{"fsync": true, "commit-delay": true}
	if _, _, _, err := resolveLive(f); err != nil {
		t.Errorf("durable flags with -data-dir: %v", err)
	}
	f = baseFlags()
	f.Spec, f.Peers, f.Protocol = plain, "", "optimistic"
	f.Set = map[string]bool{"shards": true}
	if _, _, _, err := resolveLive(f); err != nil {
		t.Errorf("optimistic spec without MARP-only keys: %v", err)
	}
}
