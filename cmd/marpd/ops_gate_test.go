package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestOpsGate is the CI ops-plane gate: a 3-node live cluster boots
// end-to-end from one declarative spec file (no hand-written -peers
// string anywhere), every node serves Prometheus /metrics covering at
// least five subsystems with monotonic counters, /healthz reports a
// reachable write quorum, and partitioning the minority node flips its
// /healthz to degraded until the partition heals.
func TestOpsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and uses wall-clock timeouts")
	}
	bin := t.TempDir()
	marpd := filepath.Join(bin, "marpd")
	marpctl := filepath.Join(bin, "marpctl")
	for path, pkg := range map[string]string{marpd: "repro/cmd/marpd", marpctl: "repro/cmd/marpctl"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// One spec file is the whole cluster description.
	const n = 3
	fabric := make([]string, n+1)
	client := make([]string, n+1)
	opsAddr := make([]string, n+1)
	var nodes []string
	for i := 1; i <= n; i++ {
		fabric[i], client[i], opsAddr[i] = freePort(t), freePort(t), freePort(t)
		nodes = append(nodes, fmt.Sprintf(`{"id": %d, "fabric": %q, "client": %q, "ops": %q}`,
			i, fabric[i], client[i], opsAddr[i]))
	}
	spec := `{"name": "ops-gate", "shards": 2, "geometry": "majority", "nodes": [` +
		strings.Join(nodes, ", ") + `]}`
	specPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	// The operator's dry run: spec expand prints one flag set per node.
	out, err := exec.Command(marpctl, "spec", "expand", specPath).Output()
	if err != nil {
		t.Fatalf("marpctl spec expand: %v", err)
	}
	if got := strings.Count(string(out), "marpd -mode live"); got != n {
		t.Fatalf("spec expand printed %d node lines, want %d:\n%s", got, n, out)
	}

	procs := make([]*exec.Cmd, n+1)
	for i := 1; i <= n; i++ {
		cmd := exec.Command(marpd, "-spec", specPath, "-mode", "live", "-node", fmt.Sprint(i))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting replica %d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
	}

	clients := make([]*transport.Client, n+1)
	for i := 1; i <= n; i++ {
		clients[i] = dialWait(t, client[i], 5*time.Second)
		defer clients[i].Close()
	}

	// Some traffic so the counters have something to count.
	const writes = 12
	for w := 0; w < writes; w++ {
		home := w%n + 1
		if err := clients[home].Submit(home, fmt.Sprintf("k%d", w), fmt.Sprintf("v%d", w), false); err != nil {
			t.Fatalf("submit %d: %v", w, err)
		}
	}

	// Every node: healthy /healthz and a /metrics surface spanning >= 5
	// subsystems, with counters monotonic across scrapes.
	for i := 1; i <= n; i++ {
		h := healthz(t, opsAddr[i], http.StatusOK)
		if !h.QuorumOK {
			t.Fatalf("node %d /healthz degraded at boot: %+v", i, h)
		}
		if len(h.Shards) != 2 {
			t.Fatalf("node %d /healthz shards = %d, want 2", i, len(h.Shards))
		}
		first := promScrape(t, opsAddr[i])
		subsystems := map[string]bool{}
		for name := range first {
			if rest, found := strings.CutPrefix(name, "marp_"); found {
				sub, _, _ := strings.Cut(rest, "_")
				subsystems[sub] = true
			}
		}
		if len(subsystems) < 5 {
			t.Fatalf("node %d exports %d subsystems (%v), want >= 5", i, len(subsystems), subsystems)
		}
		second := promScrape(t, opsAddr[i])
		for _, name := range []string{"marp_fabric_messages_sent", "marp_replica_commits", "marp_agent_created"} {
			if _, present := first[name]; !present {
				t.Fatalf("node %d: %s missing from scrape", i, name)
			}
			if second[name] < first[name] {
				t.Fatalf("node %d: %s went backwards across scrapes: %v -> %v",
					i, name, first[name], second[name])
			}
		}
	}

	// Wait for every node's backlog to drain so the partition cannot
	// strand agents (outstanding counts are per originating process).
	for i := 1; i <= n; i++ {
		waitDrained(t, clients[i])
	}

	// Partition the minority: {1,2} / {3}, told to every process. Node 3
	// can no longer assemble a write quorum; nodes 1 and 2 still can.
	addrsFlag := strings.Join([]string{client[1], client[2], client[3]}, ",")
	if out, err := exec.Command(marpctl, "-addrs", addrsFlag, "partition", "1,2/3").CombinedOutput(); err != nil {
		t.Fatalf("marpctl partition: %v\n%s", err, out)
	}
	h := healthz(t, opsAddr[3], http.StatusServiceUnavailable)
	if h.QuorumOK {
		t.Fatalf("minority node /healthz still claims quorum: %+v", h)
	}
	for _, sh := range h.Shards {
		if sh.QuorumOK || sh.Reachable != 1 {
			t.Fatalf("minority node shard health: %+v, want 1 reachable member and no quorum", sh)
		}
	}
	if h = healthz(t, opsAddr[1], http.StatusOK); !h.QuorumOK {
		t.Fatalf("majority node /healthz degraded during minority partition: %+v", h)
	}

	// Heal and confirm the minority recovers its quorum view.
	if out, err := exec.Command(marpctl, "-addrs", addrsFlag, "heal").CombinedOutput(); err != nil {
		t.Fatalf("marpctl heal: %v\n%s", err, out)
	}
	if h = healthz(t, opsAddr[3], http.StatusOK); !h.QuorumOK {
		t.Fatalf("node 3 /healthz still degraded after heal: %+v", h)
	}

	for i := 1; i <= n; i++ {
		if err := procs[i].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signalling replica %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		done := make(chan error, 1)
		go func() { done <- procs[i].Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("replica %d did not exit cleanly: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d did not exit within 10s of SIGTERM", i)
		}
	}
}

// healthzBody mirrors the wire shape of core.Health (decoded structurally
// so the gate notices if the JSON contract drifts).
type healthzBody struct {
	Vantage  int  `json:"vantage"`
	QuorumOK bool `json:"quorum_ok"`
	Shards   []struct {
		Shard     int   `json:"shard"`
		Group     []int `json:"group"`
		Reachable int   `json:"reachable"`
		MinWrite  int   `json:"min_write"`
		QuorumOK  bool  `json:"quorum_ok"`
	} `json:"shards"`
}

// healthz polls a node's /healthz until it answers with wantStatus (ops
// listeners come up just after the process prints its banner; health
// flips take effect as soon as the injected fault lands).
func healthz(t *testing.T, addr string, wantStatus int) healthzBody {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == wantStatus {
				var h healthzBody
				if err := json.Unmarshal(body, &h); err != nil {
					t.Fatalf("/healthz at %s is not JSON: %v\n%s", addr, err, body)
				}
				return h
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz at %s never reached status %d (last err %v)", addr, wantStatus, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// promScrape fetches and parses a node's /metrics samples.
func promScrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
					t.Fatalf("/metrics content type %q, want the 0.0.4 text format", ct)
				}
				samples := make(map[string]float64)
				for _, line := range strings.Split(string(body), "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					name, val, found := strings.Cut(line, " ")
					if !found {
						t.Fatalf("unparseable /metrics line %q", line)
					}
					f, err := strconv.ParseFloat(val, 64)
					if err != nil {
						t.Fatalf("bad sample %q: %v", line, err)
					}
					samples[name] = f
				}
				return samples
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics at %s unreachable: %v", addr, lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitDrained waits until a node reports no outstanding requests.
func waitDrained(t *testing.T, cli *transport.Client) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Outstanding == 0 && st.Failed == 0 {
			return
		}
		if st.Failed > 0 {
			t.Fatalf("%d request(s) failed while draining", st.Failed)
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never drained (outstanding %d)", st.Outstanding)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
