package transport

import (
	"strings"
	"testing"
	"time"

	marp "repro"
	"repro/internal/desengine"
	"repro/internal/disk"
	"repro/internal/optimistic"
	"repro/internal/runtime"
)

// protocols are the two sim backends every shared service test runs
// against: one wire surface, two commitment policies behind it.
var protocols = []string{"marp", "optimistic"}

// startServer serves a 5-replica simulated cluster of the given protocol.
// The optimistic cluster is journaled on Mem disks, because crashing a
// volatile optimistic replica is refused (it would lose the only copy of
// its un-gossiped actions).
func startServer(t *testing.T, protocol string) (*Server, *Client) {
	t.Helper()
	// 200x speed: protocol milliseconds resolve almost immediately.
	var srv *Server
	var err error
	switch protocol {
	case "marp":
		srv, err = Serve("127.0.0.1:0", marp.Options{Servers: 5, Seed: 42}, 200)
	case "optimistic":
		srv, err = ServeOptimistic("127.0.0.1:0", desengine.OptConfig{
			Seed: 42,
			Cluster: optimistic.Config{N: 5, Durability: &optimistic.DurabilityConfig{
				Backend: func(runtime.NodeID) disk.Backend { return disk.NewMem() },
			}},
		}, 200)
	default:
		t.Fatalf("unknown protocol %q", protocol)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// eachProtocol runs fn as one subtest per protocol.
func eachProtocol(t *testing.T, fn func(t *testing.T, protocol string)) {
	for _, p := range protocols {
		t.Run(p, func(t *testing.T) { fn(t, p) })
	}
}

// waitCommitted polls stats until want submissions reached their final
// state: committed (MARP) or stable (optimistic).
func waitCommitted(t *testing.T, cli *Client, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Committed >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d updates committed (outstanding %d)", st.Committed, want, st.Outstanding)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRead polls a replica until it serves key at seq: for an optimistic
// promotion, which reaches the other replicas asynchronously, and for a
// recovering replica catching up.
func waitRead(t *testing.T, cli *Client, node int, key, want string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		value, got, found, err := cli.Read(node, key)
		if err != nil {
			t.Fatal(err)
		}
		if found && value == want && got == seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d: value=%q seq=%d found=%v, want %q at seq %d", node, value, got, found, want, seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitReadOverTCP(t *testing.T) {
	eachProtocol(t, func(t *testing.T, protocol string) {
		_, cli := startServer(t, protocol)
		if err := cli.Submit(1, "greeting", "hello-tcp", false); err != nil {
			t.Fatal(err)
		}
		waitCommitted(t, cli, 1)
		for node := 1; node <= 5; node++ {
			if protocol == "optimistic" {
				// Stable at the home first, then promoted elsewhere by
				// reconciliation; seq is the stable-prefix position.
				waitRead(t, cli, node, "greeting", "hello-tcp", 1)
				continue
			}
			// A counted MARP commit is already installed at every replica.
			value, seq, found, err := cli.Read(node, "greeting")
			if err != nil {
				t.Fatal(err)
			}
			if !found || value != "hello-tcp" || seq != 1 {
				t.Fatalf("node %d: value=%q seq=%d found=%v", node, value, seq, found)
			}
		}
	})
}

// TestConcurrentClients is MARP-only: it appends, and the optimistic
// protocol refuses appends (TestRefusals).
func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, "marp")
	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		go func() {
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			errs <- cli.Submit(i+1, "shared", "from-client", true)
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitCommitted(t, cli, clients)
	value, _, found, err := cli.Read(1, "shared")
	if err != nil || !found {
		t.Fatalf("read: %v found=%v", err, found)
	}
	if len(value) != clients*len("from-client") {
		t.Fatalf("append lost data: %q", value)
	}
}

func TestCrashRecoverOverTCP(t *testing.T) {
	eachProtocol(t, func(t *testing.T, protocol string) {
		_, cli := startServer(t, protocol)
		if err := cli.Crash(5); err != nil {
			t.Fatal(err)
		}
		if err := cli.Submit(1, "x", "v", false); err != nil {
			t.Fatal(err)
		}
		if protocol == "marp" {
			// A MARP write quorum excludes the crashed replica, which
			// answers reads with nothing.
			waitCommitted(t, cli, 1)
			if _, _, found, err := cli.Read(5, "x"); err != nil || found {
				t.Fatalf("crashed server answered a read: found=%v err=%v", found, err)
			}
		} else {
			// The optimistic stability bound waits for every replica's
			// clock, so the write stays tentative until 5 is back, and
			// the crashed replica refuses reads.
			if v, found, err := cli.ReadTentative(1, "x"); err != nil || !found || v != "v" {
				t.Fatalf("tentative read at the home: %q found=%v err=%v", v, found, err)
			}
			if _, _, _, err := cli.Read(5, "x"); err == nil || !strings.Contains(err.Error(), "down") {
				t.Fatalf("crashed optimistic server read: err = %v, want a down refusal", err)
			}
		}
		if err := cli.Recover(5); err != nil {
			t.Fatal(err)
		}
		waitCommitted(t, cli, 1)
		waitRead(t, cli, 5, "x", "v", 1)
	})
}

func TestStats(t *testing.T) {
	eachProtocol(t, func(t *testing.T, protocol string) {
		_, cli := startServer(t, protocol)
		st, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Servers != 5 {
			t.Fatalf("stats = %+v", st)
		}
		if err := cli.Submit(2, "k", "v", false); err != nil {
			t.Fatal(err)
		}
		waitCommitted(t, cli, 1)
		st, err = cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		// Migrations counts agent hops: MARP update agents, or
		// optimistic reconciliation agents.
		if st.Messages == 0 || st.Migrations == 0 || st.Failed != 0 {
			t.Fatalf("stats after update = %+v", st)
		}
	})
}

func TestProtocolErrors(t *testing.T) {
	eachProtocol(t, func(t *testing.T, protocol string) {
		_, cli := startServer(t, protocol)
		if err := cli.Submit(99, "k", "v", false); err == nil {
			t.Fatal("submit to unknown home accepted")
		}
		if _, err := cli.roundTrip(Request{Op: "dance"}); err == nil {
			t.Fatal("unknown op accepted")
		}
		if _, err := cli.Digest(99); err == nil || !strings.Contains(err.Error(), "not hosted") {
			t.Fatalf("digest of unknown node: err = %v", err)
		}
		// The connection remains usable after an error response.
		if err := cli.Submit(1, "k", "v", false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRefusals pins that each backend refuses the request fields it does
// not implement instead of silently dropping them.
func TestRefusals(t *testing.T) {
	cases := []struct {
		protocol string
		req      Request
		wantErr  string
	}{
		{"marp", Request{Op: "submit", Home: 1, Key: "k", Value: "v", Guard: "old"}, "guard"},
		{"marp", Request{Op: "read", Node: 1, Key: "k", Tentative: true}, "tentative"},
		{"optimistic", Request{Op: "submit", Home: 1, Key: "k", Value: "v", Append: true}, "append"},
	}
	for _, c := range cases {
		_, cli := startServer(t, c.protocol)
		if _, err := cli.roundTrip(c.req); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s %+v: err = %v, want substring %q", c.protocol, c.req, err, c.wantErr)
		}
	}
}

// TestKindTaggedBodies pins the digest, referee, scenario and health bodies
// of both backends once one write has reached its final state everywhere.
func TestKindTaggedBodies(t *testing.T) {
	cases := []struct {
		protocol, digestKind, refereeKind, geometry string
	}{
		{"marp", DigestKindCommitSet, "grants", "majority"},
		{"optimistic", DigestKindStablePrefix, DigestKindStablePrefix, "optimistic"},
	}
	for _, c := range cases {
		t.Run(c.protocol, func(t *testing.T) {
			srv, cli := startServer(t, c.protocol)
			if err := cli.Submit(1, "k", "v", false); err != nil {
				t.Fatal(err)
			}
			waitCommitted(t, cli, 1)
			for node := 1; node <= 5; node++ {
				waitRead(t, cli, node, "k", "v", 1)
			}

			var digest string
			for node := 1; node <= 5; node++ {
				resp, err := cli.Digest(node)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Kind != c.digestKind || resp.Stable == nil || resp.Stable.Entries != 1 ||
					len(resp.Stable.Keys) != 1 || len(resp.Shards) != 0 {
					t.Fatalf("node %d digest = %+v", node, resp)
				}
				// Only the optimistic protocol has a tentative tier; the
				// write has left it everywhere.
				if hasTentative := resp.Tentative != nil; hasTentative != (c.protocol == "optimistic") ||
					hasTentative && resp.Tentative.Entries != 0 {
					t.Fatalf("node %d tentative tier = %+v", node, resp.Tentative)
				}
				if digest == "" {
					digest = resp.Stable.Digest
				} else if resp.Stable.Digest != digest {
					t.Fatalf("node %d digest %s, node 1 has %s", node, resp.Stable.Digest, digest)
				}
			}

			ref, err := cli.Referee()
			if err != nil {
				t.Fatal(err)
			}
			if ref.Kind != c.refereeKind || ref.Wins != 1 || ref.Violations != 0 {
				t.Fatalf("referee = %+v", ref)
			}

			body, err := cli.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			if body.Servers != 5 || body.Shards != 1 || body.Geometry != c.geometry ||
				body.DigestKind != c.digestKind || body.Commits != 1 || body.Failed != 0 ||
				body.Outstanding != 0 || len(body.Keys) != 1 || body.Keys["k"] == "" {
				t.Fatalf("scenario = %+v", body)
			}

			h, err := srv.Health()
			if err != nil {
				t.Fatal(err)
			}
			if !h.QuorumOK || h.Vantage != 1 {
				t.Fatalf("health = %+v", h)
			}
			if err := cli.Crash(1); err != nil {
				t.Fatal(err)
			}
			if h, err = srv.Health(); err != nil || h.Vantage != 2 {
				t.Fatalf("health with node 1 down = %+v, %v", h, err)
			}
		})
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", marp.Options{Servers: 3, Seed: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // no panic
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("dial succeeded after close")
	}
}
