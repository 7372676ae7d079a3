package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

// captureTravellingAgent runs a contended cluster until some agent has
// visited at least two servers and is not mid-claim, then returns it.
func captureTravellingAgent(t *testing.T, c *testCluster) *UpdateAgent {
	t.Helper()
	for i := 1; i <= 5; i++ {
		if err := c.Submit(simnet.NodeID(i), Set("k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	for steps := 0; steps < 100000; steps++ {
		if !c.Sim().Step() {
			break
		}
		for _, ua := range c.active {
			if ua.visits >= 2 && (ua.phase == phaseTravelling || ua.phase == phaseParked) {
				return ua
			}
		}
	}
	t.Fatal("no travelling agent with >= 2 visits found")
	return nil
}

func TestAgentStateWireRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 71})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()

	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	back, err := DecodeWireState(data)
	if err != nil {
		t.Fatal(err)
	}
	// Empty and nil slices encode alike, so compare by re-encoding rather
	// than structural equality.
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, data2) {
		t.Fatalf("round trip changed state:\nbefore %+v\nafter  %+v", st, back)
	}
	if len(back.Snapshots) != len(st.Snapshots) || back.Visits != st.Visits || len(back.USL) != len(st.USL) {
		t.Fatalf("content differs: %+v vs %+v", st, back)
	}
	// Input without the wire-state magic byte is refused, not guessed at.
	for _, bad := range [][]byte{nil, {}, data[1:], append([]byte{0x00}, data[1:]...)} {
		if _, err := DecodeWireState(bad); err == nil {
			t.Errorf("DecodeWireState(% x...) accepted input without the magic byte", bad[:min(len(bad), 4)])
		}
	}
}

// encodeGob is the test-only reference encoding of an agent state: the
// DES byte model (WireSize) was calibrated against encoding/gob, which the
// program itself no longer speaks.
func encodeGob(t *testing.T, st WireState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestThawPreservesProtocolState(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 73})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()

	// Thaw at a second cluster instance (the receiving process).
	c2 := newTestCluster(t, Config{N: 5}, simEnv{seed: 73})
	ua2 := Thaw(c2.Cluster, st)

	if ua2.visits != ua.visits || ua2.retries != ua.retries || ua2.attempt != ua.attempt {
		t.Fatalf("counters differ: %d/%d/%d vs %d/%d/%d",
			ua2.visits, ua2.retries, ua2.attempt, ua.visits, ua.retries, ua.attempt)
	}
	if !reflect.DeepEqual(ua2.usl, ua.usl) {
		t.Fatalf("USL differs: %v vs %v", ua2.usl, ua.usl)
	}
	// The thawed lock table reaches the same conclusions.
	self := agentID(999)
	d1, d2 := ua.lt.Decide(self), ua2.lt.Decide(self)
	if d1 != d2 {
		t.Fatalf("decisions differ: %+v vs %+v", d1, d2)
	}
	for s := 1; s <= 5; s++ {
		h1, ok1 := ua.lt.Head(simnet.NodeID(s))
		h2, ok2 := ua2.lt.Head(simnet.NodeID(s))
		if h1 != h2 || ok1 != ok2 {
			t.Fatalf("head of %d differs: %v/%v vs %v/%v", s, h1, ok1, h2, ok2)
		}
	}
	if !reflect.DeepEqual(ua2.Freeze(), st) {
		t.Fatal("freeze(thaw(state)) != state")
	}
}

func TestModelledWireSizeTracksRealEncoding(t *testing.T) {
	// The simulator charges WireSize() bytes per migration; the gob
	// encoding the model was calibrated against must stay the same order
	// of magnitude, or the traffic accounting in every figure would be
	// fiction. (The model deliberately stays on the gob-era calibration —
	// recalibrating to the wire codec would change every DES figure's
	// byte counts and break cross-version comparability.)
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 75})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()
	gobData := encodeGob(t, st)
	modelled := ua.WireSize()
	real := len(gobData)
	ratio := float64(real) / float64(modelled)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("modelled %dB vs real gob %dB (ratio %.2f) — model out of calibration", modelled, real, ratio)
	}
	// The wire codec exists to beat gob; if it ever stops doing so the
	// live path lost its point.
	wireData, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(wireData) >= len(gobData) {
		t.Fatalf("wire encoding %dB not smaller than gob %dB", len(wireData), len(gobData))
	}
}

func TestFrozenStateIsDeterministic(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 77})
	ua := captureTravellingAgent(t, c)
	a, err := ua.Freeze().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ua.Freeze().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two freezes of the same agent encode differently")
	}
}

func TestThawedAgentCanFinishTheProtocol(t *testing.T) {
	// End-to-end: freeze a travelling agent, discard it, thaw the state
	// into a fresh cluster (same seed, so the same world), spawn it, and
	// let it commit.
	c := newTestCluster(t, Config{N: 3}, simEnv{seed: 79})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	var ua *UpdateAgent
	for _, cand := range c.active {
		if cand.visits >= 1 && cand.phase == phaseTravelling {
			ua = cand
		}
	}
	if ua == nil {
		t.Fatal("no agent captured")
	}
	st := ua.Freeze()

	// A brand new "process": same configuration, fresh servers.
	c2 := newTestCluster(t, Config{N: 3}, simEnv{seed: 79})
	ua2 := Thaw(c2.Cluster, st)
	c2.outstanding++
	ctx := c2.platform.Spawn(1, ua2)
	if ua2.phase != phaseDone {
		c2.active[ctx.ID()] = ua2
	}
	if err := c2.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c2.Settle(time.Second)
	if v, ok := c2.Read(2, "x"); !ok || v.Data != "v" {
		t.Fatalf("thawed agent's update missing: %+v %v", v, ok)
	}
}
