// Package reliable layers acknowledged, at-most-once-duplicated delivery on
// top of a lossy runtime.Fabric.
//
// The paper (§2) assumes reliable asynchronous channels, so the MARP
// protocol layers never had to cope with message loss. When a
// simnet.FaultModel is attached to the network that assumption breaks, and
// this package restores it end-to-end the way real systems do: every
// payload is wrapped in a sequenced frame, the receiver acknowledges each
// frame and suppresses duplicates, and the sender retransmits with
// exponential backoff and jitter until either an ack arrives or the retry
// cap is exhausted — at which point the peer is reported unreachable to the
// caller, who falls back on the protocol's own timeout machinery.
//
// Layer implements runtime.Fabric, so protocol code (agent.Platform,
// replica.Server) runs over either a bare fabric or a *Layer without
// change. Fault decisions live in the fabric; this layer draws randomness
// only for retransmit jitter, from the engine's seeded source, so simulated
// runs remain deterministic. Over the live TCP fabric the same framing
// provides at-least-once delivery with dedup for agent migration.
//
// Crash semantics follow fail-stop: Crash(id) discards the node's volatile
// state — unacked sends die with the node and the duplicate-suppression
// table is lost, so a retransmit that straddles a crash/recovery may be
// delivered twice. The protocol handlers tolerate that (they are idempotent
// or guarded by attempt numbers). The per-node send counter survives a
// crash, modelling the sequence number kept in stable storage.
//
// With a durability journal attached (SetJournal), that modelling becomes
// real: the send counter is journaled as a striding high-water mark and the
// dedup table as one record per first-seen frame, and Restore rebuilds both
// after a restart — so a retransmit straddling the crash is suppressed
// instead of double-delivered.
package reliable

import (
	"sort"
	"time"

	"repro/internal/runtime"
)

// Config tunes the retransmission policy.
type Config struct {
	// Base is the delay before the first retransmission. Subsequent delays
	// double up to Max.
	Base time.Duration
	// Max caps the backoff delay.
	Max time.Duration
	// Attempts is the maximum number of transmissions per message
	// (the initial send counts as the first).
	Attempts int
	// Jitter is the fraction of each delay added uniformly at random, so
	// retransmissions from different senders decorrelate.
	Jitter float64
}

// DefaultConfig suits the LAN/prototype latency presets: first retry after
// 20ms, doubling to 500ms, five transmissions total.
var DefaultConfig = Config{Base: 20 * time.Millisecond, Max: 500 * time.Millisecond, Attempts: 5, Jitter: 0.2}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.Base <= 0 {
		c.Base = d.Base
	}
	if c.Max <= 0 {
		c.Max = d.Max
	}
	if c.Attempts <= 0 {
		c.Attempts = d.Attempts
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// Backoff returns the (jitter-free) delay scheduled after the attempt-th
// transmission: Base doubled attempt-1 times, capped at Max. Exposed pure so
// the schedule is unit-testable.
func Backoff(cfg Config, attempt int) time.Duration {
	cfg = cfg.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := cfg.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cfg.Max {
			return cfg.Max
		}
	}
	if d > cfg.Max {
		d = cfg.Max
	}
	return d
}

// Stats counts the layer's recovery work across all nodes.
type Stats struct {
	Retransmissions      int // frames sent beyond the first transmission
	DuplicatesSuppressed int // frames received more than once and dropped
	AcksSent             int
	GaveUp               int // sends that exhausted the retry cap
}

// frame header and ack sizes, charged to the network's byte accounting.
const (
	headerSize = 12
	ackSize    = 16
)

// dataMsg is a sequenced frame wrapping a protocol payload. Kind delegates
// to the payload so per-kind traffic accounting still names the protocol
// message (retransmissions count again — they are real transmissions).
type dataMsg struct {
	Seq     uint64
	Payload any
}

func (d dataMsg) Kind() string {
	if k, ok := d.Payload.(runtime.Kinder); ok {
		return k.Kind()
	}
	return "rel-data"
}

// ackMsg acknowledges receipt of the frame with the given sequence number.
type ackMsg struct{ Seq uint64 }

func (ackMsg) Kind() string { return "rel-ack" }

type pendingSend struct {
	msg     runtime.Message // the caller's original message
	seq     uint64
	attempt int
	timer   runtime.Timer
}

// Journal receives the endpoint state a node must not lose across a
// restart. The durability subsystem implements it; both callbacks fire
// from the node's execution context, after the in-memory mutation.
type Journal interface {
	// NextSeq reports the send counter after an increment. Implementations
	// persist a striding high-water mark, not every value.
	NextSeq(seq uint64)
	// Seen reports a first-seen frame from a peer.
	Seen(from runtime.NodeID, seq uint64)
}

// port is one node's endpoint state.
type port struct {
	id      runtime.NodeID
	nextSeq uint64 // survives Crash (stable storage)
	pending map[uint64]*pendingSend
	seen    map[runtime.NodeID]map[uint64]bool
	journal Journal // nil = volatile endpoint (the default)
}

func (p *port) reset() {
	p.pending = make(map[uint64]*pendingSend)
	p.seen = make(map[runtime.NodeID]map[uint64]bool)
}

// Layer is the ack/retransmit shim. It implements runtime.Fabric.
type Layer struct {
	eng           runtime.Engine
	net           runtime.Fabric
	cfg           Config
	ports         map[runtime.NodeID]*port
	upper         map[runtime.NodeID]runtime.Handler
	onUnreachable func(from, to runtime.NodeID, msg runtime.Message)
	stats         Stats
}

var _ runtime.Fabric = (*Layer)(nil)

// NewLayer wraps the fabric net, scheduling retransmissions on eng.
// Zero-valued Config fields take defaults.
func NewLayer(eng runtime.Engine, net runtime.Fabric, cfg Config) *Layer {
	return &Layer{
		eng:   eng,
		net:   net,
		cfg:   cfg.withDefaults(),
		ports: make(map[runtime.NodeID]*port),
		upper: make(map[runtime.NodeID]runtime.Handler),
	}
}

// Cost delegates to the underlying fabric.
func (l *Layer) Cost(from, to runtime.NodeID) float64 { return l.net.Cost(from, to) }

// Down delegates to the underlying fabric.
func (l *Layer) Down(id runtime.NodeID) bool { return l.net.Down(id) }

// NetStats delegates the runtime.StatsSource capability to the underlying
// fabric (zero counters if it keeps none).
func (l *Layer) NetStats() runtime.NetStats {
	if src, ok := l.net.(runtime.StatsSource); ok {
		return src.NetStats()
	}
	return runtime.NetStats{}
}

// Reachable forwards the runtime.ReachabilitySource capability; retries do
// not change what the underlying fabric can reach right now.
func (l *Layer) Reachable(from, to runtime.NodeID) bool {
	if src, ok := l.net.(runtime.ReachabilitySource); ok {
		return src.Reachable(from, to)
	}
	return true
}

// WireDelivery forwards the runtime.WireFabric capability: framing does not
// change whether payloads are physically serialized underneath.
func (l *Layer) WireDelivery() bool {
	if wf, ok := l.net.(runtime.WireFabric); ok {
		return wf.WireDelivery()
	}
	return false
}

// OnUnreachable registers fn to be called when a send exhausts its retry
// cap. The protocol layers treat this as advisory — their own timeouts
// (claim, migration) drive recovery — but the cluster counts it.
func (l *Layer) OnUnreachable(fn func(from, to runtime.NodeID, msg runtime.Message)) {
	l.onUnreachable = fn
}

func (l *Layer) port(id runtime.NodeID) *port {
	p, ok := l.ports[id]
	if !ok {
		p = &port{id: id}
		p.reset()
		l.ports[id] = p
	}
	return p
}

// Attach registers h as node id's protocol handler and interposes the
// layer's framing on the wire. Re-attaching (recovery) replaces the handler.
func (l *Layer) Attach(id runtime.NodeID, h runtime.Handler) {
	l.upper[id] = h
	p := l.port(id)
	l.net.Attach(id, runtime.HandlerFunc(func(m runtime.Message) { l.receive(p, m) }))
}

// SetJournal attaches (or, with nil, detaches) node id's durability
// journal. Crash detaches it implicitly — a dead node must not journal.
func (l *Layer) SetJournal(id runtime.NodeID, j Journal) { l.port(id).journal = j }

// Restore reinstates node id's persistent endpoint state after a restart:
// the send counter (already slack-adjusted by the journal) and the
// duplicate-suppression table.
func (l *Layer) Restore(id runtime.NodeID, nextSeq uint64, seen map[runtime.NodeID][]uint64) {
	p := l.port(id)
	if nextSeq > p.nextSeq {
		p.nextSeq = nextSeq
	}
	for from, seqs := range seen {
		if p.seen[from] == nil {
			p.seen[from] = make(map[uint64]bool, len(seqs))
		}
		for _, q := range seqs {
			p.seen[from][q] = true
		}
	}
}

// PortState captures node id's persistent endpoint state for a compaction
// snapshot: the send counter and the dedup table as sorted slices.
func (l *Layer) PortState(id runtime.NodeID) (nextSeq uint64, seen map[runtime.NodeID][]uint64) {
	p := l.port(id)
	seen = make(map[runtime.NodeID][]uint64, len(p.seen))
	for from, set := range p.seen {
		seqs := make([]uint64, 0, len(set))
		for q := range set {
			seqs = append(seqs, q)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		seen[from] = seqs
	}
	return p.nextSeq, seen
}

// Send transmits msg with ack/retransmit semantics. Delivery to the remote
// handler happens at most the configured number of transmissions later; if
// every transmission is lost the send is abandoned and OnUnreachable fires.
func (l *Layer) Send(msg runtime.Message) {
	p := l.port(msg.From)
	p.nextSeq++
	if p.journal != nil {
		p.journal.NextSeq(p.nextSeq)
	}
	ps := &pendingSend{msg: msg, seq: p.nextSeq, attempt: 1}
	p.pending[ps.seq] = ps
	l.transmit(p, ps)
}

func (l *Layer) transmit(p *port, ps *pendingSend) {
	l.net.Send(runtime.Message{
		From:    ps.msg.From,
		To:      ps.msg.To,
		Payload: dataMsg{Seq: ps.seq, Payload: ps.msg.Payload},
		Size:    ps.msg.Size + headerSize,
	})
	d := Backoff(l.cfg, ps.attempt)
	if l.cfg.Jitter > 0 {
		d += time.Duration(l.cfg.Jitter * l.eng.Rand().Float64() * float64(d))
	}
	ps.timer = l.eng.AfterFunc(d, func() { l.expire(p, ps) })
}

func (l *Layer) expire(p *port, ps *pendingSend) {
	if p.pending[ps.seq] != ps {
		return // acked, or cleared by Crash, while the timer was in flight
	}
	if l.net.Down(ps.msg.From) {
		// Fail-stop: a down sender retransmits nothing. Crash() normally
		// clears pending first; this guards direct SetDown use.
		delete(p.pending, ps.seq)
		return
	}
	if ps.attempt >= l.cfg.Attempts {
		delete(p.pending, ps.seq)
		l.stats.GaveUp++
		if l.onUnreachable != nil {
			l.onUnreachable(ps.msg.From, ps.msg.To, ps.msg)
		}
		return
	}
	ps.attempt++
	l.stats.Retransmissions++
	l.transmit(p, ps)
}

func (l *Layer) receive(p *port, m runtime.Message) {
	switch pl := m.Payload.(type) {
	case dataMsg:
		dup := p.seen[m.From][pl.Seq]
		if dup {
			l.stats.DuplicatesSuppressed++
		} else {
			if p.seen[m.From] == nil {
				p.seen[m.From] = make(map[uint64]bool)
			}
			p.seen[m.From][pl.Seq] = true
			if p.journal != nil {
				p.journal.Seen(m.From, pl.Seq)
			}
		}
		// Ack even duplicates: the previous ack may itself have been lost.
		l.stats.AcksSent++
		l.net.Send(runtime.Message{From: p.id, To: m.From, Payload: ackMsg{Seq: pl.Seq}, Size: ackSize})
		if dup {
			return
		}
		if h := l.upper[p.id]; h != nil {
			h.Deliver(runtime.Message{From: m.From, To: m.To, Payload: pl.Payload, Size: m.Size - headerSize})
		}
	case ackMsg:
		if ps, ok := p.pending[pl.Seq]; ok {
			ps.timer.Cancel()
			delete(p.pending, pl.Seq)
		}
	default:
		// A sender bypassed the layer; hand the raw message up unchanged.
		if h := l.upper[p.id]; h != nil {
			h.Deliver(m)
		}
	}
}

// Crash discards node id's volatile endpoint state: unacked sends die with
// the node and its duplicate-suppression table is lost (see the package
// comment for the recovery consequences). The send counter survives.
func (l *Layer) Crash(id runtime.NodeID) {
	p, ok := l.ports[id]
	if !ok {
		return
	}
	for _, ps := range p.pending {
		ps.timer.Cancel()
	}
	p.reset()
	p.journal = nil
}

// Stats returns a copy of the recovery counters.
func (l *Layer) Stats() Stats { return l.stats }
