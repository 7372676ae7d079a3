package transport

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/store"
)

// backend is what a replication protocol supplies to the Server: the parts
// of the service that differ between MARP and the optimistic protocol.
// Every method runs on the engine's execution context.
type backend interface {
	// Shared by both protocol clusters.
	PartitionNet(groups ...[]runtime.NodeID)
	HealNet()
	Metrics() *metrics.Registry
	Now() runtime.Time
	// Health is the /healthz body.
	Health() core.Health

	// submit applies a submit request, refusing fields the protocol does
	// not implement; it returns the assigned transaction ID, if any.
	submit(req Request) (txn string, err error)
	// read serves a read request at req.Node.
	read(req Request) (store.Value, bool, error)
	crash(id runtime.NodeID) error
	recover(id runtime.NodeID) error
	// tally counts the outcomes recorded at this process.
	tally() tally
	// shape returns a scenario body holding only the cluster shape and
	// the digest kind.
	shape() *ScenarioBody
	// migrationsMetric names the registry counter of completed agent hops.
	migrationsMetric() string
	// up lists the hosted replicas that are up, ascending.
	up() []runtime.NodeID
	// log returns one shard of a hosted replica's converging log: the
	// tier every replica ends up holding identically.
	log(id runtime.NodeID, shard int) ([]store.Update, error)
	// tiers returns the whole digest of the converging tier, given its
	// log over all shards, and the tentative tier, if the protocol has one.
	tiers(id runtime.NodeID, converging []store.Update) (string, *TierDigest, error)
	// shardSummaries aggregates recorded outcome latencies per shard (nil
	// when the protocol records none).
	shardSummaries() map[int]metrics.ShardSummary
	// referee returns the kind-tagged referee response.
	referee() Response
}

// tally is a process's outcome count. The stats body counts outcomes — a
// MARP agent carries a batch of requests — while scenario bodies count
// client requests, so the numbers add across processes.
type tally struct {
	committed, failed                 int
	committedRequests, failedRequests int
	outstanding                       int
}

// marpBackend serves MARP: pessimistic locking agents commit each update
// at a write quorum; a committed update is final.
type marpBackend struct{ *core.Cluster }

func (b marpBackend) submit(req Request) (string, error) {
	if req.Guard != "" {
		// Refused rather than ignored: a silently dropped guard would
		// turn an intended CAS into an unconditional overwrite.
		return "", errors.New("guard requires an optimistic service (marpd -protocol optimistic); MARP has no CAS submit")
	}
	r := core.Set(req.Key, req.Value)
	if req.Append {
		r = core.Append(req.Key, req.Value)
	}
	return "", b.Submit(runtime.NodeID(req.Home), r)
}

func (b marpBackend) read(req Request) (store.Value, bool, error) {
	if req.Tentative {
		return store.Value{}, false, errors.New("tentative reads require an optimistic service (marpd -protocol optimistic); MARP commits are final")
	}
	v, ok := b.Read(runtime.NodeID(req.Node), req.Key)
	return v, ok, nil
}

func (b marpBackend) crash(id runtime.NodeID) error {
	b.Crash(id)
	return nil
}

func (b marpBackend) recover(id runtime.NodeID) error {
	b.Recover(id)
	return nil
}

func (b marpBackend) tally() tally {
	t := tally{outstanding: b.Outstanding()}
	for _, o := range b.Outcomes() {
		if o.Failed {
			t.failed++
			t.failedRequests += o.Requests
		} else {
			t.committed++
			t.committedRequests += o.Requests
		}
	}
	return t
}

func (b marpBackend) shape() *ScenarioBody {
	shape := b.Describe()
	return &ScenarioBody{
		Servers:       shape.N,
		Shards:        shape.Shards,
		Geometry:      string(shape.Geometry),
		Fsync:         shape.Fsync,
		CommitDelayUS: shape.GroupCommitDelay.Microseconds(),
		DigestKind:    DigestKindCommitSet,
	}
}

func (b marpBackend) migrationsMetric() string { return "marp.agent.migrations_completed" }

func (b marpBackend) up() []runtime.NodeID {
	var out []runtime.NodeID
	for _, id := range b.Nodes() {
		if srv := b.Server(id); srv != nil && !srv.Down() {
			out = append(out, id)
		}
	}
	return out
}

// log serves even a crashed replica: its committed data survives on
// stable storage.
func (b marpBackend) log(id runtime.NodeID, shard int) ([]store.Update, error) {
	srv := b.Server(id)
	if srv == nil {
		return nil, fmt.Errorf("node %d is not hosted here", id)
	}
	return srv.StoreOf(shard).Log(), nil
}

// tiers digests the commit set order-independently: MARP serializes
// commits per key, not globally.
func (b marpBackend) tiers(_ runtime.NodeID, commits []store.Update) (string, *TierDigest, error) {
	d, _ := digestLog(commits)
	return d, nil, nil
}

func (b marpBackend) shardSummaries() map[int]metrics.ShardSummary {
	var samples []metrics.Sample
	for _, o := range b.Outcomes() {
		samples = append(samples, metrics.Sample{
			ALT:    o.LockLatency().Duration(),
			ATT:    o.TotalLatency().Duration(),
			Visits: o.Visits,
			Failed: o.Failed,
			Shards: o.Shards,
		})
	}
	return metrics.Summarize(samples).ByShard
}

func (b marpBackend) referee() Response {
	ref := b.Referee()
	return Response{OK: true, Kind: RefereeKindGrants, Wins: ref.Wins(), Violations: len(ref.Violations())}
}

// optGeometry is the geometry an optimistic deployment reports in scenario
// bodies: the protocol is quorum-less, so none of the quorum geometries
// apply.
const optGeometry = "optimistic"

// optBackend serves the optimistic protocol: submits commit tentatively at
// local latency, and reconciliation agents elect them into a stable prefix
// that converges across replicas.
type optBackend struct{ *optimistic.Cluster }

// Health reports the process healthy exactly when it hosts an up replica:
// there is no quorum to reach, since a replica serves tentative commits
// alone.
func (b optBackend) Health() core.Health {
	h := core.Health{Vantage: runtime.None}
	if up := b.up(); len(up) > 0 {
		h.Vantage, h.QuorumOK = up[0], true
	}
	return h
}

func (b optBackend) submit(req Request) (string, error) {
	if req.Append {
		return "", errors.New("optimistic: append is not supported (reconciliation re-executes blind writes only; use a CAS guard for read-modify-write)")
	}
	return b.SubmitCAS(runtime.NodeID(req.Home), req.Key, req.Value, req.Guard)
}

func (b optBackend) read(req Request) (store.Value, bool, error) {
	return b.Read(runtime.NodeID(req.Node), req.Key, req.Tentative)
}

func (b optBackend) crash(id runtime.NodeID) error   { return b.Crash(id) }
func (b optBackend) recover(id runtime.NodeID) error { return b.Recover(id) }

// tally counts still-tentative submissions as outstanding: like MARP, a
// clean capture is one where everything the clients were told about has
// reached its final state.
func (b optBackend) tally() tally {
	var t tally
	for _, o := range b.Outcomes() {
		switch {
		case o.Aborted:
			t.failed++
		case o.StableAt != 0:
			t.committed++
		default:
			t.outstanding++
		}
	}
	t.committedRequests, t.failedRequests = t.committed, t.failed
	return t
}

func (b optBackend) shape() *ScenarioBody {
	return &ScenarioBody{
		Servers:    b.N(),
		Shards:     b.Shards(),
		Geometry:   optGeometry,
		DigestKind: DigestKindStablePrefix,
	}
}

func (b optBackend) migrationsMetric() string { return "marp.opt.gossip_hops" }

func (b optBackend) up() []runtime.NodeID {
	var out []runtime.NodeID
	for _, id := range b.LocalNodes() {
		if !b.Down(id) {
			out = append(out, id)
		}
	}
	return out
}

func (b optBackend) log(id runtime.NodeID, shard int) ([]store.Update, error) {
	log, err := b.StableLog(id, shard)
	if err == nil && b.Down(id) {
		err = fmt.Errorf("node %d is down", id)
	}
	return log, err
}

// tiers digests the stable prefix ORDER-DEPENDENTLY (invariant 15 pins the
// prefix order, so two converged replicas agree on it exactly) and the
// tentative overlay order-independently, matching its weaker promise:
// overlays at two replicas agree on membership only after gossip quiesces,
// never on arrival order.
func (b optBackend) tiers(id runtime.NodeID, _ []store.Update) (string, *TierDigest, error) {
	stable, _, err := b.StableDigest(id)
	if err != nil {
		return "", nil, err
	}
	var overlay []store.Update
	for sh := 0; sh < b.Shards(); sh++ {
		ov, err := b.Overlay(id, sh)
		if err != nil {
			return "", nil, err
		}
		overlay = append(overlay, ov...)
	}
	d, n := digestLog(overlay)
	return stable, &TierDigest{Digest: d, Entries: n, Keys: scenario.KeyDigests(overlay)}, nil
}

func (b optBackend) shardSummaries() map[int]metrics.ShardSummary { return nil }

// referee audits the optimistic analogue of the lock referee's
// single-claimant rule: every up replica this process hosts must hold the
// identical stable prefix. Wins counts the stable entries at the first up
// hosted replica; one violation is reported when hosted replicas diverge.
func (b optBackend) referee() Response {
	resp := Response{OK: true, Kind: DigestKindStablePrefix}
	if up := b.up(); len(up) > 0 {
		_, n, err := b.StableDigest(up[0])
		if err != nil {
			return reply(err)
		}
		resp.Wins = n
	}
	if b.CheckConvergence() != nil {
		resp.Violations = 1
	}
	return resp
}
