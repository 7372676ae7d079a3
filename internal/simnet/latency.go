package simnet

import (
	"fmt"
	"math"
	"time"
)

// LatencyModel draws a one-way delivery delay for a message. Models may use
// the network's seeded random source and the topology's costs; they must not
// consult any other source of randomness, to preserve determinism.
type LatencyModel interface {
	Sample(n *Network, msg Message) time.Duration
}

// constantLatency delivers every message after a fixed delay.
type constantLatency time.Duration

// Constant returns a model with a fixed one-way delay.
func Constant(d time.Duration) LatencyModel { return constantLatency(d) }

func (c constantLatency) Sample(*Network, Message) time.Duration { return time.Duration(c) }

// uniformLatency draws delays uniformly from [Min, Max].
type uniformLatency struct{ min, max time.Duration }

// Uniform returns a model drawing delays uniformly from [min, max].
func Uniform(min, max time.Duration) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return uniformLatency{min, max}
}

func (u uniformLatency) Sample(n *Network, _ Message) time.Duration {
	if u.max == u.min {
		return u.min
	}
	return u.min + time.Duration(n.Sim().Rand().Int63n(int64(u.max-u.min)))
}

// expLatency draws base + Exp(mean) jitter, truncated at base+10*mean so a
// single unlucky draw cannot stall a simulation.
type expLatency struct {
	base time.Duration
	mean time.Duration
}

// Exponential returns a model with a fixed base delay plus exponentially
// distributed jitter with the given mean — the paper's characterization of
// Internet paths ("long, variable communication latency").
func Exponential(base, jitterMean time.Duration) LatencyModel {
	return expLatency{base, jitterMean}
}

func (e expLatency) Sample(n *Network, _ Message) time.Duration {
	if e.mean <= 0 {
		return e.base
	}
	j := n.Sim().Rand().ExpFloat64() * float64(e.mean)
	if max := 10 * float64(e.mean); j > max {
		j = max
	}
	return e.base + time.Duration(j)
}

// costLatency maps topology cost to latency: delay = PerCost*cost + jitter.
type costLatency struct {
	perCost time.Duration
	jitter  LatencyModel
}

// CostProportional returns a model where the delay between two nodes is
// perCost multiplied by their topology cost, plus an optional jitter model.
// With a RandomGeo topology this yields the heterogeneous wide-area delays
// the paper argues MARP is designed for.
func CostProportional(perCost time.Duration, jitter LatencyModel) LatencyModel {
	return costLatency{perCost, jitter}
}

func (c costLatency) Sample(n *Network, msg Message) time.Duration {
	cost := n.Cost(msg.From, msg.To)
	if math.IsInf(cost, 1) {
		cost = 1
	}
	d := time.Duration(float64(c.perCost) * cost)
	if c.jitter != nil {
		d += c.jitter.Sample(n, msg)
	}
	return d
}

// LAN returns the latency preset for the paper's prototype environment: a
// local network of workstations with sub-millisecond to few-millisecond
// one-way delays.
func LAN() LatencyModel { return Exponential(500*time.Microsecond, 300*time.Microsecond) }

// WAN returns the latency preset for the Internet environment the paper
// targets: tens of milliseconds base delay with heavy jitter.
func WAN() LatencyModel { return Exponential(40*time.Millisecond, 15*time.Millisecond) }

// Prototype returns the latency preset calibrated to the paper's prototype:
// Java-based agent migration between SUN workstations on a LAN cost several
// milliseconds per hop (serialization plus transfer), which is what puts the
// paper's Figure 4 crossover near a 45 ms inter-arrival time.
func Prototype() LatencyModel { return Exponential(3*time.Millisecond, 1500*time.Microsecond) }

// Preset returns the named latency preset: "lan", "prototype" or "wan".
func Preset(name string) (LatencyModel, error) {
	switch name {
	case "lan":
		return LAN(), nil
	case "prototype":
		return Prototype(), nil
	case "wan":
		return WAN(), nil
	}
	return nil, fmt.Errorf("unknown latency preset %q (lan, prototype or wan)", name)
}
