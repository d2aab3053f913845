// Package network implements the interconnection network models: an
// indirect k-ary multistage network whose delays follow the Kruskal–Snir
// analytic queueing model (the paper's), and a 2-D grid — a mesh, or with
// wraparound links a torus like the Cray T3D's physical network — whose
// delays grow with routing distance. Both share one offered-load
// estimator.
//
// The Kruskal–Snir result approximates the expected waiting time per
// stage of an unbuffered/buffered banyan under offered load m (packets
// per cycle per input) with k-input switches as
//
//	w = m * (1 - 1/k) / (2 * (1 - m))
//
// so a request that traverses n = ceil(log_k P) stages with a payload of
// L words sees a network delay of roughly n*(1+w) + (L-1) pipelined
// cycles each way.
package network

import (
	"fmt"
	"math"
)

// Net abstracts the interconnect model: the Kruskal–Snir multistage
// network the paper simulates (uniform, distance-independent) and the
// 2-D Mesh (distance-dependent, dimension-ordered routing).
type Net interface {
	// Inject records words entering the network for load estimation.
	Inject(words int64)
	// AdvanceTo updates the load estimate at a new global cycle count.
	AdvanceTo(cycle int64)
	// Load returns the clamped offered-load estimate.
	Load() float64
	// Delay is the one-way traversal time under uniform (average
	// distance) traffic.
	Delay(payloadWords int) int64
	// DelayBetween is the one-way traversal time between two endpoints
	// (equal to Delay for distance-independent topologies).
	DelayBetween(src, dst, payloadWords int) int64
	// RoundTrip is a request out and a payload back, average distance.
	RoundTrip(payloadWords int) int64
	// RoundTripBetween is a request src->dst and a payload dst->src.
	RoundTripBetween(src, dst, payloadWords int) int64
	fmt.Stringer
}

// loadEstimator is the offered-load estimate every model shares: words
// injected since the last barrier fold into an exponentially weighted
// words/cycle/port average when the global clock advances.
type loadEstimator struct {
	ports     int
	ewmaLoad  float64
	lastCycle int64
	words     int64 // words injected since lastCycle
}

// Inject records words entering the network (for load estimation).
func (e *loadEstimator) Inject(words int64) { e.words += words }

// AdvanceTo updates the load estimate at a new global cycle count.
func (e *loadEstimator) AdvanceTo(cycle int64) {
	if cycle <= e.lastCycle {
		return
	}
	dt := cycle - e.lastCycle
	inst := float64(e.words) / (float64(dt) * float64(e.ports))
	const alpha = 0.25
	e.ewmaLoad = alpha*inst + (1-alpha)*e.ewmaLoad
	e.words = 0
	e.lastCycle = cycle
}

// Load returns the current offered-load estimate, clamped to [0, 0.95]
// so the queueing term stays finite.
func (e *loadEstimator) Load() float64 {
	l := e.ewmaLoad
	if l < 0 {
		return 0
	}
	if l > 0.95 {
		return 0.95
	}
	return l
}

// Model is the analytic multistage network model.
type Model struct {
	Procs  int
	Arity  int // k
	Stages int // ceil(log_k Procs)

	loadEstimator
}

var _ Net = (*Model)(nil)

// New builds the model for a machine size.
func New(procs, arity int) *Model {
	if arity < 2 {
		arity = 2
	}
	stages := 0
	for n := 1; n < procs; n *= arity {
		stages++
	}
	if stages == 0 {
		stages = 1
	}
	return &Model{Procs: procs, Arity: arity, Stages: stages, loadEstimator: loadEstimator{ports: procs}}
}

// Delay returns the one-way network traversal time in cycles for a packet
// of payloadWords under the current load estimate.
func (m *Model) Delay(payloadWords int) int64 {
	load := m.Load()
	perStageWait := load * (1 - 1/float64(m.Arity)) / (2 * (1 - load))
	d := float64(m.Stages)*(1+perStageWait) + float64(payloadWords-1)
	return int64(math.Ceil(d))
}

// DelayBetween implements Net: a multistage network's path length does
// not depend on the endpoints.
func (m *Model) DelayBetween(src, dst, payloadWords int) int64 {
	return m.Delay(payloadWords)
}

// RoundTrip returns request + response traversal time: a small request
// packet out, a payload packet back.
func (m *Model) RoundTrip(payloadWords int) int64 {
	return m.Delay(1) + m.Delay(payloadWords)
}

// RoundTripBetween implements Net.
func (m *Model) RoundTripBetween(src, dst, payloadWords int) int64 {
	return m.RoundTrip(payloadWords)
}

func (m *Model) String() string {
	return fmt.Sprintf("network{P=%d, %d-ary, %d stages, load=%.3f}", m.Procs, m.Arity, m.Stages, m.Load())
}
