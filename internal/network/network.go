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
	// AdvanceTo updates the load estimate at a new global cycle count,
	// and with it the latency table.
	AdvanceTo(cycle int64)
	// Load returns the clamped offered-load estimate.
	Load() float64
	// Latencies returns the network's latency table for one-word and
	// lineWords-word packets, which every later AdvanceTo keeps current.
	// Call it once, before the first AdvanceTo.
	Latencies(lineWords int) *Latency
	fmt.Stringer
}

// Latency is a network's miss-latency table: the one-way delay of a
// one-word and of a line-sized packet, by hop count (a single entry,
// hop count 0, for the distance-independent Model). The load estimate
// only changes at AdvanceTo, so the network rebuilds the table there,
// each entry from the same expression Delay or DelayBetween evaluates;
// a miss then costs a table read instead of a call and a math.Ceil.
// AdvanceTo runs at the epoch barrier, so host-parallel workers only
// ever read the table.
type Latency struct {
	mesh       *Mesh // hop counts; nil for the Model
	lineWords  int
	word, line []int64 // one-way delay by hop count
}

// init sizes the table for hop counts 0..maxHops, in one allocation.
func (t *Latency) init(mesh *Mesh, maxHops, lineWords int) {
	n := maxHops + 1
	buf := make([]int64, 2*n)
	*t = Latency{mesh: mesh, lineWords: lineWords, word: buf[:n:n], line: buf[n:]}
}

// hops is the table index of the path src->dst.
func (t *Latency) hops(src, dst int) int {
	if t.mesh == nil {
		return 0
	}
	return t.mesh.Hops(src, dst)
}

// Word is DelayBetween(src, dst, 1).
func (t *Latency) Word(src, dst int) int64 { return t.word[t.hops(src, dst)] }

// Line is DelayBetween(src, dst, lineWords).
func (t *Latency) Line(src, dst int) int64 { return t.line[t.hops(src, dst)] }

// WordRoundTrip is RoundTripBetween(src, dst, 1): a request out and a
// one-word reply back (hop counts are symmetric).
func (t *Latency) WordRoundTrip(src, dst int) int64 {
	h := t.hops(src, dst)
	return t.word[h] + t.word[h]
}

// LineRoundTrip is RoundTripBetween(src, dst, lineWords): a request out
// and a line back.
func (t *Latency) LineRoundTrip(src, dst int) int64 {
	h := t.hops(src, dst)
	return t.word[h] + t.line[h]
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

// advance updates the load estimate at a new global cycle count and
// reports whether it moved the clock.
func (e *loadEstimator) advance(cycle int64) bool {
	if cycle <= e.lastCycle {
		return false
	}
	dt := cycle - e.lastCycle
	inst := float64(e.words) / (float64(dt) * float64(e.ports))
	const alpha = 0.25
	e.ewmaLoad = alpha*inst + (1-alpha)*e.ewmaLoad
	e.words = 0
	e.lastCycle = cycle
	return true
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
	lat Latency // empty until Latencies
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

// AdvanceTo implements Net.
func (m *Model) AdvanceTo(cycle int64) {
	if m.advance(cycle) && m.lat.word != nil {
		m.fill()
	}
}

// Latencies implements Net.
func (m *Model) Latencies(lineWords int) *Latency {
	m.lat.init(nil, 0, lineWords)
	m.fill()
	return &m.lat
}

// fill rebuilds the latency table at the current load.
func (m *Model) fill() {
	m.lat.word[0] = m.Delay(1)
	m.lat.line[0] = m.Delay(m.lat.lineWords)
}

// Delay returns the one-way network traversal time in cycles for a packet
// of payloadWords under the current load estimate.
func (m *Model) Delay(payloadWords int) int64 {
	load := m.Load()
	perStageWait := load * (1 - 1/float64(m.Arity)) / (2 * (1 - load))
	d := float64(m.Stages)*(1+perStageWait) + float64(payloadWords-1)
	return int64(math.Ceil(d))
}

// DelayBetween is the one-way delay between two processors, the
// reference expression for the latency table: a multistage network's
// path length does not depend on the endpoints.
func (m *Model) DelayBetween(src, dst, payloadWords int) int64 {
	return m.Delay(payloadWords)
}

// RoundTrip returns request + response traversal time: a small request
// packet out, a payload packet back.
func (m *Model) RoundTrip(payloadWords int) int64 {
	return m.Delay(1) + m.Delay(payloadWords)
}

// RoundTripBetween is RoundTrip between two processors, the reference
// expression for the latency table's round trips.
func (m *Model) RoundTripBetween(src, dst, payloadWords int) int64 {
	return m.RoundTrip(payloadWords)
}

func (m *Model) String() string {
	return fmt.Sprintf("network{P=%d, %d-ary, %d stages, load=%.3f}", m.Procs, m.Arity, m.Stages, m.Load())
}
