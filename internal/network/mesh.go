package network

import (
	"fmt"
	"math"
)

// Mesh is a clustered 2-D grid: ClusterSize processors share each grid
// node (a TSAR-style cluster with its own home-directory/memory slice),
// nodes form a near-square grid, and routing is dimension-ordered. With
// Wrap set every row and column closes into a ring — a 2-D torus like
// the Cray T3D's physical network — so distance is Manhattan-on-rings;
// without it distance is plain Manhattan. Per-hop latency grows with the
// shared offered-load estimate. Intra-cluster traffic still pays one hop
// (the local crossbar); the locality win is that a cluster's home slice
// is that single hop away while a remote slice is up to DimX+DimY-2.
type Mesh struct {
	Procs      int
	Cluster    int // processors per node
	DimX, DimY int // node grid
	Wrap       bool

	loadEstimator
	lat Latency // empty until Latencies
}

var _ Net = (*Mesh)(nil)

// NewMesh builds a near-square clustered grid for the machine size, with
// wraparound links when wrap is set. clusterSize <= 0 means one
// processor per node (a plain mesh or torus).
func NewMesh(procs, clusterSize int, wrap bool) *Mesh {
	if procs < 1 {
		procs = 1
	}
	if clusterSize < 1 {
		clusterSize = 1
	}
	nodes := (procs + clusterSize - 1) / clusterSize
	dx := int(math.Sqrt(float64(nodes)))
	for dx > 1 && nodes%dx != 0 {
		dx--
	}
	return &Mesh{Procs: procs, Cluster: clusterSize, DimX: dx, DimY: nodes / dx, Wrap: wrap,
		loadEstimator: loadEstimator{ports: procs}}
}

// Node returns the grid node (cluster) housing processor p.
func (m *Mesh) Node(p int) int { return p / m.Cluster }

// Hops returns the dimension-ordered routing distance between the
// clusters of two processors.
func (m *Mesh) Hops(src, dst int) int {
	s, d := m.Node(src), m.Node(dst)
	sx, sy := s%m.DimX, s/m.DimX
	dx, dy := d%m.DimX, d/m.DimX
	return m.dist(sx, dx, m.DimX) + m.dist(sy, dy, m.DimY)
}

// dist is the distance between a and b along one dimension of n nodes:
// the shorter way round a ring under wraparound, |a-b| otherwise.
func (m *Mesh) dist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m.Wrap && n-d < d {
		d = n - d
	}
	return d
}

// AdvanceTo implements Net.
func (m *Mesh) AdvanceTo(cycle int64) {
	if m.advance(cycle) && m.lat.word != nil {
		m.fill()
	}
}

// Latencies implements Net: one entry per hop count up to the grid
// diameter.
func (m *Mesh) Latencies(lineWords int) *Latency {
	m.lat.init(m, m.maxDist(m.DimX)+m.maxDist(m.DimY), lineWords)
	m.fill()
	return &m.lat
}

// maxDist is the largest distance along a dimension of n nodes.
func (m *Mesh) maxDist(n int) int {
	if m.Wrap {
		return n / 2
	}
	return n - 1
}

// fill rebuilds the latency table at the current load.
func (m *Mesh) fill() {
	for h := range m.lat.word {
		m.lat.word[h] = m.delayHops(float64(h), 1)
		m.lat.line[h] = m.delayHops(float64(h), m.lat.lineWords)
	}
}

func (m *Mesh) delayHops(hops float64, payloadWords int) int64 {
	if hops < 1 {
		hops = 1 // intra-cluster traffic crosses the node crossbar once
	}
	load := m.Load()
	perHopWait := load / (2 * (1 - load))
	d := hops*(1+perHopWait) + float64(payloadWords-1)
	return int64(math.Ceil(d))
}

// DelayBetween is the one-way delay between two processors' clusters:
// the reference expression for the latency table.
func (m *Mesh) DelayBetween(src, dst, payloadWords int) int64 {
	return m.delayHops(float64(m.Hops(src, dst)), payloadWords)
}

// RoundTripBetween is a one-word request out and a payload reply back:
// the reference expression for the latency table's round trips.
func (m *Mesh) RoundTripBetween(src, dst, payloadWords int) int64 {
	return m.DelayBetween(src, dst, 1) + m.DelayBetween(dst, src, payloadWords)
}

func (m *Mesh) String() string {
	if m.Wrap {
		return fmt.Sprintf("torus{%dx%d, load=%.3f}", m.DimX, m.DimY, m.Load())
	}
	return fmt.Sprintf("mesh{%dx%d nodes, %d/cluster, load=%.3f}", m.DimX, m.DimY, m.Cluster, m.Load())
}
