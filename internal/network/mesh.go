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

// AvgHops is the expected routing distance under uniform traffic. On a
// ring of n nodes it is taken as n/4 per dimension; on a line the mean
// distance between two uniform points is (n²-1)/(3n).
func (m *Mesh) AvgHops() float64 {
	if m.Wrap {
		return (float64(m.DimX) + float64(m.DimY)) / 4
	}
	lineAvg := func(n int) float64 {
		if n <= 1 {
			return 0
		}
		nf := float64(n)
		return (nf*nf - 1) / (3 * nf)
	}
	return lineAvg(m.DimX) + lineAvg(m.DimY)
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

// Delay implements Net (average distance).
func (m *Mesh) Delay(payloadWords int) int64 {
	return m.delayHops(m.AvgHops(), payloadWords)
}

// DelayBetween implements Net.
func (m *Mesh) DelayBetween(src, dst, payloadWords int) int64 {
	return m.delayHops(float64(m.Hops(src, dst)), payloadWords)
}

// RoundTrip implements Net.
func (m *Mesh) RoundTrip(payloadWords int) int64 {
	return m.Delay(1) + m.Delay(payloadWords)
}

// RoundTripBetween implements Net.
func (m *Mesh) RoundTripBetween(src, dst, payloadWords int) int64 {
	return m.DelayBetween(src, dst, 1) + m.DelayBetween(dst, src, payloadWords)
}

func (m *Mesh) String() string {
	if m.Wrap {
		return fmt.Sprintf("torus{%dx%d, load=%.3f}", m.DimX, m.DimY, m.Load())
	}
	return fmt.Sprintf("mesh{%dx%d nodes, %d/cluster, load=%.3f}", m.DimX, m.DimY, m.Cluster, m.Load())
}
