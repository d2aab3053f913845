// Package stats collects the measurements the paper's evaluation reports:
// miss rates with cause classification, network traffic split into read,
// write, and coherence words, miss latencies, and execution time.
package stats

import (
	"fmt"
	"strings"
)

// MissClass classifies why a cache miss happened, following the paper's
// decomposition (true sharing is a necessary coherence miss; false sharing
// and conservative misses are the unnecessary ones; cold and replacement
// are ordinary uniprocessor misses).
type MissClass int

const (
	// MissCold is the first access to a word by this processor.
	MissCold MissClass = iota
	// MissReplace re-fetches a word lost to capacity/conflict eviction.
	MissReplace
	// MissTrueSharing re-fetches a word another processor actually
	// changed (necessary coherence miss).
	MissTrueSharing
	// MissFalseSharing re-fetches a word lost to an invalidation caused
	// by a write to a *different* word of the line (directory protocols).
	MissFalseSharing
	// MissConservative re-fetches a word that was actually still current
	// but failed the Time-Read window test (HSCD schemes) .
	MissConservative
	// MissBypass counts uncached accesses (BASE shared data, SC bypasses,
	// critical-section reads): always remote.
	MissBypass
	// MissLeaseExpired re-fetches (renews) a word whose data was still
	// current but whose Tardis read lease had expired — the timestamp-
	// coherence analog of the HSCD conservative miss and the directory
	// false-sharing miss. Declared after MissBypass so the earlier
	// classes keep their ordinals (binary traces store the class as a
	// byte); ClassTable puts it in report position between
	// conservative and bypass.
	MissLeaseExpired
	numMissClasses
)

// NumMissClasses is the number of miss classes, for sizing per-class
// counter arrays outside this package.
const NumMissClasses = int(numMissClasses)

// ClassInfo names one miss class in each form the outputs print it.
type ClassInfo struct {
	Class   MissClass
	Name    string // String(), Stats.String, Perfetto counter args
	Key     string // ClassCounts JSON object key
	Summary string // tpitrace summary line
	Head    string // tpitrace table column head
	Column  string // experiment table column head
}

// ClassTable declares every miss class once, in report order; every
// list of classes, class names, or per-class cells derives from it. A
// new class is one constant above and one row here.
var ClassTable = [NumMissClasses]ClassInfo{
	{MissCold, "cold", "cold", "cold", "cold", "cold"},
	{MissReplace, "replace", "replace", "replace", "repl", "replace"},
	{MissTrueSharing, "true-sharing", "trueSharing", "true", "true", "true-shr"},
	{MissFalseSharing, "false-sharing", "falseSharing", "false", "false", "false-shr"},
	{MissConservative, "conservative", "conservative", "conservative", "consv", "conserv"},
	{MissLeaseExpired, "lease-expired", "leaseExpired", "lease-expired", "lease", "lease-exp"},
	{MissBypass, "bypass", "bypass", "bypass", "byp", "bypass"},
}

func (m MissClass) String() string {
	for _, ci := range ClassTable {
		if ci.Class == m {
			return ci.Name
		}
	}
	return "?"
}

// Stats accumulates one simulation run's measurements. Its counters
// sit in two embedded groups that Snapshot embeds too, so the JSON
// schema and the in-memory counters share one declaration.
type Stats struct {
	Scheme string

	RefCounts
	EventCounts

	// ProcBusy is the per-processor busy-cycle total (compute + stalls),
	// filled by the simulator for load-imbalance analysis.
	ProcBusy []int64
}

// RefCounts counts the references a run issues and how they resolve.
type RefCounts struct {
	Reads     int64 `json:"reads"`  // all read references issued
	Writes    int64 `json:"writes"` // all write references issued
	ReadHits  int64 `json:"readHits"`
	WriteHits int64 `json:"writeHits"`

	// ReadMisses classifies every read that was not a hit. WriteMisses
	// mirrors it for writes: a write hit finds the word valid in the
	// cache; a write miss is classified by the same tracker history
	// (uncached/critical stores count as MissBypass).
	ReadMisses  ClassCounts `json:"readMisses"`
	WriteMisses ClassCounts `json:"writeMisses"`
}

// EventCounts counts what the references cost: traffic, latency,
// scheme-specific events and execution time.
type EventCounts struct {
	// Traffic in words moved through the network.
	ReadTrafficWords      int64 `json:"readTrafficWords"`
	WriteTrafficWords     int64 `json:"writeTrafficWords"`
	CoherenceTrafficWords int64 `json:"coherenceTrafficWords"`
	CoherenceMsgs         int64 `json:"coherenceMsgs"` // invalidations, ownership transfers
	Invalidations         int64 `json:"invalidations"` // lines/words invalidated by coherence

	// Latency: sum of read miss latencies in cycles (for avg miss latency).
	MissLatencySum int64 `json:"missLatencySum"`

	// WriteMissLatencySum sums write stalls charged at write misses (zero
	// under weak consistency, where stores are buffered).
	WriteMissLatencySum int64 `json:"writeMissLatencySum"`

	// TPI-specific.
	TimetagResets      int64 `json:"timetagResets"`      // two-phase reset events
	ResetInvalidations int64 `json:"resetInvalidations"` // words invalidated by resets
	WritesCoalesced    int64 `json:"writesCoalesced"`    // redundant writes removed by the wb-cache

	// Tardis-specific: lease renewals that moved no data (the home found
	// the data unchanged and only extended the lease) and Tardis 2.0
	// exclusive grants on unshared read misses.
	LeaseRenewals   int64 `json:"leaseRenewals"`
	ExclusiveGrants int64 `json:"exclusiveGrants"`

	// Limited-pointer directory: sharers evicted to free a pointer.
	PointerEvictions int64 `json:"pointerEvictions"`

	// Write-back-at-boundary policy: words flushed at barriers and the
	// stall cycles those bursts cost.
	FlushedWords     int64 `json:"flushedWords"`
	FlushStallCycles int64 `json:"flushStallCycles"`

	// PrefetchedLines counts one-block-lookahead prefetches issued.
	PrefetchedLines int64 `json:"prefetchedLines"`

	// Two-level TPI (on-chip L1 in front of the timetagged L2): L1 filter
	// hits/misses and the L1 word invalidations the compiled Time-Read /
	// bypass sequences issue. Kept here (not on the scheme) so they shard
	// per lane and merge at barriers like every other counter.
	L1Hits                  int64 `json:"l1Hits"`
	L1Misses                int64 `json:"l1Misses"`
	TimeReadL1Invalidations int64 `json:"timeReadL1Invalidations"`

	// Execution time.
	Cycles        int64 `json:"cycles"`
	BarrierCycles int64 `json:"barrierCycles"`
	Epochs        int64 `json:"epochs"`
}

// Add accumulates another run fragment's counters into s. It is the
// host-parallel barrier merge: every field is an integer sum, so folding
// per-processor shards in any order reproduces the sequential totals bit
// for bit. Scheme and ProcBusy are identity fields owned by the enclosing
// run, not counters, and are left untouched. It runs once per lane at
// every barrier, so it is written out field by field rather than by
// reflection; TestStatsAddCoversEveryCounter fails when a counter is
// missing here.
func (s *Stats) Add(o *Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadHits += o.ReadHits
	s.WriteHits += o.WriteHits
	s.ReadMisses.Add(o.ReadMisses)
	s.WriteMisses.Add(o.WriteMisses)
	s.ReadTrafficWords += o.ReadTrafficWords
	s.WriteTrafficWords += o.WriteTrafficWords
	s.CoherenceTrafficWords += o.CoherenceTrafficWords
	s.CoherenceMsgs += o.CoherenceMsgs
	s.Invalidations += o.Invalidations
	s.MissLatencySum += o.MissLatencySum
	s.WriteMissLatencySum += o.WriteMissLatencySum
	s.TimetagResets += o.TimetagResets
	s.ResetInvalidations += o.ResetInvalidations
	s.WritesCoalesced += o.WritesCoalesced
	s.LeaseRenewals += o.LeaseRenewals
	s.ExclusiveGrants += o.ExclusiveGrants
	s.PointerEvictions += o.PointerEvictions
	s.FlushedWords += o.FlushedWords
	s.FlushStallCycles += o.FlushStallCycles
	s.PrefetchedLines += o.PrefetchedLines
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.TimeReadL1Invalidations += o.TimeReadL1Invalidations
	s.Cycles += o.Cycles
	s.BarrierCycles += o.BarrierCycles
	s.Epochs += o.Epochs
}

// Imbalance is max/mean of the per-processor busy cycles (1.0 =
// perfectly balanced; undefined without ProcBusy data).
func (s *Stats) Imbalance() float64 {
	if len(s.ProcBusy) == 0 {
		return 0
	}
	var max, sum int64
	for _, v := range s.ProcBusy {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.ProcBusy))
	return float64(max) / mean
}

// TotalReadMisses sums all miss classes.
func (s *Stats) TotalReadMisses() int64 { return s.ReadMisses.Total() }

// MissRate is read misses over all reads.
func (s *Stats) MissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadMisses()) / float64(s.Reads)
}

// TotalWriteMisses sums all write-miss classes.
func (s *Stats) TotalWriteMisses() int64 { return s.WriteMisses.Total() }

// WriteMissRate is write misses over all writes.
func (s *Stats) WriteMissRate() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.TotalWriteMisses()) / float64(s.Writes)
}

// AvgWriteMissLatency is the mean write-miss stall in cycles.
func (s *Stats) AvgWriteMissLatency() float64 {
	n := s.TotalWriteMisses()
	if n == 0 {
		return 0
	}
	return float64(s.WriteMissLatencySum) / float64(n)
}

// AvgMissLatency is the mean read-miss latency in cycles.
func (s *Stats) AvgMissLatency() float64 {
	n := s.TotalReadMisses()
	if n == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(n)
}

// TotalTraffic sums all traffic classes in words.
func (s *Stats) TotalTraffic() int64 {
	return s.ReadTrafficWords + s.WriteTrafficWords + s.CoherenceTrafficWords
}

// UnnecessaryMisses are the coherence misses the paper calls unnecessary:
// false-sharing (directory), conservative (HSCD), and lease-expired
// (Tardis) — each a re-fetch of data that was in fact still current.
func (s *Stats) UnnecessaryMisses() int64 {
	return s.ReadMisses[MissFalseSharing] + s.ReadMisses[MissConservative] + s.ReadMisses[MissLeaseExpired]
}

// String renders a compact single-run report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s reads=%d writes=%d missrate=%.4f avgmisslat=%.1f cycles=%d\n",
		s.Scheme, s.Reads, s.Writes, s.MissRate(), s.AvgMissLatency(), s.Cycles)
	fmt.Fprintf(&b, "      misses:")
	for _, ci := range ClassTable {
		if s.ReadMisses[ci.Class] > 0 {
			fmt.Fprintf(&b, " %s=%d", ci.Name, s.ReadMisses[ci.Class])
		}
	}
	if s.TotalWriteMisses() > 0 {
		fmt.Fprintf(&b, "\n      wmisses:")
		for _, ci := range ClassTable {
			if s.WriteMisses[ci.Class] > 0 {
				fmt.Fprintf(&b, " %s=%d", ci.Name, s.WriteMisses[ci.Class])
			}
		}
	}
	fmt.Fprintf(&b, "\n      traffic: read=%d write=%d coherence=%d words (coalesced %d writes)",
		s.ReadTrafficWords, s.WriteTrafficWords, s.CoherenceTrafficWords, s.WritesCoalesced)
	if s.TimetagResets > 0 {
		fmt.Fprintf(&b, "\n      resets=%d resetInvalidations=%d", s.TimetagResets, s.ResetInvalidations)
	}
	if s.LeaseRenewals > 0 || s.ExclusiveGrants > 0 {
		fmt.Fprintf(&b, "\n      leaseRenewals=%d exclusiveGrants=%d", s.LeaseRenewals, s.ExclusiveGrants)
	}
	return b.String()
}
