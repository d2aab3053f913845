// Package machine defines the simulated machine configuration. The
// defaults reproduce the paper's Figure 8: a Cray-T3D-like multiprocessor
// with 16 single-issue processors, 64 KB direct-mapped lock-up-free data
// caches with 4-word lines, 1-cycle hits, a 100-cycle base miss latency,
// an 8-bit timetag with a 128-cycle two-phase reset, infinite write
// buffers, weak consistency, and an indirect multistage network whose
// delays follow the Kruskal–Snir analytic model.
package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Scheme selects the coherence scheme under simulation.
type Scheme int

const (
	// SchemeBase caches nothing that is shared: every shared reference is
	// a remote memory access (the no-coherence baseline).
	SchemeBase Scheme = iota
	// SchemeSC is the software cache-bypass scheme: potentially-stale
	// references (compiler-marked) bypass the cache; everything else
	// caches with write-through.
	SchemeSC
	// SchemeTPI is the paper's two-phase invalidation HSCD scheme.
	SchemeTPI
	// SchemeHW is the full-map three-state invalidation directory with
	// write-back caches.
	SchemeHW
	// SchemeVC is the Cheong–Veidenbaum version-control HSCD scheme: one
	// current-version number per shared variable, one birth-version
	// number per cache word (our extension; the paper's closest
	// predecessor, compared against directories by Lilja).
	SchemeVC
	// SchemeTardis is timestamp coherence (Yu & Devadas, PACT 2015): per-
	// line write/read-lease timestamps at the home directory slice and
	// per-processor logical clocks replace sharer lists entirely — no
	// invalidation messages; stale copies expire when logical time passes
	// their lease. Its lease-expiry misses are the analog of TPI's
	// conservative misses (our extension).
	SchemeTardis
	// SchemeTardis2 is Tardis with the Tardis 2.0 relaxed-consistency
	// optimizations: lease prediction from per-line reuse history, a
	// MESI-style exclusive grant on unshared read misses, and livelock-
	// avoiding renewal backoff on contended lines.
	SchemeTardis2
)

func (s Scheme) String() string {
	switch s {
	case SchemeBase:
		return "BASE"
	case SchemeSC:
		return "SC"
	case SchemeTPI:
		return "TPI"
	case SchemeHW:
		return "HW"
	case SchemeVC:
		return "VC"
	case SchemeTardis:
		return "TARDIS"
	case SchemeTardis2:
		return "TARDIS2"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SchemeNames lists the parseable scheme names, in AllSchemes order. It is
// derived from the registry, so error messages and CLI cross-products stay
// in sync with new schemes automatically.
func SchemeNames() []string {
	names := make([]string, len(AllSchemes))
	for i, sc := range AllSchemes {
		names[i] = sc.String()
	}
	return names
}

// ParseScheme resolves a scheme name (case-insensitive: "tpi", "HW", ...).
// The error enumerates every valid name from the scheme registry.
func ParseScheme(s string) (Scheme, error) {
	for _, sc := range AllSchemes {
		if strings.EqualFold(sc.String(), s) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("machine: unknown scheme %q (want %s)", s, strings.Join(SchemeNames(), ", "))
}

// MarshalJSON encodes the scheme by name, so configs serialize as
// {"Scheme":"TPI",...} rather than an opaque enum ordinal.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either a scheme name or the legacy ordinal.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		sc, err := ParseScheme(name)
		if err != nil {
			return err
		}
		*s = sc
		return nil
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(b)))
	if err != nil || n < 0 || n > int(SchemeTardis2) {
		return fmt.Errorf("machine: invalid scheme %s", b)
	}
	*s = Scheme(n)
	return nil
}

// Schemes lists the paper's four schemes in its comparison order.
var Schemes = []Scheme{SchemeBase, SchemeSC, SchemeTPI, SchemeHW}

// AllSchemes is the shared scheme registry: the paper's four schemes plus
// the version-control and Tardis timestamp-coherence extensions. CLI
// cross-products (`tpisim -scheme all`), the exper sweep builders, and
// ParseScheme's error message all derive from this list, so a new scheme
// added here propagates everywhere.
var AllSchemes = []Scheme{SchemeBase, SchemeSC, SchemeTPI, SchemeHW, SchemeVC, SchemeTardis, SchemeTardis2}

// Config is the machine and scheme configuration.
type Config struct {
	Scheme Scheme

	// Procs is the number of processors (paper default 16).
	Procs int
	// CacheWords is the per-processor data cache capacity in words.
	// The paper's 64 KB cache with 32-bit words is 16384 words.
	CacheWords int64
	// LineWords is the cache line size in words (paper default 4).
	LineWords int
	// Assoc is the set associativity (paper default 1, direct-mapped).
	Assoc int

	// TimetagBits is the per-word timetag width (paper default 8).
	TimetagBits int
	// ResetCycles is the stall charged by one two-phase timetag reset
	// (paper default 128).
	ResetCycles int64
	// FlashReset selects the ablation where counter overflow invalidates
	// the whole cache instead of only out-of-phase words.
	FlashReset bool

	// HitCycles and MissCycles are the cache hit latency and the base
	// (unloaded, local-equivalent) miss latency in CPU cycles.
	HitCycles  int64
	MissCycles int64

	// SwitchArity is k for the k-ary multistage interconnection network.
	SwitchArity int

	// Topology selects the interconnect model: "multistage" (the paper's
	// Kruskal–Snir indirect network, the default), "torus" (a 2-D
	// bidirectional torus like the Cray T3D's physical network, with
	// distance-dependent latency to line-interleaved home nodes), or
	// "mesh" (a clustered 2-D mesh NUMA machine: ClusterSize processors
	// per mesh node, one home-directory/memory slice per cluster, and
	// Manhattan-distance latency without wraparound links — the
	// TSAR-style organization for thousand-core configurations).
	Topology string

	// ClusterSize is the number of processors per mesh node (cluster).
	// Memory lines are interleaved across clusters rather than across
	// individual processors, so a cluster's processors share a home
	// slice one hop away. 0 means DefaultClusterSize. Only valid with
	// Topology "mesh".
	ClusterSize int

	// WriteBufferCache organizes the write buffer as a small cache that
	// coalesces redundant writes within an epoch (DEC 21164-style), as the
	// paper recommends to eliminate TPI's redundant write traffic.
	WriteBufferCache bool

	// L1Words enables the two-level "off-the-shelf microprocessor"
	// implementation of the paper's Section 3: a small on-chip L1 without
	// timetags in front of the timetagged off-chip L2. Time-Reads cannot
	// be validated in L1, so they are compiled to a cache-block-invalidate
	// + load sequence (MIPS R10000 / PowerPC DCBF style) that always pays
	// at least the L2 access. 0 disables the L1 (the integrated design).
	L1Words int64

	// L1HitCycles and L2HitCycles split the hit latency for the two-level
	// implementation (defaults 1 and 6).
	L1HitCycles, L2HitCycles int64

	// Prefetch enables one-block-lookahead sequential prefetching on TPI
	// read misses: the next line is fetched alongside the missing one
	// (neighbour-rule timetags), trading extra traffic for fewer misses —
	// with the bus-saturation caveats of Tullsen & Eggers.
	Prefetch bool

	// LineTimetags is the storage-saving ablation: one timetag per cache
	// LINE instead of per word (Figure 5's 8*L*C*P SRAM bits become
	// 8*C*P). Soundness then forbids tag promotion on writes and hits —
	// a line's tag can only claim what ALL its words support — so the
	// scheme pays false-sharing-like conservative misses.
	LineTimetags bool

	// TPIWriteBack switches the HSCD schemes from write-through to
	// write-back with a forced flush of all dirty words at every epoch
	// boundary — the alternative the paper rejects because it "increases
	// the latency of the invalidation, and results in more bursty
	// traffic". Flushes drain at FlushBandwidth words/cycle through the
	// barrier.
	TPIWriteBack bool

	// FlushBandwidth is the epoch-boundary flush drain rate in
	// words/cycle (default 4).
	FlushBandwidth int64

	// MigrateSerial rotates serial epochs across processors instead of
	// pinning them to processor 0, exercising the task-migration scenario
	// the paper's Section 5 discusses.
	MigrateSerial bool

	// CyclicSched schedules DOALL iterations cyclically instead of in
	// blocks.
	CyclicSched bool

	// LockCycles is the cost of acquiring+releasing the critical-section
	// lock.
	LockCycles int64

	// MaxEpochs aborts runaway simulations (0 = default guard).
	MaxEpochs int64

	// DirPointers limits the HW directory to i sharer pointers per line
	// (LimitLess-style DIR_NB(i)); adding a sharer beyond the limit
	// evicts an existing one. 0 means full-map.
	DirPointers int

	// SeqConsistency switches from the weak model to sequential
	// consistency: writes stall the processor until globally performed.
	SeqConsistency bool

	// DynamicSched self-schedules DOALL iterations onto the least-loaded
	// processor instead of a static block/cyclic assignment.
	DynamicSched bool

	// BarrierCycles is the cost of the epoch-boundary barrier.
	BarrierCycles int64

	// FastPath enables the affine reference-stream fast path: innermost
	// serial loops recognized at lower time as straight-line affine
	// stream loops execute through batched per-scheme stream cursors
	// instead of per-reference closure dispatch. Results are bit-identical
	// to the scalar path; the flag exists as a kill-switch and for
	// measuring the speedup. Every scheme variant streams; no other
	// setting forces the scalar path run-wide.
	FastPath bool

	// HostParallel shards the simulated processors of each DOALL epoch
	// across up to this many host goroutines with a deterministic barrier
	// merge (results are bit-identical to sequential execution). 0 or 1
	// keeps the sequential runner. Every scheme variant shards (HW, VC,
	// and Tardis via always-buffered lanes with barrier-deferred replay);
	// DynamicSched and doalls containing critical/ordered sections fall
	// back to sequential execution transparently.
	HostParallel int

	// LeaseEpochs is the base Tardis read-lease length in logical-time
	// units: a read grants the line a lease to max(rts, gts+LeaseEpochs),
	// and the copy stays valid until the global logical clock passes that
	// bound (0 = DefaultLeaseEpochs). Tardis schemes only.
	LeaseEpochs int64

	// LeaseMax caps the predicted lease length under LeasePredict
	// (0 = DefaultLeaseMax).
	LeaseMax int64

	// LeasePredict enables Tardis 2.0 lease prediction: each line's home
	// entry keeps a reuse history — renewals that found the data unchanged
	// double the next granted lease (up to LeaseMax); a write resets it.
	LeasePredict bool

	// TardisExclusive enables the Tardis 2.0 MESI-style exclusive grant: a
	// read miss to a line with no outstanding leases (rts <= wts) returns
	// the line in the exclusive state, so the reader's later stores are
	// silent (no per-store home message) while it remains the owner.
	TardisExclusive bool

	// RenewBackoff enables the Tardis 2.0 livelock-avoiding renewal
	// backoff: a renewal that found the data changed (the lease was wasted
	// on a contended line) halves the line's next granted lease, down to a
	// single logical-time unit.
	RenewBackoff bool

	// Interproc and FirstReadReuse gate the compiler analyses (ablations).
	Interproc      bool
	FirstReadReuse bool
}

// Default returns the paper's Figure 8 configuration for a scheme. The
// Tardis schemes add their lease parameters; TARDIS2 turns on the three
// Tardis 2.0 optimizations (each individually overridable).
func Default(s Scheme) Config {
	cfg := Config{
		Scheme:           s,
		Procs:            16,
		CacheWords:       16384, // 64 KB of 4-byte words
		LineWords:        4,
		Assoc:            1,
		TimetagBits:      8,
		ResetCycles:      128,
		HitCycles:        1,
		MissCycles:       100,
		SwitchArity:      4,
		WriteBufferCache: true,
		FlushBandwidth:   4,
		L1HitCycles:      1,
		L2HitCycles:      6,
		BarrierCycles:    20,
		LockCycles:       40,
		FastPath:         true,
		Interproc:        true,
		FirstReadReuse:   true,
	}
	if s == SchemeTardis || s == SchemeTardis2 {
		cfg.LeaseEpochs = DefaultLeaseEpochs
		cfg.LeaseMax = DefaultLeaseMax
	}
	if s == SchemeTardis2 {
		cfg.LeasePredict = true
		cfg.TardisExclusive = true
		cfg.RenewBackoff = true
	}
	return cfg
}

// DefaultLeaseEpochs is the base Tardis lease length applied when
// Config.LeaseEpochs is zero.
const DefaultLeaseEpochs = 8

// DefaultLeaseMax is the predicted-lease cap applied when Config.LeaseMax
// is zero.
const DefaultLeaseMax = 256

// IsTardis reports whether the configured scheme is a Tardis variant.
func (c Config) IsTardis() bool {
	return c.Scheme == SchemeTardis || c.Scheme == SchemeTardis2
}

// MaxProcs bounds the simulated machine size. Every scheme scales to
// this width (the directory's presence sets spill to word-packed
// bitsets above 64 processors), so the bound exists to reject absurd
// configurations with a clear error instead of an allocation failure —
// and it keeps the directory's int16 owner pointers sufficient.
const MaxProcs = 16384

// MaxTotalCacheWords bounds the machine's total cache capacity,
// Procs × (CacheWords + L1Words): the paper's 64 KB cache (16384 words)
// on every processor at MaxProcs. The simulated caches are sized from
// these fields, so the bound turns an oversized cache into a one-line
// error instead of an allocation the host cannot satisfy.
const MaxTotalCacheWords = MaxProcs * 16384

// MaxMemWords bounds a program's data segment in words (16M words,
// 128 MiB of simulated memory). Every simulated scheme allocates the
// whole segment, and trace replay indexes every word, so the bound turns
// an oversized request or trace into a one-line error instead of an
// allocation the host cannot satisfy. The in-repo kernels stay far below
// it: ocean, the largest, reaches it only near n = 2365.
const MaxMemWords = 1 << 24

// DefaultClusterSize is the processors-per-cluster default of the mesh
// topology: four cores per node, the TSAR-style organization.
const DefaultClusterSize = 4

// MeshClusterSize returns the effective processors-per-cluster for the
// mesh topology, applying the default; it is 0 for other topologies.
func (c Config) MeshClusterSize() int {
	if c.Topology != "mesh" {
		return 0
	}
	if c.ClusterSize > 0 {
		return c.ClusterSize
	}
	return DefaultClusterSize
}

// Clusters returns the number of mesh nodes (home-directory/memory
// slices) of the configuration; it is 0 for non-mesh topologies.
func (c Config) Clusters() int {
	cs := c.MeshClusterSize()
	if cs == 0 {
		return 0
	}
	return (c.Procs + cs - 1) / cs
}

// Validate reports configuration errors. The lease bound holds between
// the values a run applies: under a Tardis scheme a zero LeaseEpochs or
// LeaseMax takes its default, as in Canonical.
func (c Config) Validate() error {
	leaseEpochs, leaseMax := c.EffectiveLeases()
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("machine: Procs must be positive, got %d", c.Procs)
	case c.Procs > MaxProcs:
		return fmt.Errorf("machine: Procs %d exceeds the supported maximum %d", c.Procs, MaxProcs)
	case c.LineWords <= 0 || (c.LineWords&(c.LineWords-1)) != 0:
		return fmt.Errorf("machine: LineWords must be a positive power of two, got %d", c.LineWords)
	case c.CacheWords <= 0 || c.CacheWords%int64(c.LineWords) != 0:
		return fmt.Errorf("machine: CacheWords %d must be a positive multiple of LineWords %d", c.CacheWords, c.LineWords)
	case c.Assoc <= 0:
		return fmt.Errorf("machine: Assoc must be positive, got %d", c.Assoc)
	case c.TimetagBits < 1 || c.TimetagBits > 62:
		return fmt.Errorf("machine: TimetagBits out of range: %d", c.TimetagBits)
	case c.SwitchArity < 2:
		return fmt.Errorf("machine: SwitchArity must be >= 2, got %d", c.SwitchArity)
	case c.Topology != "" && c.Topology != "multistage" && c.Topology != "torus" && c.Topology != "mesh":
		return fmt.Errorf("machine: unknown topology %q", c.Topology)
	case c.ClusterSize < 0:
		return fmt.Errorf("machine: ClusterSize must be >= 0, got %d", c.ClusterSize)
	case c.ClusterSize > 0 && c.Topology != "mesh":
		return fmt.Errorf("machine: ClusterSize is only meaningful with the mesh topology, got %q", c.Topology)
	case c.HostParallel < 0:
		return fmt.Errorf("machine: HostParallel must be >= 0, got %d", c.HostParallel)
	case c.LeaseEpochs < 0:
		return fmt.Errorf("machine: LeaseEpochs must be >= 0, got %d", c.LeaseEpochs)
	case c.LeaseMax < 0:
		return fmt.Errorf("machine: LeaseMax must be >= 0, got %d", c.LeaseMax)
	case leaseMax > 0 && leaseEpochs > leaseMax:
		return fmt.Errorf("machine: LeaseEpochs %d exceeds LeaseMax %d", leaseEpochs, leaseMax)
	}
	l1 := max(c.L1Words, 0) // L1Words <= 0 means no L1
	if c.CacheWords > MaxTotalCacheWords || l1 > MaxTotalCacheWords || int64(c.Procs)*(c.CacheWords+l1) > MaxTotalCacheWords {
		return fmt.Errorf("machine: %d processors × (CacheWords %d + L1Words %d) exceeds the supported total of %d cache words",
			c.Procs, c.CacheWords, l1, MaxTotalCacheWords)
	}
	lines := c.CacheWords / int64(c.LineWords)
	if lines%int64(c.Assoc) != 0 {
		return fmt.Errorf("machine: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	if c.L1Words > 0 {
		if c.L1Words%int64(c.LineWords) != 0 {
			return fmt.Errorf("machine: L1Words %d must be a multiple of LineWords %d", c.L1Words, c.LineWords)
		}
		if (c.L1Words/int64(c.LineWords))%int64(c.Assoc) != 0 {
			return fmt.Errorf("machine: L1 lines not divisible by associativity %d", c.Assoc)
		}
	}
	return nil
}

// DefaultMaxEpochs is the runaway-simulation guard applied when
// Config.MaxEpochs is zero.
const DefaultMaxEpochs = 50_000_000

// ParseConfig decodes a Config from JSON, rejecting unknown fields so a
// typo'd override ("LineWord") fails loudly instead of silently running
// the default. Field names are the Go struct names; Scheme accepts its
// string form. The input is merged over base, so callers pass
// Default(scheme) to get override semantics. The result is validated but
// NOT canonicalized; cache-key users must call Canonical themselves.
func ParseConfig(data []byte, base Config) (Config, error) {
	cfg := base
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("machine: config JSON: %w", err)
	}
	// A second document in the payload is a client bug, not trailing noise.
	if dec.More() {
		return Config{}, fmt.Errorf("machine: config JSON: trailing data after config object")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Canonical returns the config with behavior-neutral zero values resolved
// to the defaults the runtime would apply anyway, so two configs that
// simulate identically serialize identically:
//
//   - Topology ""  → "multistage" (memsys builds the multistage net for both)
//   - ClusterSize 0 under "mesh" → DefaultClusterSize (what memsys applies)
//   - MaxEpochs 0  → DefaultMaxEpochs (the guard sim applies for 0)
//   - HostParallel 0 → 1 (both select the sequential runner)
//   - LeaseEpochs/LeaseMax 0 under a Tardis scheme → their defaults
//     (what internal/tardis applies)
//
// Fields that change only host-side performance but are contractually
// bit-identical in results (FastPath, HostParallel > 1) are kept as-is:
// a kill-switch run must really re-execute.
func (c Config) Canonical() Config {
	if c.Topology == "" {
		c.Topology = "multistage"
	}
	if c.Topology == "mesh" && c.ClusterSize == 0 {
		c.ClusterSize = DefaultClusterSize
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = DefaultMaxEpochs
	}
	if c.HostParallel == 0 {
		c.HostParallel = 1
	}
	c.LeaseEpochs, c.LeaseMax = c.EffectiveLeases()
	return c
}

// EffectiveLeases returns the lease length and cap a run applies: under
// a Tardis scheme a zero takes its default; other schemes ignore both,
// and they are returned as set.
func (c Config) EffectiveLeases() (epochs, leaseMax int64) {
	epochs, leaseMax = c.LeaseEpochs, c.LeaseMax
	if c.IsTardis() {
		if epochs == 0 {
			epochs = DefaultLeaseEpochs
		}
		if leaseMax == 0 {
			leaseMax = DefaultLeaseMax
		}
	}
	return epochs, leaseMax
}

// CanonicalJSON is the deterministic serialization used for cache keys:
// the canonicalized config marshaled with the fixed struct field order.
func (c Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c.Canonical())
}

// Hash is the content address of the canonical config (hex sha256),
// stable across processes and across equivalent spellings of a config.
func (c Config) Hash() (string, error) {
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// MaxWindow is the widest Time-Read window the timetag width can support:
// one value is reserved to distinguish "just written" from the oldest
// representable epoch, as in the two-phase scheme.
func (c Config) MaxWindow() int64 {
	return (int64(1) << uint(c.TimetagBits)) - 2
}
