package exper

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/overhead"
	"repro/internal/stats"
)

// E1StorageOverhead reproduces Figure 5: directory vs TPI storage cost.
func (s *Suite) E1StorageOverhead() (*Table, error) {
	t := &Table{
		ID:      "E1/Fig5",
		Title:   "storage overhead (full-map vs LimitLess vs TPI)",
		Columns: []string{"P", "scheme", "cache SRAM", "memory DRAM", "total", "simulated"},
		Notes:   "storage columns are analytic (overhead model at the paper's machine); the simulated column says which rows the simulator has actually run — E26 holds the measured large-P results",
	}
	for _, procs := range []int64{64, 256, 1024, 4096} {
		simulated := "yes, all schemes (equivalence suites run P=16-64)"
		if procs > 64 {
			simulated = "yes, HW + TPI-2L on mesh (E26)"
		}
		c := overhead.PaperDefault()
		c.P = procs
		for _, o := range overhead.All(c) {
			t.Rows = append(t.Rows, []string{
				d(procs), o.Scheme,
				overhead.FormatBits(o.CacheSRAM),
				overhead.FormatBits(o.MemDRAM),
				overhead.FormatBits(o.Total()),
				simulated,
			})
		}
	}
	return t, nil
}

// E2Parameters reproduces Figure 8: the simulation parameters in effect.
func (s *Suite) E2Parameters() (*Table, error) {
	c := s.cfg(machine.SchemeTPI)
	t := &Table{
		ID:      "E2/Fig8",
		Title:   "default simulation parameters",
		Columns: []string{"parameter", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("processors", d(int64(c.Procs)))
	add("cache size", fmt.Sprintf("%d words (%d KB at 4B words), direct-mapped", c.CacheWords, c.CacheWords*4/1024))
	add("line size", fmt.Sprintf("%d words", c.LineWords))
	add("cache hit", fmt.Sprintf("%d cycle", c.HitCycles))
	add("base miss latency", fmt.Sprintf("%d cycles", c.MissCycles))
	add("timetag size", fmt.Sprintf("%d bits", c.TimetagBits))
	add("two-phase reset", fmt.Sprintf("%d cycles", c.ResetCycles))
	add("network", fmt.Sprintf("%d-ary multistage, Kruskal–Snir delays", c.SwitchArity))
	add("write policy", "write-through + wb-cache (TPI/SC), write-back (HW)")
	add("consistency", "weak")
	add("workload", fmt.Sprintf("N=%d, steps=%d", s.Params.N, s.Params.Steps))
	return t, nil
}

// E3MissRates reproduces Figure 11: miss rates per scheme per benchmark.
// The columns come from the shared scheme registry, so every scheme
// family — the paper's four, VC, and the Tardis timestamp pair — lands
// in the table the moment it is registered.
func (s *Suite) E3MissRates() (*Table, error) {
	cols := []string{"benchmark"}
	for _, scheme := range machine.AllSchemes {
		cols = append(cols, scheme.String())
	}
	t := &Table{
		ID:      "E3/Fig11",
		Title:   "read miss rates by scheme",
		Columns: cols,
		Notes:   "TPI comparable to HW, both far below SC and BASE; Tardis sits between — leases expire at epoch grain, so it renews where TPI's static windows hit",
	}
	rows, err := forEach(kernelNames(), func(name string) ([][]string, error) {
		row := []string{name}
		for _, scheme := range machine.AllSchemes {
			st, err := s.run(name, s.cfg(scheme))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, scheme, err)
			}
			row = append(row, pct(st.MissRate()))
		}
		return [][]string{row}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E4MissClassification reproduces the miss-decomposition figure: the
// unnecessary misses are false sharing under HW and conservative
// coherence misses under TPI, of comparable magnitude.
func (s *Suite) E4MissClassification() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "miss classification (per 1000 reads)",
		Columns: []string{"benchmark", "scheme"},
		Notes:   "HW pays false-sharing misses where TPI pays conservative misses; Tardis pays lease-expired renewals — same unnecessary-miss role, different mechanism (timestamp expiry vs compiler window)",
	}
	for _, ci := range stats.ClassTable {
		t.Columns = append(t.Columns, ci.Column)
	}
	for _, name := range kernelNames() {
		for _, scheme := range []machine.Scheme{
			machine.SchemeTPI, machine.SchemeHW,
			machine.SchemeTardis, machine.SchemeTardis2,
		} {
			st, err := s.run(name, s.cfg(scheme))
			if err != nil {
				return nil, err
			}
			row := []string{name, scheme.String()}
			for _, ci := range stats.ClassTable {
				row = append(row, f3(1000*float64(st.ReadMisses[ci.Class])/float64(st.Reads)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// E5NetworkTraffic reproduces the traffic figure: read/write/coherence
// words per scheme, plus the TRFD write-buffer-as-cache ablation.
func (s *Suite) E5NetworkTraffic() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "network traffic in words per read reference",
		Columns: []string{"benchmark", "scheme", "read", "write", "coherence", "coalesced"},
		Notes:   "trfd rows show the redundant-write storm and its elimination by the wb-cache",
	}
	for _, name := range kernelNames() {
		for _, scheme := range machine.Schemes {
			st, err := s.run(name, s.cfg(scheme))
			if err != nil {
				return nil, err
			}
			norm := float64(st.Reads)
			t.Rows = append(t.Rows, []string{
				name, scheme.String(),
				f3(float64(st.ReadTrafficWords) / norm),
				f3(float64(st.WriteTrafficWords) / norm),
				f3(float64(st.CoherenceTrafficWords) / norm),
				d(st.WritesCoalesced),
			})
		}
	}
	// TRFD without the write-buffer cache.
	cfg := s.cfg(machine.SchemeTPI)
	cfg.WriteBufferCache = false
	st, err := s.run("trfd", cfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"trfd", "TPI-nowbc",
		f3(float64(st.ReadTrafficWords) / float64(st.Reads)),
		f3(float64(st.WriteTrafficWords) / float64(st.Reads)),
		f3(float64(st.CoherenceTrafficWords) / float64(st.Reads)),
		d(st.WritesCoalesced),
	})
	return t, nil
}

// E6MissLatency reproduces the average miss latency table at 16-byte
// (4-word) and 64-byte (16-word) lines.
func (s *Suite) E6MissLatency() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "average read miss latency (cycles)",
		Columns: []string{"benchmark", "TPI 4w", "TPI 16w", "HW 4w", "HW 16w"},
		Notes:   "TPI stays flat; HW rises where misses hit remote-dirty lines (qcd2/trfd-like)",
	}
	rows, err := forEach(kernelNames(), func(name string) ([][]string, error) {
		row := []string{name}
		for _, scheme := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
			for _, lw := range []int{4, 16} {
				cfg := s.cfg(scheme)
				cfg.LineWords = lw
				st, err := s.run(name, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, f1(st.AvgMissLatency()))
			}
		}
		return [][]string{row}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E7ExecutionTime reproduces the execution-time comparison, normalized
// to the HW directory scheme.
func (s *Suite) E7ExecutionTime() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "execution time normalized to HW",
		Columns: []string{"benchmark", "BASE", "SC", "TPI", "HW"},
		Notes:   "the paper's headline: TPI within a small factor of HW, both far ahead of BASE/SC",
	}
	for _, name := range kernelNames() {
		hw, err := s.run(name, s.cfg(machine.SchemeHW))
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, scheme := range machine.Schemes {
			st, err := s.run(name, s.cfg(scheme))
			if err != nil {
				return nil, err
			}
			row = append(row, f3(float64(st.Cycles)/float64(hw.Cycles)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E8TimetagSensitivity reproduces the claim that 4–8 bit timetags
// suffice: miss rate and reset-invalidation count vs timetag width.
func (s *Suite) E8TimetagSensitivity() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "TPI sensitivity to timetag width",
		Columns: []string{"benchmark", "bits", "missrate", "resets", "reset-invalidations"},
		Notes:   "small tags force frequent two-phase resets; 4-8 bits recover full performance",
	}
	for _, name := range kernelNames() {
		for _, bits := range []int{2, 4, 8, 16} {
			cfg := s.cfg(machine.SchemeTPI)
			cfg.TimetagBits = bits
			st, err := s.run(name, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, d(int64(bits)), pct(st.MissRate()), d(st.TimetagResets), d(st.ResetInvalidations),
			})
		}
	}
	return t, nil
}

// E9CacheSizeSweep reports miss rate vs cache size for TPI and HW.
func (s *Suite) E9CacheSizeSweep() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "miss rate vs cache size (TPI and HW)",
		Columns: []string{"benchmark", "cache", "TPI", "HW"},
	}
	rows, err := forEach(kernelNames(), func(name string) ([][]string, error) {
		var out [][]string
		for _, words := range []int64{1024, 4096, 16384, 65536} {
			row := []string{name, fmt.Sprintf("%dKB", words*4/1024)}
			for _, scheme := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
				cfg := s.cfg(scheme)
				cfg.CacheWords = words
				st, err := s.run(name, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(st.MissRate()))
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E10LineSizeSweep reports miss rate and unnecessary misses vs line size.
func (s *Suite) E10LineSizeSweep() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "miss rate and unnecessary misses vs line size",
		Columns: []string{"benchmark", "line", "TPI miss", "TPI unnec", "HW miss", "HW unnec"},
		Notes:   "larger lines raise HW false sharing; TPI's word timetags are immune to it",
	}
	rows, err := forEach(kernelNames(), func(name string) ([][]string, error) {
		var out [][]string
		for _, lw := range []int{1, 2, 4, 8, 16} {
			row := []string{name, fmt.Sprintf("%dw", lw)}
			for _, scheme := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
				cfg := s.cfg(scheme)
				cfg.LineWords = lw
				st, err := s.run(name, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(st.MissRate()),
					f3(1000*float64(st.UnnecessaryMisses())/float64(st.Reads)))
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E11ResetAblation compares the two-phase reset with whole-cache flash
// invalidation at small timetag widths.
func (s *Suite) E11ResetAblation() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "two-phase reset vs flash invalidation (4-bit timetags)",
		Columns: []string{"benchmark", "policy", "missrate", "reset-invalidations", "cycles"},
		Notes:   "the two-phase reset drops only out-of-phase words",
	}
	for _, name := range kernelNames() {
		for _, flash := range []bool{false, true} {
			cfg := s.cfg(machine.SchemeTPI)
			cfg.TimetagBits = 4
			cfg.FlashReset = flash
			st, err := s.run(name, cfg)
			if err != nil {
				return nil, err
			}
			policy := "two-phase"
			if flash {
				policy = "flash"
			}
			t.Rows = append(t.Rows, []string{
				name, policy, pct(st.MissRate()), d(st.ResetInvalidations), d(st.Cycles),
			})
		}
	}
	return t, nil
}

// E12Scalability reports execution time and miss latency vs machine size.
func (s *Suite) E12Scalability() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "scalability: cycles and miss latency vs processors (ocean)",
		Columns: []string{"P", "TPI cycles", "TPI lat", "HW cycles", "HW lat"},
	}
	for _, procs := range []int{4, 8, 16, 32} {
		row := []string{d(int64(procs))}
		for _, scheme := range []machine.Scheme{machine.SchemeTPI, machine.SchemeHW} {
			cfg := s.cfg(scheme)
			cfg.Procs = procs
			st, err := s.run("ocean", cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, d(st.Cycles), f1(st.AvgMissLatency()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E13CompilerAblations measures the interprocedural and first-read-reuse
// analyses' contribution (DESIGN.md ablations 4 and 5), under both TPI
// and SC. A reproduction finding: TPI's timetag promotion on hits makes
// the first-read (reuse) analysis nearly performance-neutral — the
// hardware rediscovers the reuse dynamically — while SC, which acts on
// the static marks alone, depends on it heavily.
func (s *Suite) E13CompilerAblations() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "compiler analysis ablations (TPI and SC)",
		Columns: []string{"benchmark", "analysis", "TPI miss", "TPI conserv/1k", "SC miss"},
		Notes:   "ablations barely hurt TPI (hardware re-validates) but cripple SC",
	}
	variants := []struct {
		label            string
		interproc, reuse bool
	}{
		{"full", true, true},
		{"no-interproc", false, true},
		{"no-reuse", true, false},
		{"neither", false, false},
	}
	for _, name := range kernelNames() {
		for _, v := range variants {
			cfgT := s.cfg(machine.SchemeTPI)
			cfgT.Interproc = v.interproc
			cfgT.FirstReadReuse = v.reuse
			stT, err := s.run(name, cfgT)
			if err != nil {
				return nil, err
			}
			cfgS := s.cfg(machine.SchemeSC)
			cfgS.Interproc = v.interproc
			cfgS.FirstReadReuse = v.reuse
			stS, err := s.run(name, cfgS)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name, v.label, pct(stT.MissRate()),
				f3(1000 * float64(stT.ReadMisses[stats.MissConservative]) / float64(stT.Reads)),
				pct(stS.MissRate()),
			})
		}
	}
	return t, nil
}

// kernelNames returns the reporting order.
func kernelNames() []string {
	return []string{"spec77", "ocean", "flo52", "qcd2", "trfd", "arc2d"}
}

// All runs every experiment in order.
func (s *Suite) All() ([]*Table, error) {
	funcs := []func() (*Table, error){
		s.E1StorageOverhead,
		s.E2Parameters,
		s.E3MissRates,
		s.E4MissClassification,
		s.E5NetworkTraffic,
		s.E6MissLatency,
		s.E7ExecutionTime,
		s.E8TimetagSensitivity,
		s.E9CacheSizeSweep,
		s.E10LineSizeSweep,
		s.E11ResetAblation,
		s.E12Scalability,
		s.E13CompilerAblations,
		s.E14LimitedPointers,
		s.E15ConsistencyModels,
		s.E16SchedulingPolicies,
		s.E17HSCDFamily,
		s.E18WritePolicies,
		s.E19OffTheShelf,
		s.E20Topologies,
		s.E21Toolchain,
		s.E22TagGranularity,
		s.E23Prefetch,
		s.E24ScalarPadding,
		s.E25TimeDecomposition,
		s.E26LargePMesh,
		s.E27LeaseSensitivity,
	}
	var out []*Table
	for _, f := range funcs {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
