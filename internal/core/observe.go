package core

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// BuildObsMeta assembles the instrumentation metadata for a compiled
// program under cfg: the variable address map (arrays and scalars) and
// the static source-reference table, indexed by the checker's dense
// RefIDs and annotated with the compiler marks.
func BuildObsMeta(c *Compiled, cfg machine.Config) obs.Meta {
	m := obs.Meta{
		Scheme:    cfg.Scheme.String(),
		Procs:     cfg.Procs,
		LineWords: cfg.LineWords,
		MemWords:  c.Prog.MemWords,
	}
	for _, a := range c.Prog.Arrays {
		m.Arrays = append(m.Arrays, obs.ArraySpan{Name: a.Name, Base: int64(a.Base), Size: a.Size})
	}
	for _, s := range c.Prog.Scalars {
		m.Arrays = append(m.Arrays, obs.ArraySpan{Name: s.Name, Base: int64(s.Addr), Size: 1})
	}
	sort.Slice(m.Arrays, func(i, j int) bool { return m.Arrays[i].Base < m.Arrays[j].Base })

	m.Refs = make([]obs.RefInfo, c.Info.NumRefs)
	for _, ps := range c.Analysis.Procs {
		for _, ns := range ps.Nodes {
			if ns == nil {
				continue
			}
			for _, ref := range ns.Refs {
				if ref.RefID < 0 || ref.RefID >= len(m.Refs) {
					continue
				}
				mk := c.Marks.MarkOf(ref.RefID)
				m.Refs[ref.RefID] = obs.RefInfo{
					Pos:    ref.Pos.String(),
					Proc:   ps.Proc.Name,
					Array:  ref.Array,
					Mark:   mk.Kind.String(),
					Window: mk.Window,
					Write:  ref.Write,
				}
			}
		}
	}
	return m
}

// RunResult is the machine-readable run output serialized by
// `tpisim -json`: the full attributed stats schema plus, when
// instrumentation was on, the per-epoch/per-array/per-reference report.
type RunResult struct {
	Program string         `json:"program,omitempty"`
	Scheme  string         `json:"scheme"`
	Procs   int            `json:"procs"`
	Stats   stats.Snapshot `json:"stats"`
	Obs     *obs.Report    `json:"obs,omitempty"`
}

// NewRunResult bundles a run's outputs into the JSON schema.
func NewRunResult(program string, cfg machine.Config, st *stats.Stats, rep *obs.Report) RunResult {
	return RunResult{
		Program: program,
		Scheme:  cfg.Scheme.String(),
		Procs:   cfg.Procs,
		Stats:   st.Snapshot(),
		Obs:     rep,
	}
}
