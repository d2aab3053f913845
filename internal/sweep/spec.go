// Package sweep is the distributed parameter-sweep fabric: a
// coordinator that expands a sweep specification into a job list and
// shards it across a fleet of tpiserved workers, with a bounded
// in-flight window per worker, streaming partial results as they land,
// and retry/rebalance when a worker dies mid-sweep.
//
// Results stay byte-identical to local runs: every job resolves to the
// same content-addressed result key on every worker (sha256 over the
// program source, compile options, canonical config, and obs level), the
// service's fidelity contract pins a worker's result JSON to what a
// local run produces, and stats.Snapshot.Restore is lossless — so the
// experiment tables built from a sweep render the same bytes as
// cmd/experiments running sequentially in-process. Workers do not know
// each other; the coordinator routes repeats. Before a sweep it asks
// each live worker which of the sweep's result keys its cache holds
// (POST /v1/cache) and queues each held job on its holder, so a point
// one worker already simulated is served from that worker's cache
// instead of being simulated again elsewhere.
//
// cmd/tpisweep is the CLI; docs/SERVICE.md documents the protocol.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/svc"
)

// Spec is a sweep grid: the cross product of every listed axis, one job
// per point. Empty axes take the defaults noted on each field; the zero
// Spec expands to the EXPERIMENTS.md cross product (every benchmark
// kernel under every coherence scheme at the unit-test size).
type Spec struct {
	// Name labels the sweep in logs and output; purely cosmetic.
	Name string `json:"name,omitempty"`
	// Kernels are benchmark kernel names (default: all of bench.Names).
	Kernels []string `json:"kernels,omitempty"`
	// Schemes are coherence scheme names (default: every registered scheme).
	Schemes []string `json:"schemes,omitempty"`
	// N are kernel grid sizes (default: the unit-test size, 24).
	N []int `json:"n,omitempty"`
	// Steps are kernel time-step counts (default: 2).
	Steps []int `json:"steps,omitempty"`
	// Procs are processor counts, applied as a Config override axis
	// (default: the machine default, i.e. no override).
	Procs []int `json:"procs,omitempty"`
	// Configs are machine.Config override objects (Go field names, as in
	// the service API), an additional cross-product axis. Omitted means
	// one point with no overrides.
	Configs []json.RawMessage `json:"configs,omitempty"`
	// Obs is the instrumentation level for every job ("off" or
	// "counters"; default off).
	Obs string `json:"obs,omitempty"`
	// TimeoutMS bounds each job server-side (0 = server default).
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// Job is one expanded sweep point. Seq is the job's stable index in
// expansion order — results are keyed by it, which is what makes sweep
// output deterministic regardless of which worker finishes first.
type Job struct {
	Seq   int            `json:"seq"`
	Label string         `json:"label"`
	Req   svc.RunRequest `json:"req"`
}

// Expand lists the grid's jobs in deterministic nested-axis order
// (kernels outermost, configs innermost). Every job is validated by
// resolving its result key locally, so a bad point fails the sweep
// before any network traffic.
func (sp Spec) Expand() ([]Job, error) {
	kernels := sp.Kernels
	if len(kernels) == 0 {
		kernels = bench.Names
	}
	schemes := sp.Schemes
	if len(schemes) == 0 {
		schemes = make([]string, len(machine.AllSchemes))
		for i, sc := range machine.AllSchemes {
			schemes[i] = sc.String()
		}
	}
	ns := sp.N
	if len(ns) == 0 {
		ns = []int{bench.DefaultParams().N}
	}
	steps := sp.Steps
	if len(steps) == 0 {
		steps = []int{bench.DefaultParams().Steps}
	}
	procs := sp.Procs
	if len(procs) == 0 {
		procs = []int{0} // 0 = no override
	}
	configs := sp.Configs
	if len(configs) == 0 {
		configs = []json.RawMessage{nil}
	}

	var jobs []Job
	for _, k := range kernels {
		for _, scheme := range schemes {
			for _, n := range ns {
				for _, st := range steps {
					for _, p := range procs {
						for ci, cfg := range configs {
							merged, err := mergeConfig(cfg, p)
							if err != nil {
								return nil, fmt.Errorf("sweep: config %d: %w", ci, err)
							}
							job := Job{
								Seq:   len(jobs),
								Label: pointLabel(k, scheme, n, st, p, ci, len(configs)),
								Req: svc.RunRequest{
									Kernel:    k,
									Scheme:    scheme,
									N:         n,
									Steps:     st,
									Config:    merged,
									Obs:       sp.Obs,
									TimeoutMS: sp.TimeoutMS,
								},
							}
							if _, err := svc.RequestKey(&job.Req); err != nil {
								return nil, fmt.Errorf("sweep: point %s: %w", job.Label, err)
							}
							jobs = append(jobs, job)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// mergeConfig folds a Procs-axis override into a config-override
// object. The round trip through a map keeps whatever fields the
// object already sets; the server decodes the result into a struct, so
// key order does not matter.
func mergeConfig(cfg json.RawMessage, procs int) (json.RawMessage, error) {
	if procs == 0 {
		return cfg, nil
	}
	m := map[string]json.RawMessage{}
	if len(cfg) > 0 {
		if err := json.Unmarshal(cfg, &m); err != nil {
			return nil, err
		}
	}
	p, err := json.Marshal(procs)
	if err != nil {
		return nil, err
	}
	m["Procs"] = p
	return json.Marshal(m)
}

// pointLabel names one grid point for logs and streamed output.
func pointLabel(kernel, scheme string, n, steps, procs, ci, nconfigs int) string {
	l := fmt.Sprintf("%s/%s/n%d/s%d", kernel, scheme, n, steps)
	if procs != 0 {
		l += fmt.Sprintf("/p%d", procs)
	}
	if nconfigs > 1 {
		l += fmt.Sprintf("/c%d", ci)
	}
	return l
}

// ParseSpec decodes a Spec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	if err := unmarshalStrict(data, &sp); err != nil {
		return Spec{}, fmt.Errorf("sweep: spec JSON: %w", err)
	}
	return sp, nil
}

func unmarshalStrict(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}
