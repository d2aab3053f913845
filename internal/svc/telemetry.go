// Prometheus wiring for the job server: the job-flow counters, cache
// tiers, queue and pool state are mirrored into a telemetry.Registry
// at scrape time (CounterFunc/GaugeFunc reading the
// same state under the same lock — one source of truth, no drift), and
// the per-run simulation counters are exported as per-scheme deltas by
// a runExporter attached to each job's progress callback.
package svc

import (
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// svcTelemetry holds the pre-registered metric handles the hot paths
// update directly (histograms, singleflight, per-scheme sim counters);
// the scrape-time mirrors are registered once in register().
type svcTelemetry struct {
	// phaseSeconds is tpiserved_job_phase_seconds{phase=queue|compile|run}.
	phaseSeconds *telemetry.HistogramVec
	// coalesced is tpiserved_singleflight_coalesced_total{kind=compile|run}.
	coalesced *telemetry.CounterVec

	// runCounters are the per-scheme simulation counters, one per
	// runMetrics row, fed by progress-sample deltas at epoch barriers
	// (see runExporter).
	runCounters  [len(runMetrics)]*telemetry.CounterVec
	clusterWords *telemetry.CounterVec
}

// runMetric is one per-run tpisim_* counter family, labeled by scheme.
// value reads the family's cumulative count from a progress sample; the
// exporter adds the difference from the previous sample.
type runMetric struct {
	family, help string
	value        func(p *sim.Progress) int64
}

// runMetrics declares every per-scheme simulation counter once:
// registration, handle resolution and the delta export all loop over
// it.
var runMetrics = [...]runMetric{
	// Aborted is set only on a run's last sample, so its 0→1 step
	// counts each aborted run once.
	{"tpisim_run_aborts_total", "Simulations that ended early (cancellation, deadline, fault).",
		func(p *sim.Progress) int64 {
			if p.Aborted {
				return 1
			}
			return 0
		}},
	{"tpisim_run_epochs_total", "Simulated epochs completed, sampled at epoch barriers.",
		func(p *sim.Progress) int64 { return p.Epoch }},
	{"tpisim_run_cycles_total", "Simulated cycles elapsed, sampled at epoch barriers.",
		func(p *sim.Progress) int64 { return p.Cycles }},
	{"tpisim_reads_total", "Shared-data read references simulated.",
		func(p *sim.Progress) int64 { return p.Stats.Reads }},
	{"tpisim_writes_total", "Shared-data write references simulated.",
		func(p *sim.Progress) int64 { return p.Stats.Writes }},
	{"tpisim_read_misses_total", "Read misses across all miss classes.",
		func(p *sim.Progress) int64 { return p.Stats.ReadMisses.Total() }},
	{"tpisim_write_misses_total", "Write misses across all miss classes.",
		func(p *sim.Progress) int64 { return p.Stats.WriteMisses.Total() }},
	{"tpisim_invalidations_total", "Cache-line invalidations performed.",
		func(p *sim.Progress) int64 { return p.Stats.Invalidations }},
	{"tpisim_coherence_messages_total", "Coherence protocol messages exchanged.",
		func(p *sim.Progress) int64 { return p.Stats.CoherenceMsgs }},
	{"tpisim_traffic_words_total", "Interconnect traffic in words.",
		func(p *sim.Progress) int64 { return p.Stats.TotalTraffic() }},
	{"tpisim_lease_renewals_total", "Tardis timestamp-only lease renewals (no data transfer).",
		func(p *sim.Progress) int64 { return p.Stats.LeaseRenewals }},
	{"tpisim_stream_loops_total", "Recognized affine loops executed through stream cursors.",
		func(p *sim.Progress) int64 { return p.StreamLoops }},
	{"tpisim_stream_fallbacks_total", "Recognized affine loops that fell back to the scalar path.",
		func(p *sim.Progress) int64 { return p.StreamFallbacks }},
	{"tpisim_hostpar_epochs_total", "DOALL epochs sharded across host-parallel workers.",
		func(p *sim.Progress) int64 { return p.HostParEpochs }},
	{"tpisim_seq_doall_epochs_total", "DOALL epochs dispatched sequentially.",
		func(p *sim.Progress) int64 { return p.SeqDoallEpochs }},
}

// Phase labels for phaseSeconds.
const (
	phaseQueue   = "queue"
	phaseCompile = "compile"
	phaseRun     = "run"
)

// newSvcTelemetry registers the server's metric families on reg and
// returns the handles. Called once from New; reg is never nil.
func newSvcTelemetry(reg *telemetry.Registry, s *Server) *svcTelemetry {
	t := &svcTelemetry{
		phaseSeconds: reg.HistogramVec("tpiserved_job_phase_seconds",
			"Job time spent per phase (queue wait, compile, simulation run).",
			nil, "phase"),
		coalesced: reg.CounterVec("tpiserved_singleflight_coalesced_total",
			"Submissions collapsed onto identical in-flight work, by kind.",
			"kind"),
		clusterWords: reg.CounterVec("tpisim_cluster_home_words_total",
			"Word traffic served by each mesh cluster's home directory/memory slice (mesh topology only).",
			"scheme", "cluster"),
	}
	for i, m := range runMetrics {
		t.runCounters[i] = reg.CounterVec(m.family, m.help, "scheme")
	}
	t.register(reg, s)
	return t
}

// register adds the scrape-time mirrors of the server's own state.
func (t *svcTelemetry) register(reg *telemetry.Registry, s *Server) {
	outcomes := map[string]func(c counters) int64{
		"submitted":    func(c counters) int64 { return c.Submitted },
		"deduped":      func(c counters) int64 { return c.Deduped },
		"cache_served": func(c counters) int64 { return c.CacheServed },
		"simulated":    func(c counters) int64 { return c.Simulated },
		"done":         func(c counters) int64 { return c.Done },
		"failed":       func(c counters) int64 { return c.Failed },
		"cancelled":    func(c counters) int64 { return c.Cancelled },
		"rejected":     func(c counters) int64 { return c.Rejected },
	}
	for name, get := range outcomes {
		get := get
		reg.CounterFunc("tpiserved_jobs_total",
			"Cumulative job-flow counts by outcome.",
			telemetry.Labels{"outcome": name},
			func() float64 { return float64(get(s.countersSnapshot())) })
	}

	tiers := map[string]func() CacheStats{
		"analysis": func() CacheStats { return s.analysisCache.Stats() },
		"compile":  func() CacheStats { return s.compileCache.Stats() },
		"result":   func() CacheStats { return s.resultCache.Stats() },
	}
	for tier, stats := range tiers {
		stats := stats
		ls := telemetry.Labels{"tier": tier}
		reg.CounterFunc("tpiserved_cache_hits_total",
			"Cache lookups served from the tier.", ls,
			func() float64 { return float64(stats().Hits) })
		reg.CounterFunc("tpiserved_cache_misses_total",
			"Cache lookups that missed the tier.", ls,
			func() float64 { return float64(stats().Misses) })
		reg.CounterFunc("tpiserved_cache_evictions_total",
			"Entries evicted from the tier by capacity pressure.", ls,
			func() float64 { return float64(stats().Evictions) })
		reg.GaugeFunc("tpiserved_cache_entries",
			"Entries currently resident in the tier.", ls,
			func() float64 { return float64(stats().Size) })
		reg.GaugeFunc("tpiserved_cache_capacity",
			"Configured entry bound of the tier.", ls,
			func() float64 { return float64(stats().Capacity) })
	}

	reg.GaugeFunc("tpiserved_uptime_seconds",
		"Seconds since the server started.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("tpiserved_draining",
		"1 while the server is draining, else 0.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("tpiserved_workers",
		"Configured worker-pool size.", nil,
		func() float64 { return float64(s.opts.Workers) })
	reg.GaugeFunc("tpiserved_workers_busy",
		"Workers currently executing a simulation.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.busy)
		})
	reg.GaugeFunc("tpiserved_queue_depth",
		"Jobs waiting in the submission queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("tpiserved_queue_capacity",
		"Configured submission-queue bound.", nil,
		func() float64 { return float64(s.opts.QueueDepth) })
	reg.GaugeFunc("tpiserved_inflight_runs",
		"Distinct result keys with a live (queued or running) job.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
}

// runExporter feeds one job's progress samples into the per-scheme
// counters (as deltas between consecutive cumulative snapshots) and the
// job's event hub. It runs on the simulating goroutine only, so prev
// needs no lock. Counter handles are resolved once, not per sample.
type runExporter struct {
	jobID  string
	scheme string
	hub    *eventHub
	prev   sim.Progress

	counters [len(runMetrics)]*telemetry.Counter

	// clusterWords handles are resolved on the first sample that carries
	// mesh cluster traffic (the cluster count is a run property, unknown
	// when the exporter is built); non-mesh runs never touch them.
	clusterVec   *telemetry.CounterVec
	clusterWords []*telemetry.Counter
}

// newRunExporter resolves the scheme's counter handles for one run.
func (t *svcTelemetry) newRunExporter(jobID, scheme string, hub *eventHub) *runExporter {
	e := &runExporter{jobID: jobID, scheme: scheme, hub: hub, clusterVec: t.clusterWords}
	for i, v := range t.runCounters {
		e.counters[i] = v.With(scheme)
	}
	return e
}

// exportClusters mirrors per-cluster home-traffic deltas for mesh runs,
// resolving the per-cluster handles on first use. Cluster labels are the
// decimal cluster index, so a hot-spotted home slice stands out on
// /metrics.
func (e *runExporter) exportClusters(p sim.Progress) {
	if len(p.ClusterWords) == 0 {
		return
	}
	if e.clusterWords == nil {
		e.clusterWords = make([]*telemetry.Counter, len(p.ClusterWords))
		for i := range e.clusterWords {
			e.clusterWords[i] = e.clusterVec.With(e.scheme, strconv.Itoa(i))
		}
	}
	for i, v := range p.ClusterWords {
		var prev int64
		if i < len(e.prev.ClusterWords) {
			prev = e.prev.ClusterWords[i]
		}
		e.clusterWords[i].Add(v - prev)
	}
}

// sample is the sim.ProgressFunc: export counter deltas, then hand the
// cumulative snapshot to the hub (which applies its own heartbeat
// throttle before fanning out to SSE subscribers).
func (e *runExporter) sample(p sim.Progress) {
	for i, m := range runMetrics {
		e.counters[i].Add(m.value(&p) - m.value(&e.prev))
	}
	e.exportClusters(p)
	e.prev = p
	e.hub.publishProgress(ProgressEvent{
		Job:             e.jobID,
		Epoch:           p.Epoch,
		Cycles:          p.Cycles,
		MaxEpochs:       p.MaxEpochs,
		Reads:           p.Stats.Reads,
		Writes:          p.Stats.Writes,
		ReadMisses:      p.Stats.ReadMisses.Total(),
		WriteMisses:     p.Stats.WriteMisses.Total(),
		Invalidations:   p.Stats.Invalidations,
		StreamLoops:     p.StreamLoops,
		StreamFallbacks: p.StreamFallbacks,
		HostParEpochs:   p.HostParEpochs,
	})
}
