// Fast-path fallback tracking: with tracking enabled (tpisim
// -require-fastpath), the runner records every site where a recognized
// stream loop executed scalar or a DOALL epoch executed sequentially
// under host parallelism, with the reason. Tracking is off by default
// and costs one boolean test on the fallback-only paths.
package sim

// FastPathMiss is one deduplicated runtime fast-path fallback.
type FastPathMiss struct {
	Kind   string // "stream-loop" or "doall-epoch"
	Proc   string // enclosing procedure (stream loops; empty for doalls)
	Var    string // loop variable
	Pos    string // source position
	Reason string
}

// fpKey dedups fallback records: one entry per (site, reason).
type fpKey struct {
	doall  bool
	site   int    // stream-diag index (stream loops)
	pos    string // source position (doalls)
	reason string
}

// EnableFastPathTracking turns on fallback recording for this runner.
func (r *Runner) EnableFastPathTracking() { r.fpTrack = true }

// FastPathMisses returns the fallbacks recorded by the last Run, in
// first-observation order. Doall fallbacks are only recorded when host
// parallelism was requested (-hostpar > 1): sequential scheduling is
// the configured behavior otherwise, not a miss. Structural
// non-candidates are never recorded — loops the recognizer rejected
// (see StreamDiag) and seqOnly doalls, whose critical/ordered sections
// communicate within the epoch and so must dispatch sequentially.
func (r *Runner) FastPathMisses() []FastPathMiss { return r.fpMisses }

// noteStreamFallback records a recognized stream loop that ran scalar.
// Called from the lowered loop closure, possibly inside a host-parallel
// worker — hence the mutex (contended only on actual fallbacks).
func (r *Runner) noteStreamFallback(diagIdx int, reason string) {
	r.streamFallbacks.Add(1) // progress tally; atomic for hostpar workers
	if !r.fpTrack {
		return
	}
	r.fpMu.Lock()
	defer r.fpMu.Unlock()
	k := fpKey{site: diagIdx, reason: reason}
	if _, dup := r.fpSeen[k]; dup {
		return
	}
	if r.fpSeen == nil {
		r.fpSeen = map[fpKey]struct{}{}
	}
	r.fpSeen[k] = struct{}{}
	d := r.lp.ir.streamDiags[diagIdx]
	r.fpMisses = append(r.fpMisses, FastPathMiss{
		Kind:   "stream-loop",
		Proc:   d.Proc,
		Var:    d.Var,
		Pos:    d.Pos.String(),
		Reason: reason,
	})
}

// noteDoallFallback records a DOALL epoch that ran sequentially while
// host parallelism was requested. Only called from the sequential
// scheduling path (no locking hazard beyond the shared map).
func (r *Runner) noteDoallFallback(ld *loweredDoall, reason string) {
	if !r.fpTrack || r.cfg.HostParallel <= 1 {
		return
	}
	r.fpMu.Lock()
	defer r.fpMu.Unlock()
	k := fpKey{doall: true, pos: ld.pos.String(), reason: reason}
	if _, dup := r.fpSeen[k]; dup {
		return
	}
	if r.fpSeen == nil {
		r.fpSeen = map[fpKey]struct{}{}
	}
	r.fpSeen[k] = struct{}{}
	r.fpMisses = append(r.fpMisses, FastPathMiss{
		Kind:   "doall-epoch",
		Var:    ld.varName,
		Pos:    ld.pos.String(),
		Reason: reason,
	})
}
