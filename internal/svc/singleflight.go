package svc

import "sync"

// flightGroup collapses concurrent calls with the same key into one
// execution whose result every caller shares (a minimal, dependency-free
// singleflight). Results are not retained after the last waiter returns;
// retention is the cache's job.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	wg   sync.WaitGroup
	val  V
	err  error
	dups int // callers that joined this execution (guarded by the group's mu)
}

// Do runs fn once per concurrent set of callers sharing key and returns
// fn's result to all of them; shared reports whether this caller joined
// an execution started by another.
func (g *flightGroup[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, false
}
