package dataset

import "sync"

// Sharded is a store partitioned by a shard key — in the collector, the VM
// type (SKU) — so concurrent producers append to disjoint shards without
// contending on a single lock or interleaving their points
// nondeterministically. Each shard is an ordinary *Store; shard creation
// order is recorded so a merged Snapshot lists points in a canonical,
// schedule-independent order.
//
// Shard is safe to call from any goroutine. The *Store it returns is itself
// concurrency-safe, but the intended pattern is one producer per shard.
type Sharded struct {
	mu     sync.Mutex
	order  []string          // guarded-by: mu
	shards map[string]*Store // guarded-by: mu
}

// NewSharded returns an empty sharded store.
func NewSharded() *Sharded {
	return &Sharded{shards: make(map[string]*Store)}
}

// Shard returns the store for key, creating it on first use. The creation
// order of shards defines the merge order of Snapshot, so callers that need
// a canonical order (the concurrent collector does) should touch shards in
// that order before spawning producers.
func (s *Sharded) Shard(key string) *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.shards[key]; ok {
		return st
	}
	st := NewStore()
	s.shards[key] = st
	s.order = append(s.order, key)
	return st
}

// Keys returns the shard keys in creation order.
func (s *Sharded) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the total number of points across shards.
func (s *Sharded) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Snapshot merges the shards into a new Store, shard by shard in creation
// order, preserving each shard's append order. The result is independent of
// how producer goroutines were scheduled.
func (s *Sharded) Snapshot() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := NewStore()
	for _, key := range s.order {
		out.AddAll(s.shards[key].All())
	}
	return out
}
