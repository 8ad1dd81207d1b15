// Fixture: the sanctioned pinned-snapshot idioms (loaded as
// hpcadvisor/internal/api).
package api

type engine struct{}

func (engine) Snapshot() *Snapshot { return nil }
func (engine) Generation() uint64  { return 0 }
func (engine) Cached(sn *Snapshot, render func(sn *Snapshot) any) any {
	return render(sn)
}

type Snapshot struct{}

func (*Snapshot) Generation() uint64 { return 0 }

// pinnedOnce fetches one snapshot and reads everything, including the
// stamped generation, from the pin.
func pinnedOnce(eng engine) uint64 {
	sn := eng.Snapshot()
	return sn.Generation()
}

// singleGeneration is a pure revalidation probe: one live fetch is fine.
func singleGeneration(eng engine) uint64 {
	return eng.Generation()
}

// renderCallback mirrors the queryengine Cached shape: the closure's
// snapshot parameter is the pin, so its Generation reads are pinned too.
func renderCallback(eng engine) any {
	sn := eng.Snapshot()
	return eng.Cached(sn, func(sn *Snapshot) any {
		return sn.Generation()
	})
}

// separateFunctions: each helper fetches once; per-function analysis does
// not conflate them.
func handlerA(eng engine) uint64 { return eng.Generation() }
func handlerB(eng engine) uint64 { return eng.Generation() }
