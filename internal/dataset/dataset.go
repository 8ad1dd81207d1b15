// Package dataset stores the datapoints produced by data collection: one
// record per executed scenario carrying execution time, cost, the
// application-reported metrics (HPCADVISORVAR values), infrastructure
// utilization, and identifying tags. Plot generation and advice both consume
// this store through filters, matching the paper's "data is collected,
// filtered, and organized" pipeline.
//
// Store is safe for concurrent use: appends and reads are guarded by a
// read-write mutex, so progress callbacks and the GUI may read while a
// collection appends. Concurrent producers that need a canonical order —
// the collector's parallel pool lanes — each write to a Store of their own
// and are merged into the target in a fixed order afterwards.
package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/monitor"
)

// Point is one executed scenario's record.
type Point struct {
	ScenarioID string `json:"scenario_id"`
	Deployment string `json:"deployment,omitempty"`
	AppName    string `json:"appname"`
	SKU        string `json:"sku"`
	SKUAlias   string `json:"sku_alias"`
	NNodes     int    `json:"nnodes"`
	PPN        int    `json:"ppn"`

	AppInput  map[string]string `json:"appinput,omitempty"`
	InputDesc string            `json:"input_desc"`
	Tags      map[string]string `json:"tags,omitempty"`

	ExecTimeSec float64 `json:"exectime_sec"`
	CostUSD     float64 `json:"cost_usd"`

	Metrics map[string]string `json:"metrics,omitempty"`

	Utilization monitor.Sample     `json:"utilization"`
	Bottleneck  monitor.Bottleneck `json:"bottleneck,omitempty"`

	// Failed records scenarios that did not complete; failed points carry
	// no time/cost and are excluded from plots and advice.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`

	// CollectedAt is the virtual timestamp (seconds) of completion.
	CollectedAt float64 `json:"collected_at"`
}

// TotalCores is the scenario's process count (nodes x ppn).
func (p Point) TotalCores() int { return p.NNodes * p.PPN }

// Sink receives every point appended to an attached Store — the durable
// write-ahead path of a storage backend. Append is called in append order
// under the store's lock, so implementations see exactly the store's point
// sequence; Sync must make every appended point durable before returning.
type Sink interface {
	Append(p Point) error
	Sync() error
}

// Store is an append-only collection of points, safe for concurrent use.
// Reads are served from an immutable copy-on-write Snapshot built at most
// once per generation, so queries never hold the lock while filtering and
// never contend with concurrent appends.
//
// The read view is a base plus a delta (see delta.go). The base is an
// immutable columnar image: the mapped snapshot NewMappedStore serves, or
// one a fold built in memory. The delta is the points appended since, in
// append order. A generation roll builds only the delta's snapshot, in
// O(|delta|); past a fixed size rule the delta folds into a new base,
// built off the lock by the reader that first sees the rule met.
//
// A Store may have a Sink attached (Attach): every Add/AddAll then writes
// through to it, so each collected point lands durably the moment it is
// appended instead of in one save at the end. Sink errors are sticky and
// surfaced by Flush, keeping the hot Add path signature-free.
type Store struct {
	mu      sync.RWMutex
	base    *run      // guarded-by: mu; immutable, covers the first base.len() points
	delta   []Point   // guarded-by: mu; the points appended since, append order
	log     deltaLog  // guarded-by: mu; the delta interned and ranked against base
	folding bool      // guarded-by: mu; a reader is building the next base off the lock
	foldErr error     // guarded-by: mu; why the delta cannot fold (it holds a row no image can), sticky
	gen     uint64    // guarded-by: mu
	snap    *Snapshot // guarded-by: mu; cached, valid iff snap.gen == gen
	sink    Sink      // guarded-by: mu
	sinkErr error     // guarded-by: mu; first write-through failure, surfaced by Flush
	rowErr  error     // guarded-by: mu; first row of a replaced base that failed to decode
}

// emptyImage is the base every new store starts from: the image of no
// points, served like any other and shared, since a run is immutable.
var emptyImage, _ = newMappedSnapshot(&Columnar{RowOffs: []uint64{0}})

// NewStore returns an empty store.
func NewStore() *Store { return &Store{base: emptyImage.base} }

// Attach installs (or, with nil, removes) the write-through sink. Points
// already in the store are not replayed: an attached backend is expected to
// already hold them (it just loaded them).
func (s *Store) Attach(sink Sink) {
	s.mu.Lock()
	s.sink = sink
	s.mu.Unlock()
}

// Flush syncs the attached sink, making every appended point durable, and
// returns the first write-through error if any append failed. Without a
// sink it only reports sticky errors (always nil in practice).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sink != nil {
		if err := s.sink.Sync(); err != nil && s.sinkErr == nil {
			s.sinkErr = err
		}
	}
	return s.sinkErr
}

// appendThroughLocked forwards one point to the sink, recording the first error.
// Callers hold s.mu.
func (s *Store) appendThroughLocked(p Point) {
	if s.sink == nil {
		return
	}
	if err := s.sink.Append(p); err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
}

// Add appends a point and bumps the store generation.
func (s *Store) Add(p Point) {
	s.mu.Lock()
	s.delta = append(s.delta, p)
	s.gen++
	s.appendThroughLocked(p)
	s.mu.Unlock()
}

// AddAll appends points in order; the generation advances by the batch
// size, keeping it equal to the log position.
func (s *Store) AddAll(pts []Point) {
	if len(pts) == 0 {
		return
	}
	s.mu.Lock()
	s.delta = append(s.delta, pts...)
	s.gen += uint64(len(pts))
	for i := range pts {
		s.appendThroughLocked(pts[i])
	}
	s.mu.Unlock()
}

// Err reports the first persisted row that failed to decode. A store
// loaded over a persisted snapshot decodes its rows lazily, and a row the
// decoder rejects reads as a zero Point; callers that copy points out with
// All check Err afterwards (Marshal returns it itself). It is nil for
// stores built by appends.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.rowErr == nil {
		return s.base.lazy.firstErr()
	}
	return s.rowErr
}

// Generation is the store's log position: the number of points ever
// appended (a store loaded from a persisted log starts at its point
// count). It changes whenever query results may, so caches and ETags
// keyed by it invalidate exactly — and because it derives from the append
// log rather than a process-local counter, every replica applying the same
// log reports the same generation at the same position, which is what lets
// a load balancer spray requests across a replicated fleet without
// cache-coherence bugs.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Snapshot returns the read-optimized view of the current generation,
// building it lazily on first use after a mutation. The returned snapshot
// is immutable and shared: concurrent readers get the same pointer. With
// nothing appended since the base it serves the base alone; otherwise a
// roll extends the previous delta by the new points without touching the
// base.
//
// The reader whose roll first meets the fold rule then builds the next
// base from that immutable snapshot off the lock, and retakes the lock
// only to install it; Add and other readers do not wait for it. A store
// with no base yet builds its first one synchronously instead, as soon as
// the rule is met: there is nothing to serve while it is built. A delta
// that holds a point no image can hold (a NaN metric) never folds: the
// store keeps serving base plus delta, and no later roll retries.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	if snap := s.snap; snap != nil && snap.gen == s.gen {
		s.mu.RUnlock()
		return snap
	}
	s.mu.RUnlock()
	s.mu.Lock()
	if s.snap != nil && s.snap.gen == s.gen {
		snap := s.snap
		s.mu.Unlock()
		return snap
	}
	s.snap = s.rollLocked()
	snap := s.snap
	fold := !s.folding && s.foldErr == nil && foldDue(snap.base.len(), snap.delta.len())
	if fold && snap.base.len() == 0 {
		s.installLocked(snap.fold())
		snap, fold = s.snap, false
	}
	s.folding = s.folding || fold
	s.mu.Unlock()
	if fold {
		folded, err := snap.fold()
		s.mu.Lock()
		s.folding = false
		s.installLocked(folded, err)
		s.mu.Unlock()
	}
	return snap
}

// rollLocked builds the snapshot of the current generation. Callers hold
// s.mu.
func (s *Store) rollLocked() *Snapshot {
	if len(s.delta) == 0 {
		return &Snapshot{gen: s.gen, base: s.base}
	}
	s.log.extend(s.base, s.delta)
	return s.log.snapshot(s.base, s.delta, s.gen)
}

// installLocked swaps in the base of a folded snapshot, or records why
// the fold failed. Callers hold s.mu.
func (s *Store) installLocked(folded *Snapshot, err error) {
	if err != nil {
		s.foldErr = err
		return
	}
	if s.rowErr == nil {
		s.rowErr = s.base.lazy.firstErr() // the replaced base's decode failures
	}
	s.setBaseLocked(folded.base)
	if s.snap.gen == folded.gen {
		s.snap = folded
	}
}

// Image returns the store's points as one columnar image in canonical
// order: the rows, row index, append indexes, symbol table, columns and
// name lists a v2 snapshot segment persists. It is the base's own image
// when nothing was appended since the base (a fold that the rule calls for
// here runs first), else the merge of base and delta. A point that cannot
// marshal is an error. The image is read-only and may alias the base's
// mapped memory.
func (s *Store) Image() (*Columnar, error) {
	s.Snapshot() // meets the fold rule, if due, so the merge below never repeats a fold
	sn := s.Snapshot()
	if sn.delta == nil {
		return sn.base.col, nil
	}
	return sn.merge()
}

// setBaseLocked makes base, which extends the current base by a prefix of
// the delta, the store's base, and drops that prefix from the delta.
// Callers hold s.mu.
func (s *Store) setBaseLocked(base *run) {
	folded := base.len() - s.base.len()
	s.delta = append([]Point(nil), s.delta[folded:]...)
	s.base, s.log = base, deltaLog{}
}

// view pins the append-order view: the base, whose rows come first, and
// the delta after it.
func (s *Store) view() (*run, []Point) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base, s.delta[:len(s.delta):len(s.delta)]
}

// Len returns the number of stored points.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.len() + len(s.delta)
}

// All returns a copy of every point, in append order.
func (s *Store) All() []Point {
	base, tail := s.view()
	out := make([]Point, 0, base.len()+len(tail))
	out = append(out, base.appendRows()...)
	return append(out, tail...)
}

// Filter selects points; zero values match everything.
type Filter struct {
	AppName   string
	SKU       string // full name or alias
	InputDesc string
	MinNodes  int
	MaxNodes  int
	Tags      map[string]string
	// IncludeFailed keeps failed points; by default only successful runs
	// are returned.
	IncludeFailed bool
}

// Match reports whether a point passes the filter. Loops matching many
// points should canonicalize once (Filter.Canonical) instead of paying the
// per-point folding here.
func (f Filter) Match(p Point) bool {
	c := f.Canonical()
	return c.Match(&p)
}

// Select returns points passing the filter, ordered by (SKU, input, nodes),
// ties in append order. It is served from the current Snapshot: an index
// probe over the smallest posting list of the constrained app, SKU and
// input fields, or a scan of the sorted points when the filter constrains
// none of them (empty, tag-only and node-bound-only filters, with or
// without IncludeFailed).
func (s *Store) Select(f Filter) []Point {
	return s.Snapshot().Select(f)
}

// SelectScan is the pre-index reference path: canonicalize the filter once,
// scan every point in append order, then sort. It returns exactly what
// Select returns and is retained as the correctness oracle for property
// tests and the baseline for the index-vs-scan ablation benchmarks.
func (s *Store) SelectScan(f Filter) []Point {
	c := f.Canonical()
	base, tail := s.view()
	var out []Point
	for _, rows := range [][]Point{base.appendRows(), tail} {
		for i := range rows {
			if c.Match(&rows[i]) {
				out = append(out, rows[i])
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return pointLess(&out[i], &out[j]) })
	return out
}

// Apps lists distinct application names present, sorted.
func (s *Store) Apps() []string {
	return s.Snapshot().Apps()
}

// Marshal renders the store as JSON Lines, points in append order.
func (s *Store) Marshal() ([]byte, error) {
	base, tail := s.view()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	encode := func(p *Point) error {
		start := buf.Len()
		if err := enc.Encode(p); err != nil {
			return err
		}
		if n := buf.Len() - start; n > MaxLineBytes {
			return fmt.Errorf("dataset: point %s encodes to a %d-byte line, over the %d-byte JSON Lines limit",
				p.ScenarioID, n, MaxLineBytes)
		}
		return nil
	}
	rows := base.appendRows()
	for i := range rows {
		if err := encode(&rows[i]); err != nil {
			return nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	for i := range tail {
		if err := encode(&tail[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// MaxLineBytes caps one JSON Lines record, its newline included.
// Unmarshal's scanner rejects longer lines, so Marshal refuses to produce
// them: an export must never write a file its import cannot read.
const MaxLineBytes = 16 * 1024 * 1024

// Unmarshal parses a JSON Lines dataset.
func Unmarshal(data []byte) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1024*1024), MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var p Point
		if err := json.Unmarshal([]byte(text), &p); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		s.Add(p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveFile writes the dataset to path as JSON Lines, atomically: the new
// contents are staged and renamed into place, so a crash mid-save can never
// truncate a previously saved dataset.
func (s *Store) SaveFile(path string) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, data, 0o644)
}

// LoadFile reads a JSON Lines dataset from path. A missing file yields an
// empty store, so a fresh environment starts cleanly.
func LoadFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return NewStore(), nil
		}
		return nil, err
	}
	return Unmarshal(data)
}
