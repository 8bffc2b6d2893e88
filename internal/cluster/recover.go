package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rio"
	"powl/internal/rules"
	"powl/internal/transport"
)

// This file is the recovery layer, shared by every driver and transport.
// Workers checkpoint their per-round deltas into a pluggable
// CheckpointStore; a Membership source — the in-process coordinator below,
// or the dead-files a supervisor writes in the shared-filesystem
// deployment — declares workers dead; and the lowest-numbered live worker
// adopts a dead worker's partition — base tuples, checkpointed deltas,
// undelivered inbox, tombstones, rules — and re-derives. A rejoining worker
// re-absorbs its own partition through the same loader. Forward inference is
// deterministic and monotone, so the reconstructed state re-converges to the
// same closure as the serial fixpoint; receivers deduplicate re-routed
// triples through Graph.Add.

// CheckpointStore persists per-worker deltas so a dead worker's state can
// be replayed by its adopter. Implementations must be safe for concurrent
// use by all workers of a run.
type CheckpointStore interface {
	// Save appends one delta for the worker — the triples that entered its
	// graph during one phase of the given round.
	Save(worker, round int, delta []rdf.Triple) error
	// Load returns everything ever saved for the worker, any order.
	Load(worker int) ([]rdf.Triple, error)
}

// LineageCheckpointStore is implemented by checkpoint stores that persist
// derivation lineage alongside the triple deltas. Lineage records are
// self-contained (rdf.Lineage carries premise triples by value) and matched
// to replayed triples by value, so a store may return them in any order.
// Stores without the interface degrade recovery to lineage-free replay;
// the reconstructed closure is unaffected.
type LineageCheckpointStore interface {
	SaveLineage(worker, round int, lins []rdf.Lineage) error
	LoadLineage(worker int) ([]rdf.Lineage, error)
}

// TombstoneCheckpointStore is implemented by checkpoint stores that also
// persist a worker's deleted triples. The set is cumulative (a graph never
// reuses log offsets), so only the newest one matters: adopters and
// rejoining workers replay it after the tuple deltas, and the deletions
// survive a crash the way derivations do.
type TombstoneCheckpointStore interface {
	SaveTombstones(worker, round int, dead []rdf.Triple) error
	// LoadTombstones returns the worker's newest set, nil when it never
	// saved one. A set older than the worker's newest delta (a crash between
	// the two writes) comes with an error saying so; an unreadable one is
	// an error with no set.
	LoadTombstones(worker int) ([]rdf.Triple, error)
}

// MemCheckpoints is the in-process CheckpointStore — survives worker
// (goroutine) death, not process death. The default when RecoveryConfig
// does not supply a store.
type MemCheckpoints struct {
	mu     sync.Mutex
	deltas map[int][]rdf.Triple
	lins   map[int][]rdf.Lineage
}

// NewMemCheckpoints returns an empty in-memory store.
func NewMemCheckpoints() *MemCheckpoints {
	return &MemCheckpoints{deltas: map[int][]rdf.Triple{}}
}

// Save implements CheckpointStore.
func (s *MemCheckpoints) Save(worker, round int, delta []rdf.Triple) error {
	if len(delta) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deltas[worker] = append(s.deltas[worker], delta...)
	return nil
}

// Load implements CheckpointStore.
func (s *MemCheckpoints) Load(worker int) ([]rdf.Triple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Triple, len(s.deltas[worker]))
	copy(out, s.deltas[worker])
	return out, nil
}

// SaveLineage implements LineageCheckpointStore.
func (s *MemCheckpoints) SaveLineage(worker, round int, lins []rdf.Lineage) error {
	if len(lins) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lins == nil {
		s.lins = map[int][]rdf.Lineage{}
	}
	s.lins[worker] = append(s.lins[worker], lins...)
	return nil
}

// LoadLineage implements LineageCheckpointStore.
func (s *MemCheckpoints) LoadLineage(worker int) ([]rdf.Lineage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Lineage, len(s.lins[worker]))
	copy(out, s.lins[worker])
	return out, nil
}

// DirCheckpoints is the directory-backed CheckpointStore: each delta is one
// N-Triples file written through rio.WriteAtomic, so checkpoints survive
// process death and can be inspected with any RDF tooling. File names carry
// worker, round and a store-wide sequence number; lineage and tombstone
// sidecars sit beside them. Several processes may share the directory as
// long as each saves only as its own worker.
type DirCheckpoints struct {
	dir  string
	dict *rdf.Dict

	mu  sync.Mutex
	seq int
}

// NewDirCheckpoints returns a store writing under dir (created if needed),
// interning through dict.
func NewDirCheckpoints(dir string, dict *rdf.Dict) (*DirCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	return &DirCheckpoints{dir: dir, dict: dict}, nil
}

// next names the worker's next delta file of the round, without a suffix.
func (s *DirCheckpoints) next(worker, round int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return filepath.Join(s.dir, fmt.Sprintf("ckpt_w%02d_r%03d_s%04d", worker, round, s.seq))
}

// writeTriples writes ts as N-Triples to path, atomically.
func (s *DirCheckpoints) writeTriples(path string, ts []rdf.Triple) error {
	return rio.WriteAtomic(path, func(w io.Writer) error {
		nw := ntriples.NewWriter(w, s.dict)
		if err := nw.WriteAll(ts); err != nil {
			return err
		}
		return nw.Flush()
	})
}

// readTriples parses the N-Triples files in paths into one graph.
func (s *DirCheckpoints) readTriples(paths []string) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	for _, f := range paths {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		_, rerr := ntriples.ReadGraph(fh, s.dict, g)
		fh.Close()
		if rerr != nil {
			return nil, fmt.Errorf("cluster: checkpoint %s: %w", filepath.Base(f), rerr)
		}
	}
	return g, nil
}

// glob lists the store's files matching pattern, in name order — for the
// %03d-padded rounds, round order.
func (s *DirCheckpoints) glob(pattern string, args ...any) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf(pattern, args...)))
	sort.Strings(files)
	return files, err
}

// Save implements CheckpointStore; a crash mid-write leaves a dot-prefixed
// temp file Load ignores, never a torn delta.
func (s *DirCheckpoints) Save(worker, round int, delta []rdf.Triple) error {
	if len(delta) == 0 {
		return nil
	}
	return s.writeTriples(s.next(worker, round)+".nt", delta)
}

// Load implements CheckpointStore, deduplicating across deltas.
func (s *DirCheckpoints) Load(worker int) ([]rdf.Triple, error) {
	files, err := s.glob("ckpt_w%02d_r*.nt", worker)
	if err != nil {
		return nil, err
	}
	g, err := s.readTriples(files)
	if err != nil {
		return nil, err
	}
	return g.Triples(), nil
}

// SaveLineage implements LineageCheckpointStore: one JSONL sidecar per
// delta (ntriples lineage codec), written like the triple checkpoints.
func (s *DirCheckpoints) SaveLineage(worker, round int, lins []rdf.Lineage) error {
	if len(lins) == 0 {
		return nil
	}
	return rio.WriteAtomic(s.next(worker, round)+".lin.jsonl", func(w io.Writer) error {
		return ntriples.WriteLineage(w, s.dict, lins)
	})
}

// LoadLineage implements LineageCheckpointStore.
func (s *DirCheckpoints) LoadLineage(worker int) ([]rdf.Lineage, error) {
	files, err := s.glob("ckpt_w%02d_r*.lin.jsonl", worker)
	if err != nil {
		return nil, err
	}
	var out []rdf.Lineage
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		lins, rerr := ntriples.ReadLineage(fh, s.dict)
		fh.Close()
		if rerr != nil {
			return nil, fmt.Errorf("cluster: lineage %s: %w", filepath.Base(f), rerr)
		}
		out = append(out, lins...)
	}
	return out, nil
}

// SaveTombstones implements TombstoneCheckpointStore: the set as plain
// N-Triples in tomb_wNN_rNNN.nt.
func (s *DirCheckpoints) SaveTombstones(worker, round int, dead []rdf.Triple) error {
	return s.writeTriples(filepath.Join(s.dir, fmt.Sprintf("tomb_w%02d_r%03d.nt", worker, round)), dead)
}

// LoadTombstones implements TombstoneCheckpointStore.
func (s *DirCheckpoints) LoadTombstones(worker int) ([]rdf.Triple, error) {
	tombs, err := s.glob("tomb_w%02d_r*.nt", worker)
	if err != nil || len(tombs) == 0 {
		return nil, err
	}
	newest := tombs[len(tombs)-1]
	g, err := s.readTriples([]string{newest})
	if err != nil {
		return nil, fmt.Errorf("worker %d tombstone sidecar %s unreadable: %v", worker, filepath.Base(newest), err)
	}
	ckpts, err := s.glob("ckpt_w%02d_r*.nt", worker)
	if err == nil && len(ckpts) > 0 {
		if cr, tr := fileRound(ckpts[len(ckpts)-1]), fileRound(newest); cr > tr {
			err = fmt.Errorf("worker %d tombstone sidecar missing for round %d; replaying deletions as of round %d", worker, cr, tr)
		}
	}
	return g.Triples(), err
}

// fileRound parses the round out of a ckpt_ or tomb_ file name, -1 when it
// carries none.
func fileRound(path string) int {
	var w, r int
	base := filepath.Base(path)
	if _, err := fmt.Sscanf(base[strings.IndexByte(base, '_')+1:], "w%02d_r%03d", &w, &r); err != nil {
		return -1
	}
	return r
}

// RecoveryConfig arms transport-generic worker recovery on a Config.
type RecoveryConfig struct {
	// Store persists per-worker per-round deltas; nil means a fresh
	// in-memory store (sufficient for goroutine death; use DirCheckpoints
	// to survive process death).
	Store CheckpointStore
	// RoundDeadline is how long a worker may trail the barrier frontier
	// before the detector declares it dead. It must comfortably exceed the
	// slowest single round. 0 means 2s.
	RoundDeadline time.Duration
	// Poll is the detector's check interval; 0 means 20ms.
	Poll time.Duration
}

func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	if rc.Store == nil {
		rc.Store = NewMemCheckpoints()
	}
	if rc.RoundDeadline <= 0 {
		rc.RoundDeadline = 2 * time.Second
	}
	if rc.Poll <= 0 {
		rc.Poll = 20 * time.Millisecond
	}
	return rc
}

// errWorkerDead is the internal sentinel a worker returns when it steps
// aside — it was declared dead and its partition reassigned. The run
// continues without it; RunContext drops dead workers' errors.
var errWorkerDead = errors.New("cluster: worker stepped aside (dead)")

// coordinator is the in-process Membership of one run: liveness, barrier
// progress, adoption assignments. In Concurrent mode it backs the failure
// detector and resizes the barrier; in Simulated mode (bar == nil) deaths
// are replayed deterministically at round tops and the round loop simply
// skips dead workers.
type coordinator struct {
	rc      RecoveryConfig
	bar     *barrier // nil in Simulated mode
	obs     *obs.Run
	assigns []Assignment

	mu         sync.Mutex
	live       []bool
	nLive      int
	cancels    []context.CancelFunc
	arrived    []int // last barrier round each worker reached
	frontier   int   // max over live workers of arrived[i]
	frontierAt time.Time
	pending    map[int][]int // adopter -> victims awaiting absorption
	due        map[int]int   // victim -> round of the death that assigned it
	owned      map[int][]int // worker -> partitions it absorbed (transitive)
	recovered  map[int]int   // victim -> final adopter
	err        error
}

//powl:ignore wallclock the failure detector compares real arrival times against real deadlines by design — detection latency is an operational property, not run output.
func newCoordinator(k int, rc RecoveryConfig, bar *barrier, o *obs.Run, assigns []Assignment) *coordinator {
	c := &coordinator{
		rc: rc, bar: bar, obs: o, assigns: assigns,
		live:       make([]bool, k),
		nLive:      k,
		cancels:    make([]context.CancelFunc, k),
		arrived:    make([]int, k),
		frontier:   -1,
		frontierAt: time.Now(),
		pending:    map[int][]int{},
		due:        map[int]int{},
		owned:      map[int][]int{},
		recovered:  map[int]int{},
	}
	for i := range c.live {
		c.live[i] = true
		c.arrived[i] = -1
	}
	return c
}

// Dead implements Membership. Nil-safe: with no coordinator nobody is ever
// dead.
func (c *coordinator) Dead(id int) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.live[id]
}

// atBarrier records that a worker reached the round's barrier — the
// progress signal the failure detector watches. Nil-safe.
//
//powl:ignore wallclock frontier arrival times exist only to feed the real-time failure detector.
func (c *coordinator) atBarrier(id, round int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if round > c.arrived[id] {
		c.arrived[id] = round
	}
	if round > c.frontier {
		c.frontier = round
		c.frontierAt = time.Now()
	}
}

// Died implements Membership: a self-reported crash is declared at once
// (the detector would find it anyway, just slower).
func (c *coordinator) Died(id, round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declareDeadLocked(id, round, "crash")
}

// Assignment implements Membership.
func (c *coordinator) Assignment(v int) (Assignment, error) { return c.assigns[v], nil }

func (c *coordinator) declareDeadLocked(victim, round int, cause string) {
	if !c.live[victim] {
		return
	}
	c.live[victim] = false
	c.nLive--
	if c.nLive == 0 {
		if c.err == nil {
			c.err = fmt.Errorf("cluster: unrecoverable: all workers dead (last: worker %d, %s, round %d)",
				victim, cause, round)
		}
		if c.bar != nil {
			c.bar.abort()
		}
		return
	}
	adopter := -1
	for i, l := range c.live {
		if l {
			adopter = i
			break
		}
	}
	// Everything the victim was responsible for moves to the adopter: its
	// own partition, the partitions it had already absorbed, and any deaths
	// assigned to it that it never got to absorb.
	moved := append([]int{victim}, c.owned[victim]...)
	moved = append(moved, c.pending[victim]...)
	delete(c.pending, victim)
	delete(c.owned, victim)
	have := map[int]bool{}
	for _, v := range c.pending[adopter] {
		have[v] = true
	}
	for _, v := range moved {
		if !have[v] {
			have[v] = true
			c.pending[adopter] = append(c.pending[adopter], v)
		}
		c.recovered[v] = adopter
		c.due[v] = round
	}
	if cancel := c.cancels[victim]; cancel != nil {
		cancel()
	}
	if c.bar != nil {
		// Shrink the barrier so the survivors' generation can complete, and
		// deposit a sentinel "sent" so the death round cannot read as
		// globally quiescent: the adopter needs at least one more round to
		// absorb the victim's state.
		c.bar.remove(1)
	}
	c.obs.Emit(obs.Event{Type: obs.EvDeath, TS: c.obs.Now(), Worker: victim,
		Round: round, Name: cause, N: int64(adopter)})
}

// Claim implements Membership. A death declared in round r is absorbed at
// the top of round r+1, after the barrier that carried its sentinel —
// whether or not the adopter had already started round r when it happened —
// so every run adopts at the same round the shared-filesystem barrier does.
func (c *coordinator) Claim(id, round int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var now, later []int
	for _, v := range c.pending[id] {
		if c.due[v] < round {
			now = append(now, v)
		} else {
			later = append(later, v)
		}
	}
	c.pending[id] = later
	c.owned[id] = append(c.owned[id], now...)
	return now
}

// recoveredMap snapshots victim -> adopter for the Result.
func (c *coordinator) recoveredMap() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.recovered))
	for v, a := range c.recovered {
		out[v] = a
	}
	return out
}

// runErr returns the coordinator's unrecoverable-run error, if any.
func (c *coordinator) runErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// detect is the failure-detector loop (Concurrent mode): every Poll it
// declares dead any live worker that trails the barrier frontier while
// either the frontier has been stale past RoundDeadline (the survivors are
// stuck waiting on it) or the transport's Health view — when the transport
// reports one — has had no proof of life from it past RoundDeadline. A
// false positive is safe: the declared worker steps aside at its next
// coordination point and its partition is re-derived by the adopter.
//
//powl:ignore wallclock liveness deadlines are real time by definition; nothing here is stamped into run output.
func (c *coordinator) detect(ctx context.Context, tr transport.Transport) {
	hr, _ := tr.(transport.HealthReporter)
	ticker := time.NewTicker(c.rc.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var health map[int]time.Time
		if hr != nil {
			health = hr.Health()
		}
		now := time.Now()
		c.mu.Lock()
		if c.frontier >= 0 {
			frontierStale := now.Sub(c.frontierAt) > c.rc.RoundDeadline
			for i, l := range c.live {
				if !l || c.arrived[i] >= c.frontier {
					continue
				}
				healthStale := false
				if t, ok := health[i]; ok {
					healthStale = now.Sub(t) > c.rc.RoundDeadline
				}
				if frontierStale || healthStale {
					c.declareDeadLocked(i, c.frontier, "timeout")
				}
			}
		}
		c.mu.Unlock()
	}
}

// adoptPending absorbs the dead peers this worker has been assigned since
// the last round (see absorb) and their rules; a rejoining worker is handed
// its own id, and re-absorbs its own persisted state the same way. The
// absorbed tuples seed the next incremental materialization.
func (w *worker) adoptPending(ctx context.Context, cfg Config, round int) error {
	if w.members == nil {
		return nil
	}
	for _, v := range w.members.Claim(w.id, round) {
		a, err := w.members.Assignment(v)
		if err != nil {
			return fmt.Errorf("cluster: worker %d adopt %d: %w", w.id, v, err)
		}
		absorbed, err := w.absorb(ctx, cfg, v, round, a.Base)
		if err != nil {
			return err
		}
		if v == w.id {
			continue // a rejoin: the partition was this worker's all along
		}
		for _, r := range a.Rules {
			if !containsRule(w.rules, r) {
				w.rules = append(w.rules, r)
			}
		}
		w.adopted = append(w.adopted, v)
		cfg.Obs.Emit(obs.Event{Type: obs.EvAdopt, TS: cfg.Obs.Now(), Worker: w.id,
			Round: round, N: int64(v), N2: int64(absorbed)})
	}
	// Everything absorbed is routed knowledge (or queued in reship):
	// advancing the watermark keeps the next send phase from re-shipping it.
	w.shipped = w.graph.Len()
	return nil
}

// absorb merges worker v's persisted state into this worker's graph and
// returns how many tuples were new: v's base partition, every delta it
// checkpointed, its inbox from round 0 through round, and — last — its
// newest tombstone set. Base and inbox are already-routed knowledge: the
// partitioner placed the base, and live senders routed the inbox to every
// destination. Checkpointed tuples are queued in reship, because v may have
// died before its last sends completed. Lineage rides along from stores and
// transports that keep it; without it the adoption degrades to
// lineage-free replay and the triples read as asserted in the adopter's
// log, which lineageCarrier journals.
func (w *worker) absorb(ctx context.Context, cfg Config, v, round int, base []rdf.Triple) (int, error) {
	absorbed := 0
	take := func(t rdf.Triple, lins map[rdf.Triple]rdf.Lineage) bool {
		if !w.add(t, lins) {
			return false
		}
		w.received = append(w.received, t)
		absorbed++
		return true
	}
	for _, t := range base {
		delete(w.reship, t)
		take(t, nil)
	}
	var lins map[rdf.Triple]rdf.Lineage
	if w.graph.Prov() != nil {
		lins = map[rdf.Triple]rdf.Lineage{}
		if ls, ok := w.store.(LineageCheckpointStore); ok {
			ck, err := ls.LoadLineage(v)
			if err != nil {
				return 0, fmt.Errorf("cluster: worker %d absorb %d lineage: %w", w.id, v, err)
			}
			merge(lins, ck)
		}
	}
	ck, err := w.store.Load(v)
	if err != nil {
		return 0, fmt.Errorf("cluster: worker %d absorb %d: %w", w.id, v, err)
	}
	for _, t := range ck {
		if take(t, lins) {
			w.reship[t] = struct{}{}
		}
	}
	// Transports still hold the undelivered rounds, and File re-serves
	// delivered ones — harmless, Add deduplicates. These tuples are global
	// knowledge: never re-ship them, even if a checkpoint queued them.
	lc := w.lineageCarrier(cfg, round)
	for r := 0; r <= round; r++ {
		in, err := cfg.Transport.Recv(ctx, r, v)
		if err != nil {
			return 0, fmt.Errorf("cluster: worker %d absorb %d inbox round %d: %w", w.id, v, r, err)
		}
		if lc != nil && len(in) > 0 {
			shipped, err := w.recvLineage(ctx, cfg, lc, r, v)
			if err != nil {
				return 0, err
			}
			for t, l := range shipped {
				if _, ok := lins[t]; !ok {
					lins[t] = l
				}
			}
		}
		for _, t := range in {
			delete(w.reship, t)
			take(t, lins)
		}
	}
	w.applyTombstones(cfg, v, round)
	return absorbed, nil
}

// applyTombstones replays worker v's newest tombstone set over the graph and
// scrubs the reship and received queues of whatever it kills: a deleted
// triple must be neither re-routed nor seed the next round's joins. A set
// that is stale (its newest delta was checkpointed after it) or unreadable
// degrades to the best one available — the stale set, or none — and the
// journal says so.
func (w *worker) applyTombstones(cfg Config, v, round int) {
	ts, ok := w.store.(TombstoneCheckpointStore)
	if !ok {
		return
	}
	dead, err := ts.LoadTombstones(v)
	if err != nil {
		cfg.Obs.Emit(obs.Event{Type: obs.EvWarn, TS: cfg.Obs.Now(), Worker: w.id, Round: round,
			Name: fmt.Sprintf("%v; replay degraded to %d tombstones", err, len(dead))})
	}
	if w.graph.Delete(dead) == 0 {
		return
	}
	for t := range w.reship {
		if !w.graph.Has(t) {
			delete(w.reship, t)
		}
	}
	kept := w.received[:0]
	for _, t := range w.received {
		if w.graph.Has(t) {
			kept = append(kept, t)
		}
	}
	w.received = kept
}

// merge adds the records of lins that m lacks: the first derivation of a
// triple wins, as in Graph.Add.
func merge(m map[rdf.Triple]rdf.Lineage, lins []rdf.Lineage) {
	for _, l := range lins {
		if _, ok := m[l.T]; !ok {
			m[l.T] = l
		}
	}
}

// containsRule reports whether rs already holds r (rule-partitioned victims
// may carry rules the adopter lacks; data partitioning shares one set).
func containsRule(rs []rules.Rule, r rules.Rule) bool {
	for _, x := range rs {
		if reflect.DeepEqual(x, r) {
			return true
		}
	}
	return false
}

// stepAsideOr converts an error into the step-aside sentinel when this
// worker has been declared dead — its context was cancelled and its
// partition reassigned, so the failure is expected and the run continues
// without it. Any other failure aborts the barrier and surfaces.
func (w *worker) stepAsideOr(err error) error {
	if w.members != nil && w.members.Dead(w.id) {
		return errWorkerDead
	}
	w.bar.Abort()
	return err
}
