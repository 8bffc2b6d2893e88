// Package fscluster implements the paper's actual deployment shape (§V): a
// cluster of independent OS processes synchronizing through a shared file
// system. The master lays out a work directory — one base-tuple file per
// partition, the compiled rule file, and the resource ownership table — and
// each node process runs Algorithm 3's round loop against it. The loop is
// package cluster's worker, driven by cluster.RunWorker; this package
// supplies the seams that make it a shared-filesystem node: messages go
// through transport.File and checkpoints through cluster.DirCheckpoints,
// both under the work directory, and the barrier and membership are files —
// a done-marker per node and round, and the dead-files Supervise writes.
//
// cmd/owlcluster (master) and cmd/owlnode (worker) are thin wrappers; the
// package itself is process-agnostic, so the integration tests run k nodes
// as goroutines against one temp dir — the protocol on disk is identical.
package fscluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"powl/internal/cluster"
	"powl/internal/faultinject"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rio"
	"powl/internal/rules"
	"powl/internal/transport"
)

// Layout names the files of a work directory. Checkpoints
// (cluster.DirCheckpoints) live in the directory itself, messages
// (transport.File) under MsgDir.
type Layout struct {
	Dir string
}

// PartFile is the base-tuple file of node id.
func (l Layout) PartFile(id int) string { return filepath.Join(l.Dir, fmt.Sprintf("part_%02d.nt", id)) }

// RulesFile holds the compiled instance rules.
func (l Layout) RulesFile() string { return filepath.Join(l.Dir, "rules.rules") }

// OwnerFile holds the resource ownership table (term TAB partition).
func (l Layout) OwnerFile() string { return filepath.Join(l.Dir, "owner.tsv") }

// MsgDir is the root of the nodes' message files: one directory per round,
// one N-Triples file (plus lineage sidecar) per sender and receiver.
func (l Layout) MsgDir() string { return filepath.Join(l.Dir, "msgs") }

// MarkerFile is node i's end-of-round marker; its content is the number of
// tuples the node sent this round.
func (l Layout) MarkerFile(round, id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("done_r%03d_n%02d", round, id))
}

// ClosureFile is node i's final output.
func (l Layout) ClosureFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("closure_%02d.nt", id))
}

// JournalFile is node i's telemetry journal fragment, written when the node
// runs with observability on; the master merges the fragments into one
// timeline for trace export and reporting.
func (l Layout) JournalFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("journal_n%02d.jsonl", id))
}

// DeadFile marks node i as failed; its content is the adopter's id. Written
// by the supervisor, honoured by every node's barrier wait.
func (l Layout) DeadFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("dead_n%02d", id))
}

// EpochFile counts node i's starts against this work directory; a value
// above 1 on startup means the node is rejoining a run already in progress.
func (l Layout) EpochFile(id int) string {
	return filepath.Join(l.Dir, fmt.Sprintf("epoch_n%02d", id))
}

// MetaFile records the cluster size for the nodes.
func (l Layout) MetaFile() string { return filepath.Join(l.Dir, "cluster.meta") }

// Prepare is the master-side step: compile the ontology, partition the
// instance data with the given policy, and write the work directory. It
// returns the partitioning metrics for reporting.
func Prepare(dir string, dict *rdf.Dict, g *rdf.Graph, k int, pol partition.Policy) (*partition.Metrics, error) {
	l := Layout{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	compiled := owlhorst.Compile(dict, g)
	in := &partition.Input{
		Dict:     dict,
		Instance: owlhorst.SplitInstance(dict, g),
		Skip:     owlhorst.SchemaElements(dict, compiled.Schema),
	}
	pres, err := partition.Partition(in, k, pol)
	if err != nil {
		return nil, err
	}
	m := partition.ComputeMetrics(in, pres)

	// Base-tuple files: each node's slice plus the replicated schema.
	schema := compiled.Schema.Triples()
	for i := 0; i < k; i++ {
		pg := rdf.NewGraphCap(len(pres.Parts[i]) + len(schema))
		pg.AddAll(pres.Parts[i])
		pg.AddAll(schema)
		if err := writeGraphFile(l.PartFile(i), dict, pg); err != nil {
			return nil, err
		}
	}

	// Rule file, in the parseable Jena-style syntax.
	var rb strings.Builder
	for _, r := range compiled.InstanceRules {
		rb.WriteString(r.Format(dict))
		rb.WriteByte('\n')
	}
	if err := rio.WriteFileAtomic(l.RulesFile(), []byte(rb.String())); err != nil {
		return nil, err
	}

	// Ownership table, in ascending resource-ID order so the file is
	// byte-stable across runs of the same (input, seed) — map order would
	// reshuffle it every run.
	ids := make([]rdf.ID, 0, len(pres.Owner))
	for id := range pres.Owner {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var ob strings.Builder
	for _, id := range ids {
		ob.WriteString(dict.Term(id).String())
		ob.WriteByte('\t')
		ob.WriteString(strconv.Itoa(pres.Owner[id]))
		ob.WriteByte('\n')
	}
	if err := rio.WriteFileAtomic(l.OwnerFile(), []byte(ob.String())); err != nil {
		return nil, err
	}
	if err := rio.WriteFileAtomic(l.MetaFile(), []byte(strconv.Itoa(k)+"\n")); err != nil {
		return nil, err
	}
	return &m, nil
}

// ClusterSize reads k from the work directory.
func ClusterSize(dir string) (int, error) {
	b, err := os.ReadFile(Layout{Dir: dir}.MetaFile())
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// NodeConfig configures one node process.
type NodeConfig struct {
	ID int
	K  int
	// Dir is the shared work directory.
	Dir string
	// Engine defaults to the forward engine.
	Engine reason.Engine
	// Poll is the marker-polling interval; 0 means 20ms.
	Poll time.Duration
	// Timeout bounds the wait for peers per round; 0 means 5 minutes.
	Timeout time.Duration
	// MaxRounds is a safety cap; 0 means 1000.
	MaxRounds int
	// Inject optionally simulates failures: when its CrashRound fires the
	// node exits with ErrCrashed mid-protocol, exactly as a killed process
	// would look to its peers, and its send/recv faults hit the node's
	// message transport (a failed send or receive fail-stops the node).
	// Nil means no injection.
	Inject *faultinject.Injector
	// Obs, when non-nil, journals this node's run: phase spans per round,
	// checkpoints, injected faults, adoptions, and per-rule profiles.
	// Each node process journals on its own clock (ns since its own start);
	// cmd/owlcluster merges the per-node fragments into one timeline.
	Obs *obs.Run
	// Provenance enables derivation recording on this node's graph: the
	// engine records rule + premises per derived tuple, and message and
	// checkpoint files get JSONL lineage sidecars so receivers, adopters
	// and rejoining nodes keep the records.
	Provenance bool
}

// ErrCrashed is returned by a node whose fault injector fired its crash
// trigger; the node stops without writing its round marker.
var ErrCrashed = cluster.ErrCrashed

// NodeResult reports one node's run.
type NodeResult struct {
	Rounds  int
	Derived int
	Sent    int
	// Epoch is this start's 1-based count against the work directory; a
	// value above 1 means the node rejoined a run already in progress.
	Epoch int
	// StartRound is the round the node (re)entered the loop at: 0 on a
	// fresh start, last-completed-round+1 on a rejoin.
	StartRound int
	// Closure is the node's final local graph (also written to disk).
	Closure *rdf.Graph
}

// RunNode executes Algorithm 3's round loop for one node against the shared
// directory, writing its closure file before returning.
func RunNode(cfg NodeConfig) (*NodeResult, error) {
	return RunNodeContext(context.Background(), cfg)
}

// RunNodeContext is RunNode with cancellation: the context reaches the
// engine's fixpoint loop, the transport and the barrier poll, so a
// cancelled node stops within one round phase.
//
// A node that finds it has started against this work directory before is
// rejoining: it re-absorbs its own persisted state (cluster.Membership's
// self-claim) and resumes at its last completed round + 1 — unless a
// supervisor has already handed its partition to an adopter.
func RunNodeContext(ctx context.Context, cfg NodeConfig) (*NodeResult, error) {
	if cfg.Engine == nil {
		cfg.Engine = reason.Forward{}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	l := Layout{Dir: cfg.Dir}
	dict := rdf.NewDict()
	ruleSrc, err := os.ReadFile(l.RulesFile())
	if err != nil {
		return nil, err
	}
	rs, err := rules.Parse(string(ruleSrc), dict)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: rules: %w", cfg.ID, err)
	}
	owner, err := readOwnerTable(l.OwnerFile(), dict)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	ccfg, err := nodeCluster(l, dict, cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	ccfg.Engine = cfg.Engine
	ccfg.Router = cluster.OwnerRouter{Owner: owner}
	ccfg.MaxRounds = cfg.MaxRounds
	ccfg.Provenance = cfg.Provenance
	if cfg.Inject != nil {
		ccfg.Transport = &faultinject.Transport{Inner: ccfg.Transport, Inj: cfg.Inject}
		ccfg.Inject = make([]*faultinject.Injector, cfg.ID+1)
		ccfg.Inject[cfg.ID] = cfg.Inject
	}
	bar := &fileBarrier{l: l, k: cfg.K, poll: cfg.Poll, timeout: cfg.Timeout, dict: dict, rules: rs}

	// Epoch bookkeeping: bump the start counter first thing, so a restarted
	// process announces itself before touching any round state. A second
	// start against the same work directory is a rejoin.
	epoch, err := readEpoch(l, cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("fscluster: node %d: %w", cfg.ID, err)
	}
	epoch++
	if err := rio.WriteFileAtomic(l.EpochFile(cfg.ID), []byte(strconv.Itoa(epoch))); err != nil {
		return nil, err
	}
	start := 0
	if epoch > 1 {
		// A supervisor may already have declared this node dead, in which
		// case an adopter owns the partition now; coming back anyway would
		// put two nodes behind one inbox.
		if adopter, dead := readDeadFile(l, cfg.ID); dead {
			return nil, fmt.Errorf("fscluster: node %d: declared dead (partition adopted by node %d); cannot rejoin", cfg.ID, adopter)
		}
		last, err := lastCompletedRound(l, cfg.ID)
		if err != nil {
			return nil, err
		}
		start = last + 1
		bar.pending = []int{cfg.ID}
		cfg.Obs.Emit(obs.Event{Type: obs.EvRejoin, TS: cfg.Obs.Now(),
			Worker: cfg.ID, Round: start, N: int64(epoch)})
	}

	g, tm, err := cluster.RunWorker(ctx, ccfg, cfg.ID, start, bar, bar)
	if err != nil {
		return nil, err
	}
	if err := writeGraphFile(l.ClosureFile(cfg.ID), dict, g); err != nil {
		return nil, err
	}
	cfg.Obs.FlushProfiles(cfg.Obs.Now())
	return &NodeResult{Rounds: tm.Rounds, Derived: tm.Derived, Sent: tm.Sent,
		Epoch: epoch, StartRound: start, Closure: g}, nil
}

// nodeCluster returns the cluster configuration every node of the work
// directory shares: the message transport and the checkpoint store, both
// interning through dict, journaling into o.
func nodeCluster(l Layout, dict *rdf.Dict, o *obs.Run) (cluster.Config, error) {
	tr, err := transport.NewFile(l.MsgDir(), dict)
	if err != nil {
		return cluster.Config{}, err
	}
	tr.Obs = o.Transport()
	store, err := cluster.NewDirCheckpoints(l.Dir, dict)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{Transport: tr, Recovery: &cluster.RecoveryConfig{Store: store}, Obs: o}, nil
}

// MergeClosures unions the k closure files into one graph. A node declared
// dead has no closure file; its contribution is reconstructed from its base
// partition, checkpoints, and delivered messages (everything it knew at its
// last completed round — any later derivations were redone by its adopter,
// whose closure file is merged normally).
func MergeClosures(dir string, k int) (*rdf.Dict, *rdf.Graph, error) {
	l := Layout{Dir: dir}
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	for i := 0; i < k; i++ {
		err := readGraphFile(l.ClosureFile(i), dict, g)
		if err == nil {
			continue
		}
		if _, dead := readDeadFile(l, i); !dead {
			return nil, nil, err
		}
		if err := addDeadNode(l, i, k, dict, g); err != nil {
			return nil, nil, fmt.Errorf("fscluster: reconstructing dead node %d: %w", i, err)
		}
	}
	return dict, g, nil
}

// addDeadNode adds dead node id's persisted state to g, through the
// loader adopters use (cluster.Reconstruct).
func addDeadNode(l Layout, id, k int, dict *rdf.Dict, g *rdf.Graph) error {
	base := rdf.NewGraph()
	if err := readGraphFile(l.PartFile(id), dict, base); err != nil {
		return err
	}
	ccfg, err := nodeCluster(l, dict, nil)
	if err != nil {
		return err
	}
	last := -1
	for i := 0; i < k; i++ {
		r, err := lastCompletedRound(l, i)
		if err != nil {
			return err
		}
		last = max(last, r)
	}
	rg, err := cluster.Reconstruct(context.Background(), ccfg, id, last+1, base.Triples())
	if err != nil {
		return err
	}
	g.AddAll(rg.Triples())
	return nil
}

func readOwnerTable(path string, dict *rdf.Dict) (map[rdf.ID]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	owner := map[rdf.ID]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		tab := strings.LastIndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("owner table line %d: no tab", lineNo)
		}
		term, err := ntriples.ParseTerm(line[:tab])
		if err != nil {
			return nil, fmt.Errorf("owner table line %d: %w", lineNo, err)
		}
		p, err := strconv.Atoi(line[tab+1:])
		if err != nil {
			return nil, fmt.Errorf("owner table line %d: %w", lineNo, err)
		}
		owner[dict.Intern(term)] = p
	}
	return owner, sc.Err()
}

// writeGraphFile writes g to path as sorted N-Triples, atomically.
func writeGraphFile(path string, dict *rdf.Dict, g *rdf.Graph) error {
	return rio.WriteAtomic(path, func(w io.Writer) error { return ntriples.WriteGraph(w, dict, g) })
}

func readGraphFile(path string, dict *rdf.Dict, g *rdf.Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ntriples.ReadGraph(bufio.NewReader(f), dict, g)
	return err
}
